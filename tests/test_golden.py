"""Golden snapshots: `simulate` and `detect` outputs pinned to committed files.

``CASES`` is the one list of golden cases. Each case runs once per session
through the ``conformal-wm`` command, in a subprocess with
``PYTHONWARNINGS=error``, and must exit 0 with nothing on stderr. The
cases start together at the first golden test, two at a time. The
command is the script on ``PATH`` when there is one, else
``python -m conformal_wm.cli``; an installed package whose script is not
on ``PATH`` fails the run. Each case names the golden it must reproduce,
so a new case is one entry, and several cases may reach one golden by
different paths (a two-thread pool, a JSON test table).

Simulate metrics, the standard config's plot data and standard/hierarchical
decisions must match byte for byte. Each simulate golden's ``metrics.json``
(per-cell FPR, power and suspect flag rate, about 250 kB each) is pinned by
its SHA-256 digest in ``simulate_metrics_json.sha256``.

Weighted decisions must keep every flag, with p-values equal up to a
relative 1e-12, because their last bits depend on the CPU: numpy's float64
``exp`` and ``log10`` round differently on the AVX-512 code path than on
numpy's baseline one. On one AVX-512 host, the committed files, written
on the default path, happen to match a run with
``NPY_ENABLE_CPU_FEATURES`` set to the baseline (``X86_V2``) byte for
byte, but the p-values of a 1,000-row pool differ between the two paths in
their last bits, with every flag equal. Simulate outputs count flags, and
are byte-identical on both paths.

A deliberate behaviour change regenerates the snapshots, each from the case
named after it, and CHANGES.md explains the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import functools
import hashlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import conformal_wm

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).parent / "golden"
CAL, TEST = str(GOLDEN / "detect_cal.csv"), str(GOLDEN / "detect_test.csv")

# case -> (golden it reproduces, command arguments before --out). An argument
# that is not a string (a simulate config, a table's rows) is written to a
# JSON file and passed by its path.
CASES = {
    "simulate_standard": ("simulate_standard", ["simulate", {"scenario": "standard"}]),
    # the built-in default config, its tasks on a two-thread pool
    "simulate_standard_threads2": ("simulate_standard", ["simulate", "--threads", "2"]),
    "simulate_hierarchical": ("simulate_hierarchical",
                              ["simulate", {"scenario": "hierarchical"}]),
    "simulate_hierarchical_threads2": ("simulate_hierarchical", [
        "simulate", {"scenario": "hierarchical"}, "--threads", "2"]),
    # a seed of 2**32 keys its substreams with a two-word part
    "simulate_hierarchical_big_seed": ("simulate_hierarchical_big_seed", [
        "simulate", {"scenario": "hierarchical", "seeds": [7, 4294967296]}]),
    "simulate_weighted": ("simulate_weighted", ["simulate", {"scenario": "weighted"}]),
    # two workers give the one-worker bytes
    "simulate_weighted_threads2": ("simulate_weighted", [
        "simulate", {"scenario": "weighted"}, "--threads", "2"]),
    "simulate_weighted_seed1": ("simulate_weighted_seed1", [
        "simulate", {"scenario": "weighted"}, "--seed", "1"]),
    "simulate_weighted_seed1_threads2": ("simulate_weighted_seed1", [
        "simulate", {"scenario": "weighted"}, "--seed", "1", "--threads", "2"]),
    "detect_standard": ("detect_standard", ["detect", CAL, TEST, "--method", "standard"]),
    # the test table read as JSON gives the bytes it gives as CSV
    "detect_standard_json_test_table": ("detect_standard", [
        "detect", CAL, list(csv.DictReader(Path(TEST).read_text(encoding="utf-8")
                                           .splitlines())), "--method", "standard"]),
    "detect_hierarchical": ("detect_hierarchical",
                            ["detect", CAL, TEST, "--method", "hierarchical"]),
    "detect_weighted_quantile": ("detect_weighted_quantile", [
        "detect", CAL, TEST, "--method", "weighted", "--shift", "quantile"]),
    # at alpha 0.05 the mean shift flags nothing on this table
    "detect_weighted_mean": ("detect_weighted_mean", [
        "detect", CAL, TEST, "--method", "weighted", "--shift", "mean", "--alpha", "0.1"]),
}

# simulate goldens whose plot_data.csv is pinned too, as <golden>_plot_data.csv
PLOT_GOLDENS = ("simulate_standard",)

# "<sha256>  <simulate golden>" per line, for every simulate golden's metrics.json
METRICS_JSON_DIGESTS = GOLDEN / "simulate_metrics_json.sha256"

SIMULATE = sorted(name for name, (_, args) in CASES.items() if args[0] == "simulate")
PLOT = [name for name in SIMULATE if CASES[name][0] in PLOT_GOLDENS]
DETECT = sorted(name for name, (_, args) in CASES.items() if args[0] == "detect")
RANK_DETECT = [name for name in DETECT if "weighted" not in CASES[name][1]]
WEIGHTED_DETECT = [name for name in DETECT if "weighted" in CASES[name][1]]


@functools.cache
def command() -> tuple[str, ...]:
    script = shutil.which("conformal-wm")
    if script:
        return (script,)
    try:
        importlib.metadata.distribution("conformal-wm")
    except importlib.metadata.PackageNotFoundError:
        return (sys.executable, "-m", "conformal_wm.cli")
    pytest.fail("conformal-wm is installed, but its script is not on PATH")


def run(argv: list[str]) -> subprocess.CompletedProcess:
    """``argv`` through the command, on the package these tests import."""
    src = str(Path(conformal_wm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="error", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([*command(), *argv], capture_output=True, text=True, env=env,
                          timeout=300)


def run_case(name: str, work: Path) -> tuple[Path, subprocess.CompletedProcess]:
    """The output directory of case ``name``, run under ``work``, and its process."""
    argv = []
    for i, arg in enumerate(CASES[name][1]):
        if not isinstance(arg, str):
            path = work / f"{name}.{i}.json"
            path.write_text(json.dumps(arg), encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    out = work / name
    return out, run([*argv, "--out", str(out)])


@pytest.fixture(scope="session")
def outputs(tmp_path_factory):
    """The output directory of a case that exited 0 with an empty stderr.

    Every case starts at the first request, on a pool of two workers (each
    case is a process of its own, so two keep both cores of a small host
    busy), in the order the tests read them; a request waits for its case.
    """
    work = tmp_path_factory.mktemp("golden")
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = {name: pool.submit(run_case, name, work) for name in (*SIMULATE, *DETECT)}

        def case_output(name: str) -> Path:
            out, proc = runs[name].result()
            assert (proc.returncode, proc.stderr) == (0, ""), name
            return out

        yield case_output


def golden_bytes(name: str, suffix: str = "") -> bytes:
    return (GOLDEN / f"{CASES[name][0]}{suffix}.csv").read_bytes()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def decision_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(data.decode("utf-8").splitlines()))


@pytest.mark.parametrize("name", SIMULATE)
def test_simulate_metrics_byte_identical(outputs, name):
    assert (outputs(name) / "metrics.csv").read_bytes() == golden_bytes(name)


@pytest.mark.parametrize("name", SIMULATE)
def test_simulate_metrics_json_digest(outputs, name):
    lines = METRICS_JSON_DIGESTS.read_text(encoding="utf-8").splitlines()
    digests = {golden: digest for digest, golden in (line.split() for line in lines)}
    assert sha256(outputs(name) / "metrics.json") == digests[CASES[name][0]]


@pytest.mark.parametrize("name", PLOT)
def test_simulate_plot_data_byte_identical(outputs, name):
    got = (outputs(name) / "plot_data.csv").read_bytes()
    assert got == golden_bytes(name, "_plot_data")


@pytest.mark.parametrize("name", RANK_DETECT)
def test_rank_detect_decisions_byte_identical(outputs, name):
    assert (outputs(name) / "decisions.csv").read_bytes() == golden_bytes(name)


@pytest.mark.parametrize("name", WEIGHTED_DETECT)
def test_weighted_detect_same_flags_last_bits_only(outputs, name):
    got = decision_rows((outputs(name) / "decisions.csv").read_bytes())
    want = decision_rows(golden_bytes(name))
    assert got[0] == want[0]
    assert [(r[0], r[2]) for r in got] == [(r[0], r[2]) for r in want]
    for (essay_id, p_got, _), (_, p_want, _) in zip(got[1:], want[1:]):
        assert abs(float(p_got) - float(p_want)) <= 1e-12 * float(p_want), essay_id


# the manifest's extra.shift of each weighted golden: the fitted ShiftEstimate
# and the run's settings; floats up to a relative 1e-12, as log10 is CPU-dependent
WEIGHTED_SHIFTS = {
    "detect_weighted_quantile": {
        "method": "quantile", "branch": "2alpha", "minority_size": 12,
        "bandwidth": 0.5, "log_scale": True,
        "q_anchor": -1.679715622386813, "p_anchor": -1.2904916048919275,
        "sigma_p": 0.4702296561362299, "sigma_q": 0.6022361682756574},
    "detect_weighted_mean": {
        "method": "mean", "branch": None, "minority_size": 12,
        "bandwidth": 0.5, "log_scale": True,
        "q_anchor": -0.9736247339782911, "p_anchor": -0.4951240052151481,
        "sigma_p": 0.4702296561362299, "sigma_q": 0.6022361682756574},
}


@pytest.mark.parametrize("name", WEIGHTED_DETECT)
def test_weighted_detect_records_the_fitted_shift(outputs, name):
    manifest = json.loads((outputs(name) / "manifest.json").read_text(encoding="utf-8"))
    got, want = manifest["extra"]["shift"], WEIGHTED_SHIFTS[CASES[name][0]]
    assert sorted(got) == sorted(want)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_undecodable_table_exits_2_with_its_code(tmp_path):
    table = tmp_path / "latin1.csv"
    table.write_bytes(b"essay_id,score,role\nt\xff,0.5,test\n")
    proc = run(["detect", CAL, str(table), "--out", str(tmp_path / "out")])
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "encoding_error"
    assert not (tmp_path / "out").exists()


def test_bleu_of_a_text_with_itself_exits_0():
    proc = run(["bleu", str(README), str(README)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["value"] == 1.0


def test_installed_package_without_its_script_on_path_fails(monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setattr(importlib.metadata, "distribution", lambda name: None)
    with pytest.raises(pytest.fail.Exception, match="not on PATH"):
        command.__wrapped__()


def regenerate(work: Path) -> None:
    digests = {}
    for name, (golden, args) in CASES.items():
        if name != golden:  # another path to a golden that its own case writes
            continue
        out, proc = run_case(name, work)
        assert (proc.returncode, proc.stderr) == (0, ""), (name, proc.stderr)
        if args[0] == "detect":
            shutil.copyfile(out / "decisions.csv", GOLDEN / f"{name}.csv")
            continue
        shutil.copyfile(out / "metrics.csv", GOLDEN / f"{name}.csv")
        if name in PLOT_GOLDENS:
            shutil.copyfile(out / "plot_data.csv", GOLDEN / f"{name}_plot_data.csv")
        digests[name] = sha256(out / "metrics.json")
    METRICS_JSON_DIGESTS.write_text(
        "".join(f"{digests[name]}  {name}\n" for name in sorted(digests)), encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    print(f"snapshots written to {GOLDEN}", file=sys.stderr)
