"""Golden snapshots: `simulate` and `detect` outputs pinned to committed files.

Simulate metrics, the standard config's plot data and standard/hierarchical
decisions must match byte for byte. Each simulate case's ``metrics.json``
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

A deliberate behaviour change regenerates the snapshots, and CHANGES.md
explains the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import hashlib
import json
import sys
from pathlib import Path

import pytest

from conformal_wm.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (simulate config, extra CLI arguments)
SIMULATE_CASES = {
    "simulate_standard": ({"scenario": "standard"}, ()),
    "simulate_hierarchical": ({"scenario": "hierarchical"}, ()),
    # a seed of 2**32 keys its substreams with a two-word part
    "simulate_hierarchical_big_seed": ({"scenario": "hierarchical",
                                        "seeds": [7, 4294967296]}, ()),
    "simulate_weighted": ({"scenario": "weighted"}, ()),
    "simulate_weighted_seed1": ({"scenario": "weighted"}, ("--seed", "1")),
}

# name -> extra detect arguments, run on detect_cal.csv / detect_test.csv
DETECT_CASES = {
    "detect_standard": ("--method", "standard"),
    "detect_hierarchical": ("--method", "hierarchical"),
    "detect_weighted_quantile": ("--method", "weighted", "--shift", "quantile"),
    # at alpha 0.05 the mean shift flags nothing on this table
    "detect_weighted_mean": ("--method", "weighted", "--shift", "mean", "--alpha", "0.1"),
}
EXACT_DETECT = ("detect_standard", "detect_hierarchical")
WEIGHTED_DETECT = ("detect_weighted_quantile", "detect_weighted_mean")

# simulate cases whose plot_data.csv is pinned too, as <name>_plot_data.csv
PLOT_CASES = ("simulate_standard",)

# "<sha256>  <simulate case>" per line, for every case's metrics.json
METRICS_JSON_DIGESTS = GOLDEN / "simulate_metrics_json.sha256"


def run_simulate(name: str, work: Path, output: str = "metrics.csv") -> bytes:
    config, extra = SIMULATE_CASES[name]
    out = work / name
    if not out.exists():
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", str(config_path), *extra, "--out", str(out)]) == 0
    return (out / output).read_bytes()


def run_detect(name: str, work: Path) -> bytes:
    out = work / name
    argv = ["detect", str(GOLDEN / "detect_cal.csv"), str(GOLDEN / "detect_test.csv"),
            *DETECT_CASES[name], "--out", str(out)]
    assert main(argv) == 0
    return (out / "decisions.csv").read_bytes()


def golden_bytes(name: str) -> bytes:
    return (GOLDEN / f"{name}.csv").read_bytes()


def metrics_json_digests() -> dict[str, str]:
    lines = METRICS_JSON_DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def decision_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(data.decode("utf-8").splitlines()))


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
def test_simulate_metrics_byte_identical(tmp_path, name):
    assert run_simulate(name, tmp_path) == golden_bytes(name)


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
def test_simulate_metrics_json_digest(tmp_path, name):
    got = hashlib.sha256(run_simulate(name, tmp_path, "metrics.json")).hexdigest()
    assert got == metrics_json_digests()[name]


@pytest.mark.parametrize("name", PLOT_CASES)
def test_simulate_plot_data_byte_identical(tmp_path, name):
    got = run_simulate(name, tmp_path, "plot_data.csv")
    assert got == golden_bytes(f"{name}_plot_data")


@pytest.mark.parametrize("name", EXACT_DETECT)
def test_rank_detect_decisions_byte_identical(tmp_path, name):
    assert run_detect(name, tmp_path) == golden_bytes(name)


@pytest.mark.parametrize("name", WEIGHTED_DETECT)
def test_weighted_detect_same_flags_last_bits_only(tmp_path, name):
    got = decision_rows(run_detect(name, tmp_path))
    want = decision_rows(golden_bytes(name))
    assert got[0] == want[0]
    assert [(r[0], r[2]) for r in got] == [(r[0], r[2]) for r in want]
    for (essay_id, p_got, _), (_, p_want, _) in zip(got[1:], want[1:]):
        assert abs(float(p_got) - float(p_want)) <= 1e-12 * float(p_want), essay_id


# the manifest's extra.shift of each weighted case: the fitted ShiftEstimate
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
def test_weighted_detect_records_the_fitted_shift(tmp_path, name):
    run_detect(name, tmp_path)
    manifest = json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))
    got, want = manifest["extra"]["shift"], WEIGHTED_SHIFTS[name]
    assert sorted(got) == sorted(want)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def regenerate(work: Path) -> None:
    for name in SIMULATE_CASES:
        (GOLDEN / f"{name}.csv").write_bytes(run_simulate(name, work))
    for name in PLOT_CASES:
        (GOLDEN / f"{name}_plot_data.csv").write_bytes(
            run_simulate(name, work, "plot_data.csv"))
    METRICS_JSON_DIGESTS.write_text("".join(
        f"{hashlib.sha256(run_simulate(name, work, 'metrics.json')).hexdigest()}  {name}\n"
        for name in sorted(SIMULATE_CASES)), encoding="utf-8")
    for name in DETECT_CASES:
        (GOLDEN / f"{name}.csv").write_bytes(run_detect(name, work))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    print(f"snapshots written to {GOLDEN}", file=sys.stderr)
