"""The two benchmark workloads: input generation, CLI calls and output checks.

Each workload is one iteration of CLI invocations (``cli.main(argv)``) on
inputs generated from the benchmark seed. Checks read only the files the
CLI writes, so they hold for any implementation that keeps the command's
output contract.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ALPHA = 0.05

# Simulation configs: the package defaults, spelled out for the fields that
# fix the amount of work, so a later change of defaults cannot silently
# change a workload.
SIM_BASE = {
    "alpha": ALPHA,
    "cal_sizes": [30, 50, 200],
    "minority_sizes": [5, 15, 30],
    "n_test": 1000,
    "n_prompts": 5,
    "null_levels": [1, 4, 6],
    "max_level": 7,
    "k_groups": 50,
    "majority_cal_size": 200,
}
SIM_RANK_SEEDS = 5

SCREEN_CAL_ROWS = 200
SCREEN_GROUPS = 50
SCREEN_TEST_ROWS = 10_000

WEIGHTED_CAL_ROWS = 1_000
WEIGHTED_MINORITY_ROWS = 75
WEIGHTED_TEST_ROWS = 50

_HEADER = ("essay_id", "score", "role", "group_id", "population", "edit_intensity")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of an iteration and what its output must satisfy."""

    argv: tuple[str, ...]
    out: Path
    kind: str  # "detect" or "simulate"
    method: str  # detect method or simulate scenario


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Path, int], dict]  # writes inputs, returns what checks need
    calls: Callable[[Path, Path], list[Call]]  # (input dir, output dir) -> calls


def import_cli(root: Path):
    """Import the CLI from the checkout's ``src`` tree, never an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from conformal_wm import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"conformal_wm imported from {cli.__file__}, not {src}")
    return cli


def _logit_normal(rng: np.random.Generator, mu: float, sigma: float, n: int) -> np.ndarray:
    values = 1.0 / (1.0 + np.exp(-rng.normal(mu, sigma, n)))
    return np.clip(values, 1e-12, 1.0)


def _write_table(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for essay_id, score, role, group_id, population in rows:
            writer.writerow([essay_id, repr(float(score)), role, group_id, population, ""])


def _entropy(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed % 2**64, stream])  # any int, negative too


def _sim_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in _entropy(seed, 0).generate_state(n)]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _generate_sim(scenarios: tuple[str, ...], n_seeds: int):
    def generate(inputs: Path, seed: int) -> dict:
        seeds = _sim_seeds(seed, n_seeds)
        for scenario in scenarios:
            config = dict(SIM_BASE, scenario=scenario, seeds=seeds)
            (inputs / f"{scenario}.json").write_text(json.dumps(config), encoding="utf-8")
        return {"seeds": seeds}

    return generate


def _generate_screen(inputs: Path, seed: int) -> dict:
    rng = np.random.default_rng(_entropy(seed, 1))
    cal = _logit_normal(rng, 0.0, 1.5, SCREEN_CAL_ROWS)
    # every group nonempty, the remaining rows spread at random
    groups = np.concatenate([np.arange(SCREEN_GROUPS),
                             rng.integers(0, SCREEN_GROUPS, SCREEN_CAL_ROWS - SCREEN_GROUPS)])
    # a tenth of the term's essays carry a stronger watermark signal
    shifted = rng.random(SCREEN_TEST_ROWS) < 0.1
    test = np.where(shifted, _logit_normal(rng, -4.0, 1.5, SCREEN_TEST_ROWS),
                    _logit_normal(rng, 0.0, 1.5, SCREEN_TEST_ROWS))
    _write_table(inputs / "cal.csv", (
        (f"c{i:05d}", v, "calibration", f"g{g:02d}", "")
        for i, (v, g) in enumerate(zip(cal, groups))))
    test_ids = [f"t{i:06d}" for i in range(SCREEN_TEST_ROWS)]
    _write_table(inputs / "test.csv", ((e, v, "test", "", "") for e, v in zip(test_ids, test)))
    return {"cal": cal.tolist(), "groups": groups.tolist(), "test_ids": test_ids,
            "test": test.tolist()}


def _generate_weighted(inputs: Path, seed: int) -> dict:
    rng = np.random.default_rng(_entropy(seed, 2))
    n_major = WEIGHTED_CAL_ROWS - WEIGHTED_MINORITY_ROWS
    cal = np.concatenate([_logit_normal(rng, 0.0, 1.5, n_major),
                          _logit_normal(rng, -2.0, 1.5, WEIGHTED_MINORITY_ROWS)])
    population = np.array(["majority"] * n_major + ["minority"] * WEIGHTED_MINORITY_ROWS)
    order = rng.permutation(WEIGHTED_CAL_ROWS)
    test = _logit_normal(rng, -2.5, 1.5, WEIGHTED_TEST_ROWS)
    _write_table(inputs / "cal.csv", (
        (f"c{i:05d}", cal[j], "calibration", "", population[j])
        for i, j in enumerate(order)))
    test_ids = [f"t{i:06d}" for i in range(WEIGHTED_TEST_ROWS)]
    _write_table(inputs / "test.csv", ((e, v, "test", "", "") for e, v in zip(test_ids, test)))
    return {"test_ids": test_ids}


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


def _simulate_calls(scenarios: tuple[str, ...]):
    def calls(inputs: Path, out: Path) -> list[Call]:
        return [Call(("simulate", str(inputs / f"{s}.json"), "--threads", "1",
                      "--out", str(out / f"simulate-{s}")), out / f"simulate-{s}",
                     "simulate", s)
                for s in scenarios]

    return calls


def _detect_calls(methods: tuple[str, ...], extra: tuple[str, ...] = ()):
    def calls(inputs: Path, out: Path) -> list[Call]:
        return [Call(("detect", str(inputs / "cal.csv"), str(inputs / "test.csv"),
                      "--method", m, "--alpha", repr(ALPHA), *extra,
                      "--out", str(out / f"detect-{m}")), out / f"detect-{m}", "detect", m)
                for m in methods]

    return calls


def _workload(name: str, *parts) -> Workload:
    """A workload whose iteration runs each part's calls in turn.

    A part is a (generate, calls) pair; parts write distinct input files
    and return distinct keys for the checks.
    """
    def generate(inputs: Path, seed: int) -> dict:
        data: dict = {}
        for gen, _ in parts:
            data.update(gen(inputs, seed))
        return data

    def calls(inputs: Path, out: Path) -> list[Call]:
        return [call for _, make in parts for call in make(inputs, out)]

    return Workload(name, generate, calls)


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    _workload("weighted",
              (_generate_sim(("weighted",), 1), _simulate_calls(("weighted",))),
              (_generate_weighted, _detect_calls(("weighted",), ("--shift", "quantile")))),
    _workload("rank",
              (_generate_sim(("standard", "hierarchical"), SIM_RANK_SEEDS),
               _simulate_calls(("standard", "hierarchical"))),
              (_generate_screen, _detect_calls(("standard", "hierarchical")))),
)}


# ---------------------------------------------------------------------------
# Output digests, decision counts and checks
# ---------------------------------------------------------------------------


def call_digest(call: Call) -> str:
    """Digest of a call's output files plus its manifest's run hash.

    The manifest file itself is left out: it carries a wall-clock timestamp.
    """
    manifest = json.loads((call.out / "manifest.json").read_text(encoding="utf-8"))
    h = hashlib.sha256(manifest["run_hash"].encode())
    for name in sorted(manifest["outputs"]):
        h.update(name.encode())
        h.update(hashlib.sha256((call.out / name).read_bytes()).digest())
    return h.hexdigest()


def _read_decisions(call: Call) -> list[list[str]]:
    with (call.out / "decisions.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["essay_id", "conformal_p", "flagged"]:
        raise ValueError(f"{call.method}: unexpected decisions header {rows[0]}")
    return rows[1:]


def _read_cells(call: Call) -> list[dict]:
    return json.loads((call.out / "metrics.json").read_text(encoding="utf-8"))["cells"]


def call_decisions(call: Call) -> int:
    """Flag decisions a call produced, read from its outputs.

    detect: one per test row. simulate: each cell's alternative test set,
    plus each null test set, which all cells of one (method, null, size,
    seed, prompt) share.
    """
    if call.kind == "detect":
        return len(_read_decisions(call))
    cells = _read_cells(call)
    null_sets = {(c["method"], c["null_prompt"], c["cal_size"], c["seed"], c["prompt"]): c
                 for c in cells}
    return sum(c["n_tests"] for c in cells) + sum(c["n_tests"] for c in null_sets.values())


def _expected_cells(scenario: str, n_seeds: int) -> int:
    n_alts = sum(SIM_BASE["max_level"] - null for null in SIM_BASE["null_levels"])
    if scenario == "weighted":
        sizes, methods = len(SIM_BASE["minority_sizes"]), 4
    else:
        sizes, methods = len(SIM_BASE["cal_sizes"]), 1
    return n_seeds * SIM_BASE["n_prompts"] * n_alts * sizes * methods


def _check_standard(rows, data) -> list[str]:
    cal = np.sort(np.asarray(data["cal"]))
    counts = np.searchsorted(cal, np.asarray(data["test"]), side="right")
    oracle = ((1.0 + counts) / (cal.size + 1.0)).tolist()
    return _compare(rows, data["test_ids"], oracle, "standard")


def _check_hierarchical(rows, data) -> list[str]:
    cal = np.asarray(data["cal"])
    groups = np.asarray(data["groups"])
    tests = np.asarray(data["test"])
    fractions = []
    for g in np.unique(groups):
        members = np.sort(cal[groups == g])
        fractions.append(np.searchsorted(members, tests, side="right") / members.size)
    k = len(fractions)
    oracle = [(1.0 + math.fsum(col)) / (k + 1) for col in np.stack(fractions, axis=1).tolist()]
    return _compare(rows, data["test_ids"], oracle, "hierarchical")


def _compare(rows, ids, oracle, method) -> list[str]:
    """Bit-exact comparison; both rank rules flag on p <= alpha."""
    if len(rows) != len(ids):
        return [f"{method}: {len(rows)} decisions for {len(ids)} test rows"]
    bad = sum(1 for (essay_id, p_text, flagged), want_id, p in zip(rows, ids, oracle)
              if essay_id != want_id or p_text != repr(p)
              or flagged != ("true" if p <= ALPHA else "false"))
    return [f"{method}: {bad} decisions differ from the oracle"] if bad else []


def _check_weighted(rows, data) -> list[str]:
    if [r[0] for r in rows] != data["test_ids"]:
        return ["weighted: decisions are not one per test row in file order"]
    problems = []
    for essay_id, p_text, flagged in rows:
        p = float(p_text)
        if not 0.0 <= p <= 1.0:
            problems.append(f"weighted: p={p_text} out of [0, 1] for {essay_id}")
        elif flagged != ("true" if p < ALPHA else "false"):
            problems.append(f"weighted: flag {flagged} disagrees with p={p_text} for {essay_id}")
    return problems[:5]


_DETECT_CHECKS = {"standard": _check_standard, "hierarchical": _check_hierarchical,
                  "weighted": _check_weighted}


def check_call(call: Call, data: dict) -> list[str]:
    """Problems found in a call's outputs (empty when every check passes)."""
    if call.kind == "detect":
        return _DETECT_CHECKS[call.method](_read_decisions(call), data)
    cells = len(_read_cells(call))
    want = _expected_cells(call.method, len(data["seeds"]))
    return [] if cells == want else [f"simulate {call.method}: {cells} cells, expected {want}"]
