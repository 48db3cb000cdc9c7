"""Acceptance gate: one test per release criterion, with stated tolerances.

Each test prints a single ``[acceptance] ... PASS/FAIL`` line (visible with
``pytest -s`` or in captured output) and enforces the criterion's runtime
budget where one applies.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conformal_wm.cli import main
from conformal_wm.conformal import hierarchical_p_values, standard_p_values, weighted_p_values
from conformal_wm.bleu import TokenizedText, bleu
from conformal_wm import density
from conformal_wm.density import DensityModel, ShiftEstimate, quantile_shift
from conformal_wm.evaluation import CellResult, is_excluded
from conformal_wm.simulate import default_config, run_scenario

ALPHA = 0.05
R = 10_000
FPR_BOUND = ALPHA + 3 * math.sqrt(ALPHA * (1 - ALPHA) / R)  # 0.05 + 0.00654


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_criterion_01_fpr_control_standard():
    """i.i.d. null scores: empirical FPR within the 3-sigma binomial band."""
    with criterion(1, "FPR control, standard"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        observed = {}
        for n_cal in (30, 50, 200):
            cal = rng.random((R, n_cal))
            tests = rng.random(R)
            p = np.array([standard_p_values(row, t) for row, t in zip(cal, tests)])
            flags = p <= ALPHA
            observed[n_cal] = float(flags.mean())
        elapsed = time.perf_counter() - t0
        for n_cal, fpr in observed.items():
            assert fpr <= FPR_BOUND, (n_cal, fpr)
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s"


def test_criterion_02_fpr_control_hierarchical():
    """Two-level null draws, K=20 heterogeneous groups, fresh per trial."""
    with criterion(2, "FPR control, hierarchical"):
        rng = np.random.default_rng(202)
        sizes = rng.integers(1, 9, size=20)  # heterogeneous, fixed profile
        t0 = time.perf_counter()
        blocks = []
        for n_k in sizes:
            theta = rng.normal(0.0, 1.0, (R, 1))
            blocks.append(_expit(theta + rng.normal(0.0, 1.0, (R, n_k))))
        theta_star = rng.normal(0.0, 1.0, R)
        tests = _expit(theta_star + rng.normal(0.0, 1.0, R))
        p = np.array([hierarchical_p_values([block[r] for block in blocks], tests[r])
                      for r in range(R)])
        flags = p <= ALPHA
        fpr = float(flags.mean())
        elapsed = time.perf_counter() - t0
        assert fpr <= FPR_BOUND, fpr
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s"


def test_criterion_03_singleton_collapse_bit_identical():
    """Hierarchical with singleton groups == standard, against a rank oracle."""
    with criterion(3, "collapse identity"):
        rng = np.random.default_rng(303)
        t0 = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            values = rng.random(n)
            s = float(rng.random())
            (flat,) = standard_p_values(values, [s]).tolist()
            (hier,) = hierarchical_p_values([[v] for v in values], [s]).tolist()
            assert hier == flat
            oracle = Fraction(1 + sum(1 for v in values if v <= s), n + 1)
            assert flat == float(oracle)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s"


def test_criterion_04_weighted_reduction():
    """Identical densities: weighted flag == standard flag except exact ties."""
    with criterion(4, "weighted reduction"):
        rng = np.random.default_rng(404)
        identity = ShiftEstimate("mean", 0.0, 0.0, 1.0, 1.0)  # q = p
        t0 = time.perf_counter()
        disagreements = 0
        for _ in range(1000):
            n = int(rng.integers(1, 61))
            values = rng.random(n) * 0.999 + 1e-4
            s = float(rng.random() * 0.999 + 1e-4)
            logs = np.log10(values)
            model = DensityModel(logs, 0.5)
            (ratios,) = np.exp(density._log_ratios(model.log_evaluate, [identity],
                                                   np.append(logs, math.log10(s))))
            wtd_flag = weighted_p_values(values, ratios[:-1], s, ratios[-1]) < ALPHA
            std_p = standard_p_values(values, s)
            if std_p == ALPHA:
                disagreements += wtd_flag != (std_p <= ALPHA)
            else:
                assert wtd_flag == (std_p <= ALPHA), (n, s, std_p)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s"


def test_criterion_05_quantile_shift_branch_boundaries():
    """Minority sizes 10/11/20/21 land on min, 2-alpha, 2-alpha, alpha branches."""
    with criterion(5, "quantile-shift branch boundaries"):
        rng = np.random.default_rng(505)
        pool = rng.normal(0, 1, 300)
        expected = {10: "min", 11: "2alpha", 20: "2alpha", 21: "alpha"}
        for m, branch in expected.items():
            minority = rng.normal(-1.5, 1, m)
            est = quantile_shift(pool, minority, alpha=ALPHA)
            assert est.branch == branch, (m, est.branch)


def test_criterion_06_distribution_shift_fairness():
    """Pooled-unweighted inflates minority FPR; both weighted variants cut it."""
    with criterion(6, "distribution-shift fairness"):
        t0 = time.perf_counter()
        cfg = replace(
            default_config("weighted"),
            null_levels=(1,),
            minority_sizes=(15,),
            n_test=2000,
            n_prompts=1,
            seeds=(1, 2, 3, 4, 5),
        )
        report = run_scenario(cfg)
        fpr = {r.method: r.fpr for r in report.rows if r.alt_prompt == 7}
        elapsed = time.perf_counter() - t0
        sigma = math.sqrt(ALPHA * (1 - ALPHA) / (len(cfg.seeds) * cfg.n_test))
        assert fpr["combined_unweighted"] >= ALPHA + 2 * sigma, fpr
        assert fpr["weighted_mean"] < fpr["combined_unweighted"], fpr
        assert fpr["weighted_quantile"] < fpr["combined_unweighted"], fpr
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s"


def test_criterion_07_power_grows_with_calibration_size():
    """power(n_cal=200) >= power(n_cal=30) - 2 sigma for every (null, alt) pair."""
    with criterion(7, "power trend in calibration size"):
        report = run_scenario(default_config())
        by_size = {30: {}, 200: {}}
        outliers_30 = {}
        for row in report.rows:
            if row.cal_size in by_size:
                by_size[row.cal_size][(row.null_prompt, row.alt_prompt)] = row.power
                if row.cal_size == 30:
                    outliers_30[(row.null_prompt, row.alt_prompt)] = row.n_outliers_total
        pairs = set(by_size[30]) & set(by_size[200])
        assert pairs, "no comparable (null, alt) pairs survived exclusion"
        for pair in sorted(pairs):
            sigma = math.sqrt(0.25 / outliers_30[pair])  # max-variance bound
            assert by_size[200][pair] >= by_size[30][pair] - 2 * sigma, (
                pair, by_size[30][pair], by_size[200][pair])


def test_criterion_08_bleu_oracle():
    """Hand-computed pair, exact identity case, and brute-force clipping parity."""
    with criterion(8, "similarity-score oracle"):
        ref = TokenizedText(("the", "cat", "sat", "down"))
        cand = TokenizedText(("the", "cat", "sat"))
        assert bleu(ref, cand).value == pytest.approx(0.7165, abs=1e-4)

        same = TokenizedText(("several", "words", "exactly", "alike"))
        assert bleu(same, same).value == 1.0

        def brute_precision(reference, candidate, n):
            grams = lambda t: [tuple(t[i:i + n]) for i in range(len(t) - n + 1)]
            cand_grams = grams(candidate)
            if not cand_grams:
                return None
            pool = grams(reference)
            hits = 0
            for g in cand_grams:
                if g in pool:
                    pool.remove(g)
                    hits += 1
            return hits / len(cand_grams)

        rng = np.random.default_rng(808)
        vocab = np.array(["a", "b", "c", "d", "e"])
        for _ in range(500):
            r = tuple(rng.choice(vocab, size=rng.integers(1, 11)))
            c = tuple(rng.choice(vocab, size=rng.integers(1, 11)))
            score = bleu(TokenizedText(r), TokenizedText(c))
            assert score.unigram_precision == pytest.approx(
                brute_precision(r, c, 1), abs=1e-12)
            p2 = brute_precision(r, c, 2)
            if p2 is not None:
                assert score.bigram_precision == pytest.approx(p2, abs=1e-12)


def test_criterion_09_exclusion_rule_boundaries():
    """29 outliers or proportion 0.049 exclude a cell; 30 and 0.05 keep it."""
    with criterion(9, "negligible-violation boundaries"):
        assert is_excluded(29, 0.50)
        assert is_excluded(500, 0.049)
        assert not is_excluded(30, 0.05)
        kept = CellResult(null_prompt=1, alt_prompt=7, cal_size=30, fpr=0.04,
                          power=0.9, n_outliers=30, outlier_proportion=0.05,
                          excluded=False)
        assert not kept.excluded
        dropped = CellResult(null_prompt=1, alt_prompt=7, cal_size=30, fpr=0.04,
                             power=None, n_outliers=29, outlier_proportion=0.05,
                             excluded=True)
        assert dropped.excluded


def test_criterion_10_simulate_outputs_reproducible(tmp_path):
    """Default-config runs are byte-identical, across thread caps included."""
    with criterion(10, "deterministic simulation outputs"):
        outputs = {}
        for name, cap in (("a", []), ("b", ["--threads", "1"]), ("c", ["--threads", "4"])):
            out = tmp_path / name
            assert main(["simulate", *cap, "--out", str(out)]) == 0
            outputs[name] = {
                f: (out / f).read_bytes()
                for f in ("metrics.csv", "metrics.json", "plot_data.csv")
            }
            outputs[name]["run_hash"] = json.loads(
                (out / "manifest.json").read_text())["run_hash"]
        assert outputs["a"] == outputs["b"] == outputs["c"]

        plot = (tmp_path / "a" / "plot_data.csv").read_text().splitlines()[1:]
        fpr_values = [float(line.split(",")[-1]) for line in plot
                      if line.split(",")[-2] == "fpr"]
        assert fpr_values and max(fpr_values) <= 0.08
