"""Synthetic generation and scenario driver: determinism, control, collapse."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conformal_wm import labeling, simulate
from conformal_wm.cli import main
from conformal_wm.density import DensityModel
from conformal_wm.simulate import (
    ScoreDistribution,
    THREADS_ENV_VAR,
    config_from_dict,
    config_to_dict,
    default_config,
    logit_shift,
    outlier_mask,
    resolve_threads,
    run_scenario,
)


def small_config(**overrides):
    base = dict(seeds=(1, 2), n_prompts=1, n_test=400, cal_sizes=(30, 200),
                null_levels=(1,), max_level=7)
    base.update(overrides)
    return replace(default_config(), **base)


def cells_as_tuples(report):
    return [(c.method, c.null_prompt, c.alt_prompt, c.cal_size, c.seed, c.prompt,
             c.fpr, c.power, c.n_outliers, c.outlier_proportion, c.excluded,
             c.suspect_flag_rate) for c in report.cells]


def sample(dist, n, seed):
    return simulate._sample_values(dist, n, np.random.default_rng(seed))


class TestGenerateScores:
    def test_deterministic_for_fixed_seed(self):
        dist = ScoreDistribution(family="logit_normal", params={"mu": -1, "sigma": 1})
        assert sample(dist, 50, seed=9).tolist() == sample(dist, 50, seed=9).tolist()

    def test_uniform_mean_near_half(self):
        values = sample(ScoreDistribution(family="uniform01"), 1000, seed=1)
        assert abs(values.mean() - 0.5) < 0.05

    def test_values_in_unit_interval(self):
        for family, params in [("uniform01", {}),
                               ("logit_normal", {"mu": -8, "sigma": 3}),
                               ("beta", {"a": 0.4, "b": 3.0})]:
            values = sample(ScoreDistribution(family=family, params=params), 500, seed=3)
            assert ((0 < values) & (values <= 1)).all()

    def test_lower_logit_mean_gives_smaller_median(self):
        hi = ScoreDistribution(family="logit_normal", params={"mu": 0.0, "sigma": 1.5})
        lo = ScoreDistribution(family="logit_normal", params={"mu": -2.0, "sigma": 1.5})
        assert np.median(sample(lo, 10000, seed=4)) < np.median(sample(hi, 10000, seed=4))

    def test_mixture_family(self):
        dist = ScoreDistribution(family="mixture", params={"components": [
            {"weight": 0.5, "family": "uniform01", "params": {}},
            {"weight": 0.5, "family": "beta", "params": {"a": 2, "b": 5}},
        ]})
        values = sample(dist, 400, seed=5)
        assert ((0 < values) & (values <= 1)).all()

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="invalid_params"):
            sample(ScoreDistribution(family="beta", params={"a": -1, "b": 2}), 10, seed=0)
        with pytest.raises(ValueError, match="unknown_family"):
            ScoreDistribution(family="cauchy")


class TestLogitShift:
    def test_zero_shift_is_bit_identity(self):
        rng = np.random.default_rng(0)
        values = rng.random(100) * 0.999 + 1e-6
        assert np.array_equal(logit_shift(values, 0.0), values)

    def test_negative_shift_lowers_scores(self):
        values = np.linspace(0.05, 0.95, 19)
        assert (logit_shift(values, -1.0) < values).all()

    def test_stays_in_unit_interval(self):
        values = np.array([1e-12, 0.5, 1.0])
        out = logit_shift(values, 5.0)
        assert ((out > 0) & (out <= 1.0)).all()


class TestConfig:
    def test_default_validates(self):
        default_config().validate()
        default_config("hierarchical").validate()
        default_config("weighted").validate()

    def test_round_trip_through_dict(self):
        cfg = replace(default_config(), distributions={
            ("majority", 1): ScoreDistribution(family="uniform01", edit_intensity=1)})
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown_config_key"):
            config_from_dict({"calibration_budget": 10})

    def test_non_monotone_ladder_rejected(self):
        cfg = replace(default_config(),
                      intensity_logit_means=(0.0, 2.0, -2.0, -3.0, -4.0, -5.0, -6.0))
        with pytest.raises(ValueError, match="intensity_ladder_not_monotone"):
            cfg.validate()

    def test_threads_resolution(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_threads(default_config()) == 1
        monkeypatch.setenv(THREADS_ENV_VAR, "6")
        assert resolve_threads(default_config()) == 6
        assert resolve_threads(replace(default_config(), threads=2)) == 2
        monkeypatch.setenv(THREADS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="invalid_thread_cap"):
            resolve_threads(default_config())


class TestDeterminism:
    def test_same_config_bit_identical_reports(self):
        cfg = small_config()
        assert cells_as_tuples(run_scenario(cfg)) == cells_as_tuples(run_scenario(cfg))

    def test_thread_count_does_not_change_results(self, monkeypatch):
        cfg = small_config(seeds=(1, 2, 3))
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        serial = cells_as_tuples(run_scenario(cfg))
        threaded = cells_as_tuples(run_scenario(replace(cfg, threads=4)))
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        via_env = cells_as_tuples(run_scenario(cfg))
        assert serial == threaded == via_env

    def test_weighted_outputs_identical_across_thread_caps(self, tmp_path):
        cfg = small_config(scenario="weighted", seeds=(1, 2), n_prompts=2, n_test=300,
                           minority_sizes=(5, 15), max_level=4)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(["simulate", str(path), "--threads", threads,
                         "--out", str(out)]) == 0
            outputs.append({f: (out / f).read_bytes()
                            for f in ("metrics.csv", "metrics.json")})
        assert outputs[0] == outputs[1]


class TestWeightedDensityCalls:
    def test_pool_density_evaluated_once_per_point_set(self, monkeypatch):
        cfg = small_config(scenario="weighted", seeds=(1,), n_prompts=1, n_test=50,
                           null_levels=(1, 4), max_level=6, minority_sizes=(5, 15),
                           threads=1)
        calls = []
        evaluate = DensityModel.evaluate

        def counting_evaluate(model, x):
            calls.append(model)
            return evaluate(model, x)

        monkeypatch.setattr(DensityModel, "evaluate", counting_evaluate)
        run_scenario(cfg)
        # p and both q-models at the pool, then all three at each test set
        per_null = [1 + 2 + 3 * (1 + len(cfg.alt_levels(null))) for null in cfg.null_levels]
        assert len(calls) == len(cfg.minority_sizes) * sum(per_null)


class TestWeightedScreen:
    @pytest.mark.parametrize("log_scale", [True, False])
    def test_outputs_equal_unscreened_run(self, tmp_path, monkeypatch, log_scale):
        # m = 5, 15 and 30 take quantile_shift's min, 2alpha and alpha branches
        cfg = small_config(scenario="weighted", seeds=(1,), n_prompts=2, n_test=300,
                           minority_sizes=(5, 15, 30), null_levels=(1, 4),
                           log_scale=log_scale, threads=1)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
        queried = []
        evaluate = DensityModel.evaluate

        def counting_evaluate(model, x):
            queried.append(np.size(x))
            return evaluate(model, x)

        monkeypatch.setattr(DensityModel, "evaluate", counting_evaluate)
        screen = simulate.weighted_candidates
        outputs, points = [], []
        for candidates in (screen, lambda cal, ratios, values, alpha:
                           np.ones(np.shape(values), dtype=bool)):
            monkeypatch.setattr(simulate, "weighted_candidates", candidates)
            queried.clear()
            out = tmp_path / f"run{len(outputs)}"
            assert main(["simulate", str(path), "--out", str(out)]) == 0
            outputs.append({f: (out / f).read_bytes()
                            for f in ("metrics.csv", "metrics.json", "plot_data.csv")})
            points.append(sum(queried))
        assert outputs[0] == outputs[1]
        # the screen skips density work, or it is not doing its job
        assert points[0] < points[1]


class TestScenarioBehavior:
    def test_standard_fpr_controlled(self):
        report = run_scenario(small_config(seeds=(1, 2, 3, 4, 5)))
        fprs = [c.fpr for c in report.cells]
        # mean over 10 independent (seed, size) conditions, n_test draws each
        n_eff = 400 * len({(c.seed, c.cal_size) for c in report.cells})
        assert sum(fprs) / len(fprs) <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / n_eff)

    def test_power_increases_with_separation(self):
        report = run_scenario(small_config())
        by_alt = {r.alt_prompt: r.power for r in report.rows if r.cal_size == 200}
        sigma = 2 * math.sqrt(0.25 / 400)
        assert by_alt[7] >= by_alt[2] - sigma

    def test_hierarchical_singleton_groups_match_standard_scenario(self):
        cfg = small_config(cal_sizes=(12,), k_groups=12, group_sigma=0.0,
                           n_test=300, seeds=(1,))
        std = run_scenario(cfg)
        hier = run_scenario(replace(cfg, scenario="hierarchical"))
        for a, b in zip(std.cells, hier.cells):
            assert a.method == "standard" and b.method == "hierarchical"
            assert (a.fpr, a.power, a.n_outliers) == (b.fpr, b.power, b.n_outliers)

    def test_hierarchical_fpr_controlled(self):
        report = run_scenario(small_config(scenario="hierarchical",
                                           seeds=(1, 2, 3), k_groups=40))
        fprs = [c.fpr for c in report.cells]
        assert sum(fprs) / len(fprs) <= 0.05 + 0.02

    def test_weighted_matches_unweighted_when_no_shift(self):
        # identical populations make the density ratio constant; the minority
        # sample must be large enough that the estimated anchors see that
        cfg = small_config(scenario="weighted", minority_logit_shift=0.0,
                           minority_sizes=(200,), seeds=(1, 2, 3), n_test=600)
        report = run_scenario(cfg)
        fpr = {}
        for r in report.rows:
            if r.alt_prompt == 7 and r.cal_size == 200:
                fpr[r.method] = r.fpr
        for method in ("weighted_mean", "weighted_quantile"):
            assert abs(fpr[method] - fpr["combined_unweighted"]) <= 0.02

    def test_weighted_variants_cut_minority_fpr_under_shift(self):
        cfg = small_config(scenario="weighted", minority_sizes=(15,),
                           seeds=(1, 2, 3), n_test=500)
        report = run_scenario(cfg)
        fpr = {r.method: r.fpr for r in report.rows if r.alt_prompt == 7}
        assert fpr["combined_unweighted"] > 0.05
        assert fpr["weighted_mean"] < fpr["combined_unweighted"]
        assert fpr["weighted_quantile"] < fpr["combined_unweighted"]

    def test_in_dist_variant_cannot_flag_below_granularity(self):
        # with m = 15 the smallest attainable p-value is 1/16 > 0.05
        cfg = small_config(scenario="weighted", minority_sizes=(15,), seeds=(1,),
                           n_test=300)
        report = run_scenario(cfg)
        in_dist = [c for c in report.cells if c.method == "in_dist"]
        assert in_dist and all(c.fpr == 0.0 for c in in_dist)
        assert all(c.power in (None, 0.0) for c in in_dist)

    def test_outlier_mask_matches_classify(self):
        rng = np.random.default_rng(11)
        bleu_null = rng.beta(8, 2, 200)
        bleu_alt = rng.beta(2, 2, 200)
        threshold = 0.55
        # the scenario labels through the one rule, labeling.outlier_mask
        assert outlier_mask is labeling.outlier_mask
        mask = outlier_mask(bleu_null, bleu_alt, threshold)
        expected = [n > a and a < threshold for n, a in zip(bleu_null, bleu_alt)]
        assert mask.tolist() == expected

    def test_cell_grid_shape(self):
        cfg = small_config(null_levels=(1, 6), cal_sizes=(30,), seeds=(1,))
        report = run_scenario(cfg)
        pairs = {(c.null_prompt, c.alt_prompt) for c in report.cells}
        assert pairs == {(1, a) for a in range(2, 8)} | {(6, 7)}

    def test_cell_failure_carries_context(self):
        cfg = small_config(distributions={
            ("majority", 1): ScoreDistribution(
                family="mixture", params={"components": []}, edit_intensity=1)})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_degenerate_weighted_cell_fails_loudly_with_context(self):
        # a subgroup collapsed to the numeric floor drives every importance
        # ratio to zero; the cell must error, not silently stop flagging
        cfg = small_config(scenario="weighted", minority_sizes=(15,), seeds=(1,),
                           n_test=100, minority_logit_shift=-5000.0)
        with pytest.raises(RuntimeError, match=r"cell_failure at seed=1 prompt=1"):
            run_scenario(cfg)
