"""Synthetic generation and scenario driver: determinism, control, collapse."""

import json
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_wm import conformal, density, labeling, seeding, simulate
from conformal_wm.cli import main
from conformal_wm.density import DensityModel
from conformal_wm.io import canonical_json, sha256_text
from conformal_wm.simulate import (
    ScoreDistribution,
    config_from_dict,
    config_to_dict,
    default_config,
    logit_shift,
    outlier_mask,
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


def byte_packed_words(key):
    """A list key's 32-bit little-endian words, as SeedSequence reads it (0 as one word)."""
    return np.frombuffer(b"".join(
        v.to_bytes(4 * max(1, (v.bit_length() + 31) // 32), "little") for v in key),
        dtype="<u4").astype(np.uint32)


# key parts on either side of the one-word limit
KEY_EDGES = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5])


def old_expit(x):
    """The stable logistic dividing both branches everywhere: ``_expit``'s reference."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def masked_expit(x):
    """The logistic as two masked halves; ``_expit`` must match it bit for bit."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestDraws:
    @settings(max_examples=200, deadline=None)
    @given(seed=KEY_EDGES | st.integers(0, 2**70), prompt=KEY_EDGES | st.integers(0, 2**33),
           null=KEY_EDGES | st.integers(0, 7), alt=KEY_EDGES | st.integers(0, 7),
           size_idx=KEY_EDGES | st.integers(0, 2**40),
           stream=st.sampled_from(sorted(simulate._STREAMS)))
    @example(seed=0, prompt=0, null=0, alt=0, size_idx=0, stream="cal")
    @example(seed=2**32 - 1, prompt=1, null=1, alt=2, size_idx=0, stream="alt_test")
    @example(seed=2**32, prompt=1, null=1, alt=2, size_idx=0, stream="alt_test")
    @example(seed=2**64, prompt=2**32, null=6, alt=7, size_idx=2**32 + 1, stream="bleu_alt")
    @example(seed=2**70, prompt=5, null=6, alt=7, size_idx=2, stream="minority_cal")
    @example(seed=0, prompt=2**32 - 1, null=2**32, alt=2**64 + 5, size_idx=0, stream="cal")
    def test_rng_equals_list_key_stream(self, seed, prompt, null, alt, size_idx, stream):
        key = [simulate._ENTROPY_BASE, seed, prompt, null, alt, size_idx,
               simulate._STREAMS[stream]]
        words = byte_packed_words(key)
        assert [w for part in key for w in seeding.int_words(part)] == words.tolist()
        (row,) = seeding.seed_states(words[None])
        # parts below 2**32 take one word each, larger ones several
        for entropy in (key, words):
            seq = np.random.SeedSequence(entropy)
            assert row.tolist() == seq.generate_state(4, np.uint64).tolist()
            want = np.random.default_rng(seq)
            got = seeding.generator(row)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.random(4).tolist() == want.random(4).tolist()

    @settings(max_examples=100, deadline=None)
    @given(keys=st.lists(st.tuples(KEY_EDGES | st.integers(0, 2**70),
                                   KEY_EDGES | st.integers(0, 2**33),
                                   KEY_EDGES | st.integers(0, 7),
                                   KEY_EDGES | st.integers(0, 7),
                                   KEY_EDGES | st.integers(0, 2**40),
                                   st.sampled_from(sorted(simulate._STREAMS.values()))),
                         min_size=1, max_size=12))
    def test_one_batch_of_keys_equals_their_streams(self, keys):
        # keys of equally many words share one call
        by_width: dict = {}
        for key in keys:
            key = (simulate._ENTROPY_BASE, *key)
            by_width.setdefault(byte_packed_words(key).size, []).append(key)
        for rows in by_width.values():
            states = seeding.seed_states(np.array([byte_packed_words(k) for k in rows]))
            assert states.shape == (len(rows), 4) and states.dtype == np.uint64
            for key, row in zip(rows, states):
                seq = np.random.SeedSequence(list(key))
                assert row.tolist() == seq.generate_state(4, np.uint64).tolist()
                want = np.random.default_rng(seq)
                got = seeding.generator(row)
                assert got.bit_generator.state == want.bit_generator.state
                assert got.random(4).tolist() == want.random(4).tolist()

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**63, 2**70])
    def test_run_streams_equal_list_key_streams(self, seed):
        cfg = small_config(scenario="hierarchical", n_prompts=3, null_levels=(1, 4))
        plan = simulate._task_plan(cfg)
        streams = simulate._Streams(seed, cfg.n_prompts, plan)
        for prompt in (1, 3):
            for null, alt, size_idx, role in plan:
                want = np.random.default_rng(np.random.SeedSequence(
                    [simulate._ENTROPY_BASE, seed, prompt, null, alt, size_idx,
                     simulate._STREAMS[role]]))
                assert (streams(prompt, null, alt, size_idx, role).random(3).tolist()
                        == want.random(3).tolist())

    def test_seed_row_serves_only_pcg64s_request(self):
        row = seeding.seed_states(np.array([[1, 2, 3, 4, 5, 6, 7]], np.uint32))[0]
        seed_row = seeding.SeedRow(row)
        assert seed_row.generate_state(4, np.uint64) is row
        for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
            with pytest.raises(ValueError, match="seed_row_is_4_uint64"):
                seed_row.generate_state(n_words, dtype)

    def test_seed_states_takes_only_uint32_word_rows(self):
        words = np.array([[1, 2, 3, 4, 5]], np.uint32)
        for bad in (words.astype(np.int64), words[0], words[:, :3]):
            with pytest.raises(ValueError, match="seed_words_not_uint32"):
                seeding.seed_states(bad)

    @pytest.mark.parametrize("value, words", [
        (0, [0]), (2**32 - 1, [2**32 - 1]), (2**32, [0, 1]),
        (np.int64(7), [7]), (np.uint64(2**63 + 5), [5, 2**31])])
    def test_int_words_reads_ints_as_seed_sequence_does(self, value, words):
        assert seeding.int_words(value) == words
        padded = [*words, 1, 2, 3]  # one row of at least four words
        (row,) = seeding.seed_states(np.array([padded], np.uint32))
        want = np.random.SeedSequence([int(value), 1, 2, 3]).generate_state(4, np.uint64)
        assert row.tolist() == want.tolist()

    def test_expit_bits_equal_masked_form(self):
        special = [0.0, -0.0, np.inf, -np.inf, 700.5, -700.5, 709.8, -709.8, 745.2,
                   -745.2, 800.0, -800.0, 1e308, -1e308, 5e-324, -5e-324, 36.7, -36.7]
        rng = np.random.default_rng(17)
        x = np.concatenate([special, rng.normal(0.0, 5.0, 4000),
                            rng.normal(0.0, 400.0, 1000), np.linspace(-900.0, 900.0, 3601)])
        got = simulate._expit(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got.view(np.uint64), masked_expit(x).view(np.uint64))

    def test_transforms_bits_equal_old_expressions(self):
        # signed zeros and infinities, NaNs, exp's overflow edge and subnormals
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.0, -710.0, 5e-324,
                   -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300, np.nextafter(1.0, 2.0)]
        rng = np.random.default_rng(18)
        x = np.concatenate([special, rng.normal(0.0, 5.0, 2000),
                            rng.normal(0.0, 400.0, 500), rng.random(500)])
        got = simulate._expit(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got.view(np.uint64), old_expit(x).view(np.uint64))
        # the clip into (0, 1], NaN payloads and signs included
        for values in (x, got, -x):
            clipped = simulate._into_unit(values)
            want = np.clip(values, simulate._TINY, 1.0)
            assert np.array_equal(clipped.view(np.uint64), want.view(np.uint64))
        # a scalar logistic keeps working, as it did through np.where
        assert float(simulate._expit(np.float64(-710.0))) == float(old_expit(-710.0))


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


def old_probe_medians(cfg, population):
    """The dominance probe's medians, each level drawn from its own ``SeedSequence``."""
    index = 0 if population == "majority" else 1
    return [float(np.median(simulate._sample_values(
        cfg.distribution_for(population, level), simulate._DOMINANCE_PROBE_N,
        np.random.default_rng(np.random.SeedSequence(
            [simulate._ENTROPY_BASE, 999, level, index])))))
        for level in range(1, cfg.max_level + 1)]


def old_ladder_fault(cfg):
    """The ``SeedSequence``-seeded dominance check's error, or None where it passed."""
    for population in cfg.populations():
        medians = old_probe_medians(cfg, population)
        if any(lo > hi * 1.02 + 1e-12 for lo, hi in zip(medians[1:], medians[:-1])):
            return (f"intensity_ladder_not_monotone: medians={medians} "
                    f"for population {population!r}")
    return None


def mixture_ladder(bumped=None):
    """Two-component mixtures falling with the level; population ``bumped``'s level 3 rises."""
    def mixture(population, level):
        mu = -level - (population == "minority") + 4 * (population == bumped and level == 3)
        return ScoreDistribution(family="mixture", params={"components": [
            {"weight": 0.7, "family": "logit_normal", "params": {"mu": mu, "sigma": 1.0}},
            {"weight": 0.3, "family": "beta", "params": {"a": 1.0, "b": 2.0 + level}}]})
    return {(population, level): mixture(population, level)
            for population in ("majority", "minority") for level in range(1, 8)}


class TestDominanceProbes:
    @pytest.mark.parametrize("cfg", [
        default_config(), default_config("weighted"),
        replace(default_config("weighted"),
                intensity_logit_means=(0.0, 2.0, -2.0, -3.0, -4.0, -5.0, -6.0)),
        replace(default_config("weighted"), distributions=mixture_ladder()),
        replace(default_config("weighted"), distributions=mixture_ladder("majority")),
        replace(default_config("weighted"), distributions=mixture_ladder("minority")),
    ], ids=["standard", "weighted", "ladder-fault", "mixture", "mixture-majority-fault",
            "mixture-minority-fault"])
    def test_probes_equal_seed_sequence_probes(self, monkeypatch, cfg):
        # one seed_states call seeds every probe, and each probe keeps the
        # bits, medians and verdict of its own SeedSequence-seeded stream
        want = {population: old_probe_medians(cfg, population)
                for population in cfg.populations()}
        fault = old_ladder_fault(cfg)
        levels = range(1, cfg.max_level + 1)
        probes = {id(cfg.distribution_for(population, level)): (population, level)
                  for population in cfg.populations() for level in levels}
        got, sample, seed_states = {}, simulate._sample_values, seeding.seed_states
        calls = []

        def recording(dist, n, rng):
            values = sample(dist, n, rng)
            if id(dist) in probes:
                got[probes[id(dist)]] = float(np.median(values))
            return values

        def counting(words):
            calls.append(words.shape)
            return seed_states(words)

        monkeypatch.setattr(simulate, "_sample_values", recording)
        monkeypatch.setattr(seeding, "seed_states", counting)
        if fault is None:
            cfg.validate()
        else:
            with pytest.raises(ValueError) as info:
                cfg.validate()
            assert str(info.value) == fault
        assert calls == [(len(cfg.populations()) * cfg.max_level, 4)]
        # a fault stops the check after the population it names
        populations = cfg.populations()
        probed = populations[:populations.index(fault.split("'")[-2]) + 1] if fault \
            else populations
        assert set(got) == {(population, level) for population in probed for level in levels}
        assert all(got[key] == want[key[0]][key[1] - 1] for key in got)


class TestConfig:
    def test_default_validates(self):
        default_config().validate()
        default_config("hierarchical").validate()
        default_config("weighted").validate()

    def test_round_trip_through_dict(self):
        cfg = replace(default_config(), distributions={
            ("majority", 1): ScoreDistribution(family="uniform01")})
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert config_to_dict(again) == config_to_dict(cfg)
        # JSON lists come back as the tuples the fields hold
        assert again == cfg

    @pytest.mark.parametrize("scenario, digest", [
        ("standard", "c7359f1324ac7c150dd67a710b7780d5e104e19262d15acc76b33000c793cecc"),
        ("hierarchical", "c701c969c26b70cf493b4c168f2b7337f723ad08116763917fe410c27fd3f58d"),
        ("weighted", "fa71ae64a46b03178c79c3e4b2be38357c33b212ede2e84b66a936a0d1a887be"),
    ])
    def test_default_config_hash_pinned(self, scenario, digest):
        # the manifest's config_hash of the default config
        params = config_to_dict(default_config(scenario))
        assert sha256_text(canonical_json(params)) == digest

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown_config_key"):
            config_from_dict({"calibration_budget": 10})

    def test_non_monotone_ladder_rejected(self):
        cfg = replace(default_config(),
                      intensity_logit_means=(0.0, 2.0, -2.0, -3.0, -4.0, -5.0, -6.0))
        with pytest.raises(ValueError, match="intensity_ladder_not_monotone"):
            cfg.validate()

    @pytest.mark.parametrize("key, code", [
        (("minorty", 1), "unknown_population: minorty"),
        (("majority", 0), "edit_intensity_out_of_range: 0"),
        (("minority", 8), "edit_intensity_out_of_range: 8"),
    ])
    def test_distribution_keys_checked(self, key, code):
        cfg = replace(default_config("weighted"),
                      distributions={key: ScoreDistribution(family="uniform01")})
        with pytest.raises(ValueError, match=code):
            cfg.validate()

    @pytest.mark.parametrize("scenario, name, largest", [
        # a task's 13 test sets of n scores, joined once for each of 3 sizes
        ("standard", "n_test", lambda n: 8 * 3 * 13 * n),
        # 3 null levels' pools of n + m points, m in (5, 15, 30), each point
        # with its two shifted images
        ("weighted", "majority_cal_size", lambda n: 8 * 3 * 3 * (3 * n + 50)),
        # a seed's stream states, 32 bytes for each of a prompt's 64 streams
        ("hierarchical", "n_prompts", lambda n: 32 * 64 * n),
    ])
    def test_config_past_the_array_cap_rejected_before_any_draw(self, monkeypatch, scenario,
                                                                 name, largest):
        # the largest count whose estimate is within the cap validates, and one
        # more is rejected with the estimate in bytes; validate() allocates neither
        cap = simulate._MAX_ARRAY_BYTES
        fits = (cap - largest(0)) // (largest(1) - largest(0))
        cfg = replace(default_config(scenario), **{name: fits})
        assert cfg._largest_array_bytes() == largest(fits) <= cap
        cfg.validate()

        def no_draws(*args):
            raise AssertionError("a draw ran")

        monkeypatch.setattr(simulate, "_sample_joined", no_draws)
        with pytest.raises(ValueError, match=f"config_too_large: .* {largest(fits + 1)} bytes"):
            replace(cfg, **{name: fits + 1}).validate()

    def test_threads_resolution(self, monkeypatch):
        # the cap is run_scenario's argument alone, checked before any task runs
        with pytest.raises(ValueError, match="unknown_config_key: threads"):
            config_from_dict({"threads": 2})

        def no_cells(*args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(simulate, "_cells", no_cells)
        for cap in (0, -1, 2.5, True, "2", None):
            with pytest.raises(ValueError, match=f"invalid_thread_cap: {cap!r}"):
                run_scenario(default_config(), cap)


class TestDeterminism:
    def test_same_config_bit_identical_reports(self):
        cfg = small_config()
        assert cells_as_tuples(run_scenario(cfg)) == cells_as_tuples(run_scenario(cfg))

    def test_thread_count_does_not_change_results(self):
        cfg = small_config(seeds=(1, 2, 3))
        serial = cells_as_tuples(run_scenario(cfg))
        threaded = cells_as_tuples(run_scenario(cfg, threads=4))
        three = cells_as_tuples(run_scenario(cfg, 3))
        assert serial == threaded == three

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


def record_opened_rules(monkeypatch) -> list:
    """Record each WeightedRule and row that takes exact p-values, once per call."""
    opened = []
    p_values = density.WeightedRule._p_values

    def recording(rule, r, values, j):
        opened.append((rule, r))
        return p_values(rule, r, values, j)

    monkeypatch.setattr(density.WeightedRule, "_p_values", recording)
    return opened


def full_span_terms(config, rules) -> int:
    """The node-sum kernel terms of the rules' pools over their whole spans: each pool's
    support over every node of its own span."""
    terms = 0
    for grid in (grid for rule in rules for grid in rule._grid):
        span = density._node_span(grid.support_points, config.bandwidth)
        if span:
            terms += (span[1] - span[0] + 1) * grid.support_points.size
    return terms


class TestWeightedDensityCalls:
    def test_pool_density_evaluated_once_per_point_set(self, monkeypatch):
        cfg = small_config(scenario="weighted", seeds=(1,), n_prompts=1, n_test=50,
                           null_levels=(1, 4), max_level=6, minority_sizes=(5, 15))
        calls = []
        log_evaluate = DensityModel.log_evaluate

        def counting_log_evaluate(model, x):
            calls.append((model, np.size(x)))
            return log_evaluate(model, x)

        summed = []
        kernel_sums = density._log_kernel_sums

        def counting_node_sums(query, support, bandwidth, with_moment=False):
            if with_moment:  # a grid's node sums
                summed.append((support.size, query.size))
            return kernel_sums(query, support, bandwidth, with_moment)

        rules = []
        stacked = density.WeightedRule._stacked

        def recording_stacked(*args):
            rules.append(stacked(*args))
            return rules[-1]

        monkeypatch.setattr(DensityModel, "log_evaluate", counting_log_evaluate)
        monkeypatch.setattr(density, "_log_kernel_sums", counting_node_sums)
        monkeypatch.setattr(density.WeightedRule, "_stacked", recording_stacked)
        opened = record_opened_rules(monkeypatch)
        pool_sizes = ([3 * (cfg.majority_cal_size + m) for m in cfg.minority_sizes]
                      * len(cfg.null_levels))
        levels = len(cfg.null_levels)
        # the default grid leaves few points open or none, one node per
        # bandwidth some
        for step in (density._GRID_STEP, 1.0):
            monkeypatch.setattr(density, "_GRID_STEP", step)
            for recorded in (calls, summed, opened, rules):
                recorded.clear()
            run_scenario(cfg)
            # one rule pass per task, and in it one node sum of each pool, over
            # its own pool's points and nodes
            assert len(rules) == len(cfg.seeds) * cfg.n_prompts
            assert sorted(width for width, _ in summed) == sorted(
                levels * [cfg.majority_cal_size + m for m in cfg.minority_sizes])
            # the grids reach only the nodes their reads reach: at most 0.7 of
            # the kernel terms of whole spans
            terms = sum(width * size for width, size in summed)
            assert terms <= 0.7 * full_span_terms(cfg, rules)
            # p at the pool and both shifts' images, in one call, only for a
            # pool with an open point
            at_pool = [size for _, size in calls if size in pool_sizes]
            assert len(at_pool) == len(opened)
            assert len(set(opened)) == len(opened)
            # exact evaluations at test points are the open points' and both
            # images', in one call
            rest = [(model, size) for model, size in calls if size not in pool_sizes]
            assert len(rest) == len(opened)
            assert [model for model, _ in rest] == [rule._grid[r] for rule, r in opened]
            assert all(size % 3 == 0 for _, size in rest)
        assert opened


class TestWeightedTables:
    def test_pool_tables_built_once_per_flagger(self, monkeypatch):
        cfg = small_config(scenario="weighted", seeds=(1,), n_prompts=2, n_test=50,
                           null_levels=(1, 4), max_level=6, minority_sizes=(5, 15))
        built = Counter()
        # the row cutoffs build the standard tables, the WeightedRules the
        # weighted ones
        for owner, name in ((conformal, "_standard_table"), (density, "_weighted_table")):
            def counting(*args, _name=name, _build=getattr(owner, name)):
                built[_name] += 1
                return _build(*args)

            monkeypatch.setattr(owner, name, counting)
        ranked = []
        ranks = conformal._RankTable.ranks

        def counting_ranks(table, values):
            ranked.append(np.size(values))
            return ranks(table, values)

        kept = []
        evaluate = density.WeightedRule._evaluate

        def recording_evaluate(rule, r, values, j):
            kept.append(values.size)
            return evaluate(rule, r, values, j)

        monkeypatch.setattr(conformal._RankTable, "ranks", counting_ranks)
        monkeypatch.setattr(density.WeightedRule, "_evaluate", recording_evaluate)
        opened = record_opened_rules(monkeypatch)
        run_scenario(cfg)
        tasks = len(cfg.seeds) * cfg.n_prompts
        # one standard table per standard_cutoffs call, on every null level's
        # minority samples or pools of one size; one certified table of every
        # shift per task and minority size, of its pools as rows, and one exact
        # table per variant for a pool with an open point
        assert built == {"_standard_table": 2 * len(cfg.minority_sizes) * tasks,
                         "_weighted_table": len(cfg.minority_sizes) * tasks + 2 * len(opened)}
        # each joined array is screened once against each pool, below one
        # cutoff, and ranked only where kept, once for both rules; the
        # minority-only and pooled-unweighted rules compare it with their
        # cutoffs instead
        assert ranked == kept
        assert len(kept) == tasks * len(cfg.null_levels) * len(cfg.minority_sizes)
        joined = [cfg.n_test * (1 + len(cfg.alt_levels(null))) for null in cfg.null_levels]
        assert 0 < sum(kept) < tasks * len(cfg.minority_sizes) * sum(joined)


class TestRankKernelCalls:
    @pytest.mark.parametrize("scenario", ["standard", "hierarchical"])
    def test_one_kernel_call_per_calibration_on_joined_sets(self, monkeypatch, scenario):
        cfg = small_config(scenario=scenario, seeds=(1,), n_prompts=2, n_test=50,
                           null_levels=(1, 4), max_level=6)
        kernel = {"standard": "standard_cutoffs",
                  "hierarchical": "pooled_hierarchical_cutoff"}[scenario]
        calibrations_seen, joined_sets = [], []

        def counting(cal, *args, _kernel=getattr(simulate, kernel)):
            cutoffs = _kernel(cal, *args)
            if scenario == "standard":  # one calibration per row, each of one size
                assert len(cutoffs) == len(cal)
                calibrations_seen.extend(cal)
            else:  # one calibration's groups, joined, and their sizes
                calibrations_seen.append(np.split(cal, np.cumsum(args[0])[:-1]))
            return cutoffs

        # patched where simulate looks it up, where a tracer would wrap it
        monkeypatch.setattr(simulate, kernel, counting)
        draw_tests, calibrations, *plan = simulate._SCENARIO_RUNNERS[scenario]
        p_values = getattr(conformal, f"{scenario}_p_values")

        def recording_calibrations(config, streams, prompt):
            sizes, flagger = calibrations(config, streams, prompt)
            # the pass finds every cutoff of the task, size by size, level by level
            n_levels = len(config.null_levels)
            cals = calibrations_seen[-n_levels * len(config.cal_sizes):]
            for level in range(n_levels):
                assert [np.hstack(cal).size for cal in cals[level::n_levels]] == list(sizes)

            def recording(tests):
                joined_sets.append(((config, streams, prompt), tests))
                flags = flagger(tests)
                # the cutoffs' flags are the p-value kernel's, bit for bit, for
                # each null level's rows against each of its calibrations
                assert flags[scenario].shape == (len(sizes), *tests.shape)
                for level, rows in enumerate(level_rows(config)):
                    for flagged, cal in zip(flags[scenario][:, rows], cals[level::n_levels]):
                        assert (flagged == (p_values(cal, tests[rows]) <= cfg.alpha)).all()
                return flags

            return sizes, recording

        monkeypatch.setitem(simulate._SCENARIO_RUNNERS, scenario,
                            (draw_tests, recording_calibrations, *plan))
        run_scenario(cfg)
        tasks = len(cfg.seeds) * cfg.n_prompts
        # one cutoff per calibration, and one flagger call on a task's joined rows
        assert len(calibrations_seen) == len(cfg.null_levels) * len(cfg.cal_sizes) * tasks
        assert [t.shape for _, t in joined_sets] == [
            (sum(1 + len(cfg.alt_levels(null)) for null in cfg.null_levels), cfg.n_test)] * tasks
        # each null level's null set, then each alternative set, each as drawn
        # alone: cutoffs need no order
        for (config, streams, prompt), tests in joined_sets:
            drawn = [draw_tests(config, streams, prompt, [(null, alt)])
                     for null in config.null_levels for alt in (0, *config.alt_levels(null))]
            assert np.array_equal(tests, np.concatenate(drawn))

    def test_weighted_flaggers_take_joined_sets_as_drawn(self, monkeypatch):
        cfg = small_config(scenario="weighted", seeds=(1,), n_prompts=2, n_test=50,
                           minority_sizes=(5, 15), null_levels=(1, 4), max_level=6)
        draw_tests, calibrations, *plan = simulate._SCENARIO_RUNNERS["weighted"]
        joined_sets = []

        def recording_calibrations(config, streams, prompt):
            sizes, flagger = calibrations(config, streams, prompt)

            def recording(tests):
                joined_sets.append(((config, streams, prompt), tests))
                flags = flagger(tests)
                assert all(f.shape == (len(sizes), *tests.shape) for f in flags.values())
                return flags

            return sizes, recording

        monkeypatch.setitem(simulate._SCENARIO_RUNNERS, "weighted",
                            (draw_tests, recording_calibrations, *plan))
        run_scenario(cfg)
        assert len(joined_sets) == len(cfg.seeds) * cfg.n_prompts
        # the weighted rules rank only the scores their screens keep, and in
        # any order, so each set comes as drawn
        for (config, streams, prompt), tests in joined_sets:
            drawn = [draw_tests(config, streams, prompt, [(null, alt)])
                     for null in config.null_levels for alt in (0, *config.alt_levels(null))]
            assert np.array_equal(tests, np.concatenate(drawn))


def level_rows(config) -> list[slice]:
    """Each null level's slice of a task's rows: its null set, then its alternative sets."""
    ends = np.cumsum([1 + len(config.alt_levels(null)) for null in config.null_levels])
    return [slice(end - 1 - len(config.alt_levels(null)), end)
            for null, end in zip(config.null_levels, ends.tolist())]


class TestStreamPlan:
    @pytest.mark.parametrize("scenario, streams", [
        ("standard", 1050), ("hierarchical", 1600), ("weighted", 1125)])
    def test_default_run_seeds_only_planned_streams(self, monkeypatch, scenario, streams):
        # no SeedSequence, not even for the dominance probes, and every stream
        # drawn once per task from a precomputed row, each planned key exactly once
        cfg = default_config(scenario)
        sequences, bit_seeds, drawn = [], [], Counter()
        seed_sequence, pcg64, call = np.random.SeedSequence, np.random.PCG64, \
            simulate._Streams.__call__

        class CountingSeedSequence(seed_sequence):
            def __init__(self, *args, **kwargs):
                sequences.append(args)
                super().__init__(*args, **kwargs)

        def counting_pcg64(seed):
            bit_seeds.append(seed)
            return pcg64(seed)

        def counting_call(streams, prompt, *key):
            drawn[streams.seed, prompt, key] += 1
            return call(streams, prompt, *key)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
        monkeypatch.setattr(simulate._Streams, "__call__", counting_call)
        run_scenario(cfg)
        assert sequences == []
        assert not any(isinstance(s, seed_sequence) for s in bit_seeds)
        # validate() seeds the probes first, one per (population, level)
        probes = [(population, level) for population in cfg.populations()
                  for level in range(1, cfg.max_level + 1)]
        assert len(bit_seeds) == streams + len(probes)
        for (population, level), probe in zip(probes, bit_seeds):
            key = [simulate._ENTROPY_BASE, 999, level, int(population == "minority")]
            want = seed_sequence(key).generate_state(4, np.uint64)
            assert probe.row.tolist() == want.tolist()
        plan = simulate._task_plan(cfg)
        assert drawn == Counter({(seed, prompt, key): 1 for seed in cfg.seeds
                                 for prompt in range(1, cfg.n_prompts + 1) for key in plan})
        assert len(drawn) == streams

    def test_empty_and_repeated_grid_entries(self, tmp_path, capsys):
        # a repeated seed, level or size would run its cells again and count
        # them twice, and no null level would write header-only metrics
        cases = [("null_levels", (), "empty_null_levels"),
                 ("null_levels", (4, 1, 4), "repeated_entries: null_levels"),
                 ("seeds", (2, 2), "repeated_entries: seeds"),
                 ("cal_sizes", (30, 200, 30), "repeated_entries: cal_sizes"),
                 ("minority_sizes", (5, 5), "repeated_entries: minority_sizes")]
        for name, value, code in cases:
            cfg = small_config(**{name: value})
            with pytest.raises(ValueError, match=code):
                run_scenario(cfg)
            path = tmp_path / f"{name}{len(value)}.json"
            path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
            out = tmp_path / f"out_{name}{len(value)}"
            assert main(["simulate", str(path), "--out", str(out)]) == 2
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "invalid_config" and code in err["detail"]
            assert not out.exists()

    def test_concurrent_runs_give_serial_bytes(self, tmp_path):
        # two configs at once, each on more workers than cores, share no stream
        # table; a short switch interval interleaves their threads finely
        configs = {
            "big_seed": small_config(scenario="hierarchical", seeds=(7, 2**32), n_prompts=2,
                                     n_test=100, null_levels=(1, 4)),
            # seed 7 in both: a table kept by seed alone would be shared
            "standard": small_config(seeds=(7, 1), n_prompts=3, n_test=100,
                                     cal_sizes=(30, 50, 200)),
        }
        paths = {}
        for name, cfg in configs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")

        def outputs(name, threads, tag):
            out = tmp_path / f"{name}-{tag}"
            assert main(["simulate", str(paths[name]), "--threads", threads,
                         "--out", str(out)]) == 0
            return {f: (out / f).read_bytes()
                    for f in ("metrics.csv", "metrics.json", "plot_data.csv")}

        serial = {name: outputs(name, "1", "serial") for name in configs}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                runs = [(name, pool.submit(outputs, name, "4", f"concurrent{k}"))
                        for k in range(3) for name in configs]
                for name, run in runs:
                    assert run.result(timeout=300) == serial[name], name
        finally:
            sys.setswitchinterval(interval)


class TestWeightedScreen:
    @pytest.mark.parametrize("log_scale", [True, False])
    def test_outputs_equal_unscreened_run(self, tmp_path, monkeypatch, log_scale):
        # m = 5, 15 and 30 take quantile_shift's min, 2alpha and alpha branches
        cfg = small_config(scenario="weighted", seeds=(1,), n_prompts=2, n_test=300,
                           minority_sizes=(5, 15, 30), null_levels=(1, 4),
                           log_scale=log_scale)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
        queried = []
        read = density.DensityModel.read

        def counting_read(grid, x):
            queried.append(np.size(x))
            return read(grid, x)

        monkeypatch.setattr(density.DensityModel, "read", counting_read)
        screen = conformal._RankTable.screen
        outputs, points = [], []
        for candidates in (screen, lambda table, j, alpha:
                           np.ones(np.shape(j), dtype=bool)):
            monkeypatch.setattr(conformal._RankTable, "screen", candidates)
            queried.clear()
            out = tmp_path / f"run{len(outputs)}"
            assert main(["simulate", str(path), "--out", str(out)]) == 0
            outputs.append({f: (out / f).read_bytes()
                            for f in ("metrics.csv", "metrics.json", "plot_data.csv")})
            points.append(sum(queried))
        assert outputs[0] == outputs[1]
        # the screen skips density work, or it is not doing its job
        assert points[0] < points[1]


class TestWeightedGrid:
    def test_coarse_grid_gives_the_default_grids_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "weighted"}), encoding="utf-8")
        opened = []
        p_values = density.WeightedRule._p_values

        def counting(rule, r, values, j):
            opened.append(np.size(values))
            return p_values(rule, r, values, j)

        monkeypatch.setattr(density.WeightedRule, "_p_values", counting)
        outputs, fallbacks = [], []
        # one node per bandwidth leaves far more points to the exact rule
        for step in (density._GRID_STEP, 1.0):
            monkeypatch.setattr(density, "_GRID_STEP", step)
            opened.clear()
            out = tmp_path / f"step{step}"
            assert main(["simulate", str(path), "--seed", "1", "--out", str(out)]) == 0
            outputs.append({f: (out / f).read_bytes()
                            for f in ("metrics.csv", "metrics.json", "plot_data.csv")})
            fallbacks.append(sum(opened))
        assert outputs[0] == outputs[1]
        assert fallbacks[0] < fallbacks[1]


def _ladder(params) -> dict:
    """A distributions entry for levels 1-5 of both populations; ``params(pop, level)``."""
    return {pop: {str(level): params(pop, level) for level in range(1, 6)}
            for pop in ("majority", "minority")}


_WEIGHTED_BASE = {"scenario": "weighted", "seeds": [1], "n_prompts": 2, "n_test": 200,
                  "null_levels": [1, 3], "max_level": 5}
# Each case's pools reach one corner of the certified masses; the test checks
# that the certified run did reach it.
_CERTIFIED_CASES = {
    # majority log-odds of sd 40: about a fifth of the pool ties at 1.0, and
    # the pool spans over 15 log10 units, so many points stay open
    "ties": dict(_WEIGHTED_BASE, distributions={"majority": {
        str(level): {"family": "logit_normal", "params": {"mu": -float(level), "sigma": 40.0}}
        for level in range(1, 6)}}),
    # a single minority point has spread 1e-8, so the q-maps stretch the pool
    # far past the grid: exact rows; raw scores, not log10
    "m1_linear": dict(_WEIGHTED_BASE, minority_sizes=[1, 5], log_scale=False),
    # more than 2**14 nodes of h/16: no grid, every kept point is exact
    "too_wide": dict(_WEIGHTED_BASE, minority_sizes=[5, 30], bandwidth=0.002),
    "mixture": dict(_WEIGHTED_BASE, distributions=_ladder(lambda pop, level: {
        "family": "mixture", "params": {"components": [
            {"family": "logit_normal", "weight": 0.7,
             "params": {"mu": -level - 2.0 * (pop == "minority"), "sigma": 1.0}},
            {"family": "beta", "weight": 0.3, "params": {"a": 1.0, "b": float(level)}}]}})),
}


class TestCertifiedMasses:
    @pytest.mark.parametrize("case", sorted(_CERTIFIED_CASES))
    def test_metrics_json_equals_exact_tables_run(self, tmp_path, monkeypatch, case):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_CERTIFIED_CASES[case]), encoding="utf-8")
        seen = Counter()
        read = density.DensityModel.read
        evaluate, exact_masses = density.WeightedRule._evaluate, density.WeightedRule._p_values

        def recording_read(grid, x):
            y, usable = read(grid, x)
            seen["reads"] += 1
            seen["outside"] += int(np.count_nonzero(~usable))
            return y, usable

        def recording_evaluate(rule, r, values, j):
            seen["kept"] += values.size
            seen["ties"] += rule._rows[r].size - np.unique(rule._rows[r]).size
            return evaluate(rule, r, values, j)

        def recording_exact(rule, r, values, j):
            seen["open"] += values.size
            return exact_masses(rule, r, values, j)

        monkeypatch.setattr(density.DensityModel, "read", recording_read)
        monkeypatch.setattr(density.WeightedRule, "_evaluate", recording_evaluate)
        monkeypatch.setattr(density.WeightedRule, "_p_values", recording_exact)
        outputs, runs = [], []
        for exact in (False, True):
            if exact:  # every kept point through the exact tables, as with no grid
                monkeypatch.setattr(density.WeightedRule, "_certified",
                                    property(lambda rule: np.zeros(len(rule._grid), bool)))
            seen.clear()
            out = tmp_path / f"exact{exact}"
            assert main(["simulate", str(path), "--out", str(out)]) == 0
            outputs.append((out / "metrics.json").read_bytes())
            runs.append(dict(seen))
        assert outputs[0] == outputs[1]
        certified, exact_run = runs
        # with no grid, every kept point is open: exact, and no grid is read
        for run in (exact_run, certified) if case == "too_wide" else (exact_run,):
            assert "reads" not in run and run["open"] == run["kept"] > 0
        if case != "too_wide":
            assert certified["kept"] - certified.get("open", 0) > 0  # decided by bounds
        if case == "ties":
            assert certified["ties"] > 0 and certified["open"] > 0
        if case == "m1_linear":
            assert certified["outside"] > 0


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

    def test_alt_threshold_population_moves_only_the_outlier_labels(self):
        # "alt" takes the labeling threshold from the violating edits' own
        # similarities: the null sets and their flags stay, the labels move
        cfg = small_config(seeds=(1,), n_prompts=2, n_test=1000)
        null = run_scenario(cfg).cells
        alt = run_scenario(replace(cfg, outlier_threshold_population="alt")).cells
        assert len(alt) == len(null) == 24
        for a, n in zip(alt, null):
            assert (a.method, a.alt_prompt, a.cal_size, a.prompt) == \
                (n.method, n.alt_prompt, n.cal_size, n.prompt)
            assert np.float64(a.fpr).tobytes() == np.float64(n.fpr).tobytes()
            assert a.n_outliers != n.n_outliers
            # below the midpoint 0.05-quantile of 1,000 similarities lie at most 50
            assert a.n_outliers <= 50

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
        # an empty mixture is rejected where it is built, before any config holds it
        with pytest.raises(ValueError, match="mixture needs a list of components"):
            small_config(distributions={
                ("majority", 1): ScoreDistribution(
                    family="mixture", params={"components": []})}).validate()

    def test_subgroup_tied_at_the_score_floor_is_never_flagged(self):
        # every minority score, in calibration and in test, is the floor 1e-300,
        # so a test score ties all 15 minority calibration scores: the
        # minority-only p is 1, the pooled one 16/216, and both weighted rules
        # put all the calibration mass on the ties, so their p is 1 too
        cfg = small_config(scenario="weighted", minority_sizes=(15,), seeds=(1,),
                           n_test=100, minority_logit_shift=-5000.0)
        report = run_scenario(cfg)
        assert Counter(c.method for c in report.cells) == {
            "in_dist": 6, "combined_unweighted": 6, "weighted_mean": 6,
            "weighted_quantile": 6}
        assert all(c.fpr == 0.0 and c.power == 0.0 and not c.excluded
                   for c in report.cells)


def per_set_cells(config):
    """Every cell of a run, recomputed set by set from ``_Streams`` with the public kernels.

    Each test set, similarity sample and calibration is drawn alone from its
    stream, labeled with ``bleu_quantile_threshold`` and ``outlier_mask``,
    and flagged through the p-value kernels (``p <= alpha``) or
    ``WeightedRule.flags``: no joined rows or cutoffs.
    """
    plan, n, alpha = simulate._task_plan(config), config.n_test, config.alpha
    population = "minority" if config.scenario == "weighted" else "majority"
    cells = []
    for seed in config.seeds:
        streams = simulate._Streams(seed, config.n_prompts, plan)
        for prompt in range(1, config.n_prompts + 1):
            def draw(dist_population, level, size, *key):
                dist = config.distribution_for(dist_population, level)
                return simulate._sample_values(dist, size, streams(prompt, *key))

            def draw_set(null, alt):
                role = "alt_" if alt else "null_"
                values = draw(population, alt or null, n, null, alt, 0, role + "test")
                if config.scenario != "hierarchical":
                    return values
                effects = streams(prompt, null, alt, 0, role + "test_effects").normal(
                    0.0, config.group_sigma, n)
                return logit_shift(values, effects)

            for null in config.null_levels:
                null_set, alt_sets = draw_set(null, 0), []
                for alt in config.alt_levels(null):
                    bleu_null, bleu_alt = (simulate._sample_bleu(
                        config, level, streams(prompt, null, alt, 0, role), n)
                        for level, role in ((null, "bleu_null"), (alt, "bleu_alt")))
                    threshold = labeling.bleu_quantile_threshold(
                        bleu_null if config.outlier_threshold_population == "null"
                        else bleu_alt, alpha)
                    alt_sets.append((alt, draw_set(null, alt),
                                     labeling.outlier_mask(bleu_null, bleu_alt, threshold)))
                for size, rules in per_set_rules(config, draw, streams, prompt, null):
                    for method, flags in rules.items():
                        fpr = int(np.count_nonzero(flags(null_set))) / n
                        for alt, values, mask in alt_sets:
                            flagged = flags(values)
                            cells.append(simulate._make_cell(
                                method, null, alt, size, seed, prompt, n,
                                int(np.count_nonzero(mask)), fpr,
                                int(np.count_nonzero(flagged)),
                                int(np.count_nonzero(flagged & mask))))
    return sorted(cells, key=lambda c: (c.method, c.null_prompt, c.alt_prompt, c.cal_size,
                                        c.seed, c.prompt))


def per_set_rules(config, draw, streams, prompt, null):
    """Each calibration's ``(size, {method: test scores -> flags})``, drawn alone."""
    alpha = config.alpha

    def below(p_values):
        return lambda values: p_values(values) <= alpha

    if config.scenario == "weighted":
        majority = draw("majority", null, config.majority_cal_size, null, 0, 0, "cal")
        for i, m in enumerate(config.minority_sizes):
            pool = np.concatenate([majority, draw("minority", null, m, null, 0, i,
                                                  "minority_cal")])
            minority = np.arange(pool.size) >= majority.size
            rule = density.WeightedRule(pool, minority, config.bandwidth, alpha,
                                        ("mean", "quantile"), config.log_scale)
            yield m, {
                "in_dist": below(lambda v, c=pool[minority]: conformal.standard_p_values(c, v)),
                "combined_unweighted": below(
                    lambda v, c=pool: conformal.standard_p_values(c, v)),
                "weighted_mean": lambda v, r=rule: r.flags(v)[0],
                "weighted_quantile": lambda v, r=rule: r.flags(v)[1],
            }
        return
    for i, size in enumerate(config.cal_sizes):
        cal = draw("majority", null, size, null, 0, i, "cal")
        if config.scenario == "standard":
            yield size, {"standard": below(lambda v, c=cal: conformal.standard_p_values(c, v))}
            continue
        rng = streams(prompt, null, 0, i, "cal_effects")
        sizes = simulate._partition_sizes(size, config.k_groups, rng)
        effects = rng.normal(0.0, config.group_sigma, sizes.size)
        groups = np.split(logit_shift(cal, np.repeat(effects, sizes)), np.cumsum(sizes)[:-1])
        yield size, {"hierarchical": below(
            lambda v, g=groups: conformal.hierarchical_p_values(g, v))}


def logit_normal(mu, sigma=1.5):
    return {"family": "logit_normal", "params": {"mu": mu, "sigma": sigma}}


# one family per level, each family at some level, and a mixture of two
MIXED_LADDER = {
    "1": {"family": "beta", "params": {"a": 5, "b": 1}},
    "2": logit_normal(0.5),
    "3": {"family": "uniform01"},
    "4": {"family": "mixture", "params": {"components": [
        {"family": "logit_normal", "weight": 2, "params": {"mu": -1.0, "sigma": 1.0}},
        {"family": "beta", "weight": 1, "params": {"a": 2, "b": 5}}]}},
    "5": logit_normal(-4.0),
    "6": {"family": "beta", "params": {"a": 1, "b": 60}},
    "7": logit_normal(-6.0),
}
BETA_LADDER = {str(level): {"family": "beta", "params": {"a": 8.0 / level, "b": 1.0 + level}}
               for level in range(1, 8)}
UNIFORM_LADDER = {"1": {"family": "uniform01"},
                  **{str(level): logit_normal(-level) for level in range(2, 8)}}
PER_SET_BASE = {"seeds": [1, 3], "n_prompts": 2, "n_test": 80, "cal_sizes": [20, 50],
                "minority_sizes": [1, 2], "null_levels": [1, 4], "majority_cal_size": 60}


class TestPerSetOracle:
    @pytest.mark.parametrize("overrides", [
        {"distributions": {"majority": MIXED_LADDER}},
        {"distributions": {"majority": BETA_LADDER}, "cal_sizes": [1, 19, 20, 21]},
        {"distributions": {"majority": UNIFORM_LADDER}, "null_levels": [1, 2]},
        {"n_test": 1, "n_prompts": 4, "alpha": 0.2},
        {"scenario": "hierarchical", "distributions": {"majority": MIXED_LADDER}},
        {"scenario": "hierarchical", "n_test": 1, "n_prompts": 4, "alpha": 0.2,
         "distributions": {"majority": BETA_LADDER}},
        {"scenario": "hierarchical", "outlier_threshold_population": "alt",
         "group_sigma": 0.0, "k_groups": 500, "cal_sizes": [30, 600]},
        {"scenario": "weighted",
         "distributions": {"majority": MIXED_LADDER, "minority": BETA_LADDER}},
        {"scenario": "weighted", "n_test": 1, "n_prompts": 3, "minority_sizes": [1, 2, 30],
         "outlier_threshold_population": "alt"},
    ], ids=["standard_mixed", "standard_beta", "standard_uniform", "standard_n_test_1",
            "hierarchical_mixed", "hierarchical_n_test_1", "hierarchical_alt_k500",
            "weighted_mixed", "weighted_n_test_1"])
    def test_cells_equal_per_set_recomputation(self, overrides):
        config = config_from_dict({**PER_SET_BASE, **overrides})
        report = run_scenario(config)
        assert report.cells == per_set_cells(config)
        # the runs flag something and label outliers, so the comparison has teeth
        assert any(c.fpr or c.power or c.suspect_flag_rate for c in report.cells)
        if config.n_test > 1:
            assert any(c.n_outliers for c in report.cells)
