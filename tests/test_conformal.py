"""Rank-based p-values: worked examples, invariants, and exact oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conformal_wm.conformal import (
    _hierarchical_mass,
    _hierarchical_table,
    _standard_table,
    _weighted_table,
    hierarchical_cutoff,
    hierarchical_p_values,
    standard_cutoff,
    standard_p_values,
    weighted_p_values,
)
from conformal_wm import density
from conformal_wm.density import DensityModel, mean_shift

scores_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
)
score_strategy = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False,
                           allow_infinity=False)


def weighted_screen(cal_values, cal_ratios, test_values, alpha):
    """The screen of one weighted calibration table at the test scores' ranks."""
    table = _weighted_table(cal_values, cal_ratios)
    return table.screen(table.ranks(test_values), alpha)


def rank_oracle(cal_values, s):
    """Exact-rational standard p-value, independent of the implementation."""
    count = sum(1 for v in cal_values if v <= s)
    return Fraction(1 + count, len(cal_values) + 1)


class TestStandardConformal:
    def test_below_all_calibration(self):
        # count 0 is forced, so the p-value sits at its floor 1/(n+1)
        assert standard_p_values([0.1, 0.2, 0.3, 0.4], [0.05]).tolist() == [0.2]

    def test_hand_ranked_middle(self):
        assert standard_p_values([0.1, 0.2, 0.3, 0.4], [0.25]).tolist() == [0.6]

    def test_tie_counts_as_leq(self):
        assert standard_p_values([0.5], [0.5]).tolist() == [1.0]

    def test_empty_calibration_rejected(self):
        with pytest.raises(ValueError, match="empty_calibration"):
            standard_p_values(np.empty(0), [0.5])

    @given(values=scores_strategy, s=score_strategy)
    def test_matches_exact_rank_oracle(self, values, s):
        (p,) = standard_p_values(values, [s])
        assert p == float(rank_oracle(values, s))

    @given(values=scores_strategy, s=score_strategy, seed=st.integers(0, 2**31))
    def test_permutation_invariant(self, values, s, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert standard_p_values(values, [s]).tolist() == \
            standard_p_values(shuffled, [s]).tolist()

    @given(values=scores_strategy, s=score_strategy)
    def test_rank_invariance_under_increasing_transform(self, values, s):
        # x**2 is strictly increasing on (0, 1], so ranks cannot move
        a = standard_p_values(values, [s])
        b = standard_p_values([v * v for v in values], [s * s])
        assert a.tolist() == b.tolist()

    @given(values=scores_strategy, s1=score_strategy, s2=score_strategy)
    def test_monotone_in_test_score(self, values, s1, s2):
        p_lo, p_hi = standard_p_values(values, [min(s1, s2), max(s1, s2)])
        assert p_lo <= p_hi

    @given(values=scores_strategy, s=score_strategy)
    def test_range_is_rank_grid(self, values, s):
        n = len(values)
        (p,) = standard_p_values(values, [s])
        assert p in {(k + 1) / (n + 1) for k in range(n + 1)}

    def test_single_point_calibration_is_degenerate_not_an_error(self):
        # p can only be 1/2 or 1, so nothing is flaggable below alpha = 0.5
        p = standard_p_values([0.4], [0.1, 0.9, 0.001])
        assert p.tolist() == [0.5, 1.0, 0.5]
        assert not (p <= 0.05).any()

    def test_superuniform_under_iid_null(self):
        rng = np.random.default_rng(7)
        trials, n = 4000, 20
        cal = rng.random((trials, n))
        tests = rng.random(trials)
        p = np.array([standard_p_values(row, t) for row, t in zip(cal, tests)])
        fpr = float((p <= 0.05).mean())
        assert fpr <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / trials)


class TestHierarchicalConformal:
    def test_hand_computed_group_fractions(self):
        p = hierarchical_p_values([[0.1, 0.3], [0.2, 0.4]], [0.25])
        assert p.tolist() == [2 / 3]

    @given(values=st.lists(score_strategy, min_size=1, max_size=8),
           s=score_strategy)
    def test_singleton_groups_collapse_to_standard(self, values, s):
        flat = standard_p_values(values, [s])
        assert hierarchical_p_values([[v] for v in values], [s]).tolist() == flat.tolist()

    def test_all_indicators_zero_gives_floor(self):
        assert hierarchical_p_values([[0.5, 0.6], [0.7]], [0.1]).tolist() == [1 / 3]

    @given(groups=st.lists(scores_strategy, min_size=1, max_size=6),
           s=score_strategy, seed=st.integers(0, 2**31))
    def test_group_order_permutation_bit_identical(self, groups, s, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(groups))
        a = hierarchical_p_values(groups, [s])
        b = hierarchical_p_values([groups[i] for i in perm], [s])
        assert a.tolist() == b.tolist()

    @given(groups=st.lists(scores_strategy, min_size=1, max_size=6),
           s=score_strategy)
    def test_range(self, groups, s):
        (p,) = hierarchical_p_values(groups, [s])
        assert 1 / (len(groups) + 1) <= p <= 1.0

    def test_empty_group_collection_rejected(self):
        with pytest.raises(ValueError, match="empty_group_collection"):
            hierarchical_p_values([], [0.5])


class TestWeightedDecision:
    def test_uniform_weights_reduce_to_standard(self):
        values = [0.1, 0.2, 0.3, 0.4]
        (p,) = weighted_p_values(values, np.ones(4), [0.25], [1.0])
        assert p == pytest.approx(standard_p_values(values, [0.25])[0], abs=1e-12)

    def test_hand_weighted_indicator_sum(self):
        # raw ratios 5 : 3 : 2 normalize to 0.5, 0.3 and 0.2
        (p,) = weighted_p_values([0.1, 0.2], [5.0, 3.0], [0.15], [2.0])
        assert p == pytest.approx(0.7, abs=1e-12)
        assert not p < 0.05

    def test_all_mass_on_test_point_never_flags(self):
        (p,) = weighted_p_values([0.1, 0.2], [0.0, 0.0], [0.0001], [1.0])
        assert p == 1.0
        assert not p < 0.4

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="weight_length_mismatch"):
            weighted_p_values([0.1, 0.2, 0.3], [1.0, 1.0], [0.2], [1.0])

    def test_negative_ratio_rejected(self):
        cal = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="negative_weight"):
            weighted_p_values(cal, [1.0, -0.5, 1.0], [0.2], [1.0])
        with pytest.raises(ValueError, match="negative_weight"):
            weighted_p_values(cal, np.ones(3), [0.2], [-1e-300])
        with pytest.raises(ValueError, match="negative_weight"):
            weighted_p_values(cal, np.ones(3), np.array([0.2, 0.4]),
                              np.array([1.0, -1.0]))

    @pytest.mark.parametrize("kernel", [
        lambda: weighted_p_values(np.empty(0), np.empty(0), [0.5], [1.0]),
        lambda: weighted_screen([], [], [0.5], 0.05),
    ], ids=["weighted_p_values", "weighted_screen"])
    def test_empty_calibration_rejected(self, kernel):
        # with no calibration mass every p-value would read 1
        with pytest.raises(ValueError, match="empty_calibration"):
            kernel()

    def test_strict_inequality_at_exact_alpha(self):
        # standard flags at p == alpha, the weighted rule does not
        cal = [0.1, 0.2, 0.3]
        (std,) = standard_p_values(cal, [0.05])
        (wtd,) = weighted_p_values(cal, np.ones(3), [0.05], [1.0])
        assert std == wtd == 0.25
        assert std <= 0.25 and not wtd < 0.25

    def test_weighted_superuniform_with_oracle_ratios(self):
        # calibration drawn i.i.d. from a two-component mixture, test point
        # from the minority component; with exact density ratios the weighted
        # rule must keep the minority false-flag rate at or under alpha
        rng = np.random.default_rng(99)
        mu_maj, mu_min, sigma = 0.0, -2.0, 1.0
        share_min = 0.2
        n, trials, alpha = 60, 2000, 0.10

        def kernel(z, mu):
            return np.exp(-0.5 * ((z - mu) / sigma) ** 2)

        def oracle_ratio(z):
            q = kernel(z, mu_min)
            p = (1 - share_min) * kernel(z, mu_maj) + share_min * q
            return q / p

        flags = 0
        for _ in range(trials):
            from_min = rng.random(n) < share_min
            cal = np.where(from_min, rng.normal(mu_min, sigma, n),
                           rng.normal(mu_maj, sigma, n))
            z_test = rng.normal(mu_min, sigma)
            mass = weighted_p_values(cal, oracle_ratio(cal),
                                     np.array([z_test]),
                                     oracle_ratio(np.array([z_test])))[0]
            flags += mass < alpha
        fpr = flags / trials
        assert fpr <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials), fpr

    @given(values=scores_strategy, s=score_strategy)
    def test_uniform_reduction_agrees_except_exact_ties(self, values, s):
        (p_std,) = standard_p_values(values, [s])
        (p_wtd,) = weighted_p_values(values, np.ones(len(values)), [s], [1.0])
        if p_std != 0.05:
            assert (p_wtd < 0.05) == (p_std <= 0.05)


tie_prone_score = st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]) | score_strategy


class TestHierarchicalKernel:
    @given(groups=st.lists(st.lists(tie_prone_score, min_size=1, max_size=6),
                           min_size=1, max_size=8),
           extra_tests=st.lists(score_strategy, max_size=5),
           seed=st.integers(0, 2**31))
    def test_p_values_are_exact_fsum_and_order_free(self, groups, extra_tests, seed):
        # every calibration score is also a test score, so ties are exact
        tests = [v for g in groups for v in g] + extra_tests
        oracle = [(1.0 + math.fsum(sum(v <= s for v in g) / len(g) for g in groups))
                  / (len(groups) + 1) for s in tests]
        p = hierarchical_p_values([np.array(g) for g in groups], np.array(tests))
        assert p.tolist() == oracle

        rng = np.random.default_rng(seed)
        reordered = [rng.permutation(groups[k]) for k in rng.permutation(len(groups))]
        assert hierarchical_p_values(reordered, np.array(tests)).tolist() == oracle

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 400), seed=st.integers(0, 2**31))
    @example(k=300, seed=0)
    def test_exact_fsum_over_hundreds_of_groups(self, k, seed):
        # group sizes whose fractions are not dyadic, and half the scores on
        # a few shared atoms so ties within and across groups are exact
        rng = np.random.default_rng(seed)
        sizes = rng.choice([1, 3, 5, 6, 7, 9, 11, 13], k)
        atoms = rng.random(8)
        pooled = np.where(rng.random(sizes.sum()) < 0.5,
                          rng.choice(atoms, sizes.sum()), rng.random(sizes.sum()))
        groups = np.split(pooled, np.cumsum(sizes)[:-1])
        tests = np.concatenate([atoms, rng.choice(pooled, 30), rng.random(10), [0.0, 1.0]])
        oracle = [(1.0 + math.fsum(int((g <= s).sum()) / g.size for g in groups))
                  / (k + 1) for s in tests]
        assert hierarchical_p_values(groups, tests).tolist() == oracle
        reordered = [rng.permutation(groups[i]) for i in rng.permutation(k)]
        assert hierarchical_p_values(reordered, tests).tolist() == oracle

    def test_exact_fsum_over_thousands_of_groups(self):
        # about 10k rows in 4,000 groups of sizes 1-10, half on shared atoms;
        # the oracle counts each group at each test score with bincount
        rng = np.random.default_rng(4350)
        k = 4000
        sizes = 1 + rng.poisson(1.5, k).clip(0, 9)
        n = int(sizes.sum())
        atoms = rng.random(12)
        pooled = np.where(rng.random(n) < 0.5, rng.choice(atoms, n), rng.random(n))
        groups = np.split(pooled, np.cumsum(sizes)[:-1])
        group_of = np.repeat(np.arange(k), sizes)
        tests = np.concatenate([atoms, rng.choice(pooled, 150), rng.random(40), [0.0, 1.0]])
        oracle = []
        for s in tests:
            counts = np.bincount(group_of, weights=pooled <= s, minlength=k)
            fractions = [int(c) / int(m) for c, m in zip(counts, sizes)]
            oracle.append((1.0 + math.fsum(fractions)) / (k + 1))
        assert 9_000 < n < 11_000
        assert hierarchical_p_values(groups, tests).tolist() == oracle
        reordered = [groups[i][::-1] for i in rng.permutation(k)]
        assert hierarchical_p_values(reordered, tests).tolist() == oracle

    @pytest.mark.parametrize("groups", [
        [[3, 1], [2], [2**63 - 1, 2**64 + 1]],
        [np.arange(6).reshape(2, 3), np.array([[0.5], [2.5]]), [[1.0, 4.0]]],
        [[1, 0.25], np.array([3, 0], dtype=np.int64), (0.5,), 2,
         np.array([0.75], dtype=np.float32)],
        [np.array([True, False]), np.array(["0.5", "1e-3"])],
    ], ids=["int_lists", "2d_groups", "mixed_int_float", "bool_and_str"])
    def test_pooling_converts_each_group_as_asarray(self, groups):
        # the per-group conversion the one-pass pooling replaced, as reference
        want_cal, want_steps = _hierarchical_mass(
            [np.asarray(g, dtype=float).ravel() for g in groups])
        cal, steps = _hierarchical_mass(groups)
        assert cal.dtype == np.float64
        assert np.array_equal(cal.view(np.uint64), want_cal.view(np.uint64))
        # the masses follow each pooled score's group label
        assert list(steps) == list(want_steps)

    @pytest.mark.parametrize("groups, code", [
        ([], "empty_group_collection"),
        ([[0.5], []], "empty_group"),
        ([np.empty((0, 3)), [0.5]], "empty_group"),
        ([[0.5], [[]]], "empty_group"),
    ])
    def test_empty_groups_raise(self, groups, code):
        with pytest.raises(ValueError, match=f"^{code}$"):
            _hierarchical_mass(groups)


class TestDecisionInvariants:
    def test_standard_flag_iff_p_at_most_alpha(self):
        # the first p-value equals alpha to the last bit and is flagged
        p = standard_p_values([0.1, 0.2, 0.3], [0.05, 0.15])
        assert p.tolist() == [0.25, 0.5]
        assert (p <= 0.25).tolist() == [True, False]

    def test_hierarchical_flag_rule(self):
        (p,) = hierarchical_p_values([[v] for v in np.linspace(0.05, 1.0, 39)], [0.01])
        assert p == 1 / 40
        assert p <= 0.05


def per_essay_weighted_p(cal_values, cal_ratios, t, test_ratio):
    """The weighted p-value by its per-essay definition, summed exactly.

    Each essay's weight is its ratio over the total of the calibration
    ratios and the test point's own; the p-value is the weight at or below
    ``t`` plus the test point's.
    """
    below = [r for v, r in zip(cal_values, cal_ratios) if v <= t]
    return math.fsum([test_ratio, *below]) / math.fsum([test_ratio, *cal_ratios])


ratio_strategy = st.just(0.0) | st.floats(min_value=1e-6, max_value=1e6)


class TestWeightedOracle:
    @given(cal=st.lists(st.tuples(tie_prone_score, ratio_strategy), min_size=1,
                        max_size=30),
           extra_tests=st.lists(st.tuples(score_strategy, ratio_strategy), max_size=5))
    # ratios 1 : 3 are the weights 0.25 and 0.75
    @example(cal=[(0.5, 1.0)], extra_tests=[(0.4, 3.0), (0.6, 3.0)])
    # all the mass on the test point: p = 1 below every calibration score
    @example(cal=[(0.1, 0.0), (0.2, 0.0)], extra_tests=[(0.0001, 1.0)])
    # a zero test ratio below every calibration score: p = 0
    @example(cal=[(0.1, 1.0), (0.2, 2.0)], extra_tests=[(0.05, 0.0)])
    # every ratio zero: nothing to normalize by
    @example(cal=[(0.5, 0.0)], extra_tests=[(0.7, 0.0)])
    def test_matches_per_essay_definition(self, cal, extra_tests):
        # every calibration score is also a test score, so ties are exact
        tests = cal + extra_tests
        values, ratios = (np.array(col) for col in zip(*cal))
        t_values, t_ratios = (np.array(col) for col in zip(*tests))
        if ratios.sum() == 0.0 and (t_ratios == 0.0).any():
            with pytest.raises(ValueError, match="density_underflow"):
                weighted_p_values(values, ratios, t_values, t_ratios)
            return
        p = weighted_p_values(values, ratios, t_values, t_ratios)
        for got, (t, r_t) in zip(p, tests):
            oracle = per_essay_weighted_p(values, ratios, t, r_t)
            assert abs(got - oracle) <= 1e-12 * oracle, (t, r_t, got, oracle)


huge_range_ratio = (st.just(0.0)
                    | st.integers(-300, 300).map(lambda e: 10.0 ** e)
                    | st.floats(min_value=1e-300, max_value=1e300))
alpha_strategy = st.sampled_from([0.05, 0.1, 0.25, 0.5]) | st.floats(1e-6, 0.999)


class TestWeightedScreen:
    @given(cal=st.lists(st.tuples(tie_prone_score, huge_range_ratio), min_size=1,
                        max_size=30),
           extra_tests=st.lists(st.tuples(score_strategy, huge_range_ratio), max_size=5),
           alpha=alpha_strategy)
    def test_every_flag_is_a_candidate(self, cal, extra_tests, alpha):
        # every calibration score is also a test score, so ties are exact
        tests = cal + extra_tests
        values, ratios = (np.array(col) for col in zip(*cal))
        t_values, t_ratios = (np.array(col) for col in zip(*tests))
        # the screen needs a positive total; the weighted rule's is at least 1
        assume(ratios.sum() > 0.0)
        cand = weighted_screen(values, ratios, t_values, alpha)
        assert cand.dtype == bool and cand.shape == t_values.shape
        flagged = weighted_p_values(values, ratios, t_values, t_ratios) < alpha
        assert not (flagged & ~cand).any()

    @pytest.mark.parametrize("test_ratio", [0.0, 1e-300])
    def test_knife_edge_mass_equal_to_alpha(self, test_ratio):
        # 20 equal ratios: one calibration score below gives mass[1]/mass[n]
        # == 1/20 == alpha exactly, which the rule does not flag
        values = np.arange(1, 21) / 20.0
        ratios = np.full(20, 0.75)
        tests = np.array([0.01, 0.05, 0.07, 0.1, 0.12])  # j = 0, 1, 1, 2, 2
        p = weighted_p_values(values, ratios, tests, np.full(5, test_ratio))
        assert p[1] == p[2] == 0.05
        assert (p < 0.05).tolist() == [True, False, False, False, False]
        cand = weighted_screen(values, ratios, tests, 0.05)
        # the slack keeps the knife edge in; only j = 0 can flag
        assert cand.tolist() == [True, True, True, False, False]

    def test_checks_calibration_ratios_in_order(self):
        values = np.array([0.1, 0.2])
        with pytest.raises(ValueError, match="weight_length_mismatch"):
            weighted_screen(values, [1.0], [0.5], 0.05)
        with pytest.raises(ValueError, match="density_underflow"):
            weighted_screen(values, [-1.0, math.inf], [0.5], 0.05)
        with pytest.raises(ValueError, match="negative_weight"):
            weighted_screen(values, [-1.0, 1.0], [0.5], 0.05)
        # a non-finite test ratio is reported before a negative calibration one
        with pytest.raises(ValueError, match="density_underflow"):
            weighted_p_values(values, [-1.0, 1.0], [0.5], [math.nan])

    def test_empty_test_set(self):
        rng = np.random.default_rng(3)
        pool = rng.normal(size=40)
        model_p = DensityModel(pool, 0.5)
        model_q = mean_shift(pool, pool[:8], 0.5)
        r_cal, = np.exp(density._log_ratios(model_p, [model_q], pool))
        r_test, = np.exp(density._log_ratios(model_p, [model_q], np.empty(0)))
        assert r_test.shape == (0,)
        assert weighted_p_values(pool, r_cal, np.empty(0), r_test).shape == (0,)
        assert weighted_screen(pool, r_cal, np.empty(0), 0.05).shape == (0,)


def cutoff_cases(table, extra_tests, rank, step):
    """Test scores and an alpha that probe a table's cutoff where it can fail.

    The scores are the calibration scores themselves (exact ties), one float
    either side of each, and ``extra_tests``. alpha is the p of one rank, or
    one float below or above it, so it sits exactly at an attainable p or
    just misses it.
    """
    cal = table.sorted_cal
    tests = np.concatenate([cal, np.nextafter(cal, -np.inf), np.nextafter(cal, np.inf),
                            extra_tests])
    p = table.p_values(np.arange(table.mass.size))[min(rank, cal.size)]
    alpha = float(p if step == 0 else np.nextafter(p, step * np.inf))
    return tests, alpha


def cutoff_agrees(table, tests, alpha):
    cutoff = table.cutoff(alpha)
    return ((tests < cutoff) == (table.p_values(table.ranks(tests)) <= alpha)).all()


step_strategy = st.sampled_from([-1, 0, 1])


class TestCutoff:
    @given(cal=st.lists(tie_prone_score, min_size=1, max_size=30),
           extra_tests=st.lists(score_strategy, max_size=5),
           rank=st.integers(0, 30), step=step_strategy)
    def test_standard_flags_exactly_below_cutoff(self, cal, extra_tests, rank, step):
        table = _standard_table(cal)
        tests, alpha = cutoff_cases(table, extra_tests, rank, step)
        assert cutoff_agrees(table, tests, alpha)
        assert standard_cutoff(cal, alpha) == table.cutoff(alpha)

    @given(groups=st.lists(st.lists(tie_prone_score, min_size=1, max_size=6),
                           min_size=1, max_size=8),
           extra_tests=st.lists(score_strategy, max_size=5),
           rank=st.integers(0, 48), step=step_strategy)
    def test_hierarchical_flags_exactly_below_cutoff(self, groups, extra_tests, rank, step):
        table = _hierarchical_table(groups)
        tests, alpha = cutoff_cases(table, extra_tests, rank, step)
        assert cutoff_agrees(table, tests, alpha)
        # the walk that stops once p passes alpha finds the full table's cutoff
        assert hierarchical_cutoff(groups, alpha) == table.cutoff(alpha)

    @given(groups=st.lists(st.lists(tie_prone_score, min_size=1, max_size=6),
                           min_size=1, max_size=30),
           alpha=alpha_strategy)
    def test_early_stop_equals_full_table(self, groups, alpha):
        full = _hierarchical_table(groups).cutoff(alpha)
        assert hierarchical_cutoff(groups, alpha) == full

    @given(values=st.lists(tie_prone_score, min_size=1, max_size=30), alpha=alpha_strategy)
    def test_singleton_groups_give_the_standard_cutoff(self, values, alpha):
        assert hierarchical_cutoff([[v] for v in values], alpha) == \
            standard_cutoff(values, alpha)

    @pytest.mark.parametrize("k", [1, 2, 10, 18])
    def test_too_few_groups_never_flag(self, k):
        # p >= 1/(K+1) > 0.05 for K <= 18, so no score is below the cutoff
        rng = np.random.default_rng(k)
        groups = [rng.random(rng.integers(1, 5)) for _ in range(k)]
        assert hierarchical_cutoff(groups, 0.05) == -math.inf
        assert _hierarchical_table(groups).cutoff(0.05) == -math.inf
        assert hierarchical_p_values(groups, np.linspace(0.0, 1.0, 11)).min() > 0.05

    def test_nineteen_groups_flag_below_the_smallest_score(self):
        # p = 1/20 = 0.05 exactly at rank 0, and above it at rank 1
        rng = np.random.default_rng(19)
        groups = [rng.random(rng.integers(1, 5)) for _ in range(19)]
        smallest = min(g.min() for g in groups)
        assert hierarchical_cutoff(groups, 0.05) == smallest
        (p,) = hierarchical_p_values(groups, [np.nextafter(smallest, 0.0)])
        assert p == 0.05

    def test_every_rank_flags_above_alpha_one(self):
        assert standard_cutoff([0.2, 0.4], 1.0) == math.inf
        assert hierarchical_cutoff([[0.2], [0.4, 0.5]], 1.0) == math.inf
        assert standard_cutoff([0.2, 0.4], 1.0 / 3.0) == 0.2

    def test_empty_inputs_raise_before_any_step(self):
        with pytest.raises(ValueError, match="empty_calibration"):
            standard_cutoff([], 0.05)
        with pytest.raises(ValueError, match="empty_group_collection"):
            hierarchical_cutoff([], 0.05)
        with pytest.raises(ValueError, match="empty_group"):
            hierarchical_cutoff([[0.5], []], 0.05)
