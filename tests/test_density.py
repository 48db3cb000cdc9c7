"""KDE, shift estimators, quantiles, and importance weights."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_wm import density
from conformal_wm.cli import main
from conformal_wm.conformal import standard_p_values, weighted_p_values
from conformal_wm.density import (
    DensityModel,
    ShiftEstimate,
    empirical_quantile,
    mean_shift,
    quantile_shift,
)
from conformal_wm.simulate import default_config, run_scenario

log_points = st.lists(
    st.floats(min_value=-8.0, max_value=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=25,
)


_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def kde_at(model, x):
    """The model's density at ``x``, from its log density."""
    return np.exp(model.log_evaluate(x))


def kde_integral(model, lo, hi, n=40001):
    grid = np.linspace(lo, hi, n)
    return float(_trapezoid(kde_at(model, grid), grid))


class TestFitKde:
    """The pool KDE."""

    def test_single_kernel_closed_form(self):
        # (1/h) * standard normal density at 0, with h = 0.5
        model = DensityModel([0.0], 0.5)
        expected = 2.0 / math.sqrt(2.0 * math.pi)
        assert float(kde_at(model, 0.0)) == pytest.approx(expected, abs=1e-9)
        assert float(kde_at(model, 0.0)) == pytest.approx(0.7978845608, abs=1e-9)

    def test_symmetric_support_gives_symmetric_density(self):
        model = DensityModel([-1.0, 1.0], 0.7)
        for c in (0.3, 1.2, 2.5):
            assert kde_at(model, c) == kde_at(model, -c)

    @given(points=log_points,
           bandwidth=st.floats(min_value=0.05, max_value=2.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_integrates_to_one(self, points, bandwidth):
        model = DensityModel(points, bandwidth)
        lo = min(points) - 10 * bandwidth
        hi = max(points) + 10 * bandwidth
        assert kde_integral(model, lo, hi) == pytest.approx(1.0, abs=1e-3)

    @given(points=log_points, x=st.floats(-20, 20, allow_nan=False))
    def test_nonnegative_everywhere(self, points, x):
        assert kde_at(DensityModel(points, 0.5), x) >= 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty_support"):
            DensityModel([], 0.5)

    def test_support_is_a_read_only_float64_copy(self):
        pool = np.array([0.25, -1.5, 2.0])
        rule = density.WeightedRule(pool, np.arange(3) < 2, 0.5, 0.05, ("mean",), False)
        # the rule's pool KDE sums over one support for its grid and exact reads
        supports = [DensityModel(pool, 0.5).support_points, rule._model.support_points,
                    DensityModel(support_points=(1, 2), bandwidth=1.0).support_points]
        pool[0] = 9.0
        read = []
        kernel_sums = density._log_kernel_sums
        with mock.patch.object(density, "_log_kernel_sums",
                               lambda x, support, *rest: read.append(support)
                               or kernel_sums(x, support, *rest)):
            rule._exact
        supports.append(read[0])
        for support in supports:
            assert support.dtype == np.float64
            assert not support.flags.writeable
        assert supports[0].tolist() == [0.25, -1.5, 2.0]
        assert supports[1].tolist() == [0.25, -1.5, 2.0]
        assert supports[2].tolist() == [1.0, 2.0]
        assert supports[3].tolist() == [0.25, -1.5, 2.0]

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_bandwidth_rejected(self, bad):
        with pytest.raises(ValueError, match="bandwidth_not_positive"):
            DensityModel([0.0], bad)


class TestEmpiricalQuantile:
    def test_interpolates_between_5th_and_6th_of_100(self):
        xs = [i / 100 for i in range(1, 101)]
        q = empirical_quantile(xs, 0.05)
        assert xs[4] < q < xs[5]
        assert q == pytest.approx(np.quantile(xs, 0.05, method="hazen"), abs=1e-12)

    def test_constant_sample(self):
        assert empirical_quantile([0.3] * 17, 0.4) == 0.3

    def test_level_zero_returns_minimum(self):
        assert empirical_quantile([0.5, 0.1, 0.9], 0.0) == 0.1

    def test_level_one_returns_maximum(self):
        assert empirical_quantile([0.5, 0.1, 0.9], 1.0) == 0.9

    @given(values=log_points, level=st.floats(0.0, 1.0, allow_nan=False))
    def test_matches_midpoint_convention_oracle(self, values, level):
        ours = empirical_quantile(values, level)
        oracle = float(np.quantile(np.array(values), level, method="hazen"))
        assert ours == pytest.approx(oracle, abs=1e-12)

    def test_rejects_empty_and_bad_level(self):
        with pytest.raises(ValueError, match="empty_values"):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError, match="level_out_of_range"):
            empirical_quantile([1.0], 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_rejects_non_finite_values(self, bad, where):
        values = [0.3, 0.1, 0.5, 0.2, 0.4]
        values[where] = bad
        with pytest.raises(ValueError, match="non_finite_values"):
            empirical_quantile(values, 0.5)
        with pytest.raises(ValueError, match="non_finite_values"):
            empirical_quantile(np.array(values), 0.05)
        with pytest.raises(ValueError, match="non_finite_values"):
            empirical_quantile(np.array([[0.3, 0.1, 0.5, 0.2, 0.4], values]), 0.05)


def sorted_quantile(values, level):
    """The list-sorting empirical_quantile, kept as the bit-identity oracle."""
    xs = sorted(float(v) for v in values)
    m = len(xs)
    h = m * level + 0.5
    if h <= 1.0:
        return xs[0]
    if h >= m:
        return xs[-1]
    j = int(math.floor(h))
    g = h - j
    return xs[j - 1] + g * (xs[j] - xs[j - 1])


def same_bits(a, b):
    return type(a) is float and np.float64(a).tobytes() == np.float64(b).tobytes()


# small pools make ties (and signed-zero ties) frequent
tie_prone_value = st.one_of(st.sampled_from([-0.0, 0.0, 0.25, -1.5, 1e-300, 0.1 + 0.2]),
                            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
tie_prone = st.lists(tie_prone_value, min_size=1, max_size=60)
# rows of one length, as a 2-D sample
tie_prone_rows = st.integers(1, 20).flatmap(lambda m: st.lists(
    st.lists(tie_prone_value, min_size=m, max_size=m), min_size=1, max_size=6))
# numpy's default (SIMD) float sort may hand these zeros back all as +0.0
MANY_SIGNED_ZEROS = [-0.0, 0.25, 0.25, -0.0, -0.0, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0]
levels = st.one_of(st.sampled_from([0.0, 1.0, 0.05, 0.5, 1e-9, 1 - 1e-9]),
                   st.floats(0.0, 1.0, allow_nan=False))


class TestEmpiricalQuantileBits:
    @settings(max_examples=400, deadline=None)
    @given(values=tie_prone, level=levels, as_array=st.booleans())
    @example(values=MANY_SIGNED_ZEROS, level=0.0, as_array=False)
    @example(values=MANY_SIGNED_ZEROS, level=0.0, as_array=True)
    def test_equals_sorted_formula_bit_for_bit(self, values, level, as_array):
        data = np.array(values) if as_array else values
        assert same_bits(empirical_quantile(data, level), sorted_quantile(values, level))

    @settings(max_examples=300, deadline=None)
    @given(rows=tie_prone_rows, level=levels)
    @example(rows=[MANY_SIGNED_ZEROS, [0.0] * 13, [0.25] * 12 + [-0.0]], level=0.0)
    @example(rows=[[0.0, -0.0, 1.0], [2.0, 0.0, 0.0]], level=0.5)
    def test_rows_equal_sorted_formula_bit_for_bit(self, rows, level):
        # each row's quantile from one row-wise sort is the 1-D oracle's
        got = empirical_quantile(np.array(rows), level)
        assert got.shape == (len(rows),)
        for q, row in zip(got.tolist(), rows):
            assert same_bits(q, sorted_quantile(row, level))

    @pytest.mark.parametrize("level", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_single_value(self, level):
        assert same_bits(empirical_quantile([-0.0], level), -0.0)
        assert same_bits(empirical_quantile(np.array([0.7]), level), 0.7)

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 20, 1000])
    def test_clamp_boundaries(self, m):
        rng = np.random.default_rng(m)
        values = rng.normal(size=m)
        # h = m*level + 0.5 lands exactly on 1 and on m at these levels
        for level in (0.0, 0.5 / m, 1.0 - 0.5 / m, 1.0,
                      np.nextafter(0.5 / m, 1.0), np.nextafter(1.0 - 0.5 / m, 0.0)):
            assert same_bits(empirical_quantile(values, float(level)),
                             sorted_quantile(values, float(level)))

    def test_signed_zero_ties_keep_input_order(self):
        values = [0.0, -0.0] * 40 + [1.0] * 20
        for level in (0.0, 0.1, 0.5):
            assert same_bits(empirical_quantile(values, level),
                             sorted_quantile(values, level))
            assert same_bits(empirical_quantile(values[::-1], level),
                             sorted_quantile(values[::-1], level))


class TestMeanShift:
    def test_identical_populations_give_identity_transform(self):
        logs = [-2.0, -1.0, 0.0, 1.0]
        est = mean_shift(logs, logs)
        x = np.array([-1.5, 0.2, 3.0])
        assert est.to_pool(x).tolist() == x.tolist()
        base = DensityModel(logs, 0.5)
        assert kde_at(base, est.to_pool(x)).tolist() == kde_at(base, x).tolist()

    def test_pure_location_shift(self):
        pool = [-1.0, 1.0]        # mean 0, std 1
        minority = [-3.0, -1.0]   # mean -2, std 1
        est = mean_shift(pool, minority)
        base = DensityModel(pool, 0.5)
        for x in (-2.0, -0.5, 0.0, 1.0):
            assert float(kde_at(base, est.to_pool(x))) == pytest.approx(
                float(kde_at(base, x + 2.0)), abs=1e-15)

    def test_wider_minority_compresses_queries(self):
        pool = [-1.0, 1.0]       # std 1
        minority = [-2.0, 2.0]   # std 2
        est = mean_shift(pool, minority)
        assert est.to_pool(np.array([0.0, 1.0])).tolist() == [0.0, 0.5]
        base = DensityModel(pool, 0.5)
        assert float(kde_at(base, est.to_pool(1.0))) == pytest.approx(
            float(kde_at(base, 0.5)), abs=1e-15)

    def test_constant_minority_hits_sigma_floor(self):
        est = mean_shift([-1.0, 0.0, 1.0], [0.5, 0.5])
        assert est.sigma_q == 1e-8
        assert math.isfinite(kde_at(DensityModel([-1.0, 0.0, 1.0], 0.5), est.to_pool(0.49)))

    def test_empty_minority_rejected(self):
        with pytest.raises(ValueError, match="empty_minority"):
            mean_shift([0.0], [])


class TestQuantileShift:
    def test_small_minority_uses_minimum_anchor(self):
        rng = np.random.default_rng(0)
        pool = rng.normal(0, 1, 200)
        minority = rng.normal(-2, 1, 8)
        est = quantile_shift(pool, minority, alpha=0.05)
        assert est.branch == "min"
        assert est.q_anchor == float(np.min(minority))
        assert est.p_anchor == pytest.approx(
            np.quantile(pool, 1 / 8, method="hazen"), abs=1e-12)

    def test_moderate_minority_uses_double_alpha(self):
        rng = np.random.default_rng(1)
        pool = rng.normal(0, 1, 200)
        minority = rng.normal(-2, 1, 15)
        est = quantile_shift(pool, minority, alpha=0.05)
        assert est.branch == "2alpha"
        assert est.q_anchor == pytest.approx(
            np.quantile(minority, 0.10, method="hazen"), abs=1e-12)
        assert est.p_anchor == pytest.approx(
            np.quantile(pool, 0.10, method="hazen"), abs=1e-12)

    def test_large_minority_uses_alpha(self):
        rng = np.random.default_rng(2)
        pool = rng.normal(0, 1, 200)
        minority = rng.normal(-2, 1, 30)
        est = quantile_shift(pool, minority, alpha=0.05)
        assert est.branch == "alpha"
        assert est.q_anchor == pytest.approx(
            np.quantile(minority, 0.05, method="hazen"), abs=1e-12)

    @pytest.mark.parametrize("m,branch", [(10, "min"), (11, "2alpha"),
                                          (20, "2alpha"), (21, "alpha")])
    def test_integer_branch_boundaries_at_alpha_005(self, m, branch):
        rng = np.random.default_rng(m)
        est = quantile_shift(rng.normal(0, 1, 100), rng.normal(-1, 1, m), alpha=0.05)
        assert est.branch == branch

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, -0.1])
    def test_alpha_range_enforced(self, alpha):
        with pytest.raises(ValueError, match="alpha_out_of_range"):
            quantile_shift([0.0, 1.0], [0.0], alpha)


# q = p: the identity map
IDENTITY = ShiftEstimate("mean", q_anchor=0.0, p_anchor=0.0, sigma_p=1.0, sigma_q=1.0)
# q(x) = p(x - 40): p moved 40 up
UP_40 = ShiftEstimate("mean", q_anchor=40.0, p_anchor=0.0, sigma_p=1.0, sigma_q=1.0)


class TestWeights:
    def test_identical_models_give_uniform_weights(self):
        logs = [-2.0, -1.5, -0.5, 0.0]
        model = DensityModel(logs, 0.5)
        (r,) = np.exp(density._log_ratios(model.log_evaluate, [IDENTITY], [*logs, -1.0]))
        assert r.tolist() == [1.0] * 5
        assert weighted_p_values(logs, r[:-1], -1.0, r[-1]) == standard_p_values(logs, -1.0)

    def test_hand_normalized_pair(self):
        # ratios 1 : 3 are the weights 0.25 (calibration) and 0.75 (test)
        p = weighted_p_values([0.0], [1.0], [-1.0, 0.0], [3.0, 3.0])
        assert p.tolist() == [0.75, 1.0]

    @given(ratios=st.lists(st.floats(1e-6, 1e6, allow_nan=False), min_size=2,
                           max_size=15),
           c=st.floats(1e-3, 1e3, allow_nan=False))
    def test_ratio_scale_invariance(self, ratios, c):
        r = np.array(ratios)
        values = np.arange(r.size - 1.0)
        tests = np.arange(-0.5, r.size - 1.0)
        a = weighted_p_values(values, r[:-1], tests, r[-1])
        b = weighted_p_values(values, c * r[:-1], tests, c * r[-1])
        assert a == pytest.approx(b, abs=1e-12)

    @given(ratios=st.lists(st.floats(1e-6, 1e6, allow_nan=False), min_size=1,
                           max_size=15))
    def test_normalization_and_nonnegativity(self, ratios):
        r = np.array(ratios)
        values = np.arange(r.size - 1.0)
        tests = np.arange(-0.5, r.size - 1.0)
        if r.size == 1:
            # no calibration scores: no p-value, rather than p = 1
            with pytest.raises(ValueError, match="empty_calibration"):
                weighted_p_values(values, r[:-1], tests, r[-1])
            return
        p = weighted_p_values(values, r[:-1], tests, r[-1])
        # below every score only the test point's own weight counts; at or
        # above the largest, all of it
        assert p[0] == pytest.approx(r[-1] / r.sum(), rel=1e-12)
        assert p[-1] == 1.0
        assert (np.diff(p) >= 0).all() and (p > 0).all()

    def test_all_zero_ratios_raise_underflow(self):
        # q sits 80 bandwidths from the queries: q/p = exp(-3200 ...) is 0 as a float
        model_p = DensityModel([0.0], 0.5)
        (r,) = np.exp(density._log_ratios(model_p.log_evaluate, [UP_40], [0.0, 0.5]))
        assert r.tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="density_underflow"):
            weighted_p_values([0.0], r[:1], 0.5, r[1])

    def test_ratio_beyond_float_range_is_inf_and_rejected(self):
        # p(40) = exp(-3200) / c underflows; its log does not, and q/p = exp(3200)
        model_p = DensityModel([0.0], 0.5)
        log_r = (model_p.log_evaluate(UP_40.to_pool(np.array([40.0])))
                 - model_p.log_evaluate([40.0]))
        assert log_r[0] == pytest.approx(3200.0, rel=1e-15)
        with np.errstate(over="ignore"):
            (r,) = np.exp(density._log_ratios(model_p.log_evaluate, [UP_40], [40.0]))
        assert r.tolist() == [math.inf]
        with pytest.raises(ValueError, match="density_underflow"):
            weighted_p_values([0.0], [1.0], 40.0, r)


class TestShiftEstimate:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma_not_positive"):
            ShiftEstimate(method="mean", q_anchor=0.0, p_anchor=0.0,
                          sigma_p=0.0, sigma_q=1.0)

    @pytest.mark.parametrize("sigmas", [(math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_nan_sigma(self, sigmas):
        # a NaN spread once passed, and its map sent every point to NaN
        with pytest.raises(ValueError, match="sigma_not_positive"):
            ShiftEstimate("mean", 0.0, 0.0, *sigmas)

    def test_fields_are_floats_on_every_path(self):
        pool, minority, _ = logit_normal_pool(3, 5)
        logs = np.log10(pool)
        rules = [density.WeightedRule(scores, mask, 0.5, 0.05, ("mean", "quantile"), True)
                 for scores, mask in ((pool, minority), (pool[::-1], minority),
                                      (pool[:-1], minority[:-1]))]
        estimates = [mean_shift(logs, logs[minority]),
                     quantile_shift(logs, logs[minority], 0.05),
                     *(shift for rule in rules for shift in rule.shifts)]
        assert len(estimates) == 8
        for est in estimates:
            assert all(type(getattr(est, name)) is float
                       for name in ("q_anchor", "p_anchor", "sigma_p", "sigma_q"))
            assert est.branch is None if est.method == "mean" else type(est.branch) is str


class TestLogRatios:
    @settings(max_examples=60, deadline=None)
    @given(
        support=st.lists(st.floats(-8.0, 2.0), min_size=1, max_size=60),
        x=st.lists(st.floats(-12.0, 6.0), max_size=130),
        bandwidth=st.floats(0.05, 3.0),
        maps=st.lists(st.tuples(st.floats(-8.0, 2.0), st.floats(-8.0, 2.0),
                                st.floats(0.01, 5.0), st.floats(0.01, 5.0)),
                      max_size=3),
        block_bytes=st.integers(1, 16 * 8 * 60),
    )
    def test_one_joined_call_equals_separate_calls_bit_for_bit(self, support, x, bandwidth,
                                                               maps, block_bytes):
        # exact and grid evaluators alike: x and every shift's image of it in
        # one call give the bits of one call per point set
        shifts = [ShiftEstimate("mean", *anchors) for anchors in maps]
        model = DensityModel(support, bandwidth)
        grid = full_grid(model.support_points, bandwidth)
        x = np.array(x)
        with mock.patch.object(density, "_BLOCK_BYTES", block_bytes):
            for log_density in (model.log_evaluate, grid.log_sums):
                sizes = []
                got = density._log_ratios(
                    lambda q: sizes.append(q.size) or log_density(q), shifts, x)
                assert sizes == [x.size * (1 + len(shifts))]
                want = [log_density(shift.to_pool(x)) - log_density(x) for shift in shifts]
                assert [r.tobytes() for r in got] == [r.tobytes() for r in want]


def full_grid(support, bandwidth):
    """The grid of ``support``, built over its whole span."""
    grid = DensityModel(support, bandwidth)
    grid.cover(-np.inf, np.inf)
    return grid


def dense_sums(model, x):
    """One-shot T x N kernel sums; the blocked kernel's sums must match them bit for bit."""
    z = (np.asarray(x, dtype=float)[..., np.newaxis] - model.support_points) / model.bandwidth
    return np.exp(-0.5 * z * z).sum(axis=-1)


def log_norm(model):
    """``log(N h sqrt(2 pi))``, the KDE's normalizing constant."""
    return math.log(model.support_points.size * model.bandwidth * math.sqrt(2.0 * math.pi))


def python_log_sum(x, support, bandwidth):
    """``log sum_i exp(-z_i**2 / 2)`` in Python floats, its largest exponent factored out."""
    expos = [-0.5 * ((x - s) / bandwidth) ** 2 for s in support]
    top = max(expos)
    return top + math.log(math.fsum(math.exp(e - top) for e in expos))


def assert_matches_dense_oracle(model, x, got):
    """``got`` is ``model.log_evaluate(x)``, checked against the dense sums.

    Where a dense sum is a normal float, ``got`` is its log less the
    normalizing constant, bit for bit. Elsewhere the density underflows,
    and ``got`` is the Python log sum's.
    """
    sums = dense_sums(model, x)
    assert got.shape == sums.shape
    normal = sums >= np.finfo(float).tiny
    assert got[normal].tobytes() == (np.log(sums[normal]) - log_norm(model)).tobytes()
    query = np.asarray(x, dtype=float)[~normal]
    support = model.support_points.tolist()
    want = [python_log_sum(q, support, model.bandwidth) - log_norm(model)
            for q in query.tolist()]
    assert got[~normal].tolist() == pytest.approx(want, rel=1e-13)


POOL = tuple(np.random.default_rng(7).normal(-1.0, 0.8, 127).tolist())
B = density._block_rows(len(POOL))  # rows per block for every model below: 128
# (model, scale, offset): the pool KDE, queried at ``scale * x + offset`` as a
# shift's q reads it
MODELS = (
    (DensityModel(support_points=POOL, bandwidth=0.5), 1.0, 0.0),
    (DensityModel(support_points=POOL, bandwidth=0.5), 0.37, -1.25),
    (DensityModel(support_points=POOL, bandwidth=0.3), 2.5, 0.8),
)
MODEL_IDS = [f"model{i}" for i in range(len(MODELS))]


class TestBlockedEvaluate:
    def test_scalar_returns_identical_float(self):
        model, scale, offset = MODELS[1]
        got = model.log_evaluate(scale * -0.7 + offset)
        assert got.shape == () and got.dtype == np.float64
        assert_matches_dense_oracle(model, scale * -0.7 + offset, got)

    def test_empty_array(self):
        model = MODELS[0][0]
        got = model.log_evaluate(np.array([]))
        assert got.shape == (0,)
        assert_matches_dense_oracle(model, np.array([]), got)

    @pytest.mark.parametrize("model, scale, offset", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("t", [1, B - 1, B, B + 1, 3 * B + 7])
    def test_lengths_around_block_size(self, model, scale, offset, t):
        x = scale * np.random.default_rng(t).normal(-1.0, 2.0, t) + offset
        assert_matches_dense_oracle(model, x, model.log_evaluate(x))

    @pytest.mark.parametrize("model, scale, offset", MODELS, ids=MODEL_IDS)
    def test_two_dimensional_input_keeps_shape(self, model, scale, offset):
        x = scale * np.random.default_rng(3).normal(-1.0, 2.0, (5, B // 2 + 3)) + offset
        assert_matches_dense_oracle(model, x, model.log_evaluate(x))

    @settings(max_examples=60, deadline=None)
    @given(
        support=st.lists(st.floats(-8.0, 2.0, allow_nan=False), min_size=1, max_size=60),
        queries=st.lists(st.floats(-12.0, 6.0, allow_nan=False), max_size=3 * B),
        bandwidth=st.floats(0.01, 3.0),
        scale=st.floats(0.1, 10.0),
        offset=st.floats(-5.0, 5.0),
        block_bytes=st.integers(1, 16 * 8 * 60),
    )
    def test_matches_dense_oracle(self, support, queries, bandwidth, scale, offset,
                                  block_bytes):
        # a small byte budget puts block boundaries inside short query lists,
        # down to one row per block when a row alone is over budget
        model = DensityModel(support_points=tuple(support), bandwidth=bandwidth)
        queries = scale * np.array(queries) + offset
        with mock.patch.object(density, "_BLOCK_BYTES", block_bytes):
            got = model.log_evaluate(queries)
        assert_matches_dense_oracle(model, queries, got)

    @pytest.mark.parametrize("n", [1, 2, 215, 1075, 16_377, 20_000])
    def test_block_buffers_stay_under_mmap_threshold(self, n):
        rows = density._block_rows(n)
        assert rows >= 1
        # glibc maps requests of 128 KiB and more (with its 8-byte chunk header)
        assert rows == 1 or rows * n * 8 + 8 < 128 * 1024

    def test_memory_does_not_grow_with_queries(self):
        # A dense 20,000 x 500 float64 temporary alone would take 80 MB.
        model = DensityModel(np.linspace(-3.0, 1.0, 500), 0.5)
        x = np.linspace(-6.0, 3.0, 20_000)
        model.log_evaluate(x[:1])
        tracemalloc.start()
        try:
            model.log_evaluate(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestLogEvaluate:
    @pytest.mark.parametrize("model, scale, offset", MODELS, ids=MODEL_IDS)
    def test_log_of_evaluate_where_the_density_is_a_normal_float(self, model, scale, offset):
        # the log of the dense density, bit for bit, and finite everywhere
        x = scale * np.random.default_rng(4).normal(-1.0, 2.0, 3 * B + 7) + offset
        normal = dense_sums(model, x) >= np.finfo(float).tiny
        assert normal.mean() > 0.9
        got = model.log_evaluate(x)
        assert np.isfinite(got).all()
        assert_matches_dense_oracle(model, x, got)

    def test_deep_tail_matches_python_log_sum(self):
        support = [-1.0, -0.5, 0.25, 0.25]
        model = DensityModel(support_points=support, bandwidth=0.5)
        x = 2.0 * np.array([[20.0, -150.0], [1e4, -0.125]]) + 1.0
        # all but 0.75 lie more than 80 bandwidths out, where the density is 0
        assert (dense_sums(model, x) == 0.0).tolist() == [[True, True], [True, False]]
        assert (kde_at(model, x) == 0.0).tolist() == [[True, True], [True, False]]
        want = [[python_log_sum(v, support, 0.5) - log_norm(model) for v in row]
                for row in x.tolist()]
        got = model.log_evaluate(x)
        assert got.shape == (2, 2)
        assert got.ravel().tolist() == pytest.approx(sum(want, []), rel=1e-13)
        assert model.log_evaluate(0.75).shape == ()


def logit_normal_pool(seed, m, n_majority=200):
    """A majority pool with a shifted minority of ``m`` appended, and its mask."""
    rng = np.random.default_rng(seed)
    pool = 1.0 / (1.0 + np.exp(-np.concatenate([rng.normal(0.0, 1.5, n_majority),
                                                 rng.normal(-2.0, 1.5, m)])))
    tests = 1.0 / (1.0 + np.exp(-rng.normal(-3.0, 2.0, 400)))
    return pool, np.arange(pool.size) >= n_majority, tests


# a relative margin of 16 roundings, far under the certified masses' 1e-12
ROUNDINGS = 16 * 2.0 ** -53
TINY = np.finfo(float).tiny


def exact_tables(rule):
    """Each shift's weighted table of exact ratios."""
    return [table for table, _ in rule._exact]


def exact_p_values(rule, tests):
    """Each shift's exact mass at ``tests``."""
    return rule._p_values(tests, exact_tables(rule)[0].ranks(tests))


def assert_exact_or_within_certified_bounds(rule, tests, exact):
    """``rule.p_values(tests)`` equals the exact masses ``exact`` with no certified
    tables; otherwise it and they lie within the certified bounds."""
    got = rule.p_values(tests)
    if not rule._certified:
        assert [p.tobytes() for p in got] == [p.tobytes() for p in exact]
        return
    tables, _ = rule._tables
    j = tables[0][0].ranks(tests)
    log_ratios = density._log_ratios(rule._model.log_sums, rule.shifts, rule._to_eval(tests))
    for (table, top), log_r, want, p in zip(tables, log_ratios, exact, got):
        lo, _, hi = density._masses(table, j, log_r - top, rule._factor)
        # up to the few roundings of a bound, and a bound under the smallest
        # normal double may read 0; a NaN bound bounds nothing
        for mass in (want, p):
            assert not ((mass < lo * (1.0 - ROUNDINGS) - TINY)
                        | (mass > hi * (1.0 + ROUNDINGS) + TINY)).any()


class TestWeightedRule:
    @pytest.mark.parametrize("log_scale", [True, False])
    @pytest.mark.parametrize("shift", ["mean", "quantile"])
    @pytest.mark.parametrize("n_tests", [400, 0])
    def test_p_values_equal_library_path_bit_for_bit(self, shift, log_scale, n_tests):
        pool, minority, tests = logit_normal_pool(5, 15)
        tests = tests[:n_tests]
        to_eval = np.log10 if log_scale else np.asarray
        pool_eval = to_eval(pool)
        model_p = DensityModel(pool_eval, 0.5)
        if shift == "mean":
            est = mean_shift(pool_eval, pool_eval[minority])
        else:
            est = quantile_shift(pool_eval, pool_eval[minority], 0.05)
        # the rule's ratios: exp(log q - log p), less the largest calibration
        # log ratio, with q the pool KDE read through the shift's map
        log_cal = (model_p.log_evaluate(est.to_pool(pool_eval))
                   - model_p.log_evaluate(pool_eval))
        log_test = (model_p.log_evaluate(est.to_pool(to_eval(tests)))
                    - model_p.log_evaluate(to_eval(tests)))
        top = log_cal.max()
        want = weighted_p_values(pool, np.exp(log_cal - top), tests, np.exp(log_test - top))
        rule = density.WeightedRule(pool, minority, 0.5, 0.05, (shift,), log_scale)
        (got,) = exact_p_values(rule, tests)
        assert got.shape == (n_tests,)
        assert got.tobytes() == want.tobytes()
        assert rule.shifts[0] == est

    @pytest.mark.parametrize("m, branch", [(5, "min"), (15, "2alpha"), (30, "alpha")])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_flags_equal_unscreened_rule_at_every_point(self, seed, m, branch):
        pool, minority, tests = logit_normal_pool(seed, m)
        rule = density.WeightedRule(pool, minority, 0.5, 0.05, ("mean", "quantile"), True)
        assert rule.shifts[1].branch == branch
        flags = rule.flags(tests)
        tables = exact_tables(rule)
        j = tables[0].ranks(tests)
        want = [p < 0.05 for p in rule._p_values(tests, j)]
        assert [f.tolist() for f in flags] == [w.tolist() for w in want]
        # some points are flagged, and the screen drops some others
        assert any(w.any() for w in want)
        assert not (tables[0].screen(j, 0.05) | tables[1].screen(j, 0.05)).all()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_majority=st.integers(1, 60),
           m=st.integers(1, 12), ties=st.integers(0, 8), shift=st.floats(-3.0, 1.0),
           bandwidth=st.sampled_from([0.05, 0.2, 0.5, 1.5]), log_scale=st.booleans(),
           alpha=st.sampled_from([0.05, 0.1, 0.3]))
    def test_flags_equal_p_values_at_every_point(self, seed, n_majority, m, ties, shift,
                                                 bandwidth, log_scale, alpha):
        rng = np.random.default_rng(seed)
        majority = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 1.5, n_majority)))
        majority[:ties] = majority[-1]
        minorities = [1.0 / (1.0 + np.exp(-rng.normal(shift, 1.5, size)))
                      for size in (m, 2 * m)]
        pools = [np.concatenate([majority, minority]) for minority in minorities]
        masks = [np.arange(pool.size) >= n_majority for pool in pools]
        # the pools' own scores (ties included), draws across them, deep tails
        tests = np.concatenate([pools[1], 1.0 / (1.0 + np.exp(-rng.normal(-1.0, 3.0, 300))),
                                [1e-10, 1e-30, 1e-200]])
        # a rule of each pool
        for pool, mask in zip(pools, masks):
            rule = density.WeightedRule(pool, mask, bandwidth, alpha, ("mean", "quantile"),
                                        log_scale)
            flags = rule.flags(tests)
            exact = exact_p_values(rule, tests)
            assert [f.tolist() for f in flags] == [(p < alpha).tolist() for p in exact]
            assert_exact_or_within_certified_bounds(rule, tests, exact)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_majority=st.integers(1, 60),
           m=st.integers(1, 12), ties=st.integers(0, 8), shift=st.floats(-3.0, 1.0),
           bandwidth=st.sampled_from([0.05, 0.2, 0.5, 1.5]), log_scale=st.booleans(),
           alpha=st.sampled_from([0.05, 0.1, 0.3, 0.7]), tiny=st.booleans())
    # a 1e-300 score: log10 of the pool spans 300 units, too wide for a grid
    # at h = 0.05 and too wide for its bound to decide anything at h = 0.5
    @example(seed=1, n_majority=40, m=8, ties=0, shift=-1.0, bandwidth=0.05,
             log_scale=True, alpha=0.05, tiny=True)
    @example(seed=1, n_majority=40, m=8, ties=0, shift=-1.0, bandwidth=0.5,
             log_scale=True, alpha=0.05, tiny=True)
    # one minority point: the q-maps stretch the pool far past the grid
    @example(seed=2, n_majority=40, m=1, ties=4, shift=-1.0, bandwidth=0.2,
             log_scale=False, alpha=0.1, tiny=False)
    def test_p_values_within_certified_bounds_and_flags_exact(self, seed, n_majority, m,
                                                              ties, shift, bandwidth,
                                                              log_scale, alpha, tiny):
        rng = np.random.default_rng(seed)
        pool = 1.0 / (1.0 + np.exp(-np.concatenate([rng.normal(0.0, 1.5, n_majority),
                                                     rng.normal(shift, 1.5, m)])))
        pool[:ties] = pool[n_majority - 1]
        if tiny:
            pool[0] = 1e-300
        # the pool's own scores (ties included), draws across it, deep tails
        tests = np.concatenate([pool, 1.0 / (1.0 + np.exp(-rng.normal(-1.0, 3.0, 300))),
                                [1e-10, 1e-30, 1e-200]])
        # the quantile shift takes alpha under 1/2 only
        shifts = ("mean", "quantile")[:2 if alpha < 0.5 else 1]
        rule = density.WeightedRule(pool, np.arange(pool.size) >= n_majority, bandwidth,
                                    alpha, shifts, log_scale)
        exact = exact_p_values(rule, tests)
        assert [f.tolist() for f in rule.flags(tests)] == [(p < alpha).tolist() for p in exact]
        # no grid, alpha >= 1/2 or a loose bound: every mass is exact
        assert not rule._certified or alpha < 0.5
        assert_exact_or_within_certified_bounds(rule, tests, exact)
        if tiny and log_scale:
            # a 1e-300 score's pool spans 300 log10 units: a grid of over 2**14
            # nodes at h = 0.05 or 0.2, or one whose bound decides nothing
            assert not rule._certified
            assert rule._model.has_grid == (bandwidth in (0.5, 1.5))

    @pytest.mark.parametrize("mask", ["ints", "short", "long", "2-D"])
    def test_minority_must_be_one_boolean_per_pool_point(self, mask):
        # a 0/1 integer mask would index points 0 and 1, not mask the last five
        pool, boolean, _ = logit_normal_pool(4, 5, n_majority=15)
        assert boolean.tolist() == (np.arange(20) >= 15).tolist()
        minority = {"ints": (np.arange(20) >= 15).astype(int), "short": np.arange(19) >= 15,
                    "long": np.arange(21) >= 15,
                    "2-D": np.stack([np.arange(20) >= 15] * 2)}[mask]
        with pytest.raises(ValueError, match="minority_not_a_mask"):
            density.WeightedRule(pool, minority, 0.5, 0.05, ("mean",), True)

    @pytest.mark.parametrize("shape", ["one-row", "two-rows", "scalar"])
    def test_pool_must_be_one_dimensional(self, shape):
        # a 2-D pool once ran as rows of pools, and a 2-D mask of its shape passed
        pool, minority, _ = logit_normal_pool(4, 5, n_majority=15)
        pool = {"one-row": pool[np.newaxis], "two-rows": np.stack([pool, pool[::-1]]),
                "scalar": np.float64(0.5)}[shape]
        for mask in (minority, np.broadcast_to(minority, pool.shape) if pool.ndim else True):
            with pytest.raises(ValueError, match="pool_not_one_dimensional"):
                density.WeightedRule(pool, mask, 0.5, 0.05, ("mean",), True)

    @pytest.mark.parametrize("log_scale", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_scores_must_be_finite_on_the_evaluation_scale(self, log_scale, bad):
        # a test score that is not once got p = NaN and went unflagged, or
        # raised IndexError; such a pool point raised sigma_not_positive
        pool, minority, tests = logit_normal_pool(4, 15, n_majority=25)
        finite = not log_scale and math.isfinite(bad)
        rule = density.WeightedRule(pool, minority, 0.5, 0.05, ("mean", "quantile"), log_scale)
        values = np.concatenate([tests[:20], [bad, 2.0]])
        for method in (rule.p_values, rule.flags):
            if finite:
                method(values)
            else:
                with pytest.raises(ValueError, match="non_finite_values"):
                    method(values)
        if finite:
            assert ([f.tolist() for f in rule.flags(values)]
                    == [(p < 0.05).tolist() for p in rule.p_values(values)])
        pool[3] = bad
        if finite:
            density.WeightedRule(pool, minority, 0.5, 0.05, ("mean",), log_scale)
        else:
            with pytest.raises(ValueError, match="non_finite_values"):
                density.WeightedRule(pool, minority, 0.5, 0.05, ("mean",), log_scale)

    @pytest.mark.parametrize("shifts, code", [(("median",), "unknown_shift"),
                                              (("mean", "Mean"), "unknown_shift"),
                                              ((), "no_shifts")])
    def test_shift_names_are_checked(self, shifts, code):
        pool, minority, _ = logit_normal_pool(4, 15)
        with pytest.raises(ValueError, match=code):
            density.WeightedRule(pool, minority, 0.5, 0.05, shifts, True)

    def test_rule_keeps_its_own_read_only_pool(self):
        # reusing the caller's array after building the rule changes nothing
        pool, minority, tests = logit_normal_pool(4, 15)
        shifts = ("mean", "quantile")
        want = density.WeightedRule(pool.copy(), minority, 0.5, 0.05, shifts, True)
        rule = density.WeightedRule(pool, minority, 0.5, 0.05, shifts, True)
        pool[:] = pool[::-1].copy()
        assert ([p.tobytes() for p in rule.p_values(tests)]
                == [p.tobytes() for p in want.p_values(tests)])
        assert ([f.tolist() for f in rule.flags(tests)]
                == [f.tolist() for f in want.flags(tests)])
        assert not rule._pool.flags.writeable

    @pytest.mark.parametrize("case", ["coarse_grid", "tiny_score"])
    def test_flags_equal_p_values_where_the_grid_leaves_points_open(self, monkeypatch,
                                                                     case):
        pool, minority, tests = logit_normal_pool(3, 15)
        if case == "coarse_grid":
            # one node per bandwidth: the bound leaves many points to the exact rule
            monkeypatch.setattr(density, "_GRID_STEP", 1.0)
        else:
            # log10 of the pool spans 300 units: the bound is too loose for the
            # certified screen to drop any point, so the exact tables screen
            pool[0] = 1e-300
        rule = density.WeightedRule(pool, minority, 0.5, 0.05, ("mean", "quantile"), True)
        opened = []
        exact = rule._p_values
        monkeypatch.setattr(rule, "_p_values", lambda values, j: opened.append(values.size)
                            or exact(values, j))
        flags = rule.flags(tests)
        # the candidates are the points the screen keeps: the certified
        # tables' at alpha * E, or the exact tables' at alpha with none
        if case == "coarse_grid":
            (table, _), (other, _) = rule._tables[0]
            level = 0.05 * rule._factor
        else:
            assert not rule._certified and 0.05 * rule._factor >= 1.0
            table, other = exact_tables(rule)
            level = 0.05
        j = table.ranks(tests)
        candidates = np.count_nonzero(table.screen(j, level) | other.screen(j, level))
        want = [p < 0.05 for p in exact(tests, j)]
        assert [f.tolist() for f in flags] == [w.tolist() for w in want]
        assert any(w.any() for w in want)
        assert rule._model.has_grid
        if case == "coarse_grid":
            assert 0 < opened[0] < candidates
        else:
            assert opened[0] == candidates


    @pytest.mark.parametrize("seed", [1, 5])
    def test_deep_tail_scores_keep_their_limit(self, seed):
        # the 200 + 15 pool: a tiny score's own ratio q/p explodes, so its
        # mass tends to 1, and it is not flagged however far out it lies
        pool, minority, _ = logit_normal_pool(seed, 15)
        rule = density.WeightedRule(pool, minority, 0.5, 0.05, ("mean", "quantile"), True)
        tests = np.array([1e-2, 1e-5, 1e-10, 1e-25, 1e-30, 1e-60, 1e-200])
        for p, flag in zip(rule.p_values(tests), rule.flags(tests)):
            assert not np.isnan(p).any()
            assert flag.tolist() == (p < 0.05).tolist()
            assert not flag[3:].any()
            assert (p[3:] == 1.0).all()

    @pytest.mark.parametrize("shift", ["mean", "quantile"])
    def test_p_values_match_python_log_space_oracle(self, shift):
        pool, minority, tests = logit_normal_pool(2, 5, n_majority=25)
        tests = np.concatenate([tests[:40], [1e-2, 1e-5, 1e-10, 1e-25, 1e-30, 1e-60,
                                             1e-200]])
        rule = density.WeightedRule(pool, minority, 0.5, 0.05, (shift,), True)
        (got,) = exact_p_values(rule, tests)
        (est,) = rule.shifts
        support = rule._model.support_points.tolist()

        def log_ratio(score):
            x = math.log10(score)
            return (python_log_sum(est.to_pool(x), support, 0.5)
                    - python_log_sum(x, support, 0.5))

        log_cal = [log_ratio(s) for s in pool.tolist()]
        top = max(log_cal)
        weights = [math.exp(lr - top) for lr in log_cal]
        total = math.fsum(weights)
        want = []
        for t in tests.tolist():
            # past exp(709) the mass is 1.0 in floats
            r = math.exp(min(log_ratio(t) - top, 709.0))
            below = math.fsum(w for w, s in zip(weights, pool.tolist()) if s <= t)
            want.append((r + below) / (r + total))
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0.0)
        assert got[-4:].tolist() == [1.0] * 4


class TestLogGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(st.floats(1e-8, 1.0), min_size=1, max_size=150),
        duplicates=st.integers(0, 150),
        bandwidth=st.floats(0.05, 2.0),
        log_scale=st.booleans(),
        where=st.lists(st.floats(-0.05, 1.05), max_size=200),
    )
    # midway between the two points, 80 bandwidths from each, the density is 0
    @example(scores=[1e-8, 1.0], duplicates=0, bandwidth=0.05, log_scale=True,
             where=[0.5, 0.25])
    def test_read_within_error_of_exact_log_density(self, scores, duplicates, bandwidth,
                                                    log_scale, where):
        support = np.array(scores + scores[:duplicates])
        if log_scale:
            support = np.log10(support)
        grid = full_grid(support, bandwidth)
        assert grid.has_grid
        lo, hi = grid.lo, grid.lo + grid.step * grid.cells
        # the support points, then points across the grid and a little beyond it
        x = np.concatenate([support, lo + (hi - lo) * np.array(where)])
        y, usable = grid.read(x)
        assert usable[:support.size].all() and usable[(x > lo) & (x < hi)].all()
        assert not usable[(x < lo) | (x > hi)].any()
        # exact log densities, also where the density itself underflows
        exact = DensityModel(support, bandwidth).log_evaluate(x[usable]) + math.log(
            support.size * bandwidth * math.sqrt(2.0 * math.pi))
        assert (np.abs(y[usable] - exact) <= grid.error).all()

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(st.floats(1e-8, 1.0), min_size=2, max_size=60),
        bandwidth=st.floats(0.05, 2.0),
        ranges=st.lists(st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)),
                        min_size=1, max_size=4),
        where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=100),
    )
    def test_sub_range_and_pieces_read_the_full_grids_bits(self, scores, bandwidth, ranges,
                                                          where):
        # nodes built over part of the span, then grown piece by piece over
        # several calls, read the bits of the grid built over the whole span
        support = np.log10(np.array(scores))
        grid = DensityModel(support, bandwidth)
        full = full_grid(support, bandwidth)
        span_lo, span = grid.lo, grid.step * grid.cells
        covered_lo, covered_hi = np.inf, -np.inf
        for lo, hi in ranges:  # one piece per call
            lo, hi = span_lo + span * min(lo, hi), span_lo + span * max(lo, hi)
            grid.cover(lo, hi)
            covered_lo, covered_hi = min(covered_lo, lo), max(covered_hi, hi)
            x = covered_lo + (covered_hi - covered_lo) * np.array(where)
            y, usable = grid.read(x)
            want, usable_full = full.read(x)
            assert usable.tolist() == usable_full.tolist()
            assert y[usable].tobytes() == want[usable].tobytes()
            assert grid.log_sums(x).tobytes() == full.log_sums(x).tobytes()
        # a sub-range holds fewer nodes than the span
        assert grid.nodes[1] - grid.nodes[0] <= full.nodes[1] - full.nodes[0]


def corrupt_ratios(monkeypatch, value):
    """The first shift's calibration ratios are ``value`` when the rule checks them.

    The rule's own ratios are ``exp`` of finite log ratios less their
    maximum, so only a corrupted ratio reaches the checks of
    ``conformal._weighted_table``, which ``weighted_p_values`` shares.
    """
    build = density._weighted_table

    def corrupted(cal_values, cal_ratios):
        cal_ratios[0] = value
        return build(cal_values, cal_ratios)

    monkeypatch.setattr(density, "_weighted_table", corrupted)


@pytest.mark.parametrize("value, code", [(math.nan, "density_underflow"),
                                         (-1.0, "negative_weight")])
class TestTestRatioChecks:
    """A bad ratio inside the weighted rule fails the run with its code."""

    def test_weighted_simulate_raises(self, monkeypatch, value, code):
        corrupt_ratios(monkeypatch, value)
        config = replace(default_config("weighted"), seeds=(1,), n_prompts=1, n_test=50,
                         minority_sizes=(15,), null_levels=(1,))
        with pytest.raises(RuntimeError, match="cell_failure") as info:
            run_scenario(config)
        assert code in str(info.value.__cause__)

    def test_weighted_detect_exits_2(self, tmp_path, monkeypatch, capsys, value, code):
        corrupt_ratios(monkeypatch, value)
        golden = Path(__file__).parent / "golden"
        assert main(["detect", str(golden / "detect_cal.csv"),
                     str(golden / "detect_test.csv"), "--method", "weighted",
                     "--out", str(tmp_path)]) == 2
        assert code in json.loads(capsys.readouterr().err.strip())["detail"]
        assert not (tmp_path / "decisions.csv").exists()
