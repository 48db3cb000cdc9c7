"""KDE, shift estimators, quantiles, and importance weights."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_wm import density
from conformal_wm.conformal import standard_p_values, weighted_p_values
from conformal_wm.density import (
    DensityModel,
    ShiftEstimate,
    density_ratios,
    empirical_quantile,
    fit_kde,
    mean_shift,
    quantile_shift,
)

log_points = st.lists(
    st.floats(min_value=-8.0, max_value=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=25,
)


_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def kde_integral(model, lo, hi, n=40001):
    grid = np.linspace(lo, hi, n)
    return float(_trapezoid(model.evaluate(grid), grid))


class TestFitKde:
    def test_single_kernel_closed_form(self):
        # (1/h) * standard normal density at 0, with h = 0.5
        model = fit_kde([0.0], 0.5)
        expected = 2.0 / math.sqrt(2.0 * math.pi)
        assert model.evaluate(0.0) == pytest.approx(expected, abs=1e-9)
        assert model.evaluate(0.0) == pytest.approx(0.7978845608, abs=1e-9)

    def test_symmetric_support_gives_symmetric_density(self):
        model = fit_kde([-1.0, 1.0], 0.7)
        for c in (0.3, 1.2, 2.5):
            assert model.evaluate(c) == model.evaluate(-c)

    @given(points=log_points,
           bandwidth=st.floats(min_value=0.05, max_value=2.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_integrates_to_one(self, points, bandwidth):
        model = fit_kde(points, bandwidth)
        lo = min(points) - 10 * bandwidth
        hi = max(points) + 10 * bandwidth
        assert kde_integral(model, lo, hi) == pytest.approx(1.0, abs=1e-3)

    @given(points=log_points, x=st.floats(-20, 20, allow_nan=False))
    def test_nonnegative_everywhere(self, points, x):
        assert fit_kde(points, 0.5).evaluate(x) >= 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty_support"):
            fit_kde([], 0.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_bandwidth_rejected(self, bad):
        with pytest.raises(ValueError, match="bandwidth_not_positive"):
            fit_kde([0.0], bad)

    def test_identity_transform_flag(self):
        model = fit_kde([0.0, 1.0], 0.5)
        assert (model.scale, model.offset) == (1.0, 0.0)


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
tie_prone = st.lists(
    st.one_of(st.sampled_from([-0.0, 0.0, 0.25, -1.5, 1e-300, 0.1 + 0.2]),
              st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60)
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
        model = mean_shift(logs, logs, 0.5)
        assert model.scale == 1.0 and model.offset == 0.0
        base = fit_kde(logs, 0.5)
        for x in (-1.5, 0.2, 3.0):
            assert model.evaluate(x) == base.evaluate(x)

    def test_pure_location_shift(self):
        pool = [-1.0, 1.0]        # mean 0, std 1
        minority = [-3.0, -1.0]   # mean -2, std 1
        model = mean_shift(pool, minority, 0.5)
        base = fit_kde(pool, 0.5)
        for x in (-2.0, -0.5, 0.0, 1.0):
            assert model.evaluate(x) == pytest.approx(base.evaluate(x + 2.0), abs=1e-15)

    def test_wider_minority_compresses_queries(self):
        pool = [-1.0, 1.0]       # std 1
        minority = [-2.0, 2.0]   # std 2
        model = mean_shift(pool, minority, 0.5)
        assert model.scale == 0.5
        base = fit_kde(pool, 0.5)
        assert model.evaluate(1.0) == pytest.approx(base.evaluate(0.5), abs=1e-15)

    def test_constant_minority_hits_sigma_floor(self):
        model = mean_shift([-1.0, 0.0, 1.0], [0.5, 0.5], 0.5)
        assert model.shift.sigma_q == 1e-8
        assert math.isfinite(model.evaluate(0.49))

    def test_empty_minority_rejected(self):
        with pytest.raises(ValueError, match="empty_minority"):
            mean_shift([0.0], [], 0.5)


class TestQuantileShift:
    def test_small_minority_uses_minimum_anchor(self):
        rng = np.random.default_rng(0)
        pool = rng.normal(0, 1, 200)
        minority = rng.normal(-2, 1, 8)
        model = quantile_shift(pool, minority, 0.5, alpha=0.05)
        est = model.shift
        assert est.branch == "min"
        assert est.q_anchor == float(np.min(minority))
        assert est.p_anchor == pytest.approx(
            np.quantile(pool, 1 / 8, method="hazen"), abs=1e-12)

    def test_moderate_minority_uses_double_alpha(self):
        rng = np.random.default_rng(1)
        pool = rng.normal(0, 1, 200)
        minority = rng.normal(-2, 1, 15)
        est = quantile_shift(pool, minority, 0.5, alpha=0.05).shift
        assert est.branch == "2alpha"
        assert est.q_anchor == pytest.approx(
            np.quantile(minority, 0.10, method="hazen"), abs=1e-12)
        assert est.p_anchor == pytest.approx(
            np.quantile(pool, 0.10, method="hazen"), abs=1e-12)

    def test_large_minority_uses_alpha(self):
        rng = np.random.default_rng(2)
        pool = rng.normal(0, 1, 200)
        minority = rng.normal(-2, 1, 30)
        est = quantile_shift(pool, minority, 0.5, alpha=0.05).shift
        assert est.branch == "alpha"
        assert est.q_anchor == pytest.approx(
            np.quantile(minority, 0.05, method="hazen"), abs=1e-12)

    @pytest.mark.parametrize("m,branch", [(10, "min"), (11, "2alpha"),
                                          (20, "2alpha"), (21, "alpha")])
    def test_integer_branch_boundaries_at_alpha_005(self, m, branch):
        rng = np.random.default_rng(m)
        est = quantile_shift(rng.normal(0, 1, 100), rng.normal(-1, 1, m),
                             0.5, alpha=0.05).shift
        assert est.branch == branch

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, -0.1])
    def test_alpha_range_enforced(self, alpha):
        with pytest.raises(ValueError, match="alpha_out_of_range"):
            quantile_shift([0.0, 1.0], [0.0], 0.5, alpha)


class TestWeights:
    def test_identical_models_give_uniform_weights(self):
        logs = [-2.0, -1.5, -0.5, 0.0]
        model = fit_kde(logs, 0.5)
        (r,) = density_ratios(model, [model], [*logs, -1.0])
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
        # both densities vanish 50 bandwidths away from their support
        model_p = fit_kde([0.0], 0.5)
        model_q = fit_kde([0.0], 0.5)
        (r,) = density_ratios(model_p, [model_q], [200.0, 201.0])
        assert r.tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="density_underflow"):
            weighted_p_values([200.0], r[:1], 201.0, r[1])

    def test_floored_pool_density_keeps_ratio_finite(self):
        model_p = fit_kde([0.0], 0.5)
        model_q = DensityModel(support_points=(40.0,), bandwidth=0.5)
        (r,) = density_ratios(model_p, [model_q], [40.0])
        assert np.isfinite(r).all() and r[0] > 0


class TestShiftEstimate:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma_not_positive"):
            ShiftEstimate(method="mean", q_anchor=0.0, p_anchor=0.0,
                          sigma_p=0.0, sigma_q=1.0)


def dense_evaluate(model, x):
    """One-shot T x N evaluation; the blocked kernel must match it bit for bit."""
    arr = np.asarray(x, dtype=float)
    query = model.scale * arr + model.offset
    support = np.asarray(model.support_points, dtype=float)
    z = (query[..., np.newaxis] - support) / model.bandwidth
    dens = np.exp(-0.5 * z * z).sum(axis=-1)
    dens /= support.size * model.bandwidth * math.sqrt(2.0 * math.pi)
    if arr.ndim == 0:
        return float(dens)
    return dens


B = density._BLOCK_ROWS
POOL = tuple(np.random.default_rng(7).normal(-1.0, 0.8, 215).tolist())
MODELS = (
    DensityModel(support_points=POOL, bandwidth=0.5),
    DensityModel(support_points=POOL, bandwidth=0.5, scale=0.37, offset=-1.25),
    DensityModel(support_points=POOL, bandwidth=0.3, scale=2.5, offset=0.8),
)


class TestBlockedEvaluate:
    def test_scalar_returns_identical_float(self):
        model = MODELS[1]
        got = model.evaluate(-0.7)
        assert type(got) is float
        assert got == dense_evaluate(model, -0.7)

    def test_empty_array(self):
        got = MODELS[0].evaluate(np.array([]))
        assert got.shape == (0,)
        assert np.array_equal(got, dense_evaluate(MODELS[0], np.array([])))

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("t", [1, B - 1, B, B + 1, 3 * B + 7])
    def test_lengths_around_block_size(self, model, t):
        x = np.random.default_rng(t).normal(-1.0, 2.0, t)
        got = model.evaluate(x)
        assert got.shape == (t,)
        assert np.array_equal(got, dense_evaluate(model, x))

    @pytest.mark.parametrize("model", MODELS)
    def test_two_dimensional_input_keeps_shape(self, model):
        x = np.random.default_rng(3).normal(-1.0, 2.0, (5, B // 2 + 3))
        got = model.evaluate(x)
        assert got.shape == x.shape
        assert np.array_equal(got, dense_evaluate(model, x))

    @settings(max_examples=60, deadline=None)
    @given(
        support=st.lists(st.floats(-8.0, 2.0, allow_nan=False), min_size=1, max_size=60),
        queries=st.lists(st.floats(-12.0, 6.0, allow_nan=False), max_size=3 * B),
        bandwidth=st.floats(0.01, 3.0),
        scale=st.floats(0.1, 10.0),
        offset=st.floats(-5.0, 5.0),
    )
    def test_matches_dense_oracle(self, support, queries, bandwidth, scale, offset):
        model = DensityModel(support_points=tuple(support), bandwidth=bandwidth,
                             scale=scale, offset=offset)
        assert np.array_equal(model.evaluate(queries), dense_evaluate(model, queries))

    def test_memory_does_not_grow_with_queries(self):
        # A dense 20,000 x 500 float64 temporary alone would take 80 MB.
        model = fit_kde(np.linspace(-3.0, 1.0, 500), 0.5)
        x = np.linspace(-6.0, 3.0, 20_000)
        model.evaluate(x[:1])
        tracemalloc.start()
        try:
            model.evaluate(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
