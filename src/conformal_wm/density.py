"""Density estimation and importance weighting for shifted calibration pools.

The pooled calibration density is a Gaussian kernel density estimate (KDE)
over log10 watermark scores. The density of a small target subgroup is not
re-estimated from its handful of points; instead the pool KDE is queried
through an affine map whose anchors come either from sample means ("mean
shift") or from robust lower quantiles ("quantile shift"). The ratios q/p
of the two densities are the importance weights of the weighted conformal
rule, which normalizes them itself, so their common scale never matters.
:class:`WeightedRule` assembles the whole rule for one pool; ``detect`` and
``simulate`` both call it. It works in log densities only, which stay
finite however deep in a tail a score lies.

``WeightedRule.p_values``, which ``detect`` writes, comes from the exact
Gaussian sums. ``WeightedRule.flags``, which ``simulate`` counts, reads the
log densities from one grid (:class:`_LogGrid`), whose error has a proven
bound, and decides a flag from the grid only when the bound proves it; the
exact sums decide the rest, so every flag equals the exact rule's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .conformal import _SCREEN_SLACK, _RankTable, _weighted_table

# Sample standard deviations below this are treated as degenerate (e.g. a
# constant minority sample) and floored so the affine map stays defined.
SIGMA_FLOOR = 1e-8

_GAUSS_NORM = math.sqrt(2.0 * math.pi)

# Bytes per (rows, N) buffer in _log_kernel_sums: with its chunk header
# under glibc's initial 128 KiB mmap threshold, so buffers reuse heap memory.
_BLOCK_BYTES = 128 * 1024 - 64

# Spacing of :class:`_LogGrid`'s nodes in bandwidths, before rounding down to
# a power of two.
_GRID_STEP = 0.125

# Most nodes of a :class:`_LogGrid`. A support that needs more is over 1,000
# bandwidths wide, where the grid's bound is too loose to pay for its cost.
_GRID_MAX_NODES = 2 ** 14


def _block_rows(n_support: int) -> int:
    """Query rows per block for a support of ``n_support`` points (at least 1)."""
    return max(1, _BLOCK_BYTES // (8 * n_support))


def empirical_quantile(values: Sequence[float], level: float) -> float:
    """Empirical quantile with midpoint plotting positions.

    The k-th order statistic (1-based) sits at level (k - 0.5)/m and the
    quantile interpolates linearly between adjacent order statistics,
    clamping to the sample minimum/maximum outside that range. The same
    convention is shared by every quantile in this package so thresholds
    and shift anchors stay mutually consistent.

    The order statistics come out as ``sorted()`` would place them and the
    interpolation runs on Python floats, so the result has the bits of the
    list-sorting formula. NaN or infinite values raise ``non_finite_values``.
    """
    if len(values) == 0:
        raise ValueError("empty_values: quantile of an empty sample")
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level_out_of_range: {level}")
    arr = np.asarray(values, dtype=np.float64)
    # Only -0.0 and 0.0 compare equal with different bits; with a -0.0 in the
    # input, sort stably so the zeros keep their input order as in sorted().
    # The input is checked, not the sorted copy: the default (SIMD) sort may
    # write every zero back as +0.0.
    if np.signbit(arr[arr == 0.0]).any():
        xs = np.sort(arr, kind="stable")
    else:
        xs = np.sort(arr)
    # NaN sorts last and -inf first, so the ends show any non-finite value
    if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):
        raise ValueError("non_finite_values: quantile of a sample with NaN or inf")
    m = len(xs)
    h = m * level + 0.5
    if h <= 1.0:
        return float(xs[0])
    if h >= m:
        return float(xs[-1])
    j = int(math.floor(h))
    g = h - j
    lo = float(xs[j - 1])
    return lo + g * (float(xs[j]) - lo)


@dataclass(frozen=True)
class ShiftEstimate:
    """Anchors and spreads defining the pool-to-subgroup affine map."""

    method: str  # "mean" or "quantile"
    q_anchor: float
    p_anchor: float
    sigma_p: float
    sigma_q: float
    branch: str | None = None  # quantile method: "min", "2alpha" or "alpha"

    def __post_init__(self):
        if self.sigma_p <= 0 or self.sigma_q <= 0:
            raise ValueError("sigma_not_positive")


@dataclass(frozen=True, eq=False)
class DensityModel:
    """Gaussian KDE evaluated through an affine query transform.

    With the identity transform (scale=1, offset=0) this is the pool
    density itself. A shifted model evaluates the same KDE at
    ``scale * x + offset``, which realizes the subgroup density as an
    affinely relocated copy of the pool density. No Jacobian factor is
    applied: weights are formed from normalized ratios, so constant
    factors cancel. ``support_points`` is stored as a read-only float64
    copy of whatever sequence is passed.
    """

    support_points: np.ndarray
    bandwidth: float
    scale: float = 1.0
    offset: float = 0.0
    shift: ShiftEstimate | None = None

    def __post_init__(self):
        support = np.array(self.support_points, dtype=np.float64)
        support.setflags(write=False)
        object.__setattr__(self, "support_points", support)
        if support.size == 0:
            raise ValueError("empty_support: KDE needs at least one point")
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth_not_positive: {self.bandwidth}")
        if not self.scale > 0:
            raise ValueError(f"scale_not_positive: {self.scale}")

    def log_evaluate(self, x) -> np.ndarray:
        """Log density at ``x`` as an array of ``x``'s shape, finite at finite ``x``.

        The sum over support points is exact, not binned (:func:`_log_kernel_sums`).
        """
        arr = np.asarray(x, dtype=float)
        log_sums, _ = _log_kernel_sums((self.scale * arr + self.offset).ravel(),
                                       self.support_points, self.bandwidth)
        log_sums -= math.log(self.support_points.size * self.bandwidth * _GAUSS_NORM)
        return log_sums.reshape(arr.shape)


def _log_kernel_sums(query: np.ndarray, support: np.ndarray, bandwidth: float,
                     with_moment: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """``log sum_i k_i`` at each query, with ``k_i = exp(-z_i**2 / 2)``, ``z_i = (x - s_i) / h``.

    With ``with_moment`` the second array is ``sum_i z_i k_i / sum_i k_i``,
    else None. Queries go :func:`_block_rows` at a time through two (block,
    N) buffers of at most ``_BLOCK_BYTES`` each (one row if a row is larger),
    so memory does not grow with the number of queries. Each row's sum sees
    the operations of the dense ``exp(-0.5 * z * z).sum(axis=-1)`` in the
    same order, and so gets its bits. A sum below the smallest normal double
    is taken again with its largest exponent ``e`` factored out, as
    ``e + log sum_i (k_i / exp(e))``, so every log sum is finite and as
    accurate as a normal float's.
    """
    sums = np.empty(query.size)
    moments = np.empty(query.size) if with_moment else None
    rows = max(1, min(_block_rows(support.size), query.size))
    z = np.empty((rows, support.size))
    kern = np.empty((rows, support.size))
    for start in range(0, query.size, rows):
        block = query[start:start + rows]
        zb, kb = z[:block.size], kern[:block.size]
        np.subtract(block[:, np.newaxis], support, out=zb)
        zb /= bandwidth
        np.multiply(zb, -0.5, out=kb)
        kb *= zb
        np.exp(kb, out=kb)
        kb.sum(axis=-1, out=sums[start:start + block.size])
        if with_moment:
            zb *= kb
            zb.sum(axis=-1, out=moments[start:start + block.size])
    low = np.flatnonzero(sums < np.finfo(float).tiny)
    tops = np.zeros(query.size)
    for start in range(0, low.size, rows):
        idx = low[start:start + rows]
        z = (query[idx, np.newaxis] - support) / bandwidth
        expo = z * -0.5 * z
        tops[idx] = expo.max(axis=-1)
        kern = np.exp(expo - tops[idx, np.newaxis])
        sums[idx] = kern.sum(axis=-1)
        if with_moment:
            moments[idx] = (z * kern).sum(axis=-1)
    return np.log(sums) + tops, moments / sums if with_moment else None


def fit_kde(log_scores: Sequence[float], bandwidth: float) -> DensityModel:
    """Fit a Gaussian KDE with a fixed absolute bandwidth.

    scipy's gaussian_kde rescales its bandwidth by the sample deviation,
    which would silently change the smoothing as the pool changes; the
    bandwidth here is the literal kernel width.
    """
    return DensityModel(support_points=log_scores, bandwidth=float(bandwidth))


def _spread(values: np.ndarray) -> float:
    return max(float(np.std(values)), SIGMA_FLOOR)


def mean_shift(
    pool_logs: Sequence[float],
    minority_logs: Sequence[float],
    bandwidth: float,
) -> DensityModel:
    """Subgroup density from the pool KDE, anchored at the two sample means.

    A query x is standardized with the minority moments and re-expressed in
    pool coordinates before the pool KDE is evaluated:
    ``x -> ((x - mean_q) / sigma_q) * sigma_p + mean_p``.
    """
    pool, minority = _samples(pool_logs, minority_logs)
    return _shifted_model(pool, minority, bandwidth, "mean",
                          float(np.mean(minority)), float(np.mean(pool)))


def check_quantile_alpha(alpha: float) -> None:
    """Raise ``alpha_out_of_range`` unless 0 < alpha < 0.5: the shift may anchor at 2 alpha."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha_out_of_range: {alpha}")


def quantile_shift(
    pool_logs: Sequence[float],
    minority_logs: Sequence[float],
    bandwidth: float,
    alpha: float,
) -> DensityModel:
    """Subgroup density anchored at lower-tail quantiles instead of means.

    The minority anchor level adapts to the minority sample size m:

    * m <= 1/(2 alpha): the alpha-quantile of m points is hopeless, so the
      minority anchor is its minimum and the pool anchor is the pool
      quantile at level 1/m (the level the minimum of m draws estimates).
    * m <= 1/alpha: both anchors at the more conservative 2*alpha level.
    * otherwise: both anchors at level alpha.

    This targets the tail where flagging decisions actually happen, which
    matters when the subgroup shift is stronger in the tail than in the
    bulk.
    """
    pool, minority = _samples(pool_logs, minority_logs)
    check_quantile_alpha(alpha)
    m = minority.size
    # Branch conditions are m <= 1/(2a) and m <= 1/a, written multiplicatively
    # so integer boundaries (e.g. m=10 at alpha=0.05) are decided exactly.
    if m * 2.0 * alpha <= 1.0:
        branch = "min"
        q_anchor = float(np.min(minority))
        p_anchor = empirical_quantile(pool, 1.0 / m)
    elif m * alpha <= 1.0:
        branch = "2alpha"
        q_anchor = empirical_quantile(minority, 2.0 * alpha)
        p_anchor = empirical_quantile(pool, 2.0 * alpha)
    else:
        branch = "alpha"
        q_anchor = empirical_quantile(minority, alpha)
        p_anchor = empirical_quantile(pool, alpha)
    return _shifted_model(pool, minority, bandwidth, "quantile", q_anchor, p_anchor, branch)


def _samples(pool_logs, minority_logs) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as float arrays; raises ``empty_pool`` or ``empty_minority``."""
    pool = np.asarray(pool_logs, dtype=float)
    minority = np.asarray(minority_logs, dtype=float)
    if pool.size == 0:
        raise ValueError("empty_pool")
    if minority.size == 0:
        raise ValueError("empty_minority")
    return pool, minority


def _shifted_model(pool: np.ndarray, minority: np.ndarray, bandwidth: float,
                   method: str, q_anchor: float, p_anchor: float,
                   branch: str | None = None) -> DensityModel:
    est = ShiftEstimate(method, q_anchor, p_anchor, _spread(pool), _spread(minority),
                        branch)
    scale = est.sigma_p / est.sigma_q
    offset = est.p_anchor - est.q_anchor * scale
    return DensityModel(
        support_points=pool,
        bandwidth=float(bandwidth),
        scale=scale,
        offset=offset,
        shift=est,
    )


def density_ratios(model_p: DensityModel, models_q: Sequence[DensityModel],
                   points) -> list[np.ndarray]:
    """Raw q/p ratios ``exp(log q - log p)`` at the given points, one array per q-model.

    A ratio is 0 or inf only where it lies beyond the range of floats.
    """
    with np.errstate(over="ignore"):
        return [np.exp(log_r)
                for log_r in _log_ratios(model_p, models_q, np.asarray(points, dtype=float))]


def _log_ratios(model_p: DensityModel, models_q: Sequence[DensityModel],
                points: np.ndarray) -> list[np.ndarray]:
    """``log q - log p`` at ``points`` for each q-model; p is evaluated once."""
    log_p = model_p.log_evaluate(points)
    return [model_q.log_evaluate(points) - log_p for model_q in models_q]


def _masses(table: _RankTable, j: np.ndarray, log_r: np.ndarray) -> np.ndarray:
    """``table.p_values(j, exp(log_r))``, and its limit 1 where that ratio overflows."""
    with np.errstate(over="ignore"):
        ratios = np.exp(log_r)
    over = np.isinf(ratios)
    ratios[over] = 0.0
    p = table.p_values(j, ratios)
    p[over] = 1.0
    return p


class _LogGrid:
    """A KDE's log kernel sum on evenly spaced nodes, read by cubic Hermite interpolation.

    ``log_sum`` holds ``log sum_i k_i`` (the KDE's log f up to the constant
    ``log(N h sqrt(2 pi))``, which cancels in every ratio) at the nodes
    ``lo + k * step`` covering ``[min - 8h, max + 8h]`` of the support, and
    ``tangent`` holds ``step`` times its slope ``-sum z k / (h sum k)``. Both
    come from :func:`_log_kernel_sums`, as the exact rule's log densities do.
    The step is ``_GRID_STEP * h`` rounded down to a power of two, so every
    node is an exact float.

    Bound. With ``w_i = exp(-s_i**2 / 2h**2)``,
    ``log f(u) = -u**2 / 2h**2 + K(u / h**2) + const``, where
    ``K(t) = log sum_i w_i exp(t s_i)`` is the cumulant generating function
    (up to a constant) of the law with mass proportional to ``w_i exp(t s_i)``
    on the support points. The quadratic has no fourth derivative, so
    ``(log f)''''(u) = kappa_4 / h**8`` for that law's fourth cumulant. On
    support of width D, Popoviciu gives ``mu_2 <= D**2 / 4``, and
    ``mu_2**2 <= mu_4 <= D**2 mu_2``, so
    ``-D**4 / 8 <= -2 mu_2**2 <= kappa_4 = mu_4 - 3 mu_2**2 <= D**4 / 12``,
    and ``|(log f)''''| <= D**4 / (8 h**8)`` everywhere. A cubic Hermite
    read of g on a cell of width ``delta`` errs by
    ``g''''(xi) (x - x0)**2 (x - x1)**2 / 24``, at most
    ``|g''''| delta**4 / 384``, so it is within
    ``bound = delta**4 D**4 / (3072 h**8)`` of the exact log f.

    Roundings. The computed values differ from the exact ones by roundings,
    in the nodes, in a read and in the exact rule's sums, logs and
    differences. Each is a few units of ``2**-53`` times one of: N (a sum of
    N positive terms, some perhaps subnormal); ``R**2`` with
    ``R = D / h + 10``, which bounds ``|z|`` inside the grid (a kernel
    term's exponent; numpy's ``exp`` is within a few ulps); ``R * N`` and
    ``R**3`` (a slope, whose sum can cancel, times ``delta / h <= 2``); ``R``
    times the node count (a read's position); and the size of a log. Inside
    the grid a kernel sum lies between ``exp(-R**2 / 2)`` and N, so
    ``|log sum| <= R**2 / 2 + log N``; the constant ``log(N h sqrt(2 pi))``
    is under 800 in size; and a log ratio less the rule's maximum is under
    746 in size where its ``exp`` is neither 0 nor inf (beyond, that ``exp``
    and the grid's saturate together). :attr:`error` adds to ``bound`` a
    slack of ``2**-40 * (R * (N + nodes) + R**3 + 1024)``, more than a
    hundred times their sum.

    A read is usable wherever it lies inside the grid. The grid is not built
    when its nodes would not be exact floats, or would number more than
    ``_GRID_MAX_NODES``.
    """

    def __init__(self, support: np.ndarray, bandwidth: float):
        h = float(bandwidth)
        s_min, s_max = float(support.min()), float(support.max())
        self.step = math.ldexp(1.0, math.frexp(_GRID_STEP * h)[1] - 1)
        rho = self.step / h * ((s_max - s_min) / h)
        r = (s_max - s_min) / h + 10.0
        nodes = (s_max - s_min + 16.0 * h) / self.step + 2.0
        self.error = (rho * rho * rho * rho / 3072.0
                      + 2.0 ** -40 * (r * (support.size + nodes) + r * r * r + 1024.0))
        self.log_sum = None
        if not (nodes <= _GRID_MAX_NODES
                and max(-s_min, s_max) + 10.0 * h <= 2.0 ** 52 * self.step):
            return
        k_lo = math.floor((s_min - 8.0 * h) / self.step)
        k_hi = math.ceil((s_max + 8.0 * h) / self.step)
        self.lo = k_lo * self.step
        self.log_sum, mean_z = _log_kernel_sums(
            self.lo + self.step * np.arange(k_hi - k_lo + 1.0), support, h, with_moment=True)
        self.tangent = mean_z * (-self.step / h)

    def read(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``log sum_i k_i`` at each of ``x``, and where that is within :attr:`error`."""
        if self.log_sum is None:
            return np.zeros(x.shape), np.zeros(x.shape, dtype=bool)
        last = self.log_sum.size - 1
        pos = (x - self.lo) / self.step
        usable = (pos >= 0.0) & (pos <= last)
        pos = np.where(usable, pos, 0.0)
        i = np.minimum(pos.astype(np.intp), last - 1)
        t = pos - i
        s = 1.0 - t
        y = (s * s * ((1.0 + 2.0 * t) * self.log_sum[i] + t * self.tangent[i])
             + t * t * ((3.0 - 2.0 * t) * self.log_sum[i + 1] - s * self.tangent[i + 1]))
        return y, usable


class WeightedRule:
    """The weighted conformal rule of one calibration pool, assembled once.

    ``minority`` masks the pool's minority points, and the scores go through
    log10 once if ``log_scale``. p is the pool KDE, ``models_q`` holds one
    shifted model per name in ``shifts`` ("mean" or "quantile"), each with
    its :class:`ShiftEstimate`, and ``tables`` one weighted rank table per
    model. Every table holds the pool sorted, so one rank serves them all.

    A model's ratios are ``exp(log q - log p - M)``, M its largest at the
    pool: its calibration ratios lie in [0, 1] and total at least 1, and a
    test ratio beyond the range of floats is inf, of weighted mass 1.
    """

    def __init__(self, pool, minority, bandwidth: float, alpha: float,
                 shifts: Sequence[str], log_scale: bool):
        pool = np.asarray(pool, dtype=float)
        self.alpha = alpha
        self._to_eval = np.log10 if log_scale else np.asarray
        pool_eval = self._to_eval(pool)
        minority_eval = pool_eval[minority]
        self.model_p = fit_kde(pool_eval, bandwidth)
        self.models_q = [mean_shift(pool_eval, minority_eval, bandwidth) if shift == "mean"
                         else quantile_shift(pool_eval, minority_eval, bandwidth, alpha)
                         for shift in shifts]
        log_ratios = _log_ratios(self.model_p, self.models_q, pool_eval)
        self._tops = [log_r.max() for log_r in log_ratios]
        self.tables = [_weighted_table(pool, np.exp(log_r - top))
                       for log_r, top in zip(log_ratios, self._tops)]

    def _p_values(self, values: np.ndarray, j: np.ndarray) -> list[np.ndarray]:
        log_ratios = _log_ratios(self.model_p, self.models_q, self._to_eval(values))
        return [_masses(table, j, log_r - top)
                for table, log_r, top in zip(self.tables, log_ratios, self._tops)]

    def p_values(self, values) -> list[np.ndarray]:
        """Each model's weighted mass at every test score."""
        values = np.asarray(values, dtype=float)
        return self._p_values(values, self.tables[0].ranks(values))

    @cached_property
    def _grid(self) -> _LogGrid:
        """The pool KDE's log-density grid; each q-model reads it through its affine map."""
        return _LogGrid(self.model_p.support_points, self.model_p.bandwidth)

    def flags(self, values: np.ndarray) -> list[np.ndarray]:
        """Each model's ``mass < alpha`` at test scores ``values``.

        Each flag equals the exact rule's, in three steps. Densities matter
        only at the points some table's screen keeps; the others are
        unflagged under every model, whatever their ratios. At a kept point,
        :meth:`_grid_flags` decides the flags its bound proves. The points it
        leaves open get the exact p-values of :meth:`p_values`.
        """
        j = self.tables[0].ranks(values)
        cand = np.zeros(j.shape, dtype=bool)
        for table in self.tables:
            cand |= table.screen(j, self.alpha)
        values, j_cand = values[cand], j[cand]
        flags, open_ = self._grid_flags(self._to_eval(values), j_cand)
        if open_.any():
            for flag, p in zip(flags, self._p_values(values[open_], j_cand[open_])):
                flag[open_] = p < self.alpha
        out = []
        for flag in flags:
            flagged = np.zeros(j.shape, dtype=bool)
            flagged[cand] = flag
            out.append(flagged)
        return out

    def _grid_flags(self, x: np.ndarray,
                    j: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Each model's flags the grid proves at points ``x`` (eval scale) of ranks ``j``.

        Returns the flags and the mask of points left open. The exact rule's
        log ratio less M lies within ``eps = 2 * grid.error`` of the grid's,
        ``log_r``, and the mass ``(r + mass[j]) / (r + mass[n])`` increases
        with r. So a point is flagged when its mass at ``exp(log_r + eps)``
        is under ``alpha * (1 - 1e-12)``, and cleared when its mass at
        ``exp(log_r - eps)`` is at least ``alpha * (1 + 1e-12)``: margins far
        above the mass's roundings, as in ``_RankTable.screen``. A point is
        open if any model leaves it undecided or any of its reads lies
        outside the grid.
        """
        grid = self._grid
        eps = 2.0 * grid.error
        log_p, usable = grid.read(x)
        flags = []
        for model, table, top in zip(self.models_q, self.tables, self._tops):
            log_q, usable_q = grid.read(model.scale * x + model.offset)
            log_r = log_q - log_p - top
            flag = _masses(table, j, log_r + eps) < self.alpha * (1.0 - _SCREEN_SLACK)
            usable &= usable_q & (flag | (_masses(table, j, log_r - eps)
                                          >= self.alpha * (1.0 + _SCREEN_SLACK)))
            flags.append(flag)
        return flags, ~usable
