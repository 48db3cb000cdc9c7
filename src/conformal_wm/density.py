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

``WeightedRule`` has one evaluator, which ``p_values`` (written by
``detect``) runs at every test score and ``flags`` (counted by
``simulate``) at the points its screen keeps. It reads the log densities
from one grid (:class:`_LogGrid`), whose error has a proven bound, at the
pool as well as at the test points, and takes from each test point's grid
ratio its grid mass and two bounds on the exact rule's mass. A point is
open where some shift's bounds straddle alpha; an open point, and every
point where the grid cannot serve (no grid, alpha at least 1/2, or a bound
too loose to screen), gets the exact mass from the exact Gaussian sums.
The grid mass lies between the bounds, and so does the exact mass. So
wherever the bounds decide, ``p < alpha`` is the exact rule's flag, and
elsewhere p is exact: every flag equals the exact rule's, and every p lies
within the certified bounds of the exact one. The exact tables, 3 N**2
kernel terms for a pool of N points, are built only where needed.

Certified masses. A shift's exact ratios are ``r_i = exp(l_i - M)``, with
``l_i = log q - log p`` at pool point i and M their largest; the grid's are
``g_i = exp(l~_i - M~)`` from its own log ratios ``l~_i``. Each ``l~_i`` is
two reads, each within ``error`` of the exact log sum, so
``|l~_i - l_i| <= eps = 2 * error``, and ``g_i = c * exp(d_i) * r_i`` with
``|d_i| <= eps`` and one factor ``c = exp(M - M~)`` for every point, test
points included. At rank j, with A the prefix mass ``mass[j]`` and B the
suffix ``mass[n] - mass[j]``, the mass is ``(r + A) / (r + A + B)``. It
rises with r and A, falls with B, and is unchanged when all three are
multiplied by c. The grid's ``g``, ``A~`` and ``B~`` each lie within a
factor ``exp(+-eps)`` of c times the exact r, A and B, so, multiplying
through by ``exp(+-eps)``, the exact mass lies between
``1 / (1 + q E)`` and ``1 / (1 + q / E)``, with ``q = B~ / (g + A~)`` and
``E = exp(2 eps)``; the grid mass is ``1 / (1 + q)``. A point is decided
where the upper bound is under ``alpha * (1 - 1e-12)`` or the lower one is
at least ``alpha * (1 + 1e-12)``: margins far above the few roundings of a
bound (E itself is within a few ulps of ``exp(2 eps)``), as in
``_RankTable.screen``. Rounding is monotone, so the computed ``q E``, q and
``q / E`` keep their order, and the computed grid mass lies between the
computed bounds: where they decide, it falls on the side of alpha they
prove. Likewise ``A~ / (A~ + B~)`` is at most E times ``A / (A + B)``, so
the grid's table screened at ``alpha * E`` keeps every point the exact
rule's screen keeps.

Roundings of the masses. Both rules take ``exp`` of a difference under 746
in size, a prefix sum of n such ratios (within a relative ``n * 2**-53``
of its terms' sum) and a mass of a few roundings. A suffix is a difference
of two prefix sums, so its rounding is ``n * 2**-53`` of the total, not of
itself; but wherever a decision is near alpha (under 1/2), ``A < alpha *
mass[n]`` and the suffix holds over half the total, so it too is within a
relative ``4 n * 2**-53``. An ``exp`` that underflows to 0 loses under
``2**-1074``, against a suffix of at least 1/2 there. eps holds the grid's
slack, at least ``2**-39 * 10 * N``, some ten thousand times these
roundings, so the bounds hold as computed. The argument needs alpha under
1/2, so a rule with a larger alpha takes every mass exact.
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
_GRID_STEP = 0.0625

# Most nodes of a :class:`_LogGrid`. A support that needs more is over 1,000
# bandwidths wide, where the grid's bound is too loose to pay for its cost.
_GRID_MAX_NODES = 2 ** 14

# Largest ``|z| = |x - s| / h`` a kernel may see: ``-z**2 / 2`` stays finite,
# with room for the roundings of z.
_MAX_Z = 2.0 ** 511


def _block_rows(n_support: int) -> int:
    """Query rows per block for a support of ``n_support`` points (at least 1)."""
    return max(1, _BLOCK_BYTES // (8 * n_support))


def empirical_quantile(values: Sequence[float], level: float):
    """Empirical quantile with midpoint plotting positions.

    The k-th order statistic (1-based) sits at level (k - 0.5)/m and the
    quantile interpolates linearly between adjacent order statistics,
    clamping to the sample minimum/maximum outside that range. The same
    convention is shared by every quantile in this package so thresholds
    and shift anchors stay mutually consistent.

    The order statistics come out as ``sorted()`` would place them and the
    interpolation has the bits of the list-sorting formula on Python
    floats. A 2-D array gives each row's quantile, as an array, from one
    row-wise sort; a 1-D sample is its one-row case and gives a float. NaN
    or infinite values raise ``non_finite_values``.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty_values: quantile of an empty sample")
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level_out_of_range: {level}")
    rows = arr.reshape(-1, arr.shape[-1])
    # Only -0.0 and 0.0 compare equal with different bits; with a -0.0 in the
    # input, sort stably so the zeros keep their input order as in sorted().
    # The input is checked, not the sorted copy: the default (SIMD) sort may
    # write every zero back as +0.0.
    xs = np.sort(rows, axis=-1, kind="stable" if np.signbit(rows[rows == 0.0]).any() else None)
    # NaN sorts last and -inf first, so the ends show any non-finite value
    if not np.isfinite(xs[:, [0, -1]]).all():
        raise ValueError("non_finite_values: quantile of a sample with NaN or inf")
    m = xs.shape[-1]
    h = m * level + 0.5
    if h <= 1.0:
        q = xs[:, 0]
    elif h >= m:
        q = xs[:, -1]
    else:
        j = int(math.floor(h))
        lo = xs[:, j - 1]
        q = lo + (h - j) * (xs[:, j] - lo)
    return float(q[0]) if arr.ndim == 1 else q


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

    def to_pool(self, x: np.ndarray) -> np.ndarray:
        """The pool point whose density is the subgroup's at ``x``: ``scale * x + offset``.

        ``scale = sigma_p / sigma_q`` and ``offset = p_anchor - q_anchor * scale``
        map the subgroup's anchor to the pool's. No Jacobian factor is applied:
        weights are formed from normalized ratios, so constant factors cancel.
        """
        scale = self.sigma_p / self.sigma_q
        return scale * x + (self.p_anchor - self.q_anchor * scale)


@dataclass(frozen=True, eq=False)
class DensityModel:
    """Gaussian KDE of the pool.

    ``support_points`` is stored as a read-only float64 copy of whatever
    sequence is passed. ``bandwidth`` is the literal kernel width. scipy's
    gaussian_kde rescales its bandwidth by the sample deviation, which would
    silently change the smoothing as the pool changes.
    """

    support_points: np.ndarray
    bandwidth: float

    def __post_init__(self):
        support = np.array(self.support_points, dtype=np.float64)
        support.setflags(write=False)
        object.__setattr__(self, "support_points", support)
        if support.size == 0:
            raise ValueError("empty_support: KDE needs at least one point")
        check_bandwidth(self.bandwidth, float(support.max() - support.min()))

    def log_evaluate(self, x) -> np.ndarray:
        """Log density at ``x`` as an array of ``x``'s shape, finite at finite ``x``.

        The sum over support points is exact, not binned (:func:`_log_kernel_sums`).
        """
        arr = np.asarray(x, dtype=float)
        log_sums, _ = _log_kernel_sums(arr.ravel(), self.support_points, self.bandwidth)
        log_sums -= math.log(self.support_points.size * self.bandwidth * _GAUSS_NORM)
        return log_sums.reshape(arr.shape)


def check_bandwidth(bandwidth: float, reach: float) -> None:
    """Raise unless ``bandwidth`` is positive and finite, with finite kernels out to ``reach``.

    A kernel term's exponent ``-z**2 / 2``, ``z = (x - s) / h``, overflows
    once ``|z|`` passes about ``1.9e154``, and the log sum is then not a
    float. So ``reach / bandwidth`` (``reach`` the largest ``|x - s|``) may
    not exceed ``_MAX_Z``; a reach that is not finite comes from a point
    that is not, which no bandwidth mends. Codes: ``bandwidth_not_positive``
    (NaN included), ``bandwidth_not_finite``, ``bandwidth_too_small``.
    """
    if not bandwidth > 0:
        raise ValueError(f"bandwidth_not_positive: {bandwidth}")
    if not math.isfinite(bandwidth):
        raise ValueError(f"bandwidth_not_finite: {bandwidth}")
    if math.isfinite(reach) and reach / bandwidth > _MAX_Z:
        raise ValueError(f"bandwidth_too_small: {bandwidth} for points up to {reach:g} apart")


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
    accurate as a normal float's. Queries too far out for the bandwidth
    raise ``bandwidth_too_small`` (:func:`check_bandwidth`).
    """
    if query.size:
        check_bandwidth(bandwidth, max(float(query.max() - support.min()),
                                       float(support.max() - query.min())))
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


def mean_shift(pool_logs: Sequence[float], minority_logs: Sequence[float]) -> ShiftEstimate:
    """The shift anchored at the sample means, ``(x - mean_q) / sigma_q * sigma_p + mean_p``."""
    return _shift("mean", *_samples(pool_logs, minority_logs), None)


def check_quantile_alpha(alpha: float) -> None:
    """Raise ``alpha_out_of_range`` unless 0 < alpha < 0.5: the shift may anchor at 2 alpha."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha_out_of_range: {alpha}")


def quantile_shift(pool_logs: Sequence[float], minority_logs: Sequence[float],
                   alpha: float) -> ShiftEstimate:
    """The shift anchored at lower-tail quantiles instead of means.

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
    return _shift("quantile", *_samples(pool_logs, minority_logs), alpha)


def _spreads(pool: np.ndarray, minority: np.ndarray) -> tuple[float, float]:
    """``(sigma_p, sigma_q)``: each sample's standard deviation, at least ``SIGMA_FLOOR``."""
    return max(float(np.std(pool)), SIGMA_FLOOR), max(float(np.std(minority)), SIGMA_FLOOR)


def _shift(method: str, pool: np.ndarray, minority: np.ndarray, alpha: float | None,
           spreads: tuple[float, float] | None = None) -> ShiftEstimate:
    """:func:`mean_shift` or :func:`quantile_shift` of checked samples and their ``_spreads``."""
    spreads = spreads or _spreads(pool, minority)
    if method == "mean":
        return ShiftEstimate("mean", float(np.mean(minority)), float(np.mean(pool)), *spreads)
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
    return ShiftEstimate("quantile", q_anchor, p_anchor, *spreads, branch)


def _samples(pool_logs, minority_logs) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as float arrays; raises ``empty_pool`` or ``empty_minority``."""
    pool = np.asarray(pool_logs, dtype=float)
    minority = np.asarray(minority_logs, dtype=float)
    if pool.size == 0:
        raise ValueError("empty_pool")
    if minority.size == 0:
        raise ValueError("empty_minority")
    return pool, minority


def _log_ratios(log_density, shifts: Sequence[ShiftEstimate], x) -> list[np.ndarray]:
    """``log q - log p`` at the points ``x`` for each shift's q, p read through its map.

    ``log_density`` gives p's log density up to a constant (exact, or a
    grid's reads), and is called once, on ``x`` and every shift's
    :meth:`ShiftEstimate.to_pool` of it joined.
    """
    x = np.asarray(x, dtype=float)
    queries = [x, *(shift.to_pool(x) for shift in shifts)]
    log_p, *log_q = log_density(np.concatenate(queries)).reshape(len(queries), -1)
    return [log_sum - log_p for log_sum in log_q]


def _masses(table: _RankTable, j: np.ndarray, log_r: np.ndarray,
            factor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``1 / (1 + q * f)`` for f = ``factor``, 1 and ``1 / factor``: bounds and mass.

    ``q = B / (r + A)``, with ``r = exp(log_r)``, ``A = mass[j]`` and
    ``B = mass[n] - A``, so the middle one is the mass ``(r + A) / (r + A + B)``;
    from a grid's table and ratios, with ``factor = E``, the outer ones bound
    the exact rule's mass (see the module docstring). An overflowed r gives
    1, an underflowed one loses under ``2**-1074`` against a suffix of at
    least 1/2 (the only case where it could decide a flag), a bound under
    ``2**-1022`` may read 0, and a bound that cannot be computed
    (``0 * inf``, ``inf / inf``) is NaN, which decides nothing.
    """
    a = table.mass[j]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = (table.mass[-1] - a) / (np.exp(log_r) + a)
        return 1.0 / (1.0 + q * factor), 1.0 / (1.0 + q), 1.0 / (1.0 + q / factor)


def _grid_step(bandwidth: float) -> float:
    """``_GRID_STEP * bandwidth`` rounded down to a power of two."""
    return math.ldexp(1.0, math.frexp(_GRID_STEP * bandwidth)[1] - 1)


def _node_span(support: np.ndarray, bandwidth: float) -> tuple[int, int] | None:
    """Lattice indices ``(k_lo, k_hi)`` of ``support``'s grid nodes; None if it gets no grid.

    Node k sits at ``k * step``. The nodes cover ``[min - 8h, max + 8h]``
    of the support, unless they would not be exact floats or would number
    more than ``_GRID_MAX_NODES``.
    """
    h, step = float(bandwidth), _grid_step(bandwidth)
    s_min, s_max = float(support.min()), float(support.max())
    if not ((s_max - s_min + 16.0 * h) / step + 2.0 <= _GRID_MAX_NODES
            and max(-s_min, s_max) + 10.0 * h <= 2.0 ** 52 * step):
        return None
    return math.floor((s_min - 8.0 * h) / step), math.ceil((s_max + 8.0 * h) / step)


def _node_sums(points: np.ndarray, bandwidth: float, k_lo: int,
               k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_log_kernel_sums` of ``points``, with the moment, at nodes ``k_lo..k_hi``."""
    nodes = _grid_step(bandwidth) * np.arange(k_lo, k_hi + 1.0)
    return _log_kernel_sums(nodes, points, bandwidth, with_moment=True)


class _LogGrid:
    """A KDE's log kernel sum on evenly spaced nodes, read by cubic Hermite interpolation.

    ``log_sum`` holds ``log sum_i k_i`` (the KDE's log f up to the constant
    ``log(N h sqrt(2 pi))``, which cancels in every ratio) at the nodes
    ``lo + k * step`` covering ``[min - 8h, max + 8h]`` of the support. With
    the tangent, ``step`` times its slope ``-sum z k / (h sum k)``, they give
    ``cubic``, each cell's Hermite cubic in ``t = (x - node) / step``, which
    a read evaluates by Horner's rule. Sums and slopes come from
    :func:`_log_kernel_sums`, as the exact rule's log densities do. The step
    is ``_GRID_STEP * h`` rounded down to a power of two, so every node is an
    exact float, and the nodes of every grid of one bandwidth lie on one
    lattice, the whole multiples of the step.

    ``shared``, if given, is ``(k, log_sum, mean_z, rest)``: the
    :func:`_node_sums` of the support's other points from node k on, over
    every node of this grid, and the points ``rest``. Then only ``rest`` is
    summed, and the two sums ``S_a``, ``S_b`` (with mean z ``m_a``,
    ``m_b``) combine as ``log S = logaddexp(log S_a, log S_b)`` and
    ``m = m_a exp(log S_a - log S) + m_b exp(log S_b - log S)``.

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
    and the grid's saturate together). Combining shared sums adds a few
    units of ``2**-53`` times ``R**2 / 2 + log N`` to a node's log sum
    (``logaddexp`` of two such logs) and times ``R**3`` to its mean z (two
    weights, each off by its log sums' roundings, times means of size at
    most R). A cubic's coefficients are sums of three node values or
    slopes, and Horner's rule adds a few roundings of their size: terms of
    the kinds already counted. :attr:`error` adds to ``bound`` a slack of
    ``2**-40 * (R * (N + nodes) + R**3 + 1024)``, ``2**13`` units of
    ``2**-53`` times the sum of those sizes, far above the few dozen
    roundings of a few units each. (On 400 random supports of 2 to 300
    log10 scores, shared sums moved a node's log sum by at most ``1.4e-6``
    of the slack, and Horner's rule moved a read by at most ``2.2e-6`` of
    it from the factored Hermite form.)

    A read is usable wherever it lies inside the grid; :meth:`log_sums`
    takes an exact row of N terms for a read outside it. The grid is not
    built (``log_sum`` is None) when :func:`_node_span` gives no nodes.
    """

    def __init__(self, support: np.ndarray, bandwidth: float, shared: tuple | None = None):
        h = float(bandwidth)
        self.support, self.bandwidth = support, h
        s_min, s_max = float(support.min()), float(support.max())
        self.step = _grid_step(h)
        rho = self.step / h * ((s_max - s_min) / h)
        r = (s_max - s_min) / h + 10.0
        nodes = (s_max - s_min + 16.0 * h) / self.step + 2.0
        self.error = (rho * rho * rho * rho / 3072.0
                      + 2.0 ** -40 * (r * (support.size + nodes) + r * r * r + 1024.0))
        self.log_sum = None
        span = _node_span(support, h)
        if span is None:
            return
        self.lo = span[0] * self.step
        if shared:
            k, log_a, mean_a, rest = shared
            rows = slice(span[0] - k, span[1] - k + 1)
            log_a, mean_a = log_a[rows], mean_a[rows]
            log_b, mean_b = _node_sums(rest, h, *span)
            self.log_sum = np.logaddexp(log_a, log_b)
            mean_z = (mean_a * np.exp(log_a - self.log_sum)
                      + mean_b * np.exp(log_b - self.log_sum))
        else:
            self.log_sum, mean_z = _node_sums(support, h, *span)
        tangent = mean_z * (-self.step / h)
        rise = np.diff(self.log_sum)
        # cell k's cubic Hermite in t = (x - node_k) / step, lowest power first
        self.cubic = (self.log_sum[:-1], tangent[:-1],
                      3.0 * rise - 2.0 * tangent[:-1] - tangent[1:],
                      tangent[:-1] + tangent[1:] - 2.0 * rise)

    def read(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``log sum_i k_i`` at each of ``x``, and where that is within :attr:`error`.

        Only a built grid (``log_sum`` not None) is read.
        """
        cells = self.log_sum.size - 1
        pos = (x - self.lo) / self.step
        usable = (pos >= 0.0) & (pos <= cells)
        pos = np.where(usable, pos, 0.0)
        i = np.minimum(pos.astype(np.intp), cells - 1)
        t = pos - i
        c0, c1, c2, c3 = self.cubic
        y = c3[i]  # Horner's rule, in place
        y *= t
        y += c2[i]
        y *= t
        y += c1[i]
        y *= t
        y += c0[i]
        return y, usable

    def log_sums(self, x: np.ndarray) -> np.ndarray:
        """``log sum_i k_i`` at each of ``x``, within :attr:`error`: a read, or an exact row."""
        y, usable = self.read(x)
        if not usable.all():
            out = ~usable
            y[out] = _log_kernel_sums(x[out], self.support, self.bandwidth)[0]
        return y


class WeightedRule:
    """The weighted conformal rule of one calibration pool.

    ``minority`` masks the pool's minority points, and the scores go through
    log10 once if ``log_scale``. The rule keeps a read-only copy of the
    pool. p is the pool KDE, and the attribute ``shifts`` holds one
    :class:`ShiftEstimate` per name in the argument ``shifts`` ("mean" or
    "quantile"), whose q is p read through its map. Each shift has a
    weighted rank table of grid ratios (``_certified``) and, built only
    where some point takes the exact mass, one of exact ratios
    (``_exact``). Every table holds the pool sorted, so one rank serves
    them all.

    A shift's ratios are ``exp(log q - log p - M)``, M its largest at the
    pool: its calibration ratios lie in [0, 1] and total at least 1, and a
    test ratio beyond the range of floats is inf, of weighted mass 1.
    :meth:`p_values` and :meth:`flags` share one evaluator (see the module
    docstring).
    """

    # the node sums of the pool's majority points and its minority points
    # (``_LogGrid``'s ``shared``), when other pools share that majority
    _shared: tuple | None = None

    def __init__(self, pool, minority, bandwidth: float, alpha: float,
                 shifts: Sequence[str], log_scale: bool):
        self._pool = np.array(pool, dtype=float)
        self._pool.setflags(write=False)
        self.alpha = alpha
        self._to_eval = np.log10 if log_scale else np.asarray
        pool_eval = self._to_eval(self._pool)
        self.model_p = DensityModel(pool_eval, float(bandwidth))
        samples = _samples(pool_eval, pool_eval[minority])
        spreads = _spreads(*samples)  # once, for every shift
        self.shifts = [_shift(shift, *samples, alpha, spreads) for shift in shifts]

    @classmethod
    def _sharing(cls, pools: Sequence[np.ndarray], minorities: Sequence[np.ndarray],
                 bandwidth: float, alpha: float, shifts: Sequence[str],
                 log_scale: bool) -> list[WeightedRule]:
        """One rule per pool and minority mask, whose grids share one majority node sum.

        Each pool holds majority and minority points. The majority points of
        the first pool are summed once, at the nodes of every pool's grid
        (one lattice), and each pool whose majority points are those adds
        only its minority's sums (:class:`_LogGrid`).
        """
        rules = [cls(pool, minority, bandwidth, alpha, shifts, log_scale)
                 for pool, minority in zip(pools, minorities)]
        h = rules[0].model_p.bandwidth
        spans = [span for span in (_node_span(rule.model_p.support_points, h)
                                   for rule in rules) if span]
        if spans:
            majority = rules[0].model_p.support_points[~minorities[0]]
            k_lo = min(lo for lo, _ in spans)
            sums = _node_sums(majority, h, k_lo, max(hi for _, hi in spans))
            for rule, minority in zip(rules, minorities):
                support = rule.model_p.support_points
                if np.array_equal(support[~minority], majority):
                    rule._shared = (k_lo, *sums, support[minority])
        return rules

    def _tables(self, log_ratios: list[np.ndarray]) -> list[tuple[_RankTable, float]]:
        """Each shift's weighted table of ``exp(log_r - top)`` at the pool, and its top."""
        return [(_weighted_table(self._pool, np.exp(log_r - top)), top)
                for log_r in log_ratios for top in (log_r.max(),)]

    @cached_property
    def _exact(self) -> list[tuple[_RankTable, float]]:
        """The exact tables and tops: one exact log density, at the pool and its images."""
        return self._tables(_log_ratios(self.model_p.log_evaluate, self.shifts,
                                        self.model_p.support_points))

    def _p_values(self, values: np.ndarray, j: np.ndarray) -> list[np.ndarray]:
        """Each shift's exact mass at test scores ``values`` of ranks ``j``.

        The mass is ``table.p_values(j, exp(log_r))``, and its limit 1 where
        that ratio overflows.
        """
        masses = []
        for (table, top), log_r in zip(self._exact, _log_ratios(
                self.model_p.log_evaluate, self.shifts, self._to_eval(values))):
            with np.errstate(over="ignore"):
                ratios = np.exp(log_r - top)
            over = np.isinf(ratios)
            ratios[over] = 0.0
            masses.append(table.p_values(j, ratios))
            masses[-1][over] = 1.0
        return masses

    @cached_property
    def _grid(self) -> _LogGrid:
        """The pool KDE's log-density grid; each shift's q reads it through its map."""
        return _LogGrid(self.model_p.support_points, self.model_p.bandwidth, self._shared)

    @cached_property
    def _certified(self) -> list[tuple[_RankTable, float]] | None:
        """Each shift's grid table and top; None (exact masses) at alpha >= 1/2, with no
        grid, or where ``alpha * E >= 1`` lets the screen drop no point."""
        if self.alpha >= 0.5 or self._grid.log_sum is None or self.alpha * self._factor >= 1:
            return None
        return self._tables(_log_ratios(self._grid.log_sums, self.shifts,
                                        self.model_p.support_points))

    @cached_property
    def _factor(self) -> float:
        """``E = exp(2 eps)``, ``eps = 2 * error`` of the grid (see the module docstring)."""
        with np.errstate(over="ignore"):
            return float(np.exp(4.0 * self._grid.error))

    def _evaluate(self, values: np.ndarray, j: np.ndarray) -> list[np.ndarray]:
        """Each shift's mass at test scores ``values`` of ranks ``j``.

        The mass is the grid's where every shift's certified bounds decide
        ``mass < alpha``, and the exact one at a point some shift leaves
        open, or at every point if there are no certified tables.
        """
        if self._certified is None:
            return self._p_values(values, j)
        masses, open_ = [], np.zeros(j.shape, dtype=bool)
        for (table, top), log_r in zip(self._certified, _log_ratios(
                self._grid.log_sums, self.shifts, self._to_eval(values))):
            lo, p, hi = _masses(table, j, log_r - top, self._factor)
            open_ |= ~((hi < self.alpha * (1.0 - _SCREEN_SLACK))
                       | (lo >= self.alpha * (1.0 + _SCREEN_SLACK)))
            masses.append(p)
        open_ = np.flatnonzero(open_)
        if open_.size:
            for p, exact in zip(masses, self._p_values(values[open_], j[open_])):
                p[open_] = exact
        return masses

    def p_values(self, values) -> list[np.ndarray]:
        """Each shift's weighted mass at every test score, within the certified bounds."""
        values = np.asarray(values, dtype=float)
        return self._evaluate(values, (self._certified or self._exact)[0][0].ranks(values))

    def flags(self, values: np.ndarray) -> list[np.ndarray]:
        """Each shift's ``mass < alpha`` at test scores ``values``, equal to the exact rule's.

        The screen keeps every point that could be flagged: the certified
        tables' at ``alpha * E``, or the exact tables' at alpha if there are
        none. The others are unflagged under every shift, and the kept ones
        take their masses from :meth:`p_values`' evaluator.
        """
        tables, factor = ((self._certified, self._factor) if self._certified
                          else (self._exact, 1.0))
        j = tables[0][0].ranks(values)
        keep = np.zeros(j.shape, dtype=bool)
        for table, _ in tables:
            keep |= table.screen(j, self.alpha * factor)
        keep = np.flatnonzero(keep)
        out = [np.zeros(j.shape, dtype=bool) for _ in self.shifts]
        for flagged, p in zip(out, self._evaluate(values[keep], j[keep])):
            flagged[keep] = p < self.alpha
        return out
