"""Density estimation and importance weighting for shifted calibration pools.

The pooled calibration density is a Gaussian kernel density estimate (KDE)
over log10 watermark scores. The density of a small target subgroup is not
re-estimated from its handful of points; instead the pool KDE is queried
through an affine map whose anchors come either from sample means ("mean
shift") or from robust lower quantiles ("quantile shift"). The ratios q/p
of the two densities are the importance weights of the weighted conformal
rule, which normalizes them itself, so their common scale never matters.
:class:`WeightedRule` assembles the whole rule for one pool; ``detect``
builds one, and ``simulate`` one per pool of a (seed, prompt) task. It
works in log densities only, which stay finite however deep in a tail a
score lies.

``WeightedRule`` has one evaluator, which ``p_values`` (written by
``detect``) runs at every test score and ``flags`` (counted by
``simulate``) at the points its screen keeps. Each pool's KDE is one
:class:`DensityModel`, whose grid of log densities has a proven error
bound. The evaluator reads the grid at the pool as well as at the test
points, and takes from each test point's grid ratio its grid mass and two
bounds on the exact rule's mass. A point is open where some shift's bounds
straddle alpha; an open point, and every point where the grid cannot serve
(no grid, alpha at least 1/2, or a bound too loose to screen), gets the
exact mass from the same model's exact Gaussian sums.
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

from .conformal import _SCREEN_SLACK, _cutoff, _RankTable, _weighted_table

# Sample standard deviations below this are treated as degenerate (e.g. a
# constant minority sample) and floored so the affine map stays defined.
SIGMA_FLOOR = 1e-8

_GAUSS_NORM = math.sqrt(2.0 * math.pi)

# Bytes per (rows, N) buffer in _log_kernel_sums: with its chunk header
# under glibc's initial 128 KiB mmap threshold, so buffers reuse heap memory.
_BLOCK_BYTES = 128 * 1024 - 64

# Spacing of a :class:`DensityModel`'s grid nodes in bandwidths, before
# rounding down to a power of two.
_GRID_STEP = 0.0625

# Most nodes of a :class:`DensityModel`'s grid. A support that needs more is over
# 1,000 bandwidths wide, where the grid's bound is too loose to pay for its cost.
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
    """Anchors and spreads defining the pool-to-subgroup affine map of one pool."""

    method: str  # "mean" or "quantile"
    q_anchor: float
    p_anchor: float
    sigma_p: float
    sigma_q: float
    branch: str | None = None  # quantile method: "min", "2alpha" or "alpha"

    def __post_init__(self):
        for sigma in (self.sigma_p, self.sigma_q):
            if not sigma > 0:  # NaN included
                raise ValueError("sigma_not_positive")

    def to_pool(self, x: np.ndarray) -> np.ndarray:
        """The pool point whose density is the subgroup's at ``x``: ``scale * x + offset``.

        ``scale = sigma_p / sigma_q`` and ``offset = p_anchor - q_anchor * scale``
        map the subgroup's anchor to the pool's. No Jacobian factor is applied:
        weights are formed from normalized ratios, so constant factors cancel.
        """
        scale = self.sigma_p / self.sigma_q
        offset = self.p_anchor - self.q_anchor * scale
        return scale * x + offset


def check_bandwidth(bandwidth: float, reach: float) -> None:
    """Raise unless ``bandwidth`` is positive and finite, with finite kernels out to ``reach``.

    A kernel term's exponent ``-z**2 / 2``, ``z = (x - s) / h``, overflows
    once ``|z|`` passes about ``1.9e154``, and the log sum is then not a
    float. So ``reach / bandwidth`` (``reach`` the largest ``|x - s|``) may
    not exceed ``_MAX_Z``; a reach that is not finite comes from a point
    that is not, which no bandwidth mends. Codes: ``bandwidth_not_positive``
    (NaN included), ``bandwidth_not_finite`` (an int past the range of
    floats included), ``bandwidth_too_small``.
    """
    if not bandwidth > 0:
        raise ValueError(f"bandwidth_not_positive: {bandwidth}")
    if not math.isfinite(_as_float(bandwidth)):
        raise ValueError(f"bandwidth_not_finite: {bandwidth}")
    if math.isfinite(reach) and reach / bandwidth > _MAX_Z:
        raise ValueError(f"bandwidth_too_small: {bandwidth} for points up to {reach:g} apart")


def _as_float(value) -> float:
    """``float(value)``, or an infinity of its sign for an int past the range of floats."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _log_kernel_sums(query: np.ndarray, support: np.ndarray, bandwidth: float,
                     with_moment: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """``log sum_i k_i`` at each query, with ``k_i = exp(-z_i**2 / 2)``, ``z_i = (x - s_i) / h``.

    With ``with_moment`` the second array is ``sum_i z_i k_i / sum_i k_i``,
    else None. The queries go :func:`_block_rows` at a time through two
    (block, N) buffers of at most ``_BLOCK_BYTES`` each (one row if a row is
    larger), so memory does not grow with the number of queries. Each
    query's sum sees the operations of the dense
    ``exp(-0.5 * z * z).sum(axis=-1)`` in the same order, and so gets its
    bits. A sum below the smallest normal double is taken again with its
    largest exponent ``e`` factored out, as ``e + log sum_i (k_i / exp(e))``,
    so every log sum is finite and as accurate as a normal float's. Queries
    too far out for the bandwidth raise ``bandwidth_too_small``
    (:func:`check_bandwidth`).
    """
    if query.size:
        check_bandwidth(bandwidth, max(float(query.max() - support.min()),
                                       float(support.max() - query.min())))
    sums = np.empty(query.size)
    moments = np.empty(query.size) if with_moment else None
    block = max(1, min(_block_rows(support.size), query.size))
    z = np.empty((block, support.size))
    kern = np.empty((block, support.size))
    for start in range(0, query.size, block):
        part = query[start:start + block]
        zb, kb = z[:part.size], kern[:part.size]
        np.subtract(part[:, np.newaxis], support, out=zb)
        zb /= bandwidth
        np.multiply(zb, -0.5, out=kb)
        kb *= zb
        np.exp(kb, out=kb)
        kb.sum(axis=-1, out=sums[start:start + part.size])
        if with_moment:
            zb *= kb
            zb.sum(axis=-1, out=moments[start:start + part.size])
    low = np.flatnonzero(sums < np.finfo(float).tiny)
    tops = np.zeros(query.size)
    for start in range(0, low.size, block):
        idx = low[start:start + block]
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
           spreads: tuple | None = None) -> ShiftEstimate:
    """:func:`mean_shift` or :func:`quantile_shift` of checked samples, ``spreads`` their
    ``_spreads``."""
    sigma_p, sigma_q = spreads or _spreads(pool, minority)
    if method == "mean":
        q_anchor, p_anchor, branch = float(np.mean(minority)), float(np.mean(pool)), None
    else:
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
    return ShiftEstimate(method, q_anchor, p_anchor, sigma_p, sigma_q, branch)


def _samples(pool_logs, minority_logs) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as 1-D float arrays; raises ``empty_pool`` or ``empty_minority``."""
    pool = np.asarray(pool_logs, dtype=float).reshape(-1)
    minority = np.asarray(minority_logs, dtype=float).reshape(-1)
    if pool.size == 0:
        raise ValueError("empty_pool")
    if minority.size == 0:
        raise ValueError("empty_minority")
    return pool, minority


def _log_ratios(log_density, shifts: Sequence[ShiftEstimate], x) -> np.ndarray:
    """``log q - log p`` at the points ``x``, one row per shift's q, p read through its map.

    ``log_density`` gives p's log density up to a constant (exact, or a
    grid's reads), and is called once, on ``x`` and every shift's
    :meth:`ShiftEstimate.to_pool` of it joined.
    """
    x = np.asarray(x, dtype=float)
    queries = np.concatenate([x, *(shift.to_pool(x) for shift in shifts)])
    log_sums = log_density(queries).reshape(1 + len(shifts), -1)
    return log_sums[1:] - log_sums[0]


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


def _clamped_cell(pos: float, shift: int, low: int, high: int) -> int:
    """``floor(pos) + shift`` clamped to ``[low, high]``; +inf gives ``high``, -inf and NaN
    ``low``."""
    if not math.isfinite(pos):
        return high if pos > 0 else low
    return min(max(math.floor(pos) + shift, low), high)


class DensityModel:
    """Gaussian KDE of a pool: exact log densities, and a grid of them read by cubic Hermite
    interpolation.

    ``support_points`` is stored as a read-only float64 copy of whatever
    sequence is passed. ``bandwidth`` is the literal kernel width. scipy's
    gaussian_kde rescales its bandwidth by the sample deviation, which would
    silently change the smoothing as the pool changes.
    :meth:`log_evaluate` gives the exact log density; :meth:`cover`,
    :meth:`read` and :meth:`log_sums` serve the grid.

    The grid's node sums are ``log sum_i k_i`` (the KDE's log f up to the
    constant ``log(N h sqrt(2 pi))``, which cancels in every ratio) at nodes
    ``k * step``, for whole k in the span ``k_lo..k_lo + cells`` covering
    ``[min - 8h, max + 8h]`` of the support (:func:`_node_span`). With the
    tangent, ``step`` times its slope ``-sum z k / (h sum k)``, they give
    ``cubic``, each cell's Hermite cubic in ``t = (x - node) / step``, which
    a read evaluates by Horner's rule. Sums and slopes come from
    :func:`_log_kernel_sums`, as :meth:`log_evaluate`'s do. The step
    is ``_GRID_STEP * h`` rounded down to a power of two, so every node is an
    exact float, and the nodes of every grid of one bandwidth lie on one
    lattice, the whole multiples of the step.

    Nodes are built only where reads reach: :meth:`cover` grows one range
    of nodes over every cell a read of a given range can use. A node's sum,
    and so a cell's cubic, depends only on the node's lattice index and the
    support, and a read's cell and ``t`` only on the point and the span. So
    every read has the bits of a grid built over the whole span, whichever
    nodes were built, and over however many calls.

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
    and the grid's saturate together). A cubic's coefficients are sums of
    three node values or slopes, and Horner's rule adds a few roundings of
    their size: terms of the kinds already counted. The node count is the
    whole span's whatever nodes are built (a read's position is taken from
    the span's first node), so the argument covers any node range.
    :attr:`error` adds to ``bound`` a slack of
    ``2**-40 * (R * (N + nodes) + R**3 + 1024)``, ``2**13`` units of
    ``2**-53`` times the sum of those sizes, far above the few dozen
    roundings of a few units each. (On 400 random supports of 2 to 300
    log10 scores, Horner's rule moved a read by at most ``2.2e-6`` of it
    from the factored Hermite form.)

    A read is usable wherever it lies inside the span; :meth:`log_sums`
    takes an exact sum of N terms for a read outside it. A support that
    :func:`_node_span` gives no nodes (``has_grid`` False) is never built.
    """

    def __init__(self, support_points, bandwidth: float):
        support = np.array(support_points, dtype=np.float64)
        support.setflags(write=False)
        if support.size == 0:
            raise ValueError("empty_support: KDE needs at least one point")
        width = float(support.max() - support.min())
        check_bandwidth(bandwidth, width)
        h = float(bandwidth)
        self.support_points, self.bandwidth, self.step = support, h, _grid_step(h)
        rho = self.step / h * (width / h)
        r = width / h + 10.0
        span_nodes = (width + 16.0 * h) / self.step + 2.0
        self.error = (rho * rho * rho * rho / 3072.0
                      + 2.0 ** -40 * (r * (support.size + span_nodes) + r * r * r + 1024.0))
        span = _node_span(support, h)
        self.has_grid = span is not None
        self.k_lo, self.cells = (span[0], span[1] - span[0]) if span else (0, 0)
        self.lo = self.k_lo * self.step
        self.nodes = None  # lattice indices of the first and last node built

    def log_evaluate(self, x) -> np.ndarray:
        """Log density at ``x`` as an array of ``x``'s shape, finite at finite ``x``.

        The sum over support points is exact, not binned (:func:`_log_kernel_sums`).
        """
        arr = np.asarray(x, dtype=float)
        log_sums, _ = _log_kernel_sums(arr.ravel(), self.support_points, self.bandwidth)
        log_sums -= math.log(self.support_points.size * self.bandwidth * _GAUSS_NORM)
        return log_sums.reshape(arr.shape)

    def cover(self, x_lo: float, x_hi: float) -> None:
        """Build every node that a read at a point in ``[x_lo, x_hi]`` uses.

        With a cell more on each side, so ends that are off by a few
        roundings still cover every read; an empty range (``x_lo > x_hi``)
        needs none. The nodes grow to the union of what they were and what
        the range needs, summed again as a whole.
        """
        if not self.has_grid:
            return
        first = _clamped_cell((x_lo - self.lo) / self.step, -1, 0, self.cells - 1)
        last = _clamped_cell((x_hi - self.lo) / self.step, 2, 1, self.cells)
        if first >= last:
            return
        a, b = self.k_lo + first, self.k_lo + last
        if self.nodes is not None:
            a, b = min(a, self.nodes[0]), max(b, self.nodes[1])
            if (a, b) == self.nodes:
                return
        self.nodes = a, b
        log_sum, mean_z = _log_kernel_sums(self.step * np.arange(a, b + 1.0),
                                           self.support_points, self.bandwidth, True)
        tangent = mean_z * (-self.step / self.bandwidth)
        rise = np.diff(log_sum)
        # cell k's cubic Hermite in t = (x - node_k) / step, lowest power first
        self.cubic = (log_sum[:-1], tangent[:-1],
                      3.0 * rise - 2.0 * tangent[:-1] - tangent[1:],
                      tangent[:-1] + tangent[1:] - 2.0 * rise)

    def read(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``log sum_i k_i`` at each of ``x``, and where that is within :attr:`error`.

        Only a grid with nodes is read, at points :meth:`cover` has covered.
        """
        first = self.nodes[0] - self.k_lo
        pos = (x - self.lo) / self.step
        usable = (pos >= 0.0) & (pos <= self.cells)
        if not usable.all():  # a point outside reads a built cell
            pos = np.where(usable, pos, float(first))
        i = np.minimum(pos.astype(np.intp), self.cells - 1)
        t = pos - i
        i -= first
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
        """``log sum_i k_i`` at each of ``x``, within :attr:`error`: a read, or an exact sum."""
        y, usable = self.read(x)
        if not usable.all():
            out = np.flatnonzero(~usable)
            y[out] = _log_kernel_sums(x[out], self.support_points, self.bandwidth)[0]
        return y


def _finite_ends(lo, hi) -> tuple[float, float]:
    """The ends of a sample on the evaluation scale, as floats; ``non_finite_values`` unless
    both are finite. A NaN carries through a min and a max, and the scale rises, so the
    images of a sample's ends show whether all of it is finite there."""
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"non_finite_values: scores from {lo} to {hi} on the evaluation scale")
    return lo, hi


class WeightedRule:
    """The weighted conformal rule of one calibration pool.

    ``pool`` is a 1-D array of scores (else ``pool_not_one_dimensional``);
    ``minority`` is a boolean mask of its minority points, one entry per
    point (else ``minority_not_a_mask``). The scores go through log10 once
    if ``log_scale``, and pool and test scores alike must be finite on that
    scale (else ``non_finite_values``). The rule keeps a read-only copy of
    the pool. Its p is the pool's KDE, one :class:`DensityModel`, and it has
    one :class:`ShiftEstimate` per name in the argument ``shifts`` ("mean"
    or "quantile", else ``unknown_shift``; at least one, else
    ``no_shifts``), kept in the attribute ``shifts``, whose q is p read
    through its map. Each shift has a weighted rank table of grid ratios
    (certified) and, built only where some point takes the exact mass, one
    of exact ratios. Every table holds the pool sorted, so one rank serves
    them all.

    A shift's ratios are ``exp(log q - log p - M)``, M its largest at the
    pool: its calibration ratios lie in [0, 1] and total at least 1, and a
    test ratio beyond the range of floats is inf, of weighted mass 1.
    :meth:`p_values` and :meth:`flags` share one evaluator (see the module
    docstring).
    """

    def __init__(self, pool, minority, bandwidth: float, alpha: float,
                 shifts: Sequence[str], log_scale: bool):
        if not shifts:
            raise ValueError("no_shifts: name at least one shift")
        for name in shifts:
            if name not in ("mean", "quantile"):
                raise ValueError(f"unknown_shift: {name!r}, not 'mean' or 'quantile'")
        pool = np.array(pool, dtype=float)
        pool.setflags(write=False)
        if pool.ndim != 1:
            raise ValueError(f"pool_not_one_dimensional: a pool of shape {pool.shape}")
        if pool.size == 0:
            raise ValueError("empty_support: KDE needs at least one point")
        self._pool, self.alpha = pool, alpha
        self._to_eval = np.log10 if log_scale else np.asarray
        with np.errstate(divide="ignore", invalid="ignore"):
            evals = self._to_eval(pool)
        self._bounds = _finite_ends(evals.min(), evals.max())
        self._model = DensityModel(evals, bandwidth)
        minority = np.asarray(minority)
        if minority.dtype != bool or minority.shape != pool.shape:
            raise ValueError(f"minority_not_a_mask: want {pool.size} booleans, one per "
                             f"pool point; got {minority.dtype} of shape {minority.shape}")
        samples = _samples(evals, evals[minority])
        spreads = _spreads(*samples)  # once, for every shift
        self.shifts = [_shift(name, *samples, alpha, spreads) for name in shifts]

    @cached_property
    def _factor(self) -> float:
        """``E = exp(2 eps)``, ``eps = 2 * error`` (see the module docstring)."""
        with np.errstate(over="ignore"):
            return np.exp(4.0 * self._model.error)

    @cached_property
    def _certified(self) -> bool:
        """Whether the rule has certified tables: not at alpha >= 1/2, with no grid, or where
        ``alpha * E >= 1`` lets the screen drop no point."""
        return self.alpha < 0.5 and self._model.has_grid and self.alpha * self._factor < 1

    def _points(self, values) -> np.ndarray:
        """The test scores ``values`` as floats, checked; a certified rule's grid is first
        extended over the pool, the scores and their images."""
        values = np.asarray(values, dtype=float)
        lo, hi = self._bounds
        if values.size:
            with np.errstate(divide="ignore", invalid="ignore"):
                low, high = _finite_ends(self._to_eval(values.min()),
                                         self._to_eval(values.max()))
            lo, hi = min(lo, low), max(hi, high)
        if self._certified:
            # the maps rise with x, so the images of the ends bound every image
            ends = [lo, hi, *(shift.to_pool(end) for shift in self.shifts for end in (lo, hi))]
            self._model.cover(min(ends), max(ends))
        return values

    def _ratio_tables(self, log_density) -> list[tuple[_RankTable, float]]:
        """Each shift's table with its top, of the ratios ``log_density`` gives at the pool and
        its images."""
        log_r = _log_ratios(log_density, self.shifts, self._model.support_points)
        tops = log_r.max(axis=-1)
        table = _weighted_table(self._pool, np.exp(log_r - tops[:, np.newaxis]))
        return [(_RankTable(table.sorted_cal, mass), top) for mass, top in zip(table.mass, tops)]

    @cached_property
    def _exact(self) -> list[tuple[_RankTable, float]]:
        """Each shift's exact table with its top: one exact log density of the pool KDE."""
        return self._ratio_tables(self._model.log_evaluate)

    @cached_property
    def _tables(self) -> tuple[list[tuple[_RankTable, float]], float]:
        """Each shift's table with its top, and the screen's cutoff: the certified tables, of
        grid ratios, or the exact ones in a rule with none."""
        if not self._certified:
            return self._screened(self._exact, self.alpha)
        self._points(())
        return self._screened(self._ratio_tables(self._model.log_sums),
                              self.alpha * self._factor)

    @staticmethod
    def _screened(tables: list, level: float) -> tuple[list, float]:
        """``tables`` and the cutoff of their screen at ``level``.

        The screen keeps the ranks whose mass could fall under alpha under
        some shift: on the certified tables at ``alpha * E``, or on the
        exact ones at alpha. A table's masses never fall as the rank rises,
        and neither do their roundings, so the kept ranks are the k
        smallest, and the kept test scores those under one cutoff, as a
        rank rule's flags are (:meth:`_RankTable.cutoff`).
        """
        ranks = np.arange(tables[0][0].mass.size)
        keep = np.zeros(ranks.size, dtype=bool)
        for table, _ in tables:
            keep |= table.screen(ranks, level)
        return tables, _cutoff(tables[0][0].sorted_cal, int(np.count_nonzero(keep)))

    def _p_values(self, values: np.ndarray, j: np.ndarray) -> list[np.ndarray]:
        """Each shift's exact mass at test scores ``values`` of ranks ``j``.

        The mass is ``table.p_values(j, exp(log_r))``, and its limit 1 where
        that ratio overflows.
        """
        masses = []
        for (table, top), log_r in zip(self._exact, _log_ratios(
                self._model.log_evaluate, self.shifts, self._to_eval(values))):
            with np.errstate(over="ignore"):
                ratios = np.exp(log_r - top)
            over = np.isinf(ratios)
            ratios[over] = 0.0
            masses.append(table.p_values(j, ratios))
            masses[-1][over] = 1.0
        return masses

    def _evaluate(self, values: np.ndarray, j: np.ndarray) -> list[np.ndarray]:
        """Each shift's mass at test scores ``values`` of ranks ``j``.

        The mass is the grid's where every shift's certified bounds decide
        ``mass < alpha``, and the exact one at a point some shift leaves
        open, or at every point of a rule with no certified tables.
        """
        if not self._certified:
            return self._p_values(values, j)
        tables, _ = self._tables
        masses, open_ = [], np.zeros(j.shape, dtype=bool)
        for (table, top), log_r in zip(tables, _log_ratios(
                self._model.log_sums, self.shifts, self._to_eval(values))):
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
        values = self._points(values)
        tables, _ = self._tables
        return self._evaluate(values, tables[0][0].ranks(values))

    def flags(self, values) -> list[np.ndarray]:
        """Each shift's ``mass < alpha`` at test scores ``values``, equal to the exact rule's.

        The screen keeps every point that could be flagged: the certified
        tables' at ``alpha * E``, or the exact tables' at alpha in a rule
        with none, below one cutoff. The others are unflagged under every
        shift, and the kept ones take their masses from :meth:`p_values`'
        evaluator.
        """
        values = self._points(values)
        tables, cutoff = self._tables
        keep = np.flatnonzero(values < cutoff)
        kept = values[keep]
        out = [np.zeros(values.shape, dtype=bool) for _ in self.shifts]
        for flagged, p in zip(out, self._evaluate(kept, tables[0][0].ranks(kept))):
            flagged[keep] = p < self.alpha
        return out
