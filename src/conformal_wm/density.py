"""Density estimation and importance weighting for shifted calibration pools.

The pooled calibration density is a Gaussian kernel density estimate (KDE)
over log10 watermark scores. The density of a small target subgroup is not
re-estimated from its handful of points; instead the pool KDE is queried
through an affine map whose anchors come either from sample means ("mean
shift") or from robust lower quantiles ("quantile shift"). The raw ratios
q/p of the two densities (:func:`density_ratios`) are the importance
weights of the weighted conformal rule, which normalizes them itself
(:func:`conformal_wm.conformal.weighted_p_values`), so their common scale
never matters. :class:`WeightedRule` assembles the whole rule for one
pool; ``detect`` and ``simulate`` both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conformal import _check_ratios, _weighted_table

# Floor applied to the pool density before ratios are formed, so a deep-tail
# query degrades to a huge-but-finite ratio instead of dividing by zero.
DENSITY_FLOOR = 1e-300

# Sample standard deviations below this are treated as degenerate (e.g. a
# constant minority sample) and floored so the affine map stays defined.
SIGMA_FLOOR = 1e-8

_GAUSS_NORM = math.sqrt(2.0 * math.pi)

# Bytes per (rows, N) buffer in DensityModel.evaluate: with its chunk header
# under glibc's initial 128 KiB mmap threshold, so buffers reuse heap memory.
_BLOCK_BYTES = 128 * 1024 - 64


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

    def evaluate(self, x):
        """Density at ``x``: a float for a scalar, else an array of ``x``'s shape.

        The sum over support points is exact, not binned. Queries are taken
        :func:`_block_rows` at a time through two (block, N) buffers of at
        most ``_BLOCK_BYTES`` each (one row if a row is larger), allocated
        per call, so memory does not grow with the number of queries. Each
        row sees the same operations in the same order as the dense form
        ``exp(-0.5 * z * z).sum(axis=-1)``, and so gets the same bits.
        """
        arr = np.asarray(x, dtype=float)
        query = (self.scale * arr + self.offset).ravel()
        support = self.support_points
        dens = np.empty(query.size)
        rows = max(1, min(_block_rows(support.size), query.size))
        z = np.empty((rows, support.size))
        kern = np.empty((rows, support.size))
        for start in range(0, query.size, rows):
            block = query[start:start + rows]
            zb, kb = z[:block.size], kern[:block.size]
            np.subtract(block[:, np.newaxis], support, out=zb)
            zb /= self.bandwidth
            np.multiply(zb, -0.5, out=kb)
            kb *= zb
            np.exp(kb, out=kb)
            kb.sum(axis=-1, out=dens[start:start + block.size])
        dens /= support.size * self.bandwidth * _GAUSS_NORM
        if arr.ndim == 0:
            return float(dens[0])
        return dens.reshape(arr.shape)


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
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha_out_of_range: {alpha}")
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


def density_ratios(
    model_p: DensityModel,
    models_q: Sequence[DensityModel],
    points,
) -> list[np.ndarray]:
    """Raw q/p ratios at the given points, one array per q-model.

    The pool density is evaluated once and floored, then shared by every
    q-model.
    """
    pts = np.asarray(points, dtype=float)
    p = np.maximum(np.asarray(model_p.evaluate(pts), dtype=float), DENSITY_FLOOR)
    return [np.asarray(model_q.evaluate(pts), dtype=float) / p for model_q in models_q]


class WeightedRule:
    """The weighted conformal rule of one calibration pool, assembled once.

    ``minority`` masks the pool's minority points, and the scores go through
    log10 once if ``log_scale``. p is the pool KDE, ``models_q`` holds one
    shifted model per name in ``shifts`` ("mean" or "quantile"), each with
    its :class:`ShiftEstimate`, and ``tables`` one weighted rank table per
    model. Every table holds the pool sorted, so one rank serves them all.
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
        self.tables = [_weighted_table(pool, r)
                       for r in density_ratios(self.model_p, self.models_q, pool_eval)]

    def ranks(self, values) -> np.ndarray:
        return self.tables[0].ranks(values)

    def _p_values(self, values: np.ndarray, j: np.ndarray) -> list[np.ndarray]:
        r_test = density_ratios(self.model_p, self.models_q, self._to_eval(values))
        _check_ratios(*r_test)
        return [table.p_values(j, r) for table, r in zip(self.tables, r_test)]

    def p_values(self, values) -> list[np.ndarray]:
        """Each model's weighted mass at every test score."""
        values = np.asarray(values, dtype=float)
        return self._p_values(values, self.ranks(values))

    def flags(self, values: np.ndarray, j: np.ndarray) -> list[np.ndarray]:
        """Each model's ``mass < alpha`` at test scores ``values`` of ranks ``j``.

        Densities are evaluated only at the points some table's screen keeps;
        the others are unflagged under every model, whatever their ratios.
        """
        cand = np.zeros(j.shape, dtype=bool)
        for table in self.tables:
            cand |= table.screen(j, self.alpha)
        out = []
        for p in self._p_values(values[cand], j[cand]):
            flagged = np.zeros(j.shape, dtype=bool)
            flagged[cand] = p < self.alpha
            out.append(flagged)
        return out
