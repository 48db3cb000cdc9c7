"""Rank-based calibration p-values and flagging decisions.

Three decision rules over watermark detector scores, all distribution-free:

* standard: rank of the test score inside one exchangeable calibration set,
  ``(1 + #{s_i <= s}) / (n + 1)``;
* hierarchical: the calibration data comes in groups (e.g. one group per
  past assignment) and each group contributes its within-group fraction of
  scores at or below the test score,
  ``(1 + sum_k count_k/n_k) / (K + 1)``;
* weighted: calibration points carry importance ratios to absorb a known
  covariate shift; the test essay is flagged when the normalized weighted
  mass at or below its score falls strictly under alpha.

All three are one kernel. With ``j = #{s_i <= s}`` (a ``searchsorted`` on
the sorted calibration scores), each p-value is
``min((w_test + mass[j]) / (w_test + mass[n]), 1)``, where ``mass[j]`` is
the calibration weight carried by the j smallest scores. The rules differ
only in that table: ``mass[j] = j`` with ``w_test = 1`` (standard); the
exactly rounded sum ``fsum_k(count_k(j)/n_k)`` with ``w_test = 1``
(hierarchical), so group order never changes a bit and singleton groups
reproduce the standard p-value exactly; the prefix sums of the raw ratios
with ``w_test`` the test point's own ratio (weighted). Each rule builds its
table once (a private ``_RankTable``: ranks, p-values, the flag cutoff
and the weighted screen); its batch function (``standard_p_values``,
``hierarchical_p_values``, ``weighted_p_values``) is a thin wrapper around
it. The standard and hierarchical p-values depend on the test score only
through its rank, so their flags ``p <= alpha`` are exactly the scores
below one calibration score, the table's cutoff; ``simulate`` flags with
it. Same-size standard calibrations find theirs from one row-wise sort
(``standard_cutoffs``), and the hierarchical rule's walk up its pooled
scores stops once p passes alpha (``pooled_hierarchical_cutoff``).
:class:`conformal_wm.density.WeightedRule` holds the weighted tables, for
``detect`` and ``simulate`` alike. The weighted rule takes the
raw density ratios, on any common scale. An empty calibration raises
``empty_calibration`` (``empty_group_collection`` for the hierarchical
rule) instead of giving p = 1. The weighted screen is not a second rule:
it only marks the test points whose weighted mass could fall under alpha
for some own ratio, so a caller that needs flags alone can skip computing
the ratios of the others.

Flag inequalities differ on purpose: standard and hierarchical flag on
``p <= alpha`` while the weighted rule flags on ``weighted mass < alpha``.
The asymmetry is kept exactly as each guarantee is stated; the two can
disagree only when the mass equals alpha to the last bit.

Ties are counted by ``<=`` (no randomized tie-breaking), which can only
inflate p-values and therefore never costs validity. Comparisons are made
on raw scores: any strictly increasing transform (log10 included) leaves
every p-value untouched.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Rank tables: one calibration set, many test scores, one rank kernel.
# ---------------------------------------------------------------------------

# Relative margin of the weighted screen; far above the 3 roundings in p.
_SCREEN_SLACK = 1e-12


class _RankTable(NamedTuple):
    """One calibration set: ``mass[j]`` is the weight of its j smallest scores.

    So ``mass[0] == 0`` and ``mass`` has one entry more than ``sorted_cal``.
    """

    sorted_cal: np.ndarray
    mass: np.ndarray

    def ranks(self, test_values) -> np.ndarray:
        """``j = #{s_i <= s}`` for each test score."""
        return np.searchsorted(self.sorted_cal, np.asarray(test_values, dtype=float),
                               side="right")

    def p_values(self, j: np.ndarray, w_test=1.0) -> np.ndarray:
        """``min((w_test + mass[j]) / (w_test + mass[n]), 1)``; a zero total raises."""
        den = w_test + self.mass[-1]
        if np.any(den <= 0.0):
            raise ValueError("density_underflow: importance ratios sum to zero")
        return np.minimum((w_test + self.mass[j]) / den, 1.0)

    def cutoff(self, alpha: float) -> float:
        """The smallest score no longer flagged by ``p_values(ranks(s)) <= alpha``.

        With ``k = #{j : p_values(j) <= alpha}``, that is ``sorted_cal[k-1]``,
        or ``-inf`` when k = 0 and ``+inf`` when every rank flags. ``mass`` is
        nondecreasing and each rounding in :meth:`p_values` (a sum, a
        quotient, a minimum) is monotone, so p is nondecreasing in j and the
        flagged ranks are exactly ``j < k``. A score s has rank
        ``j = #{s_i <= s}``, and ``j < k`` holds exactly when fewer than k
        calibration scores are at or below s, that is when
        ``s < sorted_cal[k-1]``. So for every finite s, ``s < cutoff`` equals
        ``p_values(ranks(s)) <= alpha``, ties included: a score equal to
        ``sorted_cal[k-1]`` counts it in its rank and is not flagged.
        """
        return _cutoff(self.sorted_cal, self.flagged(alpha))

    def flagged(self, alpha: float) -> int:
        """k = #{j : p_values(j) <= alpha}; the flagged ranks are ``j < k``."""
        return int(np.count_nonzero(self.p_values(np.arange(self.mass.size)) <= alpha))

    def screen(self, j: np.ndarray, alpha: float) -> np.ndarray:
        """Ranks whose weighted mass could fall under alpha for some own ratio.

        For a test ratio ``r >= 0`` the weighted mass is
        ``(r + mass[j]) / (r + mass[n])``, which never falls below
        ``mass[j] / mass[n]`` because ``mass[j] <= mass[n]``. A point with
        ``mass[j] / mass[n] >= alpha`` is therefore never flagged, whatever
        its density ratio, and its ratio need not be computed. The rule
        computes the mass with three roundings (two sums and a quotient,
        each exact or within a relative 2**-53), so the computed mass is at
        least ``mass[j] / mass[n] * (1 - 3 * 2**-53)``; a rank is kept when
        ``mass[j] / mass[n] < alpha * (1 + 1e-12)``, a margin far above
        those roundings and the screen's own two. The slack can only add
        candidates: flags still come from :meth:`p_values` alone. ``mass[n]``
        must be positive; the weighted rule's is at least 1.
        """
        return self.mass[j] / self.mass[-1] < alpha * (1.0 + _SCREEN_SLACK)


def _cutoff(sorted_cal: np.ndarray, k: int) -> float:
    """The cutoff of a table whose ranks ``j < k`` flag (see :meth:`_RankTable.cutoff`)."""
    if k == 0:
        return -math.inf
    return math.inf if k > sorted_cal.size else float(sorted_cal[k - 1])


def _calibration(cal_values) -> np.ndarray:
    """The calibration scores as floats; raises ``empty_calibration`` if there are none."""
    cal = np.asarray(cal_values, dtype=float)
    if cal.size == 0:
        raise ValueError("empty_calibration")
    return cal


def _standard_table(cal_values) -> _RankTable:
    cal = np.sort(_calibration(cal_values))
    return _RankTable(cal, np.arange(cal.size + 1.0))


def _pooled(groups: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """The groups' scores joined, each as ``np.asarray(g, dtype=float)``, and their sizes."""
    return (np.concatenate([(), *groups], axis=None, dtype=float, casting="unsafe"),
            [np.size(g) for g in groups])


def _hierarchical_mass(scores: np.ndarray, sizes: list) -> tuple[np.ndarray, Iterator[float]]:
    """The sorted pooled scores, and ``mass[j] = fsum_k(count_k/n_k)`` for j = 1, 2, ...

    Group k's ``sizes[k]`` scores follow group k-1's in ``scores``. The masses
    are yielded one step up the sorted pooled scores at a time. A double
    ``count/n_k`` is 0 or at least ``2**-bitlen(n_k)``, so it is a whole
    multiple of ``2**-S`` with ``S = 52 + max_k bitlen(n_k)``. The total is
    kept exactly as an int at that scale, updated by ``new - old`` per step,
    and int/int true division rounds it as ``fsum`` does: O(n). An empty
    collection or group raises at the call, not at the first step.
    """
    if not sizes:
        raise ValueError("empty_group_collection")
    if 0 in sizes:
        raise ValueError("empty_group")
    order = np.argsort(scores, kind="stable")
    labels = np.repeat(np.arange(len(sizes)), sizes)[order].tolist()

    def steps() -> Iterator[float]:
        shift = 52 + max(sizes).bit_length()
        unit, scale = 2.0 ** shift, 1 << shift
        counts, ticks = [0] * len(sizes), [0] * len(sizes)
        total = 0
        for k in labels:
            counts[k] += 1
            tick = int(counts[k] / sizes[k] * unit)
            total += tick - ticks[k]
            ticks[k] = tick
            yield total / scale

    return scores[order], steps()


def _hierarchical_table(groups: Sequence[np.ndarray]) -> _RankTable:
    """The full table of :func:`_hierarchical_mass`, with ``mass[0] = 0``."""
    cal, steps = _hierarchical_mass(*_pooled(groups))
    return _RankTable(cal, np.array([0.0, *steps]))


def _weighted_table(cal_values, cal_ratios, test_ratios=()) -> _RankTable:
    """Sorted calibration scores and the prefix sums of their ratios.

    The ratios may hold several sets of weights of the calibration (their
    leading axes); then ``mass`` has those axes too, over one
    ``sorted_cal``. An empty calibration raises ``empty_calibration``. Then
    the ratios are checked: a last axis that does not match the scores
    raises ``weight_length_mismatch``, then a non-finite calibration or test
    ratio ``density_underflow``, then a negative one ``negative_weight``.
    """
    cal = _calibration(cal_values)
    r_cal = np.asarray(cal_ratios, dtype=float)
    if r_cal.shape[-1:] != cal.shape:
        raise ValueError(
            f"weight_length_mismatch: {r_cal.size} calibration weights for "
            f"{cal.size} calibration scores"
        )
    ratios = (r_cal, np.asarray(test_ratios, dtype=float))
    if not all(np.isfinite(r).all() for r in ratios):
        raise ValueError("density_underflow: non-finite importance ratio")
    if any((r < 0.0).any() for r in ratios):
        raise ValueError("negative_weight: importance ratios must be nonnegative")
    order = np.argsort(cal, kind="stable")
    sums = np.cumsum(r_cal[..., order], axis=-1)
    return _RankTable(cal[order], np.concatenate([np.zeros((*r_cal.shape[:-1], 1)), sums],
                                                 axis=-1))


def standard_p_values(cal_values: np.ndarray, test_values: np.ndarray) -> np.ndarray:
    """Standard p-values of many test scores against one calibration set."""
    table = _standard_table(cal_values)
    return table.p_values(table.ranks(test_values))


def standard_cutoffs(cal_rows: np.ndarray, alpha: float) -> list[float]:
    """Each row's :meth:`_RankTable.cutoff` as a standard calibration, from one row-wise sort.

    The standard rule flags exactly the finite test scores below it (none at
    ``-inf``). The standard masses are the ranks, so every row has the first
    row's count k of flagged ranks, and its cutoff is its k-th smallest score.
    """
    rows = np.sort(_calibration(cal_rows), axis=-1)
    k = _standard_table(rows[0]).flagged(alpha)
    return [_cutoff(row, k) for row in rows]


def pooled_hierarchical_cutoff(scores: np.ndarray, sizes: list, alpha: float) -> float:
    """``_hierarchical_table(groups).cutoff(alpha)`` of the groups joined in ``scores``.

    The hierarchical rule flags exactly the finite test scores below it.
    Group k holds the next ``sizes[k]`` float scores. p is nondecreasing in
    the rank (see :meth:`_RankTable.cutoff`), so the walk up the pooled
    scores stops at the first rank whose p exceeds alpha, without building
    the table. Each p equals the table's bit for bit: the masses come from
    the same running total, and the table's ``mass[n]`` is exactly K, since
    every group's fraction ends at 1, which also keeps p at most 1.
    """
    cal, steps = _hierarchical_mass(scores, sizes)
    den = 1.0 + len(sizes)
    k = 0
    for mass in chain((0.0,), steps):
        if (1.0 + mass) / den > alpha:
            break
        k += 1
    return _cutoff(cal, k)


def hierarchical_p_values(
    groups: Sequence[np.ndarray], test_values: np.ndarray
) -> np.ndarray:
    """Hierarchical p-values, each ``(1 + fsum_k(count_k/n_k)) / (K + 1)`` bit for bit."""
    table = _hierarchical_table(groups)
    return table.p_values(table.ranks(test_values))


def weighted_p_values(
    cal_values: np.ndarray,
    cal_ratios: np.ndarray,
    test_values: np.ndarray,
    test_ratios: np.ndarray,
) -> np.ndarray:
    """Weighted masses for many test points sharing one calibration set.

    ``cal_ratios``/``test_ratios`` are the raw (unnormalized) density ratios;
    ``mass`` holds their prefix sums in sorted order, and the test point's
    own ratio enters its denominator through ``w_test``. A negative ratio
    raises ``negative_weight``; a non-finite one, or a calibration total
    that vanishes together with the test ratio, ``density_underflow``.
    """
    r_test = np.asarray(test_ratios, dtype=float)
    table = _weighted_table(cal_values, cal_ratios, r_test)
    return table.p_values(table.ranks(test_values), r_test)

