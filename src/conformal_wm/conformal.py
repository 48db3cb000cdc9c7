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
with ``w_test`` the test point's own ratio (weighted). Each rule has one
implementation, its batch function (``standard_p_values``,
``hierarchical_p_values``, ``weighted_p_values``), which ``detect``,
``simulate`` and the acceptance suite all call; the weighted one takes the
raw density ratios, on any common scale. An empty calibration raises
``empty_calibration`` (``empty_group_collection`` for the hierarchical
rule) instead of giving p = 1. :func:`weighted_candidates` is not a second
rule: it only marks the test points whose weighted mass could fall under
alpha for some own ratio, so a caller that needs flags alone can skip
computing the ratios of the others.

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
from typing import Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Batch p-values: one calibration set, many test scores, one rank kernel.
# ---------------------------------------------------------------------------


def _rank_p_values(sorted_cal: np.ndarray, mass: np.ndarray, test_values,
                   w_test=1.0) -> np.ndarray:
    """``min((w_test + mass[j]) / (w_test + mass[n]), 1)`` with ``j = #{s_i <= s}``.

    ``mass[j]`` is the calibration weight of the j smallest scores, so
    ``mass[0] == 0`` and ``mass`` has one entry more than ``sorted_cal``.
    """
    j = np.searchsorted(sorted_cal, np.asarray(test_values, dtype=float), side="right")
    return np.minimum((w_test + mass[j]) / (w_test + mass[-1]), 1.0)


def _calibration(cal_values) -> np.ndarray:
    """The calibration scores as floats; raises ``empty_calibration`` if there are none."""
    cal = np.asarray(cal_values, dtype=float)
    if cal.size == 0:
        raise ValueError("empty_calibration")
    return cal


def standard_p_values(cal_values: np.ndarray, test_values: np.ndarray) -> np.ndarray:
    """Standard p-values of many test scores against one calibration set."""
    cal = np.sort(_calibration(cal_values))
    return _rank_p_values(cal, np.arange(cal.size + 1.0), test_values)


def hierarchical_p_values(
    groups: Sequence[np.ndarray], test_values: np.ndarray
) -> np.ndarray:
    """Hierarchical p-values of many test scores against one grouped calibration.

    Walking up the pooled scores in sorted order, one group's count grows at
    each step, and ``mass[j]`` is ``fsum_k(count_k/n_k)`` after j steps; so
    every p-value equals ``(1 + fsum_k(count_k/n_k)) / (K + 1)`` bit for bit.
    """
    sizes = [np.size(g) for g in groups]
    if not sizes:
        raise ValueError("empty_group_collection")
    if 0 in sizes:
        raise ValueError("empty_group")
    cal = np.concatenate([np.asarray(g, dtype=float).ravel() for g in groups])
    order = np.argsort(cal, kind="stable")
    counts = [0] * len(sizes)
    fracs = [0.0] * len(sizes)
    mass = [0.0]
    for k in np.repeat(np.arange(len(sizes)), sizes)[order].tolist():
        counts[k] += 1
        fracs[k] = counts[k] / sizes[k]
        mass.append(math.fsum(fracs))
    return _rank_p_values(cal[order], np.array(mass), test_values)


def _weighted_mass(cal_values, cal_ratios,
                   test_ratios=()) -> tuple[np.ndarray, np.ndarray]:
    """Sorted calibration scores and the prefix sums of their ratios.

    An empty calibration raises ``empty_calibration``. Then the ratios are
    checked: a length that does not match the scores raises
    ``weight_length_mismatch``, then a non-finite calibration or test ratio
    ``density_underflow``, then a negative one ``negative_weight``.
    """
    cal = _calibration(cal_values)
    r_cal = np.asarray(cal_ratios, dtype=float)
    r_test = np.asarray(test_ratios, dtype=float)
    if r_cal.shape != cal.shape:
        raise ValueError(
            f"weight_length_mismatch: {r_cal.size} calibration weights for "
            f"{cal.size} calibration scores"
        )
    if not (np.isfinite(r_cal).all() and np.isfinite(r_test).all()):
        raise ValueError("density_underflow: non-finite importance ratio")
    if (r_cal < 0.0).any() or (r_test < 0.0).any():
        raise ValueError("negative_weight: importance ratios must be nonnegative")
    order = np.argsort(cal, kind="stable")
    return cal[order], np.concatenate([[0.0], np.cumsum(r_cal[order])])


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
    sorted_cal, mass = _weighted_mass(cal_values, cal_ratios, r_test)
    if (mass[-1] + r_test <= 0.0).any():
        raise ValueError("density_underflow: importance ratios sum to zero")
    return _rank_p_values(sorted_cal, mass, test_values, r_test)


# Relative margin of the weighted screen; far above the 3 roundings in p.
_SCREEN_SLACK = 1e-12


def weighted_candidates(
    cal_values: np.ndarray,
    cal_ratios: np.ndarray,
    test_values: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Test points the weighted rule could flag for some nonnegative own ratio.

    For a test ratio ``r >= 0`` the weighted mass is
    ``(r + mass[j]) / (r + mass[n])``, which never falls below
    ``mass[j] / mass[n]`` because ``mass[j] <= mass[n]``. A point with
    ``mass[j] / mass[n] >= alpha`` is therefore never flagged, whatever its
    density ratio, and its ratio need not be computed. The rule computes
    the mass with three roundings (two sums and a quotient, each exact or
    within a relative 2**-53), so the computed mass is at least
    ``mass[j] / mass[n] * (1 - 3 * 2**-53)``; a point is kept when
    ``mass[j] / mass[n] < alpha * (1 + 1e-12)``, a margin far above those
    roundings and the screen's own two. The screen divides rather than
    multiplying ``alpha * mass[n]``, which would lose its relative accuracy
    for a subnormal total. The slack can only add candidates: flags still
    come from :func:`weighted_p_values` alone. When ``mass[n]`` is not
    positive every point is a candidate, so the rule still raises
    ``density_underflow``. The calibration and its ratios are checked as in
    :func:`weighted_p_values`.
    """
    sorted_cal, mass = _weighted_mass(cal_values, cal_ratios)
    j = np.searchsorted(sorted_cal, np.asarray(test_values, dtype=float), side="right")
    if not mass[-1] > 0.0:
        return np.ones(j.shape, dtype=bool)
    return mass[j] / mass[-1] < alpha * (1.0 + _SCREEN_SLACK)
