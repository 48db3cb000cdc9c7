"""Ground-truth labels separating clear violations from borderline ones.

A test essay that was edited outside the guideline is an *outlier* when the
edit changed it substantially: its similarity to the original must be both
(1) lower than the similarity the permitted edit would have produced, and
(2) below a low quantile of the reference similarity population. Every
other guideline-breaking essay is a *suspect*: a violation, but one whose
text barely moved. Essays edited within the guideline are inliers and are
tagged upstream; they never reach :func:`outlier_mask`.

The rule has one implementation, :func:`outlier_mask`, which labels a
whole array of violating edits at once, or rows of them against each
row's threshold; thresholds come from :func:`bleu_quantile_threshold`.
Labels exist only so simulated false-positive rates and detection power
can be measured against a defensible notion of "clear violation";
nothing here is computable for real submissions, where originals are
unavailable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .density import empirical_quantile


def bleu_quantile_threshold(bleu_values: Sequence[float], alpha: float):
    """Empirical alpha-quantile of a similarity population, or of each row of a 2-D array.

    Shares the interpolation convention of
    :func:`conformal_wm.density.empirical_quantile` so labeling thresholds
    and density-shift anchors never disagree about what a quantile is.
    """
    if len(bleu_values) == 0:
        raise ValueError("empty_bleu_values")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha_out_of_range: {alpha}")
    return empirical_quantile(bleu_values, alpha)


def outlier_mask(bleu_null: np.ndarray, bleu_alt: np.ndarray,
                 threshold: float) -> np.ndarray:
    """True where a violating edit is an outlier, False where it is a suspect.

    OUTLIER iff the permitted edit would have kept more of the text AND the
    violating edit fell below the population threshold. Both conditions are
    strict, so equality in either one falls back to suspect (fewer "clear
    violations", never more).
    """
    return (np.asarray(bleu_null) > np.asarray(bleu_alt)) & (
        np.asarray(bleu_alt) < threshold)
