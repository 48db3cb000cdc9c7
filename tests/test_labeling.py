"""Outlier/suspect labeling rules."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conformal_wm.labeling import bleu_quantile_threshold, outlier_mask

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
# a few shared values make equal similarities (the strict-inequality cases) common
tie_prone_unit = st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]) | unit


def is_outlier(bleu_null, bleu_alt, threshold):
    """The outlier rule for one edit, as stated: the oracle for outlier_mask."""
    return bleu_null > bleu_alt and bleu_alt < threshold


class TestThreshold:
    def test_interpolates_between_order_statistics(self):
        xs = [i / 100 for i in range(1, 101)]
        t = bleu_quantile_threshold(xs, 0.05)
        assert xs[4] < t < xs[5]
        assert t == pytest.approx(np.quantile(xs, 0.05, method="hazen"), abs=1e-12)

    def test_constant_population(self):
        assert bleu_quantile_threshold([0.42] * 9, 0.05) == 0.42

    def test_tiny_alpha_approaches_minimum(self):
        assert bleu_quantile_threshold([0.9, 0.2, 0.7], 1e-12) == 0.2

    def test_rejects_empty_and_bad_alpha(self):
        with pytest.raises(ValueError, match="empty_bleu_values"):
            bleu_quantile_threshold([], 0.05)
        with pytest.raises(ValueError, match="alpha_out_of_range"):
            bleu_quantile_threshold([0.5], 0.0)


class TestClassify:
    def test_substantial_edit_below_threshold_is_outlier(self):
        assert outlier_mask(0.9, 0.3, 0.5)

    def test_violating_edit_more_similar_is_suspect(self):
        assert not outlier_mask(0.9, 0.95, 0.5)

    def test_above_threshold_is_suspect(self):
        assert not outlier_mask(0.9, 0.6, 0.5)

    def test_equality_falls_to_suspect(self):
        assert not outlier_mask(0.5, 0.5, 0.9)
        assert not outlier_mask(0.9, 0.5, 0.5)

    @given(pairs=st.lists(st.tuples(unit, unit), max_size=10), threshold=unit)
    def test_partition_never_inlier(self, pairs, threshold):
        # every violating edit gets exactly one of the two labels
        mask = outlier_mask(np.array([n for n, _ in pairs]),
                            np.array([a for _, a in pairs]), threshold)
        assert mask.dtype == bool and mask.shape == (len(pairs),)

    @given(bleu_null=unit, bleu_alt=unit, t1=unit, t2=unit)
    def test_outlier_set_monotone_in_threshold(self, bleu_null, bleu_alt, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        if outlier_mask(bleu_null, bleu_alt, lo):
            assert outlier_mask(bleu_null, bleu_alt, hi)

    @given(bleu_null=unit, bleu_alt=unit, threshold=unit)
    def test_deterministic(self, bleu_null, bleu_alt, threshold):
        assert outlier_mask(bleu_null, bleu_alt, threshold) == \
            outlier_mask(bleu_null, bleu_alt, threshold)

    @given(pairs=st.lists(st.tuples(tie_prone_unit, tie_prone_unit), max_size=20),
           threshold=tie_prone_unit)
    @example(pairs=[(0.9, 0.3)], threshold=0.5)
    @example(pairs=[(0.9, 0.95)], threshold=0.5)
    @example(pairs=[(0.9, 0.6)], threshold=0.5)
    @example(pairs=[(0.5, 0.5), (0.9, 0.5)], threshold=0.5)
    @example(pairs=[(0.5, 0.5)], threshold=0.9)
    def test_mask_matches_scalar_rule(self, pairs, threshold):
        bleu_null = np.array([n for n, _ in pairs])
        bleu_alt = np.array([a for _, a in pairs])
        mask = outlier_mask(bleu_null, bleu_alt, threshold)
        assert mask.tolist() == [is_outlier(n, a, threshold) for n, a in pairs]
