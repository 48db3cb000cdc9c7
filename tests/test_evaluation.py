"""The negligible-violation rule and exclusion-aware averaging."""

import random

import pytest

from conformal_wm.evaluation import CellResult, aggregate, is_excluded


def make_cell(fpr=0.04, power=0.5, n_outliers=100, n_tests=1000, seed=1, prompt=1,
              null_prompt=1, alt_prompt=7, cal_size=30, method="standard",
              excluded=None, outlier_proportion=None):
    prop = n_outliers / n_tests if outlier_proportion is None else outlier_proportion
    exc = is_excluded(n_outliers, prop) if excluded is None else excluded
    return CellResult(
        null_prompt=null_prompt, alt_prompt=alt_prompt, cal_size=cal_size,
        fpr=fpr, power=None if exc else power, n_outliers=n_outliers,
        outlier_proportion=prop, excluded=exc, seed=seed, prompt=prompt,
        method=method, n_tests=n_tests)


class TestExclusionRule:
    def test_count_boundary(self):
        assert is_excluded(29, 0.10)
        assert not is_excluded(30, 0.10)

    def test_proportion_boundary(self):
        assert is_excluded(40, 0.049)
        assert not is_excluded(40, 0.05)

    def test_either_condition_excludes(self):
        assert is_excluded(29, 0.5)
        assert is_excluded(500, 0.01)

    def test_cell_invariants_enforced(self):
        with pytest.raises(ValueError, match="excluded_cell_with_power"):
            CellResult(null_prompt=1, alt_prompt=2, cal_size=30, fpr=0.05,
                       power=0.5, n_outliers=10, outlier_proportion=0.01,
                       excluded=True)
        with pytest.raises(ValueError, match="included_cell_missing_power"):
            CellResult(null_prompt=1, alt_prompt=2, cal_size=30, fpr=0.05,
                       power=None, n_outliers=100, outlier_proportion=0.2,
                       excluded=False)
        with pytest.raises(ValueError, match="exclusion_flag_inconsistent"):
            CellResult(null_prompt=1, alt_prompt=2, cal_size=30, fpr=0.05,
                       power=None, n_outliers=100, outlier_proportion=0.2,
                       excluded=True)


class TestAggregate:
    def test_identical_cells_mean_is_common_value(self):
        cells = [make_cell(fpr=0.03, power=0.7, seed=s) for s in (1, 2, 3)]
        report = aggregate(cells)
        (row,) = report.rows
        assert row.fpr == pytest.approx(0.03)
        assert row.power == pytest.approx(0.7)

    def test_two_prompts_average_unweighted(self):
        cells = [make_cell(fpr=0.04, prompt=1, n_tests=100, outlier_proportion=0.2),
                 make_cell(fpr=0.06, prompt=2, n_tests=10000, outlier_proportion=0.2)]
        (row,) = aggregate(cells).rows
        assert row.fpr == pytest.approx(0.05)

    def test_excluded_cells_never_enter_means(self):
        cells = [make_cell(fpr=0.04, power=0.6, prompt=1),
                 make_cell(fpr=0.90, prompt=2, n_outliers=29)]
        (row,) = aggregate(cells).rows
        assert row.fpr == pytest.approx(0.04)
        assert row.power == pytest.approx(0.6)
        assert row.n_cells == 1

    def test_count_29_excluded_regardless_of_proportion(self):
        cell = make_cell(n_outliers=29, n_tests=100)
        assert cell.excluded and cell.outlier_proportion > 0.05

    def test_all_excluded_pair_omitted_with_reason(self):
        cells = [make_cell(n_outliers=10, seed=s) for s in (1, 2)]
        report = aggregate(cells)
        assert report.rows == []
        (om,) = report.omitted
        assert om.reason == "negligible_violation"
        assert (om.null_prompt, om.alt_prompt) == (1, 7)

    def test_permutation_invariance(self):
        cells = [make_cell(fpr=0.01 * k, power=0.1 * (k % 9) + 0.05, seed=k % 3,
                           prompt=k % 2 + 1, alt_prompt=5 + (k % 2))
                 for k in range(1, 13)]
        base = aggregate(cells)
        rng = random.Random(5)
        for _ in range(5):
            shuffled = cells[:]
            rng.shuffle(shuffled)
            again = aggregate(shuffled)
            assert again.rows == base.rows
            assert again.omitted == base.omitted

    def test_seed_and_prompt_filters(self):
        cells = [make_cell(fpr=0.02, seed=1), make_cell(fpr=0.08, seed=2)]
        assert aggregate(cells).seeds == [1, 2]
