"""False-positive rate and detection power with exclusion-aware averaging.

A *cell* is one measured condition: (method, null edit level, alternative
edit level, calibration size, writing-prompt replicate, seed). Cells whose
violation is negligible — outlier share under 5% of the test set or fewer
than 30 outliers outright — are excluded before any averaging, so neither
their power (meaningless on so few outliers) nor their FPR leaks into
reported means. Aggregation averages the per-prompt values unweighted,
then averages those per-seed values across seeds.

Suspects (violations with barely-changed text) never enter the FPR
denominator (they are not guideline followers) nor the power denominator
(they are not clear violations); their flag rate is kept as a separate
diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Iterable

MIN_OUTLIER_PROPORTION = 0.05
MIN_OUTLIER_COUNT = 30

# How seed-level metrics fold prompt cells; recorded in metrics.json.
AGG_PER_PROMPT_MEAN = "per_prompt_mean"


def is_excluded(n_outliers: int, outlier_proportion: float) -> bool:
    """Negligible-violation rule: too small a share, or too few outliers outright."""
    return outlier_proportion < MIN_OUTLIER_PROPORTION or n_outliers < MIN_OUTLIER_COUNT


@dataclass(frozen=True)
class CellResult:
    """Metrics for one measured condition."""

    null_prompt: int
    alt_prompt: int
    cal_size: int
    fpr: float
    power: float | None
    n_outliers: int
    outlier_proportion: float
    excluded: bool
    seed: int = 0
    prompt: int = 1  # writing-prompt replicate, not the edit level
    method: str = "standard"
    n_tests: int = 0  # alternative test-set size; the null set behind fpr is as large
    suspect_flag_rate: float | None = None  # diagnostic only

    def __post_init__(self):
        if not 1 <= self.null_prompt <= 6:
            raise ValueError(f"null_prompt_out_of_range: {self.null_prompt}")
        if not 2 <= self.alt_prompt <= 7:
            raise ValueError(f"alt_prompt_out_of_range: {self.alt_prompt}")
        if self.excluded and self.power is not None:
            raise ValueError("excluded_cell_with_power")
        if not self.excluded and self.power is None:
            raise ValueError("included_cell_missing_power")
        if self.excluded != is_excluded(self.n_outliers, self.outlier_proportion):
            raise ValueError("exclusion_flag_inconsistent")


@dataclass(frozen=True)
class AggregateRow:
    method: str
    null_prompt: int
    alt_prompt: int
    cal_size: int
    fpr: float
    power: float | None
    n_cells: int
    n_outliers_total: int
    # (seed, fpr, power) per seed, before the across-seed average; plot data
    by_seed: tuple[tuple[int, float, float], ...] = ()


@dataclass(frozen=True)
class OmittedPair:
    method: str
    null_prompt: int
    alt_prompt: int
    cal_size: int
    reason: str


@dataclass
class MetricsReport:
    cells: list[CellResult]
    seeds: list[int]
    rows: list[AggregateRow] = field(default_factory=list)
    omitted: list[OmittedPair] = field(default_factory=list)


_condition_key = attrgetter("method", "null_prompt", "alt_prompt", "cal_size")
_cell_sort_key = attrgetter(
    "method", "null_prompt", "alt_prompt", "cal_size", "seed", "prompt")


def aggregate(cells: Iterable[CellResult]) -> MetricsReport:
    """Fold cells into per-condition means.

    Exclusion happens first: excluded cells contribute to no mean. For each
    (method, null, alt, cal_size): per seed, average the surviving prompt
    cells unweighted, then average the per-seed values. Conditions whose
    cells are all excluded are omitted with reason ``negligible_violation``.
    """
    cells = sorted(cells, key=_cell_sort_key)
    rows: list[AggregateRow] = []
    omitted: list[OmittedPair] = []
    for (method, null_p, alt_p, size), condition in groupby(cells, key=_condition_key):
        kept = [c for c in condition if not c.excluded]
        if not kept:
            omitted.append(OmittedPair(method, null_p, alt_p, size, "negligible_violation"))
            continue
        by_seed = []
        for seed, seed_group in groupby(kept, key=attrgetter("seed")):
            seed_cells = list(seed_group)
            by_seed.append((seed, math.fsum(c.fpr for c in seed_cells) / len(seed_cells),
                            math.fsum(c.power for c in seed_cells) / len(seed_cells)))
        rows.append(
            AggregateRow(
                method=method,
                null_prompt=null_p,
                alt_prompt=alt_p,
                cal_size=size,
                fpr=math.fsum(fpr for _, fpr, _ in by_seed) / len(by_seed),
                power=math.fsum(power for _, _, power in by_seed) / len(by_seed),
                n_cells=len(kept),
                n_outliers_total=sum(c.n_outliers for c in kept),
                by_seed=tuple(by_seed),
            )
        )

    seeds = sorted({c.seed for c in cells})
    return MetricsReport(cells=cells, seeds=seeds, rows=rows, omitted=omitted)
