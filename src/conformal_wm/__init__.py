"""Watermark-score auditing with distribution-free false-positive control.

Given watermark detector p-values for student submissions and a
calibration set of scores from guideline-following essays, this package
decides which submissions carry statistically stronger AI-edit signals
than the permitted editing level can explain, while keeping the
false-positive rate at a chosen significance level. Three decision rules
cover flat calibration pools, grouped historical data, and shifted
minority subgroups; a simulation harness measures their error rates and
detection power end to end on synthetic scores.
"""

# Set before the submodules load: io reads it for run manifests, and
# pyproject.toml reads it as the package version.
__version__ = "0.1.0"

from .bleu import BleuScore, TokenizedText, bleu, bleu_of_texts, tokenize
from .conformal import (
    CalibrationSet,
    Decision,
    GroupedCalibrationSet,
    WatermarkScore,
    hierarchical_conformal_p,
    hierarchical_decision,
    standard_conformal_p,
    standard_decision,
    weighted_conformal_decision,
)
from .density import (
    DensityModel,
    ShiftEstimate,
    density_ratios,
    empirical_quantile,
    fit_kde,
    mean_shift,
    quantile_shift,
)
from .evaluation import (
    AggregateRow,
    CellResult,
    MetricsReport,
    aggregate,
    is_excluded,
)
from .labeling import bleu_quantile_threshold, outlier_mask
from .simulate import (
    ExperimentConfig,
    ScoreDistribution,
    default_config,
    generate_scores,
    run_scenario,
)

__all__ = [
    "BleuScore", "TokenizedText", "bleu", "bleu_of_texts", "tokenize",
    "CalibrationSet", "Decision", "GroupedCalibrationSet", "WatermarkScore",
    "hierarchical_conformal_p", "hierarchical_decision", "standard_conformal_p",
    "standard_decision", "weighted_conformal_decision",
    "DensityModel", "ShiftEstimate", "density_ratios", "empirical_quantile",
    "fit_kde", "mean_shift", "quantile_shift",
    "AggregateRow", "CellResult", "MetricsReport", "aggregate", "is_excluded",
    "bleu_quantile_threshold", "outlier_mask",
    "ExperimentConfig", "ScoreDistribution", "default_config", "generate_scores",
    "run_scenario",
    "__version__",
]
