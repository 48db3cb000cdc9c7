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

from .conformal import hierarchical_p_values, standard_p_values, weighted_p_values
from .density import WeightedRule
from .evaluation import MetricsReport
from .simulate import ExperimentConfig, ScoreDistribution, default_config, run_scenario

__all__ = [
    "standard_p_values", "hierarchical_p_values", "weighted_p_values", "WeightedRule",
    "ExperimentConfig", "ScoreDistribution", "default_config", "run_scenario",
    "MetricsReport", "__version__",
]
