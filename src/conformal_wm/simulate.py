"""Synthetic score generation and end-to-end experiment driver.

Instead of real essays, the harness draws watermark scores from configured
score distributions: one per (population, edit intensity) pair, where
intensity 1..7 runs from light grammar fixing to full rewriting and higher
intensity pushes scores stochastically lower. Edit similarities are drawn
from per-intensity surrogate distributions so violating essays can be
split into outliers and suspects exactly as a real pipeline would.

Three scenario shapes are supported:

* ``standard``   — one exchangeable calibration pool;
* ``hierarchical`` — calibration grouped by assignment, each group carrying
  its own random offset; test essays come from fresh groups;
* ``weighted``   — a majority pool plus a small shifted minority subgroup,
  evaluated with minority-only, pooled-unweighted, and two importance-
  weighted decision rules side by side.

One driver runs every scenario's grid of levels x calibrations x seeds, one
(seed, prompt) task at a time and each task in one array pass: its test
sets are drawn as the rows of one array, with each family's elementwise
finish applied once over them, and labeled from one row-wise quantile; its
calibrations are drawn into one flat array the same way. A scenario
supplies only the row drawer and a calibration pass whose flagger compares
the task's rows with all of their null level's calibrations at once. The
standard and hierarchical rules, and the minority-only and
pooled-unweighted ones of the weighted scenario, flag exactly the test
scores below one calibration score, so all four flag through one cutoff
flagger and rank nothing. Each pool's weighted rules are one rule, which
ranks only the test scores below its screen's cutoff.
Every flag ignores the order of the test scores, so no row is sorted.

All randomness is derived from counter-style substreams, each keyed by
``SeedSequence`` on (seed, prompt, levels, size, stream role), so results
are bit-identical across runs and across worker thread counts. A run seeds
every substream of a seed before any task runs, and ``validate`` its
dominance probes, each in one ``seeding.seed_states`` pass over the keys'
uint32 words: the PCG64 seeds ``SeedSequence`` would give, for any seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import Mapping

import numpy as np

from .conformal import pooled_hierarchical_cutoff, standard_cutoffs
from .density import (SIGMA_FLOOR, WeightedRule, _as_float, check_bandwidth,
                      check_quantile_alpha)
from .evaluation import CellResult, MetricsReport, aggregate, is_excluded
from .labeling import bleu_quantile_threshold, outlier_mask

# the parameters each family takes; a mixture component's keys
FAMILIES = {"uniform01": (), "logit_normal": ("mu", "sigma"), "beta": ("a", "b"),
            "mixture": ("components",)}
_COMPONENT_KEYS = ("family", "weight", "params")
SCENARIOS = ("standard", "hierarchical", "weighted")

_ENTROPY_BASE = 20260808
# Stream roles, so each kind of draw has its own substream.
_STREAMS = {
    "cal": 1,
    "cal_effects": 2,
    "null_test": 3,
    "alt_test": 4,
    "bleu_null": 5,
    "bleu_alt": 6,
    "null_test_effects": 7,
    "alt_test_effects": 8,
    "minority_cal": 9,
}

_TINY = 1e-300
_DOMINANCE_PROBE_N = 4000  # draws per (population, level) in the dominance check
# Most bytes that ExperimentConfig.validate() lets one array of a run take
_MAX_ARRAY_BYTES = 2 ** 31


@dataclass(frozen=True)
class ScoreDistribution:
    """A sampling family for watermark scores in (0, 1]."""

    family: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        """Checks each parameter's name and type, and a mixture's components, not ranges."""
        if self.family not in FAMILIES:
            raise ValueError(f"unknown_family: {self.family}")
        for name, value in _mapping(self.params, f"params of {self.family}").items():
            if name not in FAMILIES[self.family]:
                raise ValueError(f"invalid_params: {self.family} takes no parameter {name!r}")
            if name != "components":
                _number(name, value)
        if self.family != "mixture":
            return
        comps = self.params.get("components")
        if not isinstance(comps, (list, tuple)) or not comps:
            raise ValueError("invalid_params: mixture needs a list of components")
        for comp in comps:
            for key in _mapping(comp, "a mixture component"):
                if key not in _COMPONENT_KEYS:
                    raise ValueError(f"invalid_params: a mixture component takes no key {key!r}")
            if "family" not in comp:
                raise ValueError(f"invalid_params: mixture component {comp!r} needs a family")
            _number("weight", comp.get("weight"))
            ScoreDistribution(comp["family"], comp.get("params", {}))


def _mapping(value, name: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"invalid_config_shape: {name} must be an object, "
                         f"not {type(value).__name__}")
    return value


# Accepted values of a config field, by the type of its default (or of the
# default's items); a bool is neither an int nor a float here.
_KINDS = {bool: bool, str: str, int: numbers.Integral, float: numbers.Real}


def _expit(x: np.ndarray) -> np.ndarray:
    # Stable logistic: exp only sees -|x|, so it never overflows.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0, e) / d


def _into_unit(x: np.ndarray) -> np.ndarray:
    # np.clip(x, _TINY, 1.0)'s bits without its wrapper's cost
    return np.minimum(np.maximum(x, _TINY), 1.0)


def _logit(v: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(v) - np.log1p(-v)


def logit_shift(values: np.ndarray, delta) -> np.ndarray:
    """Shift scores by ``delta`` on the log-odds scale, staying inside (0, 1].

    A zero shift returns the input bit-identically (the logistic round trip
    is not float-exact, so it is short-circuited).
    """
    vals = np.asarray(values, dtype=float)
    delta_arr = np.broadcast_to(np.asarray(delta, dtype=float), vals.shape)
    shifted = _into_unit(_expit(_logit(vals) + delta_arr))
    return np.where(delta_arr == 0.0, vals, shifted)


def _number(name: str, value) -> None:
    """Raises ``invalid_params`` unless ``value`` is a number; a bool or a string is not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"invalid_params: {name}={value!r} is not a number")


def _draw(dist: ScoreDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` scores of ``dist`` as its stream draws them, before its family's ``_FINISH``."""
    if n < 1:
        raise ValueError(f"sample_size_not_positive: {n}")
    fam, p = dist.family, dist.params
    if fam == "uniform01":
        return 1.0 - rng.random(n)  # (0, 1]
    if fam == "logit_normal":
        mu = _as_float(p.get("mu", 0.0))
        sigma = _as_float(p.get("sigma", 1.0))
        if not (math.isfinite(mu) and 0 < sigma < math.inf):
            raise ValueError(f"invalid_params: mu={mu}, sigma={sigma}")
        return rng.normal(mu, sigma, n)
    if fam == "beta":
        a = _as_float(p.get("a", 1.0))
        b = _as_float(p.get("b", 1.0))
        if not (0 < a < math.inf and 0 < b < math.inf):
            raise ValueError(f"invalid_params: a={a}, b={b}")
        return rng.beta(a, b, n)
    if fam == "mixture":
        comps = p["components"]
        weights = np.array([_as_float(c["weight"]) for c in comps])
        with np.errstate(over="ignore"):  # a sum past the largest float is inf, and rejected
            total = weights.sum()
        if not ((weights > 0).all() and total < math.inf):
            raise ValueError("invalid_params: mixture weights must be positive, with a finite sum")
        weights = weights / total
        idx = rng.choice(len(comps), size=n, p=weights)
        out = np.empty(n, dtype=float)
        for j, comp in enumerate(comps):
            mask = idx == j
            if mask.any():
                sub = ScoreDistribution(comp["family"], comp.get("params", {}))
                out[mask] = _sample_values(sub, int(mask.sum()), rng)
        return out
    raise ValueError(f"unknown_family: {fam}")


# The elementwise finish of a family's draws; uniform01 and mixture ones need none.
_FINISH = {"logit_normal": lambda x: _into_unit(_expit(x)), "beta": _into_unit}


def _sample_joined(draws) -> np.ndarray:
    """The scores of each ``(dist, n, rng)`` draw, joined in one array.

    Each stream draws as it would alone, and each family's elementwise
    finish then runs once over all of its draws' values.
    """
    values = np.concatenate([_draw(*draw) for draw in draws])
    families = [dist.family for dist, _, _ in draws]
    for family in set(families) & _FINISH.keys():
        if len(set(families)) == 1:
            values = _FINISH[family](values)
        else:
            mine = np.repeat([f == family for f in families], [n for _, n, _ in draws])
            values[mine] = _FINISH[family](values[mine])
    return values


def _sample_values(dist: ScoreDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    return _sample_joined([(dist, n, rng)])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything :func:`run_scenario` needs; JSON-serializable via io helpers.

    When ``distributions`` is empty, a default ladder is used: logit-normal
    scores whose log-odds mean drops by one unit per intensity step, with
    the minority population shifted ``minority_logit_shift`` further down.
    """

    scenario: str = "standard"
    alpha: float = 0.05
    cal_sizes: tuple[int, ...] = (30, 50, 200)
    minority_sizes: tuple[int, ...] = (5, 15, 30)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    n_test: int = 1000
    # Seed-level metrics average over the prompt replicates; at n_cal = 30
    # the calibration-conditional FPR has sd ~ 0.03, so five replicates keep
    # per-seed FPR readings within ~0.03 of the nominal level.
    n_prompts: int = 5
    null_levels: tuple[int, ...] = (1, 4, 6)
    max_level: int = 7
    bandwidth: float = 0.5
    log_scale: bool = True
    # Grouped p-values live on [1/(K+1), 1], so K must be at least
    # 1/alpha - 1 before anything can be flagged; the default keeps groups small.
    k_groups: int = 50
    group_sigma: float = 0.5
    majority_cal_size: int = 200
    intensity_logit_means: tuple[float, ...] = (0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0)
    intensity_logit_sigma: float = 1.5
    minority_logit_shift: float = -2.0
    bleu_means: tuple[float, ...] = (0.96, 0.90, 0.84, 0.78, 0.70, 0.60, 0.25)
    bleu_concentration: float = 40.0
    outlier_threshold_population: str = "null"  # "null" or "alt"
    distributions: Mapping[tuple[str, int], ScoreDistribution] = field(default_factory=dict)

    @cached_property
    def _resolved(self) -> dict[tuple[str, int], ScoreDistribution]:
        # the default ladder is added lazily; threads may race to add equal values
        return dict(self.distributions)

    def distribution_for(self, population: str, intensity: int) -> ScoreDistribution:
        resolved, key = self._resolved, (population, intensity)
        if key not in resolved:
            mu = self.intensity_logit_means[intensity - 1]
            if population == "minority":
                mu += self.minority_logit_shift
            resolved[key] = ScoreDistribution(
                family="logit_normal",
                params={"mu": mu, "sigma": self.intensity_logit_sigma},
            )
        return resolved[key]

    def alt_levels(self, null_level: int) -> tuple[int, ...]:
        return tuple(a for a in range(2, self.max_level + 1) if a > null_level)

    def populations(self) -> tuple[str, ...]:
        return ("majority", "minority") if self.scenario == "weighted" else ("majority",)

    def validate(self) -> None:
        for f in fields(self):
            if f.name == "distributions":
                continue
            value, many = getattr(self, f.name), isinstance(f.default, tuple)
            kind = _KINDS[type(f.default[0] if many else f.default)]
            if not all(isinstance(v, kind) and (kind is bool or not isinstance(v, bool))
                       for v in (value if many else (value,))):
                raise ValueError(f"invalid_type: {f.name}={value!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown_scenario: {self.scenario}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha_out_of_range: {self.alpha}")
        if self.scenario == "weighted":  # every pool also fits the quantile shift
            check_quantile_alpha(self.alpha)
        for name, sizes in (("cal_sizes", self.cal_sizes),
                            ("minority_sizes", self.minority_sizes)):
            if not sizes or any(int(s) < 1 for s in sizes):
                raise ValueError(f"invalid_sizes: {name}={sizes}")
        if not self.seeds or any(int(s) < 0 for s in self.seeds):
            raise ValueError(f"invalid_seeds: {self.seeds}")
        if not self.null_levels:
            raise ValueError("empty_null_levels")
        for name in ("seeds", "null_levels", "cal_sizes", "minority_sizes"):
            values = getattr(self, name)
            if len(set(values)) < len(values):  # its cells would run and count twice
                raise ValueError(f"repeated_entries: {name}={values}")
        if min(self.n_test, self.n_prompts, self.k_groups, self.majority_cal_size) < 1:
            raise ValueError("invalid_counts")
        if not 2 <= self.max_level <= 7:
            raise ValueError(f"max_level_out_of_range: {self.max_level}")
        for lvl in self.null_levels:
            if not 1 <= lvl < self.max_level:
                raise ValueError(f"null_level_out_of_range: {lvl}")
        if len(self.intensity_logit_means) < self.max_level:
            raise ValueError("intensity_logit_means_too_short")
        if len(self.bleu_means) < self.max_level:
            raise ValueError("bleu_means_too_short")
        if any(not 0.0 < b < 1.0 for b in self.bleu_means):
            raise ValueError("bleu_means_out_of_range")
        # scales are finite and positive; test and calibration groups may share one offset
        for name in ("group_sigma", "intensity_logit_sigma", "bleu_concentration"):
            value = getattr(self, name)
            if not (math.isfinite(_as_float(value))
                    and (value > 0 or name == "group_sigma" and value == 0)):
                raise ValueError(f"invalid_scale_parameter: {name}={value!r}")
        # A weighted pool's kernels must stay finite at any two points its
        # queries can reach: scores lie in [_TINY, 1], so on the evaluation
        # scale in a span S, and a shifted model stretches them by at most
        # sigma_p / SIGMA_FLOOR, sigma_p <= S / 2, about its anchors.
        span = -math.log10(_TINY) if self.log_scale else 1.0
        reach = span * (1.0 + max(span / 2.0, SIGMA_FLOOR) / SIGMA_FLOOR)
        check_bandwidth(self.bandwidth, reach if self.scenario == "weighted" else 0.0)
        if self.outlier_threshold_population not in ("null", "alt"):
            raise ValueError(
                f"unknown_threshold_population: {self.outlier_threshold_population}")
        for population, level in self.distributions:
            if population not in ("majority", "minority"):
                raise ValueError(f"unknown_population: {population}")
            if not 1 <= level <= 7:
                raise ValueError(f"edit_intensity_out_of_range: {level}")
        if (size := self._largest_array_bytes()) > _MAX_ARRAY_BYTES:
            raise ValueError(f"config_too_large: its largest array would take about "
                             f"{size} bytes, over {_MAX_ARRAY_BYTES}")
        self._check_intensity_dominance()

    def _largest_array_bytes(self) -> int:
        """About the bytes of a run's largest array, at 8 a float: a task's test scores,
        joined once per calibration size; its pools, at each point and both shifted images;
        or a seed's stream states, 4 floats' worth a stream."""
        sets = sum(1 + len(self.alt_levels(null)) for null in self.null_levels)
        widths = ([int(self.majority_cal_size) + int(m) for m in self.minority_sizes]
                  if self.scenario == "weighted" else [int(n) for n in self.cal_sizes])
        return 8 * max(len(widths) * sets * int(self.n_test),
                       3 * len(self.null_levels) * sum(widths),
                       4 * int(self.n_prompts) * len(_task_plan(self)))

    def _check_intensity_dominance(self) -> None:
        # Higher intensity must push scores stochastically lower; checked
        # empirically on a fixed probe stream before any cell is run.
        from . import seeding

        levels = range(1, self.max_level + 1)
        states = iter(seeding.seed_states(np.array(
            [(_ENTROPY_BASE, 999, intensity, population == "minority")
             for population in self.populations() for intensity in levels], np.uint32)))
        for population in self.populations():
            medians = [float(np.median(_sample_values(
                self.distribution_for(population, intensity), _DOMINANCE_PROBE_N,
                seeding.generator(next(states))))) for intensity in levels]
            for lo, hi in zip(medians[1:], medians[:-1]):
                if lo > hi * 1.02 + 1e-12:
                    raise ValueError(
                        f"intensity_ladder_not_monotone: medians={medians} "
                        f"for population {population!r}")


def default_config(scenario: str = "standard") -> ExperimentConfig:
    return ExperimentConfig(scenario=scenario)


# ---------------------------------------------------------------------------
# Substream derivation
# ---------------------------------------------------------------------------


def _task_plan(config: ExperimentConfig) -> dict[tuple[int, int, int, str], int]:
    """Column of each (null, alt, size_idx, role) substream a (seed, prompt) task draws."""
    *_, test_roles, cal_roles = _SCENARIO_RUNNERS[config.scenario]
    keys = []
    for null in config.null_levels:
        alts = config.alt_levels(null)
        keys += [(null, alt, 0, ("alt_" if alt else "null_") + role)
                 for alt in (0, *alts) for role in test_roles]
        keys += [(null, alt, 0, role) for alt in alts for role in ("bleu_null", "bleu_alt")]
        keys += [(null, 0, i, role) for role, sizes in cal_roles
                 for i in range(len(getattr(config, sizes)) if sizes else 1)]
    return {key: i for i, key in enumerate(keys)}


class _Streams:
    """Every substream one seed of a run draws, seeded in one batch.

    Prompt ``p``'s stream ``(null, alt, size_idx, role)`` is keyed by
    ``SeedSequence([_ENTROPY_BASE, seed, p, null, alt, size_idx, _STREAMS[role]])``
    and seeded from row ``p - 1`` of ``states``, at that key's ``plan`` column.
    Nothing changes once built, so tasks on any thread share it.
    """

    def __init__(self, seed: int, n_prompts: int, plan: dict):
        from . import seeding  # only simulate runs need it, and it loads numpy.random

        head = [_ENTROPY_BASE, *seeding.int_words(seed)]  # a big seed takes several words
        words = np.empty((n_prompts, len(plan), len(head) + 5), dtype=np.uint32)
        words[..., :-5] = head
        words[..., -5] = np.arange(1, n_prompts + 1)[:, None]
        words[..., -4:] = [(null, alt, i, _STREAMS[role]) for null, alt, i, role in plan]
        self.seed, self.plan, self.generator = seed, plan, seeding.generator
        self.states = seeding.seed_states(words.reshape(n_prompts * len(plan), -1)).reshape(
            n_prompts, len(plan), 4)

    def __call__(self, prompt: int, null: int, alt: int, size_idx: int,
                 role: str) -> np.random.Generator:
        return self.generator(self.states[prompt - 1, self.plan[null, alt, size_idx, role]])


def _sample_bleu(config: ExperimentConfig, intensity: int,
                 rng: np.random.Generator, n: int) -> np.ndarray:
    mean, conc = config.bleu_means[intensity - 1], config.bleu_concentration
    return rng.beta(mean * conc, (1.0 - mean) * conc, n)


# ---------------------------------------------------------------------------
# Cell construction
# ---------------------------------------------------------------------------


def _outlier_rows(config: ExperimentConfig, streams: _Streams, prompt: int,
                  sets: list[tuple[int, int]]) -> np.ndarray:
    """Each ``(null, alt)`` set's outlier mask, one row each; a null set's row is all False."""
    alts = [(i, null, alt) for i, (null, alt) in enumerate(sets) if alt]
    bleu_null, bleu_alt = (np.array([
        _sample_bleu(config, alt if role == "bleu_alt" else null,
                     streams(prompt, null, alt, 0, role), config.n_test)
        for _, null, alt in alts]) for role in ("bleu_null", "bleu_alt"))
    by_null = config.outlier_threshold_population == "null"
    thresholds = bleu_quantile_threshold(bleu_null if by_null else bleu_alt, config.alpha)
    mask = np.zeros((len(sets), config.n_test), dtype=bool)
    mask[[i for i, *_ in alts]] = outlier_mask(bleu_null, bleu_alt, thresholds[:, np.newaxis])
    return mask


def _make_cell(method: str, null: int, alt: int, cal_size: int, seed: int, prompt: int,
               n_tests: int, n_outliers: int, fpr: float, flags: int, hits: int) -> CellResult:
    """One alternative set's cell: ``flags`` essays flagged, ``hits`` of them outliers."""
    # counts over sizes give the bits of the boolean arrays' means
    outlier_proportion = n_outliers / n_tests
    excluded = is_excluded(n_outliers, outlier_proportion)
    power = None if excluded else hits / n_outliers
    n_suspects = n_tests - n_outliers
    suspect_rate = (flags - hits) / n_suspects if n_suspects else None
    return CellResult(null_prompt=null, alt_prompt=alt, cal_size=cal_size, fpr=fpr, power=power,
                      n_outliers=n_outliers, outlier_proportion=outlier_proportion,
                      excluded=excluded, seed=seed, prompt=prompt, method=method,
                      n_tests=n_tests, suspect_flag_rate=suspect_rate)


def _cells(config: ExperimentConfig, streams: _Streams, prompt: int) -> list[CellResult]:
    """Every cell of one (seed, prompt) task, drawn from the seed's ``streams`` in one pass.

    The rows hold each null level's null set, then its alternative sets.
    Flags and outlier hits are counted per calibration and row with one
    ``count_nonzero`` per method.
    """
    draw_tests, calibrations, *_ = _SCENARIO_RUNNERS[config.scenario]
    sets = [(null, alt) for null in config.null_levels for alt in (0, *config.alt_levels(null))]
    tests = draw_tests(config, streams, prompt, sets)
    outliers = _outlier_rows(config, streams, prompt, sets)
    n_outliers = np.count_nonzero(outliers, axis=1).tolist()
    sizes, flagger = calibrations(config, streams, prompt)
    # lists of counts keep every rate a Python float
    counts = [(method, np.count_nonzero(flagged, axis=-1).tolist(),
               np.count_nonzero(flagged & outliers, axis=-1).tolist())
              for method, flagged in flagger(tests).items()]
    n, seed, cells, start = config.n_test, streams.seed, [], 0
    for null in config.null_levels:
        alts = config.alt_levels(null)
        rows = slice(start, start + 1 + len(alts))
        start = rows.stop
        for i, size in enumerate(sizes):
            for method, flags, hits in counts:
                (null_flags, *alt_flags), (_, *alt_hits) = flags[i][rows], hits[i][rows]
                for alt, n_out, n_flags, n_hits in zip(alts, n_outliers[rows][1:],
                                                       alt_flags, alt_hits):
                    cells.append(_make_cell(method, null, alt, size, seed, prompt, n, n_out,
                                            null_flags / n, n_flags, n_hits))
    return cells


# ---------------------------------------------------------------------------
# Scenarios: a test-row drawer and a calibration pass each
# ---------------------------------------------------------------------------

# A drawer returns the n_test scores of each ``(null, alt)`` set, one row
# each and unsorted; alt 0 is the null set. A calibration pass gives the
# task's calibration sizes and a flagger that maps all of its test rows,
# null level by null level, to ``{method: flags}``, one slice of rows per
# calibration size. Both draw from the seed's ``_Streams``. Calibration
# passes look the cutoff kernels up as module globals, where a tracer can
# wrap them.


def _test_rows(config: ExperimentConfig, streams: _Streams, prompt: int,
               sets: list[tuple[int, int]], population: str = "majority") -> np.ndarray:
    return _sample_joined([
        (config.distribution_for(population, alt or null), config.n_test,
         streams(prompt, null, alt, 0, "alt_test" if alt else "null_test"))
        for null, alt in sets]).reshape(len(sets), config.n_test)


def _hierarchical_test_rows(config: ExperimentConfig, streams: _Streams, prompt: int,
                            sets: list[tuple[int, int]]) -> np.ndarray:
    # each test essay comes from a fresh group, with its own log-odds offset
    effects = [streams(prompt, null, alt, 0, "alt_test_effects" if alt else "null_test_effects")
               .normal(0.0, config.group_sigma, config.n_test) for null, alt in sets]
    return logit_shift(_test_rows(config, streams, prompt, sets), effects)


def _segments(values: np.ndarray, sizes) -> list[np.ndarray]:
    """``values`` cut into consecutive pieces of the given sizes."""
    return [values[end - size:end] for end, size in zip(np.cumsum(sizes).tolist(), sizes)]


def _calibration_draws(config: ExperimentConfig, streams: _Streams, prompt: int, sizes,
                       role: str = "cal", population: str = "majority") -> list[np.ndarray]:
    """A task's calibrations from the ``role`` streams, drawn in one array.

    Per size, one array holds the null levels' calibrations as its rows.
    """
    levels = len(config.null_levels)
    values = _sample_joined([
        (config.distribution_for(population, null), size, streams(prompt, null, 0, i, role))
        for i, size in enumerate(sizes) for null in config.null_levels])
    return [block.reshape(levels, -1) for block in _segments(values, [levels * s for s in sizes])]


def _row_cutoffs(blocks: list[np.ndarray], alpha: float) -> list[float]:
    """The standard cutoff of each row of each block, one row-wise sort per block."""
    return [cutoff for block in blocks for cutoff in standard_cutoffs(block, alpha)]


def _cutoff_flagger(config: ExperimentConfig, sizes, cutoffs: dict[str, list[float]]):
    """A flagger of a task's rows below each of their null level's cutoffs.

    Each method's ``cutoffs`` run over the sizes, then the levels; flags come
    as ``(sizes, rows, n)``.
    """
    sets = [1 + len(config.alt_levels(null)) for null in config.null_levels]
    below = {method: np.repeat(np.reshape(c, (len(sizes), -1)), sets, axis=1)[..., np.newaxis]
             for method, c in cutoffs.items()}
    return lambda rows: {method: rows < cut for method, cut in below.items()}


def _standard_calibrations(config: ExperimentConfig, streams: _Streams, prompt: int):
    blocks = _calibration_draws(config, streams, prompt, config.cal_sizes)
    return config.cal_sizes, _cutoff_flagger(config, config.cal_sizes,
                                             {"standard": _row_cutoffs(blocks, config.alpha)})


def _partition_sizes(total: int, k: int, rng: np.random.Generator) -> np.ndarray:
    k_eff = min(k, total)
    extra = rng.multinomial(total - k_eff, np.full(k_eff, 1.0 / k_eff))
    return extra + 1


def _hierarchical_calibrations(config: ExperimentConfig, streams: _Streams, prompt: int):
    # Base draws share the "cal" stream with the standard scenario; group
    # structure only adds log-odds offsets on top. With group_sigma == 0 and
    # singleton groups the calibration set is bit-identical to standard's.
    groups, effects = [], []
    for i, size in enumerate(config.cal_sizes):
        for null in config.null_levels:
            rng = streams(prompt, null, 0, i, "cal_effects")
            groups.append(_partition_sizes(size, config.k_groups, rng))
            effects.append(rng.normal(0.0, config.group_sigma, groups[-1].size))
    draws = np.concatenate(_calibration_draws(config, streams, prompt, config.cal_sizes), None)
    scores = logit_shift(draws, np.repeat(np.concatenate(effects), np.concatenate(groups)))
    cals = _segments(scores, [size for size in config.cal_sizes for _ in config.null_levels])
    return config.cal_sizes, _cutoff_flagger(config, config.cal_sizes, {"hierarchical": [
        pooled_hierarchical_cutoff(cal, group_sizes.tolist(), config.alpha)
        for cal, group_sizes in zip(cals, groups)]})


def _weighted_calibrations(config: ExperimentConfig, streams: _Streams, prompt: int):
    """The minority sizes, and a flagger against the majority plus each minority sample.

    Per minority size, the null levels' pools are the rows of one array, so
    the minority-only and pooled-unweighted rules find their cutoffs with one
    row-wise sort each. Each pool has its own :class:`WeightedRule`, which
    screens its null level's rows, joined, below one cutoff and ranks the
    kept scores once, for both weighted rules.
    """
    sizes, n = config.minority_sizes, config.majority_cal_size
    (majority,) = _calibration_draws(config, streams, prompt, (n,))
    minorities = _calibration_draws(config, streams, prompt, sizes, "minority_cal", "minority")
    pools = [np.hstack([majority, minority]) for minority in minorities]
    below = _cutoff_flagger(config, sizes, {
        "in_dist": _row_cutoffs(minorities, config.alpha),
        "combined_unweighted": _row_cutoffs(pools, config.alpha)})
    rules = [[WeightedRule(pool, np.arange(pool.size) >= n, config.bandwidth, config.alpha,
                           ("mean", "quantile"), config.log_scale) for pool in block]
             for block in pools]
    ends = np.cumsum([0] + [1 + len(config.alt_levels(null))
                            for null in config.null_levels]).tolist()
    levels = [slice(start, stop) for start, stop in zip(ends, ends[1:])]

    def flagger(rows: np.ndarray) -> dict[str, np.ndarray]:
        # each weighted rule's flags as (sizes, rows, n_test)
        flags = np.empty((2, len(sizes), *rows.shape), dtype=bool)
        for i, block in enumerate(rules):
            for rule, level in zip(block, levels):
                flags[:, i, level] = np.reshape(rule.flags(rows[level].reshape(-1)),
                                                (2, -1, rows.shape[-1]))
        return {**below(rows), "weighted_mean": flags[0], "weighted_quantile": flags[1]}

    return sizes, flagger


# scenario -> (test-row drawer, calibration pass, the stream roles a test
# set draws, null_ or alt_ prefixed, and the (role, sizes field) a
# calibration draws, one stream per size or, with no field, one per null
# level)
_SCENARIO_RUNNERS = {
    "standard": (_test_rows, _standard_calibrations, ("test",), (("cal", "cal_sizes"),)),
    "hierarchical": (_hierarchical_test_rows, _hierarchical_calibrations,
                     ("test", "test_effects"),
                     (("cal", "cal_sizes"), ("cal_effects", "cal_sizes"))),
    "weighted": (partial(_test_rows, population="minority"), _weighted_calibrations,
                 ("test",), (("cal", None), ("minority_cal", "minority_sizes"))),
}


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-safe dict mirroring the config (tuples -> lists, keyed dists nested)."""
    out = {}
    for f in fields(config):
        if f.name != "distributions":
            value = getattr(config, f.name)
            out[f.name] = list(value) if isinstance(f.default, tuple) else value
    if config.distributions:
        nested: dict = {}
        for (population, intensity), dist in sorted(config.distributions.items()):
            nested.setdefault(population, {})[str(intensity)] = {
                "family": dist.family,
                "params": dict(dist.params),
            }
        out["distributions"] = nested
    return out


def config_from_dict(data: Mapping) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`; unknown keys are rejected by name.

    ``data`` must be a mapping, and a tuple field's value a list.
    """
    data = dict(_mapping(data, "config"))
    dists: dict[tuple[str, int], ScoreDistribution] = {}
    nested = _mapping(data.pop("distributions", {}), "distributions")
    for population, by_level in nested.items():
        for level, spec in _mapping(by_level, f"distributions.{population}").items():
            name = f"distributions.{population}.{level}"
            try:
                key = (population, int(level))
            except (TypeError, ValueError):
                raise ValueError(f"invalid_config_shape: {name} must have an integer level")
            if "family" not in _mapping(spec, name):
                raise ValueError(f"invalid_params: {name} needs a family")
            dists[key] = ScoreDistribution(spec["family"], spec.get("params", {}))
    defaults = {f.name: f.default for f in fields(ExperimentConfig)
                if f.name != "distributions"}
    kwargs = {}
    for key, value in data.items():
        if key not in defaults:
            raise ValueError(f"unknown_config_key: {key}")
        if isinstance(defaults[key], tuple):
            if not isinstance(value, list):  # a string or a mapping would iterate as one
                raise ValueError(f"invalid_type: {key}={value!r}")
            value = tuple(value)
        kwargs[key] = value
    return ExperimentConfig(distributions=dists, **kwargs)


def run_scenario(config: ExperimentConfig, threads: int = 1) -> MetricsReport:
    """Run every (seed, prompt) task of the configured scenario and aggregate.

    The thread cap and the config are validated first (ValueError). Tasks
    are independent; with a cap above one they run on a pool, and results
    are folded in task order either way. A failing task raises RuntimeError.
    """
    if not isinstance(threads, numbers.Integral) or isinstance(threads, bool) or threads < 1:
        raise ValueError(f"invalid_thread_cap: {threads!r}")
    config.validate()
    # every substream is seeded before any task runs, and only read after
    plan = _task_plan(config)
    streams = {seed: _Streams(seed, config.n_prompts, plan) for seed in config.seeds}
    tasks = [(streams[seed], prompt)
             for seed in config.seeds
             for prompt in range(1, config.n_prompts + 1)]

    def work(task):
        seed_streams, prompt = task
        try:
            return _cells(config, seed_streams, prompt)
        except Exception as exc:
            raise RuntimeError(f"cell_failure at seed={seed_streams.seed} "
                               f"prompt={prompt}") from exc

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only threaded runs load it
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(work, tasks))
    else:
        chunks = [work(t) for t in tasks]
    return aggregate(cell for chunk in chunks for cell in chunk)
