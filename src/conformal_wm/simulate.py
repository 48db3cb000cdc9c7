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

One driver runs every scenario's grid of levels x calibrations x seeds; a
scenario supplies only a test-set drawer and a calibration iterator whose
flaggers score each null level's test sets joined into one array. The
standard and hierarchical rules, and the minority-only and pooled-unweighted
ones of the weighted scenario, flag exactly the test scores below one
calibration score, so their flaggers compare against that cutoff and rank
nothing. Such flags ignore the order of the test scores, so only the
weighted scenario, whose weighted rules rank them, sorts each test set.

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

from .conformal import hierarchical_cutoff, standard_cutoff
from .density import SIGMA_FLOOR, WeightedRule, check_bandwidth, check_quantile_alpha
from .evaluation import CellResult, MetricsReport, aggregate, is_excluded
from .labeling import bleu_quantile_threshold, outlier_mask

FAMILIES = ("uniform01", "logit_normal", "beta", "mixture")
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


@dataclass(frozen=True)
class ScoreDistribution:
    """A sampling family for watermark scores in (0, 1]."""

    family: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown_family: {self.family}")
        _mapping(self.params, f"params of {self.family}")


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


def _real(params: Mapping, name: str, default) -> float:
    """``params[name]`` (or ``default``) as a float, else raises ``invalid_params``."""
    value = params.get(name, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"invalid_params: {name}={value!r} is not a number") from None


def _sample_values(dist: ScoreDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    if n < 1:
        raise ValueError(f"sample_size_not_positive: {n}")
    fam = dist.family
    p = dist.params
    if fam == "uniform01":
        return 1.0 - rng.random(n)  # (0, 1]
    if fam == "logit_normal":
        mu = _real(p, "mu", 0.0)
        sigma = _real(p, "sigma", 1.0)
        if sigma <= 0:
            raise ValueError(f"invalid_params: sigma={sigma}")
        return _into_unit(_expit(rng.normal(mu, sigma, n)))
    if fam == "beta":
        a = _real(p, "a", 1.0)
        b = _real(p, "b", 1.0)
        if a <= 0 or b <= 0:
            raise ValueError(f"invalid_params: a={a}, b={b}")
        return _into_unit(rng.beta(a, b, n))
    if fam == "mixture":
        comps = p.get("components")
        if not isinstance(comps, (list, tuple)) or not comps:
            raise ValueError("invalid_params: mixture needs a list of components")
        for comp in comps:
            if "family" not in _mapping(comp, "a mixture component"):
                raise ValueError(f"invalid_params: mixture component {comp!r} needs a family")
        weights = np.array([_real(c, "weight", None) for c in comps])
        if (weights <= 0).any():
            raise ValueError("invalid_params: non-positive mixture weight")
        weights = weights / weights.sum()
        idx = rng.choice(len(comps), size=n, p=weights)
        out = np.empty(n, dtype=float)
        for j, comp in enumerate(comps):
            mask = idx == j
            if mask.any():
                sub = ScoreDistribution(
                    family=comp["family"],
                    params=comp.get("params", {}),
                )
                out[mask] = _sample_values(sub, int(mask.sum()), rng)
        return out
    raise ValueError(f"unknown_family: {fam}")


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
    # Grouped p-values live on [1/(K+1), 1], so K must exceed 1/alpha - 1
    # before anything can be flagged; the default keeps groups small.
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
        if not self.bleu_concentration > 0:
            raise ValueError("invalid_positive_parameter")
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
        self._check_intensity_dominance()

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


@dataclass(frozen=True)
class _AltContext:
    alt: int
    test_values: np.ndarray
    outlier_mask: np.ndarray
    n_outliers: int
    outlier_proportion: float


def _label_alt_set(config: ExperimentConfig, streams: _Streams, prompt: int, null: int,
                   alt: int, test_values: np.ndarray, ranks: bool) -> _AltContext:
    n = test_values.size
    bleu_null = _sample_bleu(config, null, streams(prompt, null, alt, 0, "bleu_null"), n)
    bleu_alt = _sample_bleu(config, alt, streams(prompt, null, alt, 0, "bleu_alt"), n)
    by_null = config.outlier_threshold_population == "null"
    threshold = bleu_quantile_threshold(bleu_null if by_null else bleu_alt, config.alpha)
    mask = outlier_mask(bleu_null, bleu_alt, threshold)
    n_out = int(np.count_nonzero(mask))
    if ranks:  # cells only count flags, so order is free, and sorted keys rank faster
        order = np.argsort(test_values)
        test_values, mask = test_values[order], mask[order]
    return _AltContext(
        alt=alt,
        test_values=test_values,
        outlier_mask=mask,
        n_outliers=n_out,
        outlier_proportion=n_out / n,
    )


def _make_cell(method: str, null: int, ctx: _AltContext, cal_size: int, seed: int,
               prompt: int, fpr: float, flags: int, hits: int) -> CellResult:
    """One alternative set's cell: ``flags`` essays flagged, ``hits`` of them outliers."""
    # counts over sizes give the bits of the boolean arrays' means
    excluded = is_excluded(ctx.n_outliers, ctx.outlier_proportion)
    power = None if excluded else hits / ctx.n_outliers
    n_suspects = ctx.test_values.size - ctx.n_outliers
    suspect_rate = (flags - hits) / n_suspects if n_suspects else None
    return CellResult(
        null_prompt=null,
        alt_prompt=ctx.alt,
        cal_size=cal_size,
        fpr=fpr,
        power=power,
        n_outliers=ctx.n_outliers,
        outlier_proportion=ctx.outlier_proportion,
        excluded=excluded,
        seed=seed,
        prompt=prompt,
        method=method,
        n_tests=int(ctx.test_values.size),
        suspect_flag_rate=suspect_rate,
    )


def _cells(config: ExperimentConfig, streams: _Streams, prompt: int) -> list[CellResult]:
    """Every cell of one (seed, prompt) task, drawn from the seed's ``streams``.

    A null level's null and alternative test sets, and their outlier masks,
    are joined once, and each calibration's flagger scores that one array; a
    p-value does not depend on the other test points. Flags and outlier hits
    are counted per test set with one ``reduceat`` each.
    """
    draw_tests, calibrations, ranks, *_ = _SCENARIO_RUNNERS[config.scenario]
    seed, cells = streams.seed, []
    for null in config.null_levels:
        test_null = draw_tests(config, streams, prompt, null, 0)
        if ranks:
            test_null = np.sort(test_null)
        contexts = [_label_alt_set(config, streams, prompt, null, alt,
                                   draw_tests(config, streams, prompt, null, alt), ranks)
                    for alt in config.alt_levels(null)]
        tests = np.concatenate([test_null] + [ctx.test_values for ctx in contexts])
        outliers = np.concatenate([np.zeros(test_null.size, dtype=bool)]
                                  + [ctx.outlier_mask for ctx in contexts])
        starts = np.cumsum([0, test_null.size]
                           + [ctx.test_values.size for ctx in contexts[:-1]])
        for cal_size, flagger in calibrations(config, streams, prompt, null):
            for method, flagged in flagger(tests).items():
                # bools add up as ints; lists of them keep every rate a Python float
                null_flags, *flags = np.add.reduceat(flagged, starts).tolist()
                hits = np.add.reduceat(flagged & outliers, starts)[1:].tolist()
                fpr = null_flags / test_null.size
                for ctx, n_flags, n_hits in zip(contexts, flags, hits):
                    cells.append(_make_cell(method, null, ctx, cal_size, seed, prompt,
                                            fpr, n_flags, n_hits))
    return cells


# ---------------------------------------------------------------------------
# Scenarios: a test-set drawer and a calibration iterator each
# ---------------------------------------------------------------------------

# A drawer returns the n_test scores of ``(null, alt)``, unsorted; alt 0 is
# the null set. A calibration iterator yields ``(cal_size, flagger)``, where
# a flagger maps test scores to ``{method: flags}``. Both draw from the
# seed's ``_Streams``. Calibration iterators look the cutoff kernels up as
# module globals, where a tracer can wrap them.


def _test_set(config: ExperimentConfig, streams: _Streams, prompt: int, null: int,
              alt: int, population: str = "majority") -> np.ndarray:
    stream = "alt_test" if alt else "null_test"
    return _sample_values(config.distribution_for(population, alt or null),
                          config.n_test, streams(prompt, null, alt, 0, stream))


def _hierarchical_test_set(config: ExperimentConfig, streams: _Streams, prompt: int,
                           null: int, alt: int) -> np.ndarray:
    # each test essay comes from a fresh group, with its own log-odds offset
    stream = "alt_test_effects" if alt else "null_test_effects"
    effects = streams(prompt, null, alt, 0, stream).normal(
        0.0, config.group_sigma, config.n_test)
    return logit_shift(_test_set(config, streams, prompt, null, alt), effects)


def _standard_calibrations(config: ExperimentConfig, streams: _Streams, prompt: int,
                           null: int):
    null_dist = config.distribution_for("majority", null)
    for size_idx, size in enumerate(config.cal_sizes):
        cal = _sample_values(null_dist, size, streams(prompt, null, 0, size_idx, "cal"))
        cutoff = standard_cutoff(cal, config.alpha)
        yield size, lambda tests, cutoff=cutoff: {"standard": tests < cutoff}


def _partition_sizes(total: int, k: int, rng: np.random.Generator) -> np.ndarray:
    k_eff = min(k, total)
    extra = rng.multinomial(total - k_eff, np.full(k_eff, 1.0 / k_eff))
    return extra + 1


def _grouped_calibration(config: ExperimentConfig, streams: _Streams, prompt: int,
                         null: int, size_idx: int, size: int) -> list[np.ndarray]:
    # Base draws share the "cal" stream with the standard scenario; group
    # structure only adds log-odds offsets on top. With group_sigma == 0 and
    # singleton groups the calibration set is bit-identical to standard's.
    null_dist = config.distribution_for("majority", null)
    base = _sample_values(null_dist, size, streams(prompt, null, 0, size_idx, "cal"))
    rng_eff = streams(prompt, null, 0, size_idx, "cal_effects")
    sizes = _partition_sizes(size, config.k_groups, rng_eff)
    effects = rng_eff.normal(0.0, config.group_sigma, sizes.size)
    shifted = logit_shift(base, np.repeat(effects, sizes))
    # plain slices: np.split costs more than the cutoff that reads the groups
    ends = np.cumsum(sizes).tolist()
    return [shifted[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _hierarchical_calibrations(config: ExperimentConfig, streams: _Streams, prompt: int,
                               null: int):
    for size_idx, size in enumerate(config.cal_sizes):
        groups = _grouped_calibration(config, streams, prompt, null, size_idx, size)
        cutoff = hierarchical_cutoff(groups, config.alpha)
        yield size, lambda tests, cutoff=cutoff: {"hierarchical": tests < cutoff}


def _weighted_flagger(config: ExperimentConfig, pool: np.ndarray, minority: np.ndarray,
                     rule: WeightedRule):
    """A function from test scores to the four methods' flags against one pool.

    ``minority`` masks the pool's minority points, and ``rule`` is the
    pool's weighted rule. The minority-only and pooled-unweighted rules
    flag the test scores below their cutoffs, each found once, and the test
    scores (a null level's joined test sets) are ranked once against the
    pool, for both weighted rules.
    """
    in_dist = standard_cutoff(pool[minority], config.alpha)
    unweighted = standard_cutoff(pool, config.alpha)

    def flags(values: np.ndarray) -> dict[str, np.ndarray]:
        return {
            "in_dist": values < in_dist,
            "combined_unweighted": values < unweighted,
            **dict(zip(("weighted_mean", "weighted_quantile"), rule.flags(values))),
        }

    return flags


def _weighted_calibrations(config: ExperimentConfig, streams: _Streams, prompt: int,
                           null: int):
    """One flagger per minority size, each against the null level's majority plus that minority.

    Every minority sample is drawn first, from its own stream, so the
    pools' weighted rules can share one node sum of the majority
    (``WeightedRule._sharing``).
    """
    majority_cal = _sample_values(config.distribution_for("majority", null),
                                  config.majority_cal_size,
                                  streams(prompt, null, 0, 0, "cal"))
    pools = [np.concatenate([majority_cal, _sample_values(
        config.distribution_for("minority", null), m,
        streams(prompt, null, 0, m_idx, "minority_cal"))])
        for m_idx, m in enumerate(config.minority_sizes)]
    minorities = [np.arange(pool.size) >= majority_cal.size for pool in pools]
    rules = WeightedRule._sharing(pools, minorities, config.bandwidth, config.alpha,
                                  ("mean", "quantile"), config.log_scale)
    for m, pool, minority, rule in zip(config.minority_sizes, pools, minorities, rules):
        yield m, _weighted_flagger(config, pool, minority, rule)


# scenario -> (test-set drawer, calibration iterator, whether its flaggers
# rank the test scores, the stream roles a test set draws, null_ or alt_
# prefixed, and the (role, sizes field) a calibration draws, one stream per
# size or, with no field, one per null level); only a flagger that ranks
# reads the test scores' order
_SCENARIO_RUNNERS = {
    "standard": (_test_set, _standard_calibrations, False, ("test",),
                 (("cal", "cal_sizes"),)),
    "hierarchical": (_hierarchical_test_set, _hierarchical_calibrations, False,
                     ("test", "test_effects"),
                     (("cal", "cal_sizes"), ("cal_effects", "cal_sizes"))),
    "weighted": (partial(_test_set, population="minority"), _weighted_calibrations, True,
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
    """Inverse of :func:`config_to_dict`; unknown keys are rejected by name."""
    data = dict(data)
    dists: dict[tuple[str, int], ScoreDistribution] = {}
    nested = _mapping(data.pop("distributions", None) or {}, "distributions")
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
        kwargs[key] = tuple(value) if isinstance(defaults[key], tuple) else value
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
