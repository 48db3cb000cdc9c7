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

All randomness is derived from counter-style substreams keyed by
(seed, prompt, levels, size, stream role), so results are bit-identical
across runs and across worker thread counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .conformal import (
    hierarchical_p_values,
    standard_p_values,
    weighted_candidates,
    weighted_p_values,
)
from .density import density_ratios, fit_kde, mean_shift, quantile_shift
from .evaluation import CellResult, MetricsReport, aggregate, is_excluded
from .labeling import bleu_quantile_threshold, outlier_mask

THREADS_ENV_VAR = "CONFORMAL_WM_THREADS"

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


@dataclass(frozen=True)
class ScoreDistribution:
    """A sampling family for watermark scores in (0, 1]."""

    family: str
    params: Mapping[str, object] = field(default_factory=dict)
    edit_intensity: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown_family: {self.family}")
        if not 1 <= self.edit_intensity <= 7:
            raise ValueError(f"edit_intensity_out_of_range: {self.edit_intensity}")


def _expit(x: np.ndarray) -> np.ndarray:
    # Stable logistic: never exponentiates a large positive argument.
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    shifted = np.clip(_expit(_logit(vals) + delta_arr), _TINY, 1.0)
    return np.where(delta_arr == 0.0, vals, shifted)


def _sample_values(dist: ScoreDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    if n < 1:
        raise ValueError(f"sample_size_not_positive: {n}")
    fam = dist.family
    p = dist.params
    if fam == "uniform01":
        return 1.0 - rng.random(n)  # (0, 1]
    if fam == "logit_normal":
        mu = float(p.get("mu", 0.0))
        sigma = float(p.get("sigma", 1.0))
        if sigma <= 0:
            raise ValueError(f"invalid_params: sigma={sigma}")
        return np.clip(_expit(rng.normal(mu, sigma, n)), _TINY, 1.0)
    if fam == "beta":
        a = float(p.get("a", 1.0))
        b = float(p.get("b", 1.0))
        if a <= 0 or b <= 0:
            raise ValueError(f"invalid_params: a={a}, b={b}")
        return np.clip(rng.beta(a, b, n), _TINY, 1.0)
    if fam == "mixture":
        comps = p.get("components")
        if not comps:
            raise ValueError("invalid_params: mixture needs components")
        weights = np.array([float(c["weight"]) for c in comps])
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
                    edit_intensity=dist.edit_intensity,
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
    threads: int | None = None
    distributions: Mapping[tuple[str, int], ScoreDistribution] = field(default_factory=dict)

    def distribution_for(self, population: str, intensity: int) -> ScoreDistribution:
        key = (population, intensity)
        if key in self.distributions:
            return self.distributions[key]
        mu = self.intensity_logit_means[intensity - 1]
        if population == "minority":
            mu += self.minority_logit_shift
        return ScoreDistribution(
            family="logit_normal",
            params={"mu": mu, "sigma": self.intensity_logit_sigma},
            edit_intensity=intensity,
        )

    def alt_levels(self, null_level: int) -> tuple[int, ...]:
        return tuple(a for a in range(2, self.max_level + 1) if a > null_level)

    def populations(self) -> tuple[str, ...]:
        return ("majority", "minority") if self.scenario == "weighted" else ("majority",)

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown_scenario: {self.scenario}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha_out_of_range: {self.alpha}")
        for name, sizes in (("cal_sizes", self.cal_sizes),
                            ("minority_sizes", self.minority_sizes)):
            if not sizes or any(int(s) < 1 for s in sizes):
                raise ValueError(f"invalid_sizes: {name}={sizes}")
        if not self.seeds or any(int(s) < 0 for s in self.seeds):
            raise ValueError(f"invalid_seeds: {self.seeds}")
        if self.n_test < 1 or self.n_prompts < 1 or self.k_groups < 1:
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
        if self.bleu_concentration <= 0 or self.bandwidth <= 0:
            raise ValueError("invalid_positive_parameter")
        if self.outlier_threshold_population not in ("null", "alt"):
            raise ValueError(
                f"unknown_threshold_population: {self.outlier_threshold_population}")
        self._check_intensity_dominance()

    def _check_intensity_dominance(self, probe_n: int = 4000) -> None:
        # Higher intensity must push scores stochastically lower; checked
        # empirically on a fixed probe stream before any cell is run.
        for population in self.populations():
            medians = []
            for intensity in range(1, self.max_level + 1):
                rng = np.random.default_rng(
                    np.random.SeedSequence([_ENTROPY_BASE, 999, intensity,
                                            0 if population == "majority" else 1]))
                values = _sample_values(
                    self.distribution_for(population, intensity), probe_n, rng)
                medians.append(float(np.median(values)))
            for lo, hi in zip(medians[1:], medians[:-1]):
                if lo > hi * 1.02 + 1e-12:
                    raise ValueError(
                        f"intensity_ladder_not_monotone: medians={medians} "
                        f"for population {population!r}")


def default_config(scenario: str = "standard") -> ExperimentConfig:
    return ExperimentConfig(scenario=scenario)


def resolve_threads(config: ExperimentConfig) -> int:
    if config.threads is not None:
        return max(1, int(config.threads))
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"invalid_thread_cap: {env!r}") from exc
    return 1


# ---------------------------------------------------------------------------
# Substream derivation
# ---------------------------------------------------------------------------


def _rng(seed: int, prompt: int, null: int, alt: int, size_idx: int,
         stream: str) -> np.random.Generator:
    key = [_ENTROPY_BASE, int(seed), int(prompt), int(null), int(alt),
           int(size_idx), _STREAMS[stream]]
    return np.random.default_rng(np.random.SeedSequence(key))


def _bleu_params(config: ExperimentConfig, intensity: int) -> tuple[float, float]:
    mean = config.bleu_means[intensity - 1]
    conc = config.bleu_concentration
    return mean * conc, (1.0 - mean) * conc


def _sample_bleu(config: ExperimentConfig, intensity: int,
                 rng: np.random.Generator, n: int) -> np.ndarray:
    a, b = _bleu_params(config, intensity)
    return np.clip(rng.beta(a, b, n), 0.0, 1.0)


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


def _label_alt_set(config: ExperimentConfig, seed: int, prompt: int, null: int,
                   alt: int, test_values: np.ndarray) -> _AltContext:
    n = test_values.size
    bleu_null = _sample_bleu(config, null, _rng(seed, prompt, null, alt, 0, "bleu_null"), n)
    bleu_alt = _sample_bleu(config, alt, _rng(seed, prompt, null, alt, 0, "bleu_alt"), n)
    if config.outlier_threshold_population == "null":
        threshold = bleu_quantile_threshold(bleu_null, config.alpha)
    else:
        threshold = bleu_quantile_threshold(bleu_alt, config.alpha)
    mask = outlier_mask(bleu_null, bleu_alt, threshold)
    n_out = int(mask.sum())
    return _AltContext(
        alt=alt,
        test_values=test_values,
        outlier_mask=mask,
        n_outliers=n_out,
        outlier_proportion=n_out / n,
    )


def _make_cell(config: ExperimentConfig, method: str, null: int, ctx: _AltContext,
               cal_size: int, seed: int, prompt: int, fpr: float,
               alt_flags: np.ndarray) -> CellResult:
    excluded = is_excluded(ctx.n_outliers, ctx.outlier_proportion)
    power = None
    if not excluded:
        power = float(alt_flags[ctx.outlier_mask].mean())
    suspects = ~ctx.outlier_mask
    suspect_rate = float(alt_flags[suspects].mean()) if suspects.any() else None
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


def _joined_test_sets(test_null: np.ndarray,
                      contexts: list[_AltContext]) -> tuple[np.ndarray, np.ndarray]:
    """The null and alternative test sets as one array, plus its split points.

    Each calibration then makes one rank-kernel call, so its ``mass``
    table is built once; p-values do not depend on the other test points.
    """
    sets = [test_null] + [ctx.test_values for ctx in contexts]
    return np.concatenate(sets), np.cumsum([v.size for v in sets[:-1]])


def _standard_cells(config: ExperimentConfig, seed: int, prompt: int) -> list[CellResult]:
    cells = []
    alpha = config.alpha
    for null in config.null_levels:
        null_dist = config.distribution_for("majority", null)
        test_null = _sample_values(null_dist, config.n_test,
                                   _rng(seed, prompt, null, 0, 0, "null_test"))
        contexts = []
        for alt in config.alt_levels(null):
            test_alt = _sample_values(config.distribution_for("majority", alt),
                                      config.n_test,
                                      _rng(seed, prompt, null, alt, 0, "alt_test"))
            contexts.append(_label_alt_set(config, seed, prompt, null, alt, test_alt))
        tests, splits = _joined_test_sets(test_null, contexts)
        for size_idx, size in enumerate(config.cal_sizes):
            cal = _sample_values(null_dist, size,
                                 _rng(seed, prompt, null, 0, size_idx, "cal"))
            null_flags, *alt_flags = np.split(standard_p_values(cal, tests) <= alpha,
                                              splits)
            fpr = float(null_flags.mean())
            for ctx, flags in zip(contexts, alt_flags):
                cells.append(_make_cell(config, "standard", null, ctx, size,
                                        seed, prompt, fpr, flags))
    return cells


def _partition_sizes(total: int, k: int, rng: np.random.Generator) -> np.ndarray:
    k_eff = min(k, total)
    extra = rng.multinomial(total - k_eff, np.full(k_eff, 1.0 / k_eff))
    return extra + 1


def _grouped_calibration(config: ExperimentConfig, seed: int, prompt: int, null: int,
                         size_idx: int, size: int) -> list[np.ndarray]:
    # Base draws share the "cal" stream with the standard scenario; group
    # structure only adds log-odds offsets on top. With group_sigma == 0 and
    # singleton groups the calibration set is bit-identical to standard's.
    null_dist = config.distribution_for("majority", null)
    base = _sample_values(null_dist, size, _rng(seed, prompt, null, 0, size_idx, "cal"))
    rng_eff = _rng(seed, prompt, null, 0, size_idx, "cal_effects")
    sizes = _partition_sizes(size, config.k_groups, rng_eff)
    effects = rng_eff.normal(0.0, config.group_sigma, sizes.size)
    shifted = logit_shift(base, np.repeat(effects, sizes))
    groups = []
    offset = 0
    for n_k in sizes:
        groups.append(shifted[offset:offset + n_k])
        offset += n_k
    return groups


def _hierarchical_test(config: ExperimentConfig, seed: int, prompt: int, null: int,
                       alt: int, intensity: int, stream: str,
                       effects_stream: str) -> np.ndarray:
    base = _sample_values(config.distribution_for("majority", intensity),
                          config.n_test, _rng(seed, prompt, null, alt, 0, stream))
    rng_eff = _rng(seed, prompt, null, alt, 0, effects_stream)
    effects = rng_eff.normal(0.0, config.group_sigma, config.n_test)
    return logit_shift(base, effects)


def _hierarchical_cells(config: ExperimentConfig, seed: int, prompt: int) -> list[CellResult]:
    cells = []
    alpha = config.alpha
    for null in config.null_levels:
        test_null = _hierarchical_test(config, seed, prompt, null, 0, null,
                                       "null_test", "null_test_effects")
        contexts = []
        for alt in config.alt_levels(null):
            test_alt = _hierarchical_test(config, seed, prompt, null, alt, alt,
                                          "alt_test", "alt_test_effects")
            contexts.append(_label_alt_set(config, seed, prompt, null, alt, test_alt))
        tests, splits = _joined_test_sets(test_null, contexts)
        for size_idx, size in enumerate(config.cal_sizes):
            groups = _grouped_calibration(config, seed, prompt, null, size_idx, size)
            null_flags, *alt_flags = np.split(
                hierarchical_p_values(groups, tests) <= alpha, splits)
            fpr = float(null_flags.mean())
            for ctx, flags in zip(contexts, alt_flags):
                cells.append(_make_cell(config, "hierarchical", null, ctx, size,
                                        seed, prompt, fpr, flags))
    return cells


def _to_eval_scale(config: ExperimentConfig, values: np.ndarray) -> np.ndarray:
    return np.log10(values) if config.log_scale else np.asarray(values, dtype=float)


def _weighted_flagger(config: ExperimentConfig, pool: np.ndarray,
                      minority_cal: np.ndarray):
    """A function from a test set to the four methods' flags against one pool.

    The pool density p is evaluated once per point set (the pool, then
    each test set) and shared by both shift variants. At a test set, the
    densities are evaluated only at the points that
    :func:`weighted_candidates` keeps for either variant; every other point
    is unflagged under both, whatever its ratio.
    """
    alpha = config.alpha
    pool_eval = _to_eval_scale(config, pool)
    minority_eval = _to_eval_scale(config, minority_cal)
    model_p = fit_kde(pool_eval, config.bandwidth)
    variants = {
        "weighted_mean": mean_shift(pool_eval, minority_eval, config.bandwidth),
        "weighted_quantile": quantile_shift(pool_eval, minority_eval,
                                            config.bandwidth, alpha),
    }
    models_q = list(variants.values())
    r_cal = density_ratios(model_p, models_q, pool_eval)

    def flags(values: np.ndarray) -> dict[str, np.ndarray]:
        # Skipping the other points cannot hide an error the rule would
        # raise there: scores are clipped to [_TINY, 1], so every query is
        # finite, and p is floored, so every ratio is finite and nonnegative.
        cand = np.zeros(values.shape, dtype=bool)
        for rc in r_cal:
            cand |= weighted_candidates(pool, rc, values, alpha)
        picked = values[cand]
        r_test = density_ratios(model_p, models_q, _to_eval_scale(config, picked))
        out = {
            "in_dist": standard_p_values(minority_cal, values) <= alpha,
            "combined_unweighted": standard_p_values(pool, values) <= alpha,
        }
        for name, rc, rt in zip(variants, r_cal, r_test):
            flagged = np.zeros(values.shape, dtype=bool)
            flagged[cand] = weighted_p_values(pool, rc, picked, rt) < alpha
            out[name] = flagged
        return out

    return flags


def _weighted_cells(config: ExperimentConfig, seed: int, prompt: int) -> list[CellResult]:
    cells = []
    for null in config.null_levels:
        majority_cal = _sample_values(config.distribution_for("majority", null),
                                      config.majority_cal_size,
                                      _rng(seed, prompt, null, 0, 0, "cal"))
        test_null = _sample_values(config.distribution_for("minority", null),
                                   config.n_test,
                                   _rng(seed, prompt, null, 0, 0, "null_test"))
        contexts = []
        for alt in config.alt_levels(null):
            test_alt = _sample_values(config.distribution_for("minority", alt),
                                      config.n_test,
                                      _rng(seed, prompt, null, alt, 0, "alt_test"))
            contexts.append(_label_alt_set(config, seed, prompt, null, alt, test_alt))
        for m_idx, m in enumerate(config.minority_sizes):
            minority_cal = _sample_values(config.distribution_for("minority", null),
                                          m, _rng(seed, prompt, null, 0, m_idx,
                                                  "minority_cal"))
            pool = np.concatenate([majority_cal, minority_cal])
            flags = _weighted_flagger(config, pool, minority_cal)
            null_flags = flags(test_null)
            alt_flags = [flags(ctx.test_values) for ctx in contexts]
            for method, flagged in null_flags.items():
                fpr = float(flagged.mean())
                for ctx, by_method in zip(contexts, alt_flags):
                    cells.append(_make_cell(config, method, null, ctx, m, seed,
                                            prompt, fpr, by_method[method]))
    return cells


_SCENARIO_RUNNERS = {
    "standard": _standard_cells,
    "hierarchical": _hierarchical_cells,
    "weighted": _weighted_cells,
}


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-safe dict mirroring the config (tuples -> lists, keyed dists nested)."""
    out = {
        "scenario": config.scenario,
        "alpha": config.alpha,
        "cal_sizes": list(config.cal_sizes),
        "minority_sizes": list(config.minority_sizes),
        "seeds": list(config.seeds),
        "n_test": config.n_test,
        "n_prompts": config.n_prompts,
        "null_levels": list(config.null_levels),
        "max_level": config.max_level,
        "bandwidth": config.bandwidth,
        "log_scale": config.log_scale,
        "k_groups": config.k_groups,
        "group_sigma": config.group_sigma,
        "majority_cal_size": config.majority_cal_size,
        "intensity_logit_means": list(config.intensity_logit_means),
        "intensity_logit_sigma": config.intensity_logit_sigma,
        "minority_logit_shift": config.minority_logit_shift,
        "bleu_means": list(config.bleu_means),
        "bleu_concentration": config.bleu_concentration,
        "outlier_threshold_population": config.outlier_threshold_population,
        "threads": config.threads,
    }
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
    for population, by_level in (data.pop("distributions", None) or {}).items():
        for level, spec in by_level.items():
            intensity = int(level)
            dists[(population, intensity)] = ScoreDistribution(
                family=spec["family"],
                params=spec.get("params", {}),
                edit_intensity=intensity,
            )
    kwargs = {}
    tuple_fields = {"cal_sizes", "minority_sizes", "seeds", "null_levels",
                    "intensity_logit_means", "bleu_means"}
    valid = set(ExperimentConfig.__dataclass_fields__) - {"distributions"}
    for key, value in data.items():
        if key not in valid:
            raise ValueError(f"unknown_config_key: {key}")
        kwargs[key] = tuple(value) if key in tuple_fields else value
    return ExperimentConfig(distributions=dists, **kwargs)


def run_scenario(config: ExperimentConfig) -> MetricsReport:
    """Run every (seed, prompt) task of the configured scenario and aggregate.

    Tasks are independent; with a thread cap above one they run on a pool,
    and results are folded in task order either way.
    """
    config.validate()
    runner = _SCENARIO_RUNNERS[config.scenario]
    tasks = [(seed, prompt)
             for seed in config.seeds
             for prompt in range(1, config.n_prompts + 1)]

    def work(task):
        seed, prompt = task
        try:
            return runner(config, seed, prompt)
        except Exception as exc:
            raise RuntimeError(f"cell_failure at seed={seed} prompt={prompt}") from exc

    threads = resolve_threads(config)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(work, tasks))
    else:
        chunks = [work(t) for t in tasks]
    cells = [cell for chunk in chunks for cell in chunk]
    return aggregate(
        cells,
        over_prompts=tuple(range(1, config.n_prompts + 1)),
        over_seeds=config.seeds,
    )
