"""Command-line surface: detect, simulate, bleu.

Exit codes: 0 success, 2 validation failure (with one machine-readable
JSON error line on stderr), 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import io as io_mod
from . import simulate as sim_mod
from .bleu import bleu_of_texts
from .conformal import hierarchical_p_values, standard_p_values
from .density import WeightedRule, check_bandwidth, check_quantile_alpha
from .io import ScoreTable, ValidationError


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors exit 2 with a JSON line, like any other input's.

    ``add_subparsers`` builds each command's parser from this class too.
    """

    def error(self, message):
        raise ValidationError("invalid_argument", detail=message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conformal-wm",
        description="Watermark-score auditing with distribution-free "
                    "false-positive-rate control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser(
        "detect", help="flag test essays against a calibration table")
    p_detect.add_argument("cal_path", help="calibration score table (csv or json)")
    p_detect.add_argument("test_path", help="test score table (csv or json)")
    p_detect.add_argument("--method", choices=["standard", "hierarchical", "weighted"],
                          default="standard")
    p_detect.add_argument("--alpha", type=float, default=0.05)
    # the weighted-only flags default to None, so a rank method can refuse them
    p_detect.add_argument("--shift", choices=["mean", "quantile"],
                          help="subgroup density estimator (weighted only; default quantile)")
    p_detect.add_argument("--bandwidth", type=float,
                          help="KDE bandwidth (weighted only; default 0.5)")
    p_detect.add_argument("--log-scale", choices=["on", "off"],
                          help="estimate densities on log10 scores (weighted only; default on)")
    p_detect.add_argument("--out", default=".", help="output directory")

    p_sim = sub.add_parser("simulate", help="run a synthetic scenario end to end")
    p_sim.add_argument("config_path", nargs="?", default=None,
                       help="JSON experiment config; omitted -> built-in default")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="run a single seed instead of the configured list")
    p_sim.add_argument("--threads", type=int, default=1,
                       help="worker thread cap; it never changes an output byte")

    p_bleu = sub.add_parser("bleu", help="similarity of a candidate text to a reference")
    p_bleu.add_argument("reference_path")
    p_bleu.add_argument("candidate_path")

    return parser


def _check_out_dir(path: str) -> None:
    """Raise ``unusable_out_dir`` unless ``path``, or failing that its nearest existing
    ancestor, is a directory. Creates nothing, so it can run before any work."""
    out_dir = Path(path)
    existing = next((p for p in (out_dir, *out_dir.parents) if p.exists()), out_dir)
    if not existing.is_dir():
        raise ValidationError("unusable_out_dir",
                              detail=f"{path}: {existing} is not a directory")


def _out_dir(path: str) -> Path:
    """The directory ``--out`` names, made with its parents; ``unusable_out_dir`` where
    it cannot be (a file, or a path through one)."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError("unusable_out_dir", detail=f"{path}: {exc}") from None
    return out_dir


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def _require_role(table: ScoreTable, role: str, path: str) -> ScoreTable:
    if table.role.count(role) != len(table):
        i = next(i for i, r in enumerate(table.role) if r != role)
        raise ValidationError("role_mismatch",
                              detail=f"essay {table.essay_id[i]!r} in {path} has role "
                                     f"{table.role[i]!r}, expected {role!r}",
                              line=table.line[i], field_name="role")
    if not len(table):
        raise ValidationError("empty_table", detail=path)
    return table


def _require_column(table: ScoreTable, name: str) -> tuple:
    """The calibration column ``name``; raises ``missing_<name>`` at its first gap."""
    column = getattr(table, name)
    if None in column:
        i = column.index(None)
        raise ValidationError(f"missing_{name}",
                              detail=f"calibration essay {table.essay_id[i]!r}",
                              line=table.line[i], field_name=name)
    return column


def _rank_diagnostics(size_name: str, size: int, alpha: float) -> dict:
    """What a rank rule's calibration allows: its size, smallest p, and whether it can flag.

    Both rank rules give ``1/(size + 1)`` at rank 0 (``size`` is n, or K
    groups), and p never falls with the rank, so they can flag exactly when
    that p is at most alpha.
    """
    min_p = 1.0 / (size + 1)
    return {size_name: size, "min_p": min_p, "can_flag": min_p <= alpha}


# detect's weighted-only flags and their defaults
_WEIGHTED_DEFAULTS = {"shift": "quantile", "bandwidth": 0.5, "log_scale": "on"}


def _weighted_options(args) -> tuple[str, float, bool]:
    """``--shift``, ``--bandwidth`` and ``--log-scale``, defaults filled in; a rank method
    given any of them raises ``invalid_argument``."""
    flags = {name: getattr(args, name) for name in _WEIGHTED_DEFAULTS}
    given = [name for name, value in flags.items() if value is not None]
    if given and args.method != "weighted":
        raise ValidationError("invalid_argument", detail=f"weighted-only flags with --method "
                              f"{args.method}: " + ", ".join("--" + name.replace("_", "-")
                                                            for name in given))
    shift, bandwidth, log_scale = (_WEIGHTED_DEFAULTS[name] if value is None else value
                                   for name, value in flags.items())
    return shift, bandwidth, log_scale == "on"


def cmd_detect(args) -> int:
    alpha = args.alpha
    shift, bandwidth, use_log = _weighted_options(args)
    try:  # before any input is read: the quantile shift's bound is density's
        if not 0.0 < alpha < 1.0:
            raise ValueError
        if args.method == "weighted" and shift == "quantile":
            check_quantile_alpha(alpha)
    except ValueError:
        raise ValidationError("alpha_out_of_range", detail=repr(alpha),
                              field_name="alpha") from None
    if args.method == "weighted":  # a bandwidth too small for the data shows only with it
        check_bandwidth(bandwidth, 0.0)
    _check_out_dir(args.out)
    cal_table = _require_role(io_mod.ingest(args.cal_path), "calibration", args.cal_path)
    test_table = _require_role(io_mod.ingest(args.test_path), "test", args.test_path)
    extra: dict = {"method": args.method, "alpha": alpha}
    diagnostics = {"edit_intensity_levels": sorted(set(cal_table.edit_intensity) - {None})}
    cal = cal_table.score
    tests = test_table.score

    if args.method == "standard":
        p = standard_p_values(cal, tests)
        flagged = p <= alpha
        diagnostics.update(_rank_diagnostics("n_calibration", cal.size, alpha))

    elif args.method == "hierarchical":
        by_group: dict[str, list[int]] = {}
        for i, group in enumerate(_require_column(cal_table, "group_id")):
            by_group.setdefault(group, []).append(i)
        groups = [cal[idx] for idx in by_group.values()]
        p = hierarchical_p_values(groups, tests)
        flagged = p <= alpha
        diagnostics.update(_rank_diagnostics("n_groups", len(groups), alpha))

    else:  # weighted
        minority = np.array(
            [pop == "minority" for pop in _require_column(cal_table, "population")])
        if not minority.any():
            raise ValidationError("no_minority_rows", detail=args.cal_path)
        rule = WeightedRule(cal, minority, bandwidth, alpha, (shift,), use_log)
        extra["shift"] = {**asdict(rule.shifts[0]),
                          "minority_size": int(minority.sum()),
                          "bandwidth": bandwidth, "log_scale": use_log}
        (p,) = rule.p_values(tests)
        flagged = p < alpha

    out_dir = _out_dir(args.out)
    decisions_path = out_dir / "decisions.csv"
    io_mod.write_decisions_csv(decisions_path, test_table.essay_id, p, flagged)
    manifest = io_mod.build_manifest(
        command="detect",
        params={"method": args.method, "alpha": alpha, "shift": shift,
                "bandwidth": bandwidth, "log_scale": use_log},
        seeds=[],
        inputs={"calibration": Path(args.cal_path), "test": Path(args.test_path)},
        outputs={"decisions.csv": decisions_path},
        extra=extra,
        diagnostics=diagnostics,
    )
    io_mod.write_manifest(manifest, out_dir / "manifest.json")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    _check_out_dir(args.out)
    if args.config_path is None:
        config = sim_mod.default_config()
        inputs: dict[str, Path] = {}
    else:
        path = Path(args.config_path)
        if not path.exists():
            raise ValidationError("file_not_found", detail=str(path))
        payload = io_mod.read_json(path)
        try:
            config = sim_mod.config_from_dict(payload)
        except (ValueError, TypeError, KeyError) as exc:
            raise ValidationError("invalid_config", detail=str(exc))
        inputs = {"config": path}
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    # run_scenario validates first and wraps cell failures in RuntimeError, so a
    # ValueError is a config or thread-cap fault
    try:
        report = sim_mod.run_scenario(config, args.threads)
    except ValueError as exc:
        raise ValidationError("invalid_config", detail=str(exc))

    out_dir = _out_dir(args.out)
    metrics_csv = out_dir / "metrics.csv"
    metrics_json = out_dir / "metrics.json"
    plot_csv = out_dir / "plot_data.csv"
    io_mod.write_metrics_csv(metrics_csv, report, config.scenario)
    io_mod.write_metrics_json(metrics_json, report, config.scenario)
    io_mod.write_plot_csv(plot_csv, report, config.scenario)
    # the thread cap never changes an output byte, so it stays out of the hash
    manifest = io_mod.build_manifest(
        command="simulate",
        params=sim_mod.config_to_dict(config),
        seeds=config.seeds,
        inputs=inputs,
        outputs={"metrics.csv": metrics_csv, "metrics.json": metrics_json,
                 "plot_data.csv": plot_csv},
        extra={"scenario": config.scenario, "threads": args.threads},
    )
    io_mod.write_manifest(manifest, out_dir / "manifest.json")
    return 0


# ---------------------------------------------------------------------------
# bleu
# ---------------------------------------------------------------------------


def cmd_bleu(args) -> int:
    score = bleu_of_texts(io_mod.read_text(args.reference_path),
                          io_mod.read_text(args.candidate_path))
    print(json.dumps({
        "value": score.value,
        "unigram_precision": score.unigram_precision,
        "bigram_precision": score.bigram_precision,
        "brevity_penalty": score.brevity_penalty,
    }, sort_keys=True))
    return 0


_COMMANDS = {"detect": cmd_detect, "simulate": cmd_simulate, "bleu": cmd_bleu}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(exc.to_json(), file=sys.stderr)
        return 2
    except ValueError as exc:
        # Domain validation raised below the io layer (bad scores, degenerate
        # weights, ...) is still an input problem.
        print(json.dumps({"error": "invalid_input", "detail": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(json.dumps({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"},
                         sort_keys=True), file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
