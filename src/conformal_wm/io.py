"""File interchange: score tables, reports, manifests.

CSV is the canonical format (UTF-8, header row, ``.`` decimal point,
RFC-4180 quoting); JSON mirrors every table for programmatic use. Floats
are written with ``repr`` so round-tripping is value-exact and output
bytes are stable across runs.

Every command that writes files also writes a run manifest recording the
tool version, a hash of the effective configuration, digests of all inputs
and outputs, and a combined run hash. Reruns on identical inputs reproduce
identical output bytes and an identical run hash; only the manifest's
wall-clock timestamp differs.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from statistics import fmean
from typing import Iterable

from . import __version__ as TOOL_VERSION
from .evaluation import AGG_PER_PROMPT_MEAN, MetricsReport

TOOL_NAME = "conformal-wm"

VALID_ROLES = ("calibration", "test")
VALID_POPULATIONS = ("majority", "minority")

_CSV_COLUMNS = ("essay_id", "score", "role", "group_id", "population", "edit_intensity")
_REQUIRED_COLUMNS = ("essay_id", "score", "role")


class ValidationError(ValueError):
    """Input failed schema or range validation; maps to exit code 2."""

    def __init__(self, code: str, detail: str = "", line: int | None = None,
                 field_name: str | None = None):
        self.code = code
        self.detail = detail
        self.line = line
        self.field_name = field_name
        parts = [code]
        if field_name:
            parts.append(f"field={field_name}")
        if line is not None:
            parts.append(f"line={line}")
        if detail:
            parts.append(detail)
        super().__init__(": ".join(parts))

    def to_json(self) -> str:
        payload = {"error": self.code}
        if self.detail:
            payload["detail"] = self.detail
        if self.line is not None:
            payload["line"] = self.line
        if self.field_name:
            payload["field"] = self.field_name
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class ScoreRow:
    essay_id: str
    score: float
    role: str
    group_id: str | None = None
    population: str | None = None
    edit_intensity: int | None = None


@dataclass
class ScoreTable:
    """Validated score rows, in file order."""

    rows: list[ScoreRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)


def _validate_row(raw: dict, line: int, seen_ids: set) -> ScoreRow:
    essay_id = str(raw.get("essay_id") or "").strip()
    if not essay_id:
        raise ValidationError("missing_essay_id", line=line, field_name="essay_id")
    if essay_id in seen_ids:
        raise ValidationError("duplicate_essay_id", detail=essay_id, line=line,
                              field_name="essay_id")
    seen_ids.add(essay_id)

    raw_score = raw.get("score")
    try:
        score = float(raw_score)
    except (TypeError, ValueError):
        raise ValidationError("invalid_score", detail=repr(raw_score), line=line,
                              field_name="score") from None
    if not 0.0 < score <= 1.0:
        raise ValidationError("score_out_of_range", detail=repr(score), line=line,
                              field_name="score")

    role = str(raw.get("role") or "").strip()
    if role not in VALID_ROLES:
        raise ValidationError("invalid_role", detail=repr(role), line=line,
                              field_name="role")

    group_id = raw.get("group_id")
    group_id = str(group_id).strip() if group_id not in (None, "") else None

    population = raw.get("population")
    population = str(population).strip() if population not in (None, "") else None
    if population is not None and population not in VALID_POPULATIONS:
        raise ValidationError("invalid_population", detail=repr(population),
                              line=line, field_name="population")

    intensity_raw = raw.get("edit_intensity")
    intensity = None
    if intensity_raw not in (None, ""):
        try:
            intensity = int(intensity_raw)
        except (TypeError, ValueError):
            raise ValidationError("invalid_edit_intensity", detail=repr(intensity_raw),
                                  line=line, field_name="edit_intensity") from None
        if not 1 <= intensity <= 7:
            raise ValidationError("invalid_edit_intensity", detail=repr(intensity),
                                  line=line, field_name="edit_intensity")

    return ScoreRow(essay_id=essay_id, score=score, role=role, group_id=group_id,
                    population=population, edit_intensity=intensity)


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt:
        if fmt not in ("csv", "json"):
            raise ValidationError("unknown_format", detail=fmt)
        return fmt
    suffix = path.suffix.lower().lstrip(".")
    return suffix if suffix in ("csv", "json") else "csv"


def ingest(path, fmt: str | None = None) -> ScoreTable:
    """Read and validate a score table from CSV or JSON (row order preserved)."""
    path = Path(path)
    if not path.exists():
        raise ValidationError("file_not_found", detail=str(path))
    fmt = _infer_format(path, fmt)
    seen: set = set()
    rows: list[ScoreRow] = []
    if fmt == "csv":
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValidationError("empty_file", detail=str(path))
            for col in _REQUIRED_COLUMNS:
                if col not in reader.fieldnames:
                    raise ValidationError("missing_column", field_name=col, line=1)
            for raw in reader:
                if raw.get(None):
                    raise ValidationError("extra_fields", line=reader.line_num)
                rows.append(_validate_row(raw, reader.line_num, seen))
    else:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError("parse_error", detail=str(exc),
                                  line=exc.lineno) from None
        if not isinstance(payload, list):
            raise ValidationError("schema_violation", detail="expected a JSON array")
        for i, raw in enumerate(payload, start=1):
            if not isinstance(raw, dict):
                raise ValidationError("schema_violation", detail="row is not an object",
                                      line=i)
            rows.append(_validate_row(raw, i, seen))
    return ScoreTable(rows=rows)


def emit_score_table(table: ScoreTable, path, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = _infer_format(path, fmt)
    if fmt == "csv":
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for r in table.rows:
                writer.writerow([
                    r.essay_id,
                    repr(r.score),
                    r.role,
                    r.group_id or "",
                    r.population or "",
                    "" if r.edit_intensity is None else r.edit_intensity,
                ])
    else:
        payload = [
            {k: v for k, v in (
                ("essay_id", r.essay_id), ("score", r.score), ("role", r.role),
                ("group_id", r.group_id), ("population", r.population),
                ("edit_intensity", r.edit_intensity)) if v is not None}
            for r in table.rows
        ]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_decisions_csv(path, rows: Iterable[tuple[str, float, bool]]) -> None:
    """Write ``(essay_id, conformal_p, flagged)`` rows.

    p must be a Python float (``array.tolist()``): under numpy 2, ``repr``
    of a numpy float64 is ``np.float64(...)``, not the plain decimal.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["essay_id", "conformal_p", "flagged"])
        for essay_id, p, flagged in rows:
            writer.writerow([essay_id, repr(p), "true" if flagged else "false"])


def write_metrics_csv(path, report: MetricsReport, scenario: str) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "method", "null_prompt", "alt_prompt", "cal_size",
                         "status", "reason", "fpr", "power", "n_cells",
                         "n_outliers_total"])
        for row in report.rows:
            writer.writerow([scenario, row.method, row.null_prompt, row.alt_prompt,
                             row.cal_size, "ok", "", _fmt(row.fpr), _fmt(row.power),
                             row.n_cells, row.n_outliers_total])
        for om in report.omitted:
            writer.writerow([scenario, om.method, om.null_prompt, om.alt_prompt,
                             om.cal_size, "omitted", om.reason, "", "", "", ""])


def seed_level_rows(report: MetricsReport) -> list[tuple]:
    """(method, null, alt, cal_size, seed, metric, value) rows for plotting.

    Values are per-seed means over the non-excluded prompt replicates, i.e.
    one step short of the across-seed average in the aggregate rows.
    """
    buckets: dict[tuple, list] = {}
    for c in report.cells:
        if c.excluded:
            continue
        buckets.setdefault(
            (c.method, c.null_prompt, c.alt_prompt, c.cal_size, c.seed), []).append(c)
    out = []
    for key in sorted(buckets):
        cells = buckets[key]
        out.append((*key, "fpr", fmean(c.fpr for c in cells)))
        out.append((*key, "power", fmean(c.power for c in cells)))
    return out


def write_plot_csv(path, report: MetricsReport, scenario: str) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "method", "null_prompt", "alt_prompt",
                         "cal_size", "seed", "metric", "value"])
        for method, null_p, alt_p, size, seed, metric, value in seed_level_rows(report):
            writer.writerow([scenario, method, null_p, alt_p, size, seed, metric,
                             _fmt(value)])


def report_to_dict(report: MetricsReport, scenario: str) -> dict:
    return {
        "scenario": scenario,
        "aggregation": AGG_PER_PROMPT_MEAN,
        "seeds": list(report.seeds),
        "rows": [
            {
                "method": r.method, "null_prompt": r.null_prompt,
                "alt_prompt": r.alt_prompt, "cal_size": r.cal_size,
                "fpr": r.fpr, "power": r.power, "n_cells": r.n_cells,
                "n_outliers_total": r.n_outliers_total,
            }
            for r in report.rows
        ],
        "omitted": [
            {
                "method": o.method, "null_prompt": o.null_prompt,
                "alt_prompt": o.alt_prompt, "cal_size": o.cal_size,
                "reason": o.reason,
            }
            for o in report.omitted
        ],
        "cells": [
            {
                "method": c.method, "null_prompt": c.null_prompt,
                "alt_prompt": c.alt_prompt, "cal_size": c.cal_size,
                "seed": c.seed, "prompt": c.prompt, "fpr": c.fpr, "power": c.power,
                "n_outliers": c.n_outliers,
                "outlier_proportion": c.outlier_proportion,
                "excluded": c.excluded, "n_tests": c.n_tests,
                "suspect_flag_rate": c.suspect_flag_rate,
            }
            for c in report.cells
        ],
    }


def write_metrics_json(path, report: MetricsReport, scenario: str) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report, scenario), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(
    command: str,
    params: dict,
    seeds: Iterable[int],
    inputs: dict[str, Path],
    outputs: dict[str, Path],
    extra: dict | None = None,
) -> dict:
    config_hash = sha256_text(canonical_json(params))
    input_digests = {name: sha256_file(p) for name, p in sorted(inputs.items())}
    output_digests = {name: sha256_file(p) for name, p in sorted(outputs.items())}
    run_hash = sha256_text(canonical_json({
        "config": config_hash, "inputs": input_digests, "outputs": output_digests,
    }))
    manifest = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "command": command,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "config_hash": config_hash,
        "seeds": list(seeds),
        "inputs": input_digests,
        "outputs": output_digests,
        "run_hash": run_hash,
    }
    if extra:
        manifest["extra"] = extra
    return manifest


def write_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
