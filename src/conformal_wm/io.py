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
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__ as TOOL_VERSION
from .evaluation import AGG_PER_PROMPT_MEAN, MetricsReport

TOOL_NAME = "conformal-wm"

VALID_ROLES = ("calibration", "test")
VALID_POPULATIONS = ("majority", "minority")

_CSV_COLUMNS = ("essay_id", "score", "role", "group_id", "population", "edit_intensity")
_REQUIRED_COLUMNS = ("essay_id", "score", "role")
_BOM = "\ufeff"  # a byte-order mark, as Excel's "CSV UTF-8" export writes first


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


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Validated score table as columns, in file order.

    ``line`` is each row's source position: the physical file line the
    record ends on for CSV (header = 1), the 1-based array index for JSON.
    """

    essay_id: tuple[str, ...]
    score: np.ndarray  # float64
    role: tuple[str, ...]
    group_id: tuple[str | None, ...]
    population: tuple[str | None, ...]
    edit_intensity: tuple[int | None, ...]
    line: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.essay_id)


def read_text(path) -> str:
    """The UTF-8 text of ``path``, less a leading byte-order mark (BOM).

    A byte that does not decode raises ``encoding_error``, naming its offset
    in the file, and a file that cannot be read ``unreadable_file``.
    """
    try:
        # not "utf-8-sig", whose incremental decoder reads a file holding only
        # the first byte or two of a BOM as empty text
        return Path(path).read_text(encoding="utf-8").removeprefix(_BOM)
    except OSError as exc:  # missing, a directory, ...
        raise ValidationError("unreadable_file", detail=f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(
            "encoding_error",
            detail=f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} "
                   f"is not UTF-8 ({exc.reason})") from None


def read_json(path):
    """The JSON value in ``path``; raises :func:`read_text`'s codes or ``parse_error``."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise ValidationError("parse_error", detail=str(exc),
                              line=getattr(exc, "lineno", None)) from None
    except RecursionError as exc:  # arrays or objects nested too deep
        raise ValidationError("parse_error", detail=str(exc)) from None


def _csv_values(path: Path) -> Iterator[tuple[tuple, int]]:
    """``(values, line)`` per non-blank CSV record, values in column order.

    Reads like ``csv.DictReader``: the first record is the header, the last
    of duplicate header names wins, unknown columns are ignored, a short
    record reads its missing fields as None, and ``line`` is the physical
    line the record ends on. A leading byte-order mark is skipped. A byte
    that is not UTF-8 raises ``encoding_error``, a record the csv module
    rejects (a field over ``csv.field_size_limit()``, or a NUL before Python
    3.11) ``parse_error``, and a file that cannot be opened
    ``unreadable_file``.
    """
    try:
        fh = path.open(newline="", encoding="utf-8")
    except OSError as exc:  # as in read_text
        raise ValidationError("unreadable_file", detail=f"{path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            if fh.read(1) != _BOM:  # as in read_text
                fh.seek(0)
            header = next(reader, None)
            if header is None:
                raise ValidationError("empty_file", detail=str(path))
            index = {name: i for i, name in enumerate(header)}
            for col in _REQUIRED_COLUMNS:
                if col not in index:
                    raise ValidationError("missing_column", field_name=col, line=1)
            width = len(header)
            # absent columns read the None padded on at position ``width``; short
            # records are padded with None up to that position too
            pick = itemgetter(*(index.get(col, width) for col in _CSV_COLUMNS))
            padding = [None] * (width + any(col not in index for col in _CSV_COLUMNS))
            for record in reader:
                if not record:
                    continue
                n = len(record)
                if n > width:
                    raise ValidationError("extra_fields", line=reader.line_num)
                if n < len(padding):
                    record += padding[n:]
                yield pick(record), reader.line_num
        except UnicodeDecodeError:
            # decoded in chunks, so the error's position counts from its chunk:
            # decode the whole file once more for the offset in the file
            read_text(path)
            raise
        except csv.Error as exc:
            raise ValidationError("parse_error", detail=str(exc),
                                  line=reader.line_num) from None


def _json_values(path: Path) -> Iterator[tuple[tuple, int]]:
    """``(values, index)`` per JSON array element, values in column order."""
    payload = read_json(path)
    if not isinstance(payload, list):
        raise ValidationError("schema_violation", detail="expected a JSON array")
    for i, raw in enumerate(payload, start=1):
        if not isinstance(raw, dict):
            raise ValidationError("schema_violation", detail="row is not an object",
                                  line=i)
        yield tuple(raw.get(col) for col in _CSV_COLUMNS), i


def ingest(path) -> ScoreTable:
    """Read and validate a score table: JSON for a ``.json`` suffix (any case), else CSV.

    Each record is checked and its cleaned values appended to one list per
    column, so no row tuple outlives its row and the peak stays near the size
    of the columns.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError("file_not_found", detail=str(path))
    records = _json_values(path) if path.suffix.lower() == ".json" else _csv_values(path)
    ids, scores, roles, groups, populations, intensities, lines = ([] for _ in range(7))
    seen: set = set()
    for (essay_id, raw_score, role, group_id, population, intensity_raw), line in records:
        essay_id = "" if essay_id is None else str(essay_id).strip()  # JSON 0 is an id
        if not essay_id:
            raise ValidationError("missing_essay_id", line=line, field_name="essay_id")
        if essay_id in seen:
            raise ValidationError("duplicate_essay_id", detail=essay_id, line=line,
                                  field_name="essay_id")
        seen.add(essay_id)

        # numbers are ASCII decimals: float() and int() would also read a JSON true
        # as 1.0, 0.1_2 as 0.12 and Arabic-Indic digits as their value
        text = str(raw_score)  # as a CSV cell: a huge JSON int reads as inf
        try:
            if isinstance(raw_score, bool) or "_" in text or not text.isascii():
                raise ValueError
            score = float(text)
        except ValueError:
            raise ValidationError("invalid_score", detail=repr(raw_score), line=line,
                                  field_name="score") from None
        if not 0.0 < score <= 1.0:
            raise ValidationError("score_out_of_range", detail=repr(score), line=line,
                                  field_name="score")

        role = str(role or "").strip()
        if role not in VALID_ROLES:
            raise ValidationError("invalid_role", detail=repr(role), line=line,
                                  field_name="role")

        # an optional cell is absent when it is missing, null or only whitespace
        group_id = None if group_id is None else str(group_id).strip() or None
        population = None if population is None else str(population).strip() or None
        if population is not None and population not in VALID_POPULATIONS:
            raise ValidationError("invalid_population", detail=repr(population),
                                  line=line, field_name="population")

        intensity = None
        cell = "" if intensity_raw is None else str(intensity_raw)
        if cell.strip():
            try:
                if "_" in cell or not cell.isascii():
                    raise ValueError
                intensity = int(cell)  # as a CSV cell: JSON 2.7, 3.0, true fail
            except ValueError:
                raise ValidationError("invalid_edit_intensity", detail=repr(intensity_raw),
                                      line=line, field_name="edit_intensity") from None
            if not 1 <= intensity <= 7:
                raise ValidationError("invalid_edit_intensity", detail=repr(intensity),
                                      line=line, field_name="edit_intensity")

        ids.append(essay_id)
        scores.append(score)
        roles.append(sys.intern(role))  # one string per role, not one per row
        groups.append(group_id)
        populations.append(population)
        intensities.append(intensity)
        lines.append(line)
    return ScoreTable(essay_id=tuple(ids), score=np.array(scores, dtype=np.float64),
                      role=tuple(roles), group_id=tuple(groups),
                      population=tuple(populations), edit_intensity=tuple(intensities),
                      line=tuple(lines))


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


# Rows the decisions writer formats per batch: its per-row index and text
# lists live for one batch, so its memory does not grow with the table.
_DECISION_BATCH_ROWS = 1024


def write_decisions_csv(path, essay_ids: Sequence[str], p: np.ndarray,
                        flagged: np.ndarray) -> None:
    """Write one ``essay_id, conformal_p, flagged`` row per test essay, in order.

    Each p is written as ``repr`` of its Python float, formatted once per
    distinct bit pattern: a rank rule's p takes at most n + 1 values, however
    many rows there are. Each batch of rows finds its strings among the
    distinct patterns by ``searchsorted``, so no string is made per row. A
    batch whose ids need no CSV quoting (no ``,``, ``"``, CR or LF) is written
    as one joined string, the bytes ``csv.writer`` would write; others go
    through it.
    """
    bits = np.asarray(p, dtype=np.float64).view(np.int64)
    distinct = np.unique(bits)
    p_text = [repr(x) for x in distinct.view(np.float64).tolist()]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["essay_id", "conformal_p", "flagged"])
        for start in range(0, bits.size, _DECISION_BATCH_ROWS):
            rows = slice(start, start + _DECISION_BATCH_ROWS)
            ids, flags = essay_ids[rows], flagged[rows].tolist()
            ps = map(p_text.__getitem__, np.searchsorted(distinct, bits[rows]).tolist())
            joined_ids = "".join(ids)
            if any(c in joined_ids for c in ',"\r\n'):
                writer.writerows(zip(ids, ps, map(("false", "true").__getitem__, flags)))
            else:  # csv.writer's bytes, with no string made per row
                fh.write("".join(chain.from_iterable(zip(
                    ids, repeat(","), ps, map((",false\r\n", ",true\r\n").__getitem__, flags)))))


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


def write_plot_csv(path, report: MetricsReport, scenario: str) -> None:
    """Per-seed means (long format), one step short of the aggregate rows."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "method", "null_prompt", "alt_prompt",
                         "cal_size", "seed", "metric", "value"])
        for row in report.rows:
            key = (scenario, row.method, row.null_prompt, row.alt_prompt, row.cal_size)
            for seed, fpr, power in row.by_seed:
                writer.writerow([*key, seed, "fpr", _fmt(fpr)])
                writer.writerow([*key, seed, "power", _fmt(power)])


def report_to_dict(report: MetricsReport, scenario: str) -> dict:
    """The report's rows (without ``by_seed``), omitted pairs and cells, field by field."""
    return {
        "scenario": scenario,
        "aggregation": AGG_PER_PROMPT_MEAN,
        "seeds": list(report.seeds),
        "rows": [{k: v for k, v in vars(r).items() if k != "by_seed"} for r in report.rows],
        "omitted": [dict(vars(o)) for o in report.omitted],
        "cells": [dict(vars(c)) for c in report.cells],
    }


# Item separator of a flat dict three levels deep in an indent-2 document.
_FLAT_ITEMS = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def write_metrics_json(path, report: MetricsReport, scenario: str) -> None:
    """The bytes of ``json.dumps(report_to_dict(...), indent=2, sort_keys=True)``.

    An indent would select json's pure-Python encoder; here the C encoder
    writes each list item, and the two outer levels are assembled around them.
    """
    def list_item(value) -> str:
        if isinstance(value, dict) and value:
            return "{\n      " + _FLAT_ITEMS.encode(value)[1:-1] + "\n    }"
        return json.dumps(value)

    fields = []
    for key, value in sorted(report_to_dict(report, scenario).items()):
        if isinstance(value, list) and value:
            text = "[\n    " + ",\n    ".join(map(list_item, value)) + "\n  ]"
        else:
            text = json.dumps(value)
        fields.append(f"{json.dumps(key)}: {text}")
    Path(path).write_text("{\n  " + ",\n  ".join(fields) + "\n}\n", encoding="utf-8")


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
    diagnostics: dict | None = None,
) -> dict:
    """One run's manifest; ``extra`` and ``diagnostics`` stay out of its hashes."""
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
    if diagnostics:
        manifest["diagnostics"] = diagnostics
    return manifest


def write_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
