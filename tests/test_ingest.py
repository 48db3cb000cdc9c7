"""Columnar ingest against the row-by-row ingest it replaced.

The oracle below is the former ``io.ingest``: ``csv.DictReader`` plus a
dict validator, one tuple of column values per row. The columnar
``ingest`` must give the same rows and source lines on every table, or fail
with the same ``(code, line, field, detail)``.
"""

import csv
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conformal_wm import cli
from conformal_wm import io as io_mod
from conformal_wm.io import ValidationError, ingest

# ---------------------------------------------------------------------------
# Oracle: the row-by-row ingest, kept verbatim apart from returning lines, from
# rejecting the JSON types a CSV cell cannot hold (a bool score, a bool or float
# intensity), from reading a JSON id or score as its CSV text, from reading an
# optional cell of only whitespace as absent, and from rejecting a score or
# intensity that is not ASCII or holds "_"
# ---------------------------------------------------------------------------


def _ascii_decimal(value) -> bool:
    text = str(value)
    return text.isascii() and "_" not in text


def _oracle_validate_row(raw: dict, line: int, seen_ids: set) -> tuple:
    essay_id = raw.get("essay_id")
    essay_id = "" if essay_id is None else str(essay_id).strip()
    if not essay_id:
        raise ValidationError("missing_essay_id", line=line, field_name="essay_id")
    if essay_id in seen_ids:
        raise ValidationError("duplicate_essay_id", detail=essay_id, line=line,
                              field_name="essay_id")
    seen_ids.add(essay_id)

    raw_score = raw.get("score")
    try:
        if isinstance(raw_score, bool) or not _ascii_decimal(raw_score):
            raise TypeError
        score = float(str(raw_score))
    except (TypeError, ValueError):
        raise ValidationError("invalid_score", detail=repr(raw_score), line=line,
                              field_name="score") from None
    if not 0.0 < score <= 1.0:
        raise ValidationError("score_out_of_range", detail=repr(score), line=line,
                              field_name="score")

    role = str(raw.get("role") or "").strip()
    if role not in io_mod.VALID_ROLES:
        raise ValidationError("invalid_role", detail=repr(role), line=line,
                              field_name="role")

    group_id = raw.get("group_id")
    group_id = str(group_id).strip() or None if group_id is not None else None

    population = raw.get("population")
    population = str(population).strip() or None if population is not None else None
    if population is not None and population not in io_mod.VALID_POPULATIONS:
        raise ValidationError("invalid_population", detail=repr(population),
                              line=line, field_name="population")

    intensity_raw = raw.get("edit_intensity")
    intensity = None
    if intensity_raw is not None and str(intensity_raw).strip():
        try:
            if isinstance(intensity_raw, (bool, float)) or not _ascii_decimal(intensity_raw):
                raise TypeError
            intensity = int(intensity_raw)
        except (TypeError, ValueError):
            raise ValidationError("invalid_edit_intensity", detail=repr(intensity_raw),
                                  line=line, field_name="edit_intensity") from None
        if not 1 <= intensity <= 7:
            raise ValidationError("invalid_edit_intensity", detail=repr(intensity),
                                  line=line, field_name="edit_intensity")

    return essay_id, score, role, group_id, population, intensity


def oracle_ingest(path, fmt):
    """(rows, lines) as the DictReader ingest produced them."""
    seen: set = set()
    rows, lines = [], []
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValidationError("empty_file", detail=str(path))
            for col in ("essay_id", "score", "role"):
                if col not in reader.fieldnames:
                    raise ValidationError("missing_column", field_name=col, line=1)
            for raw in reader:
                if raw.get(None):
                    raise ValidationError("extra_fields", line=reader.line_num)
                rows.append(_oracle_validate_row(raw, reader.line_num, seen))
                lines.append(reader.line_num)
    else:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, list):
            raise ValidationError("schema_violation", detail="expected a JSON array")
        for i, raw in enumerate(payload, start=1):
            if not isinstance(raw, dict):
                raise ValidationError("schema_violation", detail="row is not an object",
                                      line=i)
            rows.append(_oracle_validate_row(raw, i, seen))
            lines.append(i)
    return rows, lines


def outcome(fn):
    try:
        return ("ok", fn())
    except ValidationError as exc:
        return ("error", exc.code, exc.line, exc.field_name, exc.detail)


def assert_parity(path, fmt):
    want = outcome(lambda: oracle_ingest(path, fmt))
    got = outcome(lambda: ingest(path))
    if want[0] == "ok":
        assert got[0] == "ok", got
        table = got[1]
        rows, lines = want[1]
        assert list(zip(table.essay_id, table.score.tolist(), table.role, table.group_id,
                        table.population, table.edit_intensity)) == rows
        assert list(table.line) == lines
        assert len(table) == len(rows)
        assert table.score.dtype == np.float64
    else:
        assert got == want
    return want


# ---------------------------------------------------------------------------
# Hand-written cases
# ---------------------------------------------------------------------------

CSV_CASES = {
    "minimal": "essay_id,score,role\ne1,0.5,test\n",
    "blank_lines": "essay_id,score,role\n\ne1,0.5,test\n\n\ne2,0.25,test\n\n",
    "crlf_and_blank": "essay_id,score,role\r\ne1,0.5,test\r\n\r\ne2,0.25,test\r\n",
    "extra_fields": "essay_id,score,role\ne1,0.5,test\ne2,0.25,test,x\n",
    "extra_empty_field": "essay_id,score,role\ne1,0.5,test,\n",
    "short_row_required": "essay_id,score,role\ne1,0.5\n",
    "short_row_optional": "essay_id,score,role,group_id,population\ne1,0.5,test\n",
    "reordered": "role,population,score,essay_id\ntest,minority,0.5,e1\n",
    "unknown_columns": "note,essay_id,score,extra,role\nhi,e1,0.5,,test\n",
    "duplicate_header": "essay_id,score,role,score\ne1,0.5,test,0.75\n",
    "duplicate_header_short": "essay_id,score,role,score\ne1,0.5,test\n",
    "multiline_quoted": 'essay_id,score,note,role\ne1,0.5,"a\nb\nc",test\n'
                        'e2,0.25,"x",bogus\n',
    "multiline_then_dup": 'essay_id,note,score,role\ne1,"a\n\nb",0.5,test\n'
                          'e1,,0.25,test\n',
    "whitespace": "essay_id,score,role,group_id,population,edit_intensity\n"
                  " e1 , 0.5 , test ,  g1 , minority , 3 \n",
    "whitespace_only_group": "essay_id,score,role,group_id\ne1,0.5,test,  \n",
    "whitespace_only_population": "essay_id,score,role,population\ne1,0.5,test,  \n",
    "whitespace_only_intensity": "essay_id,score,role,edit_intensity\ne1,0.5,test, \t\n",
    "duplicate_id": "essay_id,score,role\ne1,0.5,test\ne2,0.5,test\n e1,0.5,test\n",
    "missing_id": "essay_id,score,role\n  ,0.5,test\n",
    "bad_score": "essay_id,score,role\ne1,abc,test\n",
    "empty_score": "essay_id,score,role\ne1,,test\n",
    "nan_score": "essay_id,score,role\ne1,nan,test\n",
    "zero_score": "essay_id,score,role\ne1,0,test\n",
    "tiny_score": "essay_id,score,role\ne1,1e-400,test\n",
    "bad_role": "essay_id,score,role\ne1,0.5,training\n",
    "bad_population": "essay_id,score,role,population\ne1,0.5,test,alien\n",
    "bad_intensity_text": "essay_id,score,role,edit_intensity\ne1,0.5,test,3.0\n",
    "bad_intensity_range": "essay_id,score,role,edit_intensity\ne1,0.5,test,8\n",
    "missing_column": "essay_id,role\ne1,test\n",
    "blank_header": "\nessay_id,score,role\ne1,0.5,test\n",
    "header_only": "essay_id,score,role\n",
    "empty_file": "",
    "error_after_blank": "essay_id,score,role\ne1,0.5,test\n\n\ne2,2,test\n",
}

JSON_CASES = {
    "minimal": [{"essay_id": "e1", "score": 0.5, "role": "test"}],
    "numbers_and_nulls": [
        {"essay_id": 7, "score": "0.5", "role": "calibration", "group_id": 3,
         "population": None, "edit_intensity": 2.0, "note": "ignored"},
        {"essay_id": "e2", "score": 1, "role": " test ", "group_id": ""},
    ],
    "bool_score": [{"essay_id": "e1", "score": True, "role": "test"}],
    "null_score": [{"essay_id": "e1", "score": None, "role": "test"}],
    "missing_role": [{"essay_id": "e1", "score": 0.5}],
    "not_object": [{"essay_id": "e1", "score": 0.5, "role": "test"}, [1, 2]],
    "not_array": {"essay_id": "e1"},
    "duplicate_id": [{"essay_id": "e1", "score": 0.5, "role": "test"},
                     {"essay_id": "e1 ", "score": 0.5, "role": "test"}],
    "bad_intensity": [{"essay_id": "e1", "score": 0.5, "role": "test",
                       "edit_intensity": "x"}],
    "whitespace_only_optional": [{"essay_id": "e1", "score": 0.5, "role": "calibration",
                                  "group_id": " ", "population": "\t",
                                  "edit_intensity": "  "}],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_case_matches_oracle(tmp_path, name):
    path = tmp_path / "table.csv"
    path.write_bytes(CSV_CASES[name].encode("utf-8"))
    assert_parity(path, "csv")


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_case_matches_oracle(tmp_path, name):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(JSON_CASES[name]), encoding="utf-8")
    assert_parity(path, "json")


@pytest.mark.parametrize("field, value, code", [
    ("score", True, "invalid_score"),
    ("score", False, "invalid_score"),
    ("edit_intensity", 2.7, "invalid_edit_intensity"),
    ("edit_intensity", 2.0, "invalid_edit_intensity"),
    ("edit_intensity", True, "invalid_edit_intensity"),
])
def test_json_value_a_csv_cell_cannot_hold_is_rejected(tmp_path, field, value, code):
    # a bool score was once read as 1.0 or 0.0, and a float or bool intensity cut
    # to an int; the CSV cells 2.7 and 3.0 fail too
    rows = [{"essay_id": "e1", "score": 0.5, "role": "test", "edit_intensity": 3},
            {"essay_id": "e2", "score": 0.5, "role": "test", field: value}]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        ingest(path)
    assert (err.value.code, err.value.line, err.value.field_name) == (code, 2, field)
    assert err.value.detail == repr(value)
    path.write_text(json.dumps(rows[:1]), encoding="utf-8")
    assert ingest(path).edit_intensity == (3,)


@pytest.mark.parametrize("field, json_text, cell", [
    ("essay_id", "0", "0"),
    ("essay_id", "0.0", "0.0"),
    ("essay_id", '""', ""),
    ("score", "1" + "0" * 400, "1" + "0" * 400),
    ("score", "1e-400", "1e-400"),
    ("score", "0.1", "0.1"),
    ("score", "1", "1"),
], ids=["id-int-0", "id-float-0", "id-empty", "score-int-over-float-range", "score-tiny",
        "score-float", "score-int"])
def test_json_value_reads_as_its_csv_cell(tmp_path, field, json_text, cell):
    # a JSON id 0 was once missing, and a JSON int beyond the float range an
    # internal OverflowError
    row = {"essay_id": '"e1"', "score": "0.5", "role": '"test"', field: json_text}
    json_path = tmp_path / "table.json"
    json_path.write_text("[{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}]",
                         encoding="utf-8")
    values = {"essay_id": "e1", "score": "0.5", "role": "test", field: cell}
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("essay_id,score,role\n" + ",".join(values.values()) + "\n",
                        encoding="utf-8")
    got, want = outcome(lambda: ingest(json_path)), outcome(lambda: ingest(csv_path))
    if want[0] == "ok":
        assert got[0] == "ok", got
        for name in ("essay_id", "score", "role"):
            assert getattr(got[1], name) == getattr(want[1], name)
    else:  # the same fault, at the array index instead of the physical line
        assert (got[:2], got[3:]) == (want[:2], want[3:])
        assert (got[2], want[2]) == (1, 2)


@pytest.mark.parametrize("field, cell", [
    ("score", "0.1_2"), ("score", "5_0e-2"), ("score", "\u0660.\u0665"),
    ("edit_intensity", "0_3"), ("edit_intensity", " 1_0 "), ("edit_intensity", "\u0663"),
], ids=["score-underscore", "score-underscore-exponent", "score-arabic-indic",
        "intensity-underscore", "intensity-padded-underscore", "intensity-arabic-indic"])
def test_numeric_cell_is_an_ascii_decimal(tmp_path, field, cell):
    # float() and int() read these as 0.12, 0.5, 0.5, 3, 10 and 3
    code = "invalid_score" if field == "score" else "invalid_edit_intensity"
    values = {"essay_id": "e1", "score": "0.5", "role": "test", "edit_intensity": "3",
              field: cell}
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(",".join(values) + "\n" + ",".join(values.values()) + "\n",
                        encoding="utf-8")
    json_path = tmp_path / "table.json"
    json_path.write_text(json.dumps([values]), encoding="utf-8")
    for path, line in ((csv_path, 2), (json_path, 1)):
        with pytest.raises(ValidationError) as err:
            ingest(path)
        assert (err.value.code, err.value.line, err.value.field_name) == (code, line, field)
        assert err.value.detail == repr(cell)


def test_json_int_of_too_many_digits_is_a_parse_error(tmp_path):
    path = tmp_path / "table.json"
    path.write_text('[{"essay_id": "e1", "role": "test", "score": 1' + "0" * 5000 + "}]",
                    encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        ingest(path)
    # Pythons without a limit on int digits read it as inf, like the CSV cell
    limited = hasattr(sys, "get_int_max_str_digits")
    assert err.value.code == ("parse_error" if limited else "score_out_of_range")


def test_lines_are_physical_end_lines(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text('essay_id,score,note,role\n\ne1,0.5,"a\nb",test\n\ne2,0.25,,test\n',
                    encoding="utf-8")
    assert ingest(path).line == (4, 6)


def test_error_line_after_blank_and_multiline(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text('essay_id,score,note,role\ne1,0.5,"a\nb",test\n\ne2,0.5,,tset\n',
                    encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        ingest(path)
    assert (err.value.code, err.value.line, err.value.field_name) == \
        ("invalid_role", 5, "role")


# ---------------------------------------------------------------------------
# Generated tables
# ---------------------------------------------------------------------------

GOOD = {
    "score": ["0.5", "1", "0.125", "1e-12", " 0.75 ", "0.30000000000000004"],
    "role": ["calibration", "test", " test "],
    "group_id": ["", "g1", " g2 ", "g3", "   "],
    "population": ["", "majority", "minority", " minority ", "   "],
    "edit_intensity": ["", "1", "7", " 4 ", "   "],
    "note": ["", "plain", "a,b", 'say "hi"', "two\nlines", "three\n\nlines"],
}
BAD = {
    "score": ["0", "1.5", "abc", "", "nan", "-0.5", "inf", "0.1_2", "5_0e-2",
              "\u0660.\u0665"],
    "role": ["", "train", "Test"],
    "group_id": [],
    "population": ["alien", "Minority"],
    "edit_intensity": ["0", "8", "3.0", "x", "0_3", " 1_0 "],
    "note": [""],
}
COLUMNS = ("essay_id", "score", "role", "group_id", "population", "edit_intensity",
           "note")


@st.composite
def csv_tables(draw):
    columns = list(COLUMNS)
    for col in ("group_id", "population", "edit_intensity", "note"):
        if draw(st.booleans()):
            columns.remove(col)
    if draw(st.integers(0, 9)) == 0:
        columns.remove(draw(st.sampled_from(["essay_id", "score", "role"])))
    if draw(st.integers(0, 9)) == 0:
        columns.append(draw(st.sampled_from(columns)))  # duplicate header name
    columns = draw(st.permutations(columns))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))

    out = io.StringIO()
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerow(columns)
    n_rows = draw(st.integers(0, 6))
    for i in range(n_rows):
        bad = draw(st.integers(0, 11)) == 0
        row = []
        for col in columns:
            if col == "essay_id":
                pool = [f"e{i}", f" e{i} "] + (["", "e0"] if bad else [])
            else:
                pool = GOOD[col] + (BAD[col] if bad else [])
            row.append(draw(st.sampled_from(pool)))
        shape = draw(st.integers(0, 15))
        if shape == 0:
            row = row[:draw(st.integers(0, len(row)))]  # short row
        elif shape == 1:
            row = row + draw(st.lists(st.sampled_from(["", "x"]), min_size=1, max_size=2))
        for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 3)) == 0 else 0):
            out.write(terminator)  # blank line
        if row:
            writer.writerow(row)
        else:
            out.write(terminator)
    return out.getvalue()


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9),
    st.sampled_from([0.5, 1.0, 1e-12, 2.5, 0.0]),
    st.sampled_from(["", " ", "0.5", "x", "g1", "test", "calibration", "minority",
                     " 3 ", "7"]),
)


@st.composite
def json_tables(draw):
    rows = []
    for i in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 9)) == 0:
            rows.append(draw(st.sampled_from([[], "row", 3, None])))
            continue
        row = {"essay_id": draw(st.sampled_from([f"e{i}", i + 1, f" e{i}"])),
               "score": draw(st.sampled_from([0.5, "0.25", 1])),
               "role": draw(st.sampled_from(["test", "calibration"]))}
        for col in ("group_id", "population", "edit_intensity", "note"):
            if draw(st.booleans()):
                row[col] = draw(st.sampled_from(GOOD.get(col, [""])))
        if draw(st.integers(0, 5)) == 0:
            col = draw(st.sampled_from(COLUMNS))
            if draw(st.booleans()):
                row.pop(col, None)
            else:
                row[col] = draw(JSON_VALUES)
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_tables())
def test_generated_csv_matches_oracle(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_parity(path, "csv")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=json_tables())
def test_generated_json_matches_oracle(tmp_path, payload):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert_parity(path, "json")


def test_detect_ingests_through_module_entry_point(tmp_path, monkeypatch):
    calls = []
    real = io_mod.ingest

    def spy(path, *args, **kwargs):
        table = real(path, *args, **kwargs)
        calls.append(len(table))
        return table

    monkeypatch.setattr(io_mod, "ingest", spy)
    cal = tmp_path / "cal.csv"
    cal.write_text("essay_id,score,role\nc1,0.1,calibration\nc2,0.2,calibration\n",
                   encoding="utf-8")
    test = tmp_path / "test.csv"
    test.write_text("essay_id,score,role\nt1,0.05,test\n", encoding="utf-8")
    assert cli.main(["detect", str(cal), str(test), "--out", str(tmp_path / "o")]) == 0
    assert calls == [2, 1]
