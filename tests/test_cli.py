"""Ingestion, CLI commands, exit codes, and reproducible outputs."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import conformal_wm
from conformal_wm.cli import main
from conformal_wm.density import DensityModel, WeightedRule
from conformal_wm import io as io_mod
from conformal_wm import simulate as sim_mod
from conformal_wm.evaluation import CellResult, MetricsReport, aggregate
from conformal_wm.io import ValidationError, ingest
from conformal_wm.simulate import config_from_dict, run_scenario

CAL_CSV = """essay_id,score,role
c1,0.1,calibration
c2,0.2,calibration
c3,0.3,calibration
c4,0.4,calibration
"""

TEST_CSV = """essay_id,score,role
t1,0.05,test
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestIngest:
    def test_minimal_csv(self, tmp_path):
        path = write(tmp_path, "one.csv", "essay_id,score,role\ne1,0.5,test\n")
        table = ingest(path)
        assert len(table) == 1
        assert (table.essay_id, table.score.tolist(), table.role, table.group_id,
                table.population, table.edit_intensity) == \
            (("e1",), [0.5], ("test",), (None,), (None,), (None,))

    def test_score_zero_rejected(self, tmp_path):
        path = write(tmp_path, "bad.csv", "essay_id,score,role\ne1,0,calibration\n")
        with pytest.raises(ValidationError) as err:
            ingest(path)
        assert err.value.code == "score_out_of_range"
        assert err.value.line == 2

    def test_score_above_one_rejected(self, tmp_path):
        path = write(tmp_path, "bad.csv", "essay_id,score,role\ne1,1.5,test\n")
        with pytest.raises(ValidationError, match="score_out_of_range"):
            ingest(path)

    def test_duplicate_essay_id_names_line(self, tmp_path):
        path = write(tmp_path, "dup.csv",
                     "essay_id,score,role\ne1,0.5,test\ne1,0.6,test\n")
        with pytest.raises(ValidationError) as err:
            ingest(path)
        assert err.value.code == "duplicate_essay_id"
        assert err.value.line == 3

    def test_missing_column_named(self, tmp_path):
        path = write(tmp_path, "cols.csv", "essay_id,role\ne1,test\n")
        with pytest.raises(ValidationError) as err:
            ingest(path)
        assert err.value.code == "missing_column"
        assert err.value.field_name == "score"

    def test_invalid_role_and_population(self, tmp_path):
        path = write(tmp_path, "role.csv", "essay_id,score,role\ne1,0.5,training\n")
        with pytest.raises(ValidationError, match="invalid_role"):
            ingest(path)
        path = write(tmp_path, "pop.csv",
                     "essay_id,score,role,population\ne1,0.5,test,alien\n")
        with pytest.raises(ValidationError, match="invalid_population"):
            ingest(path)

    def test_invalid_edit_intensity(self, tmp_path):
        path = write(tmp_path, "lvl.csv",
                     "essay_id,score,role,edit_intensity\ne1,0.5,test,9\n")
        with pytest.raises(ValidationError, match="invalid_edit_intensity"):
            ingest(path)

    def test_json_parse_error_carries_line(self, tmp_path):
        path = write(tmp_path, "broken.json", '[\n{"essay_id": "e1",}\n]\n')
        with pytest.raises(ValidationError) as err:
            ingest(path)
        assert err.value.code == "parse_error"
        assert err.value.line is not None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="file_not_found"):
            ingest(tmp_path / "nope.csv")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_value_identical(self, tmp_path, fmt):
        # scores written as repr text read back to the same doubles
        values = [0.1234567890123456, 1e-12]
        if fmt == "csv":
            text = "essay_id,score,role\n" + "".join(
                f"e{i},{v!r},test\n" for i, v in enumerate(values))
        else:
            text = json.dumps([{"essay_id": f"e{i}", "score": v, "role": "test"}
                               for i, v in enumerate(values)])
        assert "1e-12" in text
        assert ingest(write(tmp_path, f"scores.{fmt}", text)).score.tolist() == values


class TestDetectCommand:
    def test_standard_golden_row(self, tmp_path, capsys):
        cal = write(tmp_path, "cal.csv", CAL_CSV)
        test = write(tmp_path, "test.csv", TEST_CSV)
        out = tmp_path / "out"
        assert main(["detect", cal, test, "--method", "standard",
                     "--out", str(out)]) == 0
        lines = (out / "decisions.csv").read_text().splitlines()
        assert lines[0] == "essay_id,conformal_p,flagged"
        assert lines[1] == "t1,0.2,false"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "detect"
        assert set(manifest["outputs"]) == {"decisions.csv"}

    def test_flagging_at_alpha(self, tmp_path):
        cal = write(tmp_path, "cal.csv", CAL_CSV)
        test = write(tmp_path, "test.csv", TEST_CSV)
        out = tmp_path / "out"
        assert main(["detect", cal, test, "--alpha", "0.3", "--out", str(out)]) == 0
        assert "t1,0.2,true" in (out / "decisions.csv").read_text()

    def test_flag_rule_and_alpha_validation(self, tmp_path, capsys):
        cal = write(tmp_path, "cal.csv", CAL_CSV)
        test = write(tmp_path, "test.csv", TEST_CSV)
        out = tmp_path / "out"
        # p = 1/5 equals alpha = 0.2 to the last bit, and standard flags on p <= alpha
        assert main(["detect", cal, test, "--alpha", "0.2", "--out", str(out)]) == 0
        assert (out / "decisions.csv").read_text().splitlines()[1] == "t1,0.2,true"
        for alpha in ("0", "1", "1.5"):
            assert main(["detect", cal, test, "--alpha", alpha, "--out", str(out)]) == 2
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "alpha_out_of_range"

    @pytest.mark.parametrize("alpha", ["0.5", "0.7"])
    def test_quantile_shift_alpha_bound_exits_2_before_any_fit(self, tmp_path, capsys,
                                                              monkeypatch, alpha):
        # it once exited 2 as invalid_input, and only after fitting the rule
        golden = Path(__file__).parent / "golden"
        cal, test = str(golden / "detect_cal.csv"), str(golden / "detect_test.csv")
        out = tmp_path / "out"

        def no_fit(*args):
            raise AssertionError("the rule was fitted")

        monkeypatch.setattr(conformal_wm.cli, "WeightedRule", no_fit)
        assert main(["detect", cal, test, "--method", "weighted", "--shift", "quantile",
                     "--alpha", alpha, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "alpha_out_of_range", "detail": alpha, "field": "alpha"}
        assert not out.exists()
        # the mean shift takes alpha in [0.5, 1)
        monkeypatch.undo()
        assert main(["detect", cal, test, "--method", "weighted", "--shift", "mean",
                     "--alpha", alpha, "--out", str(out)]) == 0

    def test_hierarchical_missing_group_id_exits_2(self, tmp_path, capsys):
        cal = write(tmp_path, "cal.csv",
                    "essay_id,score,role,group_id\nc1,0.1,calibration,g1\n"
                    "c2,0.2,calibration,\n")
        test = write(tmp_path, "test.csv", TEST_CSV)
        code = main(["detect", cal, test, "--method", "hierarchical",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "missing_group_id"
        assert "c2" in err["detail"]

    @pytest.mark.parametrize("column, first, method, error", [
        # a group id of spaces once made a group of its own
        ("group_id", "g1", "hierarchical", "missing_group_id"),
        # and a population or intensity of spaces exited 2 as invalid
        ("population", "majority", "standard", None),
        ("edit_intensity", "3", "standard", None),
    ])
    def test_whitespace_only_cell_reads_as_empty(self, tmp_path, capsys, column, first,
                                                 method, error):
        results = []
        for cell in ("", "  "):
            cal = write(tmp_path, "cal.csv", f"essay_id,score,role,{column}\n"
                        f"c1,0.1,calibration,{first}\nc2,0.2,calibration,{cell}\n")
            test = write(tmp_path, "test.csv", TEST_CSV)
            code = main(["detect", cal, test, "--method", method,
                         "--out", str(tmp_path / f"out{len(results)}")])
            err = capsys.readouterr().err
            results.append((code, json.loads(err)["error"] if err else None))
        assert results == [(2 if error else 0, error)] * 2

    def test_hierarchical_groups(self, tmp_path):
        cal = write(tmp_path, "cal.csv",
                    "essay_id,score,role,group_id\n"
                    "c1,0.1,calibration,g1\nc2,0.3,calibration,g1\n"
                    "c3,0.2,calibration,g2\nc4,0.4,calibration,g2\n")
        test = write(tmp_path, "test.csv",
                     "essay_id,score,role\nt1,0.25,test\n")
        out = tmp_path / "out"
        assert main(["detect", cal, test, "--method", "hierarchical",
                     "--out", str(out)]) == 0
        line = (out / "decisions.csv").read_text().splitlines()[1]
        essay, p, flagged = line.split(",")
        assert float(p) == pytest.approx(2 / 3)

    def test_weighted_manifest_records_min_branch(self, tmp_path):
        rows = ["essay_id,score,role,population"]
        for i in range(50):
            rows.append(f"maj{i},{0.1 + 0.018 * i:.6f},calibration,majority")
        for i in range(8):
            rows.append(f"min{i},{0.02 + 0.01 * i:.6f},calibration,minority")
        cal = write(tmp_path, "cal.csv", "\n".join(rows) + "\n")
        test = write(tmp_path, "test.csv", "essay_id,score,role\nt1,0.05,test\n")
        out = tmp_path / "out"
        assert main(["detect", cal, test, "--method", "weighted",
                     "--shift", "quantile", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        shift = manifest["extra"]["shift"]
        assert shift["method"] == "quantile"
        assert shift["branch"] == "min"
        assert shift["minority_size"] == 8

    def test_weighted_log_scale_off(self, tmp_path):
        golden = Path(__file__).parent / "golden"
        cal_path, test_path = str(golden / "detect_cal.csv"), str(golden / "detect_test.csv")
        out = tmp_path / "out"
        assert main(["detect", cal_path, test_path, "--method", "weighted",
                     "--log-scale", "off", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["extra"]["shift"]["log_scale"] is False
        cal, tests = ingest(cal_path), ingest(test_path)
        minority = np.array([pop == "minority" for pop in cal.population])
        rules = [WeightedRule(cal.score, minority, 0.5, 0.05, ("quantile",), log_scale)
                 for log_scale in (False, True)]
        (want,), (on,) = (rule.p_values(tests.score) for rule in rules)
        with (out / "decisions.csv").open(newline="", encoding="utf-8") as fh:
            got = np.array([float(row["conformal_p"]) for row in csv.DictReader(fh)])
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() != on.tobytes()

    @pytest.mark.parametrize("n_tests", [1, 25])
    def test_weighted_evaluates_each_kde_a_fixed_number_of_times(
            self, tmp_path, monkeypatch, n_tests):
        rows = ["essay_id,score,role,population"]
        for i in range(40):
            rows.append(f"maj{i},{0.1 + 0.02 * i:.6f},calibration,majority")
        for i in range(12):
            rows.append(f"min{i},{0.02 + 0.01 * i:.6f},calibration,minority")
        cal = write(tmp_path, "cal.csv", "\n".join(rows) + "\n")
        test = write(tmp_path, "test.csv", "essay_id,score,role\n" + "".join(
            f"t{i},{0.01 + 0.03 * i:.6f},test\n" for i in range(n_tests)))
        calls, reads = [], []
        log_evaluate, log_sums = DensityModel.log_evaluate, DensityModel.log_sums

        def counting_log_evaluate(model, x):
            calls.append(model)
            return log_evaluate(model, x)

        def counting_log_sums(grid, x):
            reads.append(np.size(x))
            return log_sums(grid, x)

        monkeypatch.setattr(DensityModel, "log_evaluate", counting_log_evaluate)
        monkeypatch.setattr(DensityModel, "log_sums", counting_log_sums)
        assert main(["detect", cal, test, "--method", "weighted",
                     "--out", str(tmp_path / "out")]) == 0
        # the pool KDE's grid, once at the calibration points and their images
        # under the shift's map, and once at the test points and theirs; the
        # bounds decide every point, so the exact KDE is never evaluated
        assert reads == [2 * 52, 2 * n_tests]
        assert calls == []

    def test_manifest_version_is_package_version(self, tmp_path):
        cal = write(tmp_path, "cal.csv", CAL_CSV)
        test = write(tmp_path, "test.csv", TEST_CSV)
        out = tmp_path / "out"
        assert main(["detect", cal, test, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == conformal_wm.__version__

    def test_pyproject_reads_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert "version" not in config["project"]
        assert config["project"]["dynamic"] == ["version"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "conformal_wm.__version__"}

    def test_ci_workflow_runs_tier1_command(self):
        yaml = pytest.importorskip("yaml")
        root = Path(__file__).resolve().parents[1]
        text = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
        steps = yaml.safe_load(text)["jobs"]["tier1"]["steps"]
        names = [step.get("name") for step in steps]
        runs = {step["name"]: step["run"] for step in steps if "run" in step}
        # test_golden.py runs its cases through the installed script, and is
        # the one place the command is written
        assert runs["Install"] == "pip install -e .[test]"
        assert names.index("Install") < names.index("Tier-1 tests")
        assert "conformal-wm" not in text
        tier1 = next(line for line in (root / "ROADMAP.md").read_text(
            encoding="utf-8").splitlines() if line.startswith("**Tier-1 verify:**"))
        assert f"`{runs['Tier-1 tests']}`" in tier1
        # once more on numpy's baseline SIMD path, where exp and log round
        # differently, on one Python version
        baseline = steps[names.index("Tier-1 tests on numpy's baseline SIMD path")]
        assert baseline["if"] == "matrix.python-version == '3.11'"
        export, command = baseline["run"].strip().splitlines()
        assert export.startswith('export NPY_ENABLE_CPU_FEATURES="$(python -c ')
        assert "__cpu_baseline__" in export and "np.core" in export
        assert command == runs["Tier-1 tests"]

    def test_ci_workflow_runs_each_benchmark_workload(self):
        yaml = pytest.importorskip("yaml")
        root = Path(__file__).resolve().parents[1]
        workflow = yaml.safe_load(
            (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
        runs = [step["run"] for step in workflow["jobs"]["bench-smoke"]["steps"]
                if "run" in step]
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        # each workload runs untraced, and traced so that a tracer counter
        # broken by a changed signature fails too
        for workload in bench["workloads"]:
            for trace in ("--trace 0", "--seconds 5 --trace 1"):
                assert any(run.startswith("python3 perfbench/run.py ")
                           and f"--workload {workload['name']} " in run
                           and run.endswith(f" {trace}") for run in runs)

    def test_benchmark_tracer_builds_against_the_tree(self):
        # the tracer resolves classes it wraps methods of (such as
        # density.DensityModel) when it starts; a class gone from the tree
        # would fail the traced benchmark runs before any workload
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        tracer.Tracer()

    @pytest.mark.parametrize("bandwidth, code", [
        ("inf", "bandwidth_not_finite"), ("nan", "bandwidth_not_positive"),
        ("1e-300", "bandwidth_too_small")])
    def test_weighted_bad_bandwidth_exits_2_with_its_code(self, tmp_path, capsys, bandwidth,
                                                          code):
        golden = Path(__file__).parent / "golden"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            assert main(["detect", str(golden / "detect_cal.csv"),
                         str(golden / "detect_test.csv"), "--method", "weighted",
                         "--bandwidth", bandwidth, "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["detail"].startswith(f"{code}: ")
        assert not (tmp_path / "out" / "decisions.csv").exists()

    def test_weighted_missing_population_exits_2(self, tmp_path, capsys):
        cal = write(tmp_path, "cal.csv", CAL_CSV)
        test = write(tmp_path, "test.csv", TEST_CSV)
        code = main(["detect", cal, test, "--method", "weighted",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == \
            "missing_population"

    def test_role_mismatch_exits_2(self, tmp_path, capsys):
        cal = write(tmp_path, "cal.csv", CAL_CSV)
        code = main(["detect", cal, cal, "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "role_mismatch"


def hierarchical_cal(k):
    """K one-essay groups scored 0.5, 0.51, ...; a test score of 0.05 has rank 0."""
    return "essay_id,score,role,group_id\n" + "".join(
        f"c{i},{0.5 + 0.01 * i:.2f},calibration,g{i}\n" for i in range(k))


class TestDetectDiagnostics:
    @pytest.mark.parametrize("k", [18, 19])
    def test_hierarchical_group_count_at_alpha_005(self, tmp_path, k):
        cal = write(tmp_path, "cal.csv", hierarchical_cal(k))
        test = write(tmp_path, "test.csv", "essay_id,score,role\nt1,0.05,test\n"
                                            "t2,0.9,test\n")
        out = tmp_path / "out"
        assert main(["detect", cal, test, "--method", "hierarchical", "--alpha", "0.05",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        rows = (out / "decisions.csv").read_text().splitlines()[1:]
        flags = [row.split(",")[2] for row in rows]
        if k == 18:
            assert manifest["diagnostics"] == {"n_groups": 18, "min_p": 1 / 19,
                                               "can_flag": False,
                                               "edit_intensity_levels": []}
            assert flags == ["false", "false"]
        else:
            # the smallest p is exactly 0.05, and p <= alpha flags it
            assert manifest["diagnostics"] == {"n_groups": 19, "min_p": 0.05,
                                               "can_flag": True,
                                               "edit_intensity_levels": []}
            assert flags == ["true", "false"]

    @pytest.mark.parametrize("alpha, can_flag", [("0.05", False), ("0.2", True)])
    def test_standard_records_calibration_size(self, tmp_path, alpha, can_flag):
        cal = write(tmp_path, "cal.csv", CAL_CSV)
        test = write(tmp_path, "test.csv", TEST_CSV)
        out = tmp_path / "out"
        assert main(["detect", cal, test, "--alpha", alpha, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"] == {"n_calibration": 4, "min_p": 0.2,
                                           "can_flag": can_flag,
                                           "edit_intensity_levels": []}

    def test_diagnostics_stay_out_of_the_run_hash(self, tmp_path):
        cal = write(tmp_path, "cal.csv", hierarchical_cal(19))
        test = write(tmp_path, "test.csv", TEST_CSV)
        out = tmp_path / "out"
        assert main(["detect", cal, test, "--method", "hierarchical",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        hashed = {"config": manifest["config_hash"], "inputs": manifest["inputs"],
                  "outputs": manifest["outputs"]}
        assert manifest["run_hash"] == io_mod.sha256_text(io_mod.canonical_json(hashed))
        assert "diagnostics" not in manifest["extra"]

    def test_weighted_records_no_rank_diagnostics(self, tmp_path):
        rows = ["essay_id,score,role,population"]
        rows += [f"maj{i},{0.1 + 0.018 * i:.6f},calibration,majority" for i in range(30)]
        rows += [f"min{i},{0.02 + 0.01 * i:.6f},calibration,minority" for i in range(8)]
        cal = write(tmp_path, "cal.csv", "\n".join(rows) + "\n")
        test = write(tmp_path, "test.csv", TEST_CSV)
        out = tmp_path / "out"
        assert main(["detect", cal, test, "--method", "weighted", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"] == {"edit_intensity_levels": []}

    @pytest.mark.parametrize("method", ["standard", "hierarchical", "weighted"])
    def test_calibration_intensity_levels_recorded_unhashed(self, tmp_path, method):
        # blank and repeated levels, out of order; the test table's levels are not read
        levels = ["3", "", "1", "3", "7", "", "1", "3"]
        rows = ["essay_id,score,role,group_id,population,edit_intensity"]
        rows += [f"c{i},{0.1 + 0.02 * i:.2f},calibration,g{i % 20},"
                 f"{'minority' if i % 4 == 0 else 'majority'},{levels[i % 8]}"
                 for i in range(40)]
        cal = write(tmp_path, "cal.csv", "\n".join(rows) + "\n")
        test = write(tmp_path, "test.csv", "essay_id,score,role,edit_intensity\n"
                                            "t1,0.05,test,5\nt2,0.5,test,2\n")
        out = tmp_path / "out"
        assert main(["detect", cal, test, "--method", method, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["edit_intensity_levels"] == [1, 3, 7]
        hashed = {"config": manifest["config_hash"], "inputs": manifest["inputs"],
                  "outputs": manifest["outputs"]}
        assert manifest["run_hash"] == io_mod.sha256_text(io_mod.canonical_json(hashed))

    @pytest.mark.parametrize("method, config_hash, run_hash", [
        ("standard", "43e6c8a7eb410aabcd978885bd534e81e42947cc66d084743c78b311b9c6221b",
         "60d53717f4238dbe8ddfbc05be3cf380472b0608562221946b489fdd65de71e3"),
        ("hierarchical", "96185b8ddbccd2752a5c1a5e02a77b499fb19ebb30b0a9be67710e039d10a001",
         "9bf6b72528329aff34706f18899d248d91b3668c20797781233713e9c3941717"),
    ])
    def test_golden_hashes_unmoved_by_diagnostics(self, tmp_path, method, config_hash,
                                                  run_hash):
        # the hashes a manifest without the intensity levels had on the golden tables
        golden = Path(__file__).parent / "golden"
        out = tmp_path / "out"
        assert main(["detect", str(golden / "detect_cal.csv"), str(golden / "detect_test.csv"),
                     "--method", method, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["edit_intensity_levels"] == []
        assert (manifest["config_hash"], manifest["run_hash"]) == (config_hash, run_hash)


def per_row_decisions_csv(path, essay_ids, p, flagged):
    """The per-row writer: ``repr`` of each row's p, formatted row by row."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["essay_id", "conformal_p", "flagged"])
        writer.writerows((essay_id, repr(x), "true" if f else "false")
                         for essay_id, x, f in zip(essay_ids, p.tolist(), flagged.tolist()))


class TestDecisionsWriter:
    @pytest.mark.parametrize("case", ["repeats", "distinct", "quoting"])
    def test_bytes_equal_per_row_repr_writer(self, tmp_path, case):
        rng = np.random.default_rng(len(case))
        n = 2 * io_mod._DECISION_BATCH_ROWS + 100  # two full batches and a partial one
        ids = [f"t{i:05d}" for i in range(n)]
        if case == "repeats":
            # a rank rule's grid, plus both zeros, which compare equal but print apart
            p = rng.choice(np.concatenate([np.arange(1, 202) / 201, [0.0, -0.0]]), n)
        else:
            p = rng.random(n)
        if case == "quoting":
            ids = [f'{e},"{i}"' if i % 3 == 0 else f"{e}\n" if i % 3 == 1 else e
                   for i, e in enumerate(ids)]
        flagged = p <= 0.05
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        per_row_decisions_csv(want, ids, p, flagged)
        io_mod.write_decisions_csv(got, ids, p, flagged)
        assert got.read_bytes() == want.read_bytes()
        if case == "distinct":
            assert np.unique(p).size == n

    @pytest.mark.parametrize("n", [io_mod._DECISION_BATCH_ROWS, io_mod._DECISION_BATCH_ROWS + 1,
                                   2 * io_mod._DECISION_BATCH_ROWS + 7])
    @pytest.mark.parametrize("quoted", [None, ",", '"', "\r", "\n"])
    def test_quoting_decided_per_batch(self, tmp_path, n, quoted):
        # at most one id needing quotes, the last: with 1,025 rows it is the
        # second batch's only row, so the first batch is joined and the second
        # goes through csv.writer
        rng = np.random.default_rng(n)
        ids = [f"e{i}" for i in range(n)]
        if quoted:
            ids[-1] = f"x{quoted}y"
        p = rng.choice(np.arange(1, 31) / 31, n)
        flagged = p <= 0.05
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        per_row_decisions_csv(want, ids, p, flagged)
        io_mod.write_decisions_csv(got, ids, p, flagged)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().count(b"\r\n") == n + 1  # header and every row

    def test_detect_passes_the_path_first(self, tmp_path, monkeypatch):
        # perfbench's tracer reads the written size from the first argument
        paths = []
        write_decisions = io_mod.write_decisions_csv

        def recording(*args):
            paths.append(args[0])
            return write_decisions(*args)

        monkeypatch.setattr(io_mod, "write_decisions_csv", recording)
        out = tmp_path / "out"
        assert main(["detect", write(tmp_path, "cal.csv", CAL_CSV),
                     write(tmp_path, "test.csv", TEST_CSV), "--out", str(out)]) == 0
        assert paths == [out / "decisions.csv"]


class TestDetectErrorLines:
    """Errors raised in detect name the source line, as ingest errors do."""

    def run_error(self, capsys, argv):
        assert main(argv) == 2
        return json.loads(capsys.readouterr().err.strip())

    def test_role_mismatch_names_first_data_line(self, tmp_path, capsys):
        test = write(tmp_path, "test.csv", TEST_CSV)
        err = self.run_error(capsys, ["detect", test, test,
                                      "--out", str(tmp_path / "out")])
        assert (err["error"], err["line"], err["field"]) == ("role_mismatch", 2, "role")
        assert "t1" in err["detail"]

    def test_role_mismatch_in_test_table(self, tmp_path, capsys):
        cal = write(tmp_path, "cal.csv", CAL_CSV)
        test = write(tmp_path, "test.csv",
                     "essay_id,score,role\nt1,0.05,test\n\nt2,0.1,calibration\n")
        err = self.run_error(capsys, ["detect", cal, test,
                                      "--out", str(tmp_path / "out")])
        assert (err["error"], err["line"]) == ("role_mismatch", 4)

    def test_missing_group_id_after_blank_line(self, tmp_path, capsys):
        cal = write(tmp_path, "cal.csv",
                    "essay_id,score,role,group_id\nc1,0.1,calibration,g1\n"
                    "\nc2,0.2,calibration,\n")
        test = write(tmp_path, "test.csv", TEST_CSV)
        err = self.run_error(capsys, ["detect", cal, test, "--method", "hierarchical",
                                      "--out", str(tmp_path / "out")])
        assert (err["error"], err["line"], err["field"]) == \
            ("missing_group_id", 4, "group_id")
        assert "c2" in err["detail"]

    def test_missing_population_names_json_index(self, tmp_path, capsys):
        cal = write(tmp_path, "cal.json", json.dumps([
            {"essay_id": "c1", "score": 0.1, "role": "calibration",
             "population": "minority"},
            {"essay_id": "c2", "score": 0.2, "role": "calibration",
             "population": "majority"},
            {"essay_id": "c3", "score": 0.3, "role": "calibration"},
        ]))
        test = write(tmp_path, "test.csv", TEST_CSV)
        err = self.run_error(capsys, ["detect", cal, test, "--method", "weighted",
                                      "--out", str(tmp_path / "out")])
        assert (err["error"], err["line"], err["field"]) == \
            ("missing_population", 3, "population")

    def test_role_mismatch_names_json_index(self, tmp_path, capsys):
        cal = write(tmp_path, "cal.csv", CAL_CSV)
        test = write(tmp_path, "test.json", json.dumps([
            {"essay_id": "t1", "score": 0.1, "role": "test"},
            {"essay_id": "t2", "score": 0.2, "role": "calibration"},
        ]))
        err = self.run_error(capsys, ["detect", cal, test,
                                      "--out", str(tmp_path / "out")])
        assert (err["error"], err["line"]) == ("role_mismatch", 2)


class TestUndecodableInput:
    """A file the CLI cannot read or decode exits 2 with a coded error, whichever reads it,
    and so does an ``--out`` it cannot make a directory."""

    def run_error(self, capsys, argv):
        assert main(argv) == 2
        return json.loads(capsys.readouterr().err.strip())

    def test_non_utf8_csv_table_names_the_offset_in_the_file(self, tmp_path, capsys):
        # the CSV is decoded in chunks, and this byte lies past the first one
        text = "essay_id,score,role\n" + "".join(f"t{i},0.5,test\n" for i in range(10_000))
        data = bytearray(text.encode("utf-8"))
        data[85_022] = 0xFF
        test = tmp_path / "test.csv"
        test.write_bytes(bytes(data))
        err = self.run_error(capsys, ["detect", write(tmp_path, "cal.csv", CAL_CSV),
                                      str(test), "--out", str(tmp_path / "out")])
        assert err["error"] == "encoding_error"
        assert "byte 0xff at offset 85022 " in err["detail"]

    def test_non_utf8_json_table(self, tmp_path, capsys):
        data = b'[{"essay_id": "t\xff1", "score": 0.5, "role": "test"}]'
        test = tmp_path / "test.json"
        test.write_bytes(data)
        err = self.run_error(capsys, ["detect", write(tmp_path, "cal.csv", CAL_CSV),
                                      str(test), "--out", str(tmp_path / "out")])
        assert err["error"] == "encoding_error"
        assert f"byte 0xff at offset {data.index(0xFF)} " in err["detail"]

    def test_non_utf8_simulate_config(self, tmp_path, capsys):
        data = b'{"scenario": "standard\xff"}'
        cfg = tmp_path / "config.json"
        cfg.write_bytes(data)
        err = self.run_error(capsys, ["simulate", str(cfg), "--out", str(tmp_path / "r")])
        assert err["error"] == "encoding_error"
        assert f"byte 0xff at offset {data.index(0xFF)} " in err["detail"]

    def test_non_utf8_bleu_text(self, tmp_path, capsys):
        candidate = tmp_path / "b.txt"
        candidate.write_bytes("naïve text".encode("latin-1"))
        err = self.run_error(capsys, ["bleu", write(tmp_path, "a.txt", "text"),
                                      str(candidate)])
        assert err["error"] == "encoding_error"
        assert "byte 0xef at offset 2 " in err["detail"]

    def test_config_int_of_too_many_digits_is_a_parse_error(self, tmp_path, capsys):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python reads an int of any length")
        cfg = write(tmp_path, "config.json", '{"n_test": 1' + "0" * 5000 + "}")
        err = self.run_error(capsys, ["simulate", cfg, "--out", str(tmp_path / "r")])
        assert err["error"] == "parse_error"
        assert "digits" in err["detail"]

    def test_csv_field_over_the_size_limit_is_a_parse_error(self, tmp_path, capsys):
        test = write(tmp_path, "test.csv", "essay_id,score,role\nt1,0.5,test\n"
                     + "t" * 200_000 + ",0.5,test\n")
        err = self.run_error(capsys, ["detect", write(tmp_path, "cal.csv", CAL_CSV),
                                      test, "--out", str(tmp_path / "out")])
        assert (err["error"], err["line"]) == ("parse_error", 3)
        assert "field limit" in err["detail"]

    @pytest.mark.parametrize("command", ["detect", "simulate"])
    def test_json_nested_too_deep_is_a_parse_error(self, tmp_path, capsys, command):
        # json.loads raises RecursionError here, which once exited 1 as internal
        nested = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
        args = ([write(tmp_path, "cal.csv", CAL_CSV), nested] if command == "detect"
                else [nested])
        err = self.run_error(capsys, [command, *args, "--out", str(tmp_path / "out")])
        assert err["error"] == "parse_error"
        assert "recursion" in err["detail"]

    @pytest.mark.parametrize("name", ["cal.csv", "cal.json"])
    def test_directory_as_detect_table(self, tmp_path, capsys, name):
        (tmp_path / name).mkdir()
        err = self.run_error(capsys, ["detect", str(tmp_path / name),
                                      write(tmp_path, "test.csv", TEST_CSV),
                                      "--out", str(tmp_path / "out")])
        assert err["error"] == "unreadable_file"
        assert err["detail"].startswith(f"{tmp_path / name}: ")

    def test_directory_as_simulate_config(self, tmp_path, capsys):
        (tmp_path / "config.json").mkdir()
        err = self.run_error(capsys, ["simulate", str(tmp_path / "config.json"),
                                      "--out", str(tmp_path / "out")])
        assert err["error"] == "unreadable_file"

    @pytest.mark.parametrize("command", ["detect", "simulate"])
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_through_a_file(self, tmp_path, capsys, command, out):
        write(tmp_path, "file", "not a directory")
        args = ([write(tmp_path, "cal.csv", CAL_CSV), write(tmp_path, "test.csv", TEST_CSV)]
                if command == "detect"
                else [write(tmp_path, "config.json", json.dumps(SMALL_CONFIG))])
        err = self.run_error(capsys, [command, *args, "--out", str(tmp_path / out)])
        assert err["error"] == "unusable_out_dir"
        assert err["detail"].startswith(f"{tmp_path / out}: ")
        assert (tmp_path / "file").read_text(encoding="utf-8") == "not a directory"


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" export writes, is skipped."""

    def run_error(self, capsys, argv):
        assert main(argv) == 2
        return json.loads(capsys.readouterr().err.strip())

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_bom_tables_give_the_same_decisions(self, tmp_path, suffix):
        # once missing_column for essay_id (CSV) or a parse_error (JSON)
        golden = Path(__file__).parent / "golden"
        tables = [(golden / f"detect_{name}.csv").read_text(encoding="utf-8")
                  for name in ("cal", "test")]
        if suffix == ".json":
            tables = [json.dumps(list(csv.DictReader(text.splitlines()))) for text in tables]
        decisions = []
        for prefix in (b"", BOM):
            paths = []
            for name, text in zip(("cal", "test"), tables):
                path = tmp_path / f"{name}{len(prefix)}{suffix}"
                path.write_bytes(prefix + text.encode("utf-8"))
                paths.append(str(path))
            out = tmp_path / f"out{len(prefix)}"
            assert main(["detect", *paths, "--method", "hierarchical", "--out", str(out)]) == 0
            decisions.append((out / "decisions.csv").read_bytes())
        assert decisions[0] == decisions[1]
        assert decisions[0] == (golden / "detect_hierarchical.csv").read_bytes()

    def test_bom_simulate_config_gives_the_same_metrics(self, tmp_path):
        text = json.dumps(dict(SMALL_CONFIG, seeds=[3])).encode("utf-8")
        outputs = []
        for prefix in (b"", BOM):
            cfg = tmp_path / f"config{len(prefix)}.json"
            cfg.write_bytes(prefix + text)
            out = tmp_path / f"r{len(prefix)}"
            assert main(["simulate", str(cfg), "--out", str(out)]) == 0
            outputs.append((out / "metrics.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_bom_bleu_text_gives_the_same_score(self, tmp_path, capsys):
        reference = write(tmp_path, "a.txt", "the cat sat on the mat")
        scores = []
        for prefix in (b"", BOM):
            candidate = tmp_path / f"b{len(prefix)}.txt"
            candidate.write_bytes(prefix + b"the cat sat on a mat")
            assert main(["bleu", reference, str(candidate)]) == 0
            scores.append(json.loads(capsys.readouterr().out))
        assert scores[0] == scores[1]

    @pytest.mark.parametrize("kind", ["csv", "json", "config", "bleu"])
    def test_non_utf8_after_a_bom_names_the_offset_in_the_file(self, tmp_path, capsys, kind):
        data = BOM + {
            # past the CSV reader's first decoded chunk
            "csv": ("essay_id,score,role\n" + "".join(
                f"t{i},0.5,test\n" for i in range(10_000))).encode("utf-8") + b"t\xff,0.5,test\n",
            "json": b'[{"essay_id": "t\xff1", "score": 0.5, "role": "test"}]',
            "config": b'{"scenario": "standard\xff"}',
            "bleu": b"text \xff",
        }[kind]
        path = tmp_path / f"input.{'txt' if kind == 'bleu' else kind.replace('config', 'json')}"
        path.write_bytes(data)
        argv = {"csv": ["detect", write(tmp_path, "cal.csv", CAL_CSV), str(path)],
                "json": ["detect", write(tmp_path, "cal.csv", CAL_CSV), str(path)],
                "config": ["simulate", str(path)],
                "bleu": ["bleu", write(tmp_path, "a.txt", "text"), str(path)]}[kind]
        if kind != "bleu":
            argv += ["--out", str(tmp_path / "out")]
        err = self.run_error(capsys, argv)
        assert err["error"] == "encoding_error"
        assert f"byte 0xff at offset {data.index(0xFF)} " in err["detail"]

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
    def test_part_of_a_bom_is_not_utf8(self, tmp_path, capsys, data):
        # Python's incremental "utf-8-sig" decoder reads these as empty text
        table, cfg = tmp_path / "test.csv", tmp_path / "config.json"
        table.write_bytes(data)
        cfg.write_bytes(data)
        for argv in (["detect", write(tmp_path, "cal.csv", CAL_CSV), str(table)],
                     ["simulate", str(cfg)]):
            err = self.run_error(capsys, [*argv, "--out", str(tmp_path / "out")])
            assert err["error"] == "encoding_error"
            assert "byte 0xef at offset 0 " in err["detail"]


SMALL_CONFIG = {
    "scenario": "standard",
    "seeds": [1, 2],
    "n_test": 300,
    "n_prompts": 1,
    "cal_sizes": [30, 50],
    "null_levels": [1],
    "max_level": 4,
}


class TestSimulateCommand:
    def test_outputs_exist_and_rerun_is_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "config.json", json.dumps(SMALL_CONFIG))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", cfg, "--out", str(out2)]) == 0
        for name in ("metrics.csv", "metrics.json", "plot_data.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["run_hash"] == m2["run_hash"]
        assert m1["config_hash"] == m2["config_hash"]

    def test_thread_flag_leaves_hashes_unchanged(self, tmp_path):
        for scenario in ("standard", "hierarchical", "weighted"):
            # four tasks, so both workers share the config's resolved distributions
            config = dict(SMALL_CONFIG, scenario=scenario, n_prompts=2,
                          minority_sizes=[5, 15])
            cfg = write(tmp_path, f"{scenario}.json", json.dumps(config))
            manifests, outputs = [], []
            for threads in ("1", "2"):
                out = tmp_path / f"{scenario}-t{threads}"
                assert main(["simulate", cfg, "--threads", threads, "--out", str(out)]) == 0
                manifests.append(json.loads((out / "manifest.json").read_text()))
                outputs.append({f: (out / f).read_bytes()
                                for f in ("metrics.csv", "metrics.json", "plot_data.csv")})
            m1, m2 = manifests
            assert outputs[0] == outputs[1], scenario
            assert m1["outputs"] == m2["outputs"]
            assert m1["config_hash"] == m2["config_hash"]
            assert m1["run_hash"] == m2["run_hash"]
            assert (m1["extra"]["threads"], m2["extra"]["threads"]) == (1, 2)

    def test_seed_override_restricts_seed_column(self, tmp_path):
        cfg = write(tmp_path, "config.json", json.dumps(SMALL_CONFIG))
        out = tmp_path / "r"
        assert main(["simulate", cfg, "--seed", "2", "--out", str(out)]) == 0
        lines = (out / "plot_data.csv").read_text().splitlines()[1:]
        seeds = {line.split(",")[5] for line in lines}
        assert seeds == {"2"}

    def test_invalid_config_exits_2_with_field(self, tmp_path, capsys):
        cfg = write(tmp_path, "config.json", json.dumps({"alpha": 2.0}))
        assert main(["simulate", cfg, "--out", str(tmp_path / "r")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "invalid_config"
        assert "alpha" in err["detail"]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "config.json", json.dumps({"n_tets": 5}))
        assert main(["simulate", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "n_tets" in json.loads(capsys.readouterr().err.strip())["detail"]

    @pytest.mark.parametrize("population, level, detail", [
        # a misspelled population was once ignored, and the default drawn
        ("minorty", "1", "unknown_population: minorty"),
        ("majority", "8", "edit_intensity_out_of_range: 8"),
    ])
    def test_bad_distribution_key_exits_2(self, tmp_path, capsys, population, level,
                                          detail):
        config = {"scenario": "weighted",
                  "distributions": {population: {level: {"family": "uniform01"}}}}
        cfg = write(tmp_path, "config.json", json.dumps(config))
        out = tmp_path / "r"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "invalid_config"
        assert detail in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("config, detail", [
        ({"distributions": {"majority": ["x"]}},
         "distributions.majority must be an object"),
        ({"distributions": ["x"]}, "distributions must be an object"),
        ({"distributions": {"majority": {"1": {"family": "beta", "params": ["a"]}}}},
         "params of beta must be an object"),
        ({"n_test": "5"}, "invalid_type: n_test"),
        ({"alpha": "0.05"}, "invalid_type: alpha"),
        ({"cal_sizes": [30.5]}, "invalid_type: cal_sizes"),
        ({"log_scale": 1}, "invalid_type: log_scale"),
        ({"n_prompts": True}, "invalid_type: n_prompts"),
        ({"distributions": {"majority": {"1": {"family": "mixture",
                                               "params": {"components": [1]}}}}},
         "a mixture component must be an object"),
        ({"distributions": {"majority": {"1": {
            "family": "mixture", "params": {"components": [{"family": "beta"}]}}}}},
         "weight=None is not a number"),
        ({"distributions": {"majority": {"1": {"family": "mixture", "params": {
            "components": [{"weight": 1}]}}}}}, "needs a family"),
        ({"distributions": {"majority": {"1": {"family": "beta", "params": {"a": None}}}}},
         "a=None is not a number"),
        ({"scenario": "weighted", "majority_cal_size": 0}, "invalid_counts"),
        ({"scenario": "weighted", "majority_cal_size": -3}, "invalid_counts"),
        # these three had the bare KeyError, TypeError or int() message
        ({"distributions": {"minority": {"3": {"params": {"a": 2.0}}}}},
         "invalid_params: distributions.minority.3 needs a family"),
        ({"distributions": {"minority": {"3": "beta"}}},
         "invalid_config_shape: distributions.minority.3 must be an object, not str"),
        ({"distributions": {"minority": {"one": {"family": "beta"}}}},
         "invalid_config_shape: distributions.minority.one must have an integer level"),
        # a config that is not an object ran the default one, read pairs as a
        # mapping, or exited with Python's own message
        ([], "invalid_config_shape: config must be an object, not list"),
        ([["seeds", [3]]], "invalid_config_shape: config must be an object, not list"),
        (None, "invalid_config_shape: config must be an object, not NoneType"),
        (5, "invalid_config_shape: config must be an object, not int"),
        # a list-valued key took any iterable, and a string as its characters
        ({"seeds": 5}, "invalid_type: seeds=5"),
        ({"seeds": "12"}, "invalid_type: seeds='12'"),
        ({"null_levels": {"1": 2}}, "invalid_type: null_levels={'1': 2}"),
        # a present value that is not an object was once read as no overrides
        ({"distributions": []}, "invalid_config_shape: distributions must be an object, not list"),
        ({"distributions": 0}, "invalid_config_shape: distributions must be an object, not int"),
        ({"distributions": ""}, "invalid_config_shape: distributions must be an object, not str"),
        ({"distributions": False},
         "invalid_config_shape: distributions must be an object, not bool"),
        ({"distributions": None},
         "invalid_config_shape: distributions must be an object, not NoneType"),
        # a number past the range of floats once exited 1 as an internal
        # OverflowError: each takes its field's code
        ({"group_sigma": 10 ** 400}, "invalid_scale_parameter: group_sigma=1000"),
        ({"intensity_logit_sigma": 10 ** 400},
         "invalid_scale_parameter: intensity_logit_sigma=1000"),
        ({"bleu_concentration": -10 ** 400},
         "invalid_scale_parameter: bleu_concentration=-1000"),
        ({"distributions": {"majority": {"1": {"family": "beta", "params": {"a": 10 ** 400}}}}},
         "invalid_params: a=inf, b=1.0"),
        ({"scenario": "weighted", "distributions": {"minority": {"2": {
            "family": "logit_normal", "params": {"mu": -10 ** 400}}}}},
         "invalid_params: mu=-inf, sigma=1.0"),
        ({"distributions": {"majority": {"1": {"family": "mixture", "params": {"components": [
            {"family": "uniform01", "weight": 10 ** 400}]}}}}},
         "invalid_params: mixture weights must be positive, with a finite sum"),
        ({"scenario": "weighted", "bandwidth": 10 ** 400}, "bandwidth_not_finite: 1000"),
        # a count too large for numpy to allocate once failed every task,
        # and exited 1 as an internal cell_failure
        ({"n_prompts": 1, "n_test": 10 ** 30}, "config_too_large: "),
        ({"scenario": "weighted", "n_prompts": 1, "majority_cal_size": 10 ** 30},
         "config_too_large: "),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, config, detail):
        # each of these once escaped validation and exited 1 as an internal
        # error, or exited 2 with an uncoded detail
        cfg = write(tmp_path, "config.json", json.dumps(config))
        out = tmp_path / "r"
        assert main(["simulate", cfg, "--seed", "1", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "invalid_config"
        assert detail in err["detail"]
        assert not out.exists()

    def test_threads_env_var_is_ignored(self, tmp_path, monkeypatch):
        # --threads is the cap's one input; the variable that once set it is not read
        cfg = write(tmp_path, "config.json", json.dumps(SMALL_CONFIG))
        monkeypatch.delenv("CONFORMAL_WM_THREADS", raising=False)
        runs = []
        for env in (None, "many"):
            if env is not None:
                monkeypatch.setenv("CONFORMAL_WM_THREADS", env)
            out = tmp_path / f"r{len(runs)}"
            assert main(["simulate", cfg, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            runs.append(({f: (out / f).read_bytes()
                          for f in ("metrics.csv", "metrics.json", "plot_data.csv")},
                         manifest["run_hash"], manifest["extra"]["threads"]))
        assert runs[0] == runs[1]
        assert runs[1][2] == 1

    @pytest.mark.parametrize("threads, args, detail", [
        # a config's threads key was a second input for the cap; it is now
        # rejected by name whatever its value, never ignored
        (2.5, [], "unknown_config_key: threads"),
        (True, [], "unknown_config_key: threads"),
        (0, [], "unknown_config_key: threads"),
        (None, ["--threads", "0"], "invalid_thread_cap: 0"),
        (None, ["--threads", "-2"], "invalid_thread_cap: -2"),
    ])
    def test_thread_cap_not_a_positive_int_exits_2(self, tmp_path, capsys, threads, args,
                                                   detail):
        config = SMALL_CONFIG if threads is None else dict(SMALL_CONFIG, threads=threads)
        cfg = write(tmp_path, "config.json", json.dumps(config))
        out = tmp_path / "r"
        assert main(["simulate", cfg, *args, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "invalid_config"
        assert detail in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_weighted_alpha_the_quantile_shift_cannot_take_exits_2(self, tmp_path, capsys,
                                                                  monkeypatch, alpha):
        # every task once failed in quantile_shift, and the run exited 1 as internal
        def no_cells(*args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(sim_mod, "_cells", no_cells)
        cfg = write(tmp_path, "config.json",
                    json.dumps({"scenario": "weighted", "alpha": alpha}))
        out = tmp_path / "r"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "invalid_config"
        assert f"alpha_out_of_range: {alpha}" in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("bandwidth, code", [
        ("Infinity", "bandwidth_not_finite"), ("NaN", "bandwidth_not_positive"),
        ("1e-300", "bandwidth_too_small")])
    def test_weighted_bad_bandwidth_exits_2_with_its_code(self, tmp_path, capsys, bandwidth,
                                                          code):
        path = write(tmp_path, "config.json",
                     f'{{"scenario": "weighted", "seeds": [1], "n_prompts": 1, '
                     f'"n_test": 50, "bandwidth": {bandwidth}}}')
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config" and err["detail"].startswith(f"{code}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fields, detail", [
        # a scale no draw can take: rejected before any task runs, not as a cell_failure
        ('"scenario": "hierarchical", "group_sigma": -1',
         "invalid_scale_parameter: group_sigma=-1"),
        ('"bleu_concentration": Infinity', "invalid_scale_parameter: bleu_concentration=inf"),
        # a NaN scale would draw NaN scores, which flag nothing and read as rates of 0
        ('"scenario": "hierarchical", "group_sigma": NaN',
         "invalid_scale_parameter: group_sigma=nan"),
        ('"intensity_logit_sigma": NaN', "invalid_scale_parameter: intensity_logit_sigma=nan"),
        ('"distributions": {"majority": {"4": {"family": "logit_normal", '
         '"params": {"mu": -3.0, "sigma": NaN}}}}', "invalid_params: mu=-3.0, sigma=nan"),
        ('"distributions": {"majority": {"4": {"family": "beta", '
         '"params": {"a": NaN, "b": 9}}}}', "invalid_params: a=nan, b=9.0"),
        ('"intensity_logit_means": [0, -1, -2, NaN, -4, -5, -6]',
         "invalid_params: mu=nan, sigma=1.5"),
        ('"distributions": {"majority": {"4": {"family": "logit_normal", '
         '"params": {"sigma": Infinity}}}}', "invalid_params: mu=0.0, sigma=inf"),
        # a NaN weight, or weights whose sum overflows, get a coded detail, not numpy's message
        ('"distributions": {"majority": {"4": {"family": "mixture", "params": {"components": ['
         '{"family": "beta", "weight": NaN, "params": {"a": 1, "b": 9}}, '
         '{"family": "uniform01", "weight": 1}]}}}}',
         "invalid_params: mixture weights must be positive, with a finite sum"),
        ('"distributions": {"majority": {"4": {"family": "mixture", "params": {"components": ['
         '{"family": "uniform01", "weight": 1e308}, {"family": "uniform01", "weight": 1e308}]}}}}',
         "invalid_params: mixture weights must be positive, with a finite sum"),
        # a parameter is checked by name and type: each of these once ran, and a
        # misspelled name silently took its default
        ('"distributions": {"majority": {"4": {"family": "logit_normal", '
         '"params": {"mu": 0, "sigma": 1.5, "extra": 3}}}}',
         "invalid_params: logit_normal takes no parameter 'extra'"),
        ('"distributions": {"majority": {"4": {"family": "logit_normal", '
         '"params": {"mu": true, "sigma": 1.5}}}}', "invalid_params: mu=True is not a number"),
        ('"distributions": {"majority": {"4": {"family": "logit_normal", '
         '"params": {"mu": "0.5", "sigma": "1.5"}}}}',
         "invalid_params: mu='0.5' is not a number"),
        ('"distributions": {"majority": {"4": {"family": "mixture", "params": {"components": ['
         '{"family": "uniform01", "weight": 1, "wieght": 2}]}}}}',
         "invalid_params: a mixture component takes no key 'wieght'"),
        ('"distributions": {"majority": {"4": {"family": "mixture", "params": {"components": ['
         '{"family": "beta", "weight": 1, "params": {"a": 2, "c": 3}}]}}}}',
         "invalid_params: beta takes no parameter 'c'"),
        ('"distributions": {"majority": {"4": {"family": "mixture", "params": {"components": ['
         '{"family": "uniform01", "weight": true}]}}}}',
         "invalid_params: weight=True is not a number"),
        # a standard run draws no minority score, yet its overrides are checked too
        ('"distributions": {"minority": {"4": {"family": "beta", "params": {"b": "2"}}}}',
         "invalid_params: b='2' is not a number"),
    ])
    def test_non_finite_or_negative_scale_exits_2(self, tmp_path, capsys, fields, detail):
        path = write(tmp_path, "config.json",
                     f'{{"seeds": [1], "n_prompts": 1, "n_test": 50, {fields}}}')
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config" and err["detail"] == detail
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario", ["standard", "hierarchical"])
    def test_rank_scenarios_run_at_alpha_one_half(self, tmp_path, scenario):
        cfg = write(tmp_path, "config.json",
                    json.dumps(dict(SMALL_CONFIG, scenario=scenario, alpha=0.5)))
        out = tmp_path / "r"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "metrics.json").read_text())["cells"]

    def test_config_validated_once_per_command(self, tmp_path, monkeypatch):
        calls = []
        validate = sim_mod.ExperimentConfig.validate

        def counting(config):
            calls.append(config)
            return validate(config)

        monkeypatch.setattr(sim_mod.ExperimentConfig, "validate", counting)
        cfg = write(tmp_path, "config.json", json.dumps(SMALL_CONFIG))
        assert main(["simulate", cfg, "--out", str(tmp_path / "r")]) == 0
        assert len(calls) == 1

    def test_module_run_reports_missing_config(self, tmp_path):
        # ``python -m conformal_wm.cli`` must run the command, not just import
        src = Path(conformal_wm.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        out = tmp_path / "r"
        proc = subprocess.run(
            [sys.executable, "-m", "conformal_wm.cli", "simulate",
             str(tmp_path / "missing.json"), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert json.loads(proc.stderr.strip())["error"] == "file_not_found"
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["standard", "hierarchical", "weighted"])
    def test_metrics_json_equals_indented_dump(self, tmp_path, scenario):
        config = dict(SMALL_CONFIG, scenario=scenario, n_test=40)
        cfg = write(tmp_path, "config.json", json.dumps(config))
        out = tmp_path / "r"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        report = run_scenario(config_from_dict(config))
        data = io_mod.report_to_dict(report, scenario)
        # the run covers omitted conditions and cells without power
        assert data["omitted"] and any(c["power"] is None for c in data["cells"])
        want = json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert (out / "metrics.json").read_text(encoding="utf-8") == want

    def test_metrics_json_edge_reports(self, tmp_path):
        # empty lists, and a cell whose power and suspect rate are both None
        cell = CellResult(null_prompt=1, alt_prompt=2, cal_size=30, fpr=0.0, power=None,
                          n_outliers=3, outlier_proportion=1.0, excluded=True,
                          suspect_flag_rate=None)
        for report in (MetricsReport(cells=[], seeds=[]),
                       MetricsReport(cells=[cell], seeds=[1]),
                       aggregate([cell])):
            path = tmp_path / "metrics.json"
            io_mod.write_metrics_json(path, report, "standard")
            want = json.dumps(io_mod.report_to_dict(report, "standard"), indent=2,
                              sort_keys=True) + "\n"
            assert path.read_text(encoding="utf-8") == want

    def test_plot_csv_schema(self, tmp_path):
        cfg = write(tmp_path, "config.json", json.dumps(SMALL_CONFIG))
        out = tmp_path / "r"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        header = (out / "plot_data.csv").read_text().splitlines()[0]
        assert header == ("scenario,method,null_prompt,alt_prompt,cal_size,"
                          "seed,metric,value")


class TestBleuCommand:
    def test_identical_files(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "The cat sat down.")
        b = write(tmp_path, "b.txt", "the cat sat down")
        assert main(["bleu", a, b]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1.0

    def test_disjoint_files(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "alpha beta")
        b = write(tmp_path, "b.txt", "gamma delta")
        assert main(["bleu", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_hand_pair(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "the cat sat down")
        b = write(tmp_path, "b.txt", "the cat sat")
        assert main(["bleu", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == \
            pytest.approx(0.7165, abs=1e-4)

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "text")
        assert main(["bleu", a, str(tmp_path / "missing.txt")]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == \
            "unreadable_file"
