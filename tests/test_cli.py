"""Ingestion, CLI commands, exit codes, and reproducible outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conformal_wm
from conformal_wm.cli import main
from conformal_wm.density import DensityModel
from conformal_wm.io import ValidationError, ingest

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
        calls = []
        evaluate = DensityModel.evaluate

        def counting_evaluate(model, x):
            calls.append(model)
            return evaluate(model, x)

        monkeypatch.setattr(DensityModel, "evaluate", counting_evaluate)
        assert main(["detect", cal, test, "--method", "weighted",
                     "--out", str(tmp_path / "out")]) == 0
        # both KDEs, once at the calibration points and once at the test points
        assert len(calls) == 4

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
        workflow = yaml.safe_load(
            (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
        steps = workflow["jobs"]["tier1"]["steps"]
        runs = [step["run"] for step in steps if "run" in step]
        assert runs[0] == "pip install -e .[test]"
        tier1 = next(line for line in (root / "ROADMAP.md").read_text(
            encoding="utf-8").splitlines() if line.startswith("**Tier-1 verify:**"))
        assert f"`{runs[-1]}`" in tier1

    def test_ci_workflow_runs_each_benchmark_workload(self):
        yaml = pytest.importorskip("yaml")
        root = Path(__file__).resolve().parents[1]
        workflow = yaml.safe_load(
            (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
        runs = [step["run"] for step in workflow["jobs"]["bench-smoke"]["steps"]
                if "run" in step]
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        for workload in bench["workloads"]:
            assert any(run.startswith("python3 perfbench/run.py ")
                       and f"--workload {workload['name']} " in run for run in runs)

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
        cfg = write(tmp_path, "config.json", json.dumps(SMALL_CONFIG))
        manifests = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(["simulate", cfg, "--threads", threads, "--out", str(out)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        m1, m2 = manifests
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
