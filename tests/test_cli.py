import json

import pytest

from polyselect.cli import main
from polyselect.core import task_from_json


class TestGenTasks:
    def test_emits_valid_task_json(self, capsys):
        code = main(["gen-tasks", "--n", "6", "--alpha", "2", "--r", "2", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        task = task_from_json(out)
        assert task.support.rows == 2 * 4
        assert task.meta.alpha == 2

    def test_writes_files(self, tmp_path, capsys):
        code = main(
            ["gen-tasks", "--count", "3", "--out-dir", str(tmp_path), "--n", "5", "--alpha", "2"]
        )
        assert code == 0
        files = sorted(tmp_path.glob("task_*.json"))
        assert len(files) == 3
        task_from_json(files[0].read_text())

    def test_sphere_family(self, capsys):
        code = main(["gen-tasks", "--family", "sphere", "--sample-count", "8", "--seed", "1"])
        assert code == 0
        task = task_from_json(capsys.readouterr().out.strip())
        assert task.support.cols == 3


class TestEval:
    def test_eval_generated_csv(self, capsys):
        code = main(["eval", "--n", "5", "--alpha", "2", "--r", "3", "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,accuracy"
        assert len(lines) == 4

    def test_eval_task_file_json(self, tmp_path, capsys):
        main(["gen-tasks", "--n", "5", "--alpha", "2", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        task_file = next(tmp_path.glob("task_*.json"))
        code = main(
            ["eval", "--task", str(task_file), "--methods", "Attn", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["method"] == "Attn"

    def test_dump_scores(self, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        code = main(
            ["eval", "--n", "5", "--alpha", "2", "--dump-scores", str(out), "--methods", "Attn"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "feature_index,score"
        assert len(lines) == 6

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=6\nalpha=3\nseed=4\n")
        code = main(["eval", "--config", str(cfg), "--methods", "Attn", "--format", "json"])
        assert code == 0
        capsys.readouterr()
        # flag overrides config value for n
        code = main(
            ["eval", "--config", str(cfg), "--n", "8", "--methods", "Attn", "--format", "json"]
        )
        assert code == 0


class TestThresholds:
    def test_count(self, capsys):
        code = main(["thresholds", "count", "--n", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 2, "count": 14, "bound_2_pow_n2": 16}

    def test_approx_parity(self, capsys):
        code = main(["thresholds", "approx", "--n", "2", "--truth-table", "6"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_agreement"] == 3
        assert payload["accuracy"] == 0.75

    def test_verify_xor_worst(self, capsys):
        code = main(["thresholds", "verify-xor-worst", "--n", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert payload["xor_bound"] == 3

    @pytest.mark.parametrize("action", ["count", "approx", "verify-xor-worst"])
    @pytest.mark.parametrize("n", ["0", "5"])
    def test_out_of_range_n_is_usage_error(self, action, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["thresholds", action, "--n", n, "--truth-table", "6"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    def test_missing_table_is_runtime_error(self, capsys):
        code = main(["thresholds", "approx", "--n", "2"])
        assert code == 1


class TestSweepAndTheory:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--alpha", "2", "--r-values", "1", "--beta-values", "0,1",
                "--tasks-per-cell", "3", "--out-dir", str(tmp_path), "--seed", "5",
                "--rounds", "2", "--svg",
            ]
        )
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep_Attn.svg").exists()

    def test_theory_table(self, capsys):
        code = main(["theory", "--alpha", "2", "--beta-values", "0,1", "--trials", "500"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("alpha,beta,p,r,kernel,analytic_mean")
        assert len(lines) == 3


class TestReproduceAndExitCodes:
    def test_reproduce_runs(self, tmp_path, capsys):
        code = main(["reproduce", "appC_boundary", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "appC_boundary_tau1.csv").exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "not_a_recipe"])
        assert exc.value.code == 2

    def test_runtime_error_exits_1(self, capsys):
        code = main(["eval", "--task", "/nonexistent/task.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
