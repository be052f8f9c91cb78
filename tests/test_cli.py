import hashlib
import json

import pytest

from polyselect.boolefn import ThresholdWitness, corners, threshold_stats
from polyselect.cli import main
from polyselect.core import task_from_json
from polyselect.kernels import Kernel
from polyselect.selection import feature_scores
from polyselect.theory import TheoryParams, snr_growth


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

    @pytest.mark.parametrize(
        "flags, cfg", [(["--count", "0"], ""), (["--count", "-1"], ""), ([], "count=0\n")]
    )
    def test_count_below_one_is_runtime_error(self, flags, cfg, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(cfg)
        out = tmp_path / "tasks"
        code = main(["gen-tasks", "--config", str(config), "--out-dir", str(out), *flags])
        assert code == 1
        assert "count must be >= 1" in capsys.readouterr().err
        assert not out.exists()

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
        assert main(["gen-tasks", "--n", "5", "--alpha", "2", "--out-dir", str(tmp_path)]) == 0
        task_file = tmp_path / "task_00000.json"
        out = tmp_path / "scores.csv"
        code = main(["eval", "--task", str(task_file), "--dump-scores", str(out), "--methods", "Attn"])
        assert code == 0
        scores = feature_scores(task_from_json(task_file.read_text()).support)
        expected = "feature_index,score\n" + "".join(f"{i},{s!r}\n" for i, s in enumerate(scores.tolist()))
        assert out.read_bytes() == expected.encode()  # LF line ends, like every CSV written

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

    def test_config_task_equals_gen_tasks_task(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=6\nalpha=2\nr=3\nseed=7\nencoding=zero_one\n")
        assert main(["eval", "--config", str(cfg), "--format", "json"]) == 0
        generated = json.loads(capsys.readouterr().out)
        assert main(["gen-tasks", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        task_file = tmp_path / "task_00000.json"
        assert task_from_json(task_file.read_text()).meta.encoding.value == "zero_one"
        assert main(["eval", "--task", str(task_file), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == generated


class TestThresholds:
    def test_count(self, capsys):
        code = main(["thresholds", "count", "--n", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "n": 2,
            "count": 14,
            "bound_2_pow_n2": 16,
            "solved_fraction": 0.875,
            "mean_best_accuracy": 0.96875,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_prints_threshold_stats(self, n, capsys):
        assert main(["thresholds", "count", "--n", str(n)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["solved_fraction"], payload["mean_best_accuracy"]) == threshold_stats(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_bound_is_never_below_count(self, n, capsys):
        assert main(["thresholds", "count", "--n", str(n)]) == 0
        payload = json.loads(capsys.readouterr().out)
        if n == 1:  # 2^(1^2) = 2 < 4 threshold functions of one input
            assert payload["bound_2_pow_n2"] is None
        else:
            assert payload["bound_2_pow_n2"] == 2 ** (n * n) >= payload["count"]

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_verify_xor_worst_counts_every_offender(self, n, capsys):
        assert main(["thresholds", "verify-xor-worst", "--n", str(n)]) == 0
        payload = json.loads(capsys.readouterr().out)
        if n == 4:  # more offenders than the 64 listed
            assert payload["worst_count"] == 122
            assert len(payload["worst_tables_hex"]) == 64
        else:
            assert payload["worst_count"] == len(payload["worst_tables_hex"])

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

    @pytest.mark.parametrize("action", ["count", "verify-xor-worst"])
    @pytest.mark.parametrize("table", ["zz", "6"])
    def test_truth_table_outside_approx_is_usage_error(self, action, table, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["thresholds", action, "--n", "2", "--truth-table", table])
        assert exc.value.code == 2
        assert "--truth-table" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_approx_witness_is_integer_at_best_distance(self, n, capsys):
        for v in range(2 ** (2**n)):
            assert main(["thresholds", "approx", "--n", str(n), "--truth-table", format(v, "x")]) == 0
            payload = json.loads(capsys.readouterr().out)
            witness = ThresholdWitness(
                weights=tuple(payload["witness_weights"]), threshold=payload["witness_threshold"]
            )
            assert all(type(w) is int for w in (*witness.weights, witness.threshold))
            table = sum(
                1 << i
                for i, x in enumerate(corners(n))
                if sum(w * c for w, c in zip(witness.weights, x)) > witness.threshold
            )
            assert bin(table ^ v).count("1") == 2**n - payload["max_agreement"]


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--r-values", "1", "--beta-values", "-1"], "beta_values must all be >= 0"),
            (["--r-values", "0", "--beta-values", "1"], "r_values must all be >= 1"),
            (["--r-values", "2,-3", "--beta-values", "1"], "r_values must all be >= 1"),
            (["--alpha", "0", "--r-values", "1", "--beta-values", "1"], "alpha must lie in"),
        ],
    )
    def test_bad_grid_is_runtime_error_with_no_directory(self, flags, message, tmp_path, capsys):
        out = tmp_path / "D"
        code = main(["sweep", *flags, "--tasks-per-cell", "2", "--out-dir", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_theory_table(self, capsys):
        code = main(["theory", "--alpha", "2", "--beta-values", "0,1", "--trials", "500"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("alpha,beta,p,r,kernel,analytic_mean")
        assert len(lines) == 3

    # sha256 of the first 13 columns (header included) of
    # `theory --alpha 3 --beta-values 0,1,2,3,4 --trials 2000 --seed 0`, taken
    # before the moment helpers were shared and the snr columns were added
    @pytest.mark.parametrize(
        "kernel, digest",
        [
            ("dot", "5d48e013deb98ead8de9f14d1d43ccc2dda210524d17be8b2342851d0b18863d"),
            ("cosine", "b893023997e443c0988ca43022048f38e615f53c74f417b075b1394ca9732fe1"),
            ("sq_euclidean", "a4c3d564b422b007863922002af7086fc38e15ca4c80bb7043c03a3ed554d063"),
        ],
    )
    def test_theory_columns_pinned(self, kernel, digest, capsys):
        argv = ["theory", "--alpha", "3", "--beta-values", "0,1,2,3,4", "--trials", "2000"]
        assert main(argv + ["--seed", "0", "--kernel", kernel]) == 0
        lines = capsys.readouterr().out.splitlines()
        first13 = "".join(",".join(line.split(",")[:13]) + "\n" for line in lines)
        assert hashlib.sha256(first13.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kernel", ["dot", "sq_euclidean"])
    def test_theory_snr_columns(self, kernel, capsys):
        betas = (3, 4, 5, 6)
        argv = ["theory", "--alpha", "3", "--p", "0.3", "--beta-values", "3,4,5,6"]
        assert main(argv + ["--trials", "20", "--kernel", kernel]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split(",")[13:] == ["snr_ratio", "snr_fitted_slope", "snr_asymptotic_slope"]
        growth = snr_growth(TheoryParams(3, 0, 0.3, 2, Kernel(kernel)), betas)
        for row, ratio in zip(rows, growth.ratios, strict=True):
            snr = row.split(",")[13:]
            assert snr == [repr(ratio), repr(growth.fitted_slope), repr(growth.asymptotic_slope)]

    def test_theory_undefined_snr_slope_is_nan(self, capsys):
        # the ratio is 0 at beta 0 and nan once the mean overflows, so no slope exists
        assert main(["theory", "--beta-values", "0,2000,3000", "--trials", "20"]) == 0
        _, *rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[13:15] for row in rows] == [
            ["0.0", "nan"],
            ["nan", "nan"],
            ["nan", "nan"],
        ]

    def test_theory_snr_empty_for_one_beta(self, capsys):
        assert main(["theory", "--beta-values", "3", "--trials", "20"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert len(header.split(",")) == 16
        assert row.split(",")[13:] == ["", "", ""]


class TestReproduceAndExitCodes:
    def test_reproduce_runs(self, tmp_path, capsys):
        code = main(["reproduce", "appC_boundary", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "appC_boundary_tau1.csv").exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "not_a_recipe"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["theory", "--format", "json"], ["eval", "--out-dir", "x"]]
    )
    def test_unread_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval"],
            ["eval", "--task", "unread.json"],
            ["gen-tasks"],
            ["gen-tasks", "--family", "sphere"],
            ["sweep", "--tasks-per-cell", "1"],
            ["theory", "--trials", "10"],
        ],
    )
    def test_unread_config_key_is_runtime_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a command that ran anyway would write here
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=2\ntau-inv=50\n")
        code = main(argv + ["--config", str(cfg)])
        assert code == 1
        assert "tau-inv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv", [["eval"], ["sweep", "--tasks-per-cell", "1"]])
    @pytest.mark.parametrize("key", ["mode=top_k", "dispersion=std"])
    def test_removed_selection_keys_are_runtime_errors(self, argv, key, tmp_path, monkeypatch, capsys):
        # the method name alone chooses how scores are applied, and scores are MAD
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(key + "\n")
        assert main(argv + ["--config", str(cfg)]) == 1
        assert key.split("=")[0] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "-inf"])
    def test_bad_scale_is_usage_error(self, scale, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "table3_counts", "--out-dir", str(out), f"--scale={scale}"])
        assert exc.value.code == 2
        assert "--scale" in capsys.readouterr().err
        assert not out.exists()

    def test_scale_above_one_is_valid(self, tmp_path, capsys):
        assert main(["reproduce", "table3_counts", "--out-dir", str(tmp_path), "--scale", "2.5"]) == 0
        assert (tmp_path / "table3_counts.json").exists()

    def test_runtime_error_exits_1(self, capsys):
        code = main(["eval", "--task", "/nonexistent/task.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
