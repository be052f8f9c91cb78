import hashlib
import json
import math
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from polyselect import selection
from polyselect.bench import SweepSpec, emit_csv, run_sweep
from polyselect.boolefn import ThresholdWitness, corners, threshold_stats
from polyselect.cli import build_parser, main
from polyselect.core import Encoding, task_from_json, task_to_json
from polyselect.kernels import AttentionConfig, Kernel
from polyselect.selection import feature_scores
from polyselect.theory import TheoryParams, snr_growth
from test_bench import parse_csv


# the flags of the boolean task spec, which gen-tasks --family sphere and eval --task do not read
BOOLEAN_FLAGS = [
    ("--n", "6"), ("--alpha", "2"), ("--p", "0.3"), ("--r", "2"),
    ("--query-count", "5"), ("--encoding", "zero_one"),
]


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

    @pytest.mark.parametrize(
        "flags, unread",
        [
            *((["--family", "sphere", flag, value], flag) for flag, value in BOOLEAN_FLAGS),
            (["--sample-count", "8"], "--sample-count"),
            (["--family", "boolean", "--sample-count", "8"], "--sample-count"),
        ],
    )
    def test_flag_of_the_other_family_is_usage_error(self, flags, unread, tmp_path, capsys):
        out = tmp_path / "tasks"
        with pytest.raises(SystemExit) as exc:
            main(["gen-tasks", "--out-dir", str(out), *flags])
        assert exc.value.code == 2
        assert f"does not read {unread}" in capsys.readouterr().err
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

    @pytest.mark.parametrize("source", ["generated", "task_file", "missing_task_file"])
    def test_repeated_methods_are_runtime_error(self, source, tmp_path, capsys):
        # rejected before the task is read or generated, so a missing file is not opened
        task = []
        if source == "task_file":
            assert main(["gen-tasks", "--out-dir", str(tmp_path)]) == 0
        if source != "generated":
            task = ["--task", str(tmp_path / "task_00000.json")]
        capsys.readouterr()
        scores = tmp_path / "scores.csv"
        assert main(["eval", *task, "--methods", "Attn", "Attn", "--dump-scores", str(scores)]) == 1
        assert capsys.readouterr() == ("", "error: methods must not repeat a value, got ['Attn', 'Attn']\n")
        assert not scores.exists()

    def test_selection_methods_share_one_scoring(self, tmp_path, monkeypatch, capsys):
        # eval classifies under every method in one call, as a sweep chunk does;
        # --dump-scores scores the task once more
        scorings = []
        scores = selection._scores
        monkeypatch.setattr(selection, "_scores", lambda *args: scorings.append(args) or scores(*args))
        argv = ["eval", "--methods", "AttnSoftFS", "AttnSoftFSNorm", "AttnTopK"]
        assert main(argv) == 0
        assert len(scorings) == 1
        scorings.clear()
        assert main([*argv, "--dump-scores", str(tmp_path / "scores.csv")]) == 0
        assert len(scorings) == 2

    def test_top_k_defaults_to_active_count(self, capsys):
        def out(seed, *top_k):
            argv = ["eval", "--n", "9", "--alpha", "3", "--r", "2", "--seed", str(seed), "--methods", "AttnTopK"]
            assert main([*argv, *top_k]) == 0
            return capsys.readouterr().out

        default = [out(seed) for seed in range(8)]
        assert default == [out(seed, "--top-k", "3") for seed in range(8)]
        assert default != [out(seed, "--top-k", "1") for seed in range(8)]

    def test_task_without_metadata_needs_top_k(self, tmp_path, capsys):
        # a sphere task has no active count to default AttnTopK's k to
        assert main(["gen-tasks", "--family", "sphere", "--sample-count", "8", "--out-dir", str(tmp_path)]) == 0
        task_file = tmp_path / "task_00000.json"
        capsys.readouterr()
        assert main(["eval", "--task", str(task_file), "--methods", "AttnTopK"]) == 1
        assert capsys.readouterr() == ("", "error: AttnTopK needs top_k (or task metadata with an active count)\n")
        assert main(["eval", "--task", str(task_file), "--methods", "AttnTopK", "--top-k", "2"]) == 0

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--methods", "Nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'Nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_epsilon_is_runtime_error(self, value, capsys):
        # an infinite epsilon would standardise every feature to 0 and still print accuracies
        assert main(["eval", "--epsilon", value]) == 1
        assert capsys.readouterr() == ("", f"error: epsilon must be positive and finite, got {value}\n")

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

    @pytest.mark.parametrize("flag, value", [("--seed", "7"), *BOOLEAN_FLAGS])
    def test_task_file_with_task_flag_is_usage_error(self, flag, value, tmp_path, capsys):
        # the flag is read only when eval generates its task, and the file is never opened
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--task", str(tmp_path / "unread.json"), flag, value])
        assert exc.value.code == 2
        assert f"eval --task does not read {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("epsilon", "1e-6"), ("query_count", "7"), ("encoding", "zero_one")]
    )
    def test_config_only_keys_have_flags(self, flag, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}={value}\n")
        argv = ["eval", "--n", "6", "--alpha", "2", "--r", "3", "--seed", "4"]
        assert main([*argv, "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main([*argv, "--" + flag.replace("_", "-"), value]) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize(
        "part, key, value",
        [
            ("support", "labels", [0.6, 1.6]),
            ("query", "labels", [True, 0]),
            ("support", "k", 2.9),
            ("meta", "alpha", 2.0),
            ("meta", "r", 3.5),
            ("meta", "seed", 7.2),
            ("meta", "active_indices", [0.4, 1]),
        ],
    )
    def test_non_integer_task_field_is_runtime_error(self, part, key, value, tmp_path, capsys):
        assert main(["gen-tasks", "--n", "5", "--alpha", "2", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        task_file = tmp_path / "task_00000.json"
        obj = json.loads(task_file.read_text())
        if key == "labels":
            value = value + obj[part]["labels"][len(value):]
        obj[part][key] = value
        task_file.write_text(json.dumps(obj))
        assert main(["eval", "--task", str(task_file)]) == 1
        assert "must be a JSON integer" in capsys.readouterr().err

    @pytest.mark.parametrize("part", ["support", "query"])
    def test_stacked_task_file_is_runtime_error(self, part, tmp_path, capsys):
        assert main(["gen-tasks", "--n", "5", "--alpha", "2", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        task_file = tmp_path / "task_00000.json"
        obj = json.loads(task_file.read_text())
        rows = len(obj[part]["features"])
        obj[part]["features"] = [obj[part]["features"]] * 2
        task_file.write_text(json.dumps(obj))
        assert main(["eval", "--task", str(task_file)]) == 1
        message = f"{part} features must be a list of rows, got shape (2, {rows}, 5)"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_task_file_with_repeated_active_index_is_runtime_error(self, tmp_path, capsys):
        # gen-tasks draws distinct indices, so a repeated one comes from an edited file
        assert main(["gen-tasks", "--n", "5", "--alpha", "2", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        task_file = tmp_path / "task_00000.json"
        obj = json.loads(task_file.read_text())
        obj["meta"]["active_indices"] = [1, 1]
        task_file.write_text(json.dumps(obj))
        assert main(["eval", "--task", str(task_file)]) == 1
        assert capsys.readouterr() == ("", "error: active indices must be distinct, got [1, 1]\n")

    def test_task_file_with_no_active_feature_is_runtime_error(self, tmp_path, capsys):
        # alpha = 0 would reach AttnTopK as top_k = 0, although Attn reads no top_k
        assert main(["gen-tasks", "--n", "5", "--alpha", "2", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        task_file = tmp_path / "task_00000.json"
        obj = json.loads(task_file.read_text())
        obj["meta"] |= {"active_indices": [], "alpha": 0, "beta_irrelevant": 5}
        task_file.write_text(json.dumps(obj))
        assert main(["eval", "--task", str(task_file), "--methods", "Attn"]) == 1
        assert capsys.readouterr() == ("", "error: alpha must be >= 1, got 0\n")

    def test_task_file_that_is_not_an_object_is_runtime_error(self, tmp_path, capsys):
        task_file = tmp_path / "task.json"
        task_file.write_text("[1, 2]")
        assert main(["eval", "--task", str(task_file)]) == 1
        assert capsys.readouterr() == ("", "error: a task file must be a JSON object, got [1, 2]\n")

    def test_task_file_missing_a_field_names_it(self, tmp_path, capsys):
        task_file = tmp_path / "task.json"
        task_file.write_text('{"query": {}}')
        assert main(["eval", "--task", str(task_file)]) == 1
        assert capsys.readouterr() == ("", "error: support is missing\n")

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

    def test_zero_table_is_a_table(self, capsys):
        assert main(["thresholds", "approx", "--n", "2", "--truth-table", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["truth_table"], payload["max_agreement"]) == ("0", 4)

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
            (["--alpha", "2", "--r-values", "1,1", "--beta-values", "0,2", "--svg"], "r_values must not repeat"),
            (["--r-values", "1,2", "--beta-values", "3,0,3"], "beta_values must not repeat"),
            (["--r-values", "", "--beta-values", "1"], "r_values and beta_values must be nonempty"),
            (["--r-values", "1", "--beta-values", "1", "--tasks-per-cell", "0"], "tasks_per_cell must be >= 1"),
            # corners(63) would index past int64, in a pool worker
            (["--alpha", "63", "--r-values", "1", "--beta-values", "0"],
             "alpha=63, r=1, n=63: a task's (r * 2^alpha + query_count) x n buffer is larger than numpy can index"),
        ],
    )
    def test_bad_grid_is_runtime_error_with_no_directory(self, flags, message, tmp_path, capsys):
        out = tmp_path / "D"
        code = main(["sweep", "--tasks-per-cell", "2", *flags, "--out-dir", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    def test_sweep_encoding_reaches_the_spec(self, by_config, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("cfg.txt").write_text("encoding=zero_one\n")
        encoding = ["--config", "cfg.txt"] if by_config else ["--encoding", "zero_one"]
        argv = ["sweep", "--alpha", "2", "--r-values", "1,2", "--beta-values", "0,3", "--tasks-per-cell", "6",
                "--kernel", "sq_euclidean", "--seed", "5", "--out-dir", "cli", *encoding]
        assert main(argv) == 0
        capsys.readouterr()
        spec = SweepSpec(alpha=2, r_values=(1, 2), beta_values=(0, 3), tasks_per_cell=6,
                         attention=AttentionConfig(Kernel.SQ_EUCLIDEAN), global_seed=5)
        plus_minus = emit_csv(spec, run_sweep(spec), "plus_minus.csv").read_bytes()
        spec = replace(spec, encoding=Encoding.ZERO_ONE)
        zero_one = emit_csv(spec, run_sweep(spec), "zero_one.csv").read_bytes()
        assert zero_one != plus_minus
        assert Path("cli/sweep.csv").read_bytes() == zero_one

    def test_sweep_failures_reported_on_stderr(self, tmp_path, capsys):
        # attention logits overflow at this tau_inv, so every Attn and AttnSoftFS evaluation fails
        argv = [
            "sweep", "--alpha", "2", "--r-values", "1", "--beta-values", "2", "--tau-inv", "1e308",
            "--tasks-per-cell", "20", "--methods", "Attn", "AttnSoftFS", "--out-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: 40 method evaluation(s) failed and are left out of the means and the tasks column"
        ]
        rows = parse_csv(tmp_path / "sweep.csv")
        assert [(r["tasks"], math.isnan(r["accuracy_mean"])) for r in rows] == [(0, True), (0, True)]
        # the JSON holds the same rows, with null for the CSV's nan: strict JSON has no NaN
        assert main([*argv, "--format", "json"]) == 0
        assert len(capsys.readouterr().err.splitlines()) == 1

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        json_rows = json.loads((tmp_path / "sweep.json").read_text(), parse_constant=no_constant)["rows"]
        assert json_rows == [{**r, "accuracy_mean": None} for r in rows]
        # no failure, no line
        assert main([a if a != "1e308" else "3" for a in argv]) == 0
        assert capsys.readouterr().err == ""
        assert [r["tasks"] for r in parse_csv(tmp_path / "sweep.csv")] == [20, 20]

    def test_sweep_downward_overflow_prints_only_the_sweep_warning(self, tmp_path, capsys):
        # Attn logits overflow downwards at this tau_inv (their weight is 0, no
        # failure); Proto's scaled row maxima overflow upwards, so Proto fails.
        # A numpy RuntimeWarning would be an error here, not a line on stderr.
        argv = [
            "sweep", "--alpha", "2", "--r-values", "1", "--beta-values", "16", "--tau-inv", "1e307",
            "--tasks-per-cell", "20", "--methods", "Attn", "Proto", "--out-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: 20 method evaluation(s) failed and are left out of the means and the tasks column"
        ]
        assert [r["tasks"] for r in parse_csv(tmp_path / "sweep.csv")] == [20, 0]

    def test_theory_table(self, capsys):
        code = main(["theory", "--alpha", "2", "--beta-values", "0,1", "--trials", "500"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("alpha,beta,p,r,kernel,analytic_mean")
        assert len(lines) == 3

    # sha256 of the first 13 columns (header included) of
    # `theory --alpha 3 --beta-values 0,1,2,3,4 --trials 2000 --seed 0`, taken
    # before the moment helpers were shared and the snr columns were added;
    # cosine's when its rows came to model the kernel's norm alpha + beta
    @pytest.mark.parametrize(
        "kernel, digest",
        [
            ("dot", "5d48e013deb98ead8de9f14d1d43ccc2dda210524d17be8b2342851d0b18863d"),
            ("cosine", "ae3b202174738ec41749403d6af4971128137a357d90f5c0367dc89849188e90"),
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

    def test_theory_underflowed_mean_gives_nan_ratio(self, capsys):
        # sq_euclidean's mean shrinks with beta and underflows to 0.0 by beta 2000
        argv = ["theory", "--alpha", "2", "--beta-values", "2000,3000", "--kernel", "sq_euclidean"]
        assert main([*argv, "--trials", "10"]) == 0
        _, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        for row in rows:
            cells = row.split(",")
            assert cells[5] == "0.0"
            assert cells[13:15] == ["nan", "nan"]

    @pytest.mark.parametrize("betas", ["", ","])
    def test_theory_empty_beta_list_is_runtime_error(self, betas, capsys):
        assert main(["theory", "--beta-values", betas, "--trials", "20"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "beta_values must be nonempty" in err

    def test_theory_repeated_beta_is_runtime_error(self, capsys):
        # a slope fitted through repeated betas is a degenerate least-squares fit
        assert main(["theory", "--beta-values", "1,1", "--trials", "100"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: betas must not repeat a value, got [1, 1]\n"

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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["theory", "--beta-values", "1,x"], "--beta-values"),
            (["sweep", "--r-values", "1,a"], "--r-values"),
            (["thresholds", "approx", "--n", "2", "--truth-table", "zz"], "--truth-table"),
        ],
    )
    def test_unparsable_list_or_hex_flag_is_usage_error(self, argv, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        # the reason, not the name of the private function that parsed the flag
        assert re.search(
            rf"error: argument {flag}: invalid literal for int\(\) with base (10|16): '",
            capsys.readouterr().err,
        )
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["reproduce", "table3_counts", "--out-dir", ""],
            ["sweep", "--out-dir", ""],
            ["gen-tasks", "--out-dir", ""],
            ["eval", "--task", ""],
            ["eval", "--dump-scores", ""],
            ["eval", "--config", ""],
        ],
    )
    def test_empty_path_flag_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a command that ran anyway would write here
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: path must not be empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["sweep", "--tasks-per-cell", "1"], ["gen-tasks"]])
    def test_empty_out_dir_key_is_runtime_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out_dir=\n")
        assert main(argv + ["--config", str(cfg)]) == 1
        assert "path must not be empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "line,message",
        [
            ("alpha=x", "config key alpha: invalid literal for int() with base 10: 'x'"),
            ("p=abc", "config key p: could not convert string to float: 'abc'"),
            ("out_dir=", "config key out_dir: path must not be empty"),
            ("r_values=1,a", "config key r_values: invalid literal for int() with base 10: 'a'"),
        ],
    )
    def test_bad_config_value_names_its_key(self, line, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["sweep", "--tasks-per-cell", "1", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_config_skips_comments_and_blank_lines(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\n   \n  n = 6  \n")
        assert main(["gen-tasks", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main(["gen-tasks", "--n", "6"]) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize(
        "text,message",
        [
            ("n=6\nalpha\n", "config line must be key=value: 'alpha'"),
            ("alpha=3\n alpha = 2\n", "config key alpha is set more than once"),
        ],
    )
    def test_bad_config_file_is_runtime_error(self, text, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["gen-tasks", "--config", str(cfg), "--out-dir", "tasks"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "command, key, choices",
        [
            ("gen-tasks", "family", "boolean, sphere"),
            ("eval", "encoding", "plus_minus, zero_one"),
            ("eval", "kernel", "dot, cosine, sq_euclidean, laplace"),
        ],
    )
    def test_config_value_outside_choices_names_its_key(self, command, key, choices, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=x\n")
        assert main([command, "--config", str(cfg)]) == 1
        message = f"config key {key}: invalid choice 'x' (choose from {choices})"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_runtime_error_exits_1(self, capsys):
        code = main(["eval", "--task", "/nonexistent/task.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # each size rule rejects its input before anything is allocated
            (["theory", "--alpha", "70", "--beta-values", "0,1", "--trials", "10"],
             "alpha=70, r=2, beta=0: a trial's r * 2^alpha x max(beta, 1) draw buffer is larger than numpy can index"),
            (["eval", "--alpha", "62", "--n", "62"],
             "alpha=62, r=5, n=62: a task's (r * 2^alpha + query_count) x n buffer is larger than numpy can index"),
            # numpy can index these, but their 2^45 rows exceed the address space,
            # so the request fails before any memory is touched
            (["theory", "--alpha", "45", "--beta-values", "0,1", "--trials", "10"],
             "alpha=45, r=2, beta=0: a trial's r * 2^alpha x max(beta, 1) draw buffer cannot be allocated"),
            (["eval", "--alpha", "45", "--n", "45"],
             "alpha=45, r=5, n=45: a task's (r * 2^alpha + query_count) x n buffer cannot be allocated"),
            # the grid's largest cell is too large, its smallest is not
            (["sweep", "--alpha", "50", "--r-values", "1,4096", "--beta-values", "0"],
             "alpha=50, r=4096, n=50: a task's (r * 2^alpha + query_count) x n buffer is larger than numpy can index"),
            # fails at allocation, so nothing is allocated
            (["gen-tasks", "--family", "sphere", "--sample-count", "100000000000000"], "Unable to allocate"),
        ],
        ids=["theory", "eval", "theory-memory", "eval-memory", "sweep", "gen-tasks"],
    )
    def test_oversized_input_is_runtime_error(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_task_file_is_runtime_error(self, tmp_path, capsys):
        # at x 2^600 the support's standard deviation overflows: sigma = inf would
        # standardise every feature to 0 and classify at chance; a numpy
        # RuntimeWarning would be an error here, not a line on stderr
        assert main(["gen-tasks", "--n", "6", "--alpha", "2", "--r", "3", "--seed", "1"]) == 0
        task = task_from_json(capsys.readouterr().out)
        scaled = {part: replace(getattr(task, part), features=getattr(task, part).features * 2.0**600)
                  for part in ("support", "query")}
        path = tmp_path / "big.json"
        path.write_text(task_to_json(replace(task, **scaled)))
        for methods in (["AttnSoftFS", "AttnTopK"], ["AttnSoftFSNorm"]):
            assert main(["eval", "--task", str(path), "--methods", *methods, "--top-k", "2"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "error: support feature mean or standard deviation overflows float64"
            ]

    @pytest.mark.parametrize(
        "methods, second_column",
        [
            (["Attn", "Proto"], [1, 1, 1, 1]),
            (["AttnSoftFS"], [0, 1e-9, 0, 1e-9]),
            (["AttnTopK", "--top-k", "2"], [1, 1, 1, 1]),
        ],
        ids=["Attn-Proto", "AttnSoftFS-kept", "AttnTopK-kept"],
    )
    def test_query_far_outside_the_support_is_runtime_error(self, methods, second_column, tmp_path, capsys):
        # the second column's sigma is 0 (divisor epsilon) or 5e-10, so the query's
        # 1e301 standardises to inf there; Proto squares it, and a selection method
        # that keeps the feature passes it on; a numpy RuntimeWarning would be an
        # error here, not a line on stderr
        path = far_task(tmp_path / "far.json", second_column, [0.5, 1e301])
        assert main(["eval", "--task", path, "--methods", *methods]) == 1
        assert capsys.readouterr() == ("", "error: softmax input must be finite\n")

    @pytest.mark.parametrize("methods", [["AttnTopK", "--top-k", "1"], ["AttnSoftFS"], ["AttnSoftFSNorm"]])
    def test_query_far_outside_a_dropped_feature_is_ignored(self, methods, tmp_path, capsys):
        # the constant second column scores 0, so AttnTopK with k=1 drops it and the
        # soft factors are 0 there: its query value, 1e301 or 1, changes no output byte
        outputs = []
        for value in (1e301, 1.0):
            path = far_task(tmp_path / "far.json", [1, 1, 1, 1], [1.0, value])
            assert main(["eval", "--task", path, "--methods", *methods]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.splitlines() == ["method,accuracy", f"{methods[0]},1.0"]
        assert outputs[0].err == ""


def far_task(path: Path, second_column: list[float], query: list[float]) -> str:
    """Write a two-feature task whose support's first column is 0, 1, 0, 1 (its labels) and whose one query is query."""
    support = [[x, y] for x, y in zip([0, 1, 0, 1], second_column, strict=True)]
    path.write_text(json.dumps({"support": {"features": support, "labels": [0, 1, 0, 1], "k": 2},
                                "query": {"features": [query], "labels": [1], "k": 2}, "meta": None}))
    return str(path)


def readme_cli_lines() -> list[list[str]]:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```bash\n(.*?)^```", readme, re.S | re.M).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()]


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    # every line parses; sweep and reproduce only parse, since full-scale fig7 takes seconds
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert len(lines) == 9
    for argv in lines:
        build_parser().parse_args(argv)
        if argv[0] not in ("sweep", "reproduce"):
            assert main(argv) == 0, argv
    assert (tmp_path / "scores.csv").exists()
    capsys.readouterr()


# sha256 of every byte a command prints (and, for --dump-scores, writes), taken
# before every CSV and JSON went through core.csv_text and core.json_text
EVAL = ["eval", "--n", "6", "--alpha", "2", "--r", "3", "--seed", "4", "--methods",
        "Attn", "AttnSoftFS", "AttnSoftFSNorm", "AttnTopK", "Proto"]
PINNED_OUTPUTS = [
    (EVAL, "18342d2dc41f41a56bb030d3a95fc5a147c978d2bf7889c0b1d48d1f1d37d512"),
    (EVAL + ["--format", "json"], "45ed9c96f8ebd9657333530ed318688baad0e3491f6ba0833edf464de7aee287"),
    # beta 7 is past the exhaustive oracle's bound, so its two columns are blank
    (["theory", "--alpha", "3", "--beta-values", "0,3,5,7", "--trials", "500", "--p", "0.3"],
     "0ae5c8243a3c9603922fa3c187d9d06467513622943ea2e48cda41974a583d9f"),
    (["theory", "--alpha", "2", "--beta-values", "0,1,2,3,4,5,6,7", "--trials", "300",
      "--kernel", "sq_euclidean", "--seed", "3"],
     "58eba7fcefc4c22556f1aafc761aaac99d27988d1d4296fe051242f75f721701"),
    (["thresholds", "approx", "--n", "4", "--truth-table", "6996"],
     "5b52a6f12bdfae3941f937a90ec9588063f65ef09bc27c8ecb8ec899d16bd42f"),
]


class TestOutputBytesPinned:
    @pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS, ids=lambda v: " ".join(v)[:40])
    def test_stdout_pinned(self, argv, digest, capsys):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_dump_scores_pinned(self, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        argv = ["eval", "--n", "7", "--alpha", "3", "--r", "2", "--seed", "9", "--dump-scores", str(out)]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "2fcd3f2d4fcc9ba26c2782c8cad6c8344e65ca80c936cf024d7d07d92398bf4d"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6637f109b39d42ce64d93c8b184c4a8bc0548cfedddbcd919fd021e5f0bacd4d"
        )
