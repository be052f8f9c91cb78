import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np
import pytest

import polyselect
from polyselect import bench
from polyselect.bench import (
    METHODS,
    CellResult,
    SweepSpec,
    _heat_color,
    emit_csv,
    emit_json,
    emit_svg_heatmap,
    evaluate_method,
    parse_csv,
    reproduce,
    run_sweep,
)
from polyselect.core import Encoding, LabeledSet, Task, csv_text, task_seed
from polyselect.kernels import AttentionConfig, Kernel
from polyselect.selection import SelectionConfig
from polyselect.tasks import BooleanTaskSpec, gen_boolean_task

GOLDEN = Path(__file__).resolve().parents[1] / "out"


def small_spec(**kwargs):
    defaults = dict(
        alpha=3,
        r_values=(1, 2),
        beta_values=(0, 2),
        p=0.5,
        query_count=16,
        methods=("Attn", "AttnSoftFS"),
        tasks_per_cell=20,
        attention=AttentionConfig(),
        selection=SelectionConfig(rounds=2),
        global_seed=7,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def loop_sweep(spec: SweepSpec) -> list[tuple[int, dict[str, np.ndarray]]]:
    """Reference sweep: one generated task and one evaluate_method call at a time."""
    cells = []
    for cell_index, (r, beta) in enumerate(
        (r, beta) for r in spec.r_values for beta in spec.beta_values
    ):
        accs = {m: [] for m in spec.methods}
        failures = 0
        for t in range(spec.tasks_per_cell):
            task = gen_boolean_task(
                BooleanTaskSpec(
                    n=spec.alpha + beta,
                    alpha=spec.alpha,
                    p=spec.p,
                    r=r,
                    query_count=spec.query_count,
                    encoding=spec.encoding,
                    seed=task_seed(spec.global_seed, cell_index * spec.tasks_per_cell + t),
                )
            )
            for m in spec.methods:
                try:
                    accs[m].append(evaluate_method(m, task, spec.attention, spec.selection))
                except ValueError:
                    failures += 1
        cells.append((failures, {m: np.array(v, dtype=np.float64) for m, v in accs.items()}))
    return cells


def assert_matches_loop(spec: SweepSpec) -> int:
    """run_sweep equals the per-task loop bit for bit; returns the failure count."""
    grid = run_sweep(spec)
    expected = loop_sweep(spec)
    assert len(grid) == len(expected)
    for cell, (failures, accs) in zip(grid, expected):
        assert cell.failures == failures
        for m in spec.methods:
            assert cell.per_task[m].tobytes() == accs[m].tobytes(), (cell.r, cell.beta, m)
    return sum(cell.failures for cell in grid)


def chunk_sizes(spec: SweepSpec) -> set[int]:
    return {
        bench._chunk_size(
            BooleanTaskSpec(n=spec.alpha + b, alpha=spec.alpha, r=r, query_count=spec.query_count),
            spec.attention.kind,
        )
        for r in spec.r_values
        for b in spec.beta_values
    }


def kernel_spec(kind: Kernel, encoding: Encoding) -> SweepSpec:
    """Every method on small tasks; with CHUNK_BYTES at 2048, several chunks per cell."""
    return small_spec(
        alpha=2,
        query_count=4,
        encoding=encoding,
        methods=METHODS,
        tasks_per_cell=17,
        attention=AttentionConfig(kind=kind, tau_inv=1.5),
    )


def forced_failure_spec():
    # zero_one bits at low p leave all-zero rows, where cosine similarity is undefined
    return small_spec(
        alpha=2,
        beta_values=(3, 6),
        p=0.2,
        encoding=Encoding.ZERO_ONE,
        methods=METHODS,
        tasks_per_cell=30,
        attention=AttentionConfig(kind=Kernel.COSINE),
    )


def assert_same_cells(got: list[CellResult], want: list[CellResult]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in fields(CellResult):
            if f.name == "per_task":
                assert a.per_task.keys() == b.per_task.keys()
                for m in a.per_task:
                    assert a.per_task[m].dtype == b.per_task[m].dtype == np.float64
                    assert a.per_task[m].tobytes() == b.per_task[m].tobytes(), (a.r, a.beta, m)
            else:
                # repr, so that a nan mean (every task failed) compares equal
                assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name


@pytest.fixture
def process_starts(monkeypatch):
    """Every process started from here on, with two usable CPUs assumed."""
    started = []
    start = BaseProcess.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(BaseProcess, "start", counting_start)
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 2)
    return started


def run_inline(monkeypatch, spec: SweepSpec) -> list[CellResult]:
    with monkeypatch.context() as m:
        m.setattr(bench, "_usable_cpus", lambda: 1)
        return run_sweep(spec)


class TestRunSweep:
    def test_deterministic(self):
        a = run_sweep(small_spec())
        b = run_sweep(small_spec())
        for ca, cb in zip(a, b):
            assert ca.accuracy_mean == cb.accuracy_mean
            assert ca.accuracy_se == cb.accuracy_se

    def test_methods_see_identical_tasks(self):
        solo = run_sweep(small_spec(methods=("Attn",)))
        joint = run_sweep(small_spec(methods=("Attn", "Proto")))
        for cs, cj in zip(solo, joint):
            np.testing.assert_array_equal(cs.per_task["Attn"], cj.per_task["Attn"])

    def test_se_matches_recomputation(self):
        for cell in run_sweep(small_spec()):
            for m, arr in cell.per_task.items():
                se = arr.std(ddof=1) / np.sqrt(arr.size)
                assert abs(se - cell.accuracy_se[m]) < 1e-12

    def test_noiseless_column_is_perfect(self):
        grid = run_sweep(small_spec(beta_values=(0,), tasks_per_cell=10))
        for cell in grid:
            assert cell.accuracy_mean["Attn"] == 1.0

    def test_duplicate_methods_rejected(self):
        with pytest.raises(ValueError):
            small_spec(methods=("Attn", "Attn"))

    @pytest.mark.parametrize("field", ["r_values", "beta_values"])
    def test_duplicate_grid_values_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must not repeat a value"):
            small_spec(**{field: (2, 1, 2)})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            small_spec(methods=("Nope",))

    def test_failure_counting(self):
        # top_k=3 fits every cell's width (n >= alpha = 3), so no task fails
        spec = small_spec(methods=("AttnTopK",), selection=SelectionConfig(rounds=0, top_k=3))
        grid = run_sweep(spec)
        assert all(cell.failures == 0 for cell in grid)

    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("kind", list(Kernel))
    def test_chunked_sweep_equals_per_task_loop(self, monkeypatch, process_starts, kind, encoding):
        monkeypatch.setattr(bench, "CHUNK_BYTES", 2048)
        spec = kernel_spec(kind, encoding)
        # several chunks per cell, the last one partial
        tasks = spec.tasks_per_cell
        assert all(1 < s < tasks and tasks % s for s in chunk_sizes(spec))
        assert_matches_loop(spec)
        assert len(process_starts) == 2  # run_sweep went through the pool

    def test_forced_failures_match_per_task_loop(self, process_starts):
        spec = forced_failure_spec()
        assert min(chunk_sizes(spec)) > 1
        grid = run_sweep(spec)
        survivors = [cell.per_task["Attn"].size for cell in grid]
        assert 0 < sum(survivors) < spec.tasks_per_cell * len(grid)
        assert assert_matches_loop(spec) > 0
        assert len(process_starts) == 4  # both run_sweep calls went through the pool

    def test_unknown_method_evaluation_rejected(self):
        task = gen_boolean_task(BooleanTaskSpec(n=4, alpha=2, seed=1))
        with pytest.raises(ValueError):
            evaluate_method("Nope", task, AttentionConfig(), SelectionConfig())

    def test_stack_evaluation_rejected(self):
        task = gen_boolean_task(BooleanTaskSpec(n=4, alpha=2, seed=1))
        s, q = task.support, task.query
        stack = Task(LabeledSet(s.features[None], s.labels, 2), LabeledSet(q.features[None], q.labels, 2))
        with pytest.raises(ValueError, match="evaluate_method takes one task, not a stack of 1"):
            evaluate_method("Attn", stack, AttentionConfig(), SelectionConfig())

    def test_top_k_defaults_to_active_count(self):
        attn = AttentionConfig()
        tasks = [gen_boolean_task(BooleanTaskSpec(n=9, alpha=3, r=2, seed=s)) for s in range(8)]
        default = [evaluate_method("AttnTopK", t, attn, SelectionConfig()) for t in tasks]
        assert default == [evaluate_method("AttnTopK", t, attn, SelectionConfig(top_k=3)) for t in tasks]
        assert default != [evaluate_method("AttnTopK", t, attn, SelectionConfig(top_k=1)) for t in tasks]
        with pytest.raises(ValueError, match="needs top_k"):
            evaluate_method("AttnTopK", replace(tasks[0], meta=None), attn, SelectionConfig())


# a non-default value for every field of the configs the methods read
KNOBS = {
    SelectionConfig: {"epsilon": 0.5, "tau_inv": 0.5, "rounds": 1, "top_k": 1},
    AttentionConfig: {"kind": Kernel.COSINE, "tau_inv": 3.0},
}


class TestConfigKnobs:
    def _probs(self, task, attention, selection) -> list[np.ndarray]:
        if selection.top_k is None:  # as evaluate_method fills it in
            selection = replace(selection, top_k=task.meta.alpha)
        scored = bench._scorer(task, selection)
        return [bench._METHODS[m](task, attention, selection, scored) for m in METHODS]

    @pytest.mark.parametrize("config, name", [(c, f.name) for c in KNOBS for f in fields(c)])
    def test_every_field_changes_some_method(self, config, name):
        # a field that no method reads is an option without effect
        task = gen_boolean_task(BooleanTaskSpec(n=7, alpha=3, p=0.5, r=3, seed=5))
        defaults = {SelectionConfig: SelectionConfig(), AttentionConfig: AttentionConfig()}
        changed = {**defaults, config: replace(defaults[config], **{name: KNOBS[config][name]})}
        before = self._probs(task, defaults[AttentionConfig], defaults[SelectionConfig])
        after = self._probs(task, changed[AttentionConfig], changed[SelectionConfig])
        assert any(a.tobytes() != b.tobytes() for a, b in zip(before, after, strict=True))


class TestSweepProcesses:
    @pytest.mark.parametrize(
        "spec",
        [*(kernel_spec(k, e) for k in Kernel for e in Encoding), forced_failure_spec()],
        ids=[f"{k.value}-{e.value}" for k in Kernel for e in Encoding] + ["forced_failures"],
    )
    def test_pool_equals_inline(self, monkeypatch, process_starts, spec):
        monkeypatch.setattr(bench, "CHUNK_BYTES", 2048)
        inline = run_inline(monkeypatch, spec)
        assert process_starts == []
        assert_same_cells(run_sweep(spec), inline)
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_starts_no_process(self, monkeypatch, process_starts):
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 1)
        run_sweep(small_spec())
        assert process_starts == []

    def test_workers_are_min_of_cpus_and_chunks(self, monkeypatch, process_starts):
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 3)
        one_cell = small_spec(r_values=(1,), beta_values=(0,))
        (size,) = chunk_sizes(one_cell)
        run_sweep(replace(one_cell, tasks_per_cell=size))
        assert process_starts == []  # one chunk runs inline
        run_sweep(replace(one_cell, tasks_per_cell=size + 1))
        assert len(process_starts) == 2  # one worker per chunk
        process_starts.clear()
        run_sweep(small_spec())
        assert len(process_starts) == 3  # one worker per usable CPU

    def test_worker_error_reaches_caller(self, monkeypatch, process_starts):
        def fail(spec, batch, accs):
            raise RuntimeError("worker failed")

        monkeypatch.setattr(bench, "_evaluate_chunk", fail)
        with pytest.raises(RuntimeError, match="worker failed"):
            run_sweep(small_spec())
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []

    def test_crashed_worker_is_broken_pool(self, monkeypatch, process_starts):
        parent = os.getpid()

        def crash(spec, batch, accs):
            if os.getpid() == parent:
                raise AssertionError("chunk ran in the parent process")
            os._exit(1)

        monkeypatch.setattr(bench, "_evaluate_chunk", crash)
        with pytest.raises(BrokenProcessPool):
            run_sweep(small_spec())
        assert multiprocessing.active_children() == []

    def test_fig5_pool_equals_inline(self, monkeypatch, process_starts, tmp_path):
        with monkeypatch.context() as m:
            m.setattr(bench, "_usable_cpus", lambda: 1)
            inline = reproduce("fig5_sphere", tmp_path / "inline", seed=5, scale=0.05)
        assert process_starts == []
        pooled = reproduce("fig5_sphere", tmp_path / "pool", seed=5, scale=0.05)
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []
        assert [p.read_bytes() for p in pooled] == [p.read_bytes() for p in inline]

    def test_full_scale_recipe_sweeps_plan_eight_chunks_or_more(self, monkeypatch, tmp_path):
        # two workers take runs of ceil(chunks / 8) chunks; 8 chunks or more make
        # 5 runs or more, so the last run is a small part of the call (a 1000-task
        # cell at a CHUNK_BYTES of 8 MiB was 1 to 3 chunks, and one worker ran two)
        planned = []

        def plan_only(fn, items):
            assert fn is bench._run_chunk
            planned.append(len(items))
            return [{m: np.zeros(stop - start) for m in spec.methods} for spec, *_, start, stop in items]

        monkeypatch.setattr(bench, "_map_chunks", plan_only)
        for recipe in ("fig7_soft_fs", "fig11_topk", "binary_strings_fs_raw"):
            reproduce(recipe, tmp_path / recipe)
        assert len(planned) == 1 + 1 + 6  # binary_strings_fs_raw sweeps six grids
        assert min(planned) >= 8, planned

    def test_import_loads_no_process_machinery(self):
        # the pool's modules are imported only when a sweep starts one
        code = (
            "import sys, polyselect; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(polyselect.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestRecipePool:
    """reproduce shares one pool among a recipe's chunk maps and reaps it."""

    @pytest.fixture
    def map_sizes(self, monkeypatch):
        """The item count of every chunk map, with CHUNK_BYTES small enough for several chunks."""
        monkeypatch.setattr(bench, "CHUNK_BYTES", 2048)
        sizes = []
        map_chunks = bench._map_chunks

        def counting(fn, items):
            sizes.append(len(items))
            return map_chunks(fn, items)

        monkeypatch.setattr(bench, "_map_chunks", counting)
        return sizes

    def test_binary_strings_starts_one_set_of_workers(
        self, monkeypatch, process_starts, map_sizes, tmp_path
    ):
        with monkeypatch.context() as m:
            m.setattr(bench, "_usable_cpus", lambda: 1)
            inline = reproduce("binary_strings_fs_raw", tmp_path / "inline", seed=4, scale=0.01)
        assert process_starts == []
        map_sizes.clear()
        pooled = reproduce("binary_strings_fs_raw", tmp_path / "pool", seed=4, scale=0.01)
        assert len(map_sizes) == 6 and min(map_sizes) >= 2  # six sweeps, each needing two workers
        assert len(process_starts) == 2  # not 2 per sweep
        assert multiprocessing.active_children() == []
        assert bench._pool_slot is None
        assert [p.read_bytes() for p in pooled] == [p.read_bytes() for p in inline]

    def test_larger_map_forks_a_larger_pool(self, monkeypatch, process_starts, tmp_path):
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 3)

        def maps(out, seed, scale):
            return [bench._map_chunks(abs, [-n] * n) for n in (2, 3, 2)]

        monkeypatch.setitem(bench.RECIPES, "maps", maps)
        assert reproduce("maps", tmp_path) == [[2, 2], [3, 3, 3], [2, 2]]
        assert len(process_starts) == 5  # 2, then 3 kept for the last map
        assert multiprocessing.active_children() == []
        assert bench._pool_slot is None

    @pytest.mark.parametrize("recipe", ["table3_counts", "appD_xor_bound", "appC_boundary"])
    def test_exact_recipes_start_no_process(self, process_starts, map_sizes, recipe, tmp_path):
        reproduce(recipe, tmp_path)
        assert map_sizes == []
        assert process_starts == []

    def test_exact_recipes_import_no_process_machinery(self, tmp_path):
        code = (
            "import sys\n"
            "from polyselect.bench import reproduce\n"
            "for recipe in ('table3_counts', 'appD_xor_bound', 'appC_boundary'):\n"
            "    reproduce(recipe, sys.argv[1])\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(polyselect.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
        assert len(list(tmp_path.iterdir())) == 5  # every recipe wrote its files

    def test_crashed_worker_is_broken_pool(self, monkeypatch, process_starts, map_sizes, tmp_path):
        parent = os.getpid()

        def crash(spec, batch, accs):
            if os.getpid() == parent:
                raise AssertionError("chunk ran in the parent process")
            os._exit(1)

        monkeypatch.setattr(bench, "_evaluate_chunk", crash)
        with pytest.raises(BrokenProcessPool):
            reproduce("binary_strings_fs_raw", tmp_path, scale=0.01)
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []
        assert bench._pool_slot is None

    def test_error_after_a_map_reaps_the_pool(self, monkeypatch, process_starts, map_sizes, tmp_path):
        # the first sweep forks the pool; the parent then raises before the second
        def fail(*args, **kwargs):
            raise RuntimeError("rows failed")

        monkeypatch.setattr(bench, "_grid_rows", fail)
        with pytest.raises(RuntimeError, match="rows failed"):
            reproduce("binary_strings_fs_raw", tmp_path, scale=0.01)
        assert len(map_sizes) == 1
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []
        assert bench._pool_slot is None


class TestEmitters:
    def test_csv_roundtrip(self, tmp_path):
        spec = small_spec()
        grid = run_sweep(spec)
        path = emit_csv(spec, grid, tmp_path / "sweep.csv")
        rows = parse_csv(path)
        assert len(rows) == len(grid) * len(spec.methods)
        by_key = {(r["r"], r["beta"], r["method"]): r for r in rows}
        for cell in grid:
            for m in spec.methods:
                row = by_key[(cell.r, cell.beta, m)]
                assert row["accuracy_mean"] == cell.accuracy_mean[m]
                assert row["accuracy_se"] == cell.accuracy_se[m]
                assert row["family"] == "xor"
                assert row["seed"] == spec.global_seed

    def test_single_cell_csv_shape(self, tmp_path):
        spec = small_spec(r_values=(2,), beta_values=(1,), tasks_per_cell=5)
        grid = run_sweep(spec)
        path = emit_csv(spec, grid, tmp_path / "one.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "family,alpha,beta,p,r,method,tasks,accuracy_mean,accuracy_se,seed"
        assert len(lines) == 1 + len(spec.methods)

    def test_tasks_column_counts_evaluations_that_succeeded(self, tmp_path):
        spec = forced_failure_spec()
        grid = run_sweep(spec)
        rows = parse_csv(emit_csv(spec, grid, tmp_path / "f.csv"))
        by_key = {(r["r"], r["beta"], r["method"]): r for r in rows}
        for cell in grid:
            for m in spec.methods:
                assert by_key[(cell.r, cell.beta, m)]["tasks"] == cell.per_task[m].size
        assert by_key[(1, 3, "Attn")]["tasks"] == 4  # of 30
        missing = sum(spec.tasks_per_cell - r["tasks"] for r in rows)
        assert missing == sum(cell.failures for cell in grid) > 0

    def test_csv_text_floats_round_trip(self, tmp_path):
        values = [np.float64(0.1), np.float32(0.1), math.nan, math.inf, -math.inf, -0.0, 0.1 + 0.2, 5e-324]
        text = csv_text(["v"], [[v] for v in values])
        assert "np.float64(" not in text
        row = {"family": "xor", "alpha": 2, "beta": 3, "p": np.float64(0.3), "r": 1,
               "method": "Attn", "tasks": 5, "seed": 7}
        rows = [{**row, "accuracy_mean": v, "accuracy_se": v} for v in values]
        parsed = parse_csv(bench._write_rows_csv(rows, tmp_path / "f.csv"))
        for got in ([float(line) for line in text.splitlines()[1:]],
                    [r["accuracy_mean"] for r in parsed], [r["accuracy_se"] for r in parsed]):
            for a, b in zip(got, map(float, values), strict=True):
                assert (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))
        assert all(r["p"] == 0.3 for r in parsed)

    def test_json_mirrors_csv(self, tmp_path):
        spec = small_spec(r_values=(1,), beta_values=(2,), tasks_per_cell=5)
        grid = run_sweep(spec)
        csv_rows = parse_csv(emit_csv(spec, grid, tmp_path / "s.csv"))
        json_rows = json.loads((emit_json(spec, grid, tmp_path / "s.json")).read_text())["rows"]
        assert csv_rows == sorted(json_rows, key=lambda r: (r["r"], r["beta"], r["method"]))

    def test_heat_scale_endpoints(self):
        cold = _heat_color(0.5)
        hot = _heat_color(1.0)
        assert cold == "#2830ff"
        assert hot == "#ff3028"
        assert _heat_color(0.2) == cold  # clamped below the scale floor
        assert _heat_color(1.3) == hot

    def test_svg_written_with_labels(self, tmp_path):
        spec = small_spec(tasks_per_cell=5)
        grid = run_sweep(spec)
        path = emit_svg_heatmap(spec, grid, "Attn", tmp_path / "grid.svg")
        text = path.read_text()
        assert "<svg" in text and "</svg>" in text
        assert "irrelevant features (beta)" in text
        assert "variant repetitions (r)" in text
        assert text.count("<rect") == len(spec.r_values) * len(spec.beta_values)

    def test_svg_unknown_method(self, tmp_path):
        spec = small_spec(tasks_per_cell=5)
        grid = run_sweep(spec)
        with pytest.raises(ValueError):
            emit_svg_heatmap(spec, grid, "Proto", tmp_path / "x.svg")


class TestReproduce:
    def test_unknown_recipe(self, tmp_path):
        with pytest.raises(KeyError):
            reproduce("nope", tmp_path)

    def test_appc_boundary_artifacts(self, tmp_path):
        paths = reproduce("appC_boundary", tmp_path)
        assert len(paths) == 2
        for path in paths:
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "tau_inv,x,y,p0,p1,gap"
            assert len(lines) == 51
            gaps = [float(line.split(",")[-1]) for line in lines[1:]]
            assert max(gaps) < 1e-6

    @pytest.mark.parametrize(
        "recipe, golden",
        [
            ("table3_counts", "table3"),
            ("appD_xor_bound", "appD"),
            ("appC_boundary", "appC"),
            ("fig11_topk", "fig11"),
            ("binary_strings_fs_raw", "binary_strings"),
            ("fig5_sphere", "fig5"),
        ],
    )
    def test_regenerates_committed_golden(self, tmp_path, recipe, golden):
        paths = reproduce(recipe, tmp_path)
        assert sorted(p.name for p in paths) == sorted(p.name for p in (GOLDEN / golden).iterdir())
        for path in paths:
            assert path.read_bytes() == (GOLDEN / golden / path.name).read_bytes(), path.name

    def test_fig7_small_scale(self, tmp_path):
        paths = reproduce("fig7_soft_fs", tmp_path, seed=3, scale=0.01)
        names = {p.name for p in paths}
        assert "fig7_soft_fs.csv" in names
        assert "fig7_soft_fs.json" in names
        rows = parse_csv(tmp_path / "fig7_soft_fs.csv")
        assert {r["method"] for r in rows} == {"Attn", "AttnSoftFS"}


def _golden_means() -> dict[tuple, float]:
    """(family, alpha, r, beta, method) -> accuracy_mean over the golden sweep CSVs."""
    means = {}
    for stem in ("binary_strings/binary_strings_fs_raw", "fig7/fig7_soft_fs", "fig11/fig11_topk"):
        for row in parse_csv(GOLDEN / f"{stem}.csv"):
            means[row["family"], row["alpha"], row["r"], row["beta"], row["method"]] = row["accuracy_mean"]
    return means


def test_readme_measured_results_match_goldens():
    # each README number must be its golden value rounded to the README's digits
    section = (GOLDEN.parent / "README.md").read_text().split("## Measured results", 1)[1].split("\n## ")[0]
    prose = " ".join(section.split())
    golden = _golden_means()
    claims = []  # (README text, golden value)
    table = re.findall(r"^\| (\d+) \| (\d) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$", section, re.M)
    for n, alpha, *texts in table:
        n, alpha = int(n), int(alpha)
        for method, text in zip(("Attn", "AttnSoftFS", "Proto"), texts):
            claims.append((text, golden[f"xor_n{n}", alpha, 5, n - alpha, method]))
    uplifts = re.findall(r"\+([\d.]+)pp at r=(\d+), beta=(\d+)", prose)
    for text, r, beta in uplifts:
        cell = ("xor", 4, int(r), int(beta))
        claims.append((text, 100 * (golden[(*cell, "AttnSoftFS")] - golden[(*cell, "Attn")])))
    pairs = re.findall(r"([\d.]+) vs ([\d.]+) at (?:r=(\d+), )?beta=(\d+)", prose)
    r = None
    for top_k, soft, r_text, beta in pairs:
        r = int(r_text or r)  # "at beta=10" keeps the r of the pair before it
        claims.append((top_k, golden["xor", 4, r, int(beta), "AttnTopK"]))
        claims.append((soft, golden["xor", 4, r, int(beta), "AttnSoftFS"]))
    assert (len(table), len(uplifts), len(pairs)) == (6, 2, 2)
    wrong = [
        (text, value)
        for text, value in claims
        if abs(float(text) - value) > 0.5 * 10.0 ** -len(text.partition(".")[2]) + 1e-12
    ]
    assert wrong == []
