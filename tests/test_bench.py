import csv
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import polyselect
from polyselect import bench, selection, theory
from polyselect.bench import (
    METHODS,
    CellResult,
    SweepSpec,
    _heat_color,
    emit_csv,
    emit_json,
    emit_svg_heatmap,
    reproduce,
    run_sweep,
)
from polyselect.boolefn import corners
from polyselect.core import Encoding, LabeledSet, Task, csv_text, task_seed
from polyselect.kernels import AttentionConfig, Kernel
from polyselect.selection import FACTORS, SelectionConfig, feature_scores
from polyselect.tasks import BooleanTaskSpec, gen_boolean_batch, gen_boolean_task
from polyselect.theory import TheoryParams

GOLDEN = Path(__file__).resolve().parents[1] / "out"

needs_avx512f = pytest.mark.skipif(
    not __cpu_features__.get("AVX512F"),
    reason="numpy finds no AVX512F on this CPU, so the imitated AVX2 profile is the one every test already runs",
)


def run_cli_under_avx2_profile(*argv: str) -> bytes:
    """The stdout of `python -m polyselect.cli argv` in a child under OpenBLAS's Haswell kernel and numpy's AVX2 loops.

    These are the kernels an AVX2-only CPU runs, chosen in the child by its environment alone.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(polyselect.__file__).parents[1]), OPENBLAS_CORETYPE="Haswell",
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    return subprocess.run([sys.executable, "-m", "polyselect.cli", *argv], env=env, capture_output=True,
                          check=True).stdout


def parse_csv(path: str | Path) -> list[dict]:
    """A sweep CSV read back into rows typed by bench's column declaration."""
    with Path(path).open(newline="") as fh:
        return [{c: cast(row[c]) for c, cast in bench._CSV_TYPES.items()} for row in csv.DictReader(fh)]


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
    """Reference sweep: one generated task and one method per _accuracies call at a time.

    AttnTopK without top_k keeps the task metadata's active count, as eval fills it in.
    """
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
            selection = spec.selection
            if selection.top_k is None:
                selection = replace(selection, top_k=task.meta.alpha)
            for m in spec.methods:
                try:
                    accs[m].append(bench._accuracies(task, (m,), spec.attention, selection)[m])
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
        bench._chunk_size(BooleanTaskSpec(n=spec.alpha + b, alpha=spec.alpha, r=r, query_count=spec.query_count))
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


def _pid_after_sleep_on_zero(item: int) -> int:
    if item == 0:
        time.sleep(0.3)
    return os.getpid()


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

    def test_methods_are_attn_the_selection_factors_and_proto(self):
        # the order of the CLI's --methods choices and of the test ids
        assert METHODS == ("Attn", *FACTORS, "Proto")

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

    def test_failing_method_dropped_alone(self):
        # at beta=0 (n=2) AttnTopK's top_k=3 fails every task; AttnSoftFS is kept
        spec = small_spec(
            alpha=2, beta_values=(0, 3), methods=("AttnSoftFS", "AttnTopK"), selection=SelectionConfig(rounds=2, top_k=3)
        )
        assert assert_matches_loop(spec) == 40

    @pytest.mark.parametrize(
        "methods, per_chunk",
        [(("AttnSoftFS", "AttnTopK"), 1), (("Attn", "Proto"), 0), (("Attn", "AttnSoftFS", "Proto"), 1)],
        ids=["fig11", "plain", "binary_strings"],
    )
    def test_selection_methods_share_one_scoring_per_chunk(self, monkeypatch, methods, per_chunk):
        # fig11_topk's two methods standardise and score each chunk once between them;
        # a chunk that raises nothing is never split by method or by task
        chunks, scorings = [], []
        run_chunk, scores = bench._run_chunk, selection._scores
        monkeypatch.setattr(bench, "_run_chunk", lambda item: chunks.append(item) or run_chunk(item))
        monkeypatch.setattr(selection, "_scores", lambda *args: scorings.append(args) or scores(*args))
        monkeypatch.setattr(bench, "CHUNK_BYTES", 2048)
        run_inline(monkeypatch, small_spec(alpha=4, methods=methods, selection=SelectionConfig(top_k=4)))
        assert len(chunks) > 4  # several chunks in each of the four cells
        assert len(scorings) == per_chunk * len(chunks)

    def test_fallback_reclassifies_only_the_failing_method(self, monkeypatch):
        # every chunk raises on its stack; each method is then tried alone on the
        # stack, and the three selection methods pass there, so none of them is
        # scored task by task
        chunks, scorings = [], []
        run_chunk, scores = bench._run_chunk, selection._scores
        monkeypatch.setattr(bench, "_run_chunk", lambda item: chunks.append(item) or run_chunk(item))
        monkeypatch.setattr(selection, "_scores", lambda *args: scorings.append(args) or scores(*args))
        spec = forced_failure_spec()
        grid = run_inline(monkeypatch, spec)
        assert all(cell.failures > 0 for cell in grid)
        assert len(chunks) == 4
        # per chunk: the stacked attempt, then each selection method alone on the stack
        assert len(scorings) == len(chunks) * (1 + len(FACTORS))  # 124 when every task was reclassified

    def test_per_task_labels_classify_like_a_loop(self):
        # four 3-input truth tables on the cube's corners, each task its own support
        # labels: Attn takes the stack in one call, and the methods that slice class
        # blocks out of the support raise there and fall back to task by task
        x = np.broadcast_to(corners(3).astype(np.float64), (4, 8, 3))
        labels = (np.array([0x96, 0x80, 0xE8, 0x3C])[:, None] >> np.arange(8)) & 1
        stack = Task(LabeledSet(x, labels, k=2), LabeledSet(x, labels, k=2))
        attention, sel = AttentionConfig(tau_inv=0.5), SelectionConfig(rounds=2, top_k=2)
        kept = bench._kept_accuracies(stack, METHODS, attention, sel)
        for m in METHODS:
            loop = np.array([bench._accuracies(stack[t], (m,), attention, sel)[m] for t in range(4)])
            assert kept[m].tobytes() == loop.tobytes(), m


# a non-default value for every field of the configs the methods read
KNOBS = {
    SelectionConfig: {"epsilon": 0.5, "tau_inv": 0.5, "rounds": 1, "top_k": 1},
    AttentionConfig: {"kind": Kernel.COSINE, "tau_inv": 3.0},
}


class TestConfigKnobs:
    def _probs(self, monkeypatch, task, attention, selection) -> list[np.ndarray]:
        """Each method's query probabilities, as _accuracies hands them to predict."""
        if selection.top_k is None:  # as eval fills it in
            selection = replace(selection, top_k=task.meta.alpha)
        probs, predict = [], bench.predict
        monkeypatch.setattr(bench, "predict", lambda p: probs.append(p) or predict(p))
        bench._accuracies(task, METHODS, attention, selection)
        assert len(probs) == len(METHODS)
        return probs

    @pytest.mark.parametrize("config, name", [(c, f.name) for c in KNOBS for f in fields(c)])
    def test_every_field_changes_some_method(self, monkeypatch, config, name):
        # a field that no method reads is an option without effect
        task = gen_boolean_task(BooleanTaskSpec(n=7, alpha=3, p=0.5, r=3, seed=5))
        defaults = {SelectionConfig: SelectionConfig(), AttentionConfig: AttentionConfig()}
        changed = {**defaults, config: replace(defaults[config], **{name: KNOBS[config][name]})}
        before = self._probs(monkeypatch, task, defaults[AttentionConfig], defaults[SelectionConfig])
        after = self._probs(monkeypatch, task, changed[AttentionConfig], changed[SelectionConfig])
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

    @pytest.mark.parametrize("cpu_count, usable", [(5, 5), (None, 1)])
    def test_usable_cpus_without_affinity_is_cpu_count(self, monkeypatch, cpu_count, usable):
        # platforms without sched_getaffinity (macOS, Windows) fall back to os.cpu_count()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert bench._usable_cpus() == usable

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
        def fail(*args):
            raise RuntimeError("worker failed")

        monkeypatch.setattr(bench, "_accuracies", fail)
        with pytest.raises(RuntimeError, match="worker failed"):
            run_sweep(small_spec())
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []

    def test_crashed_worker_is_broken_pool(self, monkeypatch, process_starts):
        parent = os.getpid()

        def crash(*args):
            if os.getpid() == parent:
                raise AssertionError("chunk ran in the parent process")
            os._exit(1)

        monkeypatch.setattr(bench, "_accuracies", crash)
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
        # workers take one chunk at a time, so 8 chunks or more keep a sweep's
        # tail, the last chunk one worker runs while the other idles, to at most
        # an eighth of it (a 1000-task cell at a CHUNK_BYTES of 8 MiB was 1 to 3
        # chunks, and one worker ran two)
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

    def test_plan_is_made_once_in_run_sweep(self, monkeypatch):
        # each item is (spec, shape, start, stop): the items partition the grid's
        # task indices in grid order, each within one cell and with that cell's
        # task shape, and AttnTopK's k is filled in without touching the caller's spec
        spec = small_spec(methods=("AttnTopK",))
        planned = []

        def plan_only(fn, items):
            planned.extend(items)
            return [{m: np.zeros(stop - start) for m in spec.methods} for *_, start, stop in items]

        monkeypatch.setattr(bench, "_map_chunks", plan_only)
        monkeypatch.setattr(bench, "CHUNK_BYTES", 2048)
        run_sweep(spec)
        assert spec.selection.top_k is None
        cells = [(r, beta) for r in spec.r_values for beta in spec.beta_values]
        tasks = spec.tasks_per_cell
        assert len(planned) > len(cells)  # several chunks in some cell
        assert [i for *_, start, stop in planned for i in range(start, stop)] == list(range(len(cells) * tasks))
        for item_spec, shape, start, stop in planned:
            assert item_spec == replace(spec, selection=replace(spec.selection, top_k=spec.alpha))
            assert start // tasks == (stop - 1) // tasks
            assert shape == bench._cell_shape(spec, *cells[start // tasks])

    def test_every_kernel_plans_the_chunks_of_dot(self, monkeypatch):
        # Laplace adds its similarity feature by feature into one (..., q, m)
        # buffer, so the chunk size reads the task shape alone
        def planned_chunks(kind):
            planned = []

            def plan_only(fn, items):
                planned.extend((start, stop) for *_, start, stop in items)
                return [{m: np.zeros(stop - start) for m in spec.methods} for *_, start, stop in items]

            spec = small_spec(attention=AttentionConfig(kind))
            monkeypatch.setattr(bench, "_map_chunks", plan_only)
            run_sweep(spec)
            return planned

        monkeypatch.setattr(bench, "CHUNK_BYTES", 2048)
        dot = planned_chunks(Kernel.DOT)
        assert len(dot) > 4  # several chunks in some cell
        for kind in Kernel:
            assert planned_chunks(kind) == dot, kind

    def test_idle_worker_takes_the_next_chunk(self, monkeypatch):
        # item 0 holds its worker, so the other worker takes every later item
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 2)
        pids = bench._map_chunks(_pid_after_sleep_on_zero, list(range(16)))
        assert pids[0] not in pids[1:]

    def test_import_loads_no_process_machinery(self):
        # the pool's modules are imported only when a sweep starts one, and
        # numpy.random only when something draws (it costs a forked pool's RSS)
        code = (
            "import sys, polyselect; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', 'numpy.random') "
            "if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(polyselect.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestRecipePool:
    """Under reproduce, every chunk map forks its own pool and reaps it, as it does outside."""

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

    def test_binary_strings_forks_a_pool_per_sweep(
        self, monkeypatch, process_starts, map_sizes, tmp_path
    ):
        with monkeypatch.context() as m:
            m.setattr(bench, "_usable_cpus", lambda: 1)
            inline = reproduce("binary_strings_fs_raw", tmp_path / "inline", seed=4, scale=0.01)
        assert process_starts == []
        map_sizes.clear()
        pooled = reproduce("binary_strings_fs_raw", tmp_path / "pool", seed=4, scale=0.01)
        assert len(map_sizes) == 6 and min(map_sizes) >= 2  # six sweeps, each needing two workers
        assert len(process_starts) == 6 * 2
        assert multiprocessing.active_children() == []
        assert [p.read_bytes() for p in pooled] == [p.read_bytes() for p in inline]

    def test_each_map_forks_min_of_cpus_and_items(self, monkeypatch, process_starts, tmp_path):
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 3)

        def maps(out, seed, scale):
            return [bench._map_chunks(abs, [-n] * n) for n in (2, 3, 2)]

        monkeypatch.setitem(bench.RECIPES, "maps", maps)
        assert reproduce("maps", tmp_path) == [[2, 2], [3, 3, 3], [2, 2]]
        assert len(process_starts) == 2 + 3 + 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("recipe", ["table3_counts", "appD_xor_bound", "appC_boundary"])
    def test_exact_recipes_start_no_process(self, process_starts, map_sizes, recipe, tmp_path):
        reproduce(recipe, tmp_path)
        assert map_sizes == []
        assert process_starts == []

    def test_exact_recipes_import_no_process_machinery(self, tmp_path):
        code = (
            "import sys\n"
            "from polyselect.bench import reproduce\n"
            "from polyselect.theory import TheoryParams, exhaustive_stats\n"
            "for recipe in ('table3_counts', 'appD_xor_bound', 'appC_boundary'):\n"
            "    reproduce(recipe, sys.argv[1])\n"
            "exhaustive_stats(TheoryParams(alpha=2, beta_irrelevant=3, p=0.3, r=1))\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', 'numpy.random') "
            "if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(polyselect.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
        assert len(list(tmp_path.iterdir())) == 5  # every recipe wrote its files

    def test_worker_error_reaches_caller(self, monkeypatch, process_starts, map_sizes, tmp_path):
        def fail(*args):
            raise RuntimeError("worker failed")

        monkeypatch.setattr(bench, "_accuracies", fail)
        with pytest.raises(RuntimeError, match="worker failed"):
            reproduce("binary_strings_fs_raw", tmp_path, scale=0.01)
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []

    def test_crashed_worker_is_broken_pool(self, monkeypatch, process_starts, map_sizes, tmp_path):
        parent = os.getpid()

        def crash(*args):
            if os.getpid() == parent:
                raise AssertionError("chunk ran in the parent process")
            os._exit(1)

        monkeypatch.setattr(bench, "_accuracies", crash)
        with pytest.raises(BrokenProcessPool):
            reproduce("binary_strings_fs_raw", tmp_path, scale=0.01)
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []

    def test_error_after_a_map_reaps_the_pool(self, monkeypatch, process_starts, map_sizes, tmp_path):
        # the first sweep forks and reaps its pool; the parent then raises before the second
        def fail(*args, **kwargs):
            raise RuntimeError("rows failed")

        monkeypatch.setattr(bench, "_grid_rows", fail)
        with pytest.raises(RuntimeError, match="rows failed"):
            reproduce("binary_strings_fs_raw", tmp_path, scale=0.01)
        assert len(map_sizes) == 1
        assert len(process_starts) == 2
        assert multiprocessing.active_children() == []


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

    # in the two tests below no method fails on every task of a cell, so no mean is nan;
    # the JSON writes null for a nan mean (tests/test_cli.py checks it), the CSV nan
    def test_json_mirrors_csv(self, tmp_path):
        spec = small_spec(r_values=(1,), beta_values=(2,), tasks_per_cell=5)
        grid = run_sweep(spec)
        csv_rows = parse_csv(emit_csv(spec, grid, tmp_path / "s.csv"))
        json_rows = json.loads((emit_json(spec, grid, tmp_path / "s.json")).read_text())["rows"]
        assert csv_rows == sorted(json_rows, key=lambda r: (r["r"], r["beta"], r["method"]))

    def test_json_rows_are_the_csv_rows(self, tmp_path):
        # p=1 is an int and alpha a numpy int: both files carry the cast values
        spec = small_spec(alpha=np.int64(2), r_values=(1,), beta_values=(2,), p=1, tasks_per_cell=3)
        grid = run_sweep(spec)
        csv_rows = parse_csv(emit_csv(spec, grid, tmp_path / "s.csv"))
        json_rows = json.loads((emit_json(spec, grid, tmp_path / "s.json")).read_text())["rows"]
        assert csv_rows == json_rows
        assert [(type(r["alpha"]), type(r["p"])) for r in json_rows] == [(int, float)] * len(spec.methods)

    def test_heat_scale_endpoints(self):
        cold = _heat_color(0.5)
        hot = _heat_color(1.0)
        assert cold == "#2830ff"
        assert hot == "#ff3028"
        assert _heat_color(0.2) == cold  # clamped below the scale floor
        assert _heat_color(1.3) == hot

    def test_failed_cell_is_grey_not_chance(self, tmp_path):
        # attention logits overflow at this tau_inv, so both methods fail on every task
        spec = SweepSpec(
            alpha=2, r_values=(1,), beta_values=(2,), methods=("Attn", "Proto"), tasks_per_cell=5,
            attention=AttentionConfig(tau_inv=1e308),
        )
        grid = run_sweep(spec)
        assert all(math.isnan(v) for v in grid[0].accuracy_mean.values())
        scale = {_heat_color(a) for a in np.linspace(0.0, 1.5, 301)}
        assert "#808080" not in scale
        for m in spec.methods:
            text = emit_svg_heatmap(spec, grid, m, tmp_path / f"{m}.svg").read_text()
            rects = re.findall(r'<rect [^>]*fill="([^"]+)"><title>([^<]+)</title>', text)
            assert rects == [("#808080", "r=1 beta=2 acc=nan")]

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
        with pytest.raises(ValueError, match=re.escape("unknown recipe 'nope'; available: [")):
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
            pytest.param("fig7_soft_fs", "fig7", marks=pytest.mark.slow),
        ],
    )
    def test_regenerates_committed_golden(self, tmp_path, recipe, golden):
        paths = reproduce(recipe, tmp_path)
        assert sorted(p.name for p in paths) == sorted(p.name for p in (GOLDEN / golden).iterdir())
        for path in paths:
            assert path.read_bytes() == (GOLDEN / golden / path.name).read_bytes(), path.name

    @pytest.mark.slow
    @needs_avx512f
    def test_cpu_independent_goldens_hold_under_an_avx2_profile(self, tmp_path):
        # tolerances fixed before the first run; the README names the moves measured
        # within them. The three sweep goldens differ in their tied rows (ROADMAP item 23).
        def columns(name: str) -> tuple[np.ndarray, np.ndarray]:
            """The rows of CSV name as written here and as committed, whose headers and shapes must match."""
            texts = [(root / name).read_text().splitlines() for root in (tmp_path, GOLDEN)]
            assert texts[0][0] == texts[1][0], name
            got, want = (np.array([[float(v) for v in row.split(",")] for row in text[1:]]) for text in texts)
            assert got.shape == want.shape, name
            return got, want

        for recipe, golden in [("table3_counts", "table3"), ("appD_xor_bound", "appD"),
                               ("appC_boundary", "appC"), ("fig5_sphere", "fig5")]:
            run_cli_under_avx2_profile("reproduce", recipe, "--out-dir", str(tmp_path / golden))
            assert sorted(p.name for p in (tmp_path / golden).iterdir()) == sorted(
                p.name for p in (GOLDEN / golden).iterdir())
        for name in ["table3/table3_counts.json", "appD/appD_xor_bound.json", "appD/appD_stats_n2.json",
                     "fig5/fig5_sphere_summary.json"]:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        got, want = columns("fig5/fig5_sphere_ratios.csv")
        np.testing.assert_array_equal(got[:, 0], want[:, 0])  # task seeds
        np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=1e-14, atol=0)
        for name in ["appC/appC_boundary_tau1.csv", "appC/appC_boundary_tau2.csv"]:
            np.testing.assert_allclose(*columns(name), rtol=0, atol=1e-15, err_msg=name)

    def test_recipes_call_run_sweep_through_the_module_global(self, monkeypatch, tmp_path):
        # perfbench captures every sweep by rebinding bench.run_sweep; a recipe that
        # bound run_sweep early would leave its sweep oracle nothing to check
        specs = []
        run = bench.run_sweep

        def recording(spec):
            specs.append(spec)
            return run(spec)

        monkeypatch.setattr(bench, "run_sweep", recording)
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 1)
        calls = {}
        for recipe in ("fig7_soft_fs", "fig11_topk", "binary_strings_fs_raw"):
            reproduce(recipe, tmp_path / recipe, scale=0.01)
            calls[recipe] = specs.copy()
            specs.clear()
        # every field spelled out, as the recipes spelled them before they shared one
        fixed = dict(p=0.5, query_count=32, encoding=Encoding.PLUS_MINUS, attention=AttentionConfig())
        assert calls["fig7_soft_fs"] == [
            SweepSpec(
                alpha=4,
                r_values=tuple(range(1, 11)),
                beta_values=tuple(range(0, 11)),
                methods=("Attn", "AttnSoftFS"),
                tasks_per_cell=5,
                selection=SelectionConfig(),
                global_seed=0,
                **fixed,
            )
        ]
        assert calls["fig11_topk"] == [
            SweepSpec(
                alpha=4,
                r_values=(1, 2, 5),
                beta_values=(4, 6, 8, 10),
                methods=("AttnSoftFS", "AttnTopK"),
                tasks_per_cell=5,
                selection=SelectionConfig(),
                global_seed=0,
                **fixed,
            )
        ]
        assert calls["binary_strings_fs_raw"] == [
            SweepSpec(
                alpha=alpha,
                r_values=(5,),
                beta_values=(n - alpha,),
                methods=("Attn", "AttnSoftFS", "Proto"),
                tasks_per_cell=10,
                selection=SelectionConfig(),
                global_seed=task_seed(0, n * 100 + alpha),
                **fixed,
            )
            for n in (5, 10)
            for alpha in (2, 3, 4)
        ]

    def test_fig7_small_scale(self, tmp_path):
        paths = reproduce("fig7_soft_fs", tmp_path, seed=3, scale=0.01)
        names = {p.name for p in paths}
        assert "fig7_soft_fs.csv" in names
        assert "fig7_soft_fs.json" in names
        rows = parse_csv(tmp_path / "fig7_soft_fs.csv")
        assert {r["method"] for r in rows} == {"Attn", "AttnSoftFS"}
        # a quick run covers the golden's grid, with fewer tasks per cell
        tables = (rows, parse_csv(GOLDEN / "fig7" / "fig7_soft_fs.csv"))
        quick, golden = ([(r["r"], r["beta"], r["method"]) for r in table] for table in tables)
        assert quick == golden
        assert {r["tasks"] for r in rows} == {5}


# the sweep recipes whose cells the README cites, each by its directory under out/
README_SWEEPS = {"binary_strings": "binary_strings_fs_raw", "fig7": "fig7_soft_fs", "fig11": "fig11_topk"}

# the slow check's seed, fixed before its first run; the goldens are seed 0
SECOND_SEED = 3


def _sweep_rows(root: Path = GOLDEN) -> dict[tuple, dict]:
    """(family, alpha, r, beta, method) -> row over the README_SWEEPS CSVs under root."""
    rows = {}
    for directory, stem in README_SWEEPS.items():
        for row in parse_csv(root / directory / f"{stem}.csv"):
            rows[row["family"], row["alpha"], row["r"], row["beta"], row["method"]] = row
    return rows


def _proto_rows(rows: dict[tuple, dict]) -> list[dict]:
    return [row for key, row in rows.items() if key[-1] == "Proto"]


def _readme_claims(rows: dict[tuple, dict]) -> dict[str, list[tuple[str, float, list[tuple]]]]:
    """The README's measured claims by kind: (README text, its value over rows, the cells it reads)."""
    section = (GOLDEN.parent / "README.md").read_text().split("## Measured results", 1)[1].split("\n## ")[0]
    prose = " ".join(section.split())
    claims = {kind: [] for kind in ("table", "uplift", "topk", "gap", "proto_z")}

    def mean(key):
        return rows[key]["accuracy_mean"]

    for n, alpha, *texts in re.findall(r"^\| (\d+) \| (\d) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$", section, re.M):
        n, alpha = int(n), int(alpha)
        for method, text in zip(("Attn", "AttnSoftFS", "Proto"), texts):
            key = (f"xor_n{n}", alpha, 5, n - alpha, method)
            claims["table"].append((text, mean(key), [key]))
    for text, r, beta in re.findall(r"\+([\d.]+)pp at r=(\d+), beta=(\d+)", prose):
        soft, attn = keys = [("xor", 4, int(r), int(beta), m) for m in ("AttnSoftFS", "Attn")]
        claims["uplift"].append((text, 100 * (mean(soft) - mean(attn)), keys))
    r = None
    for top_k, soft, r_text, beta in re.findall(r"([\d.]+) vs ([\d.]+) at (?:r=(\d+), )?beta=(\d+)", prose):
        r = int(r_text or r)  # "at beta=10" keeps the r of the pair before it
        for text, method in ((top_k, "AttnTopK"), (soft, "AttnSoftFS")):
            key = ("xor", 4, r, int(beta), method)
            claims["topk"].append((text, mean(key), [key]))
    for texts in re.findall(r"recovers (\d+)%, (\d+)% and (\d+)% of the gap", prose):
        for alpha, text in zip((2, 3, 4), texts):
            attn, soft = keys = [("xor_n5", alpha, 5, 5 - alpha, m) for m in ("Attn", "AttnSoftFS")]
            claims["gap"].append((text, 100 * (mean(soft) - mean(attn)) / (1 - mean(attn)), keys))
    proto = [key for key in rows if key[-1] == "Proto"]
    for text in re.findall(r"every Proto number above is within ([\d.]+) standard errors", prose):
        claims["proto_z"].append((text, max(abs(mean(k) - 0.5) / rows[k]["accuracy_se"] for k in proto), proto))
    return claims


def test_readme_measured_results_match_goldens():
    # each README number must be its golden value rounded to the README's digits
    claims = _readme_claims(_sweep_rows())
    assert {kind: len(c) for kind, c in claims.items()} == {"table": 18, "uplift": 2, "topk": 4, "gap": 3, "proto_z": 1}
    wrong = [
        (text, value)
        for kind in claims.values()
        for text, value, _ in kind
        if abs(float(text) - value) > 0.5 * 10.0 ** -len(text.partition(".")[2]) + 1e-12
    ]
    assert wrong == []


@pytest.mark.slow
def test_readme_claims_hold_at_a_second_seed(tmp_path):
    """The README-cited cells at SECOND_SEED and full scale against the seed-0 goldens.

    Each cell lies within 4 combined standard errors of its golden, and each
    qualitative claim keeps its sign.  About 20 s on 2 cores; deselected by
    default, run with pytest -m slow.
    """
    for directory, stem in README_SWEEPS.items():
        reproduce(stem, tmp_path / directory, seed=SECOND_SEED)
    golden, second = _sweep_rows(), _sweep_rows(tmp_path)
    cited = {key for kind in _readme_claims(golden).values() for _, _, keys in kind for key in keys}
    assert len(cited) == 26
    moved = {
        key: (golden[key]["accuracy_mean"], second[key]["accuracy_mean"])
        for key in cited
        if abs(second[key]["accuracy_mean"] - golden[key]["accuracy_mean"])
        > 4 * math.hypot(golden[key]["accuracy_se"], second[key]["accuracy_se"])
    }
    assert moved == {}
    claims = _readme_claims(second)
    # selection helps more as r grows: each cited uplift exceeds r=1's at its beta
    for _, uplift, [(family, alpha, _, beta, _), _] in claims["uplift"]:
        soft, attn = (second[family, alpha, 1, beta, m]["accuracy_mean"] for m in ("AttnSoftFS", "Attn"))
        assert uplift > max(0.0, 100 * (soft - attn))
    # top-k is far stronger than soft selection at high noise
    for (_, top_k, _), (_, soft, _) in zip(claims["topk"][::2], claims["topk"][1::2]):
        assert top_k > soft
    # soft selection recovers more of the gap as the parity grows
    gaps = [value for _, value, _ in claims["gap"]]
    assert 0 < gaps[0] < gaps[1] < gaps[2]
    proto = _proto_rows(second)
    _assert_chance([r["accuracy_mean"] for r in proto], [r["accuracy_se"] for r in proto])


def _assert_z_gate(z) -> None:
    """Each |z| within 4.5, and the summed z within 4 sqrt(cells)."""
    z = np.asarray(z)
    assert np.all(np.abs(z) <= 4.5), z
    assert abs(z.sum()) <= 4 * math.sqrt(z.size), z


def _assert_chance(means, ses) -> None:
    """Each mean within 4.5 SE of 1/2, and the summed z within 4 sqrt(cells)."""
    _assert_z_gate((np.asarray(means) - 0.5) / np.asarray(ses))


def _fig7_attn_rows(r_values=range(1, 11)) -> list[dict]:
    """The fig7 golden's Attn rows with r in r_values, sorted by (r, beta)."""
    rows = parse_csv(GOLDEN / "fig7" / "fig7_soft_fs.csv")
    rows = [row for row in rows if row["method"] == "Attn" and row["r"] in r_values]
    return sorted(rows, key=lambda row: (row["r"], row["beta"]))


def _assert_theory_predicts_attn(rows: list[dict]) -> int:
    """Theory's Attn accuracy for each sweep row within the z gate; returns the cells with a z.

    Attn at tau 1 on the encoding theory models for the row's kernel (dot
    unless the row names one; +-1 rows for dot and cosine, 0/1 rows for
    sq_euclidean and laplace) classifies a query by the sign of theory's
    signed sum S, so row i's expected accuracy is P(S>0) + P(S=0)/2,
    estimated from 20,000 mc_signed_sums trials at task_seed(2, i) with the
    per-trial outcome's standard error.  At beta=0, S is a positive
    constant: prediction and row both read exactly 1.0, and there is no z.
    """
    z = []
    for i, row in enumerate(rows):
        params = TheoryParams(row["alpha"], row["beta"], row["p"], row["r"], row.get("kernel", Kernel.DOT))
        sums = theory.mc_signed_sums(params, 20_000, task_seed(2, i))
        outcome = (sums > 0) + 0.5 * (sums == 0)
        predicted = float(outcome.mean())
        if row["beta"] == 0:
            assert predicted == row["accuracy_mean"] == 1.0, row
            continue
        se = math.hypot(row["accuracy_se"], float(outcome.std(ddof=1)) / math.sqrt(outcome.size))
        z.append((row["accuracy_mean"] - predicted) / se)
    _assert_z_gate(z)
    return len(z)


def test_theory_predicts_the_attn_goldens():
    # the cells were fixed before any z was seen: fig7 at r in 1, 5, 10, then
    # the binary-strings rows in file order
    binary = parse_csv(GOLDEN / "binary_strings" / "binary_strings_fs_raw.csv")
    binary = [row for row in binary if row["method"] == "Attn"]
    assert _assert_theory_predicts_attn(_fig7_attn_rows((1, 5, 10)) + binary) == 36


@pytest.mark.slow
def test_theory_predicts_every_fig7_attn_golden():
    """The same rule over all 110 fig7 Attn rows (100 with a z); about 8 s."""
    assert _assert_theory_predicts_attn(_fig7_attn_rows()) == 100


# each kernel on the encoding its theory row models, in the order the cells are numbered
NATURAL_ENCODINGS = (
    (Kernel.DOT, Encoding.PLUS_MINUS),
    (Kernel.COSINE, Encoding.PLUS_MINUS),
    (Kernel.SQ_EUCLIDEAN, Encoding.ZERO_ONE),
    (Kernel.LAPLACE, Encoding.ZERO_ONE),
)


def attn_sweep(kind: Kernel, encoding: Encoding, **kwargs) -> tuple[SweepSpec, list[CellResult]]:
    """An Attn-only alpha=4 sweep with the given kernel and encoding."""
    spec = SweepSpec(
        alpha=4, methods=("Attn",), encoding=encoding, attention=AttentionConfig(kind=kind), **kwargs
    )
    return spec, run_sweep(spec)


def test_theory_predicts_attn_for_every_kernel_on_its_encoding():
    # the cells were fixed before any z was seen: alpha=4, r in {2, 5} and
    # beta in {3, 6} at seed 11, kernel by kernel, each cell in grid order
    rows = []
    for kind, encoding in NATURAL_ENCODINGS:
        spec, grid = attn_sweep(kind, encoding, r_values=(2, 5), beta_values=(3, 6), global_seed=11)
        rows += [row | {"kernel": kind} for row in bench._grid_rows(spec, grid)]
    assert _assert_theory_predicts_attn(rows) == 16


@pytest.mark.parametrize(
    "encoding, twin",
    [(Encoding.PLUS_MINUS, Kernel.DOT), (Encoding.ZERO_ONE, Kernel.SQ_EUCLIDEAN)],
    ids=["plus_minus-dot", "zero_one-sq_euclidean"],
)
def test_laplace_on_binary_rows_is_another_kernel(encoding, twin):
    # on +-1 rows -|x - y|_1 = x.y - n, a shift the softmax cannot see, and on
    # 0/1 rows |x - y|_1 = |x - y|^2: Attn's per-task accuracies are equal bit
    # for bit, an oracle for the L1 branch of similarity_matrix on sweep shapes
    grid = dict(r_values=(1, 2, 5, 10), beta_values=(0, 3, 6, 10), tasks_per_cell=80, global_seed=5)
    _, laplace = attn_sweep(Kernel.LAPLACE, encoding, **grid)
    _, other = attn_sweep(twin, encoding, **grid)
    assert_same_cells(laplace, other)


class TestTopKAndProtoOracles:
    """AttnTopK scores 1 where its top-4 scores are the active set, else 1/2 in expectation.

    With only the active features kept, each standardised to +-1/(1+eps), the
    support is a complete alpha-input parity table, and a query's class
    outvotes the other by r (2 sinh t)^alpha > 0 at t = tau_inv/(1+eps)^2: the
    sum over distances d of C(alpha, d) (-1)^d e^(t (alpha - 2d)). A miss drops
    an active feature, whose query bit is independent of everything the
    classifier sees, so the label is a fair coin given its inputs. Proto's
    class means are both 0 on the active features, so it decides on the
    irrelevant ones, which are independent of the label: its expected accuracy
    is exactly 1/2.
    """

    # the fig11 grid reduced to r in {1, 2, 5} and beta in {4, 10}
    SPEC = SweepSpec(
        alpha=4,
        r_values=(1, 2, 5),
        beta_values=(4, 10),
        methods=("AttnTopK", "Proto"),
        tasks_per_cell=100,
        selection=SelectionConfig(top_k=4),
    )

    @pytest.fixture(scope="class")
    def cells(self):
        """(cell, per-task hit flags).

        A hit is a task whose top-4 scores are its active set: every active
        score exceeds every irrelevant one, so no tie decides it.
        """
        spec = self.SPEC
        out = []
        for cell_index, cell in enumerate(run_sweep(spec)):
            first = cell_index * spec.tasks_per_cell
            seeds = [task_seed(spec.global_seed, first + t) for t in range(spec.tasks_per_cell)]
            shape = BooleanTaskSpec(n=spec.alpha + cell.beta, alpha=spec.alpha, r=cell.r)
            stack, active = gen_boolean_batch(shape, seeds)
            scores = feature_scores(stack.support, spec.selection)
            is_active = np.zeros(scores.shape, dtype=bool)
            np.put_along_axis(is_active, active, True, axis=-1)
            lowest_active = np.where(is_active, scores, np.inf).min(axis=-1)
            hits = lowest_active > np.where(is_active, -np.inf, scores).max(axis=-1)
            out.append((cell, hits))
        return out

    def test_every_hit_is_perfect(self, cells):
        for cell, hits in cells:
            assert np.all(cell.per_task["AttnTopK"][hits] == 1.0), (cell.r, cell.beta)
        rates = [hits.mean() for _, hits in cells]
        assert (min(rates), max(rates)) == (0.16, 0.98)  # the range the README gives

    def test_misses_are_at_chance(self, cells):
        misses = [cell.per_task["AttnTopK"][~hits] for cell, hits in cells]
        assert min(a.size for a in misses) >= 2  # so each cell's misses have a standard error
        _assert_chance([a.mean() for a in misses], [a.std(ddof=1) / math.sqrt(a.size) for a in misses])

    def test_proto_is_at_chance(self, cells):
        grid = [cell for cell, _ in cells]
        _assert_chance([c.accuracy_mean["Proto"] for c in grid], [c.accuracy_se["Proto"] for c in grid])

    def test_proto_goldens_are_at_chance(self):
        rows = _proto_rows(_sweep_rows())
        assert len(rows) == 6
        _assert_chance([r["accuracy_mean"] for r in rows], [r["accuracy_se"] for r in rows])
