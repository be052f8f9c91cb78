"""Experiment harness: seeded sweeps over task grids, with CSV/JSON/SVG output.

Every method in a cell is evaluated on the same tasks (seeds derive from the
global seed and the task's grid position), so per-cell method differences are
paired comparisons.  METHODS names the classifiers a sweep can compare;
_accuracies classifies a sweep chunk, or the CLI eval's one task, under all
the methods asked for in one call, which scores each task once.  Each cell is
evaluated in chunks of consecutive tasks, each chunk one Task whose arrays
stack its tasks on a leading axis, sized by a fixed memory budget.  The
chunks of the whole grid run in forked worker processes, up to one per usable
CPU, and their results are merged in grid order; a chunk's tasks depend only
on its grid position, so rerunning a sweep or recipe with the same seed
produces byte-identical output files on any number of CPUs.
fig5_sphere sends its tasks through _map_chunks too.

Every chunk map, in a recipe or not, forks its own pool of one worker per
item up to one per usable CPU and reaps it before it returns or raises.
Recipes that map no chunks fork nothing and import no process machinery.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .boolefn import (
    threshold_stats,
    threshold_tables,
    verify_xor_worst,
    xor_max_accuracy,
)
from .core import Encoding, LabeledSet, Task, csv_text, json_text, task_seed
from .kernels import AttentionConfig, Kernel, attend_probs, predict
from .prototypes import build_prototypes, proto_classify
from .selection import FACTORS, SelectionConfig, feature_scores, select_probs
from .tasks import BooleanTaskSpec, SphereTaskSpec, gen_boolean_batch, gen_sphere_task
from .theory import and_boundary

__all__ = [
    "CellResult",
    "METHODS",
    "RECIPES",
    "SweepSpec",
    "emit_csv",
    "emit_json",
    "emit_svg_heatmap",
    "reproduce",
    "run_sweep",
]


METHODS = ("Attn", *FACTORS, "Proto")

# Chunk size budget: bytes of the largest per-task float64 temporary in a chunk.
# A chunk has a fixed cost (validating its task specs, a few hundred numpy
# operations of scoring) whatever its size, so small chunks spend their time
# on it: at 128 KiB an alpha=4, r=5 cell ran 6 tasks per chunk.  A large
# budget leaves the pool too few chunks to balance: at 8 MiB a 1000-task
# binary_strings cell is 1 to 3 chunks for 2 workers.  512 KiB gives the
# alpha=4 cell 40 chunks of 25 tasks, and every recipe sweep at least 8
# chunks (a test checks this).
CHUNK_BYTES = 512 * 1024


@dataclass(frozen=True)
class SweepSpec:
    """A grid of parity tasks: alpha fixed, r and beta ranging."""

    alpha: int
    r_values: tuple[int, ...]
    beta_values: tuple[int, ...]
    p: float = 0.5
    query_count: int = 32
    encoding: Encoding = Encoding.PLUS_MINUS
    methods: tuple[str, ...] = ("Attn", "AttnSoftFS")
    tasks_per_cell: int = 500
    attention: AttentionConfig = AttentionConfig()
    selection: SelectionConfig = SelectionConfig()
    global_seed: int = 0

    def __post_init__(self):
        if not self.r_values or not self.beta_values:
            raise ValueError("r_values and beta_values must be nonempty")
        if min(self.r_values) < 1:
            raise ValueError(f"r_values must all be >= 1, got {list(self.r_values)}")
        if min(self.beta_values) < 0:
            raise ValueError(f"beta_values must all be >= 0, got {list(self.beta_values)}")
        # the cells differ only in r and n = alpha + beta, so the largest one checks
        # alpha, p, query_count and every cell's buffer size, before any cell runs
        _cell_shape(self, max(self.r_values), max(self.beta_values))
        if self.tasks_per_cell < 1:
            raise ValueError("tasks_per_cell must be >= 1")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}; choose from {METHODS}")
        for name in ("methods", "r_values", "beta_values"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")


@dataclass
class CellResult:
    """One grid cell; per_task holds each method's accuracies, none for a task it raised on."""

    r: int
    beta: int
    tasks: int
    per_task: dict[str, np.ndarray] = field(repr=False)

    @property
    def accuracy_mean(self) -> dict[str, float]:
        """Each method's mean accuracy; nan for a method with none."""
        return {m: float(a.mean()) if a.size else float("nan") for m, a in self.per_task.items()}

    @property
    def accuracy_se(self) -> dict[str, float]:
        """Each method's standard error of the mean; 0.0 below two accuracies."""
        return {
            m: float(a.std(ddof=1) / np.sqrt(a.size)) if a.size > 1 else 0.0
            for m, a in self.per_task.items()
        }

    @property
    def failures(self) -> int:
        """Method evaluations that raised, summed over the methods."""
        return sum(self.tasks - accs.size for accs in self.per_task.values())


def _accuracies(task: Task, methods, attention, selection) -> dict[str, np.ndarray]:
    """Each method's query accuracy: a scalar on a task, one per task on a stack.

    The selection methods share one select_probs call; the caller fills in
    selection.top_k for AttnTopK.
    """
    selected = [m for m in methods if m in FACTORS]
    probs = select_probs(task, selected, attention, selection) if selected else {}
    if "Attn" in methods:
        probs["Attn"] = attend_probs(task.query.features, task.support, attention)
    if "Proto" in methods:
        probs["Proto"] = proto_classify(task.query.features, build_prototypes(task.support), attention.tau_inv)
    return {m: np.mean(predict(probs[m]) == task.query.labels, axis=-1) for m in methods}


def _kept_accuracies(task: Task, methods, attention, selection) -> dict[str, np.ndarray]:
    """_accuracies less what raises ValueError, on a task or a stack of them.

    The methods are classified in one call.  If it raises, each is tried
    alone; a method that still raises is left out of a single task, and on a
    stack is tried task by task, keeping a float64 array of the tasks it passed.
    """
    try:
        return _accuracies(task, methods, attention, selection)
    except ValueError:
        if len(methods) == 1 and task.support.features.ndim < 3:
            return {}
    if len(methods) > 1:
        kept = {}
        for m in methods:
            kept |= _kept_accuracies(task, (m,), attention, selection)
        return kept
    singles = (_kept_accuracies(task[t], methods, attention, selection) for t in range(len(task.support.features)))
    return {methods[0]: np.array([a for accs in singles for a in accs.values()], dtype=np.float64)}


def _chunk_size(task: BooleanTaskSpec, kernel: Kernel) -> int:
    """Tasks per chunk: the largest per-task temporary times this stays within CHUNK_BYTES.

    That temporary is the query-support similarity (q*m), the Gram matrix of
    one of the two classes ((m/2)^2) or the support itself (m*n); the Laplace
    kernel also holds every query-support difference (q*m*n).
    """
    m, q = task.r * 2**task.alpha, task.query_count
    floats = max(q * m, (m // 2) ** 2, m * task.n)
    if kernel is Kernel.LAPLACE:
        floats = max(floats, q * m * task.n)
    return max(1, CHUNK_BYTES // (8 * floats))


def _cell_shape(spec: SweepSpec, r: int, beta: int) -> BooleanTaskSpec:
    return BooleanTaskSpec(
        n=spec.alpha + beta,
        alpha=spec.alpha,
        p=spec.p,
        r=r,
        query_count=spec.query_count,
        encoding=spec.encoding,
    )


def _run_chunk(item: tuple) -> dict[str, np.ndarray]:
    """Each method's per-task accuracies on one chunk, a stack of tasks.

    An item is (spec, shape, start, stop): the tasks of grid index start..stop
    (task t of cell c has index c*tasks_per_cell + t), all of one cell, whose
    task shape is shape.  It is small and picklable, so a worker process
    builds the chunk's tasks itself.  A method that raises ValueError loses
    only the tasks it raises on (see _kept_accuracies).
    """
    spec, shape, start, stop = item
    chunk, _ = gen_boolean_batch(shape, [task_seed(spec.global_seed, i) for i in range(start, stop)])
    return _kept_accuracies(chunk, spec.methods, spec.attention, spec.selection)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_chunks(fn: Callable, items: list) -> list:
    """fn over items in order, on up to one forked worker per usable CPU.

    Each item is one message, so an idle worker takes the next item and a
    map's tail is at most one item.  Every map forks min(usable CPUs, items)
    workers for this call alone and reaps them before it returns or raises.
    Fork, not spawn or forkserver, because a fresh interpreter per worker
    would import numpy again.  With one worker or no fork, the items run
    inline and no process starts.
    """
    workers = min(_usable_cpus(), len(items))
    if workers < 2 or not hasattr(os, "fork"):
        return list(map(fn, items))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items))


def run_sweep(spec: SweepSpec) -> list[CellResult]:
    """Evaluate every method on every cell of the grid; paired per-task seeds.

    The sweep is planned here once: AttnTopK without top_k keeps spec.alpha
    features, and each cell's task shape and chunk items (see _run_chunk) are fixed.
    """
    if spec.selection.top_k is None:
        spec = replace(spec, selection=replace(spec.selection, top_k=spec.alpha))
    cells = list(itertools.product(spec.r_values, spec.beta_values))
    plan = []
    for cell_index, (r, beta) in enumerate(cells):
        shape = _cell_shape(spec, r, beta)
        size = _chunk_size(shape, spec.attention.kind)
        tasks = range(cell_index * spec.tasks_per_cell, (cell_index + 1) * spec.tasks_per_cell)
        plan.append([(spec, shape, start, min(start + size, tasks.stop)) for start in tasks[::size]])
    chunks = iter(_map_chunks(_run_chunk, [item for items in plan for item in items]))
    results = []
    for (r, beta), items in zip(cells, plan):
        parts = list(itertools.islice(chunks, len(items)))
        per_task = {m: np.concatenate([accs[m] for accs in parts]) for m in spec.methods}
        results.append(CellResult(r=r, beta=beta, tasks=spec.tasks_per_cell, per_task=per_task))
    return results


# the sweep CSV's columns in order, each with the type it is written and parsed as
_CSV_TYPES = {
    "family": str,
    "alpha": int,
    "beta": int,
    "p": float,
    "r": int,
    "method": str,
    "tasks": int,
    "accuracy_mean": float,
    "accuracy_se": float,
    "seed": int,
}


def _grid_rows(spec: SweepSpec, grid: list[CellResult], family: str = "xor") -> list[dict]:
    """One row per (cell, method), each value cast to its _CSV_TYPES column; CSV and JSON write these."""
    return [
        {
            column: cast(value)
            for (column, cast), value in zip(
                _CSV_TYPES.items(),
                (family, spec.alpha, cell.beta, spec.p, cell.r, m, cell.per_task[m].size,
                 cell.accuracy_mean[m], cell.accuracy_se[m], spec.global_seed),
                strict=True,
            )
        }
        for cell in grid
        for m in spec.methods
    ]


def _write_rows_csv(rows: list[dict], path: Path) -> Path:
    """Write grid rows under the _CSV_TYPES columns, as given."""
    path.write_text(csv_text(list(_CSV_TYPES), [[row[c] for c in _CSV_TYPES] for row in rows]))
    return path


def emit_csv(spec: SweepSpec, grid: list[CellResult], path: str | Path) -> Path:
    """Write one row per (cell, method)."""
    return _write_rows_csv(_grid_rows(spec, grid), Path(path))


def _json_rows(rows: list[dict]) -> list[dict]:
    """Grid rows for JSON, with null for the CSV's nan: the mean of a method that failed on every task."""
    return [{c: None if isinstance(v, float) and math.isnan(v) else v for c, v in row.items()} for row in rows]


def emit_json(spec: SweepSpec, grid: list[CellResult], path: str | Path) -> Path:
    return _write_json(Path(path), {"rows": _json_rows(_grid_rows(spec, grid))})


def _heat_color(accuracy: float) -> str:
    """Linear colour scale pinned to [0.5, 1.0]: cold blue to hot red.

    A nan mean (the method failed on every task of the cell) is grey, which
    the scale never produces.
    """
    if math.isnan(accuracy):
        return "#808080"
    t = (accuracy - 0.5) / 0.5
    t = min(1.0, max(0.0, t))
    red = round(40 + 215 * t)
    blue = round(255 - 215 * t)
    return f"#{red:02x}30{blue:02x}"


def emit_svg_heatmap(
    spec: SweepSpec, grid: list[CellResult], method: str, path: str | Path
) -> Path:
    """Cell-coloured accuracy grid (beta on x, r on y) for one method."""
    if method not in spec.methods:
        raise ValueError(f"method {method} not present in sweep")
    path = Path(path)
    cell_px = 36
    margin = 60
    betas = sorted(set(spec.beta_values))
    rs = sorted(set(spec.r_values))
    width = margin + cell_px * len(betas) + 20
    height = margin + cell_px * len(rs) + 20
    lookup = {(c.r, c.beta): c.accuracy_mean[method] for c in grid}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{margin + cell_px * len(betas) / 2:.1f}" y="14" text-anchor="middle" '
        f'font-size="12">{method} accuracy (colour scale 0.5 to 1.0)</text>',
    ]
    for yi, r in enumerate(rs):
        for xi, beta in enumerate(betas):
            acc = lookup[(r, beta)]
            x = margin + xi * cell_px
            y = margin + yi * cell_px
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                f'fill="{_heat_color(acc)}"><title>r={r} beta={beta} acc={acc:.4f}</title></rect>'
            )
    for xi, beta in enumerate(betas):
        parts.append(
            f'<text x="{margin + xi * cell_px + cell_px / 2:.1f}" y="{margin - 8}" '
            f'text-anchor="middle" font-size="10">{beta}</text>'
        )
    for yi, r in enumerate(rs):
        parts.append(
            f'<text x="{margin - 8}" y="{margin + yi * cell_px + cell_px / 2 + 4:.1f}" '
            f'text-anchor="end" font-size="10">{r}</text>'
        )
    parts.append(
        f'<text x="{margin + cell_px * len(betas) / 2:.1f}" y="{margin - 28}" '
        f'text-anchor="middle" font-size="11">irrelevant features (beta)</text>'
    )
    parts.append(
        f'<text x="14" y="{margin + cell_px * len(rs) / 2:.1f}" text-anchor="middle" '
        f'font-size="11" transform="rotate(-90 14 {margin + cell_px * len(rs) / 2:.1f})">'
        "variant repetitions (r)</text>"
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def _write_json(path: Path, payload) -> Path:
    path.write_text(json_text(payload) + "\n")
    return path


def _count_row(n: int) -> dict:
    """The n-input threshold-function count and its 2^(n^2) upper bound.

    The bound is None where 2^(n^2) is below the count, which is n=1 only.
    """
    count = len(threshold_tables(n))
    bound = 2 ** (n * n)
    return {"n": n, "count": count, "bound_2_pow_n2": bound if bound >= count else None}


def _recipe_table3_counts(out_dir: Path, seed: int, scale: float) -> list[Path]:
    rows = [_count_row(n) for n in (2, 3, 4)]
    return [_write_json(out_dir / "table3_counts.json", rows)]


def _recipe_appd_xor_bound(out_dir: Path, seed: int, scale: float) -> list[Path]:
    rows = []
    for n in (2, 3, 4, 5):
        entry = {
            "n": n,
            "max_agreement": xor_max_accuracy(n),
            "accuracy": xor_max_accuracy(n) / 2**n,
            "verified_worst": None,
        }
        if n <= 4:
            holds, _ = verify_xor_worst(n)
            entry["verified_worst"] = holds
        rows.append(entry)
    stats2 = threshold_stats(2)
    summary = {"solved_fraction_n2": stats2[0], "mean_best_accuracy_n2": stats2[1]}
    return [
        _write_json(out_dir / "appD_xor_bound.json", rows),
        _write_json(out_dir / "appD_stats_n2.json", summary),
    ]


def _recipe_appc_boundary(out_dir: Path, seed: int, scale: float) -> list[Path]:
    corners = np.array([[1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0]])
    labels = np.array([1, 0, 0, 0])
    support = LabeledSet(corners, labels, k=2)
    paths = []
    for tau in (1.0, 2.0):
        xs = np.linspace(0.2, 5.0, 50)
        ys = and_boundary(tau, xs)
        pts = np.column_stack([xs, ys])
        probs = attend_probs(pts, support, AttentionConfig(tau_inv=tau))
        gap = np.abs(probs[:, 1] - probs[:, 0])
        rows = [[tau, *row] for row in np.column_stack([pts, probs, gap]).tolist()]
        path = out_dir / f"appC_boundary_tau{tau:g}.csv"
        path.write_text(csv_text(["tau_inv", "x", "y", "p0", "p1", "gap"], rows))
        paths.append(path)
    return paths


def _sphere_ratios(spec: SphereTaskSpec) -> np.ndarray:
    """Per-feature scores after the default rounds over the scores at rounds=0."""
    task = gen_sphere_task(spec)
    sel = SelectionConfig()
    return feature_scores(task.support, sel) / feature_scores(task.support, replace(sel, rounds=0))


def _recipe_fig5_sphere(out_dir: Path, seed: int, scale: float) -> list[Path]:
    tasks = max(2, int(200 * scale))
    sample_count = max(16, int(1024 * scale))
    specs = [SphereTaskSpec(sample_count=sample_count, seed=task_seed(seed, t)) for t in range(tasks)]
    ratios = [ratio.tolist() for ratio in _map_chunks(_sphere_ratios, specs)]
    hits = sum(1 for x, y, z in ratios if z < 0.2 and x > 0.6 and y > 0.6)
    rows = [[spec.seed, *ratio] for spec, ratio in zip(specs, ratios)]
    csv_path = out_dir / "fig5_sphere_ratios.csv"
    csv_path.write_text(csv_text(["task_seed", "x_ratio", "y_ratio", "z_ratio"], rows))
    summary = {
        "tasks": tasks,
        "sample_count": sample_count,
        "criterion_rate": hits / tasks,
    }
    return [csv_path, _write_json(out_dir / "fig5_sphere_summary.json", summary)]


def _recipe_grid(out_dir: Path, seed: int, scale: float, *, stem, methods, r_values, beta_values) -> list[Path]:
    """stem's CSV, JSON and per-method heat maps of an alpha=4 grid; scale sets its task count.

    AttnTopK keeps alpha=4 features, the sweep's default top_k.
    """
    spec = SweepSpec(
        alpha=4,
        r_values=r_values,
        beta_values=beta_values,
        methods=methods,
        tasks_per_cell=max(2, int(500 * scale)),
        global_seed=seed,
    )
    grid = run_sweep(spec)
    paths = [
        emit_csv(spec, grid, out_dir / f"{stem}.csv"),
        emit_json(spec, grid, out_dir / f"{stem}.json"),
    ]
    for m in spec.methods:
        paths.append(emit_svg_heatmap(spec, grid, m, out_dir / f"{stem}_{m}.svg"))
    return paths


def _recipe_binary_strings_fs_raw(out_dir: Path, seed: int, scale: float) -> list[Path]:
    tasks = max(2, int(1000 * scale))
    rows = []
    for n in (5, 10):
        for alpha in (2, 3, 4):
            spec = SweepSpec(
                alpha=alpha,
                r_values=(5,),
                beta_values=(n - alpha,),
                methods=("Attn", "AttnSoftFS", "Proto"),
                tasks_per_cell=tasks,
                global_seed=task_seed(seed, n * 100 + alpha),
            )
            grid = run_sweep(spec)
            rows.extend(_grid_rows(spec, grid, family=f"xor_n{n}"))
    return [
        _write_rows_csv(rows, out_dir / "binary_strings_fs_raw.csv"),
        _write_json(out_dir / "binary_strings_fs_raw.json", _json_rows(rows)),
    ]


RECIPES = {
    "fig7_soft_fs": functools.partial(
        _recipe_grid,
        stem="fig7_soft_fs",
        methods=("Attn", "AttnSoftFS"),
        r_values=tuple(range(1, 11)),
        beta_values=tuple(range(0, 11)),
    ),
    "fig11_topk": functools.partial(
        _recipe_grid,
        stem="fig11_topk",
        methods=("AttnSoftFS", "AttnTopK"),
        r_values=(1, 2, 5),
        beta_values=(4, 6, 8, 10),
    ),
    "table3_counts": _recipe_table3_counts,
    "appD_xor_bound": _recipe_appd_xor_bound,
    "appC_boundary": _recipe_appc_boundary,
    "fig5_sphere": _recipe_fig5_sphere,
    "binary_strings_fs_raw": _recipe_binary_strings_fs_raw,
}


def reproduce(name: str, out_dir: str | Path, seed: int = 0, scale: float = 1.0) -> list[Path]:
    """Run a named recipe and write its artifacts under out_dir.

    scale multiplies task counts, and fig5_sphere's point count; a grid
    recipe keeps its grid at every scale (quick runs and the determinism
    checks use scale < 1).  Outputs remain fully deterministic in (name,
    seed, scale).  Each of the recipe's chunk maps forks and reaps its own
    workers (see _map_chunks), so no worker is left when this returns or raises.
    """
    if name not in RECIPES:
        raise ValueError(f"unknown recipe {name!r}; available: {sorted(RECIPES)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return RECIPES[name](out, seed, scale)
