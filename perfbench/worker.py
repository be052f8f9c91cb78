"""One pass of one workload, in a fresh process; started by run.py.

The pass imports polyselect, builds the workload's inputs, and then reports
itself ready.  Everything from ready to finished is the timed region.  After
it the pass checks its outputs and writes one JSON record to --result:

  python3 perfbench/worker.py --workload exact_lab --seed 0 --trace 0 \
      --root . --work .perfbench/tmp/pass0 --result pass0.json

`--setup-only` stops at ready, so run.py can sample set-up time cheaply.
The environment (BLAS threads, POLYSELECT_CACHE, PYTHONPATH) is set by run.py.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import importlib
import io
import json
import resource
import sys
import time
import traceback
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from layertrace import LayerTracer

SPHERE_TASKS = 24  # leading tasks of the fig5_sphere recipe scored per pass
SPHERE_POINTS = 1024  # the recipe's full-scale sample count
MC_TRIALS = 20_000


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def blas_info() -> dict:
    """Thread count and build of the OpenBLAS that numpy loaded, asked directly."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"library": Path(path).name, "threads": threads(), "config": config().decode()}
    return {"library": None, "threads": None, "config": None}


class SweepCapture:
    """Keeps the (spec, cells) of every run_sweep call the recipes make.

    It rebinds bench.run_sweep for the pass, so method failures, which
    run_sweep counts per cell instead of raising, reach the pass result.
    """

    def __init__(self, bench):
        self.inner = bench.run_sweep
        self.calls: list = []
        bench.run_sweep = self

    def __call__(self, spec):
        cells = self.inner(spec)
        self.calls.append((spec, cells))
        return cells


class ParitySweep:
    """binary_strings_fs_raw and fig11_topk at full scale."""

    recipes = (("binary_strings_fs_raw", "binary_strings"), ("fig11_topk", "fig11"))

    def __init__(self, ps, seed: int, out: Path, golden: Path):
        self.ps, self.seed, self.out, self.golden = ps, seed, out, golden
        self.capture = SweepCapture(ps.bench)

    def run(self) -> list[Path]:
        paths = []
        for recipe, sub in self.recipes:
            paths += self.ps.bench.reproduce(recipe, self.out / sub, seed=self.seed)
        return paths

    def attempted(self) -> tuple[int, int]:
        cells = [(spec, c) for spec, grid in self.capture.calls for c in grid]
        return sum(c.tasks * len(s.methods) for s, c in cells), sum(c.failures for _, c in cells)

    def check(self, paths) -> list[checks.Check]:
        ps = self.ps

        def gen_task(spec, index, beta, r):
            return ps.tasks.gen_boolean_task(
                ps.tasks.BooleanTaskSpec(
                    n=spec.alpha + beta,
                    alpha=spec.alpha,
                    p=spec.p,
                    r=r,
                    query_count=spec.query_count,
                    encoding=spec.encoding,
                    seed=ps.core.task_seed(spec.global_seed, index),
                )
            )

        out = checks.sweep_oracle(self.capture.calls, gen_task)
        out += checks.sweep_files_consistent(
            self.capture.calls, [p for p in paths if p.suffix == ".csv"]
        )
        if self.seed == 0:
            for recipe, sub in self.recipes:
                out += checks.golden_files(
                    [p for p in paths if p.parent.name == sub], self.golden / sub
                )
        return out


class SphereScoring:
    """The per-task work of fig5_sphere: generate, then score at rounds 0 and 10."""

    def __init__(self, ps, seed: int, out: Path, golden: Path):
        self.ps, self.seed, self.out, self.golden = ps, seed, out, golden
        self.specs = [
            ps.tasks.SphereTaskSpec(sample_count=SPHERE_POINTS, seed=ps.core.task_seed(seed, t))
            for t in range(SPHERE_TASKS)
        ]
        self.selection = ps.selection.SelectionConfig()
        self.base = replace(self.selection, rounds=0)
        self.kept: list = []

    def run(self) -> list[Path]:
        tasks, selection = self.ps.tasks, self.ps.selection
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["task_seed", "x_ratio", "y_ratio", "z_ratio"])
        for i, spec in enumerate(self.specs):
            task = tasks.gen_sphere_task(spec)
            base = selection.feature_scores(task.support, self.base)
            after = selection.feature_scores(task.support, self.selection)
            ratio = after / base
            writer.writerow(
                [spec.seed, repr(float(ratio[0])), repr(float(ratio[1])), repr(float(ratio[2]))]
            )
            if i in (0, len(self.specs) - 1):
                self.kept.append((task, base, after))
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / "fig5_sphere_ratios.csv"
        path.write_text(buf.getvalue())
        return [path]

    def attempted(self) -> tuple[int, int]:
        return 2 * len(self.specs), 0

    def check(self, paths) -> list[checks.Check]:
        out = [checks.sphere_oracle(t, b, a, self.selection) for t, b, a in self.kept]
        if self.seed == 0:
            out += checks.golden_rows(paths[0], self.golden / "fig5" / "fig5_sphere_ratios.csv")
        return out


class ExactLab:
    """table3_counts, appD_xor_bound and appC_boundary cold, then the theory oracles.

    These recipes do not read the seed, so their goldens hold at every seed;
    the seed moves the Monte-Carlo stream.
    """

    recipes = (("table3_counts", "table3"), ("appD_xor_bound", "appD"), ("appC_boundary", "appC"))

    def __init__(self, ps, seed: int, out: Path, golden: Path):
        self.ps, self.seed, self.out, self.golden = ps, seed, out, golden
        theory, kernels = ps.theory, ps.kernels
        kinds = (kernels.Kernel.DOT, kernels.Kernel.COSINE, kernels.Kernel.SQ_EUCLIDEAN)
        self.moment_params = [
            theory.TheoryParams(alpha, beta, p, r, kind)
            for alpha in (1, 2, 3)
            for beta in (0, 1, 2, 3, 4)
            for p in (0.3, 0.5, 0.8)
            for r in (1, 2)
            for kind in kinds
        ]
        self.mc_params = theory.TheoryParams(alpha=3, beta_irrelevant=4, p=0.5, r=2)
        self.moments: list = []
        self.mc = None

    def run(self) -> list[Path]:
        bench, theory = self.ps.bench, self.ps.theory
        paths = []
        for recipe, sub in self.recipes:
            paths += bench.reproduce(recipe, self.out / sub, seed=self.seed)
        for params in self.moment_params:
            self.moments.append(
                (params, theory.exhaustive_stats(params), theory.support_sum_stats(params))
            )
        mc = theory.mc_misclassification(self.mc_params, trials=MC_TRIALS, seed=101 + self.seed)
        self.mc = (mc, theory.support_sum_stats(self.mc_params))
        return paths

    def attempted(self) -> tuple[int, int]:
        return 0, 0

    def check(self, paths) -> list[checks.Check]:
        out = []
        for recipe, sub in self.recipes:
            out += checks.golden_files([p for p in paths if p.parent.name == sub], self.golden / sub)
        out += checks.moments_oracle(self.moments)
        out.append(checks.monte_carlo_oracle(*self.mc))
        return out


WORKLOADS = {"parity_sweep": ParitySweep, "sphere_scoring": SphereScoring, "exact_lab": ExactLab}


def _modules() -> SimpleNamespace:
    """The package's layer modules; workloads look functions up on them at call time."""
    names = ("core", "tasks", "selection", "kernels", "theory", "bench")
    return SimpleNamespace(**{n: importlib.import_module(f"polyselect.{n}") for n in names})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import polyselect

    src = (args.root / "src").resolve()
    if src not in Path(polyselect.__file__).resolve().parents:
        print(f"polyselect imported from {polyselect.__file__}, not from {src}", file=sys.stderr)
        return 2
    ps = _modules()
    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](ps, args.seed, args.work / "out", args.root / "out")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    record["ready"] = _now()
    if args.setup_only:
        args.result.write_text(json.dumps(record))
        return 0

    if tracer is not None:
        tracer.clear()
    cpu0 = _cpu()
    t0 = _now()
    try:
        paths = workload.run()
        error = None
    except Exception:  # a pass that raises is reported as failed, not lost
        paths, error = [], traceback.format_exc()
    t1 = _now()
    cpu1 = _cpu()
    record.update(
        wall_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        record["spans"] = tracer.span_tree()

    attempted, failed = workload.attempted()
    if tracer is not None:
        record["layers"]["bench.failures"] = failed
    record["numpy"] = np.__version__
    record["blas"] = blas_info()
    if error is None:
        results = workload.check(paths)
        record["digests"] = checks.digests(paths, args.work / "out")
    else:
        results = [checks.Check("workload-raised", False, error)]
        record["digests"] = {}
    record["checks"] = [asdict(c) for c in results]
    record["attempted"] = attempted + len(results)
    record["failed"] = failed + sum(not c.ok for c in results)
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
