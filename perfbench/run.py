"""polyselect benchmark: time each workload end to end, or per layer when traced.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload parity_sweep --seed 0 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each pass of a workload runs in a fresh process (perfbench/worker.py) that
imports polyselect from ./src, with BLAS pinned to one thread and its own
empty POLYSELECT_CACHE, and checks its own outputs.  Passes repeat until
--seconds is used up (at least MIN_PASSES).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end medians over untraced passes;
with --trace 1 untraced and traced passes alternate and the metrics are the
per-layer figures of the traced passes.  A full record of every pass, with
machine metadata and the sha256 of every output file, goes to
.perfbench/results/.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("parity_sweep", "sphere_scoring", "exact_lab")
MIN_PASSES = 3
SETUP_SAMPLES = 7  # set-up time is the median over this many fresh processes
PASS_TIMEOUT_S = 150
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts worker passes for one workload and keeps their records."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})

    def run_pass(self, trace: int, setup_only: bool = False) -> dict:
        self.count += 1
        pass_dir = self.work / f"pass{self.count}"
        pass_dir.mkdir(parents=True)
        result = pass_dir / "result.json"
        env = dict(self.env, POLYSELECT_CACHE=str(pass_dir / "cache"))
        cmd = [
            sys.executable,
            str(Path(__file__).resolve().parent / "worker.py"),
            f"--workload={self.workload}",
            f"--seed={self.seed}",
            f"--trace={trace}",
            f"--root={self.root}",
            f"--work={pass_dir}",
            f"--result={result}",
        ] + (["--setup-only"] if setup_only else [])
        spawned = _now()
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=self.root, timeout=PASS_TIMEOUT_S, capture_output=True, text=True
            )
            error = proc.stderr[-4000:] if proc.returncode else None
        except subprocess.TimeoutExpired:
            error = f"pass exceeded {PASS_TIMEOUT_S} s"
        ended = _now()
        record = json.loads(result.read_text()) if error is None and result.is_file() else None
        shutil.rmtree(pass_dir)
        if record is None:
            return {"error": error or "no result written", "span_s": ended - spawned, "trace": trace}
        record["setup_s"] = record.pop("ready") - spawned
        record["span_s"] = ended - spawned
        return record


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def _metric_units(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric names with their units, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def run_workload(
    root: Path, workload: str, seed: int, seconds: float, trace: int, work: Path, units: dict
):
    runner = Runner(root, workload, seed, work / workload)
    started = _now()
    passes: list[dict] = []
    order = (0, 1) if trace else (0,)
    while True:
        batch = [runner.run_pass(t) for t in order]
        passes += batch
        if any("error" in p for p in batch):
            break
        spent = _now() - started
        rounds = len(passes) // len(order)
        if rounds >= (1 if trace else MIN_PASSES) and spent + sum(p["span_s"] for p in batch) > seconds:
            break
    full = [p for p in passes if "error" not in p]
    setups = [p for p in full if p["trace"] == 0]
    while trace == 0 and len(setups) < SETUP_SAMPLES and len(full) == len(passes):
        probe = runner.run_pass(0, setup_only=True)
        if "error" in probe:
            passes.append(probe)
            break
        setups.append(probe)

    checks_failed = [c for p in full for c in p["checks"] if not c["ok"]]
    attempted = sum(p["attempted"] for p in full) + sum("error" in p for p in passes)
    failed = sum(p["failed"] for p in full) + sum("error" in p for p in passes)
    # Every pass of one workload and seed must write the same bytes.
    digests = [p["digests"] for p in full]
    attempted += max(0, len(digests) - 1)
    failed += sum(d != digests[0] for d in digests[1:])
    # Every pass must have run with one BLAS thread (None: no OpenBLAS to ask).
    attempted += len(full)
    failed += sum(p["blas"]["threads"] not in (1, None) for p in full)

    untraced = [p for p in full if p["trace"] == 0]
    traced = [p for p in full if p["trace"] == 1]
    metrics: dict[str, dict] = {}
    if full and len(full) == len(passes):
        if trace:
            overhead = _median(traced, "wall_s") - _median(untraced, "wall_s")
            for name, unit in units.items():
                if name == "tracing_overhead_s":
                    value = overhead
                else:
                    value = statistics.median(p["layers"][name] for p in traced)
                metrics[name] = {"value": value, "unit": unit}
        else:
            for name, unit in units.items():
                source = setups if name == "setup_s" else untraced
                metrics[name] = {"value": _median(source, name), "unit": unit}

    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": full[0]["numpy"] if full else None,
        "blas": full[0]["blas"] if full else None,
        "blas_env": {var: runner.env[var] for var in THREAD_VARS},
        "passes": len(untraced),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "run_s": _now() - started,
        "outputs_sha256": hashlib.sha256(json.dumps(digests[:1], sort_keys=True).encode()).hexdigest(),
    }
    summary = {
        "correct": failed == 0 and len(full) == len(passes),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "meta": meta,
        "summary": summary,
        "failed_checks": checks_failed[:50],
        "errors": [p["error"] for p in passes if "error" in p],
        "digests": digests[0] if digests else {},
        "passes": [{k: v for k, v in p.items() if k not in ("checks", "digests", "spans")} for p in passes],
        "spans": traced[0]["spans"] if traced else None,
    }
    return summary, record


def _print_summary(summary: dict, record: dict) -> None:
    meta = record["meta"]
    print(
        f"{meta['workload']}: seed {meta['seed']}, trace {meta['trace']}, "
        f"{meta['passes']} untraced + {meta['traced_passes']} traced passes, "
        f"{meta['setup_samples']} set-up samples, BLAS threads {meta['blas'] and meta['blas']['threads']}"
    )
    for name, m in summary["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    frac = summary["failed"] / summary["attempted"]
    print(f"  {'failed_frac':28s} {frac:>16.6g} fraction ({summary['failed']} of {summary['attempted']})")
    for check in record["failed_checks"][:10]:
        print(f"  FAILED {check['name']}: {check['detail'][:200]}")
    for error in record["errors"]:
        print(f"  ERROR {error.strip().splitlines()[-1] if error.strip() else error}")
    print(f"  outputs sha256 {meta['outputs_sha256']} (per file in the record)")
    print(
        f"  machine: nproc {meta['nproc']}, python {meta['python']}, numpy {meta['numpy']}, "
        f"commit {meta['git_commit']}"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description="polyselect benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "polyselect" / "__init__.py").is_file():
        print(f"no polyselect source under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if not (root / "out").is_dir():
        print(f"no golden outputs under {root / 'out'}", file=sys.stderr)
        return 2

    base = root / ".perfbench"
    work = base / f"run-{os.getpid()}"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    end_to_end, per_layer = _metric_units(root)
    units = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            summary, record = run_workload(root, name, args.seed, args.seconds, args.trace, work, units)
            out = results / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
            out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
            _print_summary(summary, record)
            combined["correct"] = combined["correct"] and summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            prefix = "" if len(names) == 1 else name + "."
            for key, value in summary["metrics"].items():
                combined["metrics"][prefix + key] = value
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
