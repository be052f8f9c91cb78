"""Outside-in layer tracing: wrap the public functions of each polyselect module.

Nothing inside the package is changed.  `LayerTracer.install` replaces every
public function of a layer module (the functions named in its `__all__` and
defined in that module) with a timing wrapper, and rebinds every reference to
the original that other polyselect modules imported by name, so calls between
layers are seen too.  Each call is one span: its parent is the innermost
wrapped call that was still open when it started, and its self time is its
duration minus the time its child spans covered.

Spans are folded as they close into per-function totals and per
(parent, child) edge totals, so memory stays bounded on workloads that make
hundreds of thousands of calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from pathlib import Path

LAYERS = ("core", "tasks", "selection", "kernels", "prototypes", "theory", "boolefn", "bench")

# Public functions whose self time is reported as a boolefn.scan_s component.
_SCAN_FUNCS = ("verify_xor_worst", "threshold_stats", "best_threshold_agreement")
_EMIT_FUNCS = ("emit_csv", "emit_json", "emit_svg_heatmap")


class LayerTracer:
    """Span recorder for the polyselect layers; one per traced process."""

    def __init__(self):
        self.stack: list[list] = []  # open frames: [qualname, start, child_s]
        self.funcs: dict[str, list] = {}  # qualname -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, total_s]
        self.counters: dict[str, int] = {}
        self.clear()
        self._originals: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        """Drop what was recorded so far, such as calls made while building inputs."""
        self.funcs.clear()
        self.edges.clear()
        self.counters.update(
            {
                "selection.attention_rounds": 0,
                "selection.gram_flops": 0,
                "kernels.softmax_elems": 0,
                "boolefn.cache_hits": 0,
                "boolefn.cache_misses": 0,
            }
        )

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        replacement: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"polyselect.{layer}")
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replacement[id(fn)] = self._wrap(layer, name, fn)
        modules = [importlib.import_module("polyselect")] + [
            m for name, m in sys.modules.items() if name.startswith("polyselect.") and m
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        before = self._before_hooks().get(qual)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else "<workload>"
            frame = [qual, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                self._close(parent, qual, duration, duration - frame[2])

        return traced

    def _close(self, parent: str, qual: str, duration: float, self_s: float) -> None:
        entry = self.funcs.get(qual)
        if entry is None:
            entry = self.funcs[qual] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_s
        edge = self.edges.get((parent, qual))
        if edge is None:
            edge = self.edges[(parent, qual)] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration

    # -- per-call counters, read from arguments before the call ---------------

    def _before_hooks(self) -> dict:
        counters = self.counters

        def attention_round(args, kwargs):
            x = args[0] if args else kwargs["class_features"]
            counters["selection.attention_rounds"] += 1
            shape = getattr(x, "shape", ())
            if len(shape) == 2 and shape[0] > 1:
                # X X^T of an (m, n) block: m*m dot products of length n.
                counters["selection.gram_flops"] += 2 * shape[0] * shape[0] * shape[1]

        def softmax(args, kwargs):
            scores = args[0] if args else kwargs["scores"]
            counters["kernels.softmax_elems"] += int(getattr(scores, "size", 0))

        def tables(args, kwargs):
            n = args[0] if args else kwargs["n"]
            use_cache = args[1] if len(args) > 1 else kwargs.get("cache", True)
            cache_dir = os.environ.get("POLYSELECT_CACHE")
            path = Path(cache_dir) / f"threshold_tables_n{n}.json" if cache_dir else None
            if use_cache and path is not None and path.exists():
                counters["boolefn.cache_hits"] += 1
            else:
                counters["boolefn.cache_misses"] += 1

        return {
            "selection.self_attention_round": attention_round,
            "kernels.softmax_rows": softmax,
            "boolefn.threshold_tables": tables,
        }

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self time and calls, plus the derived layer counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            prefix = layer + "."
            rows = [v for k, v in self.funcs.items() if k.startswith(prefix)]
            out[f"{layer}.self_s"] = sum(r[2] for r in rows)
            out[f"{layer}.calls"] = sum(r[0] for r in rows)
        out.update(self.counters)

        def stat(qual: str, idx: int) -> float:
            entry = self.funcs.get(qual)
            return entry[idx] if entry else 0

        out["boolefn.lp_solves"] = stat("boolefn.is_threshold", 0)
        out["boolefn.lp_s"] = stat("boolefn.is_threshold", 1)
        out["boolefn.enum_s"] = stat("boolefn.threshold_tables", 2)
        out["boolefn.scan_s"] = sum(stat(f"boolefn.{f}", 2) for f in _SCAN_FUNCS)
        out["bench.method_evals"] = stat("bench.evaluate_method", 0)
        out["bench.emit_s"] = sum(stat(f"bench.{f}", 1) for f in _EMIT_FUNCS)
        return out

    def span_tree(self) -> dict:
        """Folded spans: per-function totals and per-edge totals."""
        return {
            "functions": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.funcs.items())
            },
            "edges": [
                {"parent": p, "child": c, "calls": v[0], "total_s": v[1]}
                for (p, c), v in sorted(self.edges.items())
            ],
        }
