"""Command-line interface.

Subcommands: gen-tasks, eval, sweep, theory, thresholds, reproduce.  Exit
codes: 0 on success, 2 on usage errors (argparse's convention), 1 on runtime
failures.  A --config file holds flat key=value lines mirroring the flags;
explicit flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (
    METHODS,
    RECIPES,
    SweepSpec,
    emit_csv,
    emit_json,
    emit_svg_heatmap,
    evaluate_method,
    reproduce,
    run_sweep,
)
from .boolefn import (
    MAX_ENUM_N,
    BooleanFunction,
    best_threshold_agreement,
    count_threshold,
    verify_xor_worst,
    xor_max_accuracy,
)
from .core import Encoding, task_from_json, task_seed, task_to_json
from .kernels import AttentionConfig, Kernel
from .selection import Dispersion, SelectionConfig, SelectionMode
from .tasks import (
    BooleanTaskSpec,
    SphereTaskSpec,
    gen_boolean_task,
    gen_sphere_task,
)
from .theory import (
    TheoryParams,
    exhaustive_stats,
    mc_misclassification,
    support_sum_stats,
)

__all__ = ["main"]


def _read_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line must be key=value: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _merged(args: argparse.Namespace, config: dict[str, str], key: str, cast, default):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return cast(config[key])
    return default


def _attention_from(args, config) -> AttentionConfig:
    return AttentionConfig(
        kind=Kernel(_merged(args, config, "kernel", str, "dot")),
        tau_inv=_merged(args, config, "tau_inv", float, 1.0),
    )


def _selection_from(args, config) -> SelectionConfig:
    return SelectionConfig(
        epsilon=_merged(args, config, "epsilon", float, 1e-8),
        tau_inv=_merged(args, config, "sel_tau_inv", float, 2.0),
        rounds=_merged(args, config, "rounds", int, 10),
        dispersion=Dispersion(_merged(args, config, "dispersion", str, "mad")),
        mode=SelectionMode(_merged(args, config, "mode", str, "soft_rescale")),
        top_k=_merged(args, config, "top_k", int, None),
    )


def _cmd_gen_tasks(args) -> int:
    config = _read_config(args.config)
    seed = _merged(args, config, "seed", int, 0)
    count = _merged(args, config, "count", int, 1)
    out_dir = _merged(args, config, "out_dir", str, None)
    family = _merged(args, config, "family", str, "boolean")

    tasks = []
    for i in range(count):
        s = task_seed(seed, i)
        if family == "boolean":
            spec = BooleanTaskSpec(
                n=_merged(args, config, "n", int, 10),
                alpha=_merged(args, config, "alpha", int, 3),
                p=_merged(args, config, "p", float, 0.5),
                r=_merged(args, config, "r", int, 5),
                query_count=_merged(args, config, "query_count", int, 32),
                encoding=Encoding(_merged(args, config, "encoding", str, "plus_minus")),
                seed=s,
            )
            tasks.append(gen_boolean_task(spec))
        elif family == "sphere":
            tasks.append(
                gen_sphere_task(
                    SphereTaskSpec(
                        sample_count=_merged(args, config, "sample_count", int, 64), seed=s
                    )
                )
            )
        else:
            raise ValueError(f"unknown task family {family!r}")

    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, task in enumerate(tasks):
            (out / f"task_{i:05d}.json").write_text(task_to_json(task) + "\n")
        print(f"wrote {len(tasks)} task(s) to {out}")
    else:
        for task in tasks:
            print(task_to_json(task))
    return 0


def _cmd_eval(args) -> int:
    config = _read_config(args.config)
    attention = _attention_from(args, config)
    selection = _selection_from(args, config)
    methods = args.methods or ["Attn", "AttnSoftFS", "Proto"]

    if args.task:
        task = task_from_json(Path(args.task).read_text())
    else:
        task = gen_boolean_task(
            BooleanTaskSpec(
                n=_merged(args, config, "n", int, 10),
                alpha=_merged(args, config, "alpha", int, 3),
                p=_merged(args, config, "p", float, 0.5),
                r=_merged(args, config, "r", int, 5),
                query_count=_merged(args, config, "query_count", int, 32),
                seed=_merged(args, config, "seed", int, 0),
            )
        )
    rows = [{"method": m, "accuracy": evaluate_method(m, task, attention, selection)} for m in methods]
    if args.dump_scores:
        from .selection import feature_scores, scores_csv

        scores_csv(args.dump_scores, feature_scores(task.support, selection))
    if args.format == "json":
        print(json.dumps({"rows": rows}, sort_keys=True, separators=(",", ":")))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "accuracy"])
        for row in rows:
            writer.writerow([row["method"], repr(row["accuracy"])])
        print(buf.getvalue(), end="")
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v != "")


def _cmd_sweep(args) -> int:
    config = _read_config(args.config)
    spec = SweepSpec(
        alpha=_merged(args, config, "alpha", int, 4),
        r_values=_parse_int_list(_merged(args, config, "r_values", str, "1,2,5,10")),
        beta_values=_parse_int_list(_merged(args, config, "beta_values", str, "0,3,6,10")),
        p=_merged(args, config, "p", float, 0.5),
        query_count=_merged(args, config, "query_count", int, 32),
        methods=tuple(args.methods or ("Attn", "AttnSoftFS")),
        tasks_per_cell=_merged(args, config, "tasks_per_cell", int, 500),
        attention=_attention_from(args, config),
        selection=_selection_from(args, config),
        global_seed=_merged(args, config, "seed", int, 0),
    )
    out_dir = Path(_merged(args, config, "out_dir", str, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = run_sweep(spec)
    written = []
    if args.format in ("csv", None):
        written.append(emit_csv(spec, grid, out_dir / "sweep.csv"))
    if args.format == "json":
        written.append(emit_json(spec, grid, out_dir / "sweep.json"))
    if args.svg:
        for m in spec.methods:
            written.append(emit_svg_heatmap(spec, grid, m, out_dir / f"sweep_{m}.svg"))
    for path in written:
        print(path)
    return 0


def _cmd_theory(args) -> int:
    config = _read_config(args.config)
    alpha = _merged(args, config, "alpha", int, 3)
    p = _merged(args, config, "p", float, 0.5)
    r = _merged(args, config, "r", int, 2)
    kernel = Kernel(_merged(args, config, "kernel", str, "dot"))
    trials = _merged(args, config, "trials", int, 20000)
    seed = _merged(args, config, "seed", int, 0)
    betas = _parse_int_list(_merged(args, config, "beta_values", str, "0,1,2,3,4"))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "alpha", "beta", "p", "r", "kernel",
            "analytic_mean", "analytic_var",
            "exhaustive_mean", "exhaustive_var",
            "mc_mean", "mc_var", "mc_misclass_rate", "trials",
        ]
    )
    for beta in betas:
        params = TheoryParams(alpha=alpha, beta_irrelevant=beta, p=p, r=r, kernel=kernel)
        analytic = support_sum_stats(params)
        try:
            exact = exhaustive_stats(params)
            ex_mean, ex_var = repr(exact.mean), repr(exact.variance)
        except ValueError:
            ex_mean, ex_var = "", ""
        mc = mc_misclassification(params, trials=trials, seed=task_seed(seed, beta))
        writer.writerow(
            [
                alpha, beta, repr(p), r, kernel.value,
                repr(analytic.mean), repr(analytic.variance),
                ex_mean, ex_var,
                repr(mc.mean), repr(mc.variance), repr(mc.misclass_rate), trials,
            ]
        )
    print(buf.getvalue(), end="")
    return 0


def _cmd_thresholds(args) -> int:
    if args.action == "count":
        payload = {
            "n": args.n,
            "count": count_threshold(args.n),
            "bound_2_pow_n2": 2 ** (args.n * args.n),
        }
    elif args.action == "approx":
        if not args.truth_table:
            raise ValueError("approx needs --truth-table <hex>")
        fn = BooleanFunction.from_hex(args.n, args.truth_table)
        agreement, witness = best_threshold_agreement(fn)
        payload = {
            "n": args.n,
            "truth_table": fn.to_hex(),
            "max_agreement": agreement,
            "accuracy": agreement / 2**args.n,
            "witness_weights": [str(w) for w in witness.weights],
            "witness_threshold": str(witness.threshold),
        }
    elif args.action == "verify-xor-worst":
        holds, offenders = verify_xor_worst(args.n)
        payload = {
            "n": args.n,
            "holds": holds,
            "xor_bound": xor_max_accuracy(args.n),
            "worst_tables_hex": [format(v, "x") for v in offenders[:64]],
        }
    else:
        raise ValueError(f"unknown thresholds action {args.action!r}")
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0


def _cmd_reproduce(args) -> int:
    paths = reproduce(args.recipe, args.out_dir or "out", seed=args.seed or 0, scale=args.scale)
    for path in paths:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("gen-tasks", help="emit task JSON for a generator family")
    add_common(p)
    p.add_argument("--family", choices=("boolean", "sphere"), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--query-count", dest="query_count", type=int, default=None)
    p.add_argument("--encoding", choices=("plus_minus", "zero_one"), default=None)
    p.add_argument("--sample-count", dest="sample_count", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=_cmd_gen_tasks)

    p = sub.add_parser("eval", help="evaluate methods on one task")
    add_common(p)
    p.add_argument("--task", default=None, help="task JSON file (else generate)")
    p.add_argument("--methods", nargs="+", choices=METHODS, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--kernel", choices=[k.value for k in Kernel], default=None)
    p.add_argument("--tau-inv", dest="tau_inv", type=float, default=None)
    p.add_argument("--sel-tau-inv", dest="sel_tau_inv", type=float, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    p.add_argument("--dump-scores", dest="dump_scores", default=None,
                   help="write the task's feature scores to this CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="run a task grid sweep")
    add_common(p)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--r-values", dest="r_values", default=None)
    p.add_argument("--beta-values", dest="beta_values", default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--tasks-per-cell", dest="tasks_per_cell", type=int, default=None)
    p.add_argument("--methods", nargs="+", choices=METHODS, default=None)
    p.add_argument("--kernel", choices=[k.value for k in Kernel], default=None)
    p.add_argument("--tau-inv", dest="tau_inv", type=float, default=None)
    p.add_argument("--sel-tau-inv", dest="sel_tau_inv", type=float, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("theory", help="analytic vs exhaustive vs Monte-Carlo table")
    add_common(p)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--beta-values", dest="beta_values", default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--kernel", choices=[k.value for k in Kernel], default=None)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("thresholds", help="exact threshold-function queries")
    p.add_argument("action", choices=("count", "approx", "verify-xor-worst"))
    p.add_argument("--n", type=int, required=True, choices=range(1, MAX_ENUM_N + 1))
    p.add_argument("--truth-table", dest="truth_table", default=None, help="hex table")
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("reproduce", help="run a named experiment recipe")
    p.add_argument("recipe", choices=sorted(RECIPES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--scale", type=float, default=1.0, help="shrink factor for quick runs")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
