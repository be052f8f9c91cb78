"""Command-line interface.

Subcommands: gen-tasks, eval, sweep, theory, thresholds, reproduce.  Exit
codes: 0 on success, 2 on usage errors (argparse's convention), 1 on runtime
failures.  A --config file holds flat key=value lines named like the flags
(underscores for dashes); explicit flags override file values, and a key the
command does not read is a runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    METHODS,
    RECIPES,
    SweepSpec,
    _count_row,
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
    threshold_stats,
    verify_xor_worst,
    xor_max_accuracy,
)
from .core import Encoding, task_from_json, task_seed, task_to_json
from .kernels import AttentionConfig, Kernel
from .selection import SelectionConfig, feature_scores
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
    snr_growth,
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
    """Flag value if given, else config value, else default.

    Takes the key out of config, so the keys left afterwards were never read.
    """
    raw = config.pop(key, None)
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if raw is not None:
        return cast(raw)
    return default


def _reject_unread(config: dict[str, str], command: str) -> None:
    if config:
        raise ValueError(f"{command} reads no config key {', '.join(sorted(config))}")


def _attention_from(args, config) -> AttentionConfig:
    default = AttentionConfig()
    return AttentionConfig(
        kind=Kernel(_merged(args, config, "kernel", str, default.kind)),
        tau_inv=_merged(args, config, "tau_inv", float, default.tau_inv),
    )


def _selection_from(args, config) -> SelectionConfig:
    default = SelectionConfig()
    return SelectionConfig(
        epsilon=_merged(args, config, "epsilon", float, default.epsilon),
        tau_inv=_merged(args, config, "sel_tau_inv", float, default.tau_inv),
        rounds=_merged(args, config, "rounds", int, default.rounds),
        top_k=_merged(args, config, "top_k", int, default.top_k),
    )


def _boolean_spec(args, config) -> BooleanTaskSpec:
    """The parity task spec of gen-tasks and eval; callers set its seed."""
    return BooleanTaskSpec(
        n=_merged(args, config, "n", int, 10),
        alpha=_merged(args, config, "alpha", int, 3),
        p=_merged(args, config, "p", float, 0.5),
        r=_merged(args, config, "r", int, 5),
        query_count=_merged(args, config, "query_count", int, 32),
        encoding=Encoding(_merged(args, config, "encoding", str, "plus_minus")),
    )


def _cmd_gen_tasks(args) -> int:
    config = _read_config(args.config)
    seed = _merged(args, config, "seed", int, 0)
    count = _merged(args, config, "count", int, 1)
    out_dir = _merged(args, config, "out_dir", str, None)
    family = _merged(args, config, "family", str, "boolean")
    if family == "boolean":
        spec, generate = _boolean_spec(args, config), gen_boolean_task
    elif family == "sphere":
        spec = SphereTaskSpec(sample_count=_merged(args, config, "sample_count", int, 64))
        generate = gen_sphere_task
    else:
        raise ValueError(f"unknown task family {family!r}")
    _reject_unread(config, "gen-tasks")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")

    tasks = [generate(replace(spec, seed=task_seed(seed, i))) for i in range(count)]
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


def _write_scores_csv(path: Path, scores) -> None:
    """Write (feature_index, score) rows for diagnostics."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["feature_index", "score"])
    for i, s in enumerate(scores):
        writer.writerow([i, repr(float(s))])
    path.write_text(buf.getvalue())


def _cmd_eval(args) -> int:
    config = _read_config(args.config)
    attention = _attention_from(args, config)
    selection = _selection_from(args, config)
    methods = args.methods or ["Attn", "AttnSoftFS", "Proto"]

    if args.task:
        _reject_unread(config, "eval --task")
        task = task_from_json(Path(args.task).read_text())
    else:
        # the first task gen-tasks writes for the same flags and config
        seed = _merged(args, config, "seed", int, 0)
        spec = replace(_boolean_spec(args, config), seed=task_seed(seed, 0))
        _reject_unread(config, "eval")
        task = gen_boolean_task(spec)
    rows = [{"method": m, "accuracy": evaluate_method(m, task, attention, selection)} for m in methods]
    if args.dump_scores:
        _write_scores_csv(Path(args.dump_scores), feature_scores(task.support, selection))
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
    _reject_unread(config, "sweep")
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
    _reject_unread(config, "theory")
    growth = snr_growth(TheoryParams(alpha, 0, p, r, kernel), betas) if len(betas) > 1 else None

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "alpha", "beta", "p", "r", "kernel",
            "analytic_mean", "analytic_var",
            "exhaustive_mean", "exhaustive_var",
            "mc_mean", "mc_var", "mc_misclass_rate", "trials",
            "snr_ratio", "snr_fitted_slope", "snr_asymptotic_slope",
        ]
    )
    for i, beta in enumerate(betas):
        params = TheoryParams(alpha=alpha, beta_irrelevant=beta, p=p, r=r, kernel=kernel)
        analytic = support_sum_stats(params)
        try:
            exact = exhaustive_stats(params)
            ex_mean, ex_var = repr(exact.mean), repr(exact.variance)
        except ValueError:
            ex_mean, ex_var = "", ""
        mc = mc_misclassification(params, trials=trials, seed=task_seed(seed, beta))
        snr = (
            [repr(growth.ratios[i]), repr(growth.fitted_slope), repr(growth.asymptotic_slope)]
            if growth
            else ["", "", ""]
        )
        writer.writerow(
            [
                alpha, beta, repr(p), r, kernel.value,
                repr(analytic.mean), repr(analytic.variance),
                ex_mean, ex_var,
                repr(mc.mean), repr(mc.variance), repr(mc.misclass_rate), trials,
                *snr,
            ]
        )
    print(buf.getvalue(), end="")
    return 0


def _cmd_thresholds(args) -> int:
    if args.action == "count":
        solved_fraction, mean_best_accuracy = threshold_stats(args.n)
        payload = {
            **_count_row(args.n),
            "solved_fraction": solved_fraction,
            "mean_best_accuracy": mean_best_accuracy,
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
            "witness_weights": list(witness.weights),
            "witness_threshold": witness.threshold,
        }
    elif args.action == "verify-xor-worst":
        holds, offenders = verify_xor_worst(args.n)
        payload = {
            "n": args.n,
            "holds": holds,
            "xor_bound": xor_max_accuracy(args.n),
            "worst_count": len(offenders),
            "worst_tables_hex": [format(v, "x") for v in offenders[:64]],
        }
    else:
        raise ValueError(f"unknown thresholds action {args.action!r}")
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0


def _scale(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _cmd_reproduce(args) -> int:
    paths = reproduce(args.recipe, args.out_dir or "out", seed=args.seed or 0, scale=args.scale)
    for path in paths:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = {
        "--seed": dict(type=int, default=None),
        "--out-dir": dict(dest="out_dir", default=None),
        "--config": dict(default=None),
        "--format": dict(choices=("csv", "json"), default=None),
    }

    def add_common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **common[flag])

    p = sub.add_parser("gen-tasks", help="emit task JSON for a generator family")
    add_common(p, "--seed", "--out-dir", "--config")
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
    add_common(p, "--seed", "--config", "--format")
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
    add_common(p, "--seed", "--out-dir", "--config", "--format")
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
    add_common(p, "--seed", "--config")
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
    add_common(p, "--seed", "--out-dir")
    p.add_argument("--scale", type=_scale, default=1.0, help="shrink factor for quick runs")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "thresholds" and args.action != "approx" and args.truth_table is not None:
        parser.error(f"thresholds {args.action} does not read --truth-table")
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
