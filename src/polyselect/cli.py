"""Command-line interface.

Subcommands: gen-tasks, eval, sweep, theory, thresholds, reproduce.  Exit
codes: 0 on success, 2 on usage errors (argparse's convention), 1 on runtime
failures.  A --config file holds flat key=value lines named like the flags
(underscores for dashes); explicit flags override file values.  A command
reads each setting as its flag, else its config key, else its default, and
rejects what its mode did not read: an unread flag is a usage error, an
unread config key a runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    METHODS,
    RECIPES,
    SweepSpec,
    _accuracies,
    _count_row,
    emit_csv,
    emit_json,
    emit_svg_heatmap,
    reproduce,
    run_sweep,
)
from .boolefn import (
    MAX_ENUM_N,
    best_threshold_agreement,
    threshold_stats,
    verify_xor_worst,
    xor_max_accuracy,
)
from .core import Encoding, csv_text, json_text, task_from_json, task_seed, task_to_json
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


def _scale(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _path(text: str) -> str:
    """A file or directory argument, which must not be empty."""
    if not text:
        raise argparse.ArgumentTypeError("path must not be empty")
    return text


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; empty items are skipped, so "" and "," are the empty list."""
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _hex(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Every flag of every command, once, by its config key: the flag is the key
# with dashes for underscores, and a config value is cast with the flag's type.
FLAGS: dict[str, dict] = {
    "config": dict(type=_path, help="file of key=value lines named like the flags"),
    "seed": dict(type=int),
    "out_dir": dict(type=_path),
    "format": dict(choices=("csv", "json")),
    "family": dict(choices=("boolean", "sphere")),
    "count": dict(type=int),
    "task": dict(type=_path, help="task JSON file (else generate)"),
    "methods": dict(nargs="+", choices=METHODS),
    "dump_scores": dict(type=_path, help="write the task's feature scores to this CSV"),
    "n": dict(type=int),
    "alpha": dict(type=int),
    "p": dict(type=float),
    "r": dict(type=int),
    "query_count": dict(type=int),
    "encoding": dict(choices=[e.value for e in Encoding]),
    "sample_count": dict(type=int),
    "r_values": dict(type=_int_list),
    "beta_values": dict(type=_int_list),
    "tasks_per_cell": dict(type=int),
    "trials": dict(type=int),
    "kernel": dict(choices=[k.value for k in Kernel]),
    "tau_inv": dict(type=float),
    "sel_tau_inv": dict(type=float),
    "epsilon": dict(type=float),
    "rounds": dict(type=int),
    "top_k": dict(type=int),
    "svg": dict(action="store_true"),
    "truth_table": dict(type=_hex, help="hex table"),
    "scale": dict(type=_scale, help="shrink factor for quick runs"),
}
# flags that no config key sets
FLAG_ONLY = frozenset({"methods", "format", "svg", "task", "dump_scores", "truth_table", "scale"})


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line must be key=value: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"config key {key} is set more than once")
        out[key] = value
    return out


class _Inputs:
    """One command's settings: read(key, default) is the flag if given, else
    the config key, else the default, and records the key as read.

    done(command) rejects what the command did not read, before it reads a
    task file or writes anything: a flag exits 2, a config key exits 1.
    """

    def __init__(self, parser: argparse.ArgumentParser, given: dict):
        self.parser = parser
        self.config = _read_config(given.pop("config", None))
        self.given = given
        self.read: set[str] = set()

    def __call__(self, key: str, default=None):
        self.read.add(key)
        # a flag given beside its config key overrides the key, which counts as read
        raw = None if key in FLAG_ONLY else self.config.pop(key, None)
        if key in self.given:
            return self.given[key]
        if raw is None:
            return default
        try:
            value = FLAGS[key].get("type", str)(raw)
            choices = FLAGS[key].get("choices", (value,))
            if value not in choices:
                raise ValueError(f"invalid choice {raw!r} (choose from {', '.join(choices)})")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config key {key}: {exc}") from None
        return value

    def done(self, command: str) -> None:
        unread = sorted(self.given.keys() - self.read)
        if unread:
            flags = ", ".join("--" + key.replace("_", "-") for key in unread)
            self.parser.error(f"{command} does not read {flags}")
        if self.config:
            raise ValueError(f"{command} reads no config key {', '.join(sorted(self.config))}")


def _attention_from(read: _Inputs) -> AttentionConfig:
    default = AttentionConfig()
    return AttentionConfig(
        kind=Kernel(read("kernel", default.kind)),
        tau_inv=read("tau_inv", default.tau_inv),
    )


def _selection_from(read: _Inputs) -> SelectionConfig:
    default = SelectionConfig()
    return SelectionConfig(
        epsilon=read("epsilon", default.epsilon),
        tau_inv=read("sel_tau_inv", default.tau_inv),
        rounds=read("rounds", default.rounds),
        top_k=read("top_k", default.top_k),
    )


def _boolean_spec(read: _Inputs) -> BooleanTaskSpec:
    """The parity task spec of gen-tasks and eval; callers set its seed."""
    return BooleanTaskSpec(
        n=read("n", 10),
        alpha=read("alpha", 3),
        p=read("p", 0.5),
        r=read("r", 5),
        query_count=read("query_count", 32),
        encoding=Encoding(read("encoding", "plus_minus")),
    )


def _cmd_gen_tasks(read: _Inputs) -> int:
    seed = read("seed", 0)
    count = read("count", 1)
    out_dir = read("out_dir")
    family = read("family", "boolean")
    if family == "boolean":
        spec, generate = _boolean_spec(read), gen_boolean_task
    else:
        spec, generate = SphereTaskSpec(sample_count=read("sample_count", 64)), gen_sphere_task
    read.done("gen-tasks")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")

    tasks = [generate(replace(spec, seed=task_seed(seed, i))) for i in range(count)]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, task in enumerate(tasks):
            (out / f"task_{i:05d}.json").write_text(task_to_json(task) + "\n")
        print(f"wrote {len(tasks)} task(s) to {out}")
    else:
        for task in tasks:
            print(task_to_json(task))
    return 0


def _cmd_eval(read: _Inputs) -> int:
    attention = _attention_from(read)
    selection = _selection_from(read)
    methods = read("methods", ["Attn", "AttnSoftFS", "Proto"])
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat a value, got {list(methods)}")
    dump_scores = read("dump_scores")
    output_format = read("format", "csv")
    task_file = read("task")
    if task_file is not None:
        read.done("eval --task")
        task = task_from_json(Path(task_file).read_text())
    else:
        # the first task gen-tasks writes for the same flags and config
        seed = read("seed", 0)
        spec = replace(_boolean_spec(read), seed=task_seed(seed, 0))
        read.done("eval")
        task = gen_boolean_task(spec)
    if selection.top_k is None and task.meta is not None:
        # AttnTopK keeps as many features as the task has active ones
        selection = replace(selection, top_k=task.meta.alpha)
    accuracies = _accuracies(task, methods, attention, selection)
    rows = [{"method": m, "accuracy": float(accuracies[m])} for m in methods]
    if dump_scores is not None:
        scores = feature_scores(task.support, selection).tolist()
        Path(dump_scores).write_text(csv_text(["feature_index", "score"], enumerate(scores)))
    if output_format == "json":
        print(json_text({"rows": rows}))
    else:
        print(csv_text(["method", "accuracy"], [[r["method"], r["accuracy"]] for r in rows]), end="")
    return 0


def _cmd_sweep(read: _Inputs) -> int:
    spec = SweepSpec(
        alpha=read("alpha", 4),
        r_values=read("r_values", (1, 2, 5, 10)),
        beta_values=read("beta_values", (0, 3, 6, 10)),
        p=read("p", 0.5),
        query_count=read("query_count", 32),
        encoding=Encoding(read("encoding", "plus_minus")),
        methods=tuple(read("methods", ("Attn", "AttnSoftFS"))),
        tasks_per_cell=read("tasks_per_cell", 500),
        attention=_attention_from(read),
        selection=_selection_from(read),
        global_seed=read("seed", 0),
    )
    out_dir = Path(read("out_dir", "out"))
    output_format = read("format", "csv")
    svg = read("svg", False)
    read.done("sweep")
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = run_sweep(spec)
    failures = sum(cell.failures for cell in grid)
    if failures:
        message = "method evaluation(s) failed and are left out of the means and the tasks column"
        print(f"warning: {failures} {message}", file=sys.stderr)
    emit = emit_json if output_format == "json" else emit_csv
    written = [emit(spec, grid, out_dir / f"sweep.{output_format}")]
    if svg:
        for m in spec.methods:
            written.append(emit_svg_heatmap(spec, grid, m, out_dir / f"sweep_{m}.svg"))
    for path in written:
        print(path)
    return 0


def _cmd_theory(read: _Inputs) -> int:
    alpha = read("alpha", 3)
    p = read("p", 0.5)
    r = read("r", 2)
    kernel = Kernel(read("kernel", "dot"))
    trials = read("trials", 20000)
    seed = read("seed", 0)
    betas = read("beta_values", (0, 1, 2, 3, 4))
    read.done("theory")
    if not betas:
        raise ValueError("beta_values must be nonempty")
    growth = snr_growth(TheoryParams(alpha, 0, p, r, kernel), betas) if len(betas) > 1 else None

    header = [
        "alpha", "beta", "p", "r", "kernel",
        "analytic_mean", "analytic_var",
        "exhaustive_mean", "exhaustive_var",
        "mc_mean", "mc_var", "mc_misclass_rate", "trials",
        "snr_ratio", "snr_fitted_slope", "snr_asymptotic_slope",
    ]
    rows = []
    for i, beta in enumerate(betas):
        params = TheoryParams(alpha=alpha, beta_irrelevant=beta, p=p, r=r, kernel=kernel)
        analytic = support_sum_stats(params)
        try:
            exact = exhaustive_stats(params)
            exhaustive = [exact.mean, exact.variance]
        except ValueError:
            exhaustive = ["", ""]
        mc = mc_misclassification(params, trials=trials, seed=task_seed(seed, beta))
        snr = [growth.ratios[i], growth.fitted_slope, growth.asymptotic_slope] if growth else ["", "", ""]
        rows.append(
            [
                alpha, beta, p, r, kernel.value,
                analytic.mean, analytic.variance,
                *exhaustive,
                mc.mean, mc.variance, mc.misclass_rate, trials,
                *snr,
            ]
        )
    print(csv_text(header, rows), end="")
    return 0


def _cmd_thresholds(read: _Inputs) -> int:
    action, n = read("action"), read("n")
    truth_table = read("truth_table") if action == "approx" else None
    read.done(f"thresholds {action}")
    if action == "count":
        solved_fraction, mean_best_accuracy = threshold_stats(n)
        payload = {
            **_count_row(n),
            "solved_fraction": solved_fraction,
            "mean_best_accuracy": mean_best_accuracy,
        }
    elif action == "approx":
        if truth_table is None:
            raise ValueError("approx needs --truth-table <hex>")
        agreement, witness = best_threshold_agreement(n, truth_table)
        payload = {
            "n": n,
            "truth_table": format(truth_table, "x"),
            "max_agreement": agreement,
            "accuracy": agreement / 2**n,
            "witness_weights": list(witness.weights),
            "witness_threshold": witness.threshold,
        }
    else:  # verify-xor-worst
        holds, offenders = verify_xor_worst(n)
        payload = {
            "n": n,
            "holds": holds,
            "xor_bound": xor_max_accuracy(n),
            "worst_count": len(offenders),
            "worst_tables_hex": [format(v, "x") for v in offenders[:64]],
        }
    print(json_text(payload))
    return 0


def _cmd_reproduce(read: _Inputs) -> int:
    recipe, out_dir = read("recipe"), read("out_dir", "out")
    seed, scale = read("seed", 0), read("scale", 1.0)
    read.done("reproduce")
    for path in reproduce(recipe, out_dir, seed=seed, scale=scale):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *keys, **narrowed):
        """A subcommand with the FLAGS named by keys; narrowed[key] adds keywords for this command."""
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        for key in (*keys, *narrowed):
            p.add_argument("--" + key.replace("_", "-"), **FLAGS[key], **narrowed.get(key, {}))
        p.set_defaults(run=run, parser=p)
        return p

    task = ("n", "alpha", "p", "r", "query_count", "encoding")
    knobs = ("kernel", "tau_inv", "sel_tau_inv", "epsilon", "rounds", "top_k")
    command("gen-tasks", _cmd_gen_tasks, "emit task JSON for a generator family",
            "seed", "out_dir", "config", "family", *task, "sample_count", "count")
    command("eval", _cmd_eval, "evaluate methods on one task",
            "seed", "config", "format", "task", "methods", *task, *knobs, "dump_scores")
    command("sweep", _cmd_sweep, "run a task grid sweep",
            "seed", "out_dir", "config", "format", "alpha", "r_values", "beta_values", "p",
            "query_count", "encoding", "tasks_per_cell", "methods", *knobs, "svg")
    command("theory", _cmd_theory, "analytic vs exhaustive vs Monte-Carlo table",
            "seed", "config", "alpha", "beta_values", "p", "r", "kernel", "trials")
    p = command("thresholds", _cmd_thresholds, "exact threshold-function queries", "truth_table",
                n=dict(required=True, choices=range(1, MAX_ENUM_N + 1)))
    p.add_argument("action", choices=("count", "approx", "verify-xor-worst"))
    p = command("reproduce", _cmd_reproduce, "run a named experiment recipe", "seed", "out_dir", "scale")
    p.add_argument("recipe", choices=sorted(RECIPES))
    return parser


def main(argv=None) -> int:
    given = vars(build_parser().parse_args(argv))
    del given["command"]
    run, parser = given.pop("run"), given.pop("parser")
    try:
        return run(_Inputs(parser, given))
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
