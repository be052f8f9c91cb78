"""Acceptance suite: the project's quantitative exit criteria, A01..A12.

Each test prints one PASS/FAIL line with the measured numbers so a full run
doubles as a report.  A06 encodes an aspirational soft-selection uplift
target at a single grid cell that the implemented scoring procedure does not
reach (its measured ceiling there is ~+4pp over every temperature/rounds
setting); it is kept strict and is expected to fail -- see README and the
benchmark CSVs for the measured landscape.
"""

import itertools
import json
import math
import time

import numpy as np

from polyselect.bench import SweepSpec, reproduce, run_sweep
from polyselect.boolefn import threshold_stats, verify_xor_worst, xor_max_accuracy
from polyselect.core import task_seed
from polyselect.kernels import AttentionConfig, Kernel, attend_probs, predict
from polyselect.prototypes import build_prototypes, proto_classify
from polyselect.selection import SelectionConfig, feature_scores, self_attention_round
from polyselect.tasks import BooleanTaskSpec, SphereTaskSpec, gen_boolean_task, gen_sphere_task
from polyselect.theory import (
    TheoryParams,
    and_boundary,
    exhaustive_stats,
    mc_misclassification,
    support_sum_stats,
)

from test_bench import paired_difference
from test_kernels import and_support, xor_support


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{tag}: {detail}"


def test_a01_threshold_counts(tmp_path):
    start = time.time()
    (path,) = reproduce("table3_counts", tmp_path)
    payload = json.loads(path.read_text())
    rows = {row["n"]: row["count"] for row in payload}
    elapsed = time.time() - start
    below_bound = all(row["count"] < row["bound_2_pow_n2"] for row in payload)
    ok = rows == {2: 14, 3: 104, 4: 1882} and below_bound and elapsed < 60.0
    report("A01", ok, f"counts={rows} below_2^(n^2)={below_bound} elapsed={elapsed:.1f}s (budget 60s)")


def test_a02_parity_approximation_bound():
    start = time.time()
    values = [xor_max_accuracy(n) for n in (2, 3, 4, 5)]
    worst_ok = True
    for n in (2, 3, 4):
        holds, _ = verify_xor_worst(n)
        worst_ok = worst_ok and holds
    elapsed = time.time() - start
    ok = values == [3, 6, 11, 22] and worst_ok and elapsed < 120.0
    report("A02", ok, f"bounds={values} exhaustive_worst={worst_ok} elapsed={elapsed:.1f}s")


def test_a03_two_variable_stats():
    solved, mean_acc = threshold_stats(2)
    ok = solved == 0.875 and mean_acc == 0.96875
    report("A03", ok, f"solved_fraction={solved} mean_best_accuracy={mean_acc}")


def test_a04_moment_formulas_against_oracle():
    worst = 0.0
    kernels = (Kernel.DOT, Kernel.COSINE, Kernel.SQ_EUCLIDEAN)
    for alpha, beta, p, r, kernel in itertools.product(
        (1, 2, 3), (0, 1, 2, 3, 4), (0.3, 0.5, 0.8), (1, 2), kernels
    ):
        params = TheoryParams(alpha, beta, p, r, kernel)
        exact = exhaustive_stats(params)
        closed = support_sum_stats(params)
        worst = max(worst, abs(closed.mean - exact.mean) / abs(exact.mean))
        if exact.variance > 0:
            worst = max(worst, abs(closed.variance - exact.variance) / exact.variance)
        else:
            worst = max(worst, abs(closed.variance - exact.variance))
    ok = worst <= 1e-9
    report("A04", ok, f"max relative moment error over 270 configs = {worst:.3e} (tol 1e-9)")


def test_a05_monte_carlo_consistency():
    params = TheoryParams(alpha=3, beta_irrelevant=4, p=0.5, r=2)
    mc = mc_misclassification(params, trials=20_000, seed=101)
    analytic = support_sum_stats(params)
    se = math.sqrt(mc.variance / mc.trials)
    mean_ok = abs(mc.mean - analytic.mean) <= 4 * se

    zero = mc_misclassification(
        TheoryParams(alpha=3, beta_irrelevant=0, p=0.5, r=2), trials=5000, seed=102
    )
    zero_ok = zero.misclass_rate == 0.0

    rates = []
    for beta in (0, 2, 4, 6, 8):
        result = mc_misclassification(
            TheoryParams(alpha=3, beta_irrelevant=beta, p=0.5, r=2), trials=20_000, seed=103
        )
        rates.append(result.misclass_rate)
    mono_ok = all(
        hi >= lo - 2 * math.sqrt(max(hi * (1 - hi), 1e-9) / 20_000)
        for lo, hi in zip(rates, rates[1:])
    )

    r1 = mc_misclassification(
        TheoryParams(alpha=3, beta_irrelevant=4, p=0.5, r=1), trials=20_000, seed=104
    )
    r10 = mc_misclassification(
        TheoryParams(alpha=3, beta_irrelevant=4, p=0.5, r=10), trials=20_000, seed=104
    )
    rep_ok = r10.misclass_rate <= r1.misclass_rate + 2 * math.sqrt(
        r1.misclass_rate * (1 - r1.misclass_rate) / 20_000
    )

    ok = mean_ok and zero_ok and mono_ok and rep_ok
    report(
        "A05",
        ok,
        f"mean_dev={abs(mc.mean - analytic.mean) / se:.2f}se zero_rate={zero.misclass_rate} "
        f"beta_rates={[round(r, 3) for r in rates]} r1={r1.misclass_rate:.3f} "
        f"r10={r10.misclass_rate:.3f}",
    )


def test_a06_soft_selection_uplift():
    spec = SweepSpec(
        alpha=4,
        r_values=(2,),
        beta_values=(3,),
        p=0.5,
        methods=("Attn", "AttnSoftFS"),
        tasks_per_cell=500,
        attention=AttentionConfig(kind=Kernel.DOT, tau_inv=1.0),
        selection=SelectionConfig(rounds=2),
        global_seed=2024,
    )
    (cell,) = run_sweep(spec)
    uplift = cell.accuracy_mean["AttnSoftFS"] - cell.accuracy_mean["Attn"]
    ok = uplift >= 0.30
    report(
        "A06",
        ok,
        f"attn={cell.accuracy_mean['Attn']:.3f} soft_fs={cell.accuracy_mean['AttnSoftFS']:.3f} "
        f"uplift={uplift:+.3f} (target >= +0.30; known-unattained, see README)",
    )


def test_a07_prototype_degeneracy():
    gap_ok = True
    acc_ok = True
    details = []
    for alpha in (2, 3, 4):
        protos = build_prototypes(xor_support(alpha))
        gap = float(np.abs(protos.features[0] - protos.features[1]).max())
        gap_ok = gap_ok and gap < 1e-12
        task = gen_boolean_task(
            BooleanTaskSpec(n=alpha, alpha=alpha, p=0.5, r=1, query_count=1000, seed=alpha)
        )
        probs = proto_classify(task.query.features, protos)
        acc = float(np.mean(predict(probs) == task.query.labels))
        acc_ok = acc_ok and 0.45 <= acc <= 0.55
        details.append(f"alpha={alpha}: gap={gap:.1e} acc={acc:.3f}")
    report("A07", gap_ok and acc_ok, "; ".join(details))


def test_a08_boundary_closed_form():
    worst = 0.0
    for tau in (1.0, 2.0):
        xs = np.linspace(0.2, 5.0, 50)
        ys = and_boundary(tau, xs)
        probs = attend_probs(np.column_stack([xs, ys]), and_support(), AttentionConfig(tau_inv=tau))
        worst = max(worst, float(np.abs(probs[:, 1] - probs[:, 0]).max()))
    ok = worst < 1e-6
    report("A08", ok, f"max |p1 - p0| along closed-form boundary = {worst:.2e} (tol 1e-6)")


def test_a09_self_attention_invariants():
    rng = np.random.default_rng(911)
    hull_ok = disp_ok = const_ok = singleton_ok = True
    for _ in range(1000):
        rows = int(rng.integers(2, 13))
        cols = int(rng.integers(1, 7))
        x = rng.normal(size=(rows, cols)) * 2.0
        const_col = int(rng.integers(0, cols))
        const_val = float(rng.normal())
        x[:, const_col] = const_val

        current = x
        for _ in range(10):
            lo, hi = current.min(axis=0), current.max(axis=0)
            current = self_attention_round(current, 2.0)
            hull_ok = hull_ok and bool(
                np.all(current >= lo - 1e-9) and np.all(current <= hi + 1e-9)
            )
            # dispersion clause read as interval width: the monotone statistic
            # convexity actually gives (MAD/STD can rise transiently; see the
            # pinned counterexample in test_selection.py)
            disp_ok = disp_ok and bool(
                np.all((current.max(axis=0) - current.min(axis=0)) <= (hi - lo) + 1e-9)
            )
        const_ok = const_ok and bool(np.abs(current[:, const_col] - const_val).max() < 1e-12)

        single = rng.normal(size=(1, cols))
        singleton_ok = singleton_ok and bool(
            np.array_equal(self_attention_round(single, 2.0), single)
        )
    ok = hull_ok and disp_ok and const_ok and singleton_ok
    report(
        "A09",
        ok,
        f"hull={hull_ok} dispersion_monotone={disp_ok} constants_exact={const_ok} "
        f"singleton_identity={singleton_ok} (1000 random classes x 10 rounds)",
    )


def test_a10_sphere_selection():
    sel = SelectionConfig()
    base_cfg = SelectionConfig(rounds=0)
    hits = 0
    tasks = 200
    for t in range(tasks):
        task = gen_sphere_task(SphereTaskSpec(sample_count=1024, seed=task_seed(55, t)))
        base = feature_scores(task.support, base_cfg)
        after = feature_scores(task.support, sel)
        ratio = after / base
        if ratio[2] < 0.2 and ratio[0] > 0.6 and ratio[1] > 0.6:
            hits += 1
    rate = hits / tasks
    ok = rate >= 0.95
    report("A10", ok, f"z-washout criterion rate = {rate:.3f} over {tasks} tasks (need >= 0.95)")


def test_a11_top_k_dominance():
    spec = SweepSpec(
        alpha=4,
        r_values=(5,),
        beta_values=(10,),
        p=0.5,
        methods=("AttnSoftFS", "AttnTopK"),
        tasks_per_cell=500,
        attention=AttentionConfig(),
        selection=SelectionConfig(top_k=4),
        global_seed=31,
    )
    (cell,) = run_sweep(spec)
    assert cell.failures == 0
    mean_diff, se = paired_difference(cell.per_task["AttnTopK"], cell.per_task["AttnSoftFS"])
    ok = mean_diff >= -2 * se
    report(
        "A11",
        ok,
        f"topk={cell.accuracy_mean['AttnTopK']:.3f} soft={cell.accuracy_mean['AttnSoftFS']:.3f} "
        f"paired_diff={mean_diff:+.3f} (+-{se:.3f} se)",
    )


def test_a12_recipe_determinism(tmp_path):
    scales = {
        "fig7_soft_fs": 0.01,
        "fig11_topk": 0.01,
        "table3_counts": 1.0,
        "appD_xor_bound": 1.0,
        "appC_boundary": 1.0,
        "fig5_sphere": 0.02,
        "binary_strings_fs_raw": 0.005,
    }
    all_ok = True
    details = []
    for name, scale in scales.items():
        dirs = [tmp_path / f"{name}_{i}" for i in (0, 1)]
        outputs = [reproduce(name, d, seed=11, scale=scale) for d in dirs]
        pair_ok = len(outputs[0]) == len(outputs[1]) and all(
            a.name == b.name and a.read_bytes() == b.read_bytes()
            for a, b in zip(outputs[0], outputs[1])
        )
        all_ok = all_ok and pair_ok
        details.append(f"{name}={'ok' if pair_ok else 'DIFFERS'}")
    report("A12", all_ok, "; ".join(details))
