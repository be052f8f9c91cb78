"""Correctness checks for benchmark passes: goldens and independent oracles.

Every check is one operation: it either passes or counts as a failure.  The
reference classifiers here are written against numpy alone, from the method
definitions, so they do not share code with the package they check.  A query
whose reference class probabilities are tied to within `_TIE` may resolve
either way; everything else must agree exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_TIE = 1e-9


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(paths, root: Path) -> dict[str, str]:
    return {str(Path(p).relative_to(root)): sha256(p) for p in sorted(paths)}


def golden_files(outputs, golden_dir: Path) -> list[Check]:
    """Byte-for-byte comparison of each output with the same-named golden."""
    checks = []
    for path in sorted(outputs, key=str):
        golden = golden_dir / Path(path).name
        name = f"golden:{golden.parent.name}/{golden.name}"
        if not golden.is_file():
            checks.append(Check(name, False, "golden file missing"))
            continue
        same = Path(path).read_bytes() == golden.read_bytes()
        checks.append(Check(name, same, "" if same else "bytes differ"))
    return checks


def golden_rows(output: Path, golden: Path) -> list[Check]:
    """Row-for-row comparison of an output CSV with the leading golden rows."""
    if not golden.is_file():
        return [Check(f"golden:{golden.name}", False, "golden file missing")]
    got = Path(output).read_text().splitlines()
    want = golden.read_text().splitlines()[: len(got)]
    if len(want) < len(got):
        return [Check(f"golden:{golden.name}", False, f"golden has only {len(want)} rows")]
    return [
        Check(f"golden:{golden.name}:row{i}", g == w, "" if g == w else f"{g!r} != {w!r}")
        for i, (g, w) in enumerate(zip(got, want))
    ]


# -- reference classifiers -------------------------------------------------------


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _accuracy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Accuracy under lowest-class tie-breaking, and the count of near-ties."""
    pred = np.argmax(probs, axis=1)
    top2 = np.sort(probs, axis=1)[:, -2:]
    ties = int(np.sum(top2[:, 1] - top2[:, 0] < _TIE))
    return float(np.mean(pred == labels)), ties


def ref_attention(q: np.ndarray, s: np.ndarray, s_labels: np.ndarray, k: int, tau: float):
    weights = _softmax(tau * (q @ s.T))
    return weights @ np.eye(k)[s_labels]


def ref_prototypes(q: np.ndarray, s: np.ndarray, s_labels: np.ndarray, k: int, tau: float):
    means = np.stack([s[s_labels == c].mean(axis=0) for c in range(k)])
    sq = ((q[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return _softmax(-tau * sq)


def ref_scores(s: np.ndarray, s_labels: np.ndarray, k: int, eps: float, tau: float, rounds: int):
    """Standardise, self-attend within each class, score by mean absolute deviation."""
    z = (s - s.mean(axis=0)) / (s.std(axis=0) + eps)
    out = z.copy()
    for c in range(k):
        block = z[s_labels == c]
        for _ in range(rounds if block.shape[0] > 1 else 0):
            block = _softmax(tau * (block @ block.T)) @ block
        out[s_labels == c] = block
    return np.abs(out - out.mean(axis=0)).mean(axis=0)


def ref_method_accuracy(method: str, task, attention_tau: float, selection) -> tuple[float, int]:
    s, sl, k = task.support.features, task.support.labels, task.support.k
    q, ql = task.query.features, task.query.labels
    if method == "Attn":
        return _accuracy(ref_attention(q, s, sl, k, attention_tau), ql)
    if method == "Proto":
        return _accuracy(ref_prototypes(q, s, sl, k, attention_tau), ql)
    scores = ref_scores(s, sl, k, selection.epsilon, selection.tau_inv, selection.rounds)
    if method == "AttnSoftFS":
        factor = scores
    elif method == "AttnTopK":
        keep = selection.top_k if selection.top_k is not None else task.meta.alpha
        order = sorted(range(scores.shape[0]), key=lambda i: (-scores[i], i))
        factor = np.zeros(scores.shape[0])
        factor[order[:keep]] = 1.0
    else:
        raise ValueError(f"no reference for method {method}")
    mu, sd = s.mean(axis=0), s.std(axis=0) + selection.epsilon
    zs, zq = (s - mu) / sd * factor, (q - mu) / sd * factor
    return _accuracy(ref_attention(zq, zs, sl, k, attention_tau), ql)


def parity_labels_hold(task) -> bool:
    """Class 1 exactly when the product of the active +-1 coordinates is -1."""
    active = list(task.meta.active_indices)
    for part in (task.support, task.query):
        chi = np.prod(part.features[:, active], axis=1)
        if not np.array_equal((chi < 0).astype(np.int64), part.labels):
            return False
    return True


def sweep_oracle(captured, gen_task) -> list[Check]:
    """Re-derive the first and last task's accuracy in each cell with the references.

    `captured` holds (spec, cells) for each sweep call; `gen_task(spec, index,
    beta, r)` regenerates a task from its grid position.  Each cell's mean
    must also equal the mean of its per-task values, and no method may fail.
    """
    checks = []
    for spec, cells in captured:
        for cell_index, cell in enumerate(cells):
            where = f"alpha={spec.alpha},r={cell.r},beta={cell.beta},seed={spec.global_seed}"
            checks.append(Check(f"failures:{where}", cell.failures == 0, f"{cell.failures} failed"))
            for m in spec.methods:
                arr = cell.per_task[m]
                ok = arr.shape == (cell.tasks,) and float(arr.mean()) == cell.accuracy_mean[m]
                checks.append(Check(f"cell-mean:{where}:{m}", ok))
            for t in sorted({0, cell.tasks - 1}):
                task = gen_task(spec, cell_index * spec.tasks_per_cell + t, cell.beta, cell.r)
                checks.append(Check(f"parity-labels:{where}:task{t}", parity_labels_hold(task)))
                for m in spec.methods:
                    want, ties = ref_method_accuracy(m, task, spec.attention.tau_inv, spec.selection)
                    got = float(cell.per_task[m][t])
                    slack = ties / task.query.rows
                    ok = abs(got - want) <= slack + 1e-12
                    checks.append(Check(f"oracle:{where}:task{t}:{m}", ok, f"{got} vs {want}"))
    return checks


def sweep_files_consistent(captured, csv_paths) -> list[Check]:
    """Every accuracy written to the sweep CSVs equals a computed cell mean."""
    means = set()
    for spec, cells in captured:
        for cell in cells:
            means.update(repr(float(v)) for v in cell.accuracy_mean.values())
    checks = []
    for path in csv_paths:
        lines = Path(path).read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("accuracy_mean")
        values = [line.split(",")[col] for line in lines[1:]]
        ok = bool(values) and all(v in means for v in values)
        checks.append(Check(f"csv-means:{Path(path).name}", ok, f"{len(values)} rows"))
        rows = json.loads(Path(path).with_suffix(".json").read_text())
        rows = rows["rows"] if isinstance(rows, dict) else rows
        ok = [repr(float(r["accuracy_mean"])) for r in rows] == values
        checks.append(Check(f"json-matches-csv:{Path(path).name}", ok))
    return checks


def sphere_oracle(task, base: np.ndarray, after: np.ndarray, selection) -> Check:
    """Reference scores at rounds=0 and at the configured rounds, to 1e-9 relative."""
    s, sl, k = task.support.features, task.support.labels, task.support.k
    want_base = ref_scores(s, sl, k, selection.epsilon, selection.tau_inv, 0)
    want_after = ref_scores(s, sl, k, selection.epsilon, selection.tau_inv, selection.rounds)
    err = max(
        float(np.max(np.abs(base - want_base) / np.abs(want_base))),
        float(np.max(np.abs(after - want_after) / np.abs(want_after))),
    )
    return Check("oracle:sphere-scores", err <= 1e-9, f"max relative error {err:.2e}")


def moments_oracle(results) -> list[Check]:
    """Closed-form moments against the exhaustive enumeration, within 1e-9."""
    checks = []
    for params, exact, closed in results:
        err = abs(closed.mean - exact.mean) / abs(exact.mean)
        if exact.variance > 0:
            err = max(err, abs(closed.variance - exact.variance) / exact.variance)
        else:
            err = max(err, abs(closed.variance - exact.variance))
        checks.append(Check(f"moments:{params}", err <= 1e-9, f"relative error {err:.2e}"))
    return checks


def monte_carlo_oracle(mc, analytic) -> Check:
    se = math.sqrt(mc.variance / mc.trials)
    dev = abs(mc.mean - analytic.mean) / se
    return Check("monte-carlo-mean", dev <= 4.0, f"{dev:.2f} standard errors (limit 4)")
