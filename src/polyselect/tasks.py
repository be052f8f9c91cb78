"""Synthetic task generators: parity binary strings and sphere parity.

All generators are pure functions of their spec (including the seed): the
same spec yields a byte-identical task. Binary-string supports contain every
active-pattern variant exactly r times; queries are drawn iid from the same
distribution as the support.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .boolefn import corners
from .core import Encoding, LabeledSet, Task, TaskMeta, _require_indexable, rng_for

__all__ = [
    "BooleanTaskSpec",
    "SphereTaskSpec",
    "gen_boolean_batch",
    "gen_boolean_task",
    "gen_sphere_task",
]


@dataclass(frozen=True)
class BooleanTaskSpec:
    """Parity classification over binary strings with irrelevant distractors.

    n features total; a hidden subset of alpha features carries the parity
    label; the remaining n - alpha features are iid Bernoulli(p) noise.  The
    support holds each of the 2^alpha active patterns exactly r times.
    """

    n: int
    alpha: int
    p: float = 0.5
    r: int = 1
    query_count: int = 32
    encoding: Encoding = Encoding.PLUS_MINUS
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.alpha <= self.n:
            raise ValueError("alpha must lie in [1, n]")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.query_count < 1:
            raise ValueError("query_count must be >= 1")
        _require_indexable(self.alpha, self.r, self.query_count, self.n, self._buffer_name())

    def _buffer_name(self) -> str:
        """This spec's task buffer, named by the sizes behind it, for size errors."""
        return f"alpha={self.alpha}, r={self.r}, n={self.n}: a task's (r * 2^alpha + query_count) x n buffer"


def gen_boolean_batch(spec: BooleanTaskSpec, seeds: Sequence[int]) -> tuple[Task, np.ndarray]:
    """One task of spec's shape per seed, stacked; spec's own seed is not read.

    Each task draws from its own seed's stream exactly as a lone task would:
    the active set, the support noise, the query noise, the query patterns.
    Returns the stack and the (tasks, alpha) sorted active indices.
    """
    n, alpha, q = spec.n, spec.alpha, spec.query_count
    # variant i is corners(alpha) row i with the inputs reversed, as 0/1 bits;
    # class 1 iff the product of its +-1 values is -1
    try:
        signs = corners(alpha)
    except MemoryError as exc:  # numpy can index it, the machine cannot hold it
        raise MemoryError(f"{spec._buffer_name()} cannot be allocated") from exc
    patterns = (signs[:, ::-1] + 1) // 2
    pattern_labels = (signs.prod(axis=1) < 0).astype(np.int64)
    rows = spec.r * patterns.shape[0]

    tasks = len(seeds)
    active = np.empty((tasks, alpha), dtype=np.int64)
    uniform = np.empty((tasks, rows + q, n))
    # the support's variants come first, then each task's drawn query variants
    variant = np.empty((tasks, rows + q), dtype=np.int64)
    variant[:, :rows] = np.repeat(np.arange(patterns.shape[0]), spec.r)
    for t, seed in enumerate(seeds):
        rng = rng_for(seed)
        active[t] = rng.choice(n, size=alpha, replace=False)
        rng.random(out=uniform[t])
        variant[t, rows:] = rng.integers(0, patterns.shape[0], size=q)
    active.sort(axis=1)

    bits = (uniform < spec.p).astype(np.float64)
    cols = np.broadcast_to(active[:, None, :], (tasks, rows + q, alpha))
    np.put_along_axis(bits, cols, patterns[variant], axis=-1)
    x = 2.0 * bits - 1.0 if spec.encoding is Encoding.PLUS_MINUS else bits
    y = pattern_labels[variant]
    support = LabeledSet(x[:, :rows], y[0, :rows], k=2)
    return Task(support=support, query=LabeledSet(x[:, rows:], y[:, rows:], k=2)), active


def gen_boolean_task(spec: BooleanTaskSpec) -> Task:
    stack, active = gen_boolean_batch(spec, [spec.seed])
    meta = TaskMeta(
        active_indices=active[0],
        alpha=spec.alpha,
        beta_irrelevant=spec.n - spec.alpha,
        p=spec.p,
        r=spec.r,
        encoding=spec.encoding,
        seed=spec.seed,
    )
    return replace(stack[0], meta=meta)


@dataclass(frozen=True)
class SphereTaskSpec:
    """Quadrant-parity classification of points uniform on the unit sphere.

    Class is the sign of x*y; z carries no label information.  Points with
    |x| or |y| below 1e-6 are resampled so the label is never ambiguous.
    Support and query each receive sample_count points.
    """

    sample_count: int
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 4:
            raise ValueError("sample_count must be >= 4")


def _sphere_points(count: int, rng: np.random.Generator) -> np.ndarray:
    chunks = []
    need = count
    while need > 0:
        v = rng.normal(size=(2 * need, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        keep = (np.abs(v[:, 0]) >= 1e-6) & (np.abs(v[:, 1]) >= 1e-6)
        got = v[keep][:need]
        chunks.append(got)
        need -= got.shape[0]
    return np.concatenate(chunks, axis=0)


def gen_sphere_task(spec: SphereTaskSpec) -> Task:
    rng = rng_for(spec.seed)
    sup = _sphere_points(spec.sample_count, rng)
    qry = _sphere_points(spec.sample_count, rng)

    def labels(points: np.ndarray) -> np.ndarray:
        chi = np.sign(points[:, 0]) * np.sign(points[:, 1])
        return (chi < 0).astype(np.int64)  # chi == -1 is class 1

    return Task(
        support=LabeledSet(sup, labels(sup), k=2),
        query=LabeledSet(qry, labels(qry), k=2),
    )
