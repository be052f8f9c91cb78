"""Synthetic task generators: parity binary strings and sphere parity.

All generators are pure functions of their spec (including the seed): the
same spec yields a byte-identical task. Binary-string supports contain every
active-pattern variant exactly r times; queries are drawn iid from the same
distribution as the support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import Encoding, LabeledSet, Task, TaskMeta, encode_bits, rng_for

__all__ = [
    "BooleanTaskSpec",
    "SphereTaskSpec",
    "gen_boolean_batch",
    "gen_boolean_task",
    "gen_sphere_task",
    "parity",
    "parity_label",
]


def parity(x: np.ndarray, active_indices) -> int:
    """Parity over the active coordinates of a +-1 encoded vector: prod x_i."""
    idx = tuple(active_indices)
    if len(idx) == 0:
        raise ValueError("parity needs a nonempty index set")
    vals = np.asarray(x, dtype=np.float64)[list(idx)]
    if not ((vals == -1.0) | (vals == 1.0)).all():
        raise ValueError("parity expects +-1 encoded values")
    return int(np.prod(vals))


def parity_label(chi: int) -> int:
    """Fixed parity-to-class mapping: chi == -1 is class 1, chi == +1 class 0."""
    return 1 if chi == -1 else 0


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


def _variant_patterns(alpha: int) -> np.ndarray:
    return np.array(list(itertools.product((0, 1), repeat=alpha)), dtype=np.int64)


def _pattern_labels(patterns: np.ndarray) -> np.ndarray:
    # chi = (-1)^(number of zero bits); class 1 iff chi == -1
    zeros = patterns.shape[1] - patterns.sum(axis=1)
    return (zeros % 2).astype(np.int64)


def gen_boolean_batch(spec: BooleanTaskSpec, seeds: Sequence[int]) -> tuple[Task, np.ndarray]:
    """One task of spec's shape per seed, stacked; spec's own seed is not read.

    Each task draws from its own seed's stream exactly as a lone task would:
    the active set, the support noise, the query noise, the query patterns.
    Returns the stack and the (tasks, alpha) sorted active indices.
    """
    n, alpha, q = spec.n, spec.alpha, spec.query_count
    patterns = _variant_patterns(alpha)
    pattern_labels = _pattern_labels(patterns)
    rows = spec.r * patterns.shape[0]

    tasks = len(seeds)
    active = np.empty((tasks, alpha), dtype=np.int64)
    sup_u = np.empty((tasks, rows, n))
    qry_u = np.empty((tasks, q, n))
    qry_variant = np.empty((tasks, q), dtype=np.int64)
    for t, seed in enumerate(seeds):
        rng = rng_for(seed)
        active[t] = np.sort(rng.choice(n, size=alpha, replace=False))
        rng.random(out=sup_u[t])
        rng.random(out=qry_u[t])
        qry_variant[t] = rng.integers(0, patterns.shape[0], size=q)

    def place(uniform: np.ndarray, variant_bits: np.ndarray) -> np.ndarray:
        bits = (uniform < spec.p).astype(np.int64)
        cols = np.broadcast_to(active[:, None, :], bits.shape[:2] + (alpha,))
        np.put_along_axis(bits, cols, variant_bits, axis=-1)
        return encode_bits(bits, spec.encoding)

    sup_variant = np.repeat(np.arange(patterns.shape[0]), spec.r)
    stack = Task(
        support=LabeledSet(place(sup_u, patterns[sup_variant]), pattern_labels[sup_variant], k=2),
        query=LabeledSet(place(qry_u, patterns[qry_variant]), pattern_labels[qry_variant], k=2),
    )
    return stack, active


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
