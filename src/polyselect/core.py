"""Shared data model: labelled feature sets, tasks, bit encodings, seeding.

All numeric data is float64. Arrays are validated once and then locked
(read-only), so tasks and labelled sets can be shared across threads; every
operation in this package is a pure function of its inputs.

Feature arrays are (..., rows, n): leading axes stack same-shape tasks into
one Task, and every pipeline function works on the last two axes, so a single
task is the case with no leading axis.  A stack's labels are either one row
shared by every task or one row per task; the support's are always shared.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "Encoding",
    "LabeledSet",
    "Task",
    "TaskMeta",
    "csv_text",
    "encode_bits",
    "json_text",
    "one_hot",
    "rng_for",
    "task_from_json",
    "task_seed",
    "task_to_json",
]


class Encoding(Enum):
    """Value encoding for binary features.

    PLUS_MINUS maps bit 0 to -1 and bit 1 to +1, the natural encoding for
    dot-product and cosine similarity.  ZERO_ONE keeps bits as-is, the
    natural encoding for squared-Euclidean and L1 similarity.
    """

    PLUS_MINUS = "plus_minus"
    ZERO_ONE = "zero_one"


def _as_feature_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError(f"feature matrix must be at least 2-d, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"feature matrix must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("feature matrix contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LabeledSet:
    """A feature matrix with dense integer class ids in [0, k).

    External label spaces are arbitrary; callers map them to 0..k-1 on
    ingestion.  k >= 2 is required because every consumer here classifies.
    Features may be a (tasks, rows, n) stack; the labels are then either
    shared, one per row, or one row per task (features.shape[:-1]).
    """

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        feats = _as_feature_matrix(self.features)
        labels = np.array(self.labels, dtype=np.int64)
        if labels.shape not in ((feats.shape[-2],), feats.shape[:-1]):
            raise ValueError("labels must be one per feature row, shared (rows,) or per task")
        if self.k < 2:
            raise ValueError(f"class count must be >= 2, got {self.k}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ValueError(f"labels must lie in [0, {self.k})")
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def rows(self) -> int:
        return self.features.shape[-2]

    @property
    def cols(self) -> int:
        return self.features.shape[-1]

    def class_rows(self, c: int) -> np.ndarray:
        """Feature rows of class c (possibly empty), per task of a stack with shared labels."""
        return self.features[..., _shared_labels(self.labels) == c, :]


@dataclass(frozen=True)
class TaskMeta:
    """Generation metadata attached to synthetic tasks."""

    active_indices: tuple[int, ...]
    alpha: int
    beta_irrelevant: int
    p: float
    r: int
    encoding: Encoding
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "active_indices", tuple(int(i) for i in self.active_indices))
        if self.alpha != len(self.active_indices):
            raise ValueError("alpha must equal the number of active indices")
        if self.beta_irrelevant < 0:
            raise ValueError("irrelevant feature count must be >= 0")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.r < 1:
            raise ValueError(f"variant repetition count must be >= 1, got {self.r}")


@dataclass(frozen=True)
class Task:
    """A few-shot episode: labelled support set plus labelled query set.

    Support and query may be (tasks, rows, n) stacks of same-shape tasks;
    the support labels are shared by every task, the query labels may be
    per task, and generation metadata belongs to a single task only.
    """

    support: LabeledSet
    query: LabeledSet
    meta: TaskMeta | None = None

    def __post_init__(self):
        if self.support.cols != self.query.cols:
            raise ValueError("support and query must have the same feature count")
        if self.support.k != self.query.k:
            raise ValueError("support and query must have the same class count")
        if self.support.features.shape[:-2] != self.query.features.shape[:-2]:
            raise ValueError("support and query must stack the same tasks")
        if self.support.labels.ndim != 1:
            raise ValueError("support labels must be shared by every task")
        if self.meta is not None:
            if self.support.features.ndim != 2:
                raise ValueError("meta describes a single task, not a stack")
            n = self.support.cols
            if self.meta.alpha + self.meta.beta_irrelevant != n:
                raise ValueError("alpha + beta_irrelevant must equal feature count")
            if any(not 0 <= i < n for i in self.meta.active_indices):
                raise ValueError("active indices out of range")

    def __getitem__(self, t: int) -> Task:
        """Task t of a stack, without metadata."""
        s, q = self.support, self.query
        if s.features.ndim < 3:
            raise ValueError("a single task has no task axis to index")
        labels = q.labels if q.labels.ndim == 1 else q.labels[t]
        return Task(LabeledSet(s.features[t], s.labels, s.k), LabeledSet(q.features[t], labels, q.k))


def _shared_labels(labels: np.ndarray) -> np.ndarray:
    """labels if they are one row shared by every task, else ValueError."""
    if np.ndim(labels) != 1:
        raise ValueError(f"labels must be one row shared by every task, got shape {np.shape(labels)}")
    return labels


def one_hot(labels: Sequence[int], k: int) -> np.ndarray:
    """One-hot value matrix for dense class ids: one row per label, k columns."""
    labels = _shared_labels(np.asarray(labels, dtype=np.int64))
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    out = np.zeros((labels.shape[0], k), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def encode_bits(bits: Sequence[int], encoding: Encoding) -> np.ndarray:
    """Map {0,1} bits to real feature values under the given encoding."""
    arr = np.asarray(bits)
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bits must be 0 or 1")
    arr = arr.astype(np.float64)
    if encoding is Encoding.PLUS_MINUS:
        return 2.0 * arr - 1.0
    return arr


_MASK64 = (1 << 64) - 1


def task_seed(global_seed: int, task_index: int) -> int:
    """Derive a per-task 64-bit seed from a global seed and task index.

    splitmix64 finalizer over ``global_seed + index * golden-gamma``; the
    same inputs give the same output on every platform, and distinct indices
    give well-mixed, collision-resistant streams.
    """
    z = (int(global_seed) + int(task_index) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def rng_for(seed: int) -> np.random.Generator:
    """The package-wide RNG: PCG64, platform-stable given a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def csv_text(header: Sequence[str], rows) -> str:
    """CSV text with LF line ends, the one format of every CSV the package writes.

    Every float, numpy scalars included, is written as repr(float(v)), so it
    parses back to the same bits; other values are written as str(v).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row] for row in rows
    )
    return buf.getvalue()


def json_text(payload) -> str:
    """Canonical JSON, the one format of every JSON the package writes: sorted keys, compact."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _labeled_to_obj(ls: LabeledSet) -> dict:
    return {
        "features": [[float(v) for v in row] for row in ls.features],
        "labels": [int(v) for v in ls.labels],
        "k": ls.k,
    }


def _json_int(value, what: str) -> int:
    """value if it is a JSON integer; int() would truncate 1.6 to 1 without a word."""
    if type(value) is not int:  # not isinstance, which accepts JSON true as an int
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_ints(values, what: str) -> list[int]:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a JSON list, got {values!r}")
    return [_json_int(v, f"{what} entry") for v in values]


def _labeled_from_obj(obj: dict, what: str) -> LabeledSet:
    features = np.array(obj["features"], dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"{what} features must be a list of rows, got shape {features.shape}")
    return LabeledSet(
        features=features,
        labels=np.array(_json_ints(obj["labels"], f"{what} labels"), dtype=np.int64),
        k=_json_int(obj["k"], f"{what} k"),
    )


def task_to_json(task: Task) -> str:
    """Canonical JSON for a task; identical tasks serialize byte-identically."""
    obj = {
        "support": _labeled_to_obj(task.support),
        "query": _labeled_to_obj(task.query),
        "meta": None
        if task.meta is None
        else {
            "active_indices": list(task.meta.active_indices),
            "alpha": task.meta.alpha,
            "beta_irrelevant": task.meta.beta_irrelevant,
            "p": task.meta.p,
            "r": task.meta.r,
            "encoding": task.meta.encoding.value,
            "seed": task.meta.seed,
        },
    }
    return json_text(obj)


def task_from_json(text: str) -> Task:
    obj = json.loads(text)
    meta = None
    if obj.get("meta") is not None:
        m = obj["meta"]
        meta = TaskMeta(
            active_indices=tuple(_json_ints(m["active_indices"], "meta active_indices")),
            alpha=_json_int(m["alpha"], "meta alpha"),
            beta_irrelevant=_json_int(m["beta_irrelevant"], "meta beta_irrelevant"),
            p=float(m["p"]),
            r=_json_int(m["r"], "meta r"),
            encoding=Encoding(m["encoding"]),
            seed=_json_int(m["seed"], "meta seed"),
        )
    return Task(
        support=_labeled_from_obj(obj["support"], "support"),
        query=_labeled_from_obj(obj["query"], "query"),
        meta=meta,
    )
