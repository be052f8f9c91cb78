"""Shared data model: labelled feature sets, tasks, bit encodings, seeding.

All numeric data is float64. Arrays are validated once and then locked
(read-only), so tasks and labelled sets can be shared across threads; every
operation in this package is a pure function of its inputs.

Feature arrays are (..., rows, n): leading axes stack same-shape tasks into
one Task, and every pipeline function works on the last two axes, so a single
task is the case with no leading axis.  A stack's labels, support and query
alike, are either one row shared by every task or one row per task.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "Encoding",
    "LabeledSet",
    "Task",
    "TaskMeta",
    "csv_text",
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
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.alpha != len(self.active_indices):
            raise ValueError("alpha must equal the number of active indices")
        if len(set(self.active_indices)) != self.alpha:
            raise ValueError(f"active indices must be distinct, got {list(self.active_indices)}")
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
    either's labels may be shared by every task or per task, and generation
    metadata belongs to a single task only.
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
        if self.meta is not None:
            if self.support.features.ndim != 2:
                raise ValueError("meta describes a single task, not a stack")
            n = self.support.cols
            if self.meta.alpha + self.meta.beta_irrelevant != n:
                raise ValueError("alpha + beta_irrelevant must equal feature count")
            if any(not 0 <= i < n for i in self.meta.active_indices):
                raise ValueError("active indices out of range")

    def __getitem__(self, t: int) -> Task:
        """Task t of a stack, without metadata; shared labels stay shared, per-task ones pick task t's row."""
        if self.support.features.ndim < 3:
            raise ValueError("a single task has no task axis to index")
        return Task(*(
            LabeledSet(ls.features[t], ls.labels if ls.labels.ndim == 1 else ls.labels[t], ls.k)
            for ls in (self.support, self.query)
        ))


def one_hot(labels: Sequence[int], k: int) -> np.ndarray:
    """One-hot rows of np.eye(k) for dense class ids: labels of shape (..., rows) give (..., rows, k)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    return np.eye(k)[labels]


def _require_indexable(alpha: int, r: int, extra_rows: int, cols: int, what: str) -> None:
    """ValueError unless (r * 2^alpha + extra_rows) x cols float64 values fit in one numpy array.

    numpy counts an array's bytes in intp, so a larger buffer cannot even be
    asked for; what names the buffer by the sizes behind it.  alpha >= 63 is
    too large at any r, and is rejected before 2^alpha is formed.
    """
    if alpha >= 63 or (r * 2**alpha + extra_rows) * cols * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"{what} is larger than numpy can index")


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
    """Canonical JSON, the one format of every JSON the package writes: sorted keys, compact.

    A nan or infinite float raises ValueError: JSON has no such number.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _labeled_to_obj(ls: LabeledSet) -> dict:
    return {"features": ls.features.tolist(), "labels": ls.labels.tolist(), "k": ls.k}


# The Python types json.loads gives each JSON kind, compared exactly: bool is
# an int subclass, and int() or float() would take 1.6, "0.5" and true too.
_JSON_KINDS = {
    "integer": (int,), "number": (int, float), "string": (str,), "list": (list,), "object": (dict,)
}


def _json_kind(value, kind: str, what: str):
    """value if it is of the JSON kind, else ValueError naming it what."""
    if type(value) not in _JSON_KINDS[kind]:
        raise ValueError(f"{what} must be a JSON {kind}, got {value!r}")
    return value


def _json_field(obj: dict, where: str, key: str, kind: str):
    """obj[key], present and of the JSON kind; messages name it "<where> <key>"."""
    what = f"{where} {key}".lstrip()
    if key not in obj:
        raise ValueError(f"{what} is missing")
    return _json_kind(obj[key], kind, what)


def _labeled_from_obj(task: dict, what: str) -> LabeledSet:
    """The task file's support or query, as what names it."""
    obj = _json_field(task, "", what, "object")
    features = np.array(_json_field(obj, what, "features", "list"), dtype=object)
    if features.ndim != 2:
        raise ValueError(f"{what} features must be a list of rows, got shape {features.shape}")
    for v in features.flat:
        _json_kind(v, "number", f"{what} feature")
    labels = _json_field(obj, what, "labels", "list")
    return LabeledSet(
        features=features.astype(np.float64),
        labels=np.array([_json_kind(v, "integer", f"{what} labels entry") for v in labels], dtype=np.int64),
        k=_json_field(obj, what, "k", "integer"),
    )


def task_to_json(task: Task) -> str:
    """Canonical JSON for a task: meta holds TaskMeta's fields, the encoding by value; equal tasks, equal bytes."""
    shape = task.support.features.shape
    if len(shape) != 2:
        raise ValueError(
            f"a task file holds one task: support features must be a list of rows, got shape {shape}"
        )
    obj = {
        "support": _labeled_to_obj(task.support),
        "query": _labeled_to_obj(task.query),
        "meta": None if task.meta is None else {**asdict(task.meta), "encoding": task.meta.encoding.value},
    }
    return json_text(obj)


def task_from_json(text: str) -> Task:
    """The task of a task file; ValueError names the first field that is not what task_to_json writes."""
    obj = _json_kind(json.loads(text), "object", "a task file")
    meta = None
    if obj.get("meta") is not None:
        m = _json_kind(obj["meta"], "object", "meta")
        active = _json_field(m, "meta", "active_indices", "list")
        encoding = _json_field(m, "meta", "encoding", "string")
        choices = [e.value for e in Encoding]
        if encoding not in choices:
            raise ValueError(f"meta encoding must be one of {', '.join(choices)}, got {encoding!r}")
        meta = TaskMeta(
            active_indices=tuple(_json_kind(v, "integer", "meta active_indices entry") for v in active),
            alpha=_json_field(m, "meta", "alpha", "integer"),
            beta_irrelevant=_json_field(m, "meta", "beta_irrelevant", "integer"),
            p=float(_json_field(m, "meta", "p", "number")),
            r=_json_field(m, "meta", "r", "integer"),
            encoding=Encoding(encoding),
            seed=_json_field(m, "meta", "seed", "integer"),
        )
    return Task(
        support=_labeled_from_obj(obj, "support"),
        query=_labeled_from_obj(obj, "query"),
        meta=meta,
    )
