"""Class-mean prototype baseline: softmax over negative squared distances.

This is the threshold-classifier reference point, deliberately run on raw
features (no learned embedding) to expose where nearest-mean classification
breaks: a complete balanced parity task collapses every class mean onto the
same point, leaving no decision boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledSet
from .kernels import AttentionConfig, Kernel, similarity_matrix, softmax_rows

__all__ = ["PrototypeSet", "build_prototypes", "proto_classify"]


@dataclass(frozen=True)
class PrototypeSet:
    """One mean feature vector per class, row c for class c (per task of a stack)."""

    means: np.ndarray
    k: int

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        if means.ndim < 2 or means.shape[-2] != self.k:
            raise ValueError("means must have one row per class")
        if not np.all(np.isfinite(means)):
            raise ValueError("prototype means must be finite")
        means.setflags(write=False)
        object.__setattr__(self, "means", means)


def build_prototypes(support: LabeledSet) -> PrototypeSet:
    """Arithmetic mean of each class's support rows; every class must appear."""
    means = []
    for c in range(support.k):
        rows = support.class_rows(c)
        if rows.shape[-2] == 0:
            raise ValueError(f"class {c} has no support examples")
        means.append(rows.mean(axis=-2))
    return PrototypeSet(means=np.stack(means, axis=-2), k=support.k)


def proto_classify(query_features: np.ndarray, protos: PrototypeSet, tau_inv: float = 1.0) -> np.ndarray:
    """Class probabilities: softmax of -tau_inv * squared distance to each mean."""
    neg_sq = similarity_matrix(AttentionConfig(Kernel.SQ_EUCLIDEAN), query_features, protos.means)
    return softmax_rows(neg_sq, tau_inv)
