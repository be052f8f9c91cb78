"""Class-mean prototype baseline: attention over the class means.

Proto is attention under the squared-Euclidean kernel whose keys are the
class means, one_hot(labels)^T @ features / counts for shared and per-task
labels alike, and whose values are their class ids.  On ±1 or 0/1 rows each
class sum is an exact small integer, so the means' bits do not depend on the
summation order.  It is the threshold-classifier reference point, run on raw
features to expose where nearest-mean classification breaks: a complete
balanced parity task collapses every class mean onto one point.
"""

from __future__ import annotations

import numpy as np

from .core import LabeledSet, one_hot
from .kernels import AttentionConfig, Kernel, attend_probs

__all__ = ["build_prototypes", "proto_classify"]


def build_prototypes(support: LabeledSet) -> LabeledSet:
    """Row c is the mean of class c's support rows, labelled c; every class must appear in every task."""
    members = one_hot(support.labels, support.k)
    counts = members.sum(axis=-2)
    if not counts.all():
        raise ValueError(f"class {counts.reshape(-1, support.k).min(axis=0).argmin()} has no support examples")
    means = members.swapaxes(-1, -2) @ support.features / counts[..., None]
    return LabeledSet(means, np.arange(support.k), k=support.k)


def proto_classify(query_features: np.ndarray, protos: LabeledSet, tau_inv: float = 1.0) -> np.ndarray:
    """Class probabilities: softmax of -tau_inv * squared distance to each mean."""
    return attend_probs(query_features, protos, AttentionConfig(Kernel.SQ_EUCLIDEAN, tau_inv))
