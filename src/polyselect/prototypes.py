"""Class-mean prototype baseline: attention over the class means.

The prototype classifier is a softmax over negative squared distances to the
class means, which is attention whose keys are the means and whose values
are their class ids under the squared-Euclidean kernel, so it runs through
kernels.attend_probs.  It is the threshold-classifier reference point,
deliberately run on raw features (no learned embedding) to expose where
nearest-mean classification breaks: a complete balanced parity task collapses
every class mean onto the same point, leaving no decision boundary.
"""

from __future__ import annotations

import numpy as np

from .core import LabeledSet
from .kernels import AttentionConfig, Kernel, attend_probs

__all__ = ["build_prototypes", "proto_classify"]


def build_prototypes(support: LabeledSet) -> LabeledSet:
    """Row c is the mean of class c's support rows, labelled c; every class must appear."""
    means = [support.class_rows(c).mean(axis=-2) for c in range(support.k)]
    return LabeledSet(np.stack(means, axis=-2), np.arange(support.k), k=support.k)


def proto_classify(query_features: np.ndarray, protos: LabeledSet, tau_inv: float = 1.0) -> np.ndarray:
    """Class probabilities: softmax of -tau_inv * squared distance to each mean."""
    return attend_probs(query_features, protos, AttentionConfig(Kernel.SQ_EUCLIDEAN, tau_inv))
