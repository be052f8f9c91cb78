"""Similarity kernels, temperature softmax, and the attentional classifier.

The classifier is a softmax-weighted vote of support labels: queries are
attention queries, support features are keys, and one-hot support labels are
values.  With sharp temperature it reduces to 1-nearest-neighbour; with flat
temperature it returns the support class balance.

Every function here works on the last two axes, so queries (..., q, n) and
a stacked support (..., m, n) classify a whole chunk of tasks at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import LabeledSet, one_hot

__all__ = [
    "AttentionConfig",
    "Kernel",
    "attend_probs",
    "predict",
    "similarity_matrix",
    "softmax_rows",
]


class Kernel(Enum):
    DOT = "dot"
    COSINE = "cosine"
    SQ_EUCLIDEAN = "sq_euclidean"
    LAPLACE = "laplace"


@dataclass(frozen=True)
class AttentionConfig:
    """Kernel kind plus the scale multiplying scores inside the softmax.

    tau_inv is the sharpness: scores are multiplied by it before the softmax,
    so large values approach argmax (nearest neighbour) and values near zero
    approach the uniform vote.
    """

    kind: Kernel = Kernel.DOT
    tau_inv: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.tau_inv) or self.tau_inv <= 0:
            raise ValueError(f"tau_inv must be positive and finite, got {self.tau_inv}")


def _unit_rows(mat: np.ndarray, who: str) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError(f"cosine similarity undefined: zero vector in {who}")
    return mat / norms


def similarity_matrix(config: AttentionConfig, queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Pairwise similarity scores, one row per query, one column per key."""
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if queries.shape[-1] != keys.shape[-1]:
        raise ValueError("query and key vectors must have equal length")
    if config.kind is Kernel.DOT:
        return queries @ keys.swapaxes(-1, -2)
    if config.kind is Kernel.COSINE:
        qn = _unit_rows(queries, "queries")
        kn = _unit_rows(keys, "keys")
        return qn @ kn.swapaxes(-1, -2)
    if config.kind is Kernel.SQ_EUCLIDEAN:
        # -|q - k|^2 expanded to stay at one matmul
        out = queries @ keys.swapaxes(-1, -2)
        out *= 2.0
        out -= np.sum(queries**2, axis=-1)[..., :, None]
        out -= np.sum(keys**2, axis=-1)[..., None, :]
        return out
    # Laplace: negative L1 distance
    return -np.abs(queries[..., :, None, :] - keys[..., None, :, :]).sum(axis=-1)


def softmax_rows(scores: np.ndarray, tau_inv: float = 1.0) -> np.ndarray:
    """Row-wise softmax of tau_inv * scores, stabilised by row-max subtraction."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("softmax input must be finite")
    z = tau_inv * scores  # the only temporary: every later step works in place
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def attend_probs(query_features: np.ndarray, support: LabeledSet, config: AttentionConfig) -> np.ndarray:
    """Class probabilities for arbitrary query rows against a support set."""
    scores = similarity_matrix(config, query_features, support.features)
    return softmax_rows(scores, config.tau_inv) @ one_hot(support.labels, support.k)


def predict(probs: np.ndarray) -> np.ndarray:
    """Argmax class ids; ties resolve to the lowest class id."""
    return np.argmax(probs, axis=-1)
