"""Similarity kernels, temperature softmax, and the attentional classifier.

The classifier is a softmax-weighted vote of support labels: queries are
attention queries, support features are keys, and one-hot support labels are
values.  With sharp temperature it reduces to 1-nearest-neighbour; with flat
temperature it returns the support class balance.

Every function here works on the last two axes, so queries (..., q, n) and
a stacked support (..., m, n) classify a whole chunk of tasks at once.
"""

from __future__ import annotations

import math
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


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("softmax input must be finite")


def _exp_rows_in_place(z: np.ndarray, tau_inv: float, symmetric: bool = False) -> np.ndarray:
    """Overwrite z with exp(tau_inv * z - row max) and return the (..., rows, 1) row sums.

    Only the (..., rows) row maxima are checked, before z is scaled: NaN or
    +inf anywhere in a row reaches its maximum, and since tau_inv > 0 and
    rounding is monotone, fl(tau_inv * max z) = max fl(tau_inv * z), so a
    row's scaled entries overflow upwards exactly when its scaled maximum
    does.  That product is formed on the largest |maximum| as a Python float,
    so an overflow raises ValueError without a numpy warning.  A -inf below
    a finite maximum would pass, so a caller whose buffer can hold one
    checks it whole first.  Rows of a Gram X X^T need no such scan: since
    |G_ij| <= max(G_ii, G_jj), any infinite or NaN entry comes with a +inf or
    NaN on the diagonal, where it is the maximum of its row.

    symmetric=True promises that z equals its own transpose bit for bit; the
    row maxima are then taken as column maxima, a faster reduction on short
    rows.  A maximum does not depend on the order it is taken in, so the bits
    are the same, NaN and inf included, but only for such a z.

    What overflow is left is downward: an entry far below its row's maximum
    goes to -inf when scaled or shifted, and exp gives it the 0 it should
    have, so numpy's overflow warning is silenced for those two steps.
    """
    peak = z.max(axis=-2)[..., None] if symmetric else z.max(axis=-1, keepdims=True)
    if not math.isfinite(float(tau_inv) * float(np.abs(peak).max(initial=0.0))):
        raise ValueError("softmax input must be finite")
    with np.errstate(over="ignore"):
        z *= tau_inv
        peak *= tau_inv
        z -= peak
    np.exp(z, out=z)
    return z.sum(axis=-1, keepdims=True)


def _softmax_in_place(z: np.ndarray, tau_inv: float) -> np.ndarray:
    """Row-wise softmax of tau_inv * z, computed in z's own buffer and returned.

    The checks are _exp_rows_in_place's.
    """
    z /= _exp_rows_in_place(z, tau_inv)
    return z


def softmax_rows(scores: np.ndarray, tau_inv: float = 1.0) -> np.ndarray:
    """Row-wise softmax of tau_inv * scores, stabilised by row-max subtraction."""
    scores = np.array(scores, dtype=np.float64)  # a copy: the softmax overwrites it
    _require_finite(scores)
    return _softmax_in_place(scores, tau_inv)


def attend_probs(query_features: np.ndarray, support: LabeledSet, config: AttentionConfig) -> np.ndarray:
    """Class probabilities for arbitrary query rows against a support set."""
    scores = similarity_matrix(config, query_features, support.features)
    _require_finite(scores)
    return _softmax_in_place(scores, config.tau_inv) @ one_hot(support.labels, support.k)


def predict(probs: np.ndarray) -> np.ndarray:
    """Argmax class ids.

    Only bitwise-equal probabilities go to the lowest class id.  Classes
    whose attention sums tie mathematically are decided by rounding: of the
    413 exactly tied fig7 Attn queries, 56 go to class 1.
    """
    return np.argmax(probs, axis=-1)
