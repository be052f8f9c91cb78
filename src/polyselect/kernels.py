"""Similarity kernels, temperature softmax, and the attentional classifier.

The classifier is a softmax-weighted vote of support labels: queries are
attention queries, support features are keys, and one-hot support labels are
values.  With sharp temperature it reduces to 1-nearest-neighbour; with flat
temperature it returns the support class balance.

Every function here works on the last two axes, so queries (..., q, n) and
a stacked support (..., m, n) classify a whole chunk of tasks at once.
Every kernel's similarity is one (..., q, m) buffer: Laplace adds one
feature's |q_j - k_j| at a time into it, so no kernel holds a (..., q, m, n)
temporary.

One row softmax serves the classifier and selection's scoring rounds:
_exp_rows_in_place, which checks only the row maxima its caller passes.
attend_probs scans its scores whole first, for a -inf below a finite
maximum; selection.self_attention_round says why a Gram needs no scan.
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
    # Laplace: -sum_j |q_j - k_j|, added one feature at a time into the output and
    # negated last, so equal rows give -0.0 as -|q - k|.sum(-1) does
    lead = np.broadcast_shapes(queries.shape[:-2], keys.shape[:-2])
    out = np.zeros((*lead, queries.shape[-2], keys.shape[-2]))
    diff = np.empty_like(out)
    for j in range(queries.shape[-1]):
        np.subtract(queries[..., :, None, j], keys[..., None, :, j], out=diff)
        out += np.abs(diff, out=diff)
    return np.negative(out, out=out)


def _exp_rows_in_place(z: np.ndarray, tau_inv: float, peak: np.ndarray) -> np.ndarray:
    """Overwrite z with exp(tau_inv * z - tau_inv * peak) and return the (..., rows, 1) row sums.

    peak holds z's (..., rows, 1) row maxima, taken by the caller and scaled
    here in place.  Only they are checked, before z is scaled: NaN or +inf
    anywhere in a row reaches its maximum, and since tau_inv > 0 and
    rounding is monotone, fl(tau_inv * max z) = max fl(tau_inv * z), so a
    row's scaled entries overflow upwards exactly when its scaled maximum
    does.  That product is formed on the largest |maximum| as a Python float,
    so an overflow raises ValueError without a numpy warning.  A -inf below
    a finite maximum passes.

    What overflow is left is downward: an entry far below its row's maximum
    goes to -inf when scaled or shifted, and exp gives it the 0 it should
    have, so numpy's overflow warning is silenced for those two steps.
    """
    if not math.isfinite(float(tau_inv) * float(np.abs(peak).max(initial=0.0))):
        raise ValueError("softmax input must be finite")
    with np.errstate(over="ignore"):
        z *= tau_inv
        peak *= tau_inv
        z -= peak
    np.exp(z, out=z)
    return z.sum(axis=-1, keepdims=True)


def attend_probs(query_features: np.ndarray, support: LabeledSet, config: AttentionConfig) -> np.ndarray:
    """Class probabilities for arbitrary query rows against a support set.

    A stacked support's labels may be shared or per task: the one-hot
    values of each task's own labels weight its attention.  ValueError
    unless every similarity is finite: the softmax checks only the row
    maxima, which miss a -inf below a finite one.
    """
    # a query far outside the support's range may overflow here; the scan rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        scores = similarity_matrix(config, query_features, support.features)
    if not np.all(np.isfinite(scores)):
        raise ValueError("softmax input must be finite")
    scores /= _exp_rows_in_place(scores, config.tau_inv, scores.max(axis=-1, keepdims=True))
    return scores @ one_hot(support.labels, support.k)


def predict(probs: np.ndarray) -> np.ndarray:
    """Argmax class ids.

    Only bitwise-equal probabilities go to the lowest class id.  An exact tie is
    decided by rounding in the BLAS kernel's summation order, which varies by machine:
    under the SkylakeX OpenBLAS kernel that wrote the goldens, 56 of the 413 tied fig7
    Attn queries go to class 1, and under OPENBLAS_CORETYPE=Haswell the tied rows of
    fig7, fig11 and binary_strings come out otherwise (ROADMAP item 23 sets a rule).
    """
    return np.argmax(probs, axis=-1)
