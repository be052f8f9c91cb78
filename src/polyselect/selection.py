"""Within-class self-attention feature scoring, rescaling, and top-k masking.

The scoring procedure: standardise the support features over the whole
support set, then repeatedly self-attend within each class.  Each round maps
every row into the convex hull of its class, so coordinates that carry no
class-relevant pattern get averaged away, while coordinates whose patterns
make same-variant rows attend to each other are preserved.  The per-feature
dispersion of the updated support is the feature's score: high score means
the feature survived the averaging and is discriminative for this task.

Each selection method turns the scores into one per-feature factor, by
FACTORS: AttnSoftFS multiplies features by the scores, AttnSoftFSNorm by the
scores scaled to mean one, AttnTopK keeps only the k best-scoring features.
The factor multiplies standardised features, with query rows standardised
using support statistics.

Every step works on (..., rows, n) arrays, so a stack of same-shape tasks
that share one support label row is standardised, scored and classified at
once; score_chunk standardises a chunk once and its Scored result serves
every selection method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledSet, _shared_labels
from .kernels import AttentionConfig, _exp_rows_in_place, attend_probs

__all__ = [
    "FACTORS",
    "Scored",
    "SelectionConfig",
    "dispersion",
    "feature_scores",
    "score_chunk",
    "select_probs",
    "self_attention_round",
    "standardize",
    "standardize_features",
]


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs for the scoring rounds, and the k of AttnTopK.

    tau_inv defaults to 2.0: at 1.0 the within-class iteration mixes variant
    groups into each other and collapses to the class mean within ~10 rounds,
    destroying the active/irrelevant score separation the procedure exists to
    produce; 2.0 keeps groups segregated well past rounds=10 on every task
    family in the test suite.

    top_k is required by AttnTopK.  bench fills it in when it is None: with
    the sweep's alpha, or the active-feature count of a task's metadata.
    """

    epsilon: float = 1e-8
    tau_inv: float = 2.0
    rounds: int = 10
    top_k: int | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not np.isfinite(self.tau_inv) or self.tau_inv <= 0:
            raise ValueError("tau_inv must be positive and finite")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1")


def standardize_features(
    features: np.ndarray, mu: np.ndarray, sigma: np.ndarray, epsilon: float
) -> np.ndarray:
    """Standardise (..., rows, n) features with per-task (..., n) statistics."""
    mu, sigma = mu[..., None, :], sigma[..., None, :]
    return (np.asarray(features, dtype=np.float64) - mu) / (sigma + epsilon)


def standardize(support: LabeledSet, epsilon: float = 1e-8) -> tuple[LabeledSet, np.ndarray, np.ndarray]:
    """Z-normalise the support over all rows (population statistics).

    Returns the standardised set plus the per-feature mean and standard
    deviation so queries can be standardised with the same statistics.
    """
    if support.rows < 2:
        raise ValueError("standardisation needs at least 2 support rows")
    mu = support.features.mean(axis=-2)
    sigma = support.features.std(axis=-2)  # population (divide by N)
    feats = standardize_features(support.features, mu, sigma, epsilon)
    return LabeledSet(features=feats, labels=support.labels, k=support.k), mu, sigma


# Multiply-adds of one Gram product.  A class whose rows x rows Gram costs
# more is built in blocks of rows, each a gemm within this budget: OpenBLAS
# runs a gemm of at most 2^18 multiply-adds on one thread, so such a class
# has the same bits under any BLAS thread count.  Smaller classes keep their
# single product, and with it the bits of every parity sweep.
_GRAM_BUDGET = 2**18


def self_attention_round(class_features: np.ndarray, tau_inv: float) -> np.ndarray:
    """One self-attention update X <- row_softmax(tau_inv * X X^T) X.

    Every output row is a convex combination of the input rows, so each
    coordinate stays inside the class's [min, max] for that coordinate, and a
    single-row class is returned unchanged.  With two or more rows, non-finite
    input or an overflowing scaled Gram entry raises ValueError.

    A class within the budget is one Gram product x @ x^T, which numpy builds
    with syrk and a copy of one triangle into the other, so the Gram equals
    its transpose bit for bit and its row maxima are taken as column maxima.
    The blocked path's buffers hold a few rows of the Gram, not a symmetric
    matrix, so it keeps the row maxima.
    """
    x = np.asarray(class_features, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ValueError("class features must be a non-empty (..., rows, n) array")
    rows, n = x.shape[-2:]
    if rows == 1:
        return x.copy()
    if rows * rows * n <= _GRAM_BUDGET:
        # one rows x rows buffer: the symmetric Gram, scaled and normalised in place
        weights = x @ x.swapaxes(-1, -2)
        weights /= _exp_rows_in_place(weights, tau_inv, symmetric=True)
        return weights @ x
    # a block of Gram rows at a time, each product within the budget; the
    # row sums divide the block's output rows rather than the block itself
    xt = np.ascontiguousarray(x.swapaxes(-1, -2))
    step = max(1, _GRAM_BUDGET // (rows * n))
    gram = np.empty((*x.shape[:-2], step, rows))
    out = np.empty(x.shape)
    for start in range(0, rows, step):
        block = np.matmul(x[..., start : start + step, :], xt, out=gram[..., : rows - start, :])
        sums = _exp_rows_in_place(block, tau_inv)
        updated = np.matmul(block, x, out=out[..., start : start + step, :])
        updated /= sums
    return out


def dispersion(features: np.ndarray) -> np.ndarray:
    """Per-feature mean absolute deviation from the mean over the rows."""
    x = np.asarray(features, dtype=np.float64)
    return np.abs(x - x.mean(axis=-2, keepdims=True)).mean(axis=-2)


def _scores(std_support: LabeledSet, config: SelectionConfig) -> np.ndarray:
    out = std_support.features.copy()
    labels = _shared_labels(std_support.labels)
    for c in range(std_support.k):
        rows = labels == c
        block = out[..., rows, :]
        if block.shape[-2] == 0:
            raise ValueError(f"class {c} has no support examples")
        for _ in range(config.rounds):
            block = self_attention_round(block, config.tau_inv)
        out[..., rows, :] = block
    return dispersion(out)


def feature_scores(support: LabeledSet, config: SelectionConfig = SelectionConfig()) -> np.ndarray:
    """Nonnegative per-feature scores from the attention-then-dispersion loop.

    rounds=0 skips the attention entirely and scores features by the
    dispersion of the standardised support.
    """
    return _scores(standardize(support, config.epsilon)[0], config)


@dataclass(frozen=True)
class Scored:
    """A chunk standardised once, with the support's feature scores.

    The query rows are standardised with the support statistics.  Every
    selection method applies its factor to these same arrays, so the scores
    of a chunk are computed once however many methods use them.
    """

    support: LabeledSet
    query_features: np.ndarray
    scores: np.ndarray


def score_chunk(support: LabeledSet, query_features: np.ndarray, config: SelectionConfig) -> Scored:
    """Standardise support and queries, then score the support's features."""
    std_support, mu, sigma = standardize(support, config.epsilon)
    query = standardize_features(query_features, mu, sigma, config.epsilon)
    scores = _scores(std_support, config)
    query.setflags(write=False)  # shared by every method that reads this chunk
    scores.setflags(write=False)
    return Scored(std_support, query, scores)


def _top_k_mask(scores: np.ndarray, k: int | None) -> np.ndarray:
    """Binary mask keeping the k highest scores; ties keep the lowest index."""
    if k is None:
        raise ValueError("AttnTopK needs top_k (or task metadata with an active count)")
    n = scores.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"top_k must lie in [1, {n}], got {k}")
    order = np.argsort(-scores, axis=-1, kind="stable")
    mask = np.zeros(scores.shape, dtype=np.float64)
    np.put_along_axis(mask, order[..., :k], 1.0, axis=-1)
    return mask


def _mean_one(scores: np.ndarray, config: SelectionConfig) -> np.ndarray:
    total = np.abs(scores).sum(axis=-1, keepdims=True)
    if np.any(total == 0):
        raise ValueError("cannot normalise all-zero scores")
    return scores / total * scores.shape[-1]


# method name -> factor(scores, config): the per-task (..., n) multipliers
# the method applies to the standardised features
FACTORS = {
    "AttnSoftFS": lambda scores, config: scores,
    "AttnSoftFSNorm": _mean_one,
    "AttnTopK": lambda scores, config: _top_k_mask(scores, config.top_k),
}


def select_probs(scored: Scored, method: str, attn: AttentionConfig, sel: SelectionConfig) -> np.ndarray:
    """Apply the method's factor to a scored chunk, then attend-classify its queries."""
    scores = scored.scores
    if np.any(scores < 0) or not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite and nonnegative")
    factor = FACTORS[method](scores, sel)[..., None, :]
    sup = scored.support
    support = LabeledSet(sup.features * factor, sup.labels, sup.k)
    return attend_probs(scored.query_features * factor, support, attn)
