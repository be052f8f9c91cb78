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

Every step works on (..., rows, n) arrays, so select_probs standardises and
scores a stack of same-shape tasks that share one support label row at once,
and once for all the selection methods it classifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledSet, Task
from .kernels import AttentionConfig, _exp_rows_in_place, attend_probs

__all__ = [
    "FACTORS",
    "SelectionConfig",
    "dispersion",
    "feature_scores",
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
    family in the test suite.  epsilon, added to each feature's standard
    deviation before dividing by it, must be positive and finite.

    top_k is required by AttnTopK.  When it is None, run_sweep fills it in
    once per sweep with the sweep's alpha, and the CLI eval with the
    active-feature count of its task's metadata; both then classify through
    one bench._accuracies call.
    """

    epsilon: float = 1e-8
    tau_inv: float = 2.0
    rounds: int = 10
    top_k: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
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
    deviation so queries can be standardised with the same statistics.  A
    support whose mean or standard deviation overflows float64 raises
    ValueError, since an infinite sigma would standardise every feature to 0.
    """
    if support.rows < 2:
        raise ValueError("standardisation needs at least 2 support rows")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = support.features.mean(axis=-2)
        sigma = support.features.std(axis=-2)  # population (divide by N)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ValueError("support feature mean or standard deviation overflows float64")
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
    single-row class, whose one weight is exp(0) = 1, is returned unchanged.
    Non-finite input or an overflowing scaled Gram entry raises ValueError
    from the row maxima alone: since |G_ij| <= max(G_ii, G_jj), a non-finite
    Gram entry comes with a +inf or NaN on the diagonal, the maximum of its
    row, so a Gram needs no finite scan.

    A class within the budget is one Gram product x @ x^T, which numpy builds
    with syrk and a copy of one triangle into the other, so the Gram equals
    its transpose bit for bit and its column maxima are its row maxima, a
    faster reduction on short rows.  The blocked path's buffers hold a few
    rows of the Gram, not a symmetric matrix, so it takes the row maxima.
    """
    x = np.asarray(class_features, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ValueError("class features must be a non-empty (..., rows, n) array")
    rows, n = x.shape[-2:]
    if rows * rows * n <= _GRAM_BUDGET:
        # one rows x rows buffer: the symmetric Gram, scaled and normalised in place
        weights = x @ x.swapaxes(-1, -2)
        weights /= _exp_rows_in_place(weights, tau_inv, weights.max(axis=-2)[..., None])
        return weights @ x
    # a block of Gram rows at a time, each product within the budget; the
    # row sums divide the block's output rows rather than the block itself
    xt = np.ascontiguousarray(x.swapaxes(-1, -2))
    step = max(1, _GRAM_BUDGET // (rows * n))
    gram = np.empty((*x.shape[:-2], step, rows))
    out = np.empty(x.shape)
    for start in range(0, rows, step):
        block = np.matmul(x[..., start : start + step, :], xt, out=gram[..., : rows - start, :])
        sums = _exp_rows_in_place(block, tau_inv, block.max(axis=-1, keepdims=True))
        updated = np.matmul(block, x, out=out[..., start : start + step, :])
        updated /= sums
    return out


def dispersion(features: np.ndarray) -> np.ndarray:
    """Per-feature mean absolute deviation from the mean over the rows."""
    x = np.asarray(features, dtype=np.float64)
    return np.abs(x - x.mean(axis=-2, keepdims=True)).mean(axis=-2)


def _scores(std_support: LabeledSet, config: SelectionConfig) -> np.ndarray:
    out = std_support.features.copy()
    for c in range(std_support.k):
        block = std_support.class_rows(c)
        for _ in range(config.rounds):
            block = self_attention_round(block, config.tau_inv)
        out[..., std_support.labels == c, :] = block
    return dispersion(out)


def feature_scores(support: LabeledSet, config: SelectionConfig = SelectionConfig()) -> np.ndarray:
    """Per-feature scores from the attention-then-dispersion loop.

    rounds=0 skips the attention entirely and scores features by the
    dispersion of the standardised support.  Every score is finite and >= 0,
    or the call raises ValueError: the standardised support is finite, each
    round keeps every row inside its class's finite range or raises on an
    overflowing Gram, and a mean absolute deviation of finite values is
    finite and >= 0.
    """
    return _scores(standardize(support, config.epsilon)[0], config)


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


def select_probs(task: Task, methods, attn: AttentionConfig, sel: SelectionConfig) -> dict[str, np.ndarray]:
    """Each selection method's query class probabilities on a task or a stack of them.

    The support and the queries are standardised with the support statistics
    and the support's features scored once; each method then multiplies both
    by its FACTORS factor and attend-classifies the queries.
    """
    support, mu, sigma = standardize(task.support, sel.epsilon)
    scores = _scores(support, sel)
    factors = {method: FACTORS[method](scores, sel)[..., None, :] for method in methods}
    # a query far outside the support's range may standardise or scale to inf, which
    # attend_probs' finite scan rejects; a feature the factor drops is 0 whatever its value
    with np.errstate(over="ignore", invalid="ignore"):
        query = standardize_features(task.query.features, mu, sigma, sel.epsilon)
        queries = {method: np.where(factor == 0, 0.0, query * factor) for method, factor in factors.items()}
    probs = {}
    for method, factor in factors.items():
        scaled = LabeledSet(support.features * factor, support.labels, support.k)
        probs[method] = attend_probs(queries[method], scaled, attn)
    return probs
