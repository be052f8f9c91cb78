"""Analytic misclassification statistics for parity tasks, with oracles.

Setting: a support set holding every active pattern of a parity task exactly
r times, plus beta irrelevant iid Bernoulli(p) features per example.  A query
from the positive class is classified by the sign of the signed attention
score sum  sum_i (-1)^(delta_i) X(delta_i),  where delta_i is the query's
active-pattern Hamming distance to support row i and X is the exponential of
the kernel score.

A pair of irrelevant bits agrees with probability pbar = p^2 + (1-p)^2, so
each support row's irrelevant contribution is a binomial over beta trials.
The closed forms below treat those contributions as independent across
support rows; exhaustive_stats evaluates exactly that model by enumerating
the (query-bit, support-bit) configurations, and mc_misclassification
samples full tasks instead (where one query shares its irrelevant bits
across all support rows, which leaves the mean unchanged but perturbs the
variance when p != 0.5).

Kernel score models on their natural encodings:

    dot           f(delta) = alpha - 2*delta   match +1 / mismatch -1 per bit
    cosine        f(delta) = 1 - 2*delta/alpha match +1 / mismatch -1 per bit
    sq_euclidean  f(delta) = -delta            match  0 / mismatch -1 per bit

The laplace kernel coincides with sq_euclidean on the zero/one encoding and
is treated as an alias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import rng_for
from .kernels import Kernel

__all__ = [
    "MCResult",
    "ScoreStats",
    "SnrGrowth",
    "TheoryParams",
    "and_boundary",
    "exhaustive_stats",
    "mc_misclassification",
    "mc_signed_sums",
    "pbar",
    "qbar",
    "snr_growth",
    "support_sum_stats",
]

# Enumeration bounds for the exhaustive oracle.
_MAX_ALPHA = 4
_MAX_BETA = 6
_MAX_R = 3

# exp overflows float64 near 709, so closed forms switch to log space; values
# whose log exceeds this still overflow to inf on conversion.
_EXP_OVERFLOW = 709.0

# Support uniforms per block of mc_signed_sums trials: 2^16 float64 (512 KiB),
# sized to stay in L2.  A call's buffers then total at most about 1.6 MiB
# (unless one trial alone needs more uniforms) besides its (trials,) output.
_MC_BLOCK_DRAWS = 1 << 16


@dataclass(frozen=True)
class TheoryParams:
    alpha: int
    beta_irrelevant: int
    p: float
    r: int
    kernel: Kernel = Kernel.DOT

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.beta_irrelevant < 0:
            raise ValueError("beta_irrelevant must be >= 0")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.r < 1:
            raise ValueError("r must be >= 1")


@dataclass(frozen=True)
class ScoreStats:
    mean: float
    variance: float


@dataclass(frozen=True)
class MCResult:
    mean: float
    variance: float
    misclass_rate: float
    trials: int


@dataclass(frozen=True)
class SnrGrowth:
    betas: tuple[int, ...]
    ratios: tuple[float, ...]
    fitted_slope: float
    asymptotic_slope: float


def pbar(p: float) -> float:
    """Probability two independent Bernoulli(p) bits agree: p^2 + (1-p)^2."""
    return p * p + (1.0 - p) * (1.0 - p)


def qbar(p: float) -> float:
    """Complement of pbar: probability two independent bits disagree."""
    return 1.0 - pbar(p)


def _check_tau_inv(tau_inv: float) -> None:
    if not math.isfinite(tau_inv) or tau_inv <= 0:
        raise ValueError(f"tau_inv must be positive and finite, got {tau_inv}")


def _base_kernel(kernel: Kernel) -> Kernel:
    return Kernel.SQ_EUCLIDEAN if kernel is Kernel.LAPLACE else kernel


def _active_exponent(kernel: Kernel, alpha: int, delta: np.ndarray | int):
    d = np.asarray(delta, dtype=np.float64)
    kernel = _base_kernel(kernel)
    if kernel is Kernel.DOT:
        return alpha - 2.0 * d
    if kernel is Kernel.COSINE:
        return 1.0 - 2.0 * d / alpha
    return -d


def _bit_exponents(kernel: Kernel) -> tuple[float, float]:
    """Per irrelevant bit: (exponent when matching, exponent when differing)."""
    if _base_kernel(kernel) is Kernel.SQ_EUCLIDEAN:
        return 0.0, -1.0
    return 1.0, -1.0


def _bit_moments(params: TheoryParams) -> tuple[float, float]:
    """(c1, c2): mean of e^g and of e^(2g) for one irrelevant bit's exponent g."""
    m, mm = _bit_exponents(params.kernel)
    pb, qb = pbar(params.p), qbar(params.p)
    return pb * math.exp(m) + qb * math.exp(mm), pb * math.exp(2 * m) + qb * math.exp(2 * mm)


def _log_gap(beta: int, c1: float, c2: float) -> float:
    """log(c2^beta - c1^(2 beta)); c2 > c1^2 by Jensen whenever qbar > 0."""
    return beta * math.log(c2) + math.log1p(-math.exp(beta * (2 * math.log(c1) - math.log(c2))))


def _sum_bases(kernel: Kernel, alpha: int) -> tuple[float, float]:
    """(signed sum of e^f, sum of e^2f) over the binomially-weighted deltas.

    Closed forms: dot -> ((e - 1/e)^alpha, (e^2 + e^-2)^alpha); cosine
    substitutes exponent 1/alpha; sq_euclidean -> ((1 - 1/e)^alpha,
    (1 + e^-2)^alpha).
    """
    kernel = _base_kernel(kernel)
    if kernel is Kernel.DOT:
        return (math.e - math.exp(-1)) ** alpha, (math.exp(2) + math.exp(-2)) ** alpha
    if kernel is Kernel.COSINE:
        a = math.exp(1.0 / alpha) - math.exp(-1.0 / alpha)
        b = math.exp(2.0 / alpha) + math.exp(-2.0 / alpha)
        return a**alpha, b**alpha
    return (1.0 - math.exp(-1)) ** alpha, (1.0 + math.exp(-2)) ** alpha


def support_sum_stats(params: TheoryParams) -> ScoreStats:
    """Mean and variance of the signed score sum over the whole support.

    mean = r * base1 * c1^beta and variance = r * base2 * (c2^beta -
    c1^(2 beta)), computed in log space so large beta degrades to inf rather
    than raising.
    """
    beta = params.beta_irrelevant
    base1, base2 = _sum_bases(params.kernel, params.alpha)
    c1, c2 = _bit_moments(params)

    log_mean = math.log(params.r) + math.log(base1) + beta * math.log(c1)
    mean = math.exp(log_mean) if log_mean <= _EXP_OVERFLOW else math.inf

    if beta == 0 or qbar(params.p) == 0.0:
        return ScoreStats(mean=mean, variance=0.0)
    log_var = math.log(params.r) + math.log(base2) + _log_gap(beta, c1, c2)
    variance = math.exp(log_var) if log_var <= _EXP_OVERFLOW else math.inf
    return ScoreStats(mean=mean, variance=variance)


def exhaustive_stats(params: TheoryParams) -> ScoreStats:
    """Exact moments of the signed score sum by enumerating bit configurations.

    For each active distance delta, every (query bits, support bits) pair of
    irrelevant configurations is enumerated with its exact probability to get
    the per-row score moments; rows combine under the independence the closed
    forms assume.  This is the oracle that adjudicates the closed forms: any
    disagreement beyond float error means the closed form is wrong.
    """
    alpha, beta, r = params.alpha, params.beta_irrelevant, params.r
    if alpha > _MAX_ALPHA or beta > _MAX_BETA or r > _MAX_R:
        raise ValueError(
            f"enumeration bounds exceeded: need alpha <= {_MAX_ALPHA}, "
            f"beta <= {_MAX_BETA}, r <= {_MAX_R}"
        )
    m, mm = _bit_exponents(params.kernel)

    # Enumerate irrelevant-bit pairs once: all 2^beta x 2^beta (query,
    # support) configurations in row-major order, each configuration's
    # probability the left-to-right product of its bit factors.
    configs = np.arange(2**beta)
    bits = (configs[:, None] >> np.arange(beta)) & 1
    factors = np.ones((configs.shape[0], beta + 1))
    factors[:, 1:] = np.where(bits, params.p, 1.0 - params.p)
    prob = np.multiply.accumulate(factors, axis=1)[:, -1]
    weight = (prob[:, None] * prob).ravel()
    matches = beta - np.bitwise_count(configs[:, None] ^ configs).ravel()
    # the exponent g takes beta + 1 values, one per match count
    g = [k * m + (beta - k) * mm for k in range(beta + 1)]

    def pair_sum(exp_by_matches: list[float]) -> float:
        # accumulate adds in order, as the pairs were enumerated; np.sum would not
        return float(np.add.accumulate(weight * np.array(exp_by_matches)[matches])[-1])

    e1_bits = pair_sum([math.exp(v) for v in g])
    e2_bits = pair_sum([math.exp(2 * v) for v in g])

    mean = 0.0
    variance = 0.0
    bit_var = e2_bits - e1_bits * e1_bits  # exactly 0 when beta == 0
    f = _active_exponent(params.kernel, alpha, np.arange(alpha + 1)).tolist()
    for delta in range(alpha + 1):
        count = r * math.comb(alpha, delta)
        sign = -1.0 if delta % 2 else 1.0
        mean += sign * count * math.exp(f[delta]) * e1_bits
        variance += count * math.exp(2 * f[delta]) * bit_var
    return ScoreStats(mean=mean, variance=variance)


def mc_signed_sums(
    params: TheoryParams, trials: int, seed: int, tau_inv: float = 1.0
) -> np.ndarray:
    """Signed score sums from sampled tasks, one value per trial.

    Each trial draws a full support (every variant r times, irrelevant bits
    iid) and one query whose irrelevant bits are shared across all support
    comparisons, exactly as the task generator does.  The underlying bit
    draws depend only on (params sizes, seed), not on the kernel, so runs
    with different kernels on the same seed see identical bit patterns.
    The stream holds every support bit, then every query bit; the query bits
    come from a second generator on the same seed, advanced past the support
    draws.

    The trials run in blocks of at most _MC_BLOCK_DRAWS support uniforms
    (at least one trial), from the draws to the row sums, in buffers
    allocated once; only the (trials,) result grows with trials.  At
    alpha=4, beta=4, r=5 and 200,000 trials a call peaks at 3.1 MiB under
    tracemalloc, 1.5 MiB of it the result.  Each element goes through the
    same float operations as the one-shot formula
    sum(signs * exp(tau_inv * (f + k*m + (beta - k)*mm))) over k matching
    bits, so the values do not depend on the block size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_tau_inv(tau_inv)
    alpha, beta, r = params.alpha, params.beta_irrelevant, params.r

    # delta profile: the query's active pattern sits at distance delta from
    # r * C(alpha, delta) support rows regardless of which pattern it is.
    deltas = np.repeat(np.arange(alpha + 1), [math.comb(alpha, d) for d in range(alpha + 1)])
    deltas = np.tile(deltas, r)
    signs = np.where(deltas % 2 == 0, 1.0, -1.0)
    f = _active_exponent(params.kernel, alpha, deltas)
    m, mm = _bit_exponents(params.kernel)

    rows = deltas.shape[0]
    support_rng, query_rng = rng_for(seed), rng_for(seed)
    # each float64 uniform takes one 64-bit PCG64 output
    query_rng.bit_generator.advance(trials * rows * beta)
    block = min(trials, max(1, _MC_BLOCK_DRAWS // (rows * max(1, beta))))
    sup_draws, qry_draws = np.empty((block, rows, beta)), np.empty((block, 1, beta))
    sup_bits, qry_bits = np.empty(sup_draws.shape, bool), np.empty(qry_draws.shape, bool)
    matches, rest = np.empty((block, rows)), np.empty((block, rows))
    ones = np.ones(beta)
    sums = np.empty(trials)
    for start in range(0, trials, block):
        n = min(block, trials - start)
        sup = np.less(support_rng.random(out=sup_draws[:n]), params.p, out=sup_bits[:n])
        qry = np.less(query_rng.random(out=qry_draws[:n]), params.p, out=qry_bits[:n])
        # 1.0 where a support bit equals the query's, in the spent uniforms'
        # buffer; one product sums each row's integers, exactly
        same = np.equal(sup, qry, out=sup_draws[:n])
        k = matches[:n]
        np.matmul(same.reshape(n * rows, beta), ones, out=k.reshape(n * rows))
        # f + k*m + (beta - k)*mm, scaled by tau_inv, exp, signed, summed per row
        other = np.subtract(beta, k, out=rest[:n])
        other *= mm
        k *= m
        x = np.add(f, k, out=k)
        x += other
        x *= tau_inv
        np.exp(x, out=x)
        x *= signs
        np.sum(x, axis=1, out=sums[start : start + n])
    return sums


def mc_misclassification(
    params: TheoryParams, trials: int, seed: int, tau_inv: float = 1.0
) -> MCResult:
    """Monte-Carlo estimate of the signed-sum moments and failure rate.

    A trial misclassifies when its signed sum is <= 0 (ties count as
    failures).  With beta == 0 the sum is deterministic and positive, so the
    rate is exactly zero.
    """
    sums = mc_signed_sums(params, trials, seed, tau_inv)
    variance = float(np.var(sums, ddof=1)) if trials > 1 else 0.0
    return MCResult(
        mean=float(np.mean(sums)),
        variance=variance,
        misclass_rate=float(np.mean(sums <= 0.0)),
        trials=trials,
    )


def snr_growth(params: TheoryParams, betas) -> SnrGrowth:
    """sigma/mu across an irrelevant-feature range, with its log-linear slope.

    log(sigma/mu) is asymptotically linear in beta with slope
    0.5 * log(c2 / c1^2); the fitted slope is the least-squares slope of
    log(sigma/mu) on beta over the top half of the range (all of it below four
    points).  The fit uses only the finite, positive ratios; with fewer than
    two of those the slope is undefined and reads nan.
    """
    betas = tuple(int(b) for b in betas)
    if len(betas) < 2:
        raise ValueError("need at least two beta values")
    if len(set(betas)) != len(betas):
        raise ValueError(f"betas must not repeat a value, got {list(betas)}")
    ratios = []
    for beta in betas:
        stats = support_sum_stats(
            TheoryParams(params.alpha, beta, params.p, params.r, params.kernel)
        )
        if stats.mean <= 0:
            raise ValueError("signed-sum mean must be positive on the range")
        ratios.append(math.sqrt(stats.variance) / stats.mean)

    c1, c2 = _bit_moments(params)
    asymptotic = 0.5 * math.log(c2 / (c1 * c1))

    pts = [(b, math.log(x)) for b, x in zip(betas, ratios) if math.isfinite(x) and x > 0]
    if len(pts) < 2:
        fitted = math.nan
    else:
        tail = pts[len(pts) // 2 :] if len(pts) >= 4 else pts
        bs = np.array([b for b, _ in tail], dtype=np.float64)
        ls = np.array([v for _, v in tail], dtype=np.float64)
        fitted = float(np.polyfit(bs, ls, 1)[0])
    return SnrGrowth(
        betas=betas,
        ratios=tuple(ratios),
        fitted_slope=fitted,
        asymptotic_slope=asymptotic,
    )


def and_boundary(tau_inv: float, x) -> np.ndarray | float:
    """Closed-form equal-probability boundary of the four-corner AND task.

    For support (+1,+1) -> class 1 and the other three +-1 corners -> class
    0 under dot attention with sharpness tau_inv, the boundary is
    y = -log(tanh(tau_inv * x)) / (2 * tau_inv), defined for x > 0.
    """
    _check_tau_inv(tau_inv)
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError("boundary defined for x > 0 only")
    out = -np.log(np.tanh(tau_inv * arr)) / (2.0 * tau_inv)
    return float(out) if np.isscalar(x) else out
