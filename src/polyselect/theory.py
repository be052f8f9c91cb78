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
the (query-bit, support-bit) configurations, once per (beta, p, per-bit
exponents m, mm) per process, and mc_misclassification
samples full tasks instead (where one query shares its irrelevant bits
across all support rows, which leaves the mean unchanged but perturbs the
variance when p != 0.5).

On its natural encoding every kernel's score is a sum of per-bit exponents
(a+, a-, m, mm): an active bit that matches or differs, then an irrelevant
bit that matches or differs.

    dot            +-1 rows    (1, -1, 1, -1)
    cosine         +-1 rows    (1, -1, 1, -1) / (alpha + beta)
    sq_euclidean   0/1 rows    (0, -1, 0, -1)
    laplace        0/1 rows    (0, -1, 0, -1)

Cosine divides by the row norms, and two +-1 rows of alpha + beta features
have norm product alpha + beta, so its row is the kernel's own score.  A
row at active distance delta has exponent (alpha - delta) a+ + delta a-
plus its irrelevant bits' m or mm each.  At alpha=3, beta=4, r=2, p=0.5 a
Monte-Carlo of the kernels' own signed sums over 1,500 generated tasks
lands within 1.04 standard errors of the closed-form mean for every kernel
(cosine: 0.0499 +- 0.0055 against 0.0491), and at beta = 0 within 1e-12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import _require_indexable, rng_for
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

# Enumeration bounds for the exhaustive oracle.  Alpha bounds accuracy: the signed
# sum cancels, so its relative error against a 60-digit value (cosine, beta=6,
# p=0.3, r=2) grows from 2.1e-13 at alpha=4 to 4.3e-8 at 8 and 2.8e-2 at 12.
# Beta bounds cost: 4^beta pairs per key.
_MAX_ALPHA = 4
_MAX_BETA = 6

# (beta, p, m, mm) keys whose pair moments a process keeps: the beta bound
# gives 7 betas per (p, kernel exponents), and an entry is two floats.
_PAIR_CACHE_SIZE = 256

# exp overflows float64 near 709, so closed forms switch to log space; values
# whose log exceeds this still overflow to inf on conversion.
_EXP_OVERFLOW = 709.0

# Support uniforms per block of mc_signed_sums trials: 2^16 float64 (512 KiB),
# sized to stay in L2.  A block's temporaries then peak near 1.6 MiB (unless
# one trial alone needs more uniforms) besides the call's (trials,) output.
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
    ratios: tuple[float, ...]
    fitted_slope: float
    asymptotic_slope: float


def pbar(p: float) -> float:
    """Probability two independent Bernoulli(p) bits agree: p^2 + (1-p)^2."""
    return p * p + (1.0 - p) * (1.0 - p)


def qbar(p: float) -> float:
    """Complement of pbar: probability two independent bits disagree."""
    return 1.0 - pbar(p)


# Per-bit exponents (a+, a-, m, mm) of each kernel, as in the module docstring.
_EXPONENTS = {
    Kernel.DOT: (1.0, -1.0, 1.0, -1.0),
    Kernel.COSINE: (1.0, -1.0, 1.0, -1.0),
    Kernel.SQ_EUCLIDEAN: (0.0, -1.0, 0.0, -1.0),
    Kernel.LAPLACE: (0.0, -1.0, 0.0, -1.0),
}


def _exponents(kernel: Kernel, alpha: int, beta: float) -> tuple[float, float, float, float]:
    """The kernel's (a+, a-, m, mm) with alpha active and beta irrelevant bits.

    beta = math.inf gives the limit, where cosine's row is all zeros.
    """
    row = _EXPONENTS[kernel]
    if kernel is Kernel.COSINE:
        return tuple(e / (alpha + beta) for e in row)
    return row


def _bit_moments(p: float, m: float, mm: float) -> tuple[float, float]:
    """(c1, c2): mean of e^g and of e^(2g) for one irrelevant bit's exponent g."""
    pb, qb = pbar(p), qbar(p)
    return pb * math.exp(m) + qb * math.exp(mm), pb * math.exp(2 * m) + qb * math.exp(2 * mm)


def _log_gap(beta: int, c1: float, c2: float) -> float:
    """log(c2^beta - c1^(2 beta)); c2 > c1^2 by Jensen whenever qbar > 0."""
    return beta * math.log(c2) + math.log1p(-math.exp(beta * (2 * math.log(c1) - math.log(c2))))


def support_sum_stats(params: TheoryParams) -> ScoreStats:
    """Mean and variance of the signed score sum over the whole support.

    mean = r * base1 * c1^beta and variance = r * base2 * (c2^beta -
    c1^(2 beta)), computed in log space so large beta degrades to inf rather
    than raising.  Summed over the binomially-weighted deltas, the active
    exponents give base1 = (e^a+ - e^a-)^alpha and base2 = (e^2a+ +
    e^2a-)^alpha.
    """
    alpha, beta = params.alpha, params.beta_irrelevant
    ap, am, m, mm = _exponents(params.kernel, alpha, beta)
    base1 = (math.exp(ap) - math.exp(am)) ** alpha
    base2 = (math.exp(2 * ap) + math.exp(2 * am)) ** alpha
    c1, c2 = _bit_moments(params.p, m, mm)

    log_mean = math.log(params.r) + math.log(base1) + beta * math.log(c1)
    mean = math.exp(log_mean) if log_mean <= _EXP_OVERFLOW else math.inf

    if beta == 0 or qbar(params.p) == 0.0:
        return ScoreStats(mean=mean, variance=0.0)
    log_var = math.log(params.r) + math.log(base2) + _log_gap(beta, c1, c2)
    variance = math.exp(log_var) if log_var <= _EXP_OVERFLOW else math.inf
    return ScoreStats(mean=mean, variance=variance)


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE)
def _pair_moments(beta: int, p: float, m: float, mm: float) -> tuple[float, float]:
    """(E e^g, E e^(2g)) of one support row's irrelevant exponent g, exactly.

    All 2^beta x 2^beta (query, support) configurations are enumerated in
    row-major order, each configuration's probability the left-to-right
    product of its bit factors, and each moment is summed in that order.
    """
    configs = np.arange(2**beta)
    bits = (configs[:, None] >> np.arange(beta)) & 1
    factors = np.ones((configs.shape[0], beta + 1))
    factors[:, 1:] = np.where(bits, p, 1.0 - p)
    prob = np.multiply.accumulate(factors, axis=1)[:, -1]
    weight = (prob[:, None] * prob).ravel()
    matches = beta - np.bitwise_count(configs[:, None] ^ configs).ravel()
    # the exponent g takes beta + 1 values, one per match count
    g = [k * m + (beta - k) * mm for k in range(beta + 1)]

    def pair_sum(exp_by_matches: list[float]) -> float:
        # accumulate adds in order, as the pairs were enumerated; np.sum would not
        return float(np.add.accumulate(weight * np.array(exp_by_matches)[matches])[-1])

    return pair_sum([math.exp(v) for v in g]), pair_sum([math.exp(2 * v) for v in g])


def exhaustive_stats(params: TheoryParams) -> ScoreStats:
    """Exact moments of the signed score sum by enumerating bit configurations.

    For each active distance delta, every (query bits, support bits) pair of
    irrelevant configurations is enumerated with its exact probability to get
    the per-row score moments; rows combine under the independence the closed
    forms assume.  This is the oracle that adjudicates the closed forms: any
    disagreement beyond float error means the closed form is wrong.

    The enumeration depends only on (beta, p, the kernel's per-bit
    exponents), so it runs once per such key per process (_pair_moments);
    each call then combines the cached pair moments over alpha, r and the
    active exponents.
    """
    alpha, beta, r = params.alpha, params.beta_irrelevant, params.r
    if alpha > _MAX_ALPHA or beta > _MAX_BETA:
        raise ValueError(
            f"enumeration bounds exceeded: need alpha <= {_MAX_ALPHA}, beta <= {_MAX_BETA}"
        )
    # float(p): keys that compare equal (0, 0.0, np.float64(0)) must give equal bits
    ap, am, m, mm = _exponents(params.kernel, alpha, beta)
    e1_bits, e2_bits = _pair_moments(beta, float(params.p), m, mm)

    mean = 0.0
    variance = 0.0
    # exactly 0 when beta == 0; at qbar(p) == 0 the difference would leave a rounding residue
    bit_var = 0.0 if qbar(params.p) == 0.0 else e2_bits - e1_bits * e1_bits
    for delta in range(alpha + 1):
        count = r * math.comb(alpha, delta)
        sign = -1.0 if delta % 2 else 1.0
        f = (alpha - delta) * ap + delta * am
        mean += sign * count * math.exp(f) * e1_bits
        variance += count * math.exp(2 * f) * bit_var
    return ScoreStats(mean=mean, variance=variance)


def mc_signed_sums(params: TheoryParams, trials: int, seed: int) -> np.ndarray:
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
    (at least one trial), each block allocating its own temporaries from the
    draws to the row sums; only the (trials,) result grows with trials.  At
    alpha=4, r=5 and 200,000 trials a first call peaks under tracemalloc at
    3.1 MiB with beta=4 and 3.8 MiB with beta=0, 1.5 MiB of it the result.
    Each element goes through the same float operations as the one-shot
    formula sum(signs * exp(f + k*m + (beta - k)*mm)) over k matching bits,
    so the values do not depend on the block size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    alpha, beta, r = params.alpha, params.beta_irrelevant, params.r
    what = f"alpha={alpha}, r={r}, beta={beta}: a trial's r * 2^alpha x max(beta, 1) draw buffer"
    _require_indexable(alpha, r, 0, max(beta, 1), what)

    # delta profile: the query's active pattern sits at distance delta from
    # r * C(alpha, delta) support rows regardless of which pattern it is.
    try:
        deltas = np.repeat(np.arange(alpha + 1), [math.comb(alpha, d) for d in range(alpha + 1)])
    except MemoryError as exc:  # numpy can index it, the machine cannot hold it
        raise MemoryError(f"{what} cannot be allocated") from exc
    deltas = np.tile(deltas, r)
    signs = np.where(deltas % 2 == 0, 1.0, -1.0)
    ap, am, m, mm = _exponents(params.kernel, alpha, beta)
    f = (alpha - deltas) * ap + deltas * am

    rows = deltas.shape[0]
    support_rng, query_rng = rng_for(seed), rng_for(seed)
    # each float64 uniform takes one 64-bit PCG64 output
    query_rng.bit_generator.advance(trials * rows * beta)
    block = min(trials, max(1, _MC_BLOCK_DRAWS // (rows * max(1, beta))))
    ones = np.ones(beta)
    sums = np.empty(trials)
    for start in range(0, trials, block):
        n = min(block, trials - start)
        sup = support_rng.random((n, rows, beta)) < params.p
        qry = query_rng.random((n, 1, beta)) < params.p
        # one product sums each row's matching bits, exactly
        k = ((sup == qry).reshape(n * rows, beta) @ ones).reshape(n, rows)
        sums[start : start + n] = (np.exp(f + k * m + (beta - k) * mm) * signs).sum(axis=1)
    return sums


def mc_misclassification(params: TheoryParams, trials: int, seed: int) -> MCResult:
    """Monte-Carlo estimate of the signed-sum moments and failure rate.

    A trial fails when its float signed sum is <= 0, so an exact tie (row
    counts that cancel at every exponent value) may round to either side:
    at alpha=2, beta=2, r=1, p=0.5, P(S<0) = 5/16 and counting every tie
    gives 27/64 = 0.4219, but 200,000 trials at seed 0 give 0.4059 (see
    ROADMAP.md on exact ties).  test_rate_within_brute_force_bracket in
    tests/test_theory.py holds the rate between those two by brute force.
    With beta == 0 the sum is deterministic and positive: the rate is 0.
    """
    sums = mc_signed_sums(params, trials, seed)
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
    0.5 * log(c2 / c1^2), the per-bit moments of the kernel's row in the
    limit beta -> inf: 0 for cosine, whose per-bit exponents vanish there, so
    that its ratio grows slower than any exponential.  The fitted slope is the least-squares slope of
    log(sigma/mu) on beta over the larger half of the betas, in any order
    (all of them below four points).  A beta whose mean underflows to 0 gets
    a nan ratio.  The fit uses only the finite, positive ratios; with fewer
    than two of those the slope is undefined and reads nan.  ratios follow
    the order of betas.
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
        # checked first: 0.0 / 0.0 raises ZeroDivisionError
        ratios.append(math.sqrt(stats.variance) / stats.mean if stats.mean > 0 else math.nan)

    c1, c2 = _bit_moments(params.p, *_exponents(params.kernel, params.alpha, math.inf)[2:])
    asymptotic = 0.0 if qbar(params.p) == 0.0 else 0.5 * math.log(c2 / (c1 * c1))

    pts = sorted((b, math.log(x)) for b, x in zip(betas, ratios) if math.isfinite(x) and x > 0)
    if len(pts) < 2:
        fitted = math.nan
    else:
        tail = pts[len(pts) // 2 :] if len(pts) >= 4 else pts
        bs = np.array([b for b, _ in tail], dtype=np.float64)
        ls = np.array([v for _, v in tail], dtype=np.float64)
        fitted = float(np.polyfit(bs, ls, 1)[0])
    return SnrGrowth(ratios=tuple(ratios), fitted_slope=fitted, asymptotic_slope=asymptotic)


def and_boundary(tau_inv: float, x) -> np.ndarray | float:
    """Closed-form equal-probability boundary of the four-corner AND task.

    For support (+1,+1) -> class 1 and the other three +-1 corners -> class
    0 under dot attention with sharpness tau_inv, the boundary is
    y = -log(tanh(tau_inv * x)) / (2 * tau_inv), defined for x > 0.
    """
    if not math.isfinite(tau_inv) or tau_inv <= 0:
        raise ValueError(f"tau_inv must be positive and finite, got {tau_inv}")
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError("boundary defined for x > 0 only")
    out = -np.log(np.tanh(tau_inv * arr)) / (2.0 * tau_inv)
    return float(out) if np.isscalar(x) else out
