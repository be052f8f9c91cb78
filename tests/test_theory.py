import itertools
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from polyselect import theory
from polyselect.core import Encoding, rng_for
from polyselect.kernels import AttentionConfig, Kernel, similarity_matrix
from polyselect.tasks import BooleanTaskSpec, gen_boolean_batch
from polyselect.theory import (
    ScoreStats,
    TheoryParams,
    and_boundary,
    exhaustive_stats,
    mc_misclassification,
    mc_signed_sums,
    pbar,
    qbar,
    snr_growth,
    support_sum_stats,
)

E = math.e


def _loop_exhaustive_stats(params: TheoryParams) -> ScoreStats:
    """Reference oracle: the (query bits, support bits) pairs as nested loops,
    each probability built bit by bit and each term added as it is reached."""
    alpha, beta, r = params.alpha, params.beta_irrelevant, params.r
    ap, am, m, mm = theory._exponents(params.kernel, alpha, beta)
    e1_bits = 0.0
    e2_bits = 0.0
    for q_bits in range(2**beta):
        pq = 1.0
        for j in range(beta):
            pq *= params.p if (q_bits >> j) & 1 else 1.0 - params.p
        for s_bits in range(2**beta):
            ps = 1.0
            for j in range(beta):
                ps *= params.p if (s_bits >> j) & 1 else 1.0 - params.p
            matches = beta - bin(q_bits ^ s_bits).count("1")
            g = matches * m + (beta - matches) * mm
            e1_bits += pq * ps * math.exp(g)
            e2_bits += pq * ps * math.exp(2 * g)

    mean = 0.0
    variance = 0.0
    bit_var = 0.0 if theory.qbar(params.p) == 0.0 else e2_bits - e1_bits * e1_bits
    for delta in range(alpha + 1):
        count = r * math.comb(alpha, delta)
        f = (alpha - delta) * ap + delta * am
        sign = -1.0 if delta % 2 else 1.0
        mean += sign * count * math.exp(f) * e1_bits
        variance += count * math.exp(2 * f) * bit_var
    return ScoreStats(mean=mean, variance=variance)


def _shared_query_var(params: TheoryParams) -> float:
    """Exact variance of the sampled signed sum, whose query shares its
    irrelevant bits with every support row.  Given the query's irrelevant
    weight w ~ Bin(beta, p) the rows are independent, so Var S is
    E_w[Var(S|w)] + Var_w(E[S|w])."""
    alpha, beta, p, r = params.alpha, params.beta_irrelevant, params.p, params.r
    ap, am, m, mm = theory._exponents(params.kernel, alpha, beta)
    # per irrelevant bit, E e^g (a) and E e^2g (b) given a query bit of 1 or 0
    a1, a0 = p * math.exp(m) + (1 - p) * math.exp(mm), (1 - p) * math.exp(m) + p * math.exp(mm)
    b1, b0 = p * math.exp(2 * m) + (1 - p) * math.exp(2 * mm), (1 - p) * math.exp(2 * m) + p * math.exp(2 * mm)
    signed = squared = 0.0
    for delta in range(alpha + 1):
        count = r * math.comb(alpha, delta)
        f = (alpha - delta) * ap + delta * am
        signed += (-1) ** delta * count * math.exp(f)
        squared += count * math.exp(2 * f)
    mean = second = within = 0.0
    for w in range(beta + 1):
        pw = math.comb(beta, w) * p**w * (1 - p) ** (beta - w)
        a, b = a1**w * a0 ** (beta - w), b1**w * b0 ** (beta - w)
        mean += pw * signed * a
        second += pw * (signed * a) ** 2
        within += pw * squared * (b - a * a)
    return within + second - mean * mean


def _variance_z(sums: np.ndarray, variance: float) -> float:
    """z of the sample variance against variance, its SE from the fourth moment."""
    n = sums.size
    s2 = float(np.var(sums, ddof=1))
    m4 = float(np.mean((sums - sums.mean()) ** 4))
    return (s2 - variance) / math.sqrt((m4 - s2 * s2 * (n - 3) / (n - 1)) / n)


def _reference_mc_signed_sums(params, trials, seed):
    """Reference sampler: the same draws, matches summed in one float64 reduction."""
    alpha, beta, r = params.alpha, params.beta_irrelevant, params.r
    rng = rng_for(seed)
    deltas = np.repeat(np.arange(alpha + 1), [math.comb(alpha, d) for d in range(alpha + 1)])
    deltas = np.tile(deltas, r)
    signs = np.where(deltas % 2 == 0, 1.0, -1.0)
    ap, am, m, mm = theory._exponents(params.kernel, alpha, beta)
    f = (alpha - deltas) * ap + deltas * am
    rows = deltas.shape[0]
    sup_bits = rng.random(size=(trials, rows, beta)) < params.p
    qry_bits = rng.random(size=(trials, 1, beta)) < params.p
    matches = np.sum(sup_bits == qry_bits, axis=2, dtype=np.float64)
    exponents = f[None, :] + matches * m + (beta - matches) * mm
    scores = np.exp(exponents)
    return np.sum(signs[None, :] * scores, axis=1)


def _brute_force_sign_probabilities(params: TheoryParams) -> tuple[Fraction, Fraction]:
    """Exact P(S < 0) and P(S = 0) of mc_signed_sums' dot-kernel model.

    Enumerates every irrelevant-bit configuration: one query's beta bits,
    shared by all r * 2^alpha support rows, and each row's own beta bits,
    each bit 1 with probability p (taken as the exact decimal).  A row at
    active distance delta with k matching irrelevant bits scores the dot
    product alpha - beta + 2(k - delta), so each configuration's signed rows
    are counted as integers per u = k - delta.  It is a tie iff every count
    is 0; no other counts cancel exactly, since e^2 is transcendental, and
    math.fsum takes the sign of the rest.
    """
    assert params.kernel is Kernel.DOT
    alpha, beta, r = params.alpha, params.beta_irrelevant, params.r
    p = Fraction(str(params.p))
    deltas = [d for _ in range(r) for d in range(alpha + 1) for _ in range(math.comb(alpha, d))]
    bits, mask = beta * (len(deltas) + 1), (1 << beta) - 1
    negative = tie = Fraction(0)
    for config in range(2**bits):
        ones = config.bit_count()
        weight = p**ones * (1 - p) ** (bits - ones)
        query = config & mask
        counts = Counter()
        for i, delta in enumerate(deltas):
            k = beta - (((config >> (beta * (i + 1))) & mask) ^ query).bit_count()
            counts[k - delta] += (-1) ** delta
        if not any(counts.values()):
            tie += weight
        elif math.fsum(c * math.exp(alpha - beta + 2 * u) for u, c in counts.items()) < 0:
            negative += weight
    return negative, tie


class TestPbar:
    def test_symmetric_minimum(self):
        assert pbar(0.5) == pytest.approx(0.5)

    def test_degenerate(self):
        assert pbar(0.0) == pytest.approx(1.0)
        assert pbar(1.0) == pytest.approx(1.0)

    def test_hand_value(self):
        assert pbar(0.3) == pytest.approx(0.58)
        assert qbar(0.3) == pytest.approx(0.42)


class TestSupportSumStats:
    def test_minimal_case(self):
        stats = support_sum_stats(TheoryParams(alpha=1, beta_irrelevant=0, p=0.5, r=1))
        assert stats.mean == pytest.approx(E - 1 / E, rel=1e-12)
        assert stats.variance == 0.0

    def test_linear_in_repetitions(self):
        base = support_sum_stats(TheoryParams(alpha=2, beta_irrelevant=3, p=0.4, r=1))
        scaled = support_sum_stats(TheoryParams(alpha=2, beta_irrelevant=3, p=0.4, r=3))
        assert scaled.mean == pytest.approx(3 * base.mean, rel=1e-12)
        assert scaled.variance == pytest.approx(3 * base.variance, rel=1e-12)

    def test_hand_value_alpha2_beta1(self):
        stats = support_sum_stats(TheoryParams(alpha=2, beta_irrelevant=1, p=0.5, r=1))
        manual = (E - 1 / E) ** 2 * (0.5 * E + 0.5 / E)
        assert stats.mean == pytest.approx(manual, rel=1e-12)
        assert manual == pytest.approx(8.52458136096252)

    def test_large_beta_stays_finite_or_inf(self):
        stats = support_sum_stats(TheoryParams(alpha=3, beta_irrelevant=400, p=0.5, r=1))
        assert stats.mean > 0 and np.isfinite(stats.mean)
        huge = support_sum_stats(TheoryParams(alpha=3, beta_irrelevant=2000, p=0.5, r=1))
        assert huge.variance == math.inf  # documented overflow to inf


class TestExhaustiveOracle:
    def test_matches_closed_form_without_noise(self):
        for alpha in (1, 2, 3):
            params = TheoryParams(alpha=alpha, beta_irrelevant=0, p=0.5, r=2)
            exact = exhaustive_stats(params)
            closed = support_sum_stats(params)
            assert exact.mean == pytest.approx(closed.mean, rel=1e-12)
            assert exact.variance == pytest.approx(0.0, abs=1e-9)

    def test_adjudicates_mean_formula(self):
        """The enumerated mean matches the (pbar e + qbar/e)^beta factor, and
        rejects the (pbar e^2 + qbar e^-2)^beta variant of the same formula."""
        params = TheoryParams(alpha=2, beta_irrelevant=1, p=0.5, r=1)
        exact = exhaustive_stats(params)
        adopted = support_sum_stats(params).mean
        pb, qb = pbar(0.5), qbar(0.5)
        rejected = (E - 1 / E) ** 2 * (pb * E**2 + qb * E**-2)
        assert exact.mean == pytest.approx(adopted, rel=1e-9)
        assert abs(exact.mean - rejected) / exact.mean > 0.5

    def test_variance_alpha1_beta2(self):
        params = TheoryParams(alpha=1, beta_irrelevant=2, p=0.3, r=1)
        exact = exhaustive_stats(params)
        closed = support_sum_stats(params)
        assert exact.variance == pytest.approx(closed.variance, rel=1e-9)

    @pytest.mark.parametrize("kernel", [Kernel.DOT, Kernel.COSINE, Kernel.SQ_EUCLIDEAN])
    def test_spot_grid_all_kernels(self, kernel):
        for (alpha, beta, p, r) in [(1, 2, 0.3, 1), (2, 3, 0.5, 2), (3, 1, 0.8, 1)]:
            params = TheoryParams(alpha, beta, p, r, kernel)
            exact = exhaustive_stats(params)
            closed = support_sum_stats(params)
            assert closed.mean == pytest.approx(exact.mean, rel=1e-9)
            assert closed.variance == pytest.approx(exact.variance, rel=1e-9)

    def test_laplace_aliases_sq_euclidean(self):
        a = support_sum_stats(TheoryParams(2, 2, 0.4, 1, Kernel.LAPLACE))
        b = support_sum_stats(TheoryParams(2, 2, 0.4, 1, Kernel.SQ_EUCLIDEAN))
        assert a == b

    def test_equals_loop_oracle_bit_for_bit(self):
        # r = 2 is left out to keep the loops short; r only scales counts.  p
        # also comes as other spellings of 0, 0.3 and 1, which must share the
        # pair cache's entries without changing a bit.
        ps = (0, 0.3, np.float64(0.3), 0.5, 0.8, 1.0, 1, -0.0, 0.0)
        grid = [
            TheoryParams(*point)
            for point in itertools.product(range(1, 5), range(7), ps, (1, 3), list(Kernel))
        ]
        want = [_loop_exhaustive_stats(params) for params in grid]
        # one enumeration per beta, distinct p and irrelevant exponent pair:
        # dot and cosine share theirs only at alpha + beta = 1, while laplace
        # and sq_euclidean always do
        keys = {
            (q.beta_irrelevant, float(q.p), *theory._exponents(q.kernel, q.alpha, q.beta_irrelevant)[2:])
            for q in grid
        }
        assert len(keys) <= theory._PAIR_CACHE_SIZE
        assert theory._pair_moments.cache_info().maxsize is not None
        # each direction starts from a cleared cache, so another spelling of 0,
        # 0.3 and 1 fills their keys, and later calls read them under other
        # (alpha, r, kernel)
        for order in (slice(None), slice(None, None, -1)):
            theory._pair_moments.cache_clear()
            for params, expected in zip(grid[order], want[order]):
                assert exhaustive_stats(params) == expected, params
            assert theory._pair_moments.cache_info().misses == len(keys)

    def test_no_variance_without_randomness(self):
        # at qbar(p) = 0 every row is deterministic: E[X^2] - E[X]^2 must leave no rounding residue
        grid = itertools.product(range(1, 5), range(7), (0.0, 1.0), (1, 2, 5), list(Kernel))
        variances = [exhaustive_stats(TheoryParams(*point)).variance for point in grid]
        assert len(variances) == 672
        assert all(v == 0.0 for v in variances)

    def test_enumeration_bounds(self):
        for alpha, beta in ((5, 0), (2, 7)):
            params = TheoryParams(alpha=alpha, beta_irrelevant=beta, p=0.5, r=1)
            with pytest.raises(ValueError, match="enumeration bounds exceeded"):
                exhaustive_stats(params)

    @pytest.mark.parametrize("kernel", [Kernel.DOT, Kernel.COSINE, Kernel.SQ_EUCLIDEAN])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    @pytest.mark.parametrize("r", [4, 10])
    def test_many_repetitions_match_closed_form(self, r, p, kernel):
        # r only scales each term, so no bound on r limits the oracle
        for alpha, beta in itertools.product(range(1, 5), (0, 3, 6)):
            params = TheoryParams(alpha, beta, p, r, kernel)
            exact = exhaustive_stats(params)
            closed = support_sum_stats(params)
            assert closed.mean == pytest.approx(exact.mean, rel=1e-9)
            assert closed.variance == pytest.approx(exact.variance, rel=1e-9)


class TestMonteCarlo:
    def test_noiseless_never_misclassifies(self):
        result = mc_misclassification(
            TheoryParams(alpha=3, beta_irrelevant=0, p=0.5, r=2), trials=2000, seed=1
        )
        assert result.misclass_rate == 0.0

    def test_mean_matches_analytic(self):
        params = TheoryParams(alpha=3, beta_irrelevant=4, p=0.5, r=2)
        result = mc_misclassification(params, trials=20_000, seed=2)
        analytic = support_sum_stats(params)
        se = math.sqrt(result.variance / result.trials)
        assert abs(result.mean - analytic.mean) <= 4 * se

    def test_variance_matches_at_symmetric_p(self):
        # sharing the query's noise bits across rows is exactly neutral at p=0.5
        for beta in (2, 4, 6):
            params = TheoryParams(alpha=2, beta_irrelevant=beta, p=0.5, r=2)
            result = mc_misclassification(params, trials=20_000, seed=3)
            analytic = support_sum_stats(params)
            assert abs(result.variance - analytic.variance) / analytic.variance < 0.10

    @pytest.mark.parametrize("alpha, beta, p, r", [(2, 6, 0.1, 1), (3, 4, 0.3, 2)])
    def test_variance_matches_shared_query_oracle(self, alpha, beta, p, r):
        # mc_var describes the sampled model; the printed analytic_var the
        # independent-row one, which the same gate rejects at p != 0.5
        params = TheoryParams(alpha, beta, p, r)
        sums = mc_signed_sums(params, trials=400_000, seed=17)
        assert abs(_variance_z(sums, _shared_query_var(params))) <= 4
        assert abs(_variance_z(sums, support_sum_stats(params).variance)) > 4

    @pytest.mark.parametrize("kernel", [Kernel.DOT, Kernel.COSINE, Kernel.SQ_EUCLIDEAN])
    def test_shared_query_oracle_is_analytic_at_symmetric_p(self, kernel):
        for alpha, beta, r in [(1, 3, 1), (2, 4, 2), (3, 6, 3)]:
            params = TheoryParams(alpha, beta, 0.5, r, kernel)
            analytic = support_sum_stats(params).variance
            assert _shared_query_var(params) == pytest.approx(analytic, rel=1e-12)

    def test_rate_grows_with_noise(self):
        rates = []
        for beta in (0, 2, 4, 6, 8):
            params = TheoryParams(alpha=3, beta_irrelevant=beta, p=0.5, r=2)
            result = mc_misclassification(params, trials=20_000, seed=4)
            rates.append((result.misclass_rate, result.trials))
        for (lo, n_lo), (hi, n_hi) in zip(rates, rates[1:]):
            slack = 2 * math.sqrt(max(hi * (1 - hi), 1e-9) / n_hi)
            assert hi >= lo - slack

    def test_rate_shrinks_with_repetitions(self):
        p_lo = mc_misclassification(
            TheoryParams(alpha=3, beta_irrelevant=4, p=0.5, r=1), trials=20_000, seed=5
        )
        p_hi = mc_misclassification(
            TheoryParams(alpha=3, beta_irrelevant=4, p=0.5, r=10), trials=20_000, seed=5
        )
        slack = 2 * math.sqrt(p_lo.misclass_rate * (1 - p_lo.misclass_rate) / p_lo.trials)
        assert p_hi.misclass_rate <= p_lo.misclass_rate + slack

    @pytest.mark.parametrize("kernel", list(Kernel))
    @pytest.mark.parametrize(
        "alpha, beta, p, r, trials",
        [(3, 0, 0.5, 2, 50), (2, 3, 0.0, 1, 200), (2, 3, 1.0, 2, 200), (3, 4, 0.4, 2, 500),
         (1, 300, 0.95, 1, 40)],
    )
    def test_signed_sums_equal_reference(self, kernel, alpha, beta, p, r, trials):
        # beta = 300 at p = 0.95 gives about 270 matches, past a uint8 counter
        params = TheoryParams(alpha, beta, p, r, kernel)
        got = mc_signed_sums(params, trials=trials, seed=11)
        assert np.array_equal(got, _reference_mc_signed_sums(params, trials, seed=11))

    @pytest.mark.parametrize("block_draws", [1, 100, 1000, 4097])
    @pytest.mark.parametrize(
        "alpha, beta, p, r, trials", [(3, 0, 0.5, 2, 50), (3, 4, 0.4, 2, 500), (1, 300, 0.95, 1, 40)]
    )
    def test_blocked_draws_equal_reference(self, monkeypatch, block_draws, alpha, beta, p, r, trials):
        # blocks from one trial to the whole run; beta 0 at 100 draws, beta 4 at
        # 1000 and 4097, and beta 300 at 4097 end in a partial block
        monkeypatch.setattr(theory, "_MC_BLOCK_DRAWS", block_draws)
        for kernel in [Kernel.DOT, Kernel.COSINE, Kernel.SQ_EUCLIDEAN]:
            params = TheoryParams(alpha, beta, p, r, kernel)
            got = mc_signed_sums(params, trials=trials, seed=11)
            assert np.array_equal(got, _reference_mc_signed_sums(params, trials, seed=11)), kernel

    @pytest.mark.parametrize("beta", [4, 0])
    def test_memory_does_not_grow_with_trials(self, beta):
        # 200,000 trials x 80 rows: one (trials, rows) float64 temporary alone is 128 MB
        params = TheoryParams(alpha=4, beta_irrelevant=beta, p=0.5, r=5)
        tracemalloc.start()
        try:
            sums = mc_signed_sums(params, trials=200_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sums.shape == (200_000,)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "alpha, beta, r, p, negative, tie",
        [
            (2, 2, 1, 0.5, Fraction(5, 16), Fraction(7, 64)),
            (1, 2, 1, 0.5, Fraction(1, 16), Fraction(1, 4)),
            (2, 1, 2, 0.5, Fraction(19, 128), Fraction(3, 128)),
            (2, 2, 1, 0.3, Fraction(1765491, 6250000), Fraction(2698479, 25000000)),
            (3, 1, 1, 0.5, Fraction(11, 32), Fraction(9, 256)),
        ],
    )
    def test_rate_within_brute_force_bracket(self, alpha, beta, r, p, negative, tie):
        # an exact tie may round to either side of 0.0, so the rate lies between
        # P(S < 0) and P(S <= 0); at alpha = 1 every tie is one pair of equal
        # terms, exactly 0.0, and the rate is P(S <= 0)
        params = TheoryParams(alpha, beta, p, r)
        below, at = _brute_force_sign_probabilities(params)
        assert (below, at) == (negative, tie)
        trials = 20_000
        rate = mc_misclassification(params, trials=trials, seed=0).misclass_rate
        lo, hi = float(below), float(below + at)
        assert lo - 4 * math.sqrt(lo * (1 - lo) / trials) <= rate <= hi + 4 * math.sqrt(hi * (1 - hi) / trials)
        if alpha == 1:
            assert abs(rate - hi) <= 4 * math.sqrt(hi * (1 - hi) / trials)

    @pytest.mark.parametrize("beta", [0, 1, 3, 6])
    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_dot_and_sq_euclidean_agree_on_shared_draws(self, beta, p):
        """At alpha = 1, r = 1 the support holds one row at distance 0 and one at
        distance 1, with k0 and k1 matching irrelevant bits.  Dot's sum is
        e^(1 + 2 k0 - beta) - e^(-1 + 2 k1 - beta) and sq_euclidean's is
        e^(k0 - beta) - e^(k1 - 1 - beta): both are > 0 iff k0 >= k1 and exactly
        0 iff k1 = k0 + 1, so on the same draws their signs (0 at a tie) agree in
        every trial."""
        dot = TheoryParams(alpha=1, beta_irrelevant=beta, p=p, r=1, kernel=Kernel.DOT)
        l2 = TheoryParams(alpha=1, beta_irrelevant=beta, p=p, r=1, kernel=Kernel.SQ_EUCLIDEAN)
        sums_dot = mc_signed_sums(dot, trials=5000, seed=6)
        sums_l2 = mc_signed_sums(l2, trials=5000, seed=6)
        np.testing.assert_array_equal(np.sign(sums_dot), np.sign(sums_l2))


def _kernel_signed_sum_means(kernel: Kernel, beta: int, tasks: int) -> np.ndarray:
    """Per task, the mean over its queries of the signed sum of exp(kernel
    score) that the package's own kernel gives: + for a support row of the
    query's class, - for one of the other class.  The stack holds the tasks
    gen_boolean_task makes at seeds 0..tasks-1."""
    encoding = Encoding.ZERO_ONE if kernel in (Kernel.SQ_EUCLIDEAN, Kernel.LAPLACE) else Encoding.PLUS_MINUS
    spec = BooleanTaskSpec(3 + beta, 3, p=0.5, r=2, encoding=encoding)
    stack, _ = gen_boolean_batch(spec, range(tasks))
    config = AttentionConfig(kind=kernel)
    scores = np.exp(similarity_matrix(config, stack.query.features, stack.support.features))
    signs = np.where(stack.query.labels[..., :, None] == stack.support.labels[..., None, :], 1.0, -1.0)
    return np.mean(np.sum(signs * scores, axis=-1), axis=-1)


class TestKernelModel:
    """The closed-form mean describes the package's own kernels, each on its
    natural encoding, with no reference to theory's exponent table."""

    @pytest.mark.parametrize("kernel", list(Kernel))
    def test_mean_matches_kernel_monte_carlo(self, kernel):
        for beta in (0, 4):
            means = _kernel_signed_sum_means(kernel, beta, tasks=1500)
            analytic = support_sum_stats(TheoryParams(3, beta, 0.5, 2, kernel)).mean
            if beta == 0:
                # every query meets each active pattern r times: the sum is fixed
                np.testing.assert_allclose(means, analytic, rtol=1e-12)
            else:
                se = np.std(means, ddof=1) / math.sqrt(means.size)
                assert abs(means.mean() - analytic) <= 4 * se, (means.mean(), se, analytic)

    def test_every_kernel_has_a_row(self):
        assert set(theory._EXPONENTS) == set(Kernel)
        params = TheoryParams(alpha=3, beta_irrelevant=0, p=0.5, r=2)
        slopes = {
            kernel: snr_growth(replace(params, kernel=kernel), (1, 2)).asymptotic_slope
            for kernel in Kernel
        }
        assert slopes == {
            Kernel.DOT: 0.22872054319590504,
            Kernel.COSINE: 0.0,
            Kernel.SQ_EUCLIDEAN: 0.09677590828323616,
            Kernel.LAPLACE: 0.09677590828323616,
        }


class TestMeanPositivity:
    def test_signed_sum_mean_positive_everywhere(self):
        """The correct class wins on average for every parameter setting."""
        import itertools

        for alpha, beta, p, r, kernel in itertools.product(
            (1, 2, 4, 6), (0, 3, 10), (0.0, 0.3, 0.5, 0.9), (1, 5),
            (Kernel.DOT, Kernel.COSINE, Kernel.SQ_EUCLIDEAN),
        ):
            stats = support_sum_stats(TheoryParams(alpha, beta, p, r, kernel))
            assert stats.mean > 0
            assert stats.variance >= 0


class TestSnrGrowth:
    def test_variance_base_exceeds_squared_mean_base(self):
        for p in np.linspace(0.0, 1.0, 101):
            pb, qb = pbar(p), qbar(p)
            c = pb * E + qb / E
            d = pb * E**2 + qb * E**-2
            if qb == 0.0:
                assert d == pytest.approx(c * c)
            else:
                assert d > c * c

    def test_ratio_strictly_increasing(self):
        growth = snr_growth(TheoryParams(alpha=3, beta_irrelevant=0, p=0.5, r=5), range(1, 12))
        assert all(b > a for a, b in zip(growth.ratios, growth.ratios[1:]))

    def test_fitted_slope_approaches_asymptote(self):
        growth = snr_growth(TheoryParams(alpha=3, beta_irrelevant=0, p=0.5, r=5), range(4, 24))
        assert growth.fitted_slope == pytest.approx(growth.asymptotic_slope, rel=0.02)

    def test_fitted_slope_does_not_depend_on_beta_order(self):
        # the fit takes the larger betas, wherever they stand in the list
        params = TheoryParams(alpha=3, beta_irrelevant=0, p=0.5, r=2)
        betas = [1, 2, 3, 20, 30, 40]
        want = snr_growth(params, betas)
        for order in ([30, 1, 40, 3, 20, 2], betas[::-1]):
            growth = snr_growth(params, order)
            assert growth.fitted_slope.hex() == want.fitted_slope.hex()
            assert growth.ratios == tuple(want.ratios[betas.index(b)] for b in order)

    def test_degenerate_noise_gives_zero_ratio(self):
        growth = snr_growth(TheoryParams(alpha=2, beta_irrelevant=0, p=0.0, r=1), (1, 2, 3))
        assert all(r == 0.0 for r in growth.ratios)
        for p, kernel in itertools.product((0.0, 1.0), Kernel):
            assert snr_growth(TheoryParams(2, 0, p, 1, kernel), (1, 2)).asymptotic_slope == 0.0

    @pytest.mark.parametrize(
        "p, betas",
        [
            (0.0, (1, 2, 3)),  # every ratio is 0
            (0.5, (0, 2000, 3000)),  # 0, then nan once the mean overflows
            (0.5, (0, 1, 2000)),  # a single finite positive ratio
        ],
    )
    def test_slope_without_two_finite_positive_ratios_is_nan(self, p, betas):
        growth = snr_growth(TheoryParams(alpha=3, beta_irrelevant=0, p=p, r=2), betas)
        assert sum(math.isfinite(x) and x > 0 for x in growth.ratios) < 2
        assert math.isnan(growth.fitted_slope)
        assert math.isfinite(growth.asymptotic_slope)


class TestAndBoundary:
    def test_far_field_approaches_zero(self):
        assert and_boundary(1.0, 20.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_probability_crossing_by_bisection(self):
        # independent root-find on p1 - p0 along vertical lines
        from polyselect.kernels import AttentionConfig, attend_probs
        from test_kernels import and_support

        support = and_support()

        def gap(x, y):
            probs = attend_probs(np.array([[x, y]]), support, AttentionConfig())
            return probs[0, 1] - probs[0, 0]

        for x in (0.5, 1.0, 2.0):
            lo, hi = -5.0, 5.0
            for _ in range(80):
                mid = (lo + hi) / 2
                if gap(x, mid) > 0:
                    hi = mid
                else:
                    lo = mid
            assert and_boundary(1.0, x) == pytest.approx((lo + hi) / 2, abs=1e-6)

    def test_temperature_rescaling_identity(self):
        for x in (0.3, 1.0, 2.5):
            assert and_boundary(2.0, x) == pytest.approx(0.5 * and_boundary(1.0, 2 * x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            and_boundary(1.0, 0.0)
        with pytest.raises(ValueError):
            and_boundary(-1.0, 1.0)

    @pytest.mark.parametrize("tau_inv", [math.nan, math.inf, 0.0])
    def test_rejects_bad_tau_inv(self, tau_inv):
        with pytest.raises(ValueError, match="tau_inv"):
            and_boundary(tau_inv, np.array([0.5, 1.0]))


_PARAMS = TheoryParams(alpha=3, beta_irrelevant=0, p=0.5, r=2)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: TheoryParams(alpha=0, beta_irrelevant=0, p=0.5, r=1), "alpha must be >= 1"),
        (lambda: TheoryParams(alpha=1, beta_irrelevant=-1, p=0.5, r=1), "beta_irrelevant must be >= 0"),
        (lambda: TheoryParams(alpha=1, beta_irrelevant=0, p=1.5, r=1), "p must lie in [0, 1]"),
        (lambda: TheoryParams(alpha=1, beta_irrelevant=0, p=0.5, r=0), "r must be >= 1"),
        (lambda: mc_signed_sums(_PARAMS, trials=0, seed=0), "trials must be >= 1"),
        (lambda: snr_growth(_PARAMS, [3]), "need at least two beta values"),
        (lambda: snr_growth(_PARAMS, [1, 1]), "betas must not repeat a value, got [1, 1]"),
        (lambda: snr_growth(_PARAMS, [0, 2, 0, 4]), "betas must not repeat a value, got [0, 2, 0, 4]"),
    ],
)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
