import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from polyselect import theory
from polyselect.core import rng_for
from polyselect.kernels import Kernel
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
    m, mm = theory._bit_exponents(params.kernel)
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
    bit_var = e2_bits - e1_bits * e1_bits
    for delta in range(alpha + 1):
        count = r * math.comb(alpha, delta)
        f = float(theory._active_exponent(params.kernel, alpha, delta))
        sign = -1.0 if delta % 2 else 1.0
        mean += sign * count * math.exp(f) * e1_bits
        variance += count * math.exp(2 * f) * bit_var
    return ScoreStats(mean=mean, variance=variance)


def _reference_mc_signed_sums(params, trials, seed, tau_inv=1.0):
    """Reference sampler: the same draws, matches summed in one float64 reduction."""
    alpha, beta, r = params.alpha, params.beta_irrelevant, params.r
    rng = rng_for(seed)
    deltas = np.repeat(np.arange(alpha + 1), [math.comb(alpha, d) for d in range(alpha + 1)])
    deltas = np.tile(deltas, r)
    signs = np.where(deltas % 2 == 0, 1.0, -1.0)
    f = theory._active_exponent(params.kernel, alpha, deltas)
    rows = deltas.shape[0]
    sup_bits = rng.random(size=(trials, rows, beta)) < params.p
    qry_bits = rng.random(size=(trials, 1, beta)) < params.p
    matches = np.sum(sup_bits == qry_bits, axis=2, dtype=np.float64)
    m, mm = theory._bit_exponents(params.kernel)
    exponents = f[None, :] + matches * m + (beta - matches) * mm
    scores = np.exp(tau_inv * exponents)
    return np.sum(signs[None, :] * scores, axis=1)


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
        # r = 2 is left out to keep the loops under 2 s; r only scales counts
        grid = itertools.product(
            range(1, 5), range(7), (0.0, 0.3, 0.5, 0.8, 1.0), (1, 3), list(Kernel)
        )
        for alpha, beta, p, r, kernel in grid:
            params = TheoryParams(alpha, beta, p, r, kernel)
            assert exhaustive_stats(params) == _loop_exhaustive_stats(params), params

    def test_enumeration_bounds(self):
        with pytest.raises(ValueError):
            exhaustive_stats(TheoryParams(alpha=5, beta_irrelevant=0, p=0.5, r=1))
        with pytest.raises(ValueError):
            exhaustive_stats(TheoryParams(alpha=2, beta_irrelevant=7, p=0.5, r=1))
        with pytest.raises(ValueError):
            exhaustive_stats(TheoryParams(alpha=2, beta_irrelevant=2, p=0.5, r=4))


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
        for tau_inv in (1.0, 0.5):
            got = mc_signed_sums(params, trials=trials, seed=11, tau_inv=tau_inv)
            want = _reference_mc_signed_sums(params, trials, seed=11, tau_inv=tau_inv)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("block_draws", [1, 100, 1000, 4097])
    @pytest.mark.parametrize(
        "alpha, beta, p, r, trials", [(3, 0, 0.5, 2, 50), (3, 4, 0.4, 2, 500), (1, 300, 0.95, 1, 40)]
    )
    def test_blocked_draws_equal_reference(self, monkeypatch, block_draws, alpha, beta, p, r, trials):
        # blocks from one trial to the whole run; beta 0 at 100 draws, beta 4 at
        # 1000 and 4097, and beta 300 at 4097 end in a partial block
        monkeypatch.setattr(theory, "_MC_BLOCK_DRAWS", block_draws)
        for kernel, tau_inv in itertools.product(
            [Kernel.DOT, Kernel.COSINE, Kernel.SQ_EUCLIDEAN], [1.0, 0.7]
        ):
            params = TheoryParams(alpha, beta, p, r, kernel)
            got = mc_signed_sums(params, trials=trials, seed=11, tau_inv=tau_inv)
            want = _reference_mc_signed_sums(params, trials, seed=11, tau_inv=tau_inv)
            assert np.array_equal(got, want), (kernel, tau_inv)

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

    @pytest.mark.parametrize("tau_inv", [math.nan, math.inf, 0.0, -1.0])
    def test_signed_sums_reject_bad_tau_inv(self, tau_inv):
        params = TheoryParams(alpha=2, beta_irrelevant=2, p=0.5, r=1)
        with pytest.raises(ValueError, match="tau_inv"):
            mc_signed_sums(params, trials=10, seed=0, tau_inv=tau_inv)

    @pytest.mark.parametrize("tau_inv", [math.nan, math.inf, 0.0, -1.0])
    def test_misclassification_rejects_bad_tau_inv(self, tau_inv):
        # NaN sums would read as a misclass_rate of 0.0, a perfect classifier
        params = TheoryParams(alpha=2, beta_irrelevant=2, p=0.5, r=1)
        with pytest.raises(ValueError, match="tau_inv"):
            mc_misclassification(params, trials=10, seed=0, tau_inv=tau_inv)

    def test_dot_and_sq_euclidean_agree_on_shared_draws(self):
        """Dot at tau and squared-Euclidean at 2*tau differ by the positive
        factor e^(tau*n) per score, so misclassification events coincide on
        every trial whose signed sum is not an exact tie (ties land on either
        side of zero depending on float summation order)."""
        dot = TheoryParams(alpha=3, beta_irrelevant=4, p=0.4, r=2, kernel=Kernel.DOT)
        l2 = TheoryParams(alpha=3, beta_irrelevant=4, p=0.4, r=2, kernel=Kernel.SQ_EUCLIDEAN)
        sums_dot = mc_signed_sums(dot, trials=5000, seed=6, tau_inv=1.0)
        sums_l2 = mc_signed_sums(l2, trials=5000, seed=6, tau_inv=2.0)
        scale = np.median(np.abs(sums_dot))
        tied = np.abs(sums_dot) <= 1e-9 * scale
        assert tied.mean() < 0.01
        np.testing.assert_array_equal((sums_dot <= 0)[~tied], (sums_l2 <= 0)[~tied])
        rate_dot = float(np.mean(sums_dot <= 0))
        rate_l2 = float(np.mean(sums_l2 <= 0))
        assert abs(rate_dot - rate_l2) <= tied.mean()


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

    def test_degenerate_noise_gives_zero_ratio(self):
        growth = snr_growth(TheoryParams(alpha=2, beta_irrelevant=0, p=0.0, r=1), (1, 2, 3))
        assert all(r == 0.0 for r in growth.ratios)

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
