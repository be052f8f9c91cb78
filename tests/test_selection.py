import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polyselect.bench import evaluate_method
from polyselect.core import LabeledSet, task_seed
from polyselect.kernels import AttentionConfig, Kernel, attend_probs, predict
from polyselect.selection import (
    FACTORS,
    SelectionConfig,
    dispersion,
    feature_scores,
    score_chunk,
    select_probs,
    self_attention_round,
    standardize,
)
from polyselect.tasks import BooleanTaskSpec, gen_boolean_task


class TestStandardize:
    def test_constant_column_vanishes(self):
        feats = np.array([[3.0, 1.0], [3.0, -1.0], [3.0, 1.0], [3.0, -1.0]])
        std, _, _ = standardize(LabeledSet(feats, [0, 1, 0, 1], k=2))
        assert np.abs(std.features[:, 0]).max() < 1e-6

    def test_two_point_column_population_std(self):
        feats = np.array([[-1.0, 0.0], [1.0, 0.0]])
        std, mu, sigma = standardize(LabeledSet(feats, [0, 1], k=2))
        # population std of {-1, 1} is exactly 1; epsilon shifts it slightly
        expected = 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(std.features[:, 0], [-expected, expected], rtol=1e-12)
        assert sigma[0] == pytest.approx(1.0)

    def test_output_columns_centred(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(40, 6)) * 3.0 + 1.5
        std, _, _ = standardize(LabeledSet(feats, [0, 1] * 20, k=2))
        assert np.abs(std.features.mean(axis=0)).max() < 1e-12

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            standardize(LabeledSet(np.ones((1, 2)), [0], k=2))


class TestSelfAttentionRound:
    def test_singleton_identity(self):
        x = np.array([[0.3, -2.0, 1.0]])
        np.testing.assert_array_equal(self_attention_round(x, 1.0), x)

    def test_constant_coordinate_preserved(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 4))
        x[:, 2] = 0.75
        out = x
        for _ in range(10):
            out = self_attention_round(out, 1.0)
        assert np.abs(out[:, 2] - 0.75).max() < 1e-12

    def test_antipodal_pair_contracts_by_tanh(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        out = self_attention_round(x, 1.0)
        t = math.tanh(1.0)  # softmax weights (e, 1/e)/(e + 1/e)
        np.testing.assert_allclose(out, [[t, 0.0], [-t, 0.0]], rtol=1e-12)
        assert t == pytest.approx(0.7615941559557649)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 8), st.integers(1, 5)),
            elements=st.floats(-5, 5, allow_nan=False),
        ),
        st.floats(0.25, 4.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_convex_hull_containment(self, x, tau):
        out = self_attention_round(x, tau)
        lo, hi = x.min(axis=0), x.max(axis=0)
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 8), st.integers(1, 5)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_coordinate_range_never_increases(self, x):
        # the monotone consequence of convex combination is the per-coordinate
        # interval width; MAD/STD can rise transiently (e.g. column -2,1,2)
        out = self_attention_round(x, 1.0)
        before = x.max(axis=0) - x.min(axis=0)
        after = out.max(axis=0) - out.min(axis=0)
        assert np.all(after <= before + 1e-9)

    def test_mad_can_rise_within_the_hull(self):
        # regression pin for the counterexample above: interval shrinks while
        # the mean absolute deviation increases in a single round
        x = np.array([[-2.0], [1.0], [2.0]])
        out = self_attention_round(x, 1.0)
        assert out.min() >= x.min() and out.max() <= x.max()
        assert dispersion(out)[0] > dispersion(x)[0]


class TestFeatureScores:
    def test_zero_rounds_is_plain_dispersion(self):
        task = gen_boolean_task(BooleanTaskSpec(n=8, alpha=3, p=0.5, r=5, seed=2))
        config = SelectionConfig(rounds=0)
        std, _, _ = standardize(task.support)
        expected = dispersion(std.features)
        np.testing.assert_allclose(feature_scores(task.support, config), expected, atol=1e-15)

    def test_scores_nonnegative_and_finite(self):
        task = gen_boolean_task(BooleanTaskSpec(n=10, alpha=4, p=0.3, r=2, seed=3))
        scores = feature_scores(task.support)
        assert np.all(scores >= 0) and np.all(np.isfinite(scores))

    def test_active_features_outscore_noise(self):
        """Parity features separate from Bernoulli noise in >= 95% of tasks."""
        wins = 0
        trials = 200
        for t in range(trials):
            task = gen_boolean_task(
                BooleanTaskSpec(n=8, alpha=3, p=0.5, r=5, seed=task_seed(17, t))
            )
            scores = feature_scores(task.support)
            active = list(task.meta.active_indices)
            noise = [i for i in range(8) if i not in active]
            if scores[active].min() > scores[noise].max():
                wins += 1
        assert wins / trials >= 0.95

    def test_stacked_support_scores_each_task(self):
        tasks = [gen_boolean_task(BooleanTaskSpec(n=7, alpha=3, p=0.5, r=2, seed=s)) for s in range(5)]
        stacked = LabeledSet(np.stack([t.support.features for t in tasks]), tasks[0].support.labels, k=2)
        config = SelectionConfig(rounds=3)
        scores = feature_scores(stacked, config)
        assert scores.shape == (5, 7)
        for i, task in enumerate(tasks):
            assert scores[i].tobytes() == feature_scores(task.support, config).tobytes()

    def test_column_permutation_equivariance(self):
        task = gen_boolean_task(BooleanTaskSpec(n=7, alpha=3, p=0.5, r=3, seed=5))
        scores = feature_scores(task.support)
        rng = np.random.default_rng(0)
        perm = rng.permutation(7)
        permuted = LabeledSet(
            task.support.features[:, perm], task.support.labels, k=task.support.k
        )
        np.testing.assert_allclose(feature_scores(permuted), scores[perm], atol=1e-12)


def scored_with(task, scores, config=SelectionConfig()):
    """The task's standardised chunk of one, carrying the given scores."""
    scored = score_chunk(task.support, task.query.features, config)
    return replace(scored, scores=np.asarray(scores, dtype=np.float64))


class TestApplySelection:
    """The FACTORS table and select_probs, which multiplies features by a factor."""

    def _task(self, seed=7):
        return gen_boolean_task(BooleanTaskSpec(n=6, alpha=2, p=0.5, r=3, seed=seed))

    def test_uniform_scores_keep_dot_predictions(self):
        task = self._task()
        attn, config = AttentionConfig(), SelectionConfig()
        selected = select_probs(scored_with(task, np.full(6, 0.7)), "AttnSoftFS", attn, config, (task.meta,))
        base = select_probs(scored_with(task, np.ones(6)), "AttnSoftFS", attn, config, (task.meta,))
        np.testing.assert_array_equal(predict(selected), predict(base))

    def test_top_k_full_width_is_identity_mask(self):
        task = self._task()
        factor = FACTORS["AttnTopK"](np.arange(1.0, 7.0), SelectionConfig(top_k=6), (task.meta,))
        np.testing.assert_array_equal(factor, np.ones(6))
        scored = scored_with(task, np.arange(1.0, 7.0))
        probs = select_probs(scored, "AttnTopK", AttentionConfig(), SelectionConfig(top_k=6), (task.meta,))
        plain = attend_probs(scored.query_features, scored.support, AttentionConfig())
        assert probs.tobytes() == plain.tobytes()

    def test_top_k_rank_selection(self):
        factor = FACTORS["AttnTopK"](np.array([3.0, 1.0, 2.0]), SelectionConfig(top_k=2), (None,))
        np.testing.assert_array_equal(factor, [1.0, 0.0, 1.0])

    def test_top_k_tie_break_keeps_lowest_index(self):
        factor = FACTORS["AttnTopK"](np.ones((2, 4)), SelectionConfig(top_k=2), (None, None))
        np.testing.assert_array_equal(factor, [[1.0, 1.0, 0.0, 0.0]] * 2)

    def test_top_k_exceeding_width_rejected(self):
        task = self._task()
        scored = scored_with(task, np.ones(6))
        with pytest.raises(ValueError, match="top_k must lie"):
            select_probs(scored, "AttnTopK", AttentionConfig(), SelectionConfig(top_k=7), (task.meta,))

    def test_top_k_defaults_to_active_count(self):
        task = self._task()
        factor = FACTORS["AttnTopK"](np.arange(6.0), SelectionConfig(), (task.meta, task.meta))
        assert factor.sum() == task.meta.alpha
        with pytest.raises(ValueError, match="needs top_k"):
            FACTORS["AttnTopK"](np.arange(6.0), SelectionConfig(), (task.meta, None))

    def test_normalised_scores_mean_one(self):
        task = self._task()
        scores = np.array([4.0, 0.0, 0.0, 0.0, 0.0, 2.0])
        factor = FACTORS["AttnSoftFSNorm"](scores, SelectionConfig(), (task.meta,))
        np.testing.assert_allclose(factor, scores / scores.sum() * 6, rtol=1e-15)
        assert factor.mean() == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(ValueError, match="all-zero"):
            FACTORS["AttnSoftFSNorm"](np.zeros(6), SelectionConfig(), (task.meta,))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("method", sorted(FACTORS))
    def test_negative_or_non_finite_scores_rejected(self, method, bad):
        task = self._task()
        scored = scored_with(task, [1.0, 2.0, bad, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            select_probs(scored, method, AttentionConfig(), SelectionConfig(top_k=2), (task.meta,))


class TestFsClassify:
    """The whole selection pipeline as evaluate_method and select_probs run it."""

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_complete_noiseless_tasks_solved(self, alpha):
        for seed in range(5):
            task = gen_boolean_task(
                BooleanTaskSpec(n=alpha, alpha=alpha, p=0.5, r=1, query_count=16, seed=seed)
            )
            assert evaluate_method("AttnSoftFS", task, AttentionConfig(), SelectionConfig()) == 1.0

    def test_rounds_zero_runs(self):
        task = gen_boolean_task(BooleanTaskSpec(n=6, alpha=3, p=0.5, r=2, seed=9))
        config = SelectionConfig(rounds=0)
        scored = score_chunk(task.support, task.query.features, config)
        probs = select_probs(scored, "AttnSoftFS", AttentionConfig(), config, (task.meta,))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestNormIsATemperature:
    """AttnSoftFSNorm multiplies AttnSoftFS's features by n/sum(s) per task."""

    def _pairs(self):
        for t in range(50):
            task = gen_boolean_task(BooleanTaskSpec(n=9, alpha=3, p=0.5, r=3, seed=task_seed(11, t)))
            scored = score_chunk(task.support, task.query.features, SelectionConfig())
            yield task, scored, task.n_features / scored.scores.sum()

    def test_dot_norm_is_soft_at_rescaled_temperature(self):
        # dot products of features scaled by c gain c^2, which the softmax
        # folds into its temperature
        sel = SelectionConfig()
        worst = 0.0
        for task, scored, c in self._pairs():
            norm = select_probs(scored, "AttnSoftFSNorm", AttentionConfig(tau_inv=1.5), sel, (task.meta,))
            soft = select_probs(scored, "AttnSoftFS", AttentionConfig(tau_inv=1.5 * c**2), sel, (task.meta,))
            worst = max(worst, float(np.abs(norm - soft).max()))
        assert worst <= 1e-12

    def test_cosine_norm_is_soft_at_same_temperature(self):
        # cosine similarity does not see a common scale of both vectors
        attn, sel = AttentionConfig(Kernel.COSINE, 1.5), SelectionConfig()
        worst = 0.0
        for task, scored, _ in self._pairs():
            norm = select_probs(scored, "AttnSoftFSNorm", attn, sel, (task.meta,))
            soft = select_probs(scored, "AttnSoftFS", attn, sel, (task.meta,))
            worst = max(worst, float(np.abs(norm - soft).max()))
        assert worst <= 1e-12
