import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import polyselect
from polyselect import selection
from polyselect.bench import evaluate_method
from polyselect.core import LabeledSet, task_seed
from polyselect.kernels import AttentionConfig, Kernel, attend_probs, predict, softmax_rows
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


def _sphere_block(rows: int) -> np.ndarray:
    """A standardised block of unit-sphere points, as fig5_sphere scores them."""
    v = np.random.default_rng(rows).normal(size=(rows, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return (v - v.mean(axis=0)) / (v.std(axis=0) + 1e-8)


def _parity_blocks(shape: tuple[int, int, int]) -> np.ndarray:
    """Stacked standardised +-1 class blocks, as parity sweeps score them."""
    b = np.random.default_rng(sum(shape)).choice([-1.0, 1.0], size=shape)
    b[..., 0] = 1.0  # a constant column, standardised to 0
    return (b - b.mean(axis=-2, keepdims=True)) / (b.std(axis=-2, keepdims=True) + 1e-8)


# (stack, class rows, n) as the parity sweeps score them: the class rows
# r * 2^(alpha-1) of the recipes, n from 4 to 14, and stacks from one task to
# the 128 of a chunk of alpha=4, r=1 tasks
_PARITY_SHAPES = [(6, 40, 14), (32, 8, 8), (25, 10, 5)] + [
    (stack, rows, n)
    for (rows, n), stack in zip(
        itertools.product((8, 10, 12, 16, 20, 28, 40, 80), (4, 9, 14)), itertools.cycle((1, 25, 128))
    )
]


# (rows, n) with rows * n above 2^17, where each Gram block is a single row
_ONE_ROW_SHAPES = [(300, 500), (200, 700), (1000, 140), (2000, 70)]


def _off_zero_block(shape: tuple[int, int]) -> np.ndarray:
    """Features near 1: no output coordinate cancels to near 0, so a relative tolerance holds."""
    rows, n = shape
    return 1 + 0.5 * np.random.default_rng(rows * 100 + n).normal(size=shape) / np.sqrt(n)


class TestSelfAttentionRoundBitIdentity:
    @pytest.mark.parametrize(
        "x, rtol",
        [(_sphere_block(511), 1e-12), (_sphere_block(513), 1e-12)]
        + [(_parity_blocks(s), 0.0) for s in _PARITY_SHAPES],
        ids=["sphere511", "sphere513"] + ["parity{}x{}x{}".format(*s) for s in _PARITY_SHAPES],
    )
    @pytest.mark.parametrize("tau_inv", [1.0, 2.0])
    def test_equals_softmax_rows_formulation(self, x, rtol, tau_inv):
        # parity classes keep the single Gram product and agree bit for bit,
        # its row maxima taken as column maxima included; the blocked sphere
        # classes divide each output row by its row sum instead of dividing
        # the weights, so they agree to rounding
        expected = softmax_rows(x @ x.swapaxes(-1, -2), tau_inv) @ x
        np.testing.assert_allclose(self_attention_round(x, tau_inv), expected, rtol=rtol, atol=0)

    @pytest.mark.parametrize("shape", _PARITY_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_single_product_gram_equals_its_transpose(self, monkeypatch, shape):
        # the column maxima are the row maxima only if the Gram is symmetric
        # bit for bit; tau_inv is not a power of two, so a Gram with tau_inv
        # folded into one factor, (tau_inv * x) @ x^T, would not be
        grams = []
        exp_rows = selection._exp_rows_in_place

        def spy(z, tau_inv, symmetric=False):
            grams.append((symmetric, z.copy()))
            return exp_rows(z, tau_inv, symmetric)

        monkeypatch.setattr(selection, "_exp_rows_in_place", spy)
        self_attention_round(_parity_blocks(shape), 1.5)
        ((symmetric, gram),) = grams
        assert symmetric
        assert np.array_equal(gram, gram.swapaxes(-1, -2))

    def test_blocked_stack_equals_its_slices(self):
        # 513 rows leave a partial last block, written through a strided view
        x = np.stack([_sphere_block(513), _sphere_block(513)[::-1]])
        stacked = self_attention_round(x, 2.0)
        for t in range(2):
            assert np.array_equal(stacked[t], self_attention_round(x[t], 2.0))

    def test_one_rows_by_rows_buffer_per_round(self):
        # a blocked round holds a few rows of the Gram at a time, never all of it
        x = _sphere_block(511)
        gram_bytes = 511 * 511 * 8
        tracemalloc.start()
        try:
            self_attention_round(x, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gram_bytes / 2

    def test_bits_equal_under_one_and_two_blas_threads(self):
        # every 7th size up to 1,200 rows, then sizes at which a fixed block of
        # 128 rows would cost a product of 1M multiply-adds or more at n = 3
        sizes = [*range(2, 1201, 7), 2652, 2700, 3000, 4000]
        code = (
            "import hashlib, numpy as np\n"
            "from polyselect.selection import self_attention_round\n"
            "for n in (3, 14):\n"
            f"    for rows in {sizes}:\n"
            "        x = np.random.default_rng(rows * 100 + n).normal(size=(rows, n))\n"
            "        digest = hashlib.sha256(self_attention_round(x, 2.0).tobytes()).hexdigest()\n"
            "        print(n, rows, digest)\n"
        )
        src = str(Path(polyselect.__file__).parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            runs.append(out.stdout.splitlines())
        one, two = runs
        assert len(one) == len(two) == 2 * len(sizes)
        differ = [a.rsplit(" ", 1)[0] for a, b in zip(one, two) if a != b]
        assert differ == [], f"(n, rows) whose bits depend on the thread count: {differ}"

    @pytest.mark.parametrize("shape", _ONE_ROW_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_one_row_blocks_equal_softmax_rows_formulation(self, monkeypatch, shape):
        # rows * n > 2^17, so each block is one Gram row and its output product a gemv
        blocks = []
        exp_rows = selection._exp_rows_in_place

        def spy(z, tau_inv, symmetric=False):
            blocks.append(z.shape)
            return exp_rows(z, tau_inv, symmetric)

        monkeypatch.setattr(selection, "_exp_rows_in_place", spy)
        x = _off_zero_block(shape)
        got = self_attention_round(x, 2.0)
        assert blocks == [(1, shape[0])] * shape[0]
        expected = softmax_rows(x @ x.T, 2.0) @ x
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_one_row_blocks_bits_equal_under_one_and_two_blas_threads(self):
        code = (
            "import hashlib, numpy as np\n"
            "from polyselect.selection import self_attention_round\n"
            f"for rows, n in {_ONE_ROW_SHAPES}:\n"
            "    x = 1 + 0.5 * np.random.default_rng(rows * 100 + n).normal(size=(rows, n)) / np.sqrt(n)\n"
            "    digest = hashlib.sha256(self_attention_round(x, 2.0).tobytes()).hexdigest()\n"
            "    print(rows, n, digest)\n"
        )
        src = str(Path(polyselect.__file__).parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            runs.append(out.stdout.splitlines())
        one, two = runs
        assert len(one) == len(two) == len(_ONE_ROW_SHAPES)
        differ = [a.rsplit(" ", 1)[0] for a, b in zip(one, two) if a != b]
        assert differ == [], f"(rows, n) whose bits depend on the thread count: {differ}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("row", [0, 599], ids=["first_block", "last_block"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_in_a_blocked_class(self, row, bad):
        x = _sphere_block(600)
        x[row, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            self_attention_round(x, 2.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scaled_gram_overflow_raises_in_its_own_round(self):
        # the Gram itself is finite; tau_inv * 1e300 is not
        x = np.array([[1e150, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            self_attention_round(x, 1e10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scaled_gram_overflow_raises_in_a_blocked_class(self):
        x = _sphere_block(600)
        x[300, 0] = 1e150  # a middle block
        with pytest.raises(ValueError, match="finite"):
            self_attention_round(x, 1e10)


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
        selected = select_probs(scored_with(task, np.full(6, 0.7)), "AttnSoftFS", attn, config)
        base = select_probs(scored_with(task, np.ones(6)), "AttnSoftFS", attn, config)
        np.testing.assert_array_equal(predict(selected), predict(base))

    def test_top_k_full_width_is_identity_mask(self):
        task = self._task()
        factor = FACTORS["AttnTopK"](np.arange(1.0, 7.0), SelectionConfig(top_k=6))
        np.testing.assert_array_equal(factor, np.ones(6))
        scored = scored_with(task, np.arange(1.0, 7.0))
        probs = select_probs(scored, "AttnTopK", AttentionConfig(), SelectionConfig(top_k=6))
        plain = attend_probs(scored.query_features, scored.support, AttentionConfig())
        assert probs.tobytes() == plain.tobytes()

    def test_top_k_rank_selection(self):
        factor = FACTORS["AttnTopK"](np.array([3.0, 1.0, 2.0]), SelectionConfig(top_k=2))
        np.testing.assert_array_equal(factor, [1.0, 0.0, 1.0])

    def test_top_k_tie_break_keeps_lowest_index(self):
        factor = FACTORS["AttnTopK"](np.ones((2, 4)), SelectionConfig(top_k=2))
        np.testing.assert_array_equal(factor, [[1.0, 1.0, 0.0, 0.0]] * 2)

    def test_top_k_exceeding_width_rejected(self):
        task = self._task()
        scored = scored_with(task, np.ones(6))
        with pytest.raises(ValueError, match="top_k must lie"):
            select_probs(scored, "AttnTopK", AttentionConfig(), SelectionConfig(top_k=7))

    def test_normalised_scores_mean_one(self):
        task = self._task()
        scores = np.array([4.0, 0.0, 0.0, 0.0, 0.0, 2.0])
        factor = FACTORS["AttnSoftFSNorm"](scores, SelectionConfig())
        np.testing.assert_allclose(factor, scores / scores.sum() * 6, rtol=1e-15)
        assert factor.mean() == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(ValueError, match="all-zero"):
            FACTORS["AttnSoftFSNorm"](np.zeros(6), SelectionConfig())

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("method", sorted(FACTORS))
    def test_negative_or_non_finite_scores_rejected(self, method, bad):
        task = self._task()
        scored = scored_with(task, [1.0, 2.0, bad, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            select_probs(scored, method, AttentionConfig(), SelectionConfig(top_k=2))


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
        probs = select_probs(scored, "AttnSoftFS", AttentionConfig(), config)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestNormIsATemperature:
    """AttnSoftFSNorm multiplies AttnSoftFS's features by n/sum(s) per task."""

    def _pairs(self):
        for t in range(50):
            task = gen_boolean_task(BooleanTaskSpec(n=9, alpha=3, p=0.5, r=3, seed=task_seed(11, t)))
            scored = score_chunk(task.support, task.query.features, SelectionConfig())
            yield task, scored, task.support.cols / scored.scores.sum()

    def test_dot_norm_is_soft_at_rescaled_temperature(self):
        # dot products of features scaled by c gain c^2, which the softmax
        # folds into its temperature
        sel = SelectionConfig()
        worst = 0.0
        for task, scored, c in self._pairs():
            norm = select_probs(scored, "AttnSoftFSNorm", AttentionConfig(tau_inv=1.5), sel)
            soft = select_probs(scored, "AttnSoftFS", AttentionConfig(tau_inv=1.5 * c**2), sel)
            worst = max(worst, float(np.abs(norm - soft).max()))
        assert worst <= 1e-12

    def test_cosine_norm_is_soft_at_same_temperature(self):
        # cosine similarity does not see a common scale of both vectors
        attn, sel = AttentionConfig(Kernel.COSINE, 1.5), SelectionConfig()
        worst = 0.0
        for task, scored, _ in self._pairs():
            norm = select_probs(scored, "AttnSoftFSNorm", attn, sel)
            soft = select_probs(scored, "AttnSoftFS", attn, sel)
            worst = max(worst, float(np.abs(norm - soft).max()))
        assert worst <= 1e-12


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: SelectionConfig(epsilon=0.0), "epsilon must be positive"),
        (lambda: SelectionConfig(tau_inv=math.inf), "tau_inv must be positive and finite"),
        (lambda: SelectionConfig(rounds=-1), "rounds must be >= 0"),
        (lambda: SelectionConfig(top_k=0), "top_k must be >= 1"),
        (lambda: FACTORS["AttnTopK"](np.arange(6.0), SelectionConfig()),
         "AttnTopK needs top_k (or task metadata with an active count)"),
        (lambda: self_attention_round(np.zeros((0, 3)), 1.0),
         "class features must be a non-empty (..., rows, n) array"),
        (lambda: feature_scores(LabeledSet(np.eye(4), [0, 1, 0, 1], k=3)), "class 2 has no support examples"),
    ],
)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
