import math

import numpy as np
import pytest

from polyselect.core import LabeledSet, Task
from polyselect.kernels import (
    AttentionConfig,
    Kernel,
    attend_probs,
    predict,
    similarity_matrix,
    softmax_rows,
)
from polyselect.tasks import BooleanTaskSpec, gen_boolean_task
from polyselect.theory import and_boundary

E = math.e


def xor_support(alpha: int, r: int = 1) -> LabeledSet:
    """Complete parity support on the +-1 cube, each variant r times."""
    import itertools

    rows, labels = [], []
    for bits in itertools.product((-1.0, 1.0), repeat=alpha):
        chi = math.prod(bits)
        for _ in range(r):
            rows.append(bits)
            labels.append(1 if chi == -1 else 0)
    return LabeledSet(np.array(rows), np.array(labels), k=2)


class TestSimilarity:
    def test_dot_on_pm_vectors_is_alpha_minus_2delta(self):
        q = np.array([1.0, 1.0, 1.0])
        s = np.array([1.0, 1.0, -1.0])  # one differing position
        assert similarity_matrix(AttentionConfig(Kernel.DOT), [q], [s])[0, 0] == pytest.approx(1.0)

    def test_sq_euclidean_on_bits_is_minus_delta(self):
        q = np.array([1.0, 0.0, 1.0])
        s = np.array([0.0, 1.0, 1.0])  # two differing positions
        sim = similarity_matrix(AttentionConfig(Kernel.SQ_EUCLIDEAN), [q], [s])
        assert sim[0, 0] == pytest.approx(-2.0)

    def test_cosine_self_is_one(self):
        v = np.array([0.3, -1.2, 2.0])
        assert similarity_matrix(AttentionConfig(Kernel.COSINE), [v], [v])[0, 0] == pytest.approx(1.0)

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            similarity_matrix(AttentionConfig(Kernel.COSINE), [np.zeros(3)], [np.ones(3)])

    def test_laplace_is_negative_l1(self):
        q = np.array([1.0, 0.0])
        s = np.array([0.0, 1.0])
        sim = similarity_matrix(AttentionConfig(Kernel.LAPLACE), [q], [s])
        assert sim[0, 0] == pytest.approx(-2.0)


class TestStacks:
    """A (tasks, rows, n) stack gives each task's 2-d result, bit for bit."""

    def _stack(self, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(4, 6, 3)), rng.normal(size=(4, 9, 3))

    @pytest.mark.parametrize("kind", list(Kernel))
    def test_similarity_matrix(self, kind):
        queries, keys = self._stack(1)
        config = AttentionConfig(kind, tau_inv=1.5)
        stacked = similarity_matrix(config, queries, keys)
        for t in range(4):
            assert stacked[t].tobytes() == similarity_matrix(config, queries[t], keys[t]).tobytes()

    @pytest.mark.parametrize("kind", list(Kernel))
    def test_attend_probs(self, kind):
        queries, keys = self._stack(2)
        labels = [0, 1, 2, 0, 1, 2, 0, 1, 2]
        config = AttentionConfig(kind, tau_inv=0.7)
        stacked = attend_probs(queries, LabeledSet(keys, labels, k=3), config)
        for t in range(4):
            lone = attend_probs(queries[t], LabeledSet(keys[t], labels, k=3), config)
            assert stacked[t].tobytes() == lone.tobytes()

    def test_zero_row_in_any_task_rejected(self):
        queries, keys = self._stack(3)
        keys[2, 4] = 0.0
        with pytest.raises(ValueError):
            similarity_matrix(AttentionConfig(Kernel.COSINE), queries, keys)


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)

    def test_sharp_limit_is_argmax(self):
        out = softmax_rows(np.array([[1.0, 0.0]]), tau_inv=1e4)
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_hand_computed_four_way(self):
        z = E**2 + E**-2 + 2.0
        expected = [E**2 / z, E**-2 / z, 1.0 / z, 1.0 / z]
        out = softmax_rows(np.array([[2.0, -2.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out[0], expected, rtol=1e-14)

    def test_stabilised_against_large_scores(self):
        out = softmax_rows(np.array([[1000.0, 999.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-15)


def _random_task(seed: int) -> Task:
    return gen_boolean_task(BooleanTaskSpec(n=6, alpha=3, p=0.5, r=2, query_count=8, seed=seed))


class TestAttendClassify:
    def test_xor2_hand_value(self):
        support = xor_support(2)
        probs = attend_probs(np.array([[1.0, 1.0]]), support, AttentionConfig())
        expected_p0 = (E**2 + E**-2) / (E**2 + E**-2 + 2.0)
        assert probs[0, 0] == pytest.approx(expected_p0, rel=1e-12)

    def test_nearest_neighbour_limit(self):
        task = _random_task(3)
        config = AttentionConfig(tau_inv=1e4)
        for kind in Kernel:
            probs = attend_probs(
                task.support.features[:3], task.support, AttentionConfig(kind, 1e4)
            )
            np.testing.assert_array_equal(predict(probs), task.support.labels[:3])

    @pytest.mark.parametrize("alpha", [2, 3, 4, 5, 6])
    def test_complete_noiseless_parity_is_solved(self, alpha):
        support = xor_support(alpha)
        probs = attend_probs(support.features, support, AttentionConfig())
        np.testing.assert_array_equal(predict(probs), support.labels)

    def test_rows_stochastic(self):
        for seed in range(5):
            task = _random_task(seed)
            probs = attend_probs(task.query.features, task.support, AttentionConfig())
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_support_permutation_invariance(self):
        task = _random_task(9)
        rng = np.random.default_rng(0)
        perm = rng.permutation(task.support.rows)
        shuffled = LabeledSet(
            task.support.features[perm], task.support.labels[perm], k=task.support.k
        )
        a = attend_probs(task.query.features, task.support, AttentionConfig())
        b = attend_probs(task.query.features, shuffled, AttentionConfig())
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_temperature_monotonicity(self):
        task = _random_task(21)
        taus = [0.5, 1.0, 2.0, 4.0, 8.0]
        prev = None
        for tau in taus:
            probs = attend_probs(task.query.features, task.support, AttentionConfig(tau_inv=tau))
            top = probs.max(axis=1)
            if prev is not None:
                assert np.all(top >= prev - 1e-12)
            prev = top

    @pytest.mark.parametrize("alpha,r", [(2, 1), (3, 1), (4, 2), (5, 3)])
    def test_dot_parity_signed_sum(self, alpha, r):
        """Signed score sum of a complete parity support is r(e - 1/e)^alpha."""
        support = xor_support(alpha, r)
        query = support.features[0]
        scores = np.exp(support.features @ query)
        signs = np.where(support.labels == support.labels[0], 1.0, -1.0)
        signed_sum = float(np.sum(signs * scores))
        assert signed_sum == pytest.approx(r * (E - 1 / E) ** alpha, rel=1e-9)


def and_support() -> LabeledSet:
    feats = np.array([[1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0]])
    return LabeledSet(feats, np.array([1, 0, 0, 0]), k=2)


class TestConfidenceField:
    def test_xor_centre_is_uncertain(self):
        probs = attend_probs(np.array([[0.0, 0.0]]), xor_support(2), AttentionConfig())
        assert probs[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_and_far_corner_confident(self):
        probs = attend_probs(np.array([[5.0, 5.0]]), and_support(), AttentionConfig())
        expected = math.exp(10) / (math.exp(10) + math.exp(-10) + 2.0)
        assert probs[0, 1] == pytest.approx(expected, rel=1e-12)
        assert probs[0, 1] > 0.99

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_closed_form_boundary_matches(self, tau):
        xs = np.linspace(0.2, 5.0, 50)
        ys = and_boundary(tau, xs)
        pts = np.column_stack([xs, ys])
        probs = attend_probs(pts, and_support(), AttentionConfig(tau_inv=tau))
        gaps = np.abs(probs[:, 1] - probs[:, 0])
        assert gaps.max() < 1e-6

    def test_and_single_point_on_boundary(self):
        y_star = -0.5 * math.log(math.tanh(3.0))
        probs = attend_probs(np.array([[3.0, y_star]]), and_support(), AttentionConfig())
        assert abs(probs[0, 1] - probs[0, 0]) < 1e-6
