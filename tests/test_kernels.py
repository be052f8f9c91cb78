import math

import numpy as np
import pytest

from polyselect.boolefn import corners
from polyselect.core import LabeledSet, Task, one_hot
from polyselect.kernels import (
    AttentionConfig,
    Kernel,
    _exp_rows_in_place,
    attend_probs,
    predict,
    similarity_matrix,
)
from polyselect.prototypes import build_prototypes, proto_classify
from polyselect.selection import self_attention_round
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


class TestLaplaceBuffer:
    """Laplace adds |q_j - k_j| one feature at a time into one (..., q, m) buffer."""

    @staticmethod
    def _broadcast(queries, keys):
        return -np.abs(queries[..., :, None, :] - keys[..., None, :, :]).sum(-1)

    @staticmethod
    def _bits(shape, seed):
        return np.random.default_rng(seed).integers(0, 2, size=shape).astype(np.float64)

    def test_holds_no_difference_array(self):
        # a (25, 32, 160, 14) difference array would be 14 outputs' bytes, twice
        import tracemalloc

        queries, keys = self._bits((25, 32, 14), 0), self._bits((25, 160, 14), 1)
        tracemalloc.start()
        try:
            out = similarity_matrix(AttentionConfig(Kernel.LAPLACE), queries, keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (25, 32, 160)
        assert peak <= 3 * out.nbytes

    @pytest.mark.parametrize("n", [1, 5, 8, 14, 30])
    @pytest.mark.parametrize("plus_minus", [False, True], ids=["zero_one", "plus_minus"])
    def test_binary_rows_equal_the_broadcast_sum(self, n, plus_minus):
        # integer sums round nowhere, so any summation order gives the same bits
        queries, keys = self._bits((3, 7, n), 2), self._bits((3, 9, n), 3)
        if plus_minus:
            queries, keys = 2 * queries - 1, 2 * keys - 1
        sim = similarity_matrix(AttentionConfig(Kernel.LAPLACE), queries, keys)
        assert sim.tobytes() == self._broadcast(queries, keys).tobytes()

    @pytest.mark.parametrize("n", range(8))
    def test_real_rows_below_eight_features_equal_the_broadcast_sum(self, n):
        # numpy sums fewer than 8 terms left to right, as the buffer does; from 8 on
        # its pairwise sum reorders them and the last bit may differ
        rng = np.random.default_rng(n)
        queries, keys = rng.normal(size=(4, 6, n)), rng.normal(size=(9, n))
        sim = similarity_matrix(AttentionConfig(Kernel.LAPLACE), queries, keys)
        assert sim.shape == (4, 6, 9)
        assert sim.tobytes() == self._broadcast(queries, keys).tobytes()


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

    @pytest.mark.parametrize("kind", list(Kernel))
    def test_attend_probs_with_per_task_labels(self, kind):
        queries, keys = self._stack(4)
        labels = np.random.default_rng(4).integers(0, 3, size=(4, 9))
        config = AttentionConfig(kind, tau_inv=0.7)
        stacked = attend_probs(queries, LabeledSet(keys, labels, k=3), config)
        assert stacked.shape == (4, 6, 3)
        for t in range(4):
            lone = attend_probs(queries[t], LabeledSet(keys[t], labels[t], k=3), config)
            assert stacked[t].tobytes() == lone.tobytes()

    def test_zero_row_in_any_task_rejected(self):
        queries, keys = self._stack(3)
        keys[2, 4] = 0.0
        with pytest.raises(ValueError):
            similarity_matrix(AttentionConfig(Kernel.COSINE), queries, keys)


def _tables_realised(n: int, tables, tau_inv: float) -> np.ndarray:
    """Per table, whether dot attention over the n-cube's corners labelled by it classifies every corner right.

    One attend_probs call classifies the whole stack: table t labels corner i
    by its bit i, and the corners are both the support and the queries.
    """
    x = corners(n).astype(np.float64)
    labels = (np.asarray(tables, dtype=np.int64)[:, None] >> np.arange(2**n)) & 1
    x = np.broadcast_to(x, (len(labels), *x.shape))
    probs = attend_probs(x, LabeledSet(x, labels, k=2), AttentionConfig(tau_inv=tau_inv))
    return np.all(predict(probs) == labels, axis=-1)


def _tau_star(n: int) -> float:
    """The sharpness at which a one-corner table's corner ties: (1 + e^(-2 tau))^n = 2."""
    return -0.5 * math.log(2 ** (1 / n) - 1)


class TestEveryTruthTable:
    """Attention realises every Boolean function once it is sharp enough (ROADMAP item 9's Attn counts)."""

    @pytest.mark.parametrize("n, below, above", [(2, 6, 14), (3, 238, 254)])
    def test_counts_around_tau_star(self, n, below, above):
        tables = np.arange(1, 2 ** 2**n - 1)  # every non-constant table
        taus = (_tau_star(n) - 0.01, _tau_star(n) + 0.01, 1.0)
        assert [int(_tables_realised(n, tables, tau).sum()) for tau in taus] == [below, above, len(tables)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_corner_tables_turn_at_tau_star(self, n):
        one_corner = 1 << np.arange(2**n)
        tables = np.concatenate([one_corner, (2 ** 2**n - 1) ^ one_corner])
        assert not _tables_realised(n, tables, _tau_star(n) - 0.01).any()
        assert _tables_realised(n, tables, _tau_star(n) + 0.01).all()

    @pytest.mark.slow
    def test_every_four_input_table(self):
        # 65,534 tables in one call: its (tables, 16, 16) similarity stack is about 134 MB
        tables = np.arange(1, 2**16 - 1)
        taus = (_tau_star(4) - 0.01, _tau_star(4) + 0.01, 1.0)
        assert [int(_tables_realised(4, tables, tau).sum()) for tau in taus] == [65294, 65534, 65534]


def softmax_reference(scores: np.ndarray, tau_inv: float) -> np.ndarray:
    """Row softmax in the package's order: scale, subtract the row maximum, exp, divide by the row sum."""
    z = scores * tau_inv
    z = np.exp(z - z.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def attention_softmax(scores: np.ndarray, tau_inv: float) -> np.ndarray:
    """attend_probs over one-hot identity keys: the row softmax of tau_inv * finite scores, exactly."""
    k = scores.shape[-1]
    return attend_probs(scores, LabeledSet(np.eye(k), np.arange(k), k=k), AttentionConfig(Kernel.DOT, tau_inv))


class TestSoftmax:
    def test_symmetry(self):
        out = attention_softmax(np.array([[0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_sharp_limit_is_argmax(self):
        out = attention_softmax(np.array([[1.0, 0.0]]), 1e4)
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_hand_computed_four_way(self):
        z = E**2 + E**-2 + 2.0
        expected = [E**2 / z, E**-2 / z, 1.0 / z, 1.0 / z]
        out = attention_softmax(np.array([[2.0, -2.0, 0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(out[0], expected, rtol=1e-14)

    def test_stabilised_against_large_scores(self):
        out = attention_softmax(np.array([[1000.0, 999.0]]), 1.0)
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


def _reference_attend_probs(query_features, support, config):
    """attend_probs with the reference softmax of the similarities."""
    scores = similarity_matrix(config, query_features, support.features)
    return softmax_reference(scores, config.tau_inv) @ one_hot(support.labels, support.k)


class TestAttendProbsBitIdentity:
    @pytest.mark.parametrize("shape", [(6, 40, 14), (32, 8, 8), (25, 10, 5)])
    @pytest.mark.parametrize("kind", list(Kernel))
    @pytest.mark.parametrize("tau_inv", [1.0, 2.0])
    def test_equals_softmax_reference(self, shape, kind, tau_inv):
        rng = np.random.default_rng(sum(shape))
        keys = rng.choice([-1.0, 1.0], size=shape) + rng.normal(scale=0.1, size=shape)
        queries = rng.choice([-1.0, 1.0], size=(shape[0], 7, shape[2]))
        support = LabeledSet(keys, np.arange(shape[1]) % 2, k=2)
        config = AttentionConfig(kind, tau_inv)
        assert np.array_equal(
            attend_probs(queries, support, config), _reference_attend_probs(queries, support, config)
        )


# NaN, +inf and -inf entries, and finite rows whose Gram entries overflow
_NON_FINITE = [
    np.array([[np.nan, 1.0], [1.0, 2.0]]),
    np.array([[np.inf, 1.0], [1.0, 2.0]]),
    np.array([[-np.inf, 1.0], [1.0, 2.0]]),
    np.array([[1e200, 1.0], [1.0, 2.0]]),
    np.array([[1e200, 1.0], [-1e200, 2.0]]),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteRejected:
    @pytest.mark.parametrize("x", _NON_FINITE)
    def test_self_attention_round(self, x):
        with pytest.raises(ValueError, match="finite"):
            self_attention_round(x, 1.0)

    @pytest.mark.parametrize("x", _NON_FINITE)
    def test_softmax_of_gram(self, x):
        # a Gram needs no finite scan: its row maxima alone catch every case
        gram = x @ x.T
        with pytest.raises(ValueError, match="finite"):
            _exp_rows_in_place(gram, 1.0, gram.max(axis=-1, keepdims=True))

    @pytest.mark.parametrize("x", _NON_FINITE[:3])
    def test_softmax(self, x):
        # similarities equal to x, but for a NaN that fills its row: finite
        # entries come through identity keys scaled by 2^512, infinite ones
        # overflow from a query of +-2^600, since an infinite query would make
        # the rest of its row NaN.  Only the whole-buffer scan catches x2's
        # -inf, which lies below a finite row maximum.
        queries = np.where(np.isinf(x), np.sign(x) * 2.0**600, x / 2.0**512)
        keys = LabeledSet(np.eye(2) * 2.0**512, [0, 1], k=2)
        nan_rows = np.isnan(x).any(axis=-1, keepdims=True)
        np.testing.assert_array_equal(
            similarity_matrix(AttentionConfig(), queries, keys.features), np.where(nan_rows, np.nan, x)
        )
        with pytest.raises(ValueError, match="finite"):
            attend_probs(queries, keys, AttentionConfig())

    @pytest.mark.parametrize("x", _NON_FINITE)
    @pytest.mark.parametrize("kind", [Kernel.DOT, Kernel.SQ_EUCLIDEAN])
    def test_attend_probs(self, x, kind):
        # a LabeledSet holds finite features only, so the bad entries ride in the queries
        support = LabeledSet(np.where(np.isfinite(x), x, 3.0), [0, 1], k=2)
        with pytest.raises(ValueError, match="finite"):
            attend_probs(x, support, AttentionConfig(kind))

    @pytest.mark.parametrize(
        "kind,query,keys",
        [
            (Kernel.DOT, [[1e200, 0.0]], [[-1e200, 0.0], [1.0, 0.0]]),
            (Kernel.SQ_EUCLIDEAN, [[1.0, 0.0]], [[1e200, 0.0], [0.0, 0.0]]),
        ],
    )
    def test_attend_probs_overflow_below_a_finite_row_maximum(self, kind, query, keys):
        # one similarity overflows to -inf, the row maximum stays finite
        support = LabeledSet(np.array(keys), [0, 1], k=2)
        with pytest.raises(ValueError, match="finite"):
            attend_probs(np.array(query), support, AttentionConfig(kind))

    def test_proto_classify_overflow_below_a_finite_row_maximum(self):
        # -|q - m0|^2 overflows to -inf while the other class keeps a finite maximum
        protos = build_prototypes(LabeledSet(np.array([[1e200, 0.0], [0.0, 0.0]]), [0, 1], k=2))
        with pytest.raises(ValueError, match="finite"):
            proto_classify(np.array([[1.0, 0.0]]), protos)


class TestDownwardOverflowIsSilent:
    # pytest turns RuntimeWarning into an error, so each of these fails if numpy
    # warns; an entry that overflows downwards gets the weight exp(-inf) = 0

    def test_attend_probs_scaled_entry(self):
        # -1e10 * 1e307 overflows in the scaling while the row maximum 1e307 does not
        support = LabeledSet(np.array([[1.0], [-1e10]]), [0, 1], k=2)
        probs = attend_probs(np.array([[1.0]]), support, AttentionConfig(tau_inv=1e307))
        assert probs.tolist() == [[1.0, 0.0]]

    def test_attend_probs_shifted_entry(self):
        # -1e308 - 1e308 overflows in the max subtraction
        support = LabeledSet(np.array([[1.0], [-1.0]]), [0, 1], k=2)
        probs = attend_probs(np.array([[1.0]]), support, AttentionConfig(tau_inv=1e308))
        assert probs.tolist() == [[1.0, 0.0]]

    def test_proto_classify_scaled_entry(self):
        protos = build_prototypes(LabeledSet(np.array([[1.0, 0.0], [1e10, 0.0]]), [0, 1], k=2))
        assert proto_classify(np.array([[0.0, 0.0]]), protos, 1e300).tolist() == [[1.0, 0.0]]

    def test_self_attention_round_shifted_entry(self):
        # the scaled Gram [[1e308, -1e308], [-1e308, 1e308]] is finite; its shift is not
        x = np.array([[1.0], [-1.0]])
        assert np.array_equal(self_attention_round(x, 1e308), x)


@pytest.mark.parametrize("kind", list(Kernel))
def test_similarity_rejects_width_mismatch(kind):
    with pytest.raises(ValueError, match="query and key vectors must have equal length"):
        similarity_matrix(AttentionConfig(kind), np.ones((2, 3)), np.ones((2, 4)))
