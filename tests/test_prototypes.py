import numpy as np
import pytest

from polyselect.boolefn import threshold_tables
from polyselect.core import LabeledSet, rng_for
from polyselect.kernels import AttentionConfig, Kernel, predict, similarity_matrix
from polyselect.prototypes import build_prototypes, proto_classify

from test_kernels import and_support, complete_tasks, softmax_reference, xor_support


class TestBuildPrototypes:
    def test_complete_xor_prototypes_coincide(self):
        protos = build_prototypes(xor_support(2))
        np.testing.assert_allclose(protos.features, np.zeros((2, 2)), atol=1e-15)

    def test_and_corner_means(self):
        protos = build_prototypes(and_support())
        np.testing.assert_allclose(protos.features[1], [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(protos.features[0], [-1.0 / 3.0, -1.0 / 3.0], atol=1e-15)

    def test_singleton_classes(self):
        feats = np.array([[2.0, 1.0], [-3.0, 0.5]])
        protos = build_prototypes(LabeledSet(feats, [0, 1], k=2))
        np.testing.assert_array_equal(protos.features, feats)

    def test_empty_class_rejected(self):
        support = LabeledSet(np.ones((2, 2)), [0, 0], k=2)
        with pytest.raises(ValueError):
            build_prototypes(support)


class TestStackedPrototypes:
    @pytest.mark.parametrize("k", [2, 3])
    def test_stack_is_a_labeled_set_of_class_means(self, k):
        rng = rng_for(5)
        feats = rng.normal(size=(4, 3 * k, 2))
        labels = np.arange(3 * k) % k
        protos = build_prototypes(LabeledSet(feats, labels, k=k))
        assert isinstance(protos, LabeledSet)
        assert protos.k == k
        assert protos.labels.tolist() == list(range(k))
        assert protos.features.shape == (4, k, 2)
        for c in range(k):
            assert protos.features[:, c].tobytes() == feats[:, labels == c].mean(axis=-2).tobytes()

    def test_stack_equals_each_task(self):
        rng = rng_for(4)
        feats = rng.normal(size=(3, 6, 2))
        labels = [0, 1, 0, 1, 1, 0]
        queries = rng.normal(size=(3, 5, 2))
        stacked = proto_classify(queries, build_prototypes(LabeledSet(feats, labels, k=2)))
        for t in range(3):
            lone = proto_classify(queries[t], build_prototypes(LabeledSet(feats[t], labels, k=2)))
            assert stacked[t].tobytes() == lone.tobytes()


class TestBinaryClassMeans:
    """On ±1 and 0/1 rows every class sum is an exact integer, so the one-hot product's means are numpy's means."""

    @pytest.mark.parametrize("per_task", [False, True], ids=["shared labels", "per-task labels"])
    @pytest.mark.parametrize("encode", [lambda b: 2 * b - 1, lambda b: b], ids=["plus_minus", "zero_one"])
    def test_means_equal_each_class_mean(self, per_task, encode):
        rng = rng_for(17)
        for rows, n, k in [(4, 3, 2), (37, 9, 3), (512, 14, 2), (2000, 5, 4)]:
            feats = encode(rng.integers(0, 2, size=(3, rows, n)).astype(np.float64))
            labels = np.stack([rng.permutation(np.arange(rows) % k) for _ in range(3)])
            protos = build_prototypes(LabeledSet(feats, labels if per_task else labels[0], k=k))
            for t in range(3):
                rows_of = labels[t] if per_task else labels[0]
                means = np.stack([feats[t, rows_of == c].mean(axis=0) for c in range(k)])
                assert protos.features[t].tobytes() == means.tobytes(), (rows, n, k, t)

    def test_empty_class_in_one_task_rejected(self):
        support = LabeledSet(np.ones((2, 3, 2)), [[0, 1, 0], [0, 0, 0]], k=2)
        with pytest.raises(ValueError, match="class 1 has no support examples"):
            build_prototypes(support)


class TestEveryTruthTable:
    """Proto on raw corners realises only threshold tables (ROADMAP item 9's Proto counts).

    Every non-constant table is one task of a stack with per-task labels, the
    corners both its support and its queries; one build_prototypes and one
    proto_classify call classify them all.
    """

    @pytest.mark.parametrize("n, realised", [(2, 12), (3, 54), (4, 888)])
    def test_realised_tables_are_threshold_tables(self, n, realised):
        tables = np.arange(1, 2 ** 2**n - 1)
        x, labels = complete_tasks(n, tables)
        probs = proto_classify(x, build_prototypes(LabeledSet(x, labels, k=2)))
        hits = tables[np.all(predict(probs) == labels, axis=-1)]
        assert len(hits) == realised
        assert np.isin(hits, threshold_tables(n)).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stack_equals_each_table(self, n):
        tables = np.arange(1, 2 ** 2**n - 1)
        if n == 4:
            tables = rng_for(9).choice(tables, size=400, replace=False)
        x, labels = complete_tasks(n, tables)
        stacked = proto_classify(x, build_prototypes(LabeledSet(x, labels, k=2)))
        for t in range(len(tables)):
            lone = proto_classify(x[t], build_prototypes(LabeledSet(x[t], labels[t], k=2)))
            assert stacked[t].tobytes() == lone.tobytes(), tables[t]


class TestProtoClassify:
    def test_equal_prototypes_give_uniform(self):
        protos = build_prototypes(xor_support(3))
        rng = rng_for(1)
        queries = rng.normal(size=(16, 3))
        probs = proto_classify(queries, protos)
        np.testing.assert_allclose(probs, 0.5, atol=1e-12)

    @pytest.mark.parametrize("tau_inv", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_tau_inv_rejected(self, tau_inv):
        with pytest.raises(ValueError, match="tau_inv"):
            proto_classify(np.zeros((1, 2)), build_prototypes(and_support()), tau_inv)

    def test_query_at_prototype_sharp(self):
        protos = build_prototypes(and_support())
        probs = proto_classify(np.array([[1.0, 1.0]]), protos, tau_inv=50.0)
        assert probs[0, 1] > 1.0 - 1e-12

    def test_translation_equivariance(self):
        support = and_support()
        shift = np.array([3.7, -1.2])
        shifted = LabeledSet(support.features + shift, support.labels, k=2)
        rng = rng_for(2)
        queries = rng.normal(size=(8, 2))
        a = proto_classify(queries, build_prototypes(support))
        b = proto_classify(queries + shift, build_prototypes(shifted))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_monothetic_task_solved_at_high_repetition(self):
        # one coordinate decides the class; the rest are symmetric noise
        rng = rng_for(3)
        r = 50
        labels = np.repeat([0, 1], r)
        feats = rng.choice([-1.0, 1.0], size=(2 * r, 5))
        feats[:, 0] = 2.0 * labels - 1.0
        support = LabeledSet(feats, labels, k=2)

        q_labels = np.repeat([0, 1], 200)
        q_feats = rng.choice([-1.0, 1.0], size=(400, 5))
        q_feats[:, 0] = 2.0 * q_labels - 1.0
        probs = proto_classify(q_feats, build_prototypes(support))
        accuracy = np.mean(predict(probs) == q_labels)
        assert accuracy > 0.95

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_parity_degeneracy(self, alpha):
        protos = build_prototypes(xor_support(alpha))
        gap = np.abs(protos.features[0] - protos.features[1]).max()
        assert gap < 1e-12


class TestProtoClassifyBitIdentity:
    @pytest.mark.parametrize("shape", [(6, 40, 14), (32, 8, 8), (25, 10, 5)])
    @pytest.mark.parametrize("tau_inv", [1.0, 2.0])
    def test_equals_softmax_reference(self, shape, tau_inv):
        rng = rng_for(sum(shape))
        feats = rng.choice([-1.0, 1.0], size=shape) + rng.normal(scale=0.1, size=shape)
        queries = rng.choice([-1.0, 1.0], size=(shape[0], 7, shape[2]))
        protos = build_prototypes(LabeledSet(feats, np.arange(shape[1]) % 2, k=2))
        neg_sq = similarity_matrix(AttentionConfig(Kernel.SQ_EUCLIDEAN), queries, protos.features)
        assert np.array_equal(proto_classify(queries, protos, tau_inv), softmax_reference(neg_sq, tau_inv))
