import numpy as np
import pytest

from polyselect.core import LabeledSet, rng_for
from polyselect.kernels import AttentionConfig, Kernel, predict, similarity_matrix
from polyselect.prototypes import build_prototypes, proto_classify

from test_kernels import and_support, softmax_reference, xor_support


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
