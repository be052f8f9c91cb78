import numpy as np
import pytest

from polyselect.core import LabeledSet, rng_for
from polyselect.kernels import predict
from polyselect.prototypes import build_prototypes, proto_classify

from test_kernels import and_support, xor_support


class TestBuildPrototypes:
    def test_complete_xor_prototypes_coincide(self):
        protos = build_prototypes(xor_support(2))
        np.testing.assert_allclose(protos.means, np.zeros((2, 2)), atol=1e-15)

    def test_and_corner_means(self):
        protos = build_prototypes(and_support())
        np.testing.assert_allclose(protos.means[1], [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(protos.means[0], [-1.0 / 3.0, -1.0 / 3.0], atol=1e-15)

    def test_singleton_classes(self):
        feats = np.array([[2.0, 1.0], [-3.0, 0.5]])
        protos = build_prototypes(LabeledSet(feats, [0, 1], k=2))
        np.testing.assert_array_equal(protos.means, feats)

    def test_empty_class_rejected(self):
        support = LabeledSet(np.ones((2, 2)), [0, 0], k=2)
        with pytest.raises(ValueError):
            build_prototypes(support)


class TestStackedPrototypes:
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
        gap = np.abs(protos.means[0] - protos.means[1]).max()
        assert gap < 1e-12
