import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyselect.boolefn import corners
from polyselect.core import Encoding, task_seed, task_to_json
from polyselect.tasks import (
    BooleanTaskSpec,
    SphereTaskSpec,
    gen_boolean_batch,
    gen_boolean_task,
    gen_sphere_task,
)


def _complete_support(alpha: int, encoding: Encoding = Encoding.ZERO_ONE):
    # with n = alpha every feature is active, and r = 1 lists each variant once
    return gen_boolean_task(BooleanTaskSpec(n=alpha, alpha=alpha, r=1, encoding=encoding)).support


def _labels_of(bits) -> np.ndarray:
    """The label the generator gives to the active 0/1 pattern bits."""
    support = _complete_support(len(bits))
    return support.labels[(support.features == np.array(bits)).all(axis=1)]


class TestParity:
    """The package's one label rule: class 1 iff prod of the +-1 active values is -1."""

    def test_product_over_active(self):
        # bits (1, 0, 1) are the +-1 values (1, -1, 1), whose product is -1
        assert _labels_of([1, 0, 1]).tolist() == [1]
        assert _labels_of([0, 0, 1]).tolist() == [0]

    def test_single_index(self):
        assert _labels_of([1]).tolist() == [0]
        assert _labels_of([0]).tolist() == [1]

    @given(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=8), st.integers(0, 7))
    def test_single_flip_flips_parity(self, bits, pos):
        pos = pos % len(bits)
        flipped = list(bits)
        flipped[pos] = 1 - flipped[pos]
        assert _labels_of(bits)[0] == 1 - _labels_of(flipped)[0]

    def test_label_mapping(self):
        # variant i is boolefn.corners row i with the inputs reversed
        for alpha in range(1, 9):
            support = _complete_support(alpha, Encoding.PLUS_MINUS)
            rows = corners(alpha)[:, ::-1]
            np.testing.assert_array_equal(support.features, rows)
            expected = (np.prod(rows, axis=1) == -1).astype(np.int64)
            np.testing.assert_array_equal(support.labels, expected)


class TestBooleanTasks:
    def test_support_size(self):
        task = gen_boolean_task(BooleanTaskSpec(n=6, alpha=2, p=0.5, r=5, seed=0))
        assert task.support.rows == 5 * 2**2

    def test_variant_counts_exact(self):
        task = gen_boolean_task(BooleanTaskSpec(n=8, alpha=3, p=0.5, r=4, seed=1))
        active = list(task.meta.active_indices)
        patterns = task.support.features[:, active]
        uniq, counts = np.unique(patterns, axis=0, return_counts=True)
        assert uniq.shape[0] == 2**3
        assert np.all(counts == 4)

    def test_class_balance_exact(self):
        task = gen_boolean_task(BooleanTaskSpec(n=7, alpha=3, p=0.2, r=3, seed=2))
        assert (task.support.labels == 0).sum() == (task.support.labels == 1).sum()

    def test_labels_recovered_from_parity(self):
        # class 1 exactly when the product of the active +-1 coordinates is -1
        for seed in range(20):
            task = gen_boolean_task(BooleanTaskSpec(n=9, alpha=4, p=0.7, r=2, seed=seed))
            idx = list(task.meta.active_indices)
            for ls in (task.support, task.query):
                chi = np.prod(ls.features[:, idx], axis=1)
                assert set(chi.tolist()) <= {-1.0, 1.0}
                np.testing.assert_array_equal(ls.labels, (chi == -1).astype(np.int64))

    def test_deterministic_given_seed(self):
        spec = BooleanTaskSpec(n=10, alpha=3, p=0.5, r=2, seed=77)
        assert task_to_json(gen_boolean_task(spec)) == task_to_json(gen_boolean_task(spec))

    def test_seed_isolation(self):
        a = gen_boolean_task(BooleanTaskSpec(n=10, alpha=3, p=0.5, r=2, seed=1))
        b = gen_boolean_task(BooleanTaskSpec(n=10, alpha=3, p=0.5, r=2, seed=2))
        assert task_to_json(a) != task_to_json(b)

    def test_zero_one_encoding(self):
        task = gen_boolean_task(
            BooleanTaskSpec(n=5, alpha=2, p=0.5, r=1, seed=3, encoding=Encoding.ZERO_ONE)
        )
        assert np.isin(task.support.features, (0.0, 1.0)).all()

    def test_irrelevant_feature_marginal(self):
        """Noise features are Bernoulli(p): empirical mean within 3 SE."""
        p = 0.3
        count = 10_000
        values = np.empty(count)
        for t in range(count):
            task = gen_boolean_task(
                BooleanTaskSpec(n=3, alpha=1, p=p, r=1, query_count=1, seed=task_seed(5, t))
            )
            noise = [i for i in range(3) if i not in task.meta.active_indices]
            values[t] = task.support.features[0, noise[0]]
        expected_mean = 2 * p - 1  # plus/minus encoding of Bernoulli(p)
        se = 2 * np.sqrt(p * (1 - p) / count)
        assert abs(values.mean() - expected_mean) <= 3 * se


# sha256 of task_to_json, frozen from the one-task-at-a-time generator that
# preceded gen_boolean_batch: the batched draws must reproduce every byte.
PINNED_TASKS = [
    (BooleanTaskSpec(n=1, alpha=1, p=0.5, r=1, query_count=1, seed=0),
     "2a4d311c2413b7689792adb561fa5520f4f9be6966a476b14948522a20316559"),
    (BooleanTaskSpec(n=6, alpha=2, p=0.3, r=2, query_count=5, seed=11),
     "9052bb1b4fab042857063fdb80985aae58feb145fb4f4627d3cf7800f1389c5b"),
    (BooleanTaskSpec(n=9, alpha=4, p=0.7, r=3, query_count=32, seed=2**64 - 1),
     "3529a359ab205e274ed314190ac78676d80ae8333eb320a3f5074e27c25d983b"),
    (BooleanTaskSpec(n=10, alpha=3, p=0.0, r=1, query_count=7, encoding=Encoding.ZERO_ONE, seed=5),
     "7c8aba40a3d813fe37a1c643ff8dfaa94bc3c8a9e54c8e8162e08e516443a992"),
    (BooleanTaskSpec(n=8, alpha=3, p=1.0, r=4, query_count=3, encoding=Encoding.ZERO_ONE,
                     seed=123456789),
     "6d08cec07d749dd39700f046301d0eb864057d67ade5f118ab4431d3adef7ef7"),
    (BooleanTaskSpec(n=14, alpha=4, p=0.5, r=5, query_count=32, seed=16294208416658607535),
     "f0b743dd725527b5aaaf43697e4b06a08c8ea76c00601a6c753ef50a606c1221"),
]


class TestBooleanBatch:
    @pytest.mark.parametrize("spec, digest", PINNED_TASKS)
    def test_task_json_bytes_pinned(self, spec, digest):
        assert hashlib.sha256(task_to_json(gen_boolean_task(spec)).encode()).hexdigest() == digest

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_batch_rows_equal_lone_tasks(self, encoding):
        base = BooleanTaskSpec(n=7, alpha=3, p=0.4, r=2, query_count=9, encoding=encoding)
        seeds = [task_seed(3, t) for t in range(6)]
        stack, active = gen_boolean_batch(base, seeds)
        assert stack.support.features.shape == (6, 16, 7)
        assert stack.query.labels.shape == (6, 9)
        assert stack.meta is None and active.shape == (6, 3)
        for t, seed in enumerate(seeds):
            lone = gen_boolean_task(replace(base, seed=seed))
            assert task_to_json(stack[t]) == task_to_json(replace(lone, meta=None))
            assert tuple(active[t]) == lone.meta.active_indices

    @pytest.mark.parametrize("p, bit", [(0.0, 0), (1.0, 1)])
    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_constant_noise_bit_encoded(self, encoding, p, bit):
        # p = 0 (1) makes every noise bit 0 (1): plus/minus writes it as -1 (+1), zero/one as is
        expected = 2.0 * bit - 1.0 if encoding is Encoding.PLUS_MINUS else float(bit)
        spec = BooleanTaskSpec(n=6, alpha=2, p=p, r=2, query_count=5, encoding=encoding)
        stack, active = gen_boolean_batch(spec, [task_seed(8, t) for t in range(4)])
        for t in range(4):
            noise = np.setdiff1d(np.arange(6), active[t])
            for features in (stack.support.features[t], stack.query.features[t]):
                assert (features[:, noise] == expected).all()

    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_plus_minus_is_zero_one_rescaled(self, p):
        # both encodings draw the same bits; plus/minus maps each bit b to 2b - 1
        seeds = [task_seed(9, t) for t in range(5)]
        base = BooleanTaskSpec(n=7, alpha=3, p=p, r=2, query_count=6)
        pm, pm_active = gen_boolean_batch(replace(base, encoding=Encoding.PLUS_MINUS), seeds)
        zo, zo_active = gen_boolean_batch(replace(base, encoding=Encoding.ZERO_ONE), seeds)
        np.testing.assert_array_equal(pm_active, zo_active)
        assert np.isin(zo.support.features, (0.0, 1.0)).all()
        for a, b in ((pm.support, zo.support), (pm.query, zo.query)):
            np.testing.assert_array_equal(a.features, 2.0 * b.features - 1.0)
            np.testing.assert_array_equal(a.labels, b.labels)


class TestSphereTasks:
    def test_unit_norms(self):
        task = gen_sphere_task(SphereTaskSpec(sample_count=500, seed=0))
        norms = np.linalg.norm(task.support.features, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_label_rule(self):
        task = gen_sphere_task(SphereTaskSpec(sample_count=200, seed=1))
        pts = task.support.features
        expected = (np.sign(pts[:, 0]) * np.sign(pts[:, 1]) < 0).astype(int)
        np.testing.assert_array_equal(task.support.labels, expected)

    def test_class_balance(self):
        task = gen_sphere_task(SphereTaskSpec(sample_count=10_000, seed=2))
        frac = task.support.labels.mean()
        assert 0.48 <= frac <= 0.52

    def test_no_degenerate_coordinates(self):
        task = gen_sphere_task(SphereTaskSpec(sample_count=1000, seed=3))
        assert np.abs(task.support.features[:, :2]).min() >= 1e-6

    def test_deterministic(self):
        spec = SphereTaskSpec(sample_count=64, seed=9)
        a, b = gen_sphere_task(spec), gen_sphere_task(spec)
        np.testing.assert_array_equal(a.support.features, b.support.features)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            SphereTaskSpec(sample_count=3, seed=0)


@pytest.mark.parametrize(
    "changes,message",
    [
        (dict(p=1.5), "p must lie in [0, 1]"),
        (dict(r=0), "r must be >= 1"),
        (dict(query_count=0), "query_count must be >= 1"),
    ],
)
def test_boolean_spec_rejects_bad_fields(changes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BooleanTaskSpec(**{**dict(n=4, alpha=2), **changes})
