import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyselect.core import (
    Encoding,
    LabeledSet,
    Task,
    TaskMeta,
    encode_bits,
    one_hot,
    task_from_json,
    task_seed,
    task_to_json,
)
from polyselect.kernels import AttentionConfig, attend_probs
from polyselect.prototypes import build_prototypes
from polyselect.selection import feature_scores
from polyselect.tasks import BooleanTaskSpec, gen_boolean_task


class TestOneHot:
    def test_basic(self):
        np.testing.assert_array_equal(one_hot([0, 1, 0], 2), [[1, 0], [0, 1], [1, 0]])

    def test_single_row(self):
        np.testing.assert_array_equal(one_hot([0], 3), [[1, 0, 0]])

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            one_hot([2], 2)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=50))
    def test_row_and_column_sums(self, labels):
        mat = one_hot(labels, 5)
        np.testing.assert_array_equal(mat.sum(axis=1), np.ones(len(labels)))
        counts = np.bincount(labels, minlength=5)
        np.testing.assert_array_equal(mat.sum(axis=0), counts)


class TestEncodeBits:
    def test_plus_minus(self):
        np.testing.assert_array_equal(encode_bits([1, 0], Encoding.PLUS_MINUS), [1.0, -1.0])

    def test_zero_one_identity(self):
        np.testing.assert_array_equal(encode_bits([1, 0], Encoding.ZERO_ONE), [1.0, 0.0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            encode_bits([2], Encoding.PLUS_MINUS)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    @pytest.mark.parametrize("scheme", list(Encoding))
    def test_encode_rejects_non_bits(self, bad, scheme):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            encode_bits([1, bad, 0], scheme)


class TestTaskSeed:
    def test_deterministic(self):
        assert task_seed(123, 45) == task_seed(123, 45)

    def test_distinct_indices(self):
        assert task_seed(7, 0) != task_seed(7, 1)

    def test_golden_values(self):
        # splitmix64 finalizer outputs, computed once and frozen
        assert task_seed(0, 0) == 0
        assert task_seed(0, 1) == 16294208416658607535
        assert task_seed(42, 7) == 4028864712777624925

    def test_pure_over_many_calls(self):
        first = task_seed(99, 1)
        assert all(task_seed(99, 1) == first for _ in range(10_000))


class TestTaskModel:
    def test_validation_rejects_mismatched_dims(self):
        sup = LabeledSet(np.ones((2, 3)), [0, 1], k=2)
        qry = LabeledSet(np.ones((2, 4)), [0, 1], k=2)
        with pytest.raises(ValueError):
            Task(support=sup, query=qry)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LabeledSet(np.array([[np.nan, 1.0]]), [0], k=2)

    def test_arrays_locked(self):
        sup = LabeledSet(np.ones((2, 3)), [0, 1], k=2)
        with pytest.raises(ValueError):
            sup.features[0, 0] = 5.0

    def test_json_roundtrip(self):
        task = gen_boolean_task(BooleanTaskSpec(n=6, alpha=2, p=0.3, r=2, seed=11))
        back = task_from_json(task_to_json(task))
        np.testing.assert_array_equal(back.support.features, task.support.features)
        np.testing.assert_array_equal(back.query.labels, task.query.labels)
        assert back.meta == task.meta

    def test_same_seed_serializes_identically(self):
        spec = BooleanTaskSpec(n=8, alpha=3, p=0.5, r=1, seed=5)
        assert task_to_json(gen_boolean_task(spec)) == task_to_json(gen_boolean_task(spec))


def _stack(tasks=2, rows=3, queries=5, n=4, query_labels=None) -> Task:
    support = LabeledSet(np.ones((tasks, rows, n)), [0, 1, 0][:rows], k=2)
    labels = np.zeros((tasks, queries), dtype=int) if query_labels is None else query_labels
    return Task(support, LabeledSet(np.ones((tasks, queries, n)), labels, k=2))


class TestTaskStack:
    def test_stack_of_one_roundtrip(self):
        task = gen_boolean_task(BooleanTaskSpec(n=6, alpha=2, p=0.3, r=2, seed=11))
        s, q = task.support, task.query
        stack = Task(LabeledSet(s.features[None], s.labels, s.k), LabeledSet(q.features[None], q.labels[None], q.k))
        assert stack.support.features.shape == (1, 8, 6)
        assert stack[0].meta is None
        assert task_to_json(stack[0]) == task_to_json(replace(task, meta=None))

    def test_stacked_labeled_set_shares_labels(self):
        feats = np.arange(12.0).reshape(2, 3, 2)
        ls = LabeledSet(feats, [0, 1, 0], k=2)
        assert (ls.rows, ls.cols) == (3, 2)
        np.testing.assert_array_equal(ls.class_rows(0), feats[:, [0, 2], :])

    def test_indexing_picks_per_task_or_shared_query_labels(self):
        per_task = _stack(query_labels=[[0, 1, 0, 1, 0], [1, 1, 1, 0, 0]])
        np.testing.assert_array_equal(per_task[1].query.labels, [1, 1, 1, 0, 0])
        shared = _stack(query_labels=[0, 1, 1, 0, 1])
        np.testing.assert_array_equal(shared[1].query.labels, [0, 1, 1, 0, 1])
        np.testing.assert_array_equal(shared[1].support.labels, [0, 1, 0])

    def test_single_task_has_no_task_axis(self):
        with pytest.raises(ValueError, match="a single task has no task axis"):
            Task(_labeled(), _labeled())[0]

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: Task(LabeledSet(np.ones((2, 3, 4)), [0, 1, 0], 2), LabeledSet(np.ones((2, 5, 3)), [0] * 5, 2)),
             "support and query must have the same feature count"),
            (lambda: _stack(query_labels=np.zeros((2, 4))), "labels must be one per feature row"),
            (lambda: _stack(query_labels=np.full((2, 5), 2)), "labels must lie in [0, 2)"),
            (lambda: _stack(query_labels=[[0] * 5, [0, 0, 0, 0, -1]]), "labels must lie in [0, 2)"),
            (lambda: Task(LabeledSet(np.ones((2, 3, 4)), [0, 1, 0], 2), LabeledSet(np.ones((3, 5, 4)), [0] * 5, 2)),
             "support and query must stack the same tasks"),
            (lambda: Task(LabeledSet(np.ones((3, 4)), [0, 1, 0], 2), LabeledSet(np.ones((1, 5, 4)), [0] * 5, 2)),
             "support and query must stack the same tasks"),
            (lambda: Task(LabeledSet(np.ones((2, 3, 4)), [[0, 1, 0], [1, 0, 1]], 2), _stack().query),
             "support labels must be shared by every task"),
            (lambda: Task(LabeledSet(np.ones((1, 2, 3)), [0, 1], 2), LabeledSet(np.ones((1, 2, 3)), [0, 1], 2), _meta()),
             "meta describes a single task, not a stack"),
        ],
    )
    def test_rejects_bad_stacks(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    @pytest.mark.parametrize(
        "call",
        [
            lambda ls: attend_probs(np.ones((2, 1, 4)), ls, AttentionConfig()),
            build_prototypes,
            feature_scores,
        ],
        ids=["attend_probs", "build_prototypes", "feature_scores"],
    )
    def test_per_task_labels_rejected_where_shared_are_needed(self, call):
        per_task = LabeledSet(np.arange(24.0).reshape(2, 3, 4), [[0, 1, 0], [1, 0, 1]], k=2)
        with pytest.raises(ValueError, match=re.escape("labels must be one row shared by every task")):
            call(per_task)

    def test_rejects_nonfinite_queries(self):
        sup = LabeledSet(np.ones((1, 2, 2)), [0, 1], k=2)
        with pytest.raises(ValueError, match="non-finite"):
            Task(sup, LabeledSet(np.full((1, 1, 2), np.inf), [[0]], k=2))


def _meta(**changes) -> TaskMeta:
    fields = dict(active_indices=(0,), alpha=1, beta_irrelevant=2, p=0.5, r=1,
                  encoding=Encoding.PLUS_MINUS, seed=0)
    return TaskMeta(**{**fields, **changes})


def _labeled(k: int = 2) -> LabeledSet:
    return LabeledSet(np.zeros((2, 3)), [0, 1], k)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: LabeledSet(np.zeros(3), [0], 2), "feature matrix must be at least 2-d, got shape (3,)"),
        (lambda: LabeledSet(np.zeros((0, 3)), [], 2), "feature matrix must be non-empty, got shape (0, 3)"),
        (lambda: LabeledSet(np.zeros((2, 3)), [[0, 1]], 2), "labels must be one per feature row, shared (rows,) or per task"),
        (lambda: LabeledSet(np.zeros((2, 3)), [0, 1, 1], 2), "labels must be one per feature row, shared (rows,) or per task"),
        (lambda: LabeledSet(np.zeros((2, 2, 3)), [[0, 1]], 2), "labels must be one per feature row, shared (rows,) or per task"),
        (lambda: one_hot([[0, 1]], 2), "labels must be one row shared by every task, got shape (1, 2)"),
        (lambda: LabeledSet(np.zeros((2, 2, 3)), [[0, 1], [1, 0]], 2).class_rows(0),
         "labels must be one row shared by every task, got shape (2, 2)"),
        (lambda: LabeledSet(np.zeros((2, 3)), [0, 0], 1), "class count must be >= 2, got 1"),
        (lambda: LabeledSet(np.zeros((2, 3)), [0, 2], 2), "labels must lie in [0, 2)"),
        (lambda: _meta(alpha=2), "alpha must equal the number of active indices"),
        (lambda: _meta(beta_irrelevant=-1), "irrelevant feature count must be >= 0"),
        (lambda: _meta(p=1.5), "p must lie in [0, 1], got 1.5"),
        (lambda: _meta(r=0), "variant repetition count must be >= 1, got 0"),
        (lambda: Task(_labeled(2), _labeled(3)), "support and query must have the same class count"),
        (lambda: Task(_labeled(), _labeled(), _meta(beta_irrelevant=1)),
         "alpha + beta_irrelevant must equal feature count"),
        (lambda: Task(_labeled(), _labeled(), _meta(active_indices=(3,))), "active indices out of range"),
    ],
)
def test_constructors_reject_bad_input(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()
