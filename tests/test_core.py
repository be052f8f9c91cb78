import json
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
    json_text,
    one_hot,
    task_from_json,
    task_seed,
    task_to_json,
)
from polyselect.prototypes import build_prototypes
from polyselect.selection import feature_scores
from polyselect.tasks import BooleanTaskSpec, gen_boolean_batch, gen_boolean_task


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

    def test_per_task_labels_give_per_task_rows(self):
        labels = np.array([[0, 2, 1, 2], [1, 1, 0, 0]])
        mat = one_hot(labels, 3)
        assert mat.shape == (2, 4, 3)
        for t in range(2):
            np.testing.assert_array_equal(mat[t], np.eye(3)[labels[t]])


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
    ids=["nan", "inf", "-inf", "np.float64-nan"],
)
def test_json_text_refuses_non_finite_floats(value):
    # JSON has no NaN or Infinity; a strict parser rejects a file holding them
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        json_text({"rows": [{"accuracy_mean": value}]})


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


_DELETE = object()


def _set(path: tuple, value):
    """An edit of a task file's object that sets the entry at path (keys and list indices) to value,
    or deletes it if value is _DELETE."""

    def edit(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        if value is _DELETE:
            del obj[last]
        else:
            obj[last] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: [1, 2], "a task file must be a JSON object, got [1, 2]"),
        (_set(("meta",), 5), "meta must be a JSON object, got 5"),
        (_set(("meta", "p"), None), "meta p must be a JSON number, got None"),
        (_set(("meta", "p"), "0.5"), "meta p must be a JSON number, got '0.5'"),
        (_set(("meta", "p"), True), "meta p must be a JSON number, got True"),
        (_set(("support", "features", 0, 1), "1"), "support feature must be a JSON number, got '1'"),
        (_set(("query", "features", 2, 0), True), "query feature must be a JSON number, got True"),
        (_set(("support",), _DELETE), "support is missing"),
        (_set(("query",), _DELETE), "query is missing"),
        (_set(("meta", "alpha"), _DELETE), "meta alpha is missing"),
        (_set(("meta", "encoding"), _DELETE), "meta encoding is missing"),
        (_set(("support", "k"), _DELETE), "support k is missing"),
        (_set(("query", "labels"), _DELETE), "query labels is missing"),
        (_set(("support", "features"), _DELETE), "support features is missing"),
        (_set(("meta", "encoding"), "x"), "meta encoding must be one of plus_minus, zero_one, got 'x'"),
        (_set(("meta", "encoding"), 1), "meta encoding must be a JSON string, got 1"),
    ],
    ids=["top_level_list", "meta_int", "meta_p_null", "meta_p_string", "meta_p_bool",
         "feature_string", "feature_bool", "missing_support", "missing_query", "missing_meta_alpha",
         "missing_meta_encoding", "missing_support_k", "missing_query_labels", "missing_support_features",
         "bad_meta_encoding", "meta_encoding_int"],
)
def test_task_from_json_rejects_bad_fields(edit, message):
    obj = json.loads(task_to_json(gen_boolean_task(BooleanTaskSpec(n=4, alpha=2, seed=3))))
    obj = edit(obj) or obj
    with pytest.raises(ValueError, match=re.escape(message)):
        task_from_json(json.dumps(obj))


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

    def test_stack_is_not_a_task_file(self):
        stack = gen_boolean_batch(BooleanTaskSpec(n=4, alpha=2), [1, 2])[0]
        message = "a task file holds one task: support features must be a list of rows, got shape (2, 4, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            task_to_json(stack)
        text = task_to_json(stack[0])
        assert task_to_json(task_from_json(text)) == text

    def test_stacked_labeled_set_shares_labels(self):
        feats = np.arange(12.0).reshape(2, 3, 2)
        ls = LabeledSet(feats, [0, 1, 0], k=2)
        assert (ls.rows, ls.cols) == (3, 2)
        assert ls.labels.shape == (3,)

    def test_indexing_picks_per_task_or_shared_query_labels(self):
        per_task = _stack(query_labels=[[0, 1, 0, 1, 0], [1, 1, 1, 0, 0]])
        np.testing.assert_array_equal(per_task[1].query.labels, [1, 1, 1, 0, 0])
        shared = _stack(query_labels=[0, 1, 1, 0, 1])
        np.testing.assert_array_equal(shared[1].query.labels, [0, 1, 1, 0, 1])
        np.testing.assert_array_equal(shared[1].support.labels, [0, 1, 0])

    def test_indexing_picks_each_tasks_own_support_labels(self):
        support = LabeledSet(np.ones((3, 3, 4)), [[0, 1, 0], [1, 1, 0], [0, 0, 1]], k=2)
        stack = Task(support, _stack(tasks=3).query)
        for t in range(3):
            np.testing.assert_array_equal(stack[t].support.labels, support.labels[t])
            np.testing.assert_array_equal(stack[t].support.features, support.features[t])

    def test_single_task_has_no_task_axis(self):
        with pytest.raises(ValueError, match="a single task has no task axis"):
            Task(_labeled(), _labeled())[0]

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: Task(LabeledSet(np.ones((2, 3, 4)), [0, 1, 0], 2), LabeledSet(np.ones((2, 5, 3)), [0] * 5, 2)),
             "support and query must have the same feature count"),
            (lambda: _stack(query_labels=np.zeros((2, 4))), "labels must be one per feature row"),
            pytest.param(lambda: _stack(query_labels=np.full((2, 5), 2)), "labels must lie in [0, 2)",
                         id="label 2 in every task"),
            pytest.param(lambda: _stack(query_labels=[[0] * 5, [0, 0, 0, 0, -1]]), "labels must lie in [0, 2)",
                         id="label -1 in one task"),
            pytest.param(
                lambda: Task(LabeledSet(np.ones((2, 3, 4)), [0, 1, 0], 2), LabeledSet(np.ones((3, 5, 4)), [0] * 5, 2)),
                "support and query must stack the same tasks", id="2 support tasks, 3 query tasks",
            ),
            pytest.param(
                lambda: Task(LabeledSet(np.ones((3, 4)), [0, 1, 0], 2), LabeledSet(np.ones((1, 5, 4)), [0] * 5, 2)),
                "support and query must stack the same tasks", id="single support, stacked query",
            ),
            (lambda: Task(LabeledSet(np.ones((1, 2, 3)), [0, 1], 2), LabeledSet(np.ones((1, 2, 3)), [0, 1], 2), _meta()),
             "meta describes a single task, not a stack"),
        ],
    )
    def test_rejects_bad_stacks(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_per_task_labels_rejected_where_shared_are_needed(self):
        # the scoring rounds slice class blocks out of the support; attend_probs takes per-task labels
        per_task = LabeledSet(np.arange(24.0).reshape(2, 3, 4), [[0, 1, 0], [1, 0, 1]], k=2)
        with pytest.raises(ValueError, match=re.escape("labels must be one row shared by every task")):
            feature_scores(per_task)

    def test_per_task_labels_taken_by_build_prototypes(self):
        per_task = LabeledSet(np.arange(24.0).reshape(2, 3, 4), [[0, 1, 0], [1, 0, 1]], k=2)
        protos = build_prototypes(per_task)
        assert protos.features.shape == (2, 2, 4)
        for t in range(2):
            lone = build_prototypes(LabeledSet(per_task.features[t], per_task.labels[t], k=2))
            assert protos.features[t].tobytes() == lone.features.tobytes()

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
        pytest.param(lambda: LabeledSet(np.zeros((2, 3)), [[0, 1]], 2),
                     "labels must be one per feature row, shared (rows,) or per task", id="a label row on one task"),
        pytest.param(lambda: LabeledSet(np.zeros((2, 3)), [0, 1, 1], 2),
                     "labels must be one per feature row, shared (rows,) or per task", id="3 labels on 2 rows"),
        pytest.param(lambda: LabeledSet(np.zeros((2, 2, 3)), [[0, 1]], 2),
                     "labels must be one per feature row, shared (rows,) or per task", id="1 label row on 2 tasks"),
        (lambda: LabeledSet(np.zeros((2, 3)), [0, 0], 1), "class count must be >= 2, got 1"),
        (lambda: LabeledSet(np.zeros((2, 3)), [0, 2], 2), "labels must lie in [0, 2)"),
        (lambda: _meta(alpha=2), "alpha must equal the number of active indices"),
        (lambda: _meta(active_indices=(), alpha=0), "alpha must be >= 1, got 0"),
        (lambda: _meta(active_indices=(1, 1), alpha=2), "active indices must be distinct, got [1, 1]"),
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
