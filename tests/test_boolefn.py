import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import polyselect
from polyselect import boolefn
from polyselect.boolefn import (
    BooleanFunction,
    ThresholdWitness,
    best_threshold_agreement,
    corners,
    count_threshold,
    is_threshold,
    threshold_stats,
    threshold_tables,
    verify_xor_worst,
    xor_function,
    xor_max_accuracy,
)


def _corner_permutations(n: int) -> list[np.ndarray]:
    """Corner index maps for every signed permutation of the inputs."""
    maps = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            pi = np.empty(2**n, dtype=np.int64)
            for i in range(2**n):
                j = 0
                for k in range(n):
                    bit = (i >> perm[k]) & 1
                    if (1 if bit else -1) * signs[k] == 1:
                        j |= 1 << k
                pi[i] = j
            maps.append(pi)
    return maps


def _table_bits(values: np.ndarray, n: int) -> np.ndarray:
    """(len(values), 2^n) bit matrix of integer truth tables."""
    return (values[:, None] >> np.arange(2**n, dtype=np.uint64)[None, :]) & np.uint64(1)


def _permuted(bits: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Integer tables after moving bit i of every row to bit pi[i]."""
    return bits @ (np.uint64(1) << pi.astype(np.uint64))


def _lp_threshold_tables(n: int) -> np.ndarray:
    """Reference set: one exact LP per class of the symmetry group that preserves
    threshold-ness (signed input permutations and output complement), with the
    decision transferred along the orbit."""
    total = 2 ** (2**n)
    values = np.arange(total, dtype=np.uint64)
    bits = _table_bits(values, n)
    full = np.uint64(total - 1)
    canon = values.copy()
    for pi in _corner_permutations(n):
        permuted = _permuted(bits, pi)
        np.minimum(canon, permuted, out=canon)
        np.minimum(canon, full - permuted, out=canon)
    reps = np.unique(canon)
    decided = np.array(
        [is_threshold(BooleanFunction.from_int(n, int(r))) is not None for r in reps]
    )
    return values[decided[np.searchsorted(reps, canon)]]


def _scan_agreements(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference all-pairs scan: the popcount distance of every function to
    every threshold table, giving each function's best agreement and the
    first table that attains it."""
    tables = threshold_tables(n)
    tables16 = tables.astype(np.uint16)
    best = np.empty(2 ** (2**n), dtype=np.int64)
    nearest = np.empty(2 ** (2**n), dtype=np.uint64)
    for start in range(0, best.shape[0], 4096):  # a 4096 x 1882 uint16 block is 15 MB
        block = np.arange(start, min(start + 4096, best.shape[0]), dtype=np.uint16)
        distance = np.bitwise_count(block[:, None] ^ tables16[None, :])
        first = distance.argmin(axis=1)
        rows = slice(start, start + block.shape[0])
        best[rows] = 2**n - distance[np.arange(block.shape[0]), first]
        nearest[rows] = tables[first]
    return best, nearest


class TestCornerOrder:
    def test_pinned_order_n2(self):
        assert corners(2) == [(-1, -1), (1, -1), (-1, 1), (1, 1)]

    def test_bit_one_maps_to_plus(self):
        assert corners(3)[0b101] == (1, -1, 1)


class TestBooleanFunction:
    def test_int_roundtrip(self):
        fn = BooleanFunction.from_int(2, 0b0110)
        assert fn.truth_table == (0, 1, 1, 0)
        assert fn.to_int() == 6
        assert BooleanFunction.from_hex(2, fn.to_hex()) == fn

    def test_length_validation(self):
        with pytest.raises(ValueError):
            BooleanFunction(2, (0, 1, 0))

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            BooleanFunction(1, (0, 2))

    def test_xor_table(self):
        assert xor_function(2).truth_table == (0, 1, 1, 0)


class TestIsThreshold:
    def test_and_has_witness(self):
        and2 = BooleanFunction(2, (0, 0, 0, 1))
        witness = is_threshold(and2)
        assert witness is not None
        assert witness.verify(and2)

    def test_xor_has_none(self):
        assert is_threshold(xor_function(2)) is None

    def test_constant_true(self):
        fn = BooleanFunction(2, (1, 1, 1, 1))
        witness = is_threshold(fn)
        assert witness is not None and witness.verify(fn)

    def test_hand_witness_verifies(self):
        and2 = BooleanFunction(2, (0, 0, 0, 1))
        manual = ThresholdWitness(weights=(Fraction(1), Fraction(1)), threshold=Fraction(1))
        assert manual.verify(and2)
        assert not manual.verify(xor_function(2))

    def test_majority_n3(self):
        table = []
        for x in corners(3):
            table.append(1 if sum(x) > 0 else 0)
        witness = is_threshold(BooleanFunction(3, tuple(table)))
        assert witness is not None

    def test_complement_closure_all_n_le_3(self):
        """f is a threshold function iff its complement is (negate w and t)."""
        for n in (1, 2, 3):
            tables = set(int(v) for v in threshold_tables(n))
            full = 2 ** (2**n) - 1
            for v in range(full + 1):
                assert (v in tables) == ((full ^ v) in tables)


class TestCounts:
    def test_small_counts(self):
        assert count_threshold(1) == 4
        assert count_threshold(2) == 14
        assert count_threshold(3) == 104

    def test_counts_below_square_exponent_bound(self):
        for n in (2, 3):
            assert count_threshold(n) < 2 ** (n * n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumeration_equals_exact_lp(self, n):
        tables = threshold_tables(n)
        assert tables.dtype == np.uint64
        assert np.array_equal(tables, _lp_threshold_tables(n))

    def test_n4_set_closed_under_symmetries(self):
        tables = threshold_tables(4)
        bits = _table_bits(tables, 4)
        for pi in _corner_permutations(4):
            assert np.array_equal(np.sort(_permuted(bits, pi)), tables)
        assert np.array_equal(np.sort(np.uint64(2**16 - 1) - tables), tables)

    def test_enumeration_bound(self):
        with pytest.raises(ValueError):
            count_threshold(5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dedup_equals_np_unique(self, n, monkeypatch):
        packed = []
        sort = np.sort

        def spy(a, *args, **kwargs):
            packed.append(np.array(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", spy)
        tables = threshold_tables(n)
        monkeypatch.undo()
        assert len(packed) == 1
        assert np.array_equal(tables, np.unique(packed[0]))
        assert tables.dtype == np.uint64

    def test_enumeration_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on first use, which costs a cold start
        code = (
            "import sys; from polyselect.boolefn import threshold_tables; "
            "threshold_tables(4); print('numpy.ma' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(polyselect.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_every_enumerated_table_has_exact_witness(self):
        rng = np.random.default_rng(0)
        tables = threshold_tables(3)
        sample = rng.choice(tables, size=20, replace=False)
        for v in sample:
            fn = BooleanFunction.from_int(3, int(v))
            witness = is_threshold(fn)
            assert witness is not None and witness.verify(fn)

    def test_non_members_are_not_threshold(self):
        tables = set(int(v) for v in threshold_tables(2))
        for v in range(16):
            assert (is_threshold(BooleanFunction.from_int(2, v)) is not None) == (v in tables)


class TestAgreement:
    def test_xor2_best_agreement(self):
        agreement, witness = best_threshold_agreement(xor_function(2))
        assert agreement == 3

    def test_threshold_functions_agree_perfectly(self):
        and2 = BooleanFunction(2, (0, 0, 0, 1))
        agreement, witness = best_threshold_agreement(and2)
        assert agreement == 4
        assert witness.verify(and2)

    def test_xor4_best_agreement(self):
        agreement, _ = best_threshold_agreement(xor_function(4))
        assert agreement == 11

    def test_closed_form_values(self):
        assert [xor_max_accuracy(n) for n in (2, 3, 4, 5)] == [3, 6, 11, 22]
        assert xor_max_accuracy(2) / 4 == 0.75

    def test_missing_witness_raises(self, monkeypatch):
        monkeypatch.setattr(boolefn, "is_threshold", lambda fn: None)
        with pytest.raises(AssertionError):
            best_threshold_agreement(xor_function(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_transform_equals_all_pairs_scan(self, n):
        best, _ = _scan_agreements(n)
        agreements = boolefn._agreements(n)
        assert agreements.shape == (2 ** (2**n),)
        assert np.array_equal(agreements, best)

    def test_witness_is_first_nearest_table(self, monkeypatch):
        best, nearest = _scan_agreements(4)
        full = 2**16 - 1
        rng = np.random.default_rng(7)
        sample = [int(v) for v in rng.choice(2**16, size=96, replace=False)]
        sample += [int(v) for v in rng.choice(threshold_tables(4), size=8, replace=False)]
        sample += [xor_function(4).to_int()]
        sample += [full ^ v for v in sample]
        assert len(set(sample)) >= 200
        seen = []

        def record(fn):
            seen.append(fn.to_int())
            return ThresholdWitness(weights=(Fraction(0),) * fn.n, threshold=Fraction(0))

        monkeypatch.setattr(boolefn, "is_threshold", record)
        for v in sample:
            agreement, _ = best_threshold_agreement(BooleanFunction.from_int(4, v))
            assert agreement == best[v]
            assert seen[-1] == nearest[v]
        monkeypatch.undo()
        # the exact LP's witness cuts exactly that table
        xor4 = xor_function(4)
        _, witness = best_threshold_agreement(xor4)
        assert witness.verify(BooleanFunction.from_int(4, int(nearest[xor4.to_int()])))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: verify_xor_worst(5),
            lambda: threshold_stats(5),
            lambda: best_threshold_agreement(xor_function(5)),
        ],
        ids=["verify_xor_worst", "threshold_stats", "best_threshold_agreement"],
    )
    def test_n5_rejected_before_any_allocation(self, call, monkeypatch):
        # n=5 has 2^32 truth tables: the bound must fire before any array exists
        def refuse(*args, **kwargs):
            raise AssertionError("array built before the enumeration bound")

        for name in ("arange", "array", "empty", "full", "ones", "zeros"):
            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(ValueError, match="whole-cube enumeration supports n in"):
            call()

    def test_agreement_never_below_majority(self):
        holds, _ = verify_xor_worst(2)
        # the scan's minimum equals the parity bound, which is >= half the cube
        assert xor_max_accuracy(2) >= 2


class TestWorstCase:
    @pytest.mark.parametrize("n", [2, 3])
    def test_parity_is_worst(self, n):
        holds, offenders = verify_xor_worst(n)
        assert holds
        assert xor_function(n).to_int() in offenders
        assert xor_function(n).complement().to_int() in offenders


class TestStats:
    def test_n1_all_solved(self):
        assert threshold_stats(1) == (1.0, 1.0)

    def test_n2_exact(self):
        solved, mean_acc = threshold_stats(2)
        assert solved == 0.875
        assert mean_acc == 0.96875
