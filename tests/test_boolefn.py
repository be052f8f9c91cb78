import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import polyselect
from polyselect import boolefn
from polyselect.boolefn import (
    ThresholdWitness,
    best_threshold_agreement,
    corners,
    threshold_stats,
    threshold_tables,
    verify_xor_worst,
    xor_max_accuracy,
)


def _parity(n: int) -> int:
    """Parity's truth table: bit i is set when corner i has an odd number of -1s."""
    return sum(1 << i for i, x in enumerate(corners(n).tolist()) if math.prod(x) == -1)


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


def _margin_feasible(rows: list[tuple[int, ...]]) -> list[Fraction] | None:
    """Exact phase-1 simplex for the system A.u >= 1 with u free.

    Free variables split into positive parts, surplus variables bring rows to
    equalities, and artificials give the starting basis.  Bland's rule on the
    structural columns guarantees termination; an artificial never re-enters
    the basis, which preserves completeness for pure feasibility.  Returns a
    feasible u or None when the optimal artificial sum is nonzero (the exact
    proof of infeasibility).
    """
    m = len(rows)
    d = len(rows[0])
    nstruct = 2 * d + m
    ncols = nstruct + m
    zero = Fraction(0)
    one = Fraction(1)

    tableau: list[list[Fraction]] = []
    for i, a in enumerate(rows):
        row = [Fraction(c) for c in a] + [Fraction(-c) for c in a]
        row += [-one if j == i else zero for j in range(m)]
        row += [one if j == i else zero for j in range(m)]
        row.append(one)
        tableau.append(row)
    basis = [nstruct + i for i in range(m)]

    # reduced costs of structural columns under the all-artificial basis
    reduced = [zero] * nstruct
    for j in range(nstruct):
        s = zero
        for i in range(m):
            s += tableau[i][j]
        reduced[j] = -s

    while True:
        enter = -1
        for j in range(nstruct):  # Bland: first improving structural column
            if reduced[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][ncols] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:  # phase-1 objective is bounded below; unreachable
            return None
        pivot = tableau[leave][enter]
        pivot_row = [v / pivot for v in tableau[leave]]
        tableau[leave] = pivot_row
        for i in range(m):
            if i != leave:
                f = tableau[i][enter]
                if f != 0:
                    tableau[i] = [a - f * b for a, b in zip(tableau[i], pivot_row)]
        f = reduced[enter]
        if f != 0:
            for j in range(nstruct):
                reduced[j] -= f * pivot_row[j]
        basis[leave] = enter

    infeasibility = sum(tableau[i][ncols] for i in range(m) if basis[i] >= nstruct)
    if infeasibility != 0:
        return None
    parts = [zero] * (2 * d)
    for i, b in enumerate(basis):
        if b < 2 * d:
            parts[b] = tableau[i][ncols]
    return [parts[j] - parts[d + j] for j in range(d)]


def _lp_is_threshold(n: int, table: int) -> ThresholdWitness | None:
    """Exact LP threshold decision, independent of the weight box: an integer
    witness (the rational solution with its denominators cleared, which keeps
    every strict inequality) when one exists, else None."""
    rows = []
    for i, x in enumerate(corners(n).tolist()):
        s = 1 if (table >> i) & 1 else -1
        rows.append(tuple(s * c for c in x) + (-s,))
    u = _margin_feasible(rows)
    if u is None:
        return None
    scale = math.lcm(*(v.denominator for v in u))
    witness = ThresholdWitness(
        weights=tuple(int(v * scale) for v in u[:n]), threshold=int(u[n] * scale)
    )
    if not witness.verify(table):  # soundness guard; a correct solve always passes
        raise AssertionError("simplex produced an invalid witness")
    return witness


def _run_fresh(code: str) -> str:
    """Standard output of code run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(polyselect.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


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
    decided = np.array([_lp_is_threshold(n, int(r)) is not None for r in reps])
    return values[decided[np.searchsorted(reps, canon)]]


def _scan_agreements(n: int) -> np.ndarray:
    """Reference all-pairs scan: each function's best agreement from the
    popcount distance to every threshold table."""
    tables16 = threshold_tables(n).astype(np.uint16)
    best = np.empty(2 ** (2**n), dtype=np.int64)
    for start in range(0, best.shape[0], 4096):  # a 4096 x 1882 uint16 block is 15 MB
        block = np.arange(start, min(start + 4096, best.shape[0]), dtype=np.uint16)
        distance = np.bitwise_count(block[:, None] ^ tables16[None, :])
        best[start : start + block.shape[0]] = 2**n - distance.min(axis=1)
    return best


class TestCornerOrder:
    def test_pinned_order_n2(self):
        assert corners(2).tolist() == [[-1, -1], [1, -1], [-1, 1], [1, 1]]
        assert corners(4).shape == (16, 4)
        assert np.issubdtype(corners(4).dtype, np.integer)

    def test_bit_one_maps_to_plus(self):
        assert corners(3)[0b101].tolist() == [1, -1, 1]

    def test_parity_table(self):
        # bit i of a table is f(corner i): corners 1 and 2 have one -1 each
        assert _parity(2) == 0b0110
        assert _parity(4) == 0x6996


class TestIsThreshold:
    def test_and_has_witness(self):
        witness = _lp_is_threshold(2, 0b1000)
        assert witness is not None
        assert witness.verify(0b1000)

    def test_xor_has_none(self):
        assert _lp_is_threshold(2, _parity(2)) is None

    def test_constant_true(self):
        witness = _lp_is_threshold(2, 0b1111)
        assert witness is not None and witness.verify(0b1111)

    def test_hand_witness_verifies(self):
        manual = ThresholdWitness(weights=(1, 1), threshold=1)
        assert manual.verify(0b1000)
        assert not manual.verify(_parity(2))

    def test_majority_n3(self):
        table = sum(1 << i for i, x in enumerate(corners(3).tolist()) if sum(x) > 0)
        witness = _lp_is_threshold(3, table)
        assert witness is not None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_witness_verify_agrees_with_lp(self, n):
        # the nearest cut of the box reproduces a table iff the LP finds it threshold
        for v in range(2 ** (2**n)):
            lp = _lp_is_threshold(n, v)
            _, nearest = best_threshold_agreement(n, v)
            assert nearest.verify(v) == (lp is not None), v
            assert lp is None or lp.verify(v)

    def test_complement_closure_all_n_le_3(self):
        """f is a threshold function iff its complement is (negate w and t)."""
        for n in (1, 2, 3):
            tables = set(int(v) for v in threshold_tables(n))
            full = 2 ** (2**n) - 1
            for v in range(full + 1):
                assert (v in tables) == ((full ^ v) in tables)


class TestCounts:
    def test_small_counts(self):
        assert len(threshold_tables(1)) == 4
        assert len(threshold_tables(2)) == 14
        assert len(threshold_tables(3)) == 104

    def test_counts_below_square_exponent_bound(self):
        for n in (2, 3):
            assert len(threshold_tables(n)) < 2 ** (n * n)

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
            threshold_tables(5)

    def test_weight_box_is_built_once_and_read_only(self):
        for n in (1, 2, 3, 4):
            box = boolefn._weight_box(n)
            again = boolefn._weight_box(n)
            assert all(a is b for a, b in zip(box, again))
            for array in box:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array.flat[0] = 0

    @pytest.mark.parametrize("n", [0, 5])
    def test_weight_box_bound_raises_on_every_call(self, n):
        for _ in range(2):
            with pytest.raises(ValueError, match="enumeration supports"):
                boolefn._weight_box(n)

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
        assert _run_fresh(code) == "False"

    def test_every_enumerated_table_has_exact_witness(self):
        rng = np.random.default_rng(0)
        tables = threshold_tables(3)
        sample = rng.choice(tables, size=20, replace=False)
        for v in sample:
            witness = _lp_is_threshold(3, int(v))
            assert witness is not None and witness.verify(int(v))

    def test_non_members_are_not_threshold(self):
        tables = set(int(v) for v in threshold_tables(2))
        for v in range(16):
            assert (_lp_is_threshold(2, v) is not None) == (v in tables)


class TestAgreement:
    def test_xor2_best_agreement(self):
        agreement, witness = best_threshold_agreement(2, _parity(2))
        assert agreement == 3

    def test_threshold_functions_agree_perfectly(self):
        agreement, witness = best_threshold_agreement(2, 0b1000)
        assert agreement == 4
        assert witness.verify(0b1000)

    def test_xor4_best_agreement(self):
        agreement, _ = best_threshold_agreement(4, _parity(4))
        assert agreement == 11

    def test_closed_form_values(self):
        assert [xor_max_accuracy(n) for n in (2, 3, 4, 5)] == [3, 6, 11, 22]
        assert xor_max_accuracy(2) / 4 == 0.75

    def test_missing_witness_raises(self, monkeypatch):
        # pair every packed row with the next row's weights: the guard must see
        # that the witness does not cut the table it was found for
        box = boolefn._weight_box

        def shifted(n):
            weights, cuts, packed = box(n)
            return np.roll(weights, 1, axis=0), cuts, packed

        monkeypatch.setattr(boolefn, "_weight_box", shifted)
        with pytest.raises(AssertionError):
            best_threshold_agreement(2, _parity(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_transform_equals_all_pairs_scan(self, n):
        best = _scan_agreements(n)
        agreements = boolefn._agreements(n)
        assert agreements.shape == (2 ** (2**n),)
        assert np.array_equal(agreements, best)

    def test_witness_is_first_nearest_table(self):
        muroga = {1: 1, 2: 1, 3: 2, 4: 3}  # floor((n+1)^((n+1)/2) / 2^n)
        full = 2**16 - 1
        rng = np.random.default_rng(7)
        sample = [int(v) for v in rng.choice(2**16, size=96, replace=False)]
        sample += [int(v) for v in rng.choice(threshold_tables(4), size=8, replace=False)]
        sample += [_parity(4)]
        sample += [full ^ v for v in sample]
        assert len(set(sample)) >= 200
        cases = [(n, v) for n in (1, 2, 3) for v in range(2 ** (2**n))] + [(4, v) for v in sample]
        best = {n: boolefn._agreements(n) for n in (1, 2, 3, 4)}
        for n, v in cases:
            agreement, witness = best_threshold_agreement(n, v)
            assert agreement == best[n][v]
            assert all(type(w) is int and abs(w) <= muroga[n] for w in witness.weights)
            assert type(witness.threshold) is int
            # the table the witness cuts, by substitution on every corner
            cut = corners(n) @ np.array(witness.weights) > witness.threshold
            table = int(cut @ (1 << np.arange(2**n)))
            assert witness.verify(table)
            assert bin(table ^ v).count("1") == 2**n - agreement
        # each coordinate runs 0, 1, -1, ..., so the first minimiser has small weights
        _, witness = best_threshold_agreement(4, _parity(4))
        assert witness == ThresholdWitness(weights=(1, 1, 1, 1), threshold=0)

    def test_agreement_does_not_import_fractions(self):
        code = (
            "import sys, polyselect; "
            "polyselect.boolefn.best_threshold_agreement(4, 0x6996); "
            "print('fractions' in sys.modules)"
        )
        assert _run_fresh(code) == "False"

    @pytest.mark.parametrize(
        "call",
        [
            lambda: verify_xor_worst(5),
            lambda: threshold_stats(5),
            lambda: best_threshold_agreement(5, 0),
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
        assert _parity(n) in offenders
        assert _parity(n) ^ (2 ** (2**n) - 1) in offenders


class TestStats:
    def test_n1_all_solved(self):
        assert threshold_stats(1) == (1.0, 1.0)

    def test_n2_exact(self):
        solved, mean_acc = threshold_stats(2)
        assert solved == 0.875
        assert mean_acc == 0.96875


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: best_threshold_agreement(0, 0), "whole-cube enumeration supports n in [1, 4]"),
        (lambda: best_threshold_agreement(2, 16), "table integer out of range"),
        (lambda: best_threshold_agreement(2, -1), "table integer out of range"),
        (lambda: xor_max_accuracy(0), "n must be >= 1"),
    ],
)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_witness_of_the_wrong_length_verifies_nothing():
    # (1, 1) > 0 decides AND on two inputs, but not the three-input AND table
    assert ThresholdWitness((1, 1), 0).verify(0b1000)
    assert not ThresholdWitness((1, 1), 0).verify(0b10000000)
