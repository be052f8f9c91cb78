"""Exact Boolean threshold-function lab.

A Boolean function over the +-1 cube is a threshold function when some
hyperplane w.x > t reproduces its truth table.  Everything here is exact:
feasibility is decided by a rational phase-1 simplex over the unit-margin
system (w.x >= t+1 on true corners, w.x <= t-1 on false ones; scale
invariance makes the margin free), every returned witness is re-verified by
substitution on all corners, and "not a threshold function" means the exact
LP proved infeasibility.

Whole-cube enumerations use integer weights instead: by Muroga's bound
every threshold function of n inputs has integer weights with |w_i| <= 1, 1,
2, 3 for n = 1..4, so one integer matmul over that weight box lists the whole
set, each table with its integer (w, t) as a witness.  The exact LP decides
single functions and is the oracle the enumeration is tested against.  The
best agreement of every truth table with any threshold function comes from
one exact Hamming distance transform over the cube of all 2^(2^n) tables,
seeded with the enumerated set.

Corner order: corner i takes coordinate k from bit k of i (little-endian),
bit 1 -> +1 and bit 0 -> -1.  Truth tables are bit vectors in that order and
pack into integers with table[i] at bit i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "MAX_ENUM_N",
    "BooleanFunction",
    "ThresholdWitness",
    "best_threshold_agreement",
    "corners",
    "count_threshold",
    "is_threshold",
    "threshold_stats",
    "threshold_tables",
    "verify_xor_worst",
    "xor_function",
    "xor_max_accuracy",
]

_MAX_SOLVE_N = 8  # 2^n margin constraints per feasibility solve
MAX_ENUM_N = 4  # 2^(2^n) truth tables per whole-cube scan


def corners(n: int) -> list[tuple[int, ...]]:
    """All +-1 cube corners in the package's pinned index order."""
    return [tuple(1 if (i >> k) & 1 else -1 for k in range(n)) for i in range(2**n)]


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table over the +-1 cube corners of n variables."""

    n: int
    truth_table: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        table = tuple(int(v) for v in self.truth_table)
        if len(table) != 2**self.n:
            raise ValueError(f"truth table must have length {2 ** self.n}")
        if any(v not in (0, 1) for v in table):
            raise ValueError("truth table entries must be 0 or 1")
        object.__setattr__(self, "truth_table", table)

    @classmethod
    def from_int(cls, n: int, value: int) -> "BooleanFunction":
        if not 0 <= value < 2 ** (2**n):
            raise ValueError("table integer out of range")
        return cls(n, tuple((value >> i) & 1 for i in range(2**n)))

    @classmethod
    def from_hex(cls, n: int, text: str) -> "BooleanFunction":
        return cls.from_int(n, int(text, 16))

    def to_int(self) -> int:
        return sum(bit << i for i, bit in enumerate(self.truth_table))

    def to_hex(self) -> str:
        return format(self.to_int(), "x")

    def complement(self) -> "BooleanFunction":
        return BooleanFunction(self.n, tuple(1 - v for v in self.truth_table))


def xor_function(n: int) -> BooleanFunction:
    """Parity of all n inputs: true exactly when the corner's product is -1."""
    table = []
    for x in corners(n):
        prod = 1
        for v in x:
            prod *= v
        table.append(1 if prod == -1 else 0)
    return BooleanFunction(n, tuple(table))


@dataclass(frozen=True)
class ThresholdWitness:
    """Exact rational certificate (w, t) with w.x > t iff f(x) = 1."""

    weights: tuple[Fraction, ...]
    threshold: Fraction

    def verify(self, fn: BooleanFunction) -> bool:
        if len(self.weights) != fn.n:
            return False
        for i, x in enumerate(corners(fn.n)):
            value = sum(w * xi for w, xi in zip(self.weights, x))
            if (value > self.threshold) != bool(fn.truth_table[i]):
                return False
        return True


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


def is_threshold(fn: BooleanFunction) -> ThresholdWitness | None:
    """Exact threshold decision; a witness when one exists, else None."""
    if fn.n > _MAX_SOLVE_N:
        raise ValueError(f"feasibility solve supports n <= {_MAX_SOLVE_N}")
    rows = []
    for i, x in enumerate(corners(fn.n)):
        s = 1 if fn.truth_table[i] else -1
        rows.append(tuple(s * c for c in x) + (-s,))
    u = _margin_feasible(rows)
    if u is None:
        return None
    witness = ThresholdWitness(weights=tuple(u[: fn.n]), threshold=u[fn.n])
    if not witness.verify(fn):  # soundness guard; a correct solve always passes
        raise AssertionError("simplex produced an invalid witness")
    return witness


def threshold_tables(n: int) -> np.ndarray:
    """Sorted integer truth tables of every threshold function of n inputs.

    Every threshold function of n inputs has integer weights with |w_i| <= B,
    B = floor((n+1)^((n+1)/2) / 2^n) (Muroga, Threshold Logic and Its
    Applications, 1971), so the cuts w.x > t over the integer box [-B, B]^n
    and every integer t in [-(nB+1), nB] produce the whole set; each table
    comes with its (w, t) as an exact witness.
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"whole-cube enumeration supports n in [1, {MAX_ENUM_N}]")
    bound = math.isqrt((n + 1) ** (n + 1)) // 2**n
    weights = np.array(list(itertools.product(range(-bound, bound + 1), repeat=n)))
    sums = weights @ np.array(corners(n)).T
    cuts = np.arange(-n * bound - 1, n * bound + 1)
    powers = np.uint64(1) << np.arange(2**n, dtype=np.uint64)
    bits = sums[:, None, :] > cuts[None, :, None]
    packed = np.sort((bits * powers).sum(axis=-1, dtype=np.uint64), axis=None)
    # np.unique would import numpy.ma on first use, about 30 ms of a cold start
    first = np.ones(packed.shape, dtype=bool)
    first[1:] = packed[1:] != packed[:-1]
    return packed[first]


def count_threshold(n: int) -> int:
    """Number of threshold functions of n inputs (exact enumeration)."""
    return int(threshold_tables(n).shape[0])


def _agreements(n: int) -> np.ndarray:
    """Best corner agreement of every n-input truth table with any threshold
    function, indexed by the table's integer.

    An exact Hamming distance transform on the 2^n-dimensional cube of
    tables: distance 0 on the threshold tables, then one relaxation per
    corner bit k, d[v] = min(d[v], d[v ^ 2^k] + 1).  After bit k every entry
    holds the distance to the nearest table that agrees with it on the
    higher bits, so after the last bit it is the Hamming distance.
    """
    tables = threshold_tables(n)  # bounds n before the 2^(2^n) array exists
    size = 2**n
    distance = np.full(2**size, size + 1, dtype=np.int8)
    distance[tables] = 0
    for k in range(size):
        pairs = distance.reshape(-1, 2, 2**k)  # pairs[:, 0] and pairs[:, 1] differ in bit k
        step = np.minimum(pairs[:, 0], pairs[:, 1]) + 1
        np.minimum(pairs, step[:, None], out=pairs)
    return size - distance


def best_threshold_agreement(fn: BooleanFunction) -> tuple[int, ThresholdWitness]:
    """Best corner agreement achievable by any threshold function, plus a
    witness of a maximiser: the first sorted table at that distance."""
    size = 2**fn.n
    value = fn.to_int()
    best = _agreements(fn.n)
    tables = np.flatnonzero(best == size)  # the threshold tables, sorted
    distance = np.bitwise_count(tables ^ value)
    nearest = int(tables[np.argmax(distance == size - best[value])])
    witness = is_threshold(BooleanFunction.from_int(fn.n, nearest))
    if witness is None:  # soundness guard; every enumerated table has a witness
        raise AssertionError("enumerated table is not a threshold function")
    return int(best[value]), witness


def xor_max_accuracy(n: int) -> int:
    """Corners of the n-cube a hyperplane can classify correctly under parity.

    Closed form 2^(n-1) + C(n-1, floor((n-1)/2)): planes normal to a cube
    diagonal meet the parity colouring in alternating binomial layers, and
    the best cut keeps the largest layer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 ** (n - 1) + math.comb(n - 1, (n - 1) // 2)


def verify_xor_worst(n: int) -> tuple[bool, list[int]]:
    """Exhaustively confirm no function is harder to approximate than parity.

    Returns (claim holds, truth tables attaining the minimum best-agreement).
    """
    best = _agreements(n)
    worst = int(best.min())
    offenders = [int(v) for v in np.flatnonzero(best == worst)]
    return worst == xor_max_accuracy(n), offenders


def threshold_stats(n: int) -> tuple[float, float]:
    """(solved fraction, mean best accuracy) over all n-input functions."""
    size = 2**n
    total = 2**size
    best = _agreements(n)
    solved_fraction = int(np.count_nonzero(best == size)) / total
    # the sum is an integer below 2^53 and the divisors are powers of two,
    # so the mean is exact
    return solved_fraction, int(best.sum(dtype=np.int64)) / size / total
