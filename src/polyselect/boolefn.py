"""Exact Boolean threshold-function lab.

A Boolean function over the +-1 cube is a threshold function when some
hyperplane w.x > t reproduces its truth table.  Everything here is exact
integer arithmetic (tables are packed through float64 sums of distinct
powers of two below 2^53, which are exact).  By Muroga's bound every threshold function of n inputs
has integer weights with |w_i| <= 1, 1, 2, 3 for n = 1..4, so one integer
matmul over that weight box, with every integer cut t, lists the whole set,
each table with its integer (w, t) as a witness.  The same box answers a
single function: one popcount against every cut finds the nearest threshold
table and its (w, t), which is re-verified by substitution on every corner.
The best agreement of every truth table with any threshold function comes
from one exact Hamming distance transform over the cube of all 2^(2^n)
tables, seeded with the enumerated set.

Corner order: corner i takes coordinate k from bit k of i (little-endian),
bit 1 -> +1 and bit 0 -> -1.  Truth tables are bit vectors in that order and
pack into integers with table[i] at bit i.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_ENUM_N",
    "BooleanFunction",
    "ThresholdWitness",
    "best_threshold_agreement",
    "corners",
    "count_threshold",
    "threshold_stats",
    "threshold_tables",
    "verify_xor_worst",
    "xor_function",
    "xor_max_accuracy",
]

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
    """Exact integer certificate (w, t) with w.x > t iff f(x) = 1."""

    weights: tuple[int, ...]
    threshold: int

    def verify(self, fn: BooleanFunction) -> bool:
        if len(self.weights) != fn.n:
            return False
        for i, x in enumerate(corners(fn.n)):
            value = sum(w * xi for w, xi in zip(self.weights, x))
            if (value > self.threshold) != bool(fn.truth_table[i]):
                return False
        return True


@functools.cache
def _weight_box(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Muroga's integer weight box: (weights, cuts, packed), where packed[i, j]
    is the integer truth table of w.x > t for w = weights[i], t = cuts[j].

    Every threshold function of n inputs has integer weights with |w_i| <= B,
    B = floor((n+1)^((n+1)/2) / 2^n) (Muroga, Threshold Logic and Its
    Applications, 1971), so the cuts w.x > t over the integer box [-B, B]^n
    and every integer t in [-(nB+1), nB] produce the whole set.  Each
    coordinate runs 0, 1, -1, 2, -2, ..., so small weights come first.

    Built once per n and process, and read-only, since every caller shares
    the same three arrays.  MAX_ENUM_N bounds what the cache can hold.
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"whole-cube enumeration supports n in [1, {MAX_ENUM_N}]")
    bound = math.isqrt((n + 1) ** (n + 1)) // 2**n
    values = np.array([0] + [s * k for k in range(1, bound + 1) for s in (1, -1)])
    # every n-tuple of values, the last coordinate running fastest
    weights = values[np.indices((values.shape[0],) * n).reshape(n, -1).T]
    sums = weights @ np.array(corners(n)).T
    cuts = np.arange(-n * bound - 1, n * bound + 1)
    # one cut at a time keeps the (weights, cuts, corners) bits out of memory;
    # float64 is exact here: every table is below 2^(2^n), and 2^n <= 16 < 53
    powers = 2.0 ** np.arange(2**n)
    packed = np.stack([(sums > t) @ powers for t in cuts], axis=1).astype(np.uint64)
    for array in (weights, cuts, packed):
        array.flags.writeable = False
    return weights, cuts, packed


def threshold_tables(n: int) -> np.ndarray:
    """Sorted integer truth tables of every threshold function of n inputs:
    the distinct tables of the weight box."""
    packed = np.sort(_weight_box(n)[2], axis=None)
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
    """Best corner agreement achievable by any threshold function, plus the
    integer (w, t) of the first cut of the weight box that attains it."""
    weights, cuts, packed = _weight_box(fn.n)
    distance = np.bitwise_count(packed ^ np.uint64(fn.to_int()))
    row, col = divmod(int(distance.argmin()), cuts.shape[0])
    witness = ThresholdWitness(tuple(int(w) for w in weights[row]), int(cuts[col]))
    # soundness guard: the packed table must be the one the witness cuts
    if not witness.verify(BooleanFunction.from_int(fn.n, int(packed[row, col]))):
        raise AssertionError("weight box witness does not cut its table")
    return 2**fn.n - int(distance[row, col]), witness


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
