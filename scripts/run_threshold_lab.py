#!/usr/bin/env python3
"""Exact threshold-function survey: counts, the parity approximation bound,
the exhaustive worst-case check, and whole-cube statistics for small n.

Each n lists its threshold functions by integer weights in Muroga's bound
box and scans all 2^(2^n) functions against them; n=4 takes well under a
second.
"""

import argparse
import time

from polyselect.boolefn import (
    count_threshold,
    threshold_stats,
    verify_xor_worst,
    xor_function,
    xor_max_accuracy,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()

    for n in range(1, args.max_n + 1):
        start = time.time()
        count = count_threshold(n)
        solved, mean_acc = threshold_stats(n)
        holds, offenders = verify_xor_worst(n)
        elapsed = time.time() - start
        print(
            f"n={n}: threshold_count={count} (bound 2^(n^2)={2 ** (n * n)}), "
            f"solved_fraction={solved:.6f}, mean_best_accuracy={mean_acc:.6f}"
        )
        print(
            f"     parity bound={xor_max_accuracy(n)}/{2 ** n}, "
            f"worst-case-verified={holds}, worst offenders={len(offenders)} "
            f"(parity itself: {xor_function(n).to_int() in offenders}) [{elapsed:.1f}s]"
        )


if __name__ == "__main__":
    main()
