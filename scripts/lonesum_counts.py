#!/usr/bin/env python3
"""Count lonesum 0/1 matrices by brute force and compare with the
negative-upper-index values.

A 0/1 matrix is lonesum when it is the only matrix with its row and column
sums, equivalently when no 2x2 submatrix is a permutation pattern.  The
number of lonesum n x k matrices must equal the value at (n, -k); this
script enumerates all 2^(n*k) matrices per cell, so keep the ranges small.
Exit status is 0 when every cell agrees, 1 on a mismatch, and 2 for a
bound that ``numbers.check_index`` refuses (negative, or past the cap), before
any cell is counted.
"""

import argparse
import sys
from itertools import combinations, product

from polybernoulli.numbers import check_index, poly_bernoulli_negative


def is_lonesum(rows: tuple[int, ...], cols: int) -> bool:
    for r1, r2 in combinations(rows, 2):
        for c, d in combinations(range(cols), 2):
            upper = (r1 >> c & 1, r1 >> d & 1)
            lower = (r2 >> c & 1, r2 >> d & 1)
            if (upper, lower) in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
                return False
    return True


def brute_force_count(n: int, k: int) -> int:
    return sum(1 for m in product(range(1 << k), repeat=n) if is_lonesum(m, k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=3, help="largest row count")
    parser.add_argument("--k-max", type=int, default=3, help="largest column count")
    args = parser.parse_args(argv)
    try:
        check_index(n=args.n_max, k=args.k_max)
    except ValueError as error:
        parser.error(str(error))

    mismatches = 0
    print(f"{'n':>3} {'k':>3} {'brute force':>12} {'closed form':>12}")
    for n in range(args.n_max + 1):
        for k in range(args.k_max + 1):
            brute = brute_force_count(n, k)
            closed = poly_bernoulli_negative(n, k)
            marker = "" if brute == closed else "   MISMATCH"
            if brute != closed:
                mismatches += 1
            print(f"{n:>3} {k:>3} {brute:>12} {closed:>12}{marker}")
    if mismatches:
        print(f"FAILED: {mismatches} cells disagree")
        return 1
    print("ok: every cell agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
