#!/usr/bin/env python3
"""Run the full exact verification suite over a grid of desk-scale sizes and
print one timed line per check.

Usage: python scripts/run_checks.py [--max-n 4] [--max-balls 3] [--max-cable 3]
"""

import argparse
import itertools
import sys
import time
from fractions import Fraction

from braidbowl.cabled import (
    check_cabled_braid_relation,
    check_cabled_formula,
    check_oracle_placement_invariance,
)
from braidbowl.cli import MAX_DIM
from braidbowl.multiball import (
    check_braid_relation,
    check_far_commutativity,
    check_hecke,
    check_inverse,
    check_specht,
    check_stochastic,
)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    report = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.name:45s} {report.checks:5d} comparisons  {elapsed:7.3f}s")
    for failure in report.failures:
        print(f"     {failure}")
    return report.passed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--max-balls", type=int, default=3)
    parser.add_argument("--max-cable", type=int, default=3)
    args = parser.parse_args()

    ok = True
    for n, N in itertools.product(range(3, args.max_n + 1), range(1, args.max_balls + 1)):
        if (N + 1) ** n > MAX_DIM:
            continue
        ok &= timed(check_braid_relation, n, N)
        if n >= 4:
            ok &= timed(check_far_commutativity, n, N)
    for n, N in itertools.product(range(2, args.max_n + 1), range(1, args.max_balls + 1)):
        ok &= timed(check_hecke, n, N)
    for n in range(3, args.max_n + 1):
        for N in range(1, min(args.max_balls, n - 2) + 1):
            for k in range(1, n - N):
                ok &= timed(check_specht, n, N, k)
    for n, N in itertools.product((2, 3), (1, 2)):
        for x in (Fraction(1, 2), Fraction(2), Fraction(-1)):
            ok &= timed(check_inverse, n, N, x)
    for K in range(1, args.max_cable + 1):
        ok &= timed(check_cabled_formula, K)
        ok &= timed(check_cabled_braid_relation, 3, K)
        for a in range(K + 1):
            for b in range(K + 1):
                ok &= timed(check_oracle_placement_invariance, K, a, b)
    ok &= timed(check_stochastic, 3, 2, words=100)
    ok &= timed(check_stochastic, 4, 3, words=50)

    print("ALL CHECKS PASSED" if ok else "CHECK FAILURES")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
