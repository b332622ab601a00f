#!/usr/bin/env python3
"""Sweep ``braidbowl check`` over a grid of desk-scale sizes and print one
timed line per check.  Each size runs through the CLI's own suite and input
checks; a size the CLI rejects prints ``SKIP <size>: <reason>``.

Grid: ``check all --cable 1`` for n in 3..max-n and N in 1..max-balls, then
``check cabled --n 3 --cable K`` for K in 2..max-cable.  Sizes share reports
(the K=1 cabled checks, the kernels of smaller N), and each report name is
printed once, at its first size.

Usage: python scripts/run_checks.py [--max-n 4] [--max-balls 3] [--max-cable 3]
"""

import argparse
import sys
import time

from braidbowl import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--max-balls", type=int, default=3)
    parser.add_argument("--max-cable", type=int, default=3)
    args = parser.parse_args(argv)

    sizes = [["all", "--n", str(n), "--max-balls", str(N), "--cable", "1"]
             for n in range(3, args.max_n + 1) for N in range(1, args.max_balls + 1)]
    sizes += [["cabled", "--n", "3", "--cable", str(K)] for K in range(2, args.max_cable + 1)]
    ok = True
    seen = set()
    for size in sizes:
        try:
            reports = cli.run_suite(cli.build_parser().parse_args(["check", *size]))
        except ValueError as exc:
            print(f"SKIP {' '.join(size)}: {exc}")
            continue
        start = time.perf_counter()
        for report in reports:
            elapsed = time.perf_counter() - start
            if report.name not in seen:
                seen.add(report.name)
                status = "PASS" if report.passed else "FAIL"
                print(f"{status} {report.name:45s} {report.checks:5d} comparisons"
                      f"  {elapsed:7.3f}s")
                for failure in report.failures:
                    print(f"     {failure}")
                ok &= report.passed
            start = time.perf_counter()

    print("ALL CHECKS PASSED" if ok else "CHECK FAILURES")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
