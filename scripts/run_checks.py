#!/usr/bin/env python3
"""Sweep ``braidbowl check`` over a grid of desk-scale sizes and print one
timed line per check.  Each size's checks are the CLI's own list
(``cli.suite_calls``), behind its input checks; a size the CLI rejects prints
``SKIP <size>: <reason>``.

Grid: ``check all --cable 1`` for n in 3..max-n and N in 1..max-balls, then
``check cabled --n 3 --cable K`` for K in 2..max-cable.  Sizes share reports
(the K=1 cabled checks, the kernels of smaller N), and each check runs and
prints once, at its first size.  A ``TOTAL <s>s`` line, the wall time of
the whole sweep, comes before the verdict.

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
    done = set()
    sweep_start = time.perf_counter()
    for size in sizes:
        try:
            calls = cli.suite_calls(cli.build_parser().parse_args(["check", *size]))
        except ValueError as exc:
            print(f"SKIP {' '.join(size)}: {exc}")
            continue
        for check, arguments in calls:
            if (check, arguments) in done:
                continue
            done.add((check, arguments))
            start = time.perf_counter()
            report = check(*arguments)
            elapsed = time.perf_counter() - start
            status = "PASS" if report.passed else "FAIL"
            print(f"{status} {report.name:45s} {report.checks:5d} comparisons  {elapsed:7.3f}s")
            for failure in report.failures:
                print(f"     {failure}")
            ok &= report.passed

    print(f"TOTAL {time.perf_counter() - sweep_start:.3f}s")
    print("ALL CHECKS PASSED" if ok else "CHECK FAILURES")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
