"""Runs inside every process the benchmark starts.

    python3 child.py REPORT [--setup-only | --trace] -- ARGV...

Imports the CLI, then (unless ``--setup-only``) calls
``braidbowl.cli.main(ARGV)`` with stdout going wherever the parent pointed
it.  Writes a JSON report to REPORT: the exit code, the wall time of
``main``, the CPU time this process spent outside it (interpreter start,
import, the reference loop), and the mean time of ``reference()`` run just
before and just after ``main``.  Set-up processes run the reference once,
after parsing.  With ``--trace`` the layer tracer is installed first and its
counters go into the report too.
"""

import json
import resource
import sys
import time

from workloads import reference


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    split = sys.argv.index("--")
    report_path, flags, argv = sys.argv[1], sys.argv[2:split], sys.argv[split + 1 :]
    import braidbowl.cli

    if "--setup-only" in flags:
        braidbowl.cli.build_parser().parse_args(argv)
        _write(report_path, {"reference_s": reference()})
        return 0
    tracer = None
    if "--trace" in flags:
        import layertrace

        tracer = layertrace.install()
    reference_before = reference()
    cpu_before = _cpu_s()
    start = time.perf_counter()
    rc = braidbowl.cli.main(argv)
    sys.stdout.flush()
    main_s = time.perf_counter() - start
    cpu_after = _cpu_s()
    reference_after = reference()
    report = {
        "rc": rc,
        "main_s": main_s,
        "cpu_outside_s": cpu_before + _cpu_s() - cpu_after,
        "reference_s": (reference_before + reference_after) / 2,
    }
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    _write(report_path, report)
    return rc


def _write(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
