#!/usr/bin/env python3
"""braidbowl benchmark: end-to-end CLI timings, or per-layer counters.

    python3 perfbench/run.py --workload {rho,cabled,check} --seed S \
        --seconds T --trace {0,1}

Each operation is one fresh ``python3`` process that calls
``braidbowl.cli.main`` on arguments drawn from the seed (see workloads.py
and WORKLOADS.md).  Every output is checked for exactness (exactness.py,
plus the recorded sha256 digests of the default seed's outputs).

``--trace 0`` repeats passes over the workload's operations for T seconds,
each operation preceded by one set-up process, and reports

* ``wall_s``: sum over the operations of the median wall time of
  ``main()``, i.e. one pass without interpreter start and import;
* ``cpu_s``: the same for user+sys CPU time of the operation process and
  its children, minus the CPU its own process spent outside ``main()``;
* ``setup_s``: median wall time of a process that starts the interpreter,
  imports ``braidbowl.cli`` and parses the operation's arguments;
* ``peak_rss_mb``: largest median peak RSS of any one operation process,
  read per process from ``wait4``;
* ``ok_frac``: operations that passed over operations attempted.

The processors of the machine this was built on change speed by up to 40%
within minutes, and its two vCPUs often differ.  So every process the
benchmark starts also times ``workloads.reference()``, a fixed pure-Python
loop that never calls the program, just before and after ``main()`` (once
after parsing, for set-up processes), and each time above is scaled by
``REFERENCE_S`` over that process's own mean reference time: it reads as
seconds on a processor that runs the reference in ``REFERENCE_S``.  The
info line keeps the raw times and reference times.

``--trace 1`` alternates untraced and traced runs of each operation (at
least two traced passes), reports the counters of layertrace.py summed
over one pass (times are medians over passes), checks that every traced
pass gave identical counts, and reports traced over untraced wall time.

The last line of stdout is the JSON result; the line before it records the
seed, the generated command lines and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from exactness import check_output
from workloads import WORKLOADS, Op, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0  # golden.json holds the digests of this seed's outputs
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
OP_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 150.0
# Typical time of workloads.reference() on the machine named in WORKLOADS.md.
REFERENCE_S = 0.07

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

# Names ending in .s are span totals and in .self_s span self times; the
# rest are counters (or maxima) of layertrace.py under the same name, except
# the last three of cabled, cli and trace, which run.py derives.
PER_LAYER = {
    "qpoly.mul.calls": "count",
    "qpoly.mul.coeff_products": "count",
    "qpoly.add.calls": "count",
    "qpoly.construct.calls": "count",
    "qpoly.max_degree": "degree",
    "qpoly.max_coeff_bits": "bits",
    "cabled.fall_distribution.calls": "count",
    "cabled.fall_distribution.distinct_ratio": "ratio",
    "cabled.fall_distribution.s": "s",
    "cabled.falling_probability.calls": "count",
    "cabled.branches": "count",
    "cabled.rho_cabled_matrix.self_s": "s",
    "cabled.crossing_oracle.calls": "count",
    "cabled.crossing_oracle.s": "s",
    "multiball.rho_matrix.calls": "count",
    "multiball.columns": "count",
    "multiball.branches": "count",
    "multiball.rho_matrix.self_s": "s",
    "multiball.rho_element.terms": "count",
    "multiball.check.s": "s",
    "matrix.matmul.calls": "count",
    "matrix.matmul.scalar_products": "count",
    "matrix.matmul.s": "s",
    "matrix.add.s": "s",
    "matrix.transition_validate.s": "s",
    "matrix.eval_at.s": "s",
    "matrix.nnz": "count",
    "braid.minimal_braid.calls": "count",
    "braid.window_terms": "count",
    "report.comparisons": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Proc:
    status: int  # exit code, negative for a signal
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


@dataclass
class Sample:
    wall_s: float  # scaled, like cpu_s
    cpu_s: float
    rss_mb: float
    out_bytes: int
    problems: list[str]
    raw_wall_s: float = 0.0
    reference_s: float = REFERENCE_S
    trace: dict | None = None


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    problems: list[str]
    raw_samples: dict[str, list[tuple[float, float]]]  # op key -> (wall, reference) s


@dataclass
class Context:
    work: Path
    deadline: float
    golden: dict
    verdicts: dict = field(default_factory=dict)  # (op key, sha256) -> problems


def spawn(ctx: Context, args: list[str], stdout: Path, stderr: Path) -> Proc:
    """Run ``python3 child.py ARGS`` to completion; rusage comes from wait4
    on this one process, so no earlier operation's peak leaks into it."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    timeout = max(1.0, min(OP_TIMEOUT_S, ctx.deadline - time.monotonic()))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, str(CHILD), *args],
            env,
            file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                          (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
        )
    pidfd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, ru = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        os.close(pidfd)
    return Proc(os.waitstatus_to_exitcode(status), wall, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss / 1024, timed_out)


def _report(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def scaled(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_S / reference_s


def run_setup(ctx: Context, op: Op) -> tuple[float, list[str]]:
    """Scaled time to start the interpreter, import the CLI and parse the
    operation's arguments, from process start to exit minus the reference."""
    out, err, report_path = ctx.work / "setup.out", ctx.work / "setup.err", ctx.work / "setup.json"
    report_path.unlink(missing_ok=True)
    proc = spawn(ctx, [str(report_path), "--setup-only", "--", *op.argv], out, err)
    report = _report(report_path)
    if proc.status != 0 or report is None:
        return proc.wall_s, [f"set-up exited {proc.status}"]
    ref = report["reference_s"]
    return scaled(proc.wall_s - ref, ref), []


def judge(ctx: Context, op: Op, raw: bytes) -> list[str]:
    """Problems with an operation's stdout: a digest that differs from the
    recorded one, or a failed exactness check."""
    digest = hashlib.sha256(raw).hexdigest()
    expected = ctx.golden["digests"].get(op.key)
    if expected is not None and digest != expected:
        return [f"sha256 {digest} != recorded {expected}"]
    key = (op.key, digest)
    if key not in ctx.verdicts:
        ctx.verdicts[key] = check_output(op, raw, ctx.golden)
    return ctx.verdicts[key]


def run_op(ctx: Context, op: Op, trace: bool = False) -> Sample:
    """Run one operation and judge its output."""
    out, err, report_path = ctx.work / "op.out", ctx.work / "op.err", ctx.work / "op.json"
    report_path.unlink(missing_ok=True)
    flags = ["--trace"] if trace else []
    proc = spawn(ctx, [str(report_path), *flags, "--", *op.argv], out, err)
    report = _report(report_path)
    problems = []
    if proc.timed_out:
        problems.append("timed out")
    elif proc.status != 0 or report is None:
        tail = err.read_text(errors="replace").strip().splitlines()[-1:] or [""]
        problems.append(f"exit code {proc.status}: {tail[0]}")
    raw = out.read_bytes()
    if not problems:
        problems = judge(ctx, op, raw)
    if report is None:
        return Sample(proc.wall_s, proc.cpu_s, proc.rss_mb, len(raw), problems)
    ref = report["reference_s"]
    return Sample(scaled(report["main_s"], ref), scaled(proc.cpu_s - report["cpu_outside_s"], ref),
                  proc.rss_mb, len(raw), problems, report["main_s"], ref, report.get("trace"))


def _median_sum(samples: dict[str, list[Sample]], attr: str) -> float:
    return sum(statistics.median(getattr(s, attr) for s in ss) for ss in samples.values())


def _outcome(metrics: dict, groups: list[dict[str, list[Sample]]], problems: list[str]) -> Outcome:
    every = [s for samples in groups for ss in samples.values() for s in ss]
    failed = sum(1 for s in every if s.problems)
    raw = {k: [(s.raw_wall_s, s.reference_s) for s in ss] for k, ss in groups[0].items()}
    return Outcome(metrics, len(every), failed, problems, raw)


def measure(ctx: Context, ops: list[Op], seconds: float) -> Outcome:
    samples: dict[str, list[Sample]] = {op.key: [] for op in ops}
    setup_s: list[float] = []
    problems: list[str] = []
    run_setup(ctx, ops[0])  # warm the bytecode cache; not measured
    start = time.monotonic()
    passes = 0
    while (passes < MIN_PASSES or time.monotonic() - start < seconds) and time.monotonic() < ctx.deadline:
        for op in ops:
            wall, setup_problems = run_setup(ctx, op)
            setup_s.append(wall)
            problems.extend(setup_problems)
            sample = run_op(ctx, op)
            samples[op.key].append(sample)
            problems.extend(f"{op.key}: {p}" for p in sample.problems)
        passes += 1
    outcome = _outcome({
        "wall_s": _median_sum(samples, "wall_s"),
        "cpu_s": _median_sum(samples, "cpu_s"),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(statistics.median(s.rss_mb for s in ss) for ss in samples.values()),
    }, [samples], problems)
    outcome.metrics["ok_frac"] = (outcome.attempted - outcome.failed) / outcome.attempted
    return outcome


def _pass_totals(traces: list[dict]) -> dict:
    """Sum the counters of one pass's operations (maxima take the max)."""
    out: dict = {"counts": {}, "max": {}, "total_s": {}, "self_s": {}, "fall_distinct": 0}
    for tr in filter(None, traces):  # a failed operation leaves no counters
        for part in ("counts", "total_s", "self_s"):
            for k, v in tr[part].items():
                out[part][k] = out[part].get(k, 0) + v
        for k, v in tr["max"].items():
            out["max"][k] = max(out["max"].get(k, 0), v)
        out["fall_distinct"] += tr["fall_distinct"]
    return out


def measure_traced(ctx: Context, ops: list[Op], seconds: float) -> Outcome:
    plain: dict[str, list[Sample]] = {op.key: [] for op in ops}
    traced: dict[str, list[Sample]] = {op.key: [] for op in ops}
    passes: list[dict] = []
    problems: list[str] = []
    start = time.monotonic()
    while (len(passes) < MIN_TRACED_PASSES or time.monotonic() - start < seconds) and time.monotonic() < ctx.deadline:
        traces = []
        out_bytes = 0
        for op in ops:
            for sink, trace in ((plain, False), (traced, True)):
                sample = run_op(ctx, op, trace=trace)
                sink[op.key].append(sample)
                problems.extend(f"{op.key}: {p}" for p in sample.problems)
            traces.append(sample.trace)
            out_bytes += sample.out_bytes
        passes.append(_pass_totals(traces))
    first = passes[0]
    exact = ("counts", "max", "fall_distinct")
    if any(p[k] != first[k] for p in passes[1:] for k in exact):
        problems.append("traced passes of the same operations gave different counts")
    metrics = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in ("s", "self_s"):
            part = "total_s" if kind == "s" else "self_s"
            metrics[name] = statistics.median(p[part].get(span, 0.0) for p in passes)
        else:
            metrics[name] = first["counts"].get(name, first["max"].get(name, 0))
    calls = first["counts"].get("cabled.fall_distribution.calls", 0)
    metrics["cabled.fall_distribution.distinct_ratio"] = first["fall_distinct"] / calls if calls else 0.0
    metrics["cli.output_bytes"] = out_bytes
    metrics["trace.overhead_ratio"] = _median_sum(traced, "wall_s") / _median_sum(plain, "wall_s")
    return _outcome(metrics, [plain, traced], problems)


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "braidbowl" / "cli.py").is_file():
        print(f"error: no braidbowl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    ops = make_ops(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(work, deadline, json.loads(GOLDEN.read_text()))
    try:
        measure_fn = measure_traced if args.trace else measure
        outcome = measure_fn(ctx, ops, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for p in outcome.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    units = {**END_TO_END, **PER_LAYER}
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "ops": [list(op.argv) for op in ops], **machine(),
            "raw_samples": outcome.raw_samples}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
