#!/usr/bin/env python3
"""Record golden.json from the current sources: the sha256 digest of every
``rho`` and ``cabled`` output of the default seed, and the comparison count
of every ``check`` operation.  Run it only when the workloads change, from
the repository root:

    python3 perfbench/record_golden.py
"""

import hashlib
import json
import shutil
import sys
import time

import run
from workloads import WORKLOADS, make_ops


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    ctx = run.Context(work, time.monotonic() + 600, {"digests": {}, "comparisons": {}})
    golden = {"seed": run.DEFAULT_SEED, "digests": {}, "comparisons": {}}
    try:
        for workload in WORKLOADS:
            for op in make_ops(workload, run.DEFAULT_SEED):
                sample = run.run_op(ctx, op)
                if sample.problems:
                    print(f"{op.key}: {sample.problems}", file=sys.stderr)
                    return 1
                raw = (work / "op.out").read_bytes()
                if op.kind == "check":
                    reports = json.loads(raw)["reports"]
                    golden["comparisons"][op.key] = sum(r["checks"] for r in reports)
                else:
                    golden["digests"][op.key] = hashlib.sha256(raw).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
