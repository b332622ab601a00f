"""Tests of the benchmark itself: negative controls, tracer determinism, and
agreement between BENCHMARK.json and what run.py reports.

    python3 -m pytest perfbench
"""

import hashlib
import json
import random
import shutil
import subprocess
import sys
import time

import pytest

import run
from workloads import BAND, Op, Shape, balanced_word, branch_table, draw_word, estimate, make_ops

SMALL_RHO = Op(("rho", "1 2 1 2", "--n", "3", "--max-balls", "2"), "rho", 3, 2, 4)
SMALL_CABLED = Op(("cabled", "2 1 2", "--n", "3", "--cable", "2"), "cabled", 3, 2, 3)


@pytest.fixture
def ctx(tmp_path):
    return run.Context(tmp_path, time.monotonic() + 120, json.loads(run.GOLDEN.read_text()))


def _output(ctx, op):
    sample = run.run_op(ctx, op)
    assert sample.problems == []
    return (ctx.work / "op.out").read_bytes()


def _corrupt(raw: bytes, edit) -> bytes:
    data = json.loads(raw)
    edit(data)
    return json.dumps(data).encode() + b"\n"


@pytest.mark.parametrize("op", [SMALL_RHO, SMALL_CABLED], ids=["rho", "cabled"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["entries"][0][2]["coeffs"].__setitem__(0, d["entries"][0][2]["coeffs"][0] + 1),
        lambda d: d["entries"].pop(),
        lambda d: d["entries"].reverse(),
        lambda d: d["entries"][-1][2]["coeffs"].extend([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1]),
        lambda d: d["entries"][0].__setitem__(0, d["entries"][0][0] + 1),
        lambda d: d.__setitem__("dim", d["dim"] + 1),
    ],
    ids=["coefficient", "dropped-entry", "order", "degree", "moved-entry", "header"],
)
def test_corrupted_output_copy_fails(ctx, op, edit):
    raw = _output(ctx, op)
    assert run.judge(ctx, op, raw) == []
    assert run.judge(ctx, op, _corrupt(raw, edit)) != []


def test_recorded_digest_catches_what_invariants_cannot(ctx):
    raw = _output(ctx, SMALL_RHO)
    reformatted = json.dumps(json.loads(raw), indent=1).encode()
    assert run.judge(ctx, SMALL_RHO, reformatted) == []
    ctx.golden = {**ctx.golden, "digests": {SMALL_RHO.key: hashlib.sha256(raw).hexdigest()}}
    assert run.judge(ctx, SMALL_RHO, raw) == []
    assert run.judge(ctx, SMALL_RHO, reformatted) != []


def test_corrupt_generator_check_fails(ctx):
    base = ("check", "hecke", "--n", "3", "--max-balls", "1", "--format", "json")
    assert run.run_op(ctx, Op(base, "check")).problems == []
    sample = run.run_op(ctx, Op(base + ("--corrupt-generator",), "check"))
    assert any("exit code 1" in p for p in sample.problems)
    assert run.judge(ctx, Op(base, "check"), (ctx.work / "op.out").read_bytes()) != []


def test_fewer_comparisons_than_recorded_fails(ctx):
    op = Op(("check", "hecke", "--n", "3", "--max-balls", "1", "--format", "json"), "check")
    raw = _output(ctx, op)
    ctx.golden = {**ctx.golden, "comparisons": {op.key: 10**6}}
    ctx.verdicts.clear()
    assert any("comparisons" in p for p in run.judge(ctx, op, raw))


def test_traced_runs_repeat_and_reach_every_patched_name(ctx):
    ops = [SMALL_CABLED, Op(("check", "specht", "--n", "4", "--max-balls", "1", "--format", "json"), "check")]
    first, second = ([run.run_op(ctx, op, trace=True).trace for op in ops] for _ in range(2))
    for a, b in zip(first, second):
        assert a["counts"] == b["counts"] and a["max"] == b["max"]
    cabled, specht = (t["counts"] for t in first)
    assert cabled["cabled.falling_probability.calls"] > 0
    assert cabled["cabled.branches"] > 0 and cabled["qpoly.mul.calls"] > 0
    assert specht["multiball.branches"] > 0 and specht["braid.window_terms"] > 0
    assert specht["braid.minimal_braid.calls"] > 0 and specht["report.comparisons"] > 0
    assert first[1]["self_s"]["cli"] >= 0


def test_words_are_seeded_use_every_generator_and_stay_in_band():
    rng = random.Random(3)
    for _ in range(50):
        word = draw_word(rng, 8, 10)
        assert len(word) == 10 and set(word) == set(range(1, 8))
    probe = Shape("cabled", 4, 2, 5, 0, 0, 0)
    shape = Shape("cabled", 4, 2, 5, *estimate(probe, (1, 2, 3, 1, 2)))
    table = branch_table(shape)
    words = [balanced_word(random.Random(seed), shape, table) for seed in (7, 7, 8)]
    assert words[0] == words[1]
    for word in words:
        got = estimate(shape, word, table)
        assert all(abs(g / t - 1) <= BAND for g, t in zip(got, (shape.steps, shape.work, shape.size)))
    assert make_ops("check", 1) == make_ops("check", 2)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
