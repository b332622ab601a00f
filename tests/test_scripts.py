"""The verification sweep in ``scripts/`` and the ``python -m braidbowl`` entry point."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from braidbowl import cabled, cli, multiball

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_checks.py"
REPORT_LINE = re.compile(r"(?:PASS|FAIL) (.*?) +\d+ comparisons +\d+\.\d+s")
TOTAL_LINE = re.compile(r"TOTAL \d+\.\d{3}s")


def report_names(stdout):
    return [m.group(1) for m in map(REPORT_LINE.fullmatch, stdout.splitlines()) if m]


def run_with_src(*argv):
    """Run ``python *argv`` in a subprocess that imports the package from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def load_script():
    spec = importlib.util.spec_from_file_location("run_checks", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def check_all_names(capsys, max_balls=1):
    """Report names of ``braidbowl check all --n 3 --max-balls N --cable 1``."""
    assert cli.main(["check", "all", "--n", "3", "--max-balls", str(max_balls), "--cable", "1",
                     "--format", "json"]) == 0
    return [r["name"] for r in json.loads(capsys.readouterr().out)["reports"]]


def test_run_checks_passes_on_a_small_grid(capsys):
    proc = run_with_src(str(SCRIPT), "--max-n", "3", "--max-balls", "1", "--max-cable", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *_, total, verdict = proc.stdout.splitlines()
    assert TOTAL_LINE.fullmatch(total) and verdict == "ALL CHECKS PASSED"
    # the one size of this grid runs exactly the CLI's suite, in order
    assert report_names(proc.stdout) == check_all_names(capsys)


def test_run_checks_prints_each_report_of_a_two_size_grid_once(capsys):
    # n=3 at N=1 and N=2 share the K=1 cabled checks and the N=1 kernel
    proc = run_with_src(str(SCRIPT), "--max-n", "3", "--max-balls", "2", "--max-cable", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = report_names(proc.stdout)
    first, second = check_all_names(capsys, 1), check_all_names(capsys, 2)
    assert set(first) & set(second)
    assert len(names) == len(set(names))
    assert names == list(dict.fromkeys(first + second))


def test_run_checks_runs_each_check_of_a_two_size_grid_once(capsys, monkeypatch):
    runs = Counter()

    def spy(module, name):
        check = getattr(module, name)

        def counted(*arguments, **options):
            runs[name, arguments, tuple(options.items())] += 1
            return check(*arguments, **options)

        monkeypatch.setattr(module, name, counted)

    for module in (multiball, cabled):
        for name in dir(module):
            if name.startswith("check_"):
                spy(module, name)
    code = load_script().main(["--max-n", "3", "--max-balls", "2", "--max-cable", "1"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert len(runs) == len(report_names(out)) and set(runs.values()) == {1}, runs


def test_run_checks_skips_sizes_the_cli_rejects(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DIM", 10)
    code = load_script().main(["--max-n", "3", "--max-balls", "2", "--max-cable", "1"])
    out = capsys.readouterr().out
    assert code == 0, out
    skips = [line for line in out.splitlines() if line.startswith("SKIP")]
    assert len(skips) == 1 and "--max-balls 2" in skips[0] and "desk-scale" in skips[0]
    assert TOTAL_LINE.fullmatch(out.splitlines()[-2])
    assert report_names(out) == check_all_names(capsys)


def test_python_m_braidbowl_prints_what_main_prints(capsys):
    argv = ["fall", "--cable", "3", "--a", "2", "--b", "1"]
    proc = run_with_src("-m", "braidbowl", *argv)
    assert cli.main(argv) == 0
    assert proc.returncode == 0 and proc.stdout == capsys.readouterr().out and proc.stderr == ""


def test_python_m_braidbowl_exits_2_on_bad_input(capsys):
    argv = ["fall", "--cable", "3", "--a", "4", "--b", "0"]
    proc = run_with_src("-m", "braidbowl", *argv)
    assert cli.main(argv) == 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == capsys.readouterr().err and proc.stderr.startswith("error: ")
