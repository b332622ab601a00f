"""CLI surface: JSON schemas, determinism, exit codes."""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import entries_sorted, written_matrix

from braidbowl import cabled, cli, multiball
from braidbowl.braid import BraidWord, parse_word
from braidbowl.cabled import rho_cabled_matrix
from braidbowl.cli import SUITES, build_parser, fraction_to_json, main, suite_calls
from braidbowl.matrix import TransitionMatrix
from braidbowl.multiball import index_state, rho_matrix, state_index
from braidbowl.qpoly import Q, digits
from test_multiball import drop_one_ball
from test_push import words


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRhoCommand:
    def test_golden_entry(self, capsys):
        code, out, _ = run(capsys, "rho", "1 2 1", "--n", "3", "--max-balls", "1")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 3 and data["N"] == 1 and data["dim"] == 8
        row = state_index((0, 0, 1), 1)
        col = state_index((1, 0, 0), 1)
        entries = {(r, c): v for r, c, v in data["entries"]}
        assert entries[(row, col)] == {"coeffs": [0, 0, 1]}

    def test_empty_word_identity(self, capsys):
        code, out, _ = run(capsys, "rho", "", "--n", "2", "--max-balls", "2")
        data = json.loads(out)
        assert code == 0 and data["dim"] == 9
        assert data["entries"] == [[j, j, {"coeffs": [1]}] for j in range(9)]

    def test_eval_q(self, capsys):
        code, out, _ = run(
            capsys, "rho", "1 2 1", "--n", "3", "--max-balls", "1",
            "--eval-q", "1/2",
        )
        data = json.loads(out)
        row = state_index((0, 0, 1), 1)
        col = state_index((1, 0, 0), 1)
        entries = {(r, c): v for r, c, v in data["entries"]}
        assert entries[(row, col)] == {"num": 1, "den": 4}

    def test_entries_sorted_by_col_row(self, capsys):
        _, out, _ = run(capsys, "rho", "1 2", "--n", "3", "--max-balls", "1")
        data = json.loads(out)
        keys = [(c, r) for r, c, _v in data["entries"]]
        assert keys == sorted(keys)

    def test_byte_deterministic(self, capsys):
        args = ("rho", "1 2 1", "--n", "3", "--max-balls", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        code, out, _ = run(
            capsys, "rho", "1", "--n", "2", "--max-balls", "1", "--out", str(path)
        )
        assert code == 0 and out == ""
        data = json.loads(path.read_text())
        assert data["dim"] == 4

    def test_pretty_format(self, capsys):
        code, out, _ = run(
            capsys, "rho", "1", "--n", "2", "--max-balls", "1",
            "--format", "pretty",
        )
        assert code == 0
        assert "u=[1, 0] -> v=[0, 1]: q" in out

    def test_word_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "rho", "3", "--n", "3", "--max-balls", "1")
        assert code == 2
        assert "out of range" in err

    def test_bad_eval_q(self, capsys):
        code, _, err = run(
            capsys, "rho", "1", "--n", "2", "--max-balls", "1", "--eval-q", "abc"
        )
        assert code == 2 and "rational" in err


class TestCabledCommand:
    def test_full_group_column(self, capsys):
        code, out, _ = run(capsys, "cabled", "1", "--n", "2", "--cable", "2")
        data = json.loads(out)
        assert code == 0 and data["dim"] == 9 and data["K"] == 2
        col = 2  # state (2, 0)
        entries = {(r, c): tuple(v["coeffs"]) for r, c, v in data["entries"]}
        assert entries[(6, col)] == (0, 0, 0, 0, 1)  # (0,2): q^4
        assert entries[(4, col)] == (0, 1, 1, -1, -1)  # (1,1): q(1-q)(1+q)^2
        assert entries[(2, col)] == (1, -1, -1, 1)  # (2,0): (1+q)(1-q)^2

    def test_empty_word_identity(self, capsys):
        code, out, _ = run(capsys, "cabled", "", "--n", "2", "--cable", "1")
        data = json.loads(out)
        assert code == 0 and data["dim"] == 4
        assert data["entries"] == [[j, j, {"coeffs": [1]}] for j in range(4)]

    def test_eval_q_one_gives_reversal_permutation_matrix(self, capsys):
        code, out, _ = run(
            capsys, "cabled", "1 2 1", "--n", "3", "--cable", "2", "--eval-q", "1"
        )
        data = json.loads(out)
        assert code == 0
        cols = {}
        for r, c, v in data["entries"]:
            assert v == {"num": 1, "den": 1}
            assert c not in cols
            cols[c] = r
        # at q = 1 nothing falls and all three positions reverse
        assert len(cols) == 27
        for c, r in cols.items():
            state = index_state(c, 3, 2)
            assert index_state(r, 3, 2) == state[::-1]


class TestFallCommand:
    def test_single_lane(self, capsys):
        code, out, _ = run(capsys, "fall", "--cable", "1", "--a", "1", "--b", "0")
        data = json.loads(out)
        assert code == 0
        assert data == {
            "K": 1, "a": 1, "b": 0,
            "dist": {"0": {"coeffs": [0, 1]}, "1": {"coeffs": [1, -1]}},
        }

    def test_no_room_to_fall(self, capsys):
        _, out, _ = run(capsys, "fall", "--cable", "2", "--a", "1", "--b", "2")
        assert json.loads(out)["dist"] == {"0": {"coeffs": [1]}}

    def test_three_term_distribution(self, capsys):
        _, out, _ = run(capsys, "fall", "--cable", "2", "--a", "2", "--b", "0")
        dist = json.loads(out)["dist"]
        assert list(dist) == ["0", "1", "2"]
        assert dist["1"] == {"coeffs": [0, 1, 1, -1, -1]}

    def test_eval_q_at_a_root_keeps_the_value_that_vanishes(self, capsys):
        # Unlike the rho and cabled entries, the distribution keeps every c.
        _, out, _ = run(capsys, "fall", "--cable", "1", "--a", "1", "--b", "0", "--eval-q=1")
        assert out == (
            '{"K": 1, "a": 1, "b": 0, "dist": {"0": {"num": 1, "den": 1}, '
            '"1": {"num": 0, "den": 1}}}\n'
        )

    def test_preconditions(self, capsys):
        code, _, err = run(capsys, "fall", "--cable", "2", "--a", "3", "--b", "0")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("a, b", [(0, 5), (-1, 0)])
    def test_counts_outside_cable_rejected(self, capsys, a, b):
        code, out, err = run(capsys, "fall", "--cable", "3", "--a", str(a), "--b", str(b))
        assert code == 2 and "error" in err and out == ""


class TestCheckCommand:
    def test_check_all_small(self, capsys):
        code, out, _ = run(
            capsys, "check", "all",
            "--n", "3", "--max-balls", "2", "--cable", "2",
        )
        assert code == 0
        assert "ALL CHECKS PASSED" in out

    def test_check_specht(self, capsys):
        code, out, _ = run(
            capsys, "check", "specht", "--n", "4", "--max-balls", "2", "--k", "1"
        )
        assert code == 0
        assert "PASS" in out

    def test_corrupted_generator_fails(self, capsys):
        code, out, _ = run(
            capsys, "check", "hecke", "--n", "2", "--max-balls", "1",
            "--corrupt-generator",
        )
        assert code == 1
        assert "FAIL" in out
        assert "expected" in out  # first failing entry is shown

    @pytest.mark.parametrize("suite", ["braid", "specht", "cabled", "stochastic"])
    def test_corrupted_generator_without_the_hecke_check_is_a_usage_error(self, capsys, suite):
        # A negative control that no check reads would pass: exit 2, run nothing.
        code, out, err = run(
            capsys, "check", suite, "--n", "4", "--max-balls", "1", "--corrupt-generator",
        )
        assert code == 2 and out == ""
        message = f"--corrupt-generator needs a suite with the hecke check, not {suite}"
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("suite", ["braid", "hecke", "cabled", "stochastic"])
    def test_k_without_the_specht_check_is_a_usage_error(self, capsys, suite):
        # Only the window checks read --k: exit 2, run nothing.
        code, out, err = run(
            capsys, "check", suite, "--n", "4", "--max-balls", "1", "--k", "1",
        )
        assert code == 2 and out == ""
        assert err == f"error: --k needs a suite with the specht check, not {suite}\n"

    def test_corrupted_generator_fails_check_all(self, capsys):
        code, out, _ = run(
            capsys, "check", "all", "--n", "3", "--max-balls", "1", "--cable", "1",
            "--corrupt-generator",
        )
        assert code == 1
        assert "FAIL hecke-quadratic n=3 N=1" in out and out.endswith("CHECK FAILURES\n")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "check", "hecke", "--n", "2", "--max-balls", "1",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["reports"][0]["checks"] == 1

    def test_bad_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "nonsense"])
        assert exc.value.code == 2

    def test_size_cap(self, capsys):
        code, _, err = run(
            capsys, "check", "hecke", "--n", "12", "--max-balls", "3"
        )
        assert code == 2 and "desk-scale" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("rho", "1", "--n", "1000000000000", "--max-balls", "1"),
        ("cabled", "1", "--n", "1000000000000", "--cable", "1"),
        ("check", "hecke", "--n", "1000000000000"),
    ],
)
def test_huge_strand_count_rejected_before_allocation(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "desk-scale" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "hecke", "--n", "11", "--max-balls", "1"),
        ("check", "cabled", "--n", "9", "--max-balls", "3", "--cable", "1"),
    ],
)
def test_size_cap_applies_only_to_the_size_a_suite_builds(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and "ALL CHECKS PASSED" in out and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "all", "--n", "11", "--max-balls", "1"),
        ("check", "cabled", "--n", "11", "--max-balls", "1", "--cable", "2"),
    ],
)
def test_cable_size_cap_still_rejects_suites_that_build_it(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "3^11" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("fall", "--cable", "1100", "--a", "1", "--b", "0"),
        ("cabled", "1", "--n", "2", "--cable", "21"),
    ],
)
def test_cable_width_above_cap_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "--cable" in err and out == ""


def test_cable_range_applies_only_to_suites_that_build_cabled_matrices(capsys):
    code, out, err = run(capsys, "check", "hecke", "--n", "3", "--max-balls", "1", "--cable", "5")
    assert code == 0 and "ALL CHECKS PASSED" in out and err == ""
    for suite in ("cabled", "all"):
        code, out, err = run(capsys, "check", suite, "--n", "3", "--cable", "5")
        assert code == 2 and "--cable" in err and out == ""


@pytest.mark.parametrize(
    "argv, build",
    [
        (("rho", "1 2 1 3 2", "--n", "4", "--max-balls", "2"), lambda w: rho_matrix(w, 2)),
        (("cabled", "1 2 1", "--n", "3", "--cable", "2"), lambda w: rho_cabled_matrix(w, 2)),
    ],
)
@pytest.mark.parametrize("q", ["1/2", "1", "-3", "-2/3"])
def test_evaluated_output_matches_each_entry_evaluated_and_formatted(capsys, argv, build, q):
    """The CLI evaluates and formats each distinct entry once; the reference
    evaluates the whole matrix and formats every entry on its own.  The value
    is passed in the ``--eval-q=`` form, which also reads a negative fraction."""
    m = build(parse_word(argv[1], int(argv[3]))).eval_at(Fraction(q))
    _, out, _ = run(capsys, *argv, f"--eval-q={q}")
    expected = [[i, j, fraction_to_json(v)] for i, j, v in entries_sorted(m)]
    assert json.loads(out)["entries"] == expected
    _, out, _ = run(capsys, *argv, f"--eval-q={q}", "--format", "pretty")
    assert [line.rsplit(": ", 1)[1] for line in out.splitlines()[1:]] == [
        str(v) for _i, _j, v in entries_sorted(m)
    ]


MODELS = {"rho": ("--max-balls", "N", rho_matrix), "cabled": ("--cable", "K", rho_cabled_matrix)}


def stdout_of(argv) -> str:
    """Stdout of one successful run; capsys is function-scoped, so hypothesis
    examples capture it themselves."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def whole_matrix_json(command: str, word: BraidWord, cap: int, q: str | None) -> str:
    """The JSON output as one ``json.dumps`` of the whole matrix, every entry
    converted on its own: the reference for the CLI's per-entry encoding."""
    _flag, cap_name, build = MODELS[command]
    m = build(word, cap)
    if q is None:
        entries = [[i, j, {"coeffs": list(v.coeffs)}] for i, j, v in entries_sorted(m)]
    else:
        m = m.eval_at(Fraction(q))
        entries = [[i, j, fraction_to_json(v)] for i, j, v in entries_sorted(m)]
    return json.dumps({"n": word.n, cap_name: cap, "dim": m.dim, "entries": entries}) + "\n"


def matrix_argv(command: str, word: BraidWord, cap: int, q: str | None) -> list[str]:
    argv = [command, " ".join(map(str, word.letters)), "--n", str(word.n)]
    argv += [MODELS[command][0], str(cap)]
    return argv if q is None else argv + ["--eval-q", q]


@pytest.mark.parametrize("command", sorted(MODELS))
@pytest.mark.parametrize("q", [None, "1", "0", "-3", "1/2"])
@given(word=words(), cap=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_json_output_equals_dumps_of_the_whole_matrix(command, q, word, cap):
    argv = matrix_argv(command, word, cap, q)
    assert stdout_of(argv) == whole_matrix_json(command, word, cap, q)


@pytest.mark.parametrize(
    "command, word, cap",
    [("rho", BraidWord(3, (1, 2) * 20), 2), ("cabled", BraidWord(2, (1,) * 12), 4)],
)
@pytest.mark.parametrize("q", [None, "-3"])
def test_json_output_of_long_words_equals_dumps_of_the_whole_matrix(command, word, cap, q):
    """Coefficients wider than 64 bits, the golden long words."""
    argv = matrix_argv(command, word, cap, q)
    assert stdout_of(argv) == whole_matrix_json(command, word, cap, q)


# (command, n, cap): with orbit copies at n = 3, N = 5 and n = 4, N = 3.
WRITER_SHAPES = [("rho", 3, 5), ("rho", 4, 3), ("rho", 3, 2), ("cabled", 3, 2), ("cabled", 4, 1)]
WRITER_QS = [None, "0", "1", "-1", "2/3"]


def assert_written_like_the_oracle(command, word, cap, fmt, q):
    _flag, cap_name, build = MODELS[command]
    argv = [*matrix_argv(command, word, cap, None), "--format", fmt]
    argv += [] if q is None else [f"--eval-q={q}"]
    eval_q = None if q is None else Fraction(q)
    expected = written_matrix(build(word, cap), word, cap_name, cap, fmt, eval_q)
    assert stdout_of(argv) == expected


@pytest.mark.parametrize("fmt", ["json", "pretty"])
@pytest.mark.parametrize("q", WRITER_QS)
@given(shape=st.sampled_from(WRITER_SHAPES), data=st.data())
@settings(max_examples=20, deadline=None)
def test_the_packed_walk_writes_what_the_decoded_walk_wrote(fmt, q, shape, data):
    command, n, cap = shape
    letters = data.draw(st.lists(st.integers(1, n - 1), max_size=6))
    assert_written_like_the_oracle(command, BraidWord(n, tuple(letters)), cap, fmt, q)


@pytest.mark.parametrize(
    "command, word, cap",
    [("rho", BraidWord(3, (1, 2) * 20), 2), ("cabled", BraidWord(2, (1,) * 12), 4)],
)
@pytest.mark.parametrize("fmt", ["json", "pretty"])
@pytest.mark.parametrize("q", WRITER_QS)
def test_the_packed_walk_writes_digits_over_64_bits_as_the_decoded_walk_did(
    command, word, cap, fmt, q
):
    assert MODELS[command][2](word, cap).width > 64
    assert_written_like_the_oracle(command, word, cap, fmt, q)


@pytest.mark.parametrize(
    "command, word, cap",
    [("rho", BraidWord(4, (1, 2, 1, 3, 2, 1)), 3), ("cabled", BraidWord(3, (1, 2, 1, 1)), 2)],
    ids=["rho", "cabled"],
)
@pytest.mark.parametrize(
    "extra", [[], ["--format", "pretty"], ["--eval-q", "1/2"]], ids=["json", "pretty", "eval"]
)
def test_the_writer_decodes_each_distinct_packed_entry_once_and_never_reads_cols(
    monkeypatch, command, word, cap, extra
):
    """The CLI writes from the packed push: no ``TransitionMatrix.cols``, and
    one ``qpoly.digits`` per distinct packed int of the root columns."""
    packed = MODELS[command][2](word, cap).packed
    distinct = set().union(*map(dict.values, packed.values()))
    decoded, reads = [], []
    cols = TransitionMatrix.cols
    monkeypatch.setattr(
        TransitionMatrix, "cols", property(lambda m: reads.append(m) or cols.__get__(m))
    )
    monkeypatch.setattr(cli, "digits", lambda x, width: decoded.append(x) or digits(x, width))
    stdout_of([*matrix_argv(command, word, cap, None), *extra])
    assert reads == []
    assert len(decoded) == len(distinct) and set(decoded) == distinct


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("rho", "1", "--n", "2", "--max-balls", "1"),
        ("fall", "--cable", "2", "--a", "1", "--b", "0"),
    ],
)
@pytest.mark.parametrize("q", ["1e-99999999", "1e3", "1.5", "1/0", " 1/2", "0x10"])
def test_eval_q_accepts_only_an_integer_or_p_over_q(capsys, argv, q):
    """Fraction alone also reads exponents, and 1e-99999999 would build a
    10^8-digit power: every form but [sign]integer[/integer] is refused first."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, f"--eval-q={q}")
    assert code == 2 and "bad rational" in err and out == ""
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("target", [".", "missing/matrix.json"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, target):
    code, out, err = run(
        capsys, "rho", "1", "--n", "2", "--max-balls", "1", "--out", str(tmp_path / target)
    )
    assert code == 2 and err.startswith("error: ") and out == ""


@pytest.mark.parametrize("target", [".", "missing/matrix.json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("rho", "2 5 1 5 4 6 5 7 3 4", "--n", "8", "--max-balls", "2"),
        ("cabled", "1 2 1", "--n", "3", "--cable", "2"),
    ],
)
def test_unwritable_out_is_refused_before_the_push(capsys, monkeypatch, tmp_path, argv, target):
    """The sink is opened before the matrix is built, so a bad ``--out`` costs
    no push: a push here fails the test instead of returning a matrix."""
    def no_push(*_args):
        raise AssertionError("the push ran before --out was opened")

    monkeypatch.setattr(multiball, "push_columns", no_push)
    monkeypatch.setattr(cabled, "push_columns", no_push)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 2 and err.startswith("error: ") and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("rho", "3", "--n", "3", "--max-balls", "1"),
        ("cabled", "1", "--n", "3", "--cable", "2", "--eval-q", "1.5"),
        ("fall", "--cable", "2", "--a", "3", "--b", "0"),
    ],
)
def test_bad_argument_with_writable_out_creates_no_file(capsys, tmp_path, argv):
    path = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2 and err.startswith("error: ") and out == ""
    assert not path.exists()


@pytest.mark.parametrize("suite", ["all", "specht"])
@pytest.mark.parametrize("k", ["0", "3", "9"])
def test_k_outside_the_window_starts_is_a_usage_error(capsys, suite, k):
    code, out, err = run(capsys, "check", suite, "--n", "4", "--max-balls", "2", "--k", k)
    assert code == 2 and "--k must be in 1..2" in err and out == ""


@pytest.mark.parametrize(
    "size, message",
    [
        (["--n", "4", "--max-balls", "3"], "need n >= N + 2, got n=4, N=3"),
        (["--n", "6", "--max-balls", "2", "--k", "4"], "window start k=4 out of range 1..3"),
    ],
)
def test_specht_window_that_does_not_fit_is_rejected_before_any_check_runs(capsys, size, message):
    args = build_parser().parse_args(["check", "specht", *size])
    with pytest.raises(ValueError) as exc:
        suite_calls(args)
    assert str(exc.value) == message
    code, out, err = run(capsys, "check", "specht", *size)
    assert code == 2 and err == f"error: {message}\n" and out == ""


@pytest.mark.parametrize("suite", ["braid", "cabled", "all"])
def test_braid_relation_suites_reject_two_strands_before_any_check_runs(capsys, monkeypatch, suite):
    def no_push(*_args):
        raise AssertionError("a check ran before the strand count was checked")

    monkeypatch.setattr(multiball, "push_columns", no_push)
    monkeypatch.setattr(cabled, "push_columns", no_push)
    code, out, err = run(capsys, "check", suite, "--n", "2", "--max-balls", "1", "--cable", "2")
    assert code == 2 and err == "error: braid relation checks need --n >= 3\n" and out == ""


def test_check_cabled_runs_at_the_strand_count_given(capsys):
    code, out, _ = run(capsys, "check", "cabled", "--n", "4", "--cable", "1")
    assert code == 0 and "PASS cabled-braid-relation n=4 K=1" in out


@pytest.mark.parametrize("suite", SUITES)
def test_suite_calls_lists_the_checks_without_running_any(monkeypatch, suite):
    def no_push(*_args):
        raise AssertionError("a check ran while its suite was listed")

    monkeypatch.setattr(multiball, "push_columns", no_push)
    monkeypatch.setattr(cabled, "push_columns", no_push)
    assert suite_calls(build_parser().parse_args(["check", suite, "--n", "4", "--max-balls", "2"]))


def test_suite_calls_of_check_all_run_to_the_golden_reports_in_order(capsys):
    argv = ["check", "all", "--n", "4", "--max-balls", "2", "--cable", "3", "--format", "json"]
    calls = suite_calls(build_parser().parse_args(argv))
    assert len(calls) == 13
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [check(*arguments).name for check, arguments in calls] == [
        r["name"] for r in json.loads(out)["reports"]
    ]


def test_check_all_pushes_the_inverse_products_once_per_run(capsys, monkeypatch):
    # The inverse products are the only ones with a term of coefficient q - 1;
    # one push serves the checks at q = 1/2, 2 and -1, and a second run
    # pushes them again, so a fall patched in between is seen.
    batches, original = [], multiball.push_columns

    def spy(products, *args):
        batches.append(products)
        return original(products, *args)

    monkeypatch.setattr(multiball, "push_columns", spy)
    inverse = lambda: sum(
        any(c == Q - 1 for factors in products for factor in factors for _w, c in factor)
        for products in batches
    )
    argv = ["check", "all", "--n", "4", "--max-balls", "2", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    reports = [r for r in json.loads(out)["reports"] if r["name"].startswith("inverse-formula")]
    assert code == 0 and inverse() == 1
    assert [(r["name"], r["checks"]) for r in reports] == [
        (f"inverse-formula n=4 N=2 q={x}", 3) for x in ("1/2", "2", "-1")
    ]
    monkeypatch.setattr(multiball, "apply_generator", drop_one_ball)
    code, out, _ = run(capsys, *argv)
    reports = [r for r in json.loads(out)["reports"] if r["name"].startswith("inverse-formula")]
    assert code == 1 and inverse() == 2
    assert len(reports) == 3 and not any(r["passed"] for r in reports)


def test_check_all_runs_k_only_where_it_is_admissible(capsys):
    code, out, _ = run(
        capsys, "check", "all", "--n", "5", "--max-balls", "2", "--k", "3", "--format", "json"
    )
    names = [r["name"] for r in json.loads(out)["reports"]]
    assert code == 0 and [x for x in names if x.startswith("specht")] == [
        "specht-kernel n=5 N=1 k=3"
    ]
