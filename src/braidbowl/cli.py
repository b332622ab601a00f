"""Command-line surface: matrix computation, fall distributions, and the
exact verification suite.

Subcommands
-----------
rho WORD --n N --max-balls N     transition matrix of a word
cabled WORD --n N --cable K      cabled transition matrix
fall --cable K --a A --b B       fall distribution at one cabled crossing
check SUITE [size flags]         run verification checks; exit 0 iff all pass

Exit codes: 0 pass, 1 check failure, 2 usage error.  Output is byte
deterministic for fixed inputs: entries are sorted by (column, row) and all
polynomials are canonical.  ``rho`` and ``cabled`` write every format in one
walk over the packed push, with no ``cols``: the nonempty columns in index
order, a root's rows sorted and a copy's its root's rows relabelled.  Each
distinct packed int is decoded once (``qpoly.digits``) and formatted once: as
JSON straight from its digits, as a polynomial, or as its value at
``--eval-q``, left out where it vanishes.  JSON output joins the entries as
text, the bytes of ``json.dumps`` of the whole matrix or fall distribution.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Callable

from . import cabled as cabledmod
from . import multiball
from .braid import parse_word, validate_window
from .qpoly import QPoly, digits
from .report import CheckReport

MAX_DIM = 100_000
# The (K+1)^2 fall distributions of width K take 0.7 s at K=20 and 5 s at K=30
# (one 2-vCPU VM); cabled.gauss_binom exceeds the recursion limit at K=500.
MAX_CABLE = 20
SUITES = ("braid", "hecke", "specht", "cabled", "stochastic", "all")


def fraction_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _json_text(eval_q: Fraction | None) -> Callable[[object], str]:
    """The JSON text of one entry: a polynomial, or its value at ``eval_q``."""
    return QPoly.json_text if eval_q is None else (lambda v: json.dumps(fraction_to_json(v)))


def _open_out(out_path: str | None):
    """``--out`` opened for writing, or stdout.  Opened after the argument checks
    and before the work: a bad path costs no push, a bad argument no file."""
    return open(out_path, "w") if out_path else nullcontext(sys.stdout)


def _parse_eval_q(text: str | None) -> Fraction | None:
    if text is None:
        return None
    # Fraction alone also reads exponents: 1e-99999999 builds a 10^8-digit power.
    if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
            pass
    raise ValueError(f"bad rational {text!r}; expected p/q or an integer")


def _check_dim(radix: int, n: int) -> None:
    """Reject radix^n > MAX_DIM without computing radix^n: the product grows
    one strand at a time, so an oversized n costs nothing.  Needs radix >= 2."""
    dim = 1
    for _ in range(n):
        dim *= radix
        if dim > MAX_DIM:
            raise ValueError(f"state space {radix}^{n} exceeds desk-scale cap {MAX_DIM}")


def _check_cable(K: int) -> None:
    if not 1 <= K <= MAX_CABLE:
        raise ValueError(f"--cable must be in 1..{MAX_CABLE} (desk-scale)")


def _cmd_matrix(args, cap_name: str, cap: int, build) -> int:
    """Shared body of ``rho`` and ``cabled``: ``build(word)`` is the packed
    transition matrix on states of n counts in 0..cap, written in one walk."""
    word = parse_word(args.word, args.n)
    _check_dim(cap + 1, args.n)
    eval_q = _parse_eval_q(args.eval_q)
    json_out = args.format == "json"
    fmt = _json_text(eval_q) if json_out else str
    with _open_out(args.out) as out:
        m = build(word)

        def text(x: int) -> str | None:
            coeffs = digits(x, m.width)
            if eval_q is None and json_out:
                return f'{{"coeffs": {coeffs}}}'
            v = QPoly(coeffs) if eval_q is None else QPoly(coeffs).eval_at(eval_q)
            return fmt(v) if v else None

        shown = {x: text(x) for x in set().union(*map(dict.values, m.packed.values()))}
        if json_out:
            label, tail = list(map(str, range(m.dim))), "]"
            around = lambda j: ("[", f", {j}, ")
        else:
            label, tail = [str(list(u)) for u in multiball.all_states(args.n, cap)], ""
            around = lambda j: (f"  u={label[j]} -> v=", ": ")
        # Column j of a copy is its root r's with row t moved to rows[t], a map
        # monotone in index, so r's sorted rows stay sorted.
        rows_of = {r: sorted(col) for r, col in m.packed.items()}
        entries: list[str] = []
        for j in sorted(rows_of.keys() | {j for j, (r, _) in m.copies.items() if r in rows_of}):
            r, rows = m.copies.get(j, (j, None))
            col, (head, mid) = m.packed[r], around(j)
            entries += [
                f"{head}{label[t if rows is None else rows[t]]}{mid}{s}{tail}"
                for t in rows_of[r] if (s := shown[col[t]])
            ]
        if json_out:
            meta = {"n": args.n, cap_name: cap, "dim": m.dim, "entries": []}
            before, after = json.dumps(meta).rsplit("[]", 1)
            print(f"{before}[{', '.join(entries)}]{after}", file=out)
        else:
            header = f"n={args.n} {cap_name}={cap} word='{word}' dim={m.dim}"
            print("\n".join([header, *entries]), file=out)
    return 0


def cmd_rho(args) -> int:
    N = args.max_balls
    if N < 1:
        raise ValueError("--max-balls must be >= 1")
    return _cmd_matrix(args, "N", N, lambda word: multiball.rho_matrix(word, N))


def cmd_cabled(args) -> int:
    K = args.cable
    _check_cable(K)
    return _cmd_matrix(args, "K", K, lambda word: cabledmod.rho_cabled_matrix(word, K))


def cmd_fall(args) -> int:
    K, a, b = args.cable, args.a, args.b
    _check_cable(K)
    eval_q = _parse_eval_q(args.eval_q)
    dist = cabledmod.fall_distribution(K, a, b)  # checks a and b before --out is opened
    if eval_q is not None:
        dist = {c: p.eval_at(eval_q) for c, p in dist.items()}
    if args.format == "json":
        fmt = _json_text(eval_q)
        head, tail = json.dumps({"K": K, "a": a, "b": b, "dist": {}}).rsplit("{}", 1)
        text = head + "{" + ", ".join(f'"{c}": {fmt(p)}' for c, p in dist.items()) + "}" + tail
    else:
        text = "\n".join([f"K={K} a={a} b={b}", *(f"  c={c}: {p}" for c, p in dist.items())])
    with _open_out(args.out) as out:
        print(text, file=out)
    return 0


def suite_calls(args) -> list[tuple[Callable[..., CheckReport], tuple]]:
    """The checks of ``args.suite`` at the size in ``args`` as (check, arguments)
    pairs in report order; none has run.  Raises ValueError on input ``check``
    rejects; each size cap applies only to the suites that build that size."""
    n, N, K, k, suite = args.n, args.max_balls, args.cable, args.k, args.suite
    if n < 2:
        raise ValueError("--n must be >= 2")
    if N < 1:
        raise ValueError("--max-balls must be >= 1")
    if suite != "cabled":
        _check_dim(N + 1, n)
    if suite in ("cabled", "all"):
        if not 1 <= K <= cabledmod.MAX_PLACEMENT_CABLE:
            raise ValueError(
                f"--cable must be in 1..{cabledmod.MAX_PLACEMENT_CABLE}"
                " (placement enumeration is desk-scale)"
            )
        _check_dim(K + 1, n)
    if suite in ("braid", "cabled", "all") and n < 3:
        raise ValueError("braid relation checks need --n >= 3")
    if k is not None and suite not in ("specht", "all"):
        # Only the window checks read k; elsewhere it would pass unseen.
        raise ValueError(f"--k needs a suite with the specht check, not {suite}")
    if k is not None and not 1 <= k <= n - 2:
        raise ValueError(f"--k must be in 1..{n - 2} at --n {n}")
    if suite == "specht":
        validate_window(n, N, 1 if k is None else k)
    if args.corrupt_generator and suite not in ("hecke", "all"):
        # The flag perturbs only the hecke check; elsewhere it would pass unseen.
        raise ValueError(f"--corrupt-generator needs a suite with the hecke check, not {suite}")

    calls = []
    if suite in ("braid", "all"):
        calls.append((multiball.check_braid_relation, (n, N)))
        if n >= 4:
            calls.append((multiball.check_far_commutativity, (n, N)))
    if suite in ("hecke", "all"):
        calls.append((multiball.check_hecke, (n, N, args.corrupt_generator)))
    if suite == "specht":
        calls.append((multiball.check_specht, (n, N, 1 if k is None else k)))
    if suite == "all":
        # the windows at or below N that fit (none for n - Nw < 2), at k alone if given
        calls += [(multiball.check_specht, (n, Nw, kw))
                  for Nw in range(1, N + 1) for kw in range(1, n - Nw) if k in (None, kw)]
    if suite in ("cabled", "all"):
        calls += [(cabledmod.check_cabled_braid_relation, (n, K)),
                  (cabledmod.check_cabled_formula, (K,)),
                  (cabledmod.check_oracle_placement_invariance, (K,))]
    if suite in ("stochastic", "all"):
        calls.append((multiball.check_stochastic, (n, N)))
    if suite == "all":
        # One push of the inverse products, made when the first check runs,
        # serves all three q values.
        sides = functools.cache(lambda: multiball.inverse_sides(n, N))
        calls += [(multiball.check_inverse, (n, N, x, sides))
                  for x in (Fraction(1, 2), Fraction(2), Fraction(-1))]
    return calls


def cmd_check(args) -> int:
    reports = [check(*arguments) for check, arguments in suite_calls(args)]
    passed = all(r.passed for r in reports)
    if args.format == "json":
        print(json.dumps({"passed": passed, "reports": [r.to_json() for r in reports]}))
    else:
        for r in reports:
            print(r.summary())
        print("ALL CHECKS PASSED" if passed else "CHECK FAILURES")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidbowl",
        description="Exact bowling-alley transition matrices for positive braids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--eval-q",
        help="evaluate entries at rational q, an integer or p/q with an optional "
        "sign; write a negative one as --eval-q=-2/3",
    )
    output.add_argument("--out", help="write output to a file instead of stdout")
    output.add_argument("--format", choices=("json", "pretty"), default="json")

    p_rho = sub.add_parser("rho", parents=[output], help="transition matrix of a word")
    p_rho.add_argument("word", help="whitespace-separated generator indices, e.g. '1 2 1'")
    p_rho.add_argument("--n", type=int, required=True, help="number of strands")
    p_rho.add_argument("--max-balls", type=int, required=True, help="per-lane ball cap N")
    p_rho.set_defaults(handler=cmd_rho)

    p_cab = sub.add_parser("cabled", parents=[output], help="cabled transition matrix of a word")
    p_cab.add_argument("word")
    p_cab.add_argument("--n", type=int, required=True)
    p_cab.add_argument("--cable", type=int, required=True, help="parallel lanes per group K")
    p_cab.set_defaults(handler=cmd_cabled)

    p_fall = sub.add_parser(
        "fall", parents=[output], help="fall distribution at one cabled crossing"
    )
    p_fall.add_argument("--cable", type=int, required=True)
    p_fall.add_argument("--a", type=int, required=True, help="balls entering the over group")
    p_fall.add_argument("--b", type=int, required=True, help="balls entering the under group")
    p_fall.set_defaults(handler=cmd_fall)

    p_chk = sub.add_parser("check", help="run exact verification checks")
    p_chk.add_argument("suite", choices=SUITES)
    p_chk.add_argument("--n", type=int, default=3)
    p_chk.add_argument("--max-balls", type=int, default=2)
    p_chk.add_argument("--cable", type=int, default=2)
    p_chk.add_argument("--k", type=int, default=None, help="window start for specht")
    p_chk.add_argument("--format", choices=("json", "pretty"), default="pretty")
    # Test-only negative control: perturb a generator so hecke must fail.
    p_chk.add_argument("--corrupt-generator", action="store_true", help=argparse.SUPPRESS)
    p_chk.set_defaults(handler=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
