"""Seeded workloads: the CLI operations each workload runs.

Every operation is one ``braidbowl`` command line.  The seed draws the braid
words; the program only ever sees the resulting arguments.

Random words of one length differ a lot in how much work they cause (the
cost of ``rho`` varies by about 15% between words, of ``cabled`` by about
25%), which would make a run's timing depend on its seed more than on the
code.  So each word is drawn from the seed and kept only when a cheap,
independent estimate of its work lies within ``BAND`` of a fixed target.
The estimate pushes polynomial *lengths* instead of polynomials through the
same crossing rules as the program and returns three sums: ``steps``, the
(state, letter) pairs the push visits (one branch call each); ``work``, the
coefficient products it multiplies (within about 1% of the program's exact
count); and ``size``, the output polynomial lengths (within about 2% of the
output size).  The targets are medians over random words of the shape.
"""

from __future__ import annotations

import random
import shlex
import time
from dataclasses import dataclass

BAND = 0.04
MAX_DRAWS = 1000


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple[str, ...]
    kind: str  # "rho", "cabled" or "check"
    n: int = 0
    cap: int = 0  # N for rho, K for cabled
    length: int = 0

    @property
    def key(self) -> str:
        return shlex.join(self.argv)


@dataclass(frozen=True)
class Shape:
    kind: str
    n: int
    cap: int
    length: int
    steps: int  # medians of the estimates over random words of this shape
    work: int
    size: int


RHO_SHAPES = (
    Shape("rho", 6, 3, 10, steps=180_000, work=1_830_000, size=344_000),
    Shape("rho", 8, 2, 10, steps=264_000, work=2_171_000, size=443_000),
)
CABLED_SHAPE = Shape("cabled", 5, 3, 6, steps=34_600, work=3_650_000, size=434_000)
CABLED_WORDS = 2
CHECK_ARGVS = (
    ("check", "all", "--n", "4", "--max-balls", "2", "--cable", "3", "--format", "json"),
    ("check", "specht", "--n", "6", "--max-balls", "2", "--k", "1", "--format", "json"),
)
WORKLOADS = ("rho", "cabled", "check")


def draw_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A positive word of the given length in which every generator 1..n-1
    appears at least once."""
    letters = list(range(1, n)) + [rng.randint(1, n - 1) for _ in range(length - (n - 1))]
    rng.shuffle(letters)
    return tuple(letters)


def digits(idx: int, n: int, radix: int) -> tuple[int, ...]:
    """The state with mixed-radix index ``idx``, position 1 first."""
    out = []
    for _ in range(n):
        idx, c = divmod(idx, radix)
        out.append(c)
    return tuple(out)


def _index(u: tuple[int, ...], radix: int) -> int:
    idx = 0
    for c in reversed(u):
        idx = idx * radix + c
    return idx


def branch_table(shape: Shape) -> list[list[list[tuple[int, int]]]]:
    """table[i][s] = [(target state, degree of the branch weight), ...] for
    generator i on state index s, following the program's crossing rules
    (see README.md, "Crossing branches", and the cabled fall formula)."""
    n, cap = shape.n, shape.cap
    dim = (cap + 1) ** n
    table: list[list[list[tuple[int, int]]]] = [[] for _ in range(n)]
    for i in range(1, n):
        rows = table[i]
        for s in range(dim):
            u = digits(s, n, cap + 1)
            a, b = u[i - 1], u[i]
            if shape.kind == "rho":
                swapped = _index(u[: i - 1] + (b, a) + u[i + 1 :], cap + 1)
                rows.append([(swapped, 0)] if a <= b else [(swapped, 1), (s, 1)])
            else:
                K = cap
                branches = []
                for c in range(min(a, K - b) + 1):
                    degree = (
                        c * (a - c) + c * (K - b - c) + c * (c - 1) // 2 + c
                        + (a - c) * (K - b - c)
                    )
                    t = _index(u[: i - 1] + (b + c, a - c) + u[i + 1 :], K + 1)
                    branches.append((t, degree))
                rows.append(branches)
    return table


def estimate(shape: Shape, word: tuple[int, ...], table=None) -> tuple[int, int, int]:
    """(steps, work, size) estimate of one word; see the module docstring."""
    table = table or branch_table(shape)
    dim = (shape.cap + 1) ** shape.n
    steps = work = size = 0
    for col in range(dim):
        dist = {col: 1}
        for i in word:
            rows = table[i]
            nxt: dict[int, int] = {}
            steps += len(dist)
            for s, length in dist.items():
                for t, degree in rows[s]:
                    work += length * (degree + 1)
                    grown = length + degree
                    if nxt.get(t, 0) < grown:
                        nxt[t] = grown
            dist = nxt
        size += sum(dist.values())
    return steps, work, size


def balanced_word(rng: random.Random, shape: Shape, table) -> tuple[int, ...]:
    for _ in range(MAX_DRAWS):
        word = draw_word(rng, shape.n, shape.length)
        got = estimate(shape, word, table)
        if all(abs(g / t - 1) <= BAND for g, t in zip(got, (shape.steps, shape.work, shape.size))):
            return word
    raise RuntimeError(f"no word of shape {shape} within the work band")


def _word_op(shape: Shape, word: tuple[int, ...]) -> Op:
    flag = "--max-balls" if shape.kind == "rho" else "--cable"
    argv = (shape.kind, " ".join(map(str, word)), "--n", str(shape.n), flag, str(shape.cap))
    return Op(argv, shape.kind, shape.n, shape.cap, shape.length)


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of a workload, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "rho":
        return [_word_op(s, balanced_word(rng, s, branch_table(s))) for s in RHO_SHAPES]
    if workload == "cabled":
        table = branch_table(CABLED_SHAPE)
        return [
            _word_op(CABLED_SHAPE, balanced_word(rng, CABLED_SHAPE, table))
            for _ in range(CABLED_WORDS)
        ]
    if workload == "check":
        return [Op(argv, "check") for argv in CHECK_ARGVS]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


REFERENCE_N, REFERENCE_CAP, REFERENCE_WORD = 5, 3, (1, 2, 3, 4, 2, 1, 3, 2)


def _poly_add(p: tuple[int, ...], r: tuple[int, ...]) -> tuple[int, ...]:
    if len(p) < len(r):
        p, r = r, p
    out = tuple(x + y for x, y in zip(p, r)) + p[len(r) :]
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop that never calls the
    program, to measure how fast the processor running it is right now.

    It is a small exact ``rho`` push with coefficient tuples, so it
    allocates and keeps objects much as the program does."""
    n, radix = REFERENCE_N, REFERENCE_CAP + 1
    start = time.perf_counter()
    kept = []
    for col in range(radix**n):
        dist = {digits(col, n, radix): (1,)}
        for i in REFERENCE_WORD:
            nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
            for s, w in dist.items():
                a, b = s[i - 1], s[i]
                swapped = s[: i - 1] + (b, a) + s[i + 1 :]
                if a <= b:
                    branches = ((swapped, w),)
                else:
                    shifted = (0,) + w
                    branches = ((swapped, shifted), (s, _poly_add(w, tuple(-c for c in shifted))))
                for t, p in branches:
                    nxt[t] = _poly_add(nxt[t], p) if t in nxt else p
            dist = {t: p for t, p in nxt.items() if p}
        kept.append(dist)
    return time.perf_counter() - start
