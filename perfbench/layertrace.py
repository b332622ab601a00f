"""Per-layer counters and spans, installed from outside the program.

``install()`` replaces public functions and methods of the ``braidbowl``
modules with wrappers, each under the name the calling code looks it up by:
``cabled.falling_probability`` and ``multiball.specht_element`` are patched
in the importing module, ``QPoly.__rmul__`` separately from ``__mul__``
(it is an alias of the original, not a lookup of it), and the CLI handlers
before ``build_parser`` binds them.

QPoly arithmetic runs about a million times per operation, so it is only
counted; coarser calls are also timed as spans.  A span's self time is its
duration minus the spans it directly encloses, so ``cli`` self time is the
``cmd_*`` handlers' own work (argument checks and output serialization).
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.fall_args: set = set()
        self._open: list[float] = []  # time covered by child spans, per open span

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` to count and time it as span ``name``."""
        counts, total_s, self_s, open_ = self.counts, self.total_s, self.self_s, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            counts[name + ".calls"] += 1
            open_.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_.pop()
                total_s[name] += elapsed
                self_s[name] += elapsed - children
                if open_:
                    open_[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, fn, name, amount):
        """Wrap ``fn`` to add ``amount(args, result)`` to counter ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += amount(args, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "counts": dict(self.counts),
            "max": dict(self.maxima),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "fall_distinct": len(self.fall_args),
        }


def _patch_qpoly(tracer: Tracer, QPoly) -> None:
    counts, maxima = tracer.counts, tracer.maxima

    def wrap_mul(orig):
        def mul(self, other):
            counts["qpoly.mul.calls"] += 1
            if isinstance(other, QPoly):
                counts["qpoly.mul.coeff_products"] += len(self.coeffs) * len(other.coeffs)
            elif isinstance(other, int):
                counts["qpoly.mul.coeff_products"] += len(self.coeffs)
            return orig(self, other)

        return mul

    def wrap_add(orig):
        def add(self, other):
            counts["qpoly.add.calls"] += 1
            return orig(self, other)

        return add

    orig_post_init = QPoly.__post_init__

    def post_init(self):
        orig_post_init(self)
        counts["qpoly.construct.calls"] += 1
        coeffs = self.coeffs
        if coeffs:
            if len(coeffs) - 1 > maxima["qpoly.max_degree"]:
                maxima["qpoly.max_degree"] = len(coeffs) - 1
            bits = max(map(int.bit_length, coeffs))
            if bits > maxima["qpoly.max_coeff_bits"]:
                maxima["qpoly.max_coeff_bits"] = bits

    QPoly.__mul__ = wrap_mul(QPoly.__mul__)
    QPoly.__rmul__ = wrap_mul(QPoly.__rmul__)
    QPoly.__add__ = wrap_add(QPoly.__add__)
    QPoly.__radd__ = wrap_add(QPoly.__radd__)
    QPoly.__post_init__ = post_init


def install() -> Tracer:
    from braidbowl import braid, cabled, cli, matrix, multiball, qpoly, report

    t = Tracer()
    counts, maxima = t.counts, t.maxima
    once = lambda args, result: 1
    branches = lambda args, result: len(result)
    terms = lambda args, result: len(result.terms)

    _patch_qpoly(t, qpoly.QPoly)

    braid.minimal_braid = t.counted(braid.minimal_braid, "braid.minimal_braid.calls", once)
    multiball.specht_element = t.counted(multiball.specht_element, "braid.window_terms", terms)
    multiball.specht_half = t.counted(multiball.specht_half, "braid.window_terms", terms)

    M = matrix.Matrix

    def count_scalar_products(args):
        a, b = args
        acols = a.cols
        counts["matrix.matmul.scalar_products"] += sum(
            len(acols.get(r, ())) for bcol in b.cols.values() for r in bcol
        )

    def record_nnz(args, _result):
        nnz = sum(len(c) for c in args[0].cols.values())
        if nnz > maxima["matrix.nnz"]:
            maxima["matrix.nnz"] = nnz

    M.__matmul__ = t.span("matrix.matmul", M.__matmul__, before=count_scalar_products)
    M.__add__ = t.span("matrix.add", M.__add__)
    M.eval_at = t.span("matrix.eval_at", M.eval_at)
    matrix.TransitionMatrix.__init__ = t.span(
        "matrix.transition_validate", matrix.TransitionMatrix.__init__, after=record_nnz
    )

    multiball.apply_generator = t.counted(multiball.apply_generator, "multiball.branches", branches)
    multiball.rho_matrix = t.span(
        "multiball.rho_matrix",
        multiball.rho_matrix,
        before=lambda args: counts.update({"multiball.columns": (args[1] + 1) ** args[0].n}),
    )
    multiball.rho_element = t.counted(
        multiball.rho_element, "multiball.rho_element.terms", lambda args, r: len(args[0].terms)
    )
    for name in ("check_braid_relation", "check_far_commutativity", "check_hecke",
                 "check_specht", "check_inverse", "check_stochastic"):
        setattr(multiball, name, t.span("multiball.check", getattr(multiball, name)))

    cabled.apply_generator_cabled = t.counted(
        cabled.apply_generator_cabled, "cabled.branches", branches
    )
    cabled.falling_probability = t.counted(
        cabled.falling_probability, "cabled.falling_probability.calls", once
    )
    cabled.fall_distribution = t.span(
        "cabled.fall_distribution", cabled.fall_distribution, before=t.fall_args.add
    )
    cabled.crossing_oracle = t.span("cabled.crossing_oracle", cabled.crossing_oracle)
    cabled.rho_cabled_matrix = t.span("cabled.rho_cabled_matrix", cabled.rho_cabled_matrix)
    for name in ("check_cabled_braid_relation", "check_cabled_formula",
                 "check_oracle_placement_invariance"):
        setattr(cabled, name, t.span("cabled.check", getattr(cabled, name)))

    report.CheckReport.record = t.counted(report.CheckReport.record, "report.comparisons", once)

    for name in ("cmd_rho", "cmd_cabled", "cmd_fall", "cmd_check"):
        setattr(cli, name, t.span("cli", getattr(cli, name)))
    return t
