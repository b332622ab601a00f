"""Exactness checks on one operation's output, independent of the program.

Matrices are checked from the parsed JSON alone: shape, canonical integer
polynomials, entries sorted by (column, row), every column summing to the
constant 1, the conservation law of the model (``rho`` keeps the multiset
of counts, ``cabled`` the total count), and the degree bound (each crossing
contributes degree at most 1, or K^2 for a cabled crossing, which is K^2
lane crossings).  Check suites must pass and make at least the recorded
number of comparisons.
"""

from __future__ import annotations

import json

from workloads import Op, digits


def check_matrix(op: Op, data: dict) -> list[str]:
    cap_key = "N" if op.kind == "rho" else "K"
    radix = op.cap + 1
    dim = radix**op.n
    if data.get("n") != op.n or data.get(cap_key) != op.cap or data.get("dim") != dim:
        return [f"header {data.get('n')}/{data.get(cap_key)}/{data.get('dim')} "
                f"!= n={op.n} {cap_key}={op.cap} dim={dim}"]
    max_degree = op.length * (op.cap**2 if op.kind == "cabled" else 1)
    sums: dict[int, list[int]] = {}
    prev = (-1, -1)
    for entry in data["entries"]:
        row, col, value = entry
        coeffs = value["coeffs"]
        if not (0 <= row < dim and 0 <= col < dim) or (col, row) <= prev:
            return [f"entry ({row}, {col}) out of range or out of (col, row) order"]
        prev = (col, row)
        if not coeffs or coeffs[-1] == 0 or any(type(c) is not int for c in coeffs):
            return [f"entry ({row}, {col}) is not a canonical nonzero Z[q] polynomial: {coeffs}"]
        if len(coeffs) - 1 > max_degree:
            return [f"entry ({row}, {col}) has degree {len(coeffs) - 1} > {max_degree}"]
        u, v = digits(col, op.n, radix), digits(row, op.n, radix)
        kept = sorted(u) == sorted(v) if op.kind == "rho" else sum(u) == sum(v)
        if not kept:
            return [f"entry ({row}, {col}) breaks ball conservation: {u} -> {v}"]
        acc = sums.setdefault(col, [])
        if len(acc) < len(coeffs):
            acc.extend([0] * (len(coeffs) - len(acc)))
        for i, c in enumerate(coeffs):
            acc[i] += c
    for col in range(dim):
        acc = sums.get(col, [])
        while acc and acc[-1] == 0:
            acc.pop()
        if acc != [1]:
            return [f"column {col} sums to {acc}, expected [1]"]
    return []


def check_suite(data: dict, min_comparisons: int | None) -> list[str]:
    comparisons = sum(r["checks"] for r in data["reports"])
    problems = []
    if data.get("passed") is not True or not all(r["passed"] for r in data["reports"]):
        problems.append("check suite did not pass")
    if min_comparisons is not None and comparisons < min_comparisons:
        problems.append(f"{comparisons} comparisons < recorded {min_comparisons}")
    return problems


def check_output(op: Op, raw: bytes, golden: dict) -> list[str]:
    """Problems with one operation's stdout; empty when it is exact."""
    try:
        data = json.loads(raw)
        if op.kind == "check":
            return check_suite(data, golden["comparisons"].get(op.key))
        return check_matrix(op, data)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
