"""``src/braidbowl`` holds only what the program runs.

Every public top-level ``def``/``class`` in the package must be read by name
somewhere in the package or in ``scripts/``, and every public method must be
read there as an attribute.  Methods are matched against attributes alone, so
a local variable that shares a method's name does not hide an unused method.
Test-only helpers belong in ``tests/`` (see ``tests/oracles.py``).

A ``_``-prefixed name is private to its module: no package module imports
one from another.

The checks compare pushed products, so no package module but ``matrix.py``
multiplies matrices with ``@``.  A pushed matrix stays packed until its
``cols`` are read, so ``TransitionMatrix.cols`` is the one decode: nothing
else in the package reads ``unpack``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "braidbowl").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def public(name):
    return not name.startswith("_")


def unread_names():
    names, attrs = set(), set()
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    unread = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not public(node.name):
                continue
            if node.name not in names | attrs:
                unread.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unread += [
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and public(item.name)
                    and item.name not in attrs
                ]
    return unread


def test_every_public_name_in_the_package_is_read_by_the_program():
    unread = unread_names()
    assert not unread, f"defined in src/braidbowl but read by nothing there or in scripts/: {unread}"


def private_imports():
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "braidbowl":
                found += [f"{path.stem}: {a.name}" for a in node.names if not public(a.name)]
    return found


def test_no_package_module_imports_a_private_name_from_another():
    found = private_imports()
    assert not found, f"private names imported across src/braidbowl modules: {found}"


def matrix_products():
    return [
        f"{path.stem}:{node.lineno}"
        for path in PACKAGE
        if path.name != "matrix.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]


def test_no_package_module_but_matrix_multiplies_matrices():
    found = matrix_products()
    assert not found, f"@ outside src/braidbowl/matrix.py: {found}"


def unpack_reads():
    """Reads of ``unpack`` in the package, as (module:line, in the decode)."""
    found = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), str(path))
        decode = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "TransitionMatrix"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "cols"
            for node in ast.walk(fn)
        }
        found += [
            (f"{path.stem}:{node.lineno}", id(node) in decode)
            for node in ast.walk(tree)
            if getattr(node, "id", None) == "unpack" or getattr(node, "attr", None) == "unpack"
        ]
    return found


def test_only_the_transition_matrix_decode_reads_unpack():
    reads = unpack_reads()
    assert any(inside for _line, inside in reads), "TransitionMatrix.cols no longer decodes"
    outside = [line for line, inside in reads if not inside]
    assert not outside, f"unpack read outside TransitionMatrix.cols: {outside}"
