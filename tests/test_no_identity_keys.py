"""No module in the library calls ``id``.

An id is reused once its object dies, so a cache keyed by ids can hand the
work of one row to another.  Interned formulas are their own keys, and a row
is keyed by its value.
"""
import ast
import pathlib

import luknet

SRC = pathlib.Path(luknet.__file__).resolve().parent


def id_calls(tree: ast.AST) -> list[int]:
    """Line numbers of the calls to the name ``id`` in ``tree``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]


def test_detector_sees_id_calls():
    code = (
        "cache = {}\n"
        "def f(m):\n    return cache.setdefault(id(m), m)\n"
        "def g(node):\n    return node.id(1) + valid(node)\n"
        "h = lambda m: {id(m): m}\n"
    )
    assert id_calls(ast.parse(code)) == [3, 6]


def test_no_module_in_src_calls_id():
    found = [
        f"{path.stem}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in id_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
