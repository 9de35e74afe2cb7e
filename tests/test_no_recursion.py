"""No function in the library calls itself by name.

Python's recursion limit turns a deep input into a RecursionError, so every
walk over a formula, a network or a search tree is a loop.
"""
import ast
import pathlib

import luknet

SRC = pathlib.Path(luknet.__file__).resolve().parent


def self_recursive(tree: ast.AST) -> list[str]:
    """Names of the functions in ``tree`` whose body calls them by name."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == fn.name
            for node in ast.walk(fn)
        ):
            found.append(fn.name)
    return found


def test_detector_sees_nested_recursion():
    code = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "def g(n):\n    def h(k):\n        return h(k - 1) if k else f(n)\n    return h(n)\n"
    )
    assert self_recursive(ast.parse(code)) == ["f", "h"]


def test_no_function_in_src_calls_itself():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in self_recursive(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
