"""No module in the library imports ``contextvars``.

Extraction passes its peeling memo as a local of one pass, so a result
depends only on the arguments of the call that made it.
"""
import ast
import pathlib

import luknet

SRC = pathlib.Path(luknet.__file__).resolve().parent


def contextvars_imports(tree: ast.AST) -> list[int]:
    """Line numbers of the imports of ``contextvars`` in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "contextvars" for name in names):
            lines.append(node.lineno)
    return lines


def test_detector_sees_contextvars_imports():
    code = (
        "import contextlib\n"
        "from contextvars import ContextVar\n"
        "import os, contextvars as cv\n"
        "from .contextvars import x\n"
        "def f():\n    import contextvars\n"
    )
    assert contextvars_imports(ast.parse(code)) == [2, 3, 6]


def test_no_module_in_src_imports_contextvars():
    found = [
        f"{path.stem}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in contextvars_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
