"""No function in the library calls itself, by name or through a method.

Python's recursion limit turns a deep input into a RecursionError, so every
walk over a formula, a network or a search tree is a loop.
"""
import ast
import pathlib

import luknet

SRC = pathlib.Path(luknet.__file__).resolve().parent


def _calls(call: ast.AST, name: str) -> bool:
    """Whether ``call`` calls ``name`` by name, or as the method of an
    attribute such as ``self.child.name(...)``.  ``super().name(...)`` and
    ``ClassName.name(...)`` reach another class's method, not this one."""
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == name
    return isinstance(func, ast.Attribute) and func.attr == name and isinstance(func.value, ast.Attribute)


def self_recursive(tree: ast.AST) -> list[str]:
    """Names of the functions in ``tree`` whose body calls them."""
    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_calls(node, fn.name) for node in ast.walk(fn))
    ]


def test_detector_sees_nested_recursion():
    code = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "def g(n):\n    def h(k):\n        return h(k - 1) if k else f(n)\n    return h(n)\n"
        "class A:\n    def ev(self, env):\n        return self.child.ev(env)\n"
        "class B(A):\n"
        "    def ev(self, env):\n        return super().ev(env) + A.ev(self, env) + self.ev2()\n"
        "    def ev2(self):\n        return self.left.ev(0)\n"
    )
    assert self_recursive(ast.parse(code)) == ["f", "h", "ev"]


def test_no_function_in_src_calls_itself():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in self_recursive(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
