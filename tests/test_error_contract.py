"""The library's exceptions mirror the command line's exit codes.

Bad input is a ``ValueError`` (exit 2), and the few negative results keep a
class of their own that is not one (exit 1, or a decision for the caller).
So the CLI catches ``ValueError`` once, and a no-match rewrite step can never
be filed as bad input.
"""
import importlib
import pkgutil

import luknet
from luknet.bounds import BudgetExceeded
from luknet.construct import NotNormal
from luknet.network import Degenerate
from luknet.numerics import Infeasible
from luknet.rewrite import NoMatchAtPosition

NEGATIVE = (Degenerate, NotNormal, NoMatchAtPosition, BudgetExceeded, Infeasible)


def defined_exceptions() -> list[type]:
    """Every Exception subclass that a module of the library defines."""
    found = []
    for info in pkgutil.iter_modules(luknet.__path__):
        module = importlib.import_module(f"luknet.{info.name}")
        found += [
            v for v in vars(module).values()
            if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == module.__name__
        ]
    return found


def breaches(classes, negative) -> list[str]:
    """Each class that is neither a ValueError nor a negative result, and
    each negative result that is a ValueError."""
    return sorted(
        [f"{c.__name__} is neither a ValueError nor a negative result"
         for c in classes if c not in negative and not issubclass(c, ValueError)]
        + [f"{c.__name__} is a negative result and a ValueError"
           for c in negative if issubclass(c, ValueError)]
    )


def test_detector_sees_breaches():
    class Bad(ValueError):
        pass

    class NoMatch(Bad):
        pass

    class Stray(Exception):
        pass

    assert breaches([Bad, NoMatch, Stray], (NoMatch,)) == [
        "NoMatch is a negative result and a ValueError",
        "Stray is neither a ValueError nor a negative result",
    ]


def test_every_exception_is_bad_input_or_a_negative_result():
    classes = defined_exceptions()
    assert set(NEGATIVE) <= set(classes)
    assert breaches(classes, NEGATIVE) == []
