"""The benchmark's traced run rebinds library functions by module attribute;
a rename in the library must fail here, not only in a traced benchmark run."""
import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for modname, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
