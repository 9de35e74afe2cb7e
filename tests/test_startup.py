"""A CLI process loads only the code its commands run: importing luknet.cli
pulls in neither dataclasses nor the rewrite engine, yet every module the
benchmark's traced run wraps (perfbench/spans.py TARGETS).  The rewrite
engine does not pull in dataclasses either."""
import importlib.util
import os
import pathlib
import subprocess
import sys

import luknet

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def _modules_after(statement: str) -> set[str]:
    src = str(pathlib.Path(luknet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.split())


def test_cli_import_loads_no_dataclasses_and_no_rewrite_engine():
    loaded = _modules_after("import luknet.cli")
    assert "dataclasses" not in loaded
    assert "luknet.rewrite" not in loaded
    missing = {module for module, _, _, _ in _targets()} - loaded
    assert not missing


def test_rewrite_commands_load_the_engine():
    loaded = _modules_after(
        "import contextlib, io, luknet.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert luknet.cli.main(['axioms', '--set', 'MV']) == 0"
    )
    assert "luknet.rewrite" in loaded
    assert "dataclasses" not in loaded
