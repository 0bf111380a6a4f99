"""Guards for tooling that reaches into the library by name."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bench_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _bench_tracing()


@pytest.mark.parametrize("module,attr", _TRACING.SPANNED
                         + tuple(("corner", name) for name in _TRACING.EXPANSIONS))
def test_traced_function_resolves(module, attr):
    # `bench/run.py --trace 1` rebinds these by name
    assert callable(getattr(importlib.import_module(f"edgewave.{module}"), attr))


def test_import_does_not_load_scipy_integrate():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, edgewave; print(sorted(m for m in sys.modules"
         " if m.startswith('scipy.integrate')))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
