"""The benchmark's traced run and probes reach into the package by name.

``perfbench/traced_cli.py`` swaps names on ``spacerank.cli`` and
``spacerank.spaces`` and ``perfbench/probes.py`` imports package functions,
so a rename in the package must fail here rather than only in the slow
benchmark self-check. Both files are imported, never modified.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists(monkeypatch):
    traced_cli = _import("traced_cli", monkeypatch)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in traced_cli.LAYERS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_probes_import(monkeypatch):
    assert callable(_import("probes", monkeypatch).run_probes)
