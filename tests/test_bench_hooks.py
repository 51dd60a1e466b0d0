"""The benchmark's traced run and probes reach into the package by name.

``perfbench/traced_cli.py`` swaps names on ``spacerank.cli`` and
``spacerank.spaces`` and ``perfbench/probes.py`` imports package functions,
so a rename in the package must fail here rather than only in the slow
benchmark self-check. Both files are imported, never modified.
"""

import importlib.util
import json
import math
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


def test_probe_ranker_values_finite(monkeypatch):
    probes = _import("probes", monkeypatch)
    monkeypatch.setattr(probes, "RANKER_USERS", 2)
    monkeypatch.setattr(probes, "PAIR_STREAM_ALL_USERS", 2)
    values = probes.probe_ranker(seed=1)
    assert values and all(name.startswith("ranker.") for name in values)
    assert all(math.isfinite(v) for v in values.values())


def test_traced_evaluate_ds_has_ranker_spans(pipeline, tmp_path, monkeypatch):
    traced_cli = _import("traced_cli", monkeypatch)
    for module, attr, _, _ in traced_cli.LAYERS:  # undo the tracer's wrappers afterwards
        monkeypatch.setattr(module, attr, getattr(module, attr))
    spans_path = tmp_path / "spans.json"
    code = traced_cli.main([
        str(spans_path), "evaluate", "--system", "ds", "--space", str(pipeline["space"]),
        "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
        "--phi-t", "all", "--phi-d", "5", "--out", str(tmp_path / "ds.results"),
    ])
    assert code == 0
    names = {span["name"] for span in json.loads(spans_path.read_text())}
    # the benchmark takes quantiles of the last two whenever pair streams are traced
    assert {"ranker.pair_stream", "ranker.user", "ranker.topk"} <= names
