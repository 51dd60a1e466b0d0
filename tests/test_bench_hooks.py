"""The benchmark's traced run and probes reach into the package by name.

``perfbench/traced_cli.py`` swaps names on ``spacerank.cli`` and
``spacerank.spaces`` and ``perfbench/probes.py`` imports package functions,
so a rename in the package must fail here rather than only in the slow
benchmark self-check. The ML1M-shaped corpus generator is pinned here too.
Every perfbench file is imported, never modified.
"""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

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


# sha256 of the ML1M-shaped corpora at run.py's default seed 1: ml1m-d1000's
# 40 users and ml1m-baselines' 300 (recorded under numpy 2.4).
ML1M_CORPUS_SHA256 = {
    40: "022774bec8ac045462c9bb19e235a4393cc584fa4119945ea2500d44a3febf5a",
    300: "d78d2986db449e3c1989f63ead78ed0b0d844d02ff515e09ff12ab810ea82cc3",
}


@pytest.mark.parametrize("users", sorted(ML1M_CORPUS_SHA256))
def test_ml1m_corpus_bytes_are_pinned(monkeypatch, tmp_path, users):
    # a change to these bytes changes what the benchmark's ML1M-shaped workloads measure
    path = _import("ml1m_corpus", monkeypatch).generate_ml1m_corpus(tmp_path, users, 1)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ML1M_CORPUS_SHA256[users]


def test_probe_ranker_values_finite(monkeypatch):
    probes = _import("probes", monkeypatch)
    monkeypatch.setattr(probes, "RANKER_USERS", 2)
    monkeypatch.setattr(probes, "PAIR_STREAM_ALL_USERS", 2)
    values = probes.probe_ranker(seed=1)
    assert values and all(name.startswith("ranker.") for name in values)
    assert all(math.isfinite(v) for v in values.values())


def _traced_evaluate_span_names(pipeline, tmp_path, monkeypatch, system, *options):
    return {span["name"] for span in _traced_evaluate_spans(pipeline, tmp_path, monkeypatch, system, *options)}


def _traced_evaluate_spans(pipeline, tmp_path, monkeypatch, system, *options):
    traced_cli = _import("traced_cli", monkeypatch)
    for module, attr, _, _ in traced_cli.LAYERS:  # undo the tracer's wrappers afterwards
        monkeypatch.setattr(module, attr, getattr(module, attr))
    spans_path = tmp_path / "spans.json"
    code = traced_cli.main([
        str(spans_path), "evaluate", "--system", system, "--space", str(pipeline["space"]),
        "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
        *options, "--out", str(tmp_path / f"{system}.results"),
    ])
    assert code == 0
    return json.loads(spans_path.read_text())


def test_traced_evaluate_ds_has_ranker_spans(pipeline, tmp_path, monkeypatch):
    names = _traced_evaluate_span_names(pipeline, tmp_path, monkeypatch, "ds",
                                        "--phi-t", "all", "--phi-d", "5")
    # the benchmark takes quantiles of the last two whenever pair streams are traced
    assert {"ranker.pair_stream", "ranker.user", "ranker.topk"} <= names


def test_traced_evaluate_ds_times_each_ranked_user(pipeline, tmp_path, monkeypatch):
    # pipeline.ranker.user_ms and hyperplane_us_per_pair read one span per user, not per group of users
    spans = _traced_evaluate_spans(pipeline, tmp_path, monkeypatch, "ds", "--phi-t", "all", "--phi-d", "5")
    (evaluation,) = [span["attrs"] for span in spans if span["name"] == "evaluate.evaluate_system"]
    counts = {name: sum(span["name"] == name for span in spans)
              for name in ("ranker.user", "ranker.train_hyperplane", "ranker.topk")}
    assert evaluation["users_ranked"] > 1
    assert counts == dict.fromkeys(counts, evaluation["users_ranked"])


@pytest.mark.parametrize("system, span", [("pop", "baselines.pop_topk"), ("knn", "baselines.knn_topk")])
def test_traced_evaluate_baseline_has_topk_spans(pipeline, tmp_path, monkeypatch, system, span):
    # the benchmark takes the median of these spans, which raises when there are none
    assert span in _traced_evaluate_span_names(pipeline, tmp_path, monkeypatch, system)


@pytest.mark.parametrize("command, spans", [
    (["train-space", "--mode", "vsm"], {"splits.load_split", "spaces.build_vsm"}),
    (["evaluate", "--system", "pop"], {"splits.load_split", "splits.test_targets", "baselines.pop_topk"}),
    (["evaluate", "--system", "knn"], {"splits.load_split", "splits.test_targets", "baselines.knn_build",
                                       "baselines.knn_topk"}),
], ids=["vsm", "pop", "knn"])
def test_traced_columnar_commands_keep_their_layer_spans(pipeline, tmp_path, monkeypatch, command, spans):
    # run.py takes the median of load_split, pop_topk and knn_topk spans, which raises when there are none
    traced_cli = _import("traced_cli", monkeypatch)
    for module, attr, _, _ in traced_cli.LAYERS:
        monkeypatch.setattr(module, attr, getattr(module, attr))
    spans_path = tmp_path / "spans.json"
    assert traced_cli.main([str(spans_path), *command, "--ratings", str(pipeline["ratings"]),
                            "--split", str(pipeline["split"]), "--out", str(tmp_path / "out")]) == 0
    assert spans <= {span["name"] for span in json.loads(spans_path.read_text())}


def test_probe_own_events_runs_on_an_event_list(monkeypatch):
    from spacerank.corpus import RatingEvent

    events = [RatingEvent(u, i, 1 + (u + i) % 5, i) for u in range(1, 5) for i in range(1, 9)]
    values = _import("probes", monkeypatch).probe_own_events(events)
    assert set(values) == {"corpus.observations_s", "spaces.build_vsm_s"}
    assert all(math.isfinite(v) for v in values.values())


def test_probe_space_io_cheap_and_leaves_no_file(monkeypatch, tmp_path):
    # the probe stats and unlinks exactly the path it passes to save_space
    values = _import("probes", monkeypatch).probe_space_io(1, tmp_path)
    assert set(values) == {"spaces.save_space_s", "spaces.load_space_s", "spaces.file_mb"}
    assert all(math.isfinite(v) for v in values.values())
    assert values["spaces.file_mb"] < 20
    assert list(tmp_path.iterdir()) == []
