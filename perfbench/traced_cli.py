"""Run one spacerank CLI command in-process with spans around its layer calls.

    python3 perfbench/traced_cli.py SPANS.json <spacerank arguments...>

The public functions that ``spacerank.cli`` and ``spacerank.spaces`` import
are replaced, in this process only, by wrappers that record a span (name,
start, end, parent, attributes). The whole command is the root span
``cli.<command>``. Spans stay in memory and are written to SPANS.json when
the command ends. The inner SGD steps (``hs_train_step`` and the
hyperplane loop) are not wrapped: a wrapper would cost more than a fast
step, so the probes time them on fixed samples instead.

The exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spacerank import cli, spaces  # noqa: E402


class Tracer:
    """Nested wall-clock spans kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "attrs": {}})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if annotate is not None:
                annotate(self.spans[index]["attrs"], args, result)
            return result

        setattr(module, attr, wrapper)


def _pair_counts(attrs, args, stream):
    # Candidate pairs built once, then filtered per pass: kept / (passes x built).
    triples, phi_i = args[0], args[1]
    levels = [0, 0, 0]
    for t in triples:
        levels[t.level] += 1
    attrs["materialized"] = phi_i * (levels[1] * levels[2] + levels[0] * (levels[1] + levels[2]))
    attrs["emitted"] = len(stream)


def _eval_counts(attrs, args, result):
    attrs["users_ranked"] = len({r.target[0] for r in result.records})
    attrs["targets_skipped"] = len(result.skipped)
    attrs["recall"] = result.recall


LAYERS = [
    (cli, "load_ratings", "corpus.load_ratings", None),
    (cli, "load_reviews", "corpus.load_reviews", None),
    (cli, "build_profiles", "corpus.build_profiles", None),
    (cli, "ratings_to_observations", "corpus.observations", None),
    (cli, "reviews_to_observations", "corpus.review_observations", None),
    (cli, "mark_counts", "splits.mark_counts", None),
    (cli, "build_split", "splits.build_split", None),
    (cli, "save_split", "splits.save_split", None),
    (cli, "load_split", "splits.load_split", None),
    (cli, "test_targets", "splits.test_targets", None),
    (cli, "train_space", "spaces.train_space", None),
    (spaces, "build_vocabulary", "hsoftmax.build_vocabulary", None),
    (spaces, "build_huffman", "hsoftmax.build_huffman", None),
    (cli, "build_vsm_space", "spaces.build_vsm", None),
    (cli, "save_space", "spaces.save_space", None),
    (cli, "load_space", "spaces.load_space", None),
    (cli, "_user_ranker_topk", "ranker.user", None),
    (cli, "build_preferences", "ranker.build_preferences", None),
    (cli, "pair_stream", "ranker.pair_stream", _pair_counts),
    (cli, "train_hyperplane", "ranker.train_hyperplane", None),
    (cli, "recommend_topk", "ranker.topk", None),
    (cli, "build_popularity", "baselines.build_popularity", None),
    (cli, "popularity_topk", "baselines.pop_topk", None),
    (cli, "KnnModel", "baselines.knn_build", None),
    (cli, "knn_topk", "baselines.knn_topk", None),
    (cli, "evaluate_system", "evaluate.evaluate_system", _eval_counts),
    (cli, "save_results", "evaluate.save_results", None),
    (cli, "load_results", "evaluate.load_results", None),
    (cli, "contingency", "evaluate.contingency", None),
    (cli, "mcnemar_one_tailed", "evaluate.mcnemar", None),
    (cli, "_digest", "cli.digest", None),
]


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for module, attr, name, annotate in LAYERS:
        tracer.wrap(module, attr, name, annotate)
    root = tracer.open(f"cli.{cli_args[0]}")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(root)
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
