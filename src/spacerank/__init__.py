"""Item-embedding spaces plus per-user hyperplane rankers for top-k
recommendation, with the split/evaluate/compare protocol around them.

The public names load lazily: ``import spacerank`` imports no submodule,
and the first use of a name imports only the module that defines it (and
what that module imports), so numpy loads only for a name that needs it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "baselines": (
        "KnnModel", "PopularityModel", "build_popularity", "knn_scores", "knn_topk",
        "popularity_topk",
    ),
    "corpus": (
        "Observation", "RatingEvent", "ReviewDocument", "UserProfile", "binarize",
        "build_profiles", "load_ratings", "load_reviews", "rating_levels",
        "ratings_to_observations", "reviews_to_observations",
    ),
    "errors": (
        "CannotRankError", "FormatError", "NoSuchTokenError", "NoSuchUserError", "ParseError",
        "SpaceRankError", "UndefinedTestError", "ValidationError",
    ),
    "evaluate": (
        "ContingencyTable", "EvalResult", "HitRecord", "contingency", "evaluate_system",
        "load_results", "mcnemar_one_tailed", "recall_at_k", "save_results",
    ),
    "hsoftmax": (
        "HuffmanTree", "Vocabulary", "build_huffman", "build_vocabulary", "hs_probability",
        "hs_train_step", "new_node_matrix", "sigmoid",
    ),
    "ranker": (
        "HyperplaneModel", "RankerConfig", "build_preferences", "derive_seed", "pair_stream",
        "recommend_topk", "score_items", "top_k", "train_hyperplane",
    ),
    "spaces": (
        "EmbeddingSpace", "SpaceTrainConfig", "build_vsm_space", "export_vectors", "load_space",
        "save_space", "train_space",
    ),
    "splits": (
        "EvalSplit", "build_split", "load_split", "mark_counts", "save_split", "test_targets",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:  # also how `from spacerank import cli` finds a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
