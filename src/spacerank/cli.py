"""Command-line pipeline: split, train-space, recommend, evaluate, mcnemar.

Every file-producing command also writes a ``<artifact>.manifest.json``
recording the command, all resolved parameters, input digests, seed and
tool version, so any artifact can be reproduced from its manifest alone.

Exit codes: 0 success, 1 usage error, 2 data or format error,
3 the requested user cannot be ranked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import _EXPORTS, _MODULE_OF, __version__
from .corpus import (
    build_profiles,
    held_mask,
    load_rating_columns,
    load_ratings,
    load_reviews,
    ratings_to_observations,
    reviews_to_observations,
)
from .errors import CannotRankError, SpaceRankError
from .evaluate import (
    contingency,
    evaluate_system,
    load_results,
    mcnemar_one_tailed,
    save_results,
)
from .splits import build_split, load_split, mark_counts, save_split, test_targets

# The numpy-backed layers. A command binds the package's exports of the
# layers it runs, on first use, so that split and mcnemar never load numpy.
# Each becomes a module global, and the commands call it through this module,
# so a wrapper set on it beforehand (as the benchmark's tracer does) is kept
# and called.
_LAYERS = ("baselines", "ranker", "spaces")


def _bind_layers(*modules: str) -> None:
    """Bind every name the package exports from `modules`, importing only those modules."""
    package = sys.modules[__package__]  # its lazy exports import each defining module
    for module in modules:
        for name in _EXPORTS[module]:
            globals().setdefault(name, getattr(package, name))


def __getattr__(name):
    if _MODULE_OF.get(name) not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_layers(_MODULE_OF[name])
    return globals()[name]


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digests(*paths) -> dict[str, str]:
    return {str(p): _digest(p) for p in paths}


def _write_manifest(command: str, args: argparse.Namespace, inputs: dict, artifact_path) -> None:
    """Write ``<artifact_path>.manifest.json``: the command, every resolved
    parameter (a non-finite float as its repr, "nan" or "inf", so the file is
    strict JSON), the input sha256 digests (path -> hex), the seed and the version."""
    skip = ("out", "func", "command")
    payload = {
        "command": command,
        "parameters": {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                       for k, v in vars(args).items() if k not in skip and not callable(v)},
        "inputs": inputs,
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(f"{artifact_path}.manifest.json").write_text(text, encoding="utf-8")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# -- commands -----------------------------------------------------------------


def cmd_split(args) -> int:
    events = load_ratings(args.ratings)
    if args.every > max(len(events), 1):
        _warn(f"--every {args.every} exceeds the corpus size; validation and test are empty")
    counts = mark_counts(events, args.every)
    split = build_split(events, counts)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "split.tsv"
    save_split(split, out_path)
    _write_manifest("split", args, _digests(args.ratings), out_path)
    n_held_out = len(split.validation) + len(split.test)
    print(
        f"{len(events)} events -> {len(events) - n_held_out} train, "
        f"{len(split.validation)} validation, {len(split.test)} test -> {out_path}"
    )
    return 0


def _training_ratings(ratings, split_path, holdout):
    """The split, and the ratings it does not hold out under `holdout`."""
    split = load_split(split_path, ratings)
    return split, ratings.select(~held_mask(ratings, split.held_out(holdout)))


def cmd_train_space(args) -> int:
    _bind_layers("spaces")
    _, training = _training_ratings(load_rating_columns(args.ratings), args.split, args.holdout)
    inputs = [args.ratings, args.split]

    if args.mode == "vsm":
        if args.dims is not None:
            _warn("--dims is ignored for vsm spaces: dimensionality is the user count")
        if args.iters is not None:
            _warn("--iters is ignored for vsm spaces: nothing is trained iteratively")
        space = build_vsm_space(training, build_profiles(training))
    else:
        if args.dims is None:
            raise SpaceRankError("--dims is required for cf and cb spaces")
        if args.mode == "cb":
            if not args.reviews:
                raise SpaceRankError("--mode cb requires --reviews")
            observations = reviews_to_observations(load_reviews(args.reviews))
            iterations = args.iters if args.iters is not None else 10
            inputs.append(args.reviews)
        else:
            observations = ratings_to_observations(training, build_profiles(training))
            iterations = args.iters if args.iters is not None else 20
        config = SpaceTrainConfig(
            dimensions=args.dims,
            iterations=iterations,
            alpha0=args.alpha,
            seed=args.seed,
            workers=args.workers,
        )
        space = train_space(observations, config, provenance=args.mode)
        from . import native

        args.iters, args.kernel = iterations, native.kernels()[1]

    save_space(space, args.out)
    _write_manifest("train-space", args, _digests(*inputs), args.out)
    print(f"{args.mode} space: {len(space)} items x {space.dimensions} dims -> {args.out}")
    return 0


def _fit_user(space, user_ratings, args):
    """The hyperplane of the user whose training ratings these are; CannotRankError if unrankable."""
    user_id = int(user_ratings.user[0])
    config = RankerConfig(
        phi_i=args.phi_i, phi_t=args.phi_t, phi_d=args.phi_d,
        alpha0=args.alpha, seed=derive_seed(args.seed, user_id),
    )
    preferences = build_preferences(user_ratings, space, config.phi_t)
    stream = pair_stream(preferences, config.phi_i, config.phi_d, config.seed)
    return train_hyperplane(stream, space, config, user_id)


def _user_ranker_topk(space, user_ratings, args):
    """One user's top-k list, or None if they cannot be ranked (no usable ratings, no pairs)."""
    try:
        model = _fit_user(space, user_ratings, args)
    except CannotRankError:
        return None
    return recommend_topk(model, space, user_ratings.item, args.k)


def _ranking_space(args, holdout, inputs):
    """The space at ``args.space`` for hyperplane ranking, once its manifest matches this run.

    Refuses a space whose manifest records another holdout, or other ratings
    or split sha256 digests than `inputs` (this run's path -> digest); a
    missing manifest only warns. Holds the matrix as float64 (an exact cast)
    for the ranker pass, and resolves the compiled kernels before any thread
    starts, recording which ranker path runs in ``args.kernel``.
    """
    import numpy as np

    from . import native

    manifest_path = Path(f"{args.space}.manifest.json")
    if manifest_path.exists():
        recorded = json.loads(manifest_path.read_text(encoding="utf-8"))
        params, digests = recorded.get("parameters", {}), recorded.get("inputs", {})
        checks = [("holdout", params.get("holdout"), holdout)] + [
            (f"{name} sha256", digests.get(params.get(name)), inputs[str(getattr(args, name))])
            for name in ("ratings", "split")
        ]
        for what, trained, ours in checks:
            if trained != ours:
                raise SpaceRankError(
                    f"space {args.space} was trained with {what} {trained!r} but this run has "
                    f"{ours!r}; retrain the space on this run's inputs and --holdout"
                )
    else:
        _warn(f"no manifest next to {args.space}; cannot verify what it was trained on")
    space = load_space(args.space)
    space.matrix = np.asarray(space.matrix, np.float64)
    args.kernel = native.kernels()[1]
    return space


def cmd_recommend(args) -> int:
    _bind_layers("ranker", "spaces")
    _, training = _training_ratings(load_rating_columns(args.ratings), args.split, "test")
    space = _ranking_space(args, "test", _digests(args.ratings, args.split))
    user_ratings = training.select(training.user == args.user)
    if not len(user_ratings.user):
        raise CannotRankError(f"user {args.user} has no training ratings")
    model = _fit_user(space, user_ratings, args)
    scores = score_items(model, space)
    for item_id in recommend_topk(model, space, user_ratings.item, args.k):
        print(f"{item_id}\t{scores[item_id]!r}")
    return 0


def cmd_evaluate(args) -> int:
    import numpy as np

    ratings = load_rating_columns(args.ratings)
    split, training = _training_ratings(ratings, args.split, args.holdout)
    targets = test_targets(split, ratings, which=args.holdout)
    if not targets:
        raise SpaceRankError(f"no rated-4-or-5 targets in the {args.holdout} set")
    by_user = training.select(np.argsort(training.user, kind="stable"))  # each user in file order
    users, starts = np.unique(by_user.user, return_index=True)
    ends = [*starts[1:].tolist(), len(by_user.user)]
    ratings_of = {u: by_user.select(slice(a, b)) for u, a, b in zip(users.tolist(), starts.tolist(), ends)}

    inputs = _digests(args.ratings, args.split)
    if args.system == "ds":
        if not args.space:
            raise SpaceRankError("--system ds requires --space")
        _bind_layers("ranker", "spaces")
        space = _ranking_space(args, args.holdout, inputs)
        inputs.update(_digests(args.space))

        def topk(user_ratings):
            return _user_ranker_topk(space, user_ratings, args)

    elif args.system == "pop":
        _bind_layers("baselines")
        model = build_popularity(training)

        def topk(user_ratings):
            return popularity_topk(model, user_ratings.item, args.k)

    else:  # knn
        _bind_layers("baselines")
        model = KnnModel(training, build_profiles(training), args.k_neighbors)

        def topk(user_ratings):
            return knn_topk(model, int(user_ratings.user[0]), user_ratings.item, args.k)

    def provider(user_id):  # a user without training ratings cannot be ranked
        return topk(ratings_of[user_id]) if user_id in ratings_of else None

    result = evaluate_system(provider, targets, k=args.k, workers=args.workers)
    save_results(result.records, args.out, k=args.k)
    _write_manifest("evaluate", args, inputs, args.out)
    print(
        f"{args.system}: recall@{args.k} = {result.recall:.4f} "
        f"over {len(result.records)} targets ({len(result.skipped)} skipped) -> {args.out}"
    )
    return 0


def cmd_mcnemar(args) -> int:
    records_a = load_results(args.results_a)
    records_b = load_results(args.results_b)
    table = contingency(records_a, records_b)
    print(f"targets: {table.total}")
    print(f"  both hit:      {table.n11}")
    print(f"  only A hit:    {table.n10}")
    print(f"  only B hit:    {table.n01}")
    print(f"  neither hit:   {table.n00}")
    p_a = mcnemar_one_tailed(table)
    swapped = type(table)(table.n00, table.n10, table.n01, table.n11)
    p_b = mcnemar_one_tailed(swapped)
    print(f"p(A beats B) = {p_a:.6g}")
    print(f"p(B beats A) = {p_b:.6g}")
    return 0


# -- parser -------------------------------------------------------------------


def _add_ranker_options(p: argparse.ArgumentParser) -> None:
    """The top-k size and the hyperplane ranker's options (see RankerConfig)."""
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--phi-t", default=5, type=lambda s: s if s == "all" else int(s))
    p.add_argument("--phi-d", type=float, default=20.0)
    p.add_argument("--phi-i", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.025)
    p.add_argument("--seed", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spacerank", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"spacerank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="sample validation/test sets from a ratings file")
    p.add_argument("--ratings", required=True)
    p.add_argument("--every", type=int, default=25, help="mark every Nth rating (default 25)")
    p.add_argument("--out", required=True, help="output directory for split.tsv")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train-space", help="learn an item space from ratings or reviews")
    p.add_argument("--mode", choices=("cf", "cb", "vsm"), required=True)
    p.add_argument("--ratings", required=True)
    p.add_argument("--reviews", help="reviews file (required for --mode cb)")
    p.add_argument("--split", required=True)
    p.add_argument("--holdout", choices=("test", "validation"), default="test")
    p.add_argument("--dims", type=int)
    p.add_argument("--iters", type=int, help="training passes (default: 20 cf, 10 cb)")
    p.add_argument("--alpha", type=float, default=0.025)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="space file to write")
    p.set_defaults(func=cmd_train_space)

    p = sub.add_parser("recommend", help="top-k recommendations for one user")
    p.add_argument("--space", required=True)
    p.add_argument("--ratings", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--user", type=int, required=True)
    _add_ranker_options(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("evaluate", help="recall@k of one system over held-out targets")
    p.add_argument("--system", choices=("ds", "pop", "knn"), required=True)
    p.add_argument("--space", help="space file (required for --system ds)")
    p.add_argument("--ratings", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--holdout", choices=("test", "validation"), default="test")
    p.add_argument("--k-neighbors", type=int, default=60, help="knn neighbourhood size")
    _add_ranker_options(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="per-target results file to write")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("mcnemar", help="paired exact significance test of two results files")
    p.add_argument("results_a")
    p.add_argument("results_b")
    p.set_defaults(func=cmd_mcnemar)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except CannotRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpaceRankError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
