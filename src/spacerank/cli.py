"""Command-line pipeline: split, train-space, recommend, evaluate, mcnemar.

Every file-producing command also writes a ``<artifact>.manifest.json``
recording the command, all resolved parameters, input digests, seed and
tool version, so any artifact can be reproduced from its manifest alone.

Exit codes: 0 success, 1 usage error, 2 data or format error,
3 the requested user cannot be ranked.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from pathlib import Path

from . import _EXPORTS, __version__
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

# Each export of the numpy-backed layers is a global forwarding to the package, whose lazy
# exports import the defining module on the first call, so split and mcnemar never load numpy;
# the commands call these globals, so a wrapper set here first (as the tracer does) is called.
def _layer(name):
    return lambda *args, **kwargs: getattr(sys.modules[__package__], name)(*args, **kwargs)


globals().update((name, _layer(name)) for module in ("baselines", "ranker", "spaces") for name in _EXPORTS[module])


def _digest(path) -> str:
    import hashlib  # here, as json is, so that mcnemar loads neither

    h, buffer = hashlib.sha256(), memoryview(bytearray(1 << 16))  # one buffer, refilled
    with open(path, "rb") as fh:
        while n := fh.readinto(buffer):
            h.update(buffer[:n])
    return h.hexdigest()


def _digests(*paths) -> dict[str, str]:
    return {str(p): _digest(p) for p in paths}


def _write_manifest(command: str, args: argparse.Namespace, inputs: dict, artifact_path) -> None:
    """Write ``<artifact_path>.manifest.json``: the command, every resolved
    parameter (a non-finite float as its repr, "nan" or "inf", so the file is
    strict JSON), the input sha256 digests (path -> hex), the seed and the version."""
    import json

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


def cmd_train_space(args) -> int:
    ratings = load_rating_columns(args.ratings)
    training = ratings.select(~held_mask(ratings, load_split(args.split, ratings).held_out(args.holdout)))
    del ratings  # the training rows, in file order (cf's vocabulary and SGD order), are all that is kept
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
    missing manifest only warns. Resolves the compiled kernels before any
    thread starts, recording which ranker path runs in ``args.kernel``.
    """
    import json

    from . import native

    manifest_path = Path(f"{args.space}.manifest.json")
    if manifest_path.exists():
        try:
            recorded = json.loads(manifest_path.read_text(encoding="utf-8"))
            params, digests = recorded.get("parameters", {}), recorded.get("inputs", {})
            checks = [("holdout", params.get("holdout"), holdout)] + [
                (f"{name} sha256", digests.get(params.get(name)), inputs[str(getattr(args, name))])
                for name in ("ratings", "split")
            ]
        except (ValueError, AttributeError, TypeError) as exc:  # not JSON, or not a manifest's shape
            raise SpaceRankError(f"{manifest_path}: unreadable space manifest: {exc}") from None
        for what, trained, ours in checks:
            if trained != ours:
                raise SpaceRankError(
                    f"space {args.space} was trained with {what} {trained!r} but this run has "
                    f"{ours!r}; retrain the space on this run's inputs and --holdout"
                )
    else:
        _warn(f"no manifest next to {args.space}; cannot verify what it was trained on")
    space = load_space(args.space)
    args.kernel = native.kernels()[1]
    return space


def cmd_recommend(args) -> int:
    from .ranker import _scores  # one w . v per row gives both the top k and the printed scores

    ratings = load_rating_columns(args.ratings)
    user_ratings = ratings.select((ratings.user == args.user) & ~held_mask(ratings, load_split(args.split, ratings).test))
    del ratings  # the one user's rows are all that is kept while the space loads
    if not len(user_ratings.user):
        raise CannotRankError(f"user {args.user} has no training ratings")
    space = _ranking_space(args, "test", _digests(args.ratings, args.split))
    scores = _scores(_fit_user(space, user_ratings, args), space)
    top = top_k(space.item_ids, scores, user_ratings.item, args.k)
    for item_id, score in zip(top, scores[space.rows(top)].tolist()):
        print(f"{item_id}\t{score!r}")
    return 0


def cmd_evaluate(args) -> int:
    import numpy as np

    ratings = load_rating_columns(args.ratings)
    split = load_split(args.split, ratings)
    targets = test_targets(split, ratings, which=args.holdout)
    if not targets:
        raise SpaceRankError(f"no rated-4-or-5 targets in the {args.holdout} set")
    # The one table every system reads: the training rows grouped by user, each user's in file order.
    # pop's counts, knn's scores and the profiles do not depend on row order; ds reads each user's slice.
    rows = np.flatnonzero(~held_mask(ratings, split.held_out(args.holdout)))
    rows = rows[np.argsort(ratings.user[rows], kind="stable")]
    training = ratings.select(rows)
    del ratings, rows  # before any model, space or thread pool exists
    users, starts, counts = (a.tolist() for a in np.unique(training.user, return_index=True, return_counts=True))
    ratings_of = {u: training.select(slice(a, a + n)) for u, a, n in zip(users, starts, counts)}

    inputs = _digests(args.ratings, args.split)
    if args.system == "ds":
        if not args.space:
            raise SpaceRankError("--system ds requires --space")
        space = _ranking_space(args, args.holdout, inputs)
        inputs.update(_digests(args.space))

        def topk(user_ratings):
            return _user_ranker_topk(space, user_ratings, args)

    elif args.system == "pop":
        model = build_popularity(training)

        def topk(user_ratings):
            return popularity_topk(model, user_ratings.item, args.k)

    else:  # knn
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
    # The N workers are the only pool: the BLAS, not loaded yet, runs one thread unless the user set it
    if getattr(args, "workers", 1) > 1:
        os.environ.setdefault("OMP_NUM_THREADS", "1")
    # library warnings print as `_warn`'s do, with no source path or line
    default_format, warnings.formatwarning = warnings.formatwarning, lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except CannotRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpaceRankError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
