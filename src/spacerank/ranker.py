"""Per-user hyperplane rankers over a fixed item space.

A user's taste is modeled as a single direction vector w; the dot product
w . v projects every item vector to a one-dimensional preference score.
w is learned by SGD over pairs of items the user implicitly ranks
differently (unrated < disliked < liked): for a pair (a lower, b higher)
the pair error g = sigmoid(w.v_a - w.v_b) pushes w away from a and towards
b, with steps that are large for mis-ordered pairs and vanish for
well-ordered ones. Item vectors are never modified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import native
from .baselines import top_k
from .corpus import RatingEvent, Ratings, as_ratings, binarize
from .errors import CannotRankError, SpaceRankError
from .spaces import EmbeddingSpace


def derive_seed(seed: int, user_id: int) -> int:
    """Stable per-user seed so users train identically regardless of
    evaluation order or worker count."""
    return int(np.random.SeedSequence([seed, user_id]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class RankerConfig:
    """Hyperparameters of the pairwise trainer.

    phi_i: passes over the pair set. phi_t: how many most-recent rated
    items to keep ("all" disables the trim). phi_d: downsampling divisor
    for rated-versus-unrated pairs; each such pair enters a given pass with
    probability 1/phi_d, so phi_d=1 means no downsampling.
    """

    phi_i: int = 10
    phi_t: int | str = 5
    phi_d: float = 20.0
    alpha0: float = 0.025
    seed: int = 1

    def __post_init__(self):
        if self.phi_i < 1:
            raise ValueError(f"phi_i must be >= 1, got {self.phi_i}")
        if not self.phi_d >= 1:  # also refuses NaN
            raise ValueError(f"phi_d must be >= 1, got {self.phi_d}")
        if self.phi_t != "all" and (not isinstance(self.phi_t, int) or self.phi_t < 1):
            raise ValueError(f"phi_t must be a positive integer or 'all', got {self.phi_t!r}")
        if not 0 < self.alpha0 < math.inf:
            raise ValueError(f"alpha0 must be finite and > 0, got {self.alpha0}")


@dataclass(frozen=True)
class HyperplaneModel:
    """A user's ranking direction; length matches the space dimensionality."""

    user_id: int | None
    w: np.ndarray


def build_preferences(
    user_ratings: Ratings | Sequence[RatingEvent],
    space: EmbeddingSpace,
    phi_t: int | str = "all",
) -> np.recarray:
    """Preference levels for every row of the space, from one user's ratings.

    A record array with fields ``row`` (space row) and ``level`` (0 unrated,
    1 below the user's mean, 2 at or above it). Ratings on items missing from
    the space are unusable. The user's mean is taken over all their supplied
    (training) ratings; only the phi_t most recently rated usable items keep
    their rated level, oldest first (ties by item id), and every other space
    row follows, in order, at level 0.
    """
    ids, ratings, times = as_ratings(user_ratings)[1:]
    if not len(ids):
        raise CannotRankError("user has no training events")
    usable = np.flatnonzero(np.isin(ids, space.item_ids))
    if not len(usable):
        raise CannotRankError("none of the user's rated items are in the space")
    mean = int(ratings.sum()) / len(ratings)
    kept = usable[np.lexsort((ids[usable], times[usable]))]
    if phi_t != "all":
        kept = kept[-int(phi_t):]
    rated = space.rows(ids[kept])
    unrated = np.ones(len(space), dtype=bool)
    unrated[rated] = False
    rows = np.concatenate([rated, np.flatnonzero(unrated)])
    levels = np.zeros(len(rows), dtype=np.int8)
    levels[:len(rated)] = binarize(ratings[kept], mean)
    return np.rec.fromarrays([rows, levels], names="row,level")


def pair_stream(
    preferences: np.recarray,
    phi_i: int,
    phi_d: float,
    seed: int,
) -> np.ndarray:
    """Training pairs (a, b) with level(a) < level(b), across phi_i passes.

    Each pass emits every differently-leveled pair once, shuffled: pairs of
    two rated items always, pairs of a rated and an unrated item with
    probability 1/phi_d. The concatenation over passes is the SGD stream,
    a ``(T, 2)`` array of space rows in the narrowest unsigned dtype that
    holds them. Candidates are ordered level-1 x level-2 pairs first, then
    level-0 x (level-1 then level-2) pairs, each in `build_preferences`
    order; a pass draws its keep mask, then its permutation. Raises
    CannotRankError if the stream is empty: no pair is differently leveled,
    or downsampling dropped every rated-versus-unrated pair of a user whose
    rated items all share one level.
    """
    rows, levels = preferences.row, preferences.level
    rows = rows.astype(np.min_scalar_type(rows.max(initial=0)))
    unrated, disliked, liked = (rows[levels == v] for v in (0, 1, 2))
    rated = np.concatenate([disliked, liked])
    n_rated_pairs = len(disliked) * len(liked)
    candidates = np.empty((n_rated_pairs + len(unrated) * len(rated), 2), dtype=rows.dtype)
    candidates[:n_rated_pairs, 0] = np.repeat(disliked, len(liked))
    candidates[:n_rated_pairs, 1] = np.tile(liked, len(disliked))
    candidates[n_rated_pairs:, 0] = np.repeat(unrated, len(rated))
    candidates[n_rated_pairs:, 1] = np.tile(rated, len(unrated))

    rng = np.random.default_rng(seed)
    n_downsampled = len(candidates) - n_rated_pairs
    passes = []
    for _ in range(phi_i):
        batch = candidates
        if phi_d != 1.0:
            keep = rng.random(n_downsampled) < 1.0 / phi_d
            batch = np.concatenate([candidates[:n_rated_pairs], candidates[n_rated_pairs:][keep]])
        passes.append(batch[rng.permutation(len(batch))])
    stream = np.concatenate(passes)
    if not len(stream):
        raise CannotRankError("no differently-leveled item pairs left to learn from")
    return stream


def train_hyperplane(
    pairs: np.ndarray | Sequence[tuple[int, int]],
    space: EmbeddingSpace,
    config: RankerConfig,
    user_id: int | None = None,
) -> HyperplaneModel:
    """Fit one user's direction vector over their stream of space-row pairs.

    w starts small and random, drawn from `config.seed`, and for the k-th
    pair of rows (a, b) of the T pairs takes the step
    w += alpha0 * (1 - k / T) * g * (v_b - v_a) with g = sigmoid(w.v_a - w.v_b),
    its exponent clamped at 500 as hsoftmax.sigmoid clamps it. A stream that
    is not ``(T, 2)`` integer rows inside the space raises ValueError before
    any training.

    The compiled ``hyperplane_pass`` of `native.kernels` runs the loop in
    one call. Without it the same loop runs here, one pair at a time over
    the stream's rows. Both read the space as float64, which is free for a
    space already held so. Raises SpaceRankError if w ends non-finite
    (alpha0 too large).
    """
    stream = np.asarray(pairs)
    if not len(stream):
        raise CannotRankError("empty pair stream")
    if stream.shape[1:] != (2,):  # the kernel reads 2 rows per pair
        raise ValueError("a pair stream must have shape (T, 2)")
    if not np.issubdtype(stream.dtype, np.integer):
        raise ValueError(f"a pair stream must hold integer rows, not {stream.dtype}")
    if stream.min() < 0 or stream.max() >= len(space):
        raise ValueError(f"a pair stream holds a row outside the space's {len(space)} rows")
    d, total, alpha0 = space.dimensions, len(stream), config.alpha0
    w = np.random.default_rng(config.seed).uniform(-0.5 / d, 0.5 / d, size=d)
    matrix = np.ascontiguousarray(space.matrix, np.float64)
    library = native.kernels()[0]
    if library is not None:
        rows = np.ascontiguousarray(stream, np.int32)
        library.hyperplane_pass(w, d, matrix, rows, total, alpha0)
    else:
        for k, (a, b) in enumerate(stream):
            diff = matrix[b] - matrix[a]
            w += alpha0 * (1.0 - k / total) / (1.0 + math.exp(min(w @ diff, 500.0))) * diff
    if not np.isfinite(w).all():
        raise SpaceRankError(f"hyperplane training diverged to a non-finite w at alpha0={alpha0}")
    return HyperplaneModel(user_id, w)


def _scores(model: HyperplaneModel, space: EmbeddingSpace) -> np.ndarray:
    """w . v for every row of the space, after checking the dimensionality."""
    if len(model.w) != space.dimensions:
        raise ValueError(
            f"hyperplane dimensionality {len(model.w)} != space {space.dimensions}"
        )
    return space.matrix @ model.w


def score_items(model: HyperplaneModel, space: EmbeddingSpace) -> dict[int, float]:
    """Project every item onto the user's direction: score = w . v."""
    return {int(item): float(s) for item, s in zip(space.item_ids, _scores(model, space))}


def recommend_topk(
    model: HyperplaneModel,
    space: EmbeddingSpace,
    exclude: Iterable[int],
    k: int,
) -> list[int]:
    """The user's top-k recommendation list over the space."""
    return top_k(space.item_ids, _scores(model, space), exclude, k)
