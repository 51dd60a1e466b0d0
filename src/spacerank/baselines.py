"""Reference recommenders: popularity ranking and user-based KNN.

Both operate on the same training ratings as the learned spaces. `top_k`,
their deterministic top-k selection, lives here; the ranker imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import RatingEvent, Ratings, UserProfile, as_ratings, rating_levels
from .errors import NoSuchUserError


def top_k(
    item_ids: np.ndarray,
    scores: np.ndarray,
    exclude: Iterable[int] | np.ndarray,
    k: int,
) -> list[int]:
    """Highest-scoring items, ties by ascending item id, `exclude` removed.

    Returns fewer than k items when not enough candidates exist. Only the
    items scoring at least the k-th best score are sorted.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    item_ids, negated = np.asarray(item_ids), -np.asarray(scores, dtype=np.float64)
    if not isinstance(exclude, np.ndarray):
        exclude = np.fromiter(exclude, dtype=np.int64)
    if len(exclude):
        keep = ~np.isin(item_ids, exclude)
        item_ids, negated = item_ids[keep], negated[keep]
    if k < len(negated):  # keep every item tied with the k-th score; NaN scores stay, as in a sort
        keep = ~(negated > np.partition(negated, k - 1)[k - 1])
        item_ids, negated = item_ids[keep], negated[keep]
    order = np.lexsort((item_ids, negated))
    return item_ids[order[:k]].tolist()


@dataclass(frozen=True)
class PopularityModel:
    """Training rating count per item, items ascending."""

    item_ids: np.ndarray
    counts: np.ndarray


def build_popularity(ratings: Ratings | Iterable[RatingEvent]) -> PopularityModel:
    return PopularityModel(*np.unique(as_ratings(ratings).item, return_counts=True))


def popularity_topk(model: PopularityModel, exclude: Iterable[int] | np.ndarray, k: int) -> list[int]:
    """Most-rated items first, ties by ascending item id."""
    return top_k(model.item_ids, model.counts, exclude, k)


class KnnModel:
    """User-based nearest neighbours over binarized rating vectors, held sparse.

    Each user is a vector with binarize(rating, the user's mean) at rated item
    coordinates and 0 elsewhere. The model holds those levels twice, grouped
    by user (`user_starts`, `user_items`, `user_levels`: item columns) and by
    item (`item_starts`, `item_users`, `item_levels`: user rows), and each
    user's exact sum of squared levels (`squares`). Neighbourhoods are the k
    most cosine-similar other users, similarity ties broken by ascending user id.
    """

    def __init__(self, ratings: Ratings | Sequence[RatingEvent], profiles: dict[int, UserProfile], k: int):
        if k < 1:
            raise ValueError(f"neighbourhood size k must be >= 1, got {k}")
        self.k = k
        users, items, levels = rating_levels(ratings, profiles)
        self.user_ids, rows = np.unique(users, return_inverse=True)
        self.item_ids, cols = np.unique(items, return_inverse=True)
        rows, cols = rows.astype(np.int32), cols.astype(np.int32)
        self.squares = np.bincount(rows, np.square(levels), len(self.user_ids)).astype(np.int64)
        self.user_starts, self.user_items, self.user_levels = _grouped(rows, cols, levels, len(self.user_ids))
        self.item_starts, self.item_users, self.item_levels = _grouped(cols, rows, levels, len(self.item_ids))


def _grouped(keys: np.ndarray, values: np.ndarray, levels: np.ndarray, n: int):
    """CSR offsets over `n` keys, with `values` and `levels` grouped by key."""
    order = np.argsort(keys, kind="stable")
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n)))), values[order], levels[order]


# Co-raters gathered per step, about 24 bytes each: bounds a heavy user's temporaries on every thread.
_RATERS_AT_ONCE = 1 << 16


def _members(starts: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of every member of `groups` under CSR offsets `starts`, group by group, and the group sizes."""
    first, counts = starts[groups], starts[groups + 1] - starts[groups]
    return np.repeat(first + counts - np.cumsum(counts), counts) + np.arange(counts.sum()), counts


def _neighbours(model: KnnModel, user_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the user's k nearest other users, nearest first, and their similarities.

    The similarity of users u and v is sqrt(num**2 / (squares[u] * squares[v]))
    in float64, where num, the dot product of their levels, and the squares
    are exact integers: equal cosines tie exactly, ties go by user id, and no
    BLAS is called. Only users who share an item are candidates; the others
    have similarity 0 and would vote nothing.
    """
    row = np.searchsorted(model.user_ids, user_id)
    if row == len(model.user_ids) or model.user_ids[row] != user_id:
        raise NoSuchUserError(f"user {user_id} has no training ratings")
    own = slice(model.user_starts[row], model.user_starts[row + 1])
    items, levels = model.user_items[own], model.user_levels[own]
    sizes = np.cumsum(model.item_starts[items + 1] - model.item_starts[items])
    cuts = np.searchsorted(sizes, np.arange(_RATERS_AT_ONCE, sizes[-1], _RATERS_AT_ONCE), side="right")
    num = np.zeros(len(model.user_ids))  # integer sums, exact in any order
    for part, part_levels in zip(np.split(items, cuts), np.split(levels, cuts)):
        at, counts = _members(model.item_starts, part)
        num += np.bincount(model.item_users[at], np.repeat(part_levels, counts) * model.item_levels[at],
                           len(model.user_ids))
    num[row] = 0
    others = np.flatnonzero(num)  # rows ascend with user ids, so ties go by id
    sims = np.sqrt(np.square(num[others]) / (model.squares[row] * model.squares[others]))
    ranked = top_k(np.arange(len(others)), sims, (), model.k)
    return others[ranked], sims[ranked]


def knn_scores(model: KnnModel, user_id: int) -> np.ndarray:
    """Similarity-weighted vote of the k nearest users, one score per `model.item_ids`.

    score(i) adds, in neighbour order, the similarity of each selected
    neighbour that rated item i; items nobody in the neighbourhood rated
    score 0. Raises NoSuchUserError for a user without training ratings.
    """
    neighbours, sims = _neighbours(model, user_id)
    at, counts = _members(model.user_starts, neighbours)
    votes = np.bincount(model.user_items[at], np.repeat(sims, counts), len(model.item_ids))
    return votes.astype(np.float64, copy=False)  # bincount counts in int64 when there is no neighbour


def knn_topk(model: KnnModel, user_id: int, exclude: Iterable[int] | np.ndarray, k: int) -> list[int]:
    return top_k(model.item_ids, knn_scores(model, user_id), exclude, k)
