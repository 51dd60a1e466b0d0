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
    """User-based nearest neighbours over binarized rating vectors.

    Each user is a vector with binarize(rating, her mean) at rated item
    coordinates and 0 elsewhere, held scaled to unit norm in `matrix` (every
    user has a rating, so a nonzero norm); neighbourhoods are the k most
    cosine-similar other users, similarity ties broken by ascending user id.
    """

    def __init__(self, ratings: Ratings | Sequence[RatingEvent], profiles: dict[int, UserProfile], k: int):
        if k < 1:
            raise ValueError(f"neighbourhood size k must be >= 1, got {k}")
        self.k = k
        users, items, levels = rating_levels(ratings, profiles)
        self.user_ids, rows = np.unique(users, return_inverse=True)
        self.item_ids, cols = np.unique(items, return_inverse=True)
        self.matrix = np.zeros((len(self.user_ids), len(self.item_ids)), dtype=np.float32)
        self.matrix[rows, cols] = levels
        # each row's squares (1s and 4s) sum exactly; the root, rounded to float32, is the dense norm below 2**24
        self.matrix /= np.sqrt(np.bincount(rows, np.square(levels))).astype(np.float32)[:, None]


def knn_scores(model: KnnModel, user_id: int) -> np.ndarray:
    """Similarity-weighted vote of the k nearest users, one score per `model.item_ids`.

    score(i) sums the cosine similarity of each selected neighbour that
    rated item i; items nobody in the neighbourhood rated score 0. Raises
    NoSuchUserError for a user without training ratings.
    """
    row = np.searchsorted(model.user_ids, user_id)
    if row == len(model.user_ids) or model.user_ids[row] != user_id:
        raise NoSuchUserError(f"user {user_id} has no training ratings")
    sims = model.matrix @ model.matrix[row]
    others = np.flatnonzero(model.user_ids != user_id)  # rows ascend with user ids, so ties go by id
    neighbours = top_k(others, sims[others], (), model.k)
    rated = (model.matrix[neighbours] > 0).astype(np.float64)
    return sims[neighbours] @ rated


def knn_topk(model: KnnModel, user_id: int, exclude: Iterable[int] | np.ndarray, k: int) -> list[int]:
    return top_k(model.item_ids, knn_scores(model, user_id), exclude, k)
