import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spacerank import baselines
from spacerank.baselines import (
    KnnModel,
    _neighbours,
    build_popularity,
    knn_scores,
    knn_topk,
    popularity_topk,
)
from spacerank.corpus import RatingEvent, as_ratings, binarize, build_profiles
from spacerank.errors import NoSuchUserError
from test_spaces import traced_peak


def events_of(spec):
    """spec: {user: [(item, rating), ...]}"""
    out = []
    for user, pairs in spec.items():
        for t, (item, rating) in enumerate(pairs):
            out.append(RatingEvent(user, item, rating, t))
    return out


def by_item(item_ids, values):
    """{item id: value} view of an array aligned with `item_ids`."""
    return dict(zip(item_ids.tolist(), values.tolist(), strict=True))


class TestPopularity:
    def test_count_order(self):
        events = events_of({1: [(10, 5), (11, 4)], 2: [(10, 3)], 3: [(10, 1)]})
        model = build_popularity(events)
        assert by_item(model.item_ids, model.counts) == {10: 3, 11: 1}
        assert popularity_topk(model, set(), 1) == [10]

    def test_all_counts_equal_ascending_ids(self):
        events = events_of({1: [(9, 5)], 2: [(4, 5)], 3: [(7, 5)]})
        assert popularity_topk(build_popularity(events), set(), 3) == [4, 7, 9]

    def test_exclude_top(self):
        events = events_of({1: [(10, 5), (11, 4)], 2: [(10, 3)]})
        assert popularity_topk(build_popularity(events), {10}, 1) == [11]

    def test_user_independence(self):
        events = events_of({1: [(10, 5)], 2: [(11, 2), (12, 4)]})
        model = build_popularity(events)
        assert popularity_topk(model, set(), 5) == popularity_topk(model, set(), 5)

    @given(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 30)), unique=True))
    def test_counts_match_counter(self, pairs):
        events = [RatingEvent(u, i, 3, 0) for u, i in pairs]
        model = build_popularity(events)
        assert model.item_ids.tolist() == sorted(model.item_ids.tolist())
        assert by_item(model.item_ids, model.counts) == Counter(e.item_id for e in events)


class TestKnn:
    def test_identical_users_similarity_one(self):
        events = events_of({1: [(10, 4), (11, 4)], 2: [(10, 4), (11, 4)]})
        model = KnnModel(events, build_profiles(events), k=1)
        scores = by_item(model.item_ids, knn_scores(model, 1))
        assert scores[10] == pytest.approx(1.0)
        assert scores[11] == pytest.approx(1.0)

    def test_orthogonal_target_all_zero(self):
        events = events_of({1: [(10, 4)], 2: [(11, 4)], 3: [(12, 4)]})
        model = KnnModel(events, build_profiles(events), k=2)
        assert set(knn_scores(model, 1).tolist()) == {0.0}

    def test_three_user_toy(self):
        # u1 and u2 share {A, B}; u3 is disjoint. With uniform ratings the
        # cosine is 2/sqrt(2*3), so u2 is the single nearest neighbour and
        # C is the top unrated recommendation.
        A, B, C, D = 100, 101, 102, 103
        events = events_of({
            1: [(A, 4), (B, 4)],
            2: [(A, 4), (B, 4), (C, 4)],
            3: [(D, 4)],
        })
        model = KnnModel(events, build_profiles(events), k=1)
        scores = by_item(model.item_ids, knn_scores(model, 1))
        assert scores[C] == pytest.approx(2 / math.sqrt(6))
        assert knn_topk(model, 1, {A, B}, 1) == [C]

    def test_unknown_user(self):
        events = events_of({1: [(10, 4)], 3: [(10, 4)]})
        model = KnnModel(events, build_profiles(events), k=1)
        for user_id in (0, 2, 99):  # below, between and above the known users
            with pytest.raises(NoSuchUserError):
                knn_scores(model, user_id)

    def test_neighbourhood_tie_broken_by_user_id(self):
        # users 2 and 3 are equally similar to user 1; k=1 must pick user 2,
        # whose extra item then gets the only nonzero unrated score
        events = events_of({
            1: [(10, 4)],
            3: [(10, 4), (31, 4)],
            2: [(10, 4), (21, 4)],
        })
        model = KnnModel(events, build_profiles(events), k=1)
        scores = by_item(model.item_ids, knn_scores(model, 1))
        assert scores[21] > 0 and scores[31] == 0

    def test_equal_cosines_tie_exactly(self):
        # 4/sqrt(8*4) and 8/sqrt(8*16) are both sqrt(1/2), yet n/sqrt(a*b) rounds them to
        # different float64s; user 2, the lower id, must be the one neighbour, so item 100
        # (rated by user 3 only) scores 0
        events = events_of({
            1: [(102, 5), (103, 5)],
            2: [(102, 5)],
            3: [(100, 5), (101, 5), (102, 5), (103, 5)],
        })
        model = KnnModel(events, build_profiles(events), k=1)
        scores = by_item(model.item_ids, knn_scores(model, 1))
        assert scores == {100: 0.0, 101: 0.0, 102: math.sqrt(0.5), 103: 0.0}

    @pytest.mark.parametrize("at_once", [1, 7])
    def test_gathering_co_raters_in_parts_changes_no_bit(self, monkeypatch, at_once):
        rng = np.random.default_rng(at_once)
        events = [RatingEvent(user, int(item), int(rng.integers(1, 6)), 0)
                  for user in range(1, 41) for item in rng.permutation(30)[:rng.integers(1, 31)]]
        model = KnnModel(events, build_profiles(events), k=5)
        whole = [knn_scores(model, user_id).tobytes() for user_id in range(1, 41)]
        monkeypatch.setattr(baselines, "_RATERS_AT_ONCE", at_once)
        assert [knn_scores(model, user_id).tobytes() for user_id in range(1, 41)] == whole

    def test_build_allocates_by_the_ratings_not_users_times_items(self):
        # 200 users x 3000 items, each item rated once: a dense float32 matrix (2.4 MB) exceeds the bound
        events = [RatingEvent(1 + i % 200, i, 1 + i % 5, 0) for i in range(3000)]
        table, profiles = as_ratings(events), build_profiles(events)
        KnnModel(events[:4], build_profiles(events[:4]), k=1)
        model, peak = traced_peak(KnnModel, table, profiles, 5)
        held = sum(value.nbytes for value in vars(model).values() if isinstance(value, np.ndarray))
        assert held <= 32 * len(events)  # ids and offsets (8 bytes), grouped rows and columns (4), levels (1)
        assert peak <= 64 * len(events) + 64 * 1024  # rating_levels' and np.unique's sorts and inverses


@st.composite
def knn_corpora(draw):
    """Up to 12 users in unsorted id order over at most 4 items, so that many
    similarities tie, with k from 1 to past the number of other users."""
    user_ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True))
    n_items = draw(st.integers(1, 4))
    events = [
        RatingEvent(user_id, 100 + item, draw(st.integers(1, 5)), 0)
        for user_id in user_ids
        for item in draw(st.lists(st.integers(0, n_items - 1), min_size=1, unique=True))
    ]
    return draw(st.permutations(events)), draw(st.integers(1, len(user_ids) + 2))


def oracle_knn(events, k):
    """{user: (neighbour ids, their similarities, {item: score})}, written out with dicts, no numpy.

    Neighbours are the k users sharing an item with the highest exact cosine (as a
    Fraction, squared: cosines are never negative), ties by ascending user id. A
    similarity is sqrt(num**2 / (a * b)) in float64 over the exact integers, and an
    item's score adds its raters' similarities in neighbour order.
    """
    profiles = build_profiles(events)
    levels = {}
    for e in events:
        levels.setdefault(e.user_id, {})[e.item_id] = binarize(e.rating, profiles[e.user_id].mean_rating)
    squares = {u: sum(level * level for level in row.values()) for u, row in levels.items()}
    out = {}
    for u, row in levels.items():
        nums = {v: sum(level * other.get(i, 0) for i, level in row.items()) for v, other in levels.items() if v != u}
        shared = [v for v, num in nums.items() if num]
        ranked = sorted(shared, key=lambda v: (-Fraction(nums[v] ** 2, squares[u] * squares[v]), v))[:k]
        sims = [math.sqrt(nums[v] ** 2 / (squares[u] * squares[v])) for v in ranked]
        scores = dict.fromkeys(sorted({e.item_id for e in events}), 0.0)
        for v, sim in zip(ranked, sims):
            for item in levels[v]:
                scores[item] += sim
        out[u] = ranked, sims, scores
    return out


@given(knn_corpora())
@example(([RatingEvent(7, 100, 4, 0)], 1))  # one user: no neighbours, every score 0
@example(([RatingEvent(u, 100, 4, 0) for u in (5, 3, 9, 1)], 2))  # all tied, ids out of order
@example((events_of({9: [(102, 5), (103, 5)], 4: [(100, 5), (101, 5), (102, 5), (103, 5)], 2: [(102, 5)]}), 1))  # cosines tied
def test_knn_matches_the_pure_python_oracle(corpus):
    events, k = corpus
    model = KnnModel(events, build_profiles(events), k)
    oracle = oracle_knn(events, k)
    assert model.user_ids.tolist() == sorted(oracle)
    for user_id in model.user_ids.tolist():
        neighbours, sims, scores = oracle[user_id]
        rows, weights = _neighbours(model, user_id)
        assert (model.user_ids[rows].tolist(), weights.tolist()) == (neighbours, sims)
        got = knn_scores(model, user_id)
        assert got.dtype == np.float64
        assert by_item(model.item_ids, got) == scores  # float equality: the same sums in the same order
        exclude = [e.item_id for e in events if e.user_id == user_id]
        unrated = sorted((item for item in scores if item not in exclude), key=lambda item: (-scores[item], item))
        assert knn_topk(model, user_id, exclude, 3) == unrated[:3]


@st.composite
def rating_tables(draw):
    """Ratings in a drawn file order: up to 8 users over at most 4 items, so
    ratings, means and similarities tie, and users with one rating."""
    user_ids = draw(st.lists(st.integers(1, 50), min_size=1, max_size=8, unique=True))
    events = [
        RatingEvent(user_id, 100 + item, draw(st.integers(1, 5)), t)
        for user_id in user_ids
        for t, item in enumerate(draw(st.lists(st.integers(0, 3), min_size=1, unique=True)))
    ]
    return as_ratings(draw(st.permutations(events))), draw(st.integers(1, len(user_ids) + 1))


@given(rating_tables())
@example((as_ratings([RatingEvent(u, 100, 4, 0) for u in (5, 3, 9, 1)]), 2))  # all tied, one rating each
def test_grouping_rows_by_user_changes_no_baseline_and_no_user_slice(table):
    # `evaluate` builds every system from the training rows grouped by a stable sort on the user
    file_order, k = table
    by_user = file_order.select(np.argsort(file_order.user, kind="stable"))
    assert build_profiles(by_user) == build_profiles(file_order)  # exact integer sums
    pops = [build_popularity(rows) for rows in (file_order, by_user)]
    knns = [KnnModel(rows, build_profiles(rows), k) for rows in (file_order, by_user)]
    users, starts = np.unique(by_user.user, return_index=True)
    ends = [*starts[1:].tolist(), len(by_user.user)]
    for user_id, start, end in zip(users.tolist(), starts.tolist(), ends):
        own = file_order.select(file_order.user == user_id)
        # ds ranks a user from this slice alone, so its list is the same too
        assert all(np.array_equal(a, b) for a, b in zip(by_user.select(slice(start, end)), own, strict=True))
        assert popularity_topk(pops[0], own.item, 4) == popularity_topk(pops[1], own.item, 4)
        assert knn_scores(knns[0], user_id).tobytes() == knn_scores(knns[1], user_id).tobytes()
        assert knn_topk(knns[0], user_id, own.item, 4) == knn_topk(knns[1], user_id, own.item, 4)
