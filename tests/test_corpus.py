import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacerank.baselines import KnnModel
from spacerank.corpus import (
    Observation,
    RatingEvent,
    ReviewDocument,
    binarize,
    build_profiles,
    load_ratings,
    load_reviews,
    rating_levels,
    ratings_to_observations,
    reviews_to_observations,
)
from spacerank.errors import NoSuchUserError, ParseError, ValidationError
from spacerank.spaces import EmbeddingSpace, build_vsm_space


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadRatings:
    def test_movielens_line(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::1193::5::978300760\n")
        assert load_ratings(path) == [RatingEvent(1, 1193, 5, 978300760)]

    def test_empty_file(self, tmp_path):
        assert load_ratings(write(tmp_path, "r.dat", "")) == []

    def test_file_order_preserved(self, tmp_path):
        path = write(tmp_path, "r.dat", "2::9::4::50\n1::7::3::10\n")
        events = load_ratings(path)
        assert [e.user_id for e in events] == [2, 1]

    def test_malformed_line_names_line_number(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::2::3::4\n1::2::3\n")
        with pytest.raises(ParseError, match="2"):
            load_ratings(path)

    def test_rating_out_of_range(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::2::6::4\n")
        with pytest.raises(ParseError):
            load_ratings(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::2::3::4\n1::2::5::9\n")
        with pytest.raises(ValidationError):
            load_ratings(path)


class TestBinarize:
    def test_below_mean(self):
        assert binarize(3, 3.4) == 1

    def test_above_mean(self):
        assert binarize(4, 3.4) == 2

    def test_equal_is_above(self):
        assert binarize(3, 3.0) == 2

    @given(st.integers(1, 5), st.floats(1.0, 5.0))
    def test_image_and_monotonicity(self, rating, mean):
        b = binarize(rating, mean)
        assert b in (1, 2)
        if rating < 5:
            assert binarize(rating + 1, mean) >= b


class TestRatingsToObservations:
    def test_running_example(self):
        # user 73 averages 3.4, so a 3 binarizes to 1
        events = [RatingEvent(73, i, r, i) for i, r in enumerate((3, 4, 3, 4), start=1)]
        events.append(RatingEvent(73, 240, 3, 99))
        profiles = build_profiles(events)
        assert profiles[73].mean_rating == pytest.approx(3.4)
        obs = ratings_to_observations([RatingEvent(73, 240, 3, 99)], profiles)
        assert obs == [Observation(240, "user73_rating1")]

    def test_above_mean_token(self):
        profiles = build_profiles([RatingEvent(9, 1, 2, 0), RatingEvent(9, 2, 2, 1)])
        obs = ratings_to_observations([RatingEvent(9, 7, 5, 2)], profiles)
        assert obs == [Observation(7, "user9_rating2")]

    def test_empty(self):
        assert ratings_to_observations([], {}) == []

    def test_missing_profile(self):
        with pytest.raises(NoSuchUserError):
            ratings_to_observations([RatingEvent(1, 1, 3, 0)], {})

    def test_length_preserved_and_vocab_bounded(self):
        events = [RatingEvent(u, i, 1 + (u + i) % 5, i) for u in range(1, 8) for i in range(40)]
        profiles = build_profiles(events)
        obs = ratings_to_observations(events, profiles)
        assert len(obs) == len(events)
        assert len({o.token for o in obs}) <= 2 * len(profiles)


def reference_vsm_space(events, profiles):
    """`build_vsm_space` written out with id-to-row dicts and a loop over the events."""
    events = list(events)
    user_axis = {uid: axis for axis, uid in enumerate(sorted(profiles))}
    item_ids = sorted({e.item_id for e in events})
    row_of = {item: row for row, item in enumerate(item_ids)}
    matrix = np.zeros((len(item_ids), len(user_axis)), dtype=np.float64)
    for e in events:
        level = binarize(e.rating, profiles[e.user_id].mean_rating)
        matrix[row_of[e.item_id], user_axis[e.user_id]] = level
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    nonzero = norms[:, 0] > 0
    matrix[nonzero] /= norms[nonzero]
    return EmbeddingSpace(len(user_axis), item_ids, matrix, "vsm")


def reference_knn_matrix(events, profiles):
    """`KnnModel`'s user ids, item ids and unit-norm level matrix, written out with dicts and loops."""
    user_ids = sorted({e.user_id for e in events})
    item_ids = sorted({e.item_id for e in events})
    user_row = {u: r for r, u in enumerate(user_ids)}
    item_col = {i: c for c, i in enumerate(item_ids)}
    matrix = np.zeros((len(user_ids), len(item_ids)), dtype=np.float32)
    for e in events:
        matrix[user_row[e.user_id], item_col[e.item_id]] = binarize(
            e.rating, profiles[e.user_id].mean_rating
        )
    for row in matrix:
        row /= np.linalg.norm(row)
    return user_ids, item_ids, matrix


@st.composite
def rating_sets(draw):
    """Shuffled events with unique (user, item) pairs; some users rate every item alike."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 9)),
                          min_size=1, max_size=30, unique=True))
    flat = draw(st.sets(st.integers(1, 6)))  # every rating equals the user's mean
    events = [
        RatingEvent(user * 7, item * 3, 3 if user in flat else draw(st.integers(1, 5)), t)
        for t, (user, item) in enumerate(pairs)
    ]
    return draw(st.permutations(events))


class TestRatingLevels:
    def test_levels_aligned_with_events(self):
        events = [RatingEvent(2, 10, 5, 0), RatingEvent(1, 11, 2, 0), RatingEvent(2, 12, 1, 1)]
        users, items, levels = rating_levels(events, build_profiles(events))
        assert users.tolist() == [2, 1, 2]
        assert items.tolist() == [10, 11, 12]
        assert levels.tolist() == [2, 2, 1]

    def test_missing_profile(self):
        events = [RatingEvent(1, 10, 4, 0), RatingEvent(2, 10, 4, 0)]
        with pytest.raises(NoSuchUserError):
            rating_levels(events, build_profiles(events[:1]))

    @given(events=rating_sets(), idle_user=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_vsm_and_knn_match_their_loops(self, events, idle_user):
        # an idle user has a profile but no events: an all-zero vsm dimension
        idle = [RatingEvent(1000, 3, 4, 0)] if idle_user else []
        profiles = build_profiles(events + idle)
        space = build_vsm_space(events, profiles)
        reference = reference_vsm_space(events, profiles)
        assert space == reference and space.matrix.dtype == reference.matrix.dtype

        model = KnnModel(events, profiles, k=2)
        user_ids, item_ids, matrix = reference_knn_matrix(events, profiles)
        assert model.user_ids.tolist() == user_ids and model.item_ids.tolist() == item_ids
        assert model.matrix.dtype == matrix.dtype
        np.testing.assert_array_equal(model.matrix, matrix)


class TestReviewsToObservations:
    def test_duplicates_preserved(self):
        obs = reviews_to_observations([ReviewDocument(240, "The masterpiece, the")])
        assert obs == [
            Observation(240, "the"),
            Observation(240, "masterpiece"),
            Observation(240, "the"),
        ]

    def test_empty_text(self):
        assert reviews_to_observations([ReviewDocument(7, "")]) == []

    def test_alphanumeric_runs(self):
        # Hand-applying the tokenizer rule: split on every non-alphanumeric.
        obs = reviews_to_observations([ReviewDocument(7, "A-1 movie!")])
        assert [o.token for o in obs] == ["a", "1", "movie"]

    @given(st.lists(st.text(max_size=20), max_size=5))
    def test_concatenation_distributes(self, texts):
        per_doc = []
        for text in texts:
            per_doc.extend(reviews_to_observations([ReviewDocument(1, text)]))
        joined = reviews_to_observations([ReviewDocument(1, " ".join(texts))])
        assert [o.token for o in joined] == [o.token for o in per_doc]


class TestLoadReviews:
    def test_lines_concatenated_per_item(self, tmp_path):
        path = write(tmp_path, "rev.tsv", "7\tgreat film\n9\tmeh\n7\tloved it\n")
        docs = load_reviews(path)
        assert docs == [ReviewDocument(7, "great film loved it"), ReviewDocument(9, "meh")]

    def test_missing_tab(self, tmp_path):
        with pytest.raises(ParseError):
            load_reviews(write(tmp_path, "rev.tsv", "no tab here\n"))
