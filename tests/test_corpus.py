import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spacerank import corpus
from spacerank.baselines import KnnModel
from spacerank.corpus import (
    Observation,
    RatingEvent,
    Ratings,
    ReviewDocument,
    binarize,
    build_profiles,
    load_rating_columns,
    load_ratings,
    load_reviews,
    pair_codes,
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


def per_field_load_ratings(path):
    """The per-field parser that `load_ratings` replaced, kept as its oracle."""
    events, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 4:
                raise ParseError(path, line_no, f"expected 4 '::'-separated fields, got {len(parts)}")
            try:
                user_id, item_id, rating, ts = (int(p) for p in parts)
            except ValueError:
                raise ParseError(path, line_no, f"non-integer field in {line!r}") from None
            if not 1 <= rating <= 5:
                raise ParseError(path, line_no, f"rating {rating} outside [1,5]")
            if (user_id, item_id) in seen:
                raise ValidationError(
                    f"{path}:{line_no}: duplicate rating for user {user_id}, item {item_id}"
                )
            seen.add((user_id, item_id))
            events.append((user_id, item_id, rating, ts))
    return events


def _outcome(load, path):
    try:
        return load(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


_FIELD = st.one_of(
    st.integers(0, 6).map(str),
    st.sampled_from(["+5", " 5", "5 ", "5_0", "-1", "x", "", "4.0", "\u0665"]),
)
_LINE = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5), st.integers(0, 9)).map(
        lambda fields: "::".join(map(str, fields))
    ),
    st.just(""),
)
_ODD_LINE = st.one_of(st.lists(_FIELD, min_size=3, max_size=5).map("::".join), st.just(" "))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
    odd=st.one_of(st.none(), st.tuples(st.integers(0, 8), _ODD_LINE)),
)
def test_load_ratings_matches_the_per_field_parser(tmp_path, lines, odd):
    if odd is not None:  # at most one odd line, so that most files parse past it
        lines.insert(odd[0], (odd[1], "\n"))
    path = tmp_path / "r.dat"
    path.write_bytes("".join(line + end for line, end in lines).encode("utf-8"))
    expected = _outcome(per_field_load_ratings, path)
    got = _outcome(load_ratings, path)
    assert got == expected
    if isinstance(got, list):
        assert all(type(e) is RatingEvent for e in got)


def _rows(ratings):
    assert isinstance(ratings, Ratings) and all(c.dtype == np.int64 for c in ratings)
    return [tuple(row) for row in zip(*(c.tolist() for c in ratings))]


# All-digit lines near the canonical form's edges: zero-padded ids, ratings
# 0-9, timestamps of up to 21 digits.
_DIGIT_LINE = st.tuples(
    st.integers(1, 3).map(str), st.integers(0, 3).map(lambda i: f"{i:0{i + 1}d}"),
    st.integers(0, 9).map(str), st.integers(0, 10**21).map(str),
).map("::".join)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(st.tuples(st.one_of(_LINE, _DIGIT_LINE), st.sampled_from(["\n", "\r\n", "\r"])),
                   max_size=8),
    odd=st.one_of(st.none(), st.tuples(st.integers(0, 8), _ODD_LINE)),
)
def test_load_rating_columns_matches_the_per_field_parser(tmp_path, lines, odd):
    # the bulk parse of a canonical file, or load_ratings on any other: the same values or error
    if odd is not None:
        lines.insert(odd[0], (odd[1], "\n"))
    path = tmp_path / "r.dat"
    path.write_bytes("".join(line + end for line, end in lines).encode("utf-8"))
    expected = _outcome(per_field_load_ratings, path)
    if isinstance(expected, list) and any(v >= 2**63 for row in expected for v in row):
        expected = ValidationError, f"{path}: a field is outside the 64-bit integer range"
    got = _outcome(load_rating_columns, path)
    assert (_rows(got) if isinstance(got, Ratings) else got) == expected


class TestLoadRatingColumns:
    @pytest.fixture
    def per_line_calls(self, monkeypatch):
        calls = []

        def recording(path):
            calls.append(path)
            return load_ratings(path)

        monkeypatch.setattr(corpus, "load_ratings", recording)
        return calls

    def test_canonical_file_parses_in_bulk(self, tmp_path, per_line_calls):
        text = "\r\n1::10::5::300\r\n\n2::10::1::0\n1::007::3::999999999999999999\n\n"
        path = write(tmp_path, "r.dat", text)
        expected = [(1, 10, 5, 300), (2, 10, 1, 0), (1, 7, 3, 999999999999999999)]
        assert _rows(load_rating_columns(path)) == expected
        assert per_line_calls == []

    @pytest.mark.parametrize("text", [
        "", "\n", "\r\n\r\n", "1::2::3::4", "1::2::3::4\n\n",
    ], ids=["empty", "blank", "blank crlf", "no final newline", "final blank line"])
    def test_canonical_edge_files_parse_in_bulk(self, tmp_path, per_line_calls, text):
        path = write(tmp_path, "r.dat", text)
        assert _rows(load_rating_columns(path)) == per_field_load_ratings(path)
        assert per_line_calls == []

    @pytest.mark.parametrize("line", [
        "1::11::+5::30", "1::11:: 5::30", "1::11::5::1234567890123456789", "1::11::05::30",
    ], ids=["plus", "space", "19 digits", "leading zero rating"])
    def test_lenient_line_goes_through_load_ratings(self, tmp_path, per_line_calls, line):
        path = write(tmp_path, "r.dat", f"1::10::4::20\n{line}\n")
        assert _rows(load_rating_columns(path)) == per_field_load_ratings(path)
        assert per_line_calls == [path]

    @pytest.mark.parametrize("text, error", [
        ("1::2::3::4\n1::2::5::9\n", ValidationError),
        ("1::2::3::4\n1::3::6::4\n", ParseError),
        ("1::2::3::4\n1::3::0::4\n", ParseError),
        ("1::2::3::4\r1::2::3\n", ParseError),
    ], ids=["duplicate", "rating 6", "rating 0", "three fields after a CR"])
    def test_errors_are_load_ratings_errors(self, tmp_path, per_line_calls, text, error):
        path = write(tmp_path, "r.dat", text)
        with pytest.raises(error) as refused:
            load_rating_columns(path)
        assert _outcome(per_field_load_ratings, path) == (error, str(refused.value))
        assert per_line_calls == [path]


@given(st.lists(st.tuples(st.sampled_from([0, 1, 7, -3, 2**31 - 1, 2**31, 2**40, -2**63, 2**63 - 1]),
                          st.sampled_from([0, 2, 5, -1, 2**31 - 1, 2**31, -2**63, 2**63 - 1])), max_size=12))
def test_pair_codes_equal_exactly_where_pairs_are(pairs):
    users, items = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    codes = pair_codes(users, items).tolist()
    assert all(code >= 0 for code in codes)
    for (a, code_a) in zip(pairs, codes):
        for (b, code_b) in zip(pairs, codes):
            assert (a == b) == (code_a == code_b)


def reference_profiles(events):
    """`build_profiles` written out as a loop over the events."""
    totals = {}
    for e in events:
        totals.setdefault(e.user_id, []).append(e.rating)
    return {uid: (uid, sum(r) / len(r), len(r)) for uid, r in totals.items()}


@given(events=st.lists(
    st.builds(RatingEvent, st.integers(-2, 5), st.integers(0, 40), st.integers(1, 5), st.integers(0, 9)),
    max_size=60, unique_by=lambda e: (e.user_id, e.item_id)))
@settings(max_examples=150, deadline=None)
def test_profiles_and_levels_match_their_loops(events):
    profiles = build_profiles(events)
    assert profiles == reference_profiles(events)
    _, _, levels = rating_levels(events, profiles)
    assert levels.dtype == np.int8
    assert levels.tolist() == [binarize(e.rating, profiles[e.user_id].mean_rating) for e in events]
    assert ratings_to_observations(corpus.as_ratings(events), profiles) == [
        Observation(e.item_id, f"user{e.user_id}_rating{binarize(e.rating, profiles[e.user_id].mean_rating)}")
        for e in events
    ]


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

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_and_blank_lines(self, tmp_path, end):
        # Every line end reads as LF; blank lines are skipped but counted.
        path = tmp_path / "rev.tsv"
        path.write_bytes(f"{end}7\tgreat film{end}{end}9\tmeh{end}7\tloved it{end}{end}".encode())
        assert load_reviews(path) == [ReviewDocument(7, "great film loved it"), ReviewDocument(9, "meh")]
        path.write_bytes(f"{end}7\tgreat film{end}{end}no tab here{end}".encode())
        with pytest.raises(ParseError) as refused:
            load_reviews(path)
        assert refused.value.line_no == 4
