import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacerank import native
from spacerank.corpus import RatingEvent, binarize
from spacerank.errors import CannotRankError, SpaceRankError
from spacerank.hsoftmax import sigmoid
from spacerank.ranker import (
    HyperplaneModel,
    RankerConfig,
    build_preferences,
    derive_seed,
    pair_stream,
    recommend_topk,
    score_items,
    top_k,
    train_hyperplane,
)
from spacerank.spaces import EmbeddingSpace


def grid_space(n_items=10, d=2):
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(n_items, d)).astype(np.float32)
    return EmbeddingSpace(d, list(range(1, n_items + 1)), matrix)


def separable_space(n_items=100, d=20, n_liked=10, seed=0):
    """Liked items live in one half-space, everything else in the other."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(0, 0.3, size=(n_items, d)).astype(np.float32)
    matrix[:n_liked, 0] = 1.0 + rng.random(n_liked)
    matrix[n_liked:, 0] = -1.0 - rng.random(n_items - n_liked)
    return EmbeddingSpace(d, list(range(1, n_items + 1)), matrix)


def reference_preferences(user_events, space, phi_t):
    """The per-event object loop, one (item id, level) per space item: the oracle."""
    if not user_events:
        raise CannotRankError("user has no training events")
    in_space = set(space.item_ids.tolist())
    usable = [e for e in user_events if e.item_id in in_space]
    if not usable:
        raise CannotRankError("none of the user's rated items are in the space")
    mean = sum(e.rating for e in user_events) / len(user_events)
    usable.sort(key=lambda e: (e.timestamp, e.item_id))
    kept = usable if phi_t == "all" else usable[-int(phi_t):]
    preferences = [(e.item_id, binarize(e.rating, mean)) for e in kept]
    rated_ids = {e.item_id for e in kept}
    preferences.extend((int(i), 0) for i in space.item_ids if int(i) not in rated_ids)
    return preferences


def reference_hyperplane(pairs, space, config):
    """The per-pair SGD loop over row pairs, one interpreted step per pair: the oracle."""
    d = space.dimensions
    w = np.random.default_rng(config.seed).uniform(-0.5 / d, 0.5 / d, size=d)
    total = len(pairs)
    for k in range(total):
        va = space.matrix[int(pairs[k][0])]
        vb = space.matrix[int(pairs[k][1])]
        g = sigmoid(float(w @ va - w @ vb))
        step = g * config.alpha0 * (1.0 - k / total)
        w += step * (vb.astype(np.float64) - va)
    return w


@st.composite
def preference_cases(draw):
    """One user's events over a space with unsorted ids; some rated items are
    missing from it, timestamps tie, and any event may be unusable."""
    n_items = draw(st.integers(1, 30))
    item_ids = draw(st.lists(st.integers(1, 60), min_size=n_items, max_size=n_items, unique=True))
    space = EmbeddingSpace(1, item_ids, np.zeros((n_items, 1)))
    event = st.builds(RatingEvent, st.just(1), st.integers(1, 70), st.integers(1, 5), st.integers(0, 6))
    events = draw(st.lists(event, max_size=40))
    return events, space, draw(st.one_of(st.just("all"), st.integers(1, 12)))


class TestBuildPreferences:
    @settings(max_examples=200, deadline=None)
    @given(preference_cases())
    def test_matches_object_loop(self, case):
        events, space, phi_t = case
        try:
            expected = reference_preferences(events, space, phi_t)
        except CannotRankError as refused:
            with pytest.raises(CannotRankError, match=str(refused)):
                build_preferences(events, space, phi_t)
            return
        prefs = build_preferences(events, space, phi_t)
        assert list(zip(space.item_ids[prefs.row].tolist(), prefs.level.tolist())) == expected

    def test_recency_trim(self):
        space = grid_space(20)
        events = [RatingEvent(1, i, 5 if i % 2 else 2, 100 + i) for i in range(1, 9)]
        prefs = build_preferences(events, space, phi_t=5)
        assert space.item_ids[prefs.row[prefs.level > 0]].tolist() == [4, 5, 6, 7, 8]
        assert np.count_nonzero(prefs.level == 0) == 20 - 5
        assert sorted(prefs.row) == list(range(20))

    def test_phi_t_all(self):
        space = grid_space(10)
        events = [RatingEvent(1, i, 4, i) for i in range(1, 4)]
        prefs = build_preferences(events, space, phi_t="all")
        assert np.count_nonzero(prefs.level > 0) == 3

    def test_levels_binarized_against_train_mean(self):
        space = grid_space(10)
        # mean 3.4: the 3s go to level 1, the 4s to level 2
        ratings = (3, 4, 3, 4, 3)
        events = [RatingEvent(1, i + 1, r, i) for i, r in enumerate(ratings)]
        prefs = build_preferences(events, space, phi_t="all")
        rated = prefs[prefs.level > 0]
        assert dict(zip(space.item_ids[rated.row].tolist(), rated.level.tolist())) == {1: 1, 2: 2, 3: 1, 4: 2, 5: 1}

    def test_items_missing_from_space_unusable(self):
        space = grid_space(5)
        events = [RatingEvent(1, 99, 5, 0)]
        with pytest.raises(CannotRankError):
            build_preferences(events, space, phi_t="all")

    def test_no_events(self):
        with pytest.raises(CannotRankError):
            build_preferences([], grid_space(), phi_t=5)


class TestPairStream:
    def prefs(self, n_unrated=4):
        # items 1 (disliked) and 2 (liked) are rows 0 and 1
        return build_preferences(
            [RatingEvent(1, 1, 2, 0), RatingEvent(1, 2, 5, 1)],
            grid_space(n_unrated + 2),
            phi_t="all",
        )

    def test_orientation_lower_level_first(self):
        prefs = self.prefs()
        levels = dict(zip(prefs.row.tolist(), prefs.level.tolist()))
        for a, b in pair_stream(prefs, phi_i=5, phi_d=2.0, seed=0):
            assert levels[a] < levels[b]

    def test_no_downsampling_keeps_every_pair_every_iteration(self):
        prefs = self.prefs(n_unrated=4)
        stream = pair_stream(prefs, phi_i=3, phi_d=1.0, seed=0)
        # 1 rated-rated pair + 4 unrated x 2 rated pairs, all in all 3 passes
        assert len(stream) == 3 * (1 + 8)

    def test_rated_pair_in_every_iteration(self):
        prefs = self.prefs()
        stream = pair_stream(prefs, phi_i=10, phi_d=1e9, seed=0)
        assert np.all(stream == (0, 1), axis=1).sum() == 10

    def test_downsampling_expectation(self):
        prefs = self.prefs(n_unrated=100)
        total = 0
        for seed in range(30):
            stream = pair_stream(prefs, phi_i=10, phi_d=10.0, seed=seed)
            total += sum(1 for a, b in stream if a != 0 or b != 1) - 10 * 0
        # 200 rated-unrated pairs x phi_i/phi_d = 1 expected use each
        mean_uses = (total - 30 * 10) / (30 * 200)
        assert 0.85 < mean_uses < 1.15

    def test_no_pairs_cannot_rank(self):
        space = grid_space(2)
        prefs = build_preferences(
            [RatingEvent(1, 1, 5, 0), RatingEvent(1, 2, 5, 1)], space, phi_t="all"
        )
        # both rated items binarize to 2 and no unrated items remain
        with pytest.raises(CannotRankError):
            pair_stream(prefs, phi_i=2, phi_d=1.0, seed=0)
        prefs = build_preferences(
            [RatingEvent(1, 1, 5, 0), RatingEvent(1, 2, 5, 1)], grid_space(6), phi_t="all"
        )
        # one rated level: only rated-unrated candidates, and phi_d=1e9 drops them all
        with pytest.raises(CannotRankError):
            pair_stream(prefs, phi_i=3, phi_d=1e9, seed=0)

    def test_stream_is_golden(self):
        # sha256 of the pairs' int64 item ids, recorded when the stream was a list of id tuples
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(2, list(range(1, 41)), rng.normal(size=(40, 2)).astype(np.float32))
        events = [RatingEvent(1, i, 1 + (i * 7) % 5, 100 - i) for i in range(1, 13)]
        prefs = build_preferences(events, space, phi_t="all")
        golden = {
            3.0: (573, "1d04be81f7ea14badd1433859e26d403f43acca75922a2834c5bde7eb79204f2"),
            1.0: (1484, "56df49ad35e0202d59af4e1ad5b303bbe30ad07edbebcec6f3795370bd1f3a37"),
        }
        for phi_d, (count, digest) in golden.items():
            stream = pair_stream(prefs, phi_i=4, phi_d=phi_d, seed=2024)
            assert stream.shape == (count, 2) and stream.dtype == np.uint8
            item_ids = space.item_ids[stream].astype(np.int64)
            assert hashlib.sha256(item_ids.tobytes()).hexdigest() == digest

    def test_heavy_user_stream_is_one_compact_array(self):
        # 1000 ratings at phi_t=all on 1500 items: 1.5M pairs at phi_i=2
        rng = np.random.default_rng(4)
        space = EmbeddingSpace(1, np.arange(1, 1501), np.zeros((1500, 1), dtype=np.float32))
        events = [RatingEvent(1, int(i), int(r), t) for t, (i, r) in
                  enumerate(zip(rng.permutation(np.arange(1, 1501))[:1000], rng.integers(1, 6, 1000)))]
        prefs = build_preferences(events, space, phi_t="all")
        l0, l1, l2 = (np.count_nonzero(prefs.level == v) for v in (0, 1, 2))
        tracemalloc.start()
        try:
            stream = pair_stream(prefs, phi_i=2, phi_d=1.0, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(stream) is np.ndarray and np.issubdtype(stream.dtype, np.integer)
        assert stream.shape == (2 * (l1 * l2 + l0 * (l1 + l2)), 2)
        assert peak < 3 * stream.nbytes

    def test_user_who_rated_every_item_ignores_phi_d(self):
        # No unrated item: nothing is downsampled, so phi_d must leave every draw alone.
        events = [RatingEvent(1, i, r, i) for i, r in zip(range(1, 7), (1, 5, 2, 4, 5, 1))]
        prefs = build_preferences(events, grid_space(6), phi_t="all")
        assert np.count_nonzero(prefs.level == 0) == 0
        streams = [pair_stream(prefs, phi_i=3, phi_d=phi_d, seed=5) for phi_d in (1.0, 20.0, 1e9)]
        assert streams[0].shape == (3 * 9, 2)  # 3 disliked x 3 liked pairs in each pass
        for stream in streams[1:]:
            assert stream.dtype == streams[0].dtype and np.array_equal(stream, streams[0])
        assert not np.array_equal(pair_stream(prefs, phi_i=3, phi_d=1.0, seed=6), streams[0])

    def test_seeded_determinism(self):
        prefs = self.prefs(n_unrated=30)
        a = pair_stream(prefs, phi_i=4, phi_d=3.0, seed=9)
        b = pair_stream(prefs, phi_i=4, phi_d=3.0, seed=9)
        assert np.array_equal(a, b)


class TestTrainHyperplane:
    def test_identical_vectors_leave_w_unchanged(self):
        matrix = np.ones((2, 3), dtype=np.float32)
        space = EmbeddingSpace(3, [1, 2], matrix)
        config = RankerConfig(seed=5)
        model = train_hyperplane([(0, 1)] * 50, space, config)
        rng = np.random.default_rng(5)
        init = rng.uniform(-0.5 / 3, 0.5 / 3, size=3)
        np.testing.assert_array_equal(model.w, init)

    def test_separable_toy_orders_liked_first(self):
        matrix = np.array([[0.0, 1.0], [0.0, 0.9], [1.0, 0.0], [0.9, 0.0]], dtype=np.float32)
        space = EmbeddingSpace(2, [1, 2, 3, 4], matrix)
        events = [RatingEvent(1, 1, 5, 0), RatingEvent(1, 2, 5, 1)]
        prefs = build_preferences(events, space, phi_t="all")
        pairs = pair_stream(prefs, phi_i=50, phi_d=1.0, seed=1)
        model = train_hyperplane(pairs, space, RankerConfig(phi_i=50, phi_d=1.0, seed=1))
        scores = score_items(model, space)
        assert min(scores[1], scores[2]) > max(scores[3], scores[4])

    def test_pairwise_accuracy_reaches_one_on_separable_space(self):
        space = separable_space()
        liked = list(range(1, 11))
        events = [RatingEvent(7, i, 5, i) for i in liked]
        prefs = build_preferences(events, space, phi_t="all")
        pairs = pair_stream(prefs, phi_i=50, phi_d=1.0, seed=3)
        model = train_hyperplane(pairs, space, RankerConfig(phi_i=50, phi_d=1.0, seed=3), user_id=7)
        scores = score_items(model, space)
        correct = sum(
            1 for a in range(11, 101) for b in liked if scores[b] > scores[a]
        )
        assert correct == 90 * 10

    def test_dimension_mismatch(self):
        space = grid_space(4, d=3)
        model = HyperplaneModel(1, np.zeros(5))
        with pytest.raises(ValueError):
            score_items(model, space)

    @pytest.mark.parametrize("field, value", [
        ("alpha0", float("nan")), ("alpha0", float("inf")), ("alpha0", 0.0), ("phi_d", float("nan")),
    ])
    def test_config_refuses_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            RankerConfig(**{field: value})
        RankerConfig(phi_d=float("inf"))  # keeps no rated-versus-unrated pair, as a huge phi_d does

    def test_empty_stream(self):
        for empty in ([], np.empty((0, 2), dtype=np.uint8)):
            with pytest.raises(CannotRankError):
                train_hyperplane(empty, grid_space(), RankerConfig())

    def test_matches_reference_loop(self):
        space = separable_space()
        events = [RatingEvent(7, i, 5, i) for i in range(1, 11)] + [RatingEvent(7, 50, 1, 11)]
        config = RankerConfig(phi_i=3, phi_d=4.0, seed=11)
        pairs = pair_stream(build_preferences(events, space, "all"), config.phi_i, config.phi_d, config.seed)
        w = train_hyperplane(pairs, space, config, user_id=7).w
        reference = reference_hyperplane(pairs, space, config)
        assert np.linalg.norm(w - reference) <= 1e-12 * np.linalg.norm(reference)


@st.composite
def ranker_cases(draw):
    """A random small space, one user's random row-pair stream and config."""
    n_items = draw(st.integers(2, 25))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    item_ids = rng.permutation(np.arange(1, 4 * n_items))[:n_items]
    space = EmbeddingSpace(d, item_ids, rng.uniform(-2, 2, size=(n_items, d)).astype(np.float32))
    stream = rng.integers(n_items, size=(int(rng.integers(1, 150)), 2))
    config = RankerConfig(alpha0=draw(st.sampled_from([0.001, 0.025, 0.3, 1.0])), seed=draw(st.integers(0, 2**63)))
    return space, stream, config


def no_kernels():
    return None, "numpy"


class TestTrainHyperplanes:
    @settings(max_examples=60, deadline=None)
    @given(ranker_cases())
    def test_both_paths_match_reference(self, case):
        space, stream, config = case
        reference = reference_hyperplane(stream, space, config)
        for kernels in (native.kernels, no_kernels):  # the compiled pass, the numpy loop
            with mock.patch.object(native, "kernels", kernels):
                model = train_hyperplane(stream, space, config, user_id=3)
            assert model.user_id == 3
            assert np.linalg.norm(model.w - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("bad", [np.array([[0.0, 1.0]]), np.array([[2, -1]]), np.array([[4, 0]])],
                             ids=["float", "negative", "past-end"])
    def test_bad_row_stream_refused_before_training(self, bad):
        library = mock.Mock()
        for kernels in (lambda: (library, "kernel"), no_kernels):
            with mock.patch.object(native, "kernels", kernels):
                with pytest.raises(ValueError, match="row"):
                    train_hyperplane(bad, grid_space(4), RankerConfig(), 1)
        library.hyperplane_pass.assert_not_called()

    def test_kernel_path_copies_the_stream_once(self):
        if native.kernels()[0] is None:
            pytest.skip("no compiled kernel")
        rng = np.random.default_rng(6)
        space = EmbeddingSpace(4, np.arange(50), rng.normal(size=(50, 4)))  # float64, as the CLI holds it
        stream = rng.integers(50, size=(200_000, 2)).astype(np.uint16)  # as pair_stream emits it
        tracemalloc.start()
        try:
            train_hyperplane(stream, space, RankerConfig(), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(stream) + 64 * 1024  # one int32 copy of the stream

    def test_numpy_loop_keeps_no_per_pair_objects(self):
        # The loop walks the stream's rows: a list of the stream (stream.tolist())
        # would hold two Python ints per pair, about 1.6 MB for this stream.
        rng = np.random.default_rng(7)
        space = EmbeddingSpace(4, np.arange(50), rng.normal(size=(50, 4)))  # float64, as the CLI holds it
        stream = rng.integers(50, size=(20_000, 2)).astype(np.uint16)  # as pair_stream emits it
        with mock.patch.object(native, "kernels", no_kernels):
            tracemalloc.start()
            try:
                train_hyperplane(stream, space, RankerConfig(), 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 16 * 1024  # w, one pair's rows and difference, the seeded generator

    def test_overflowing_w_refused_on_both_paths(self):
        space = EmbeddingSpace(2, [1, 2], np.array([[10.0, 0.0], [0.0, 10.0]]))
        stream = np.array([[0, 1], [1, 0]] * 4)
        for kernels in (native.kernels, no_kernels):
            with mock.patch.object(native, "kernels", kernels), np.errstate(all="ignore"):
                with pytest.raises(SpaceRankError, match="non-finite w"):
                    train_hyperplane(stream, space, RankerConfig(alpha0=1e308), 1)

    @pytest.mark.parametrize("shape", [(6,), (2, 3), (2, 2, 2)])
    def test_misshapen_stream_refused(self, shape):
        stream = np.ones(shape, dtype=np.int64)
        with pytest.raises(ValueError, match="shape"):
            train_hyperplane(stream, grid_space(4), RankerConfig(), 1)


class TestScoring:
    def test_zero_w_zero_scores(self):
        space = grid_space(5)
        scores = score_items(HyperplaneModel(None, np.zeros(2)), space)
        assert set(scores.values()) == {0.0}

    def test_unit_axis_reads_coordinate(self):
        space = grid_space(5, d=3)
        w = np.array([0.0, 1.0, 0.0])
        scores = score_items(HyperplaneModel(None, w), space)
        for item, score in scores.items():
            assert score == pytest.approx(float(space.vector(item)[1]), rel=1e-6)

    def test_positive_scaling_preserves_order(self):
        space = grid_space(30, d=4)
        rng = np.random.default_rng(2)
        w = rng.normal(size=4)
        first = recommend_topk(HyperplaneModel(None, w), space, set(), 30)
        second = recommend_topk(HyperplaneModel(None, 7.5 * w), space, set(), 30)
        assert first == second

    def test_float64_space_is_ranked_without_a_copy(self):
        # As the CLI holds it: a float32 matrix would be cast to a float64 copy per call.
        rng = np.random.default_rng(3)
        space = EmbeddingSpace(500, np.arange(1, 2001), rng.normal(size=(2000, 500)))
        model = HyperplaneModel(None, rng.normal(size=500))
        tracemalloc.start()
        try:
            recommend_topk(model, space, {1, 2, 3}, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6 < space.matrix.nbytes


class TestTopK:
    def test_exclude_and_truncate(self):
        ids = np.array([1, 2, 3])
        scores = np.array([3.0, 2.0, 1.0])
        assert top_k(ids, scores, {1}, 2) == [2, 3]

    def test_ties_ascending_ids(self):
        ids = np.array([9, 4, 7])
        scores = np.zeros(3)
        assert top_k(ids, scores, set(), 3) == [4, 7, 9]

    def test_k_exceeds_candidates(self):
        ids = np.array([5, 6])
        assert top_k(ids, np.array([1.0, 2.0]), set(), 10) == [6, 5]

    def test_matches_sorted_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ids = rng.permutation(np.arange(100, 160))[: rng.integers(1, 60)]
            scores = rng.integers(0, 5, len(ids)).astype(np.float64)
            exclude = set(rng.integers(90, 170, rng.integers(0, 40)).tolist())
            k = int(rng.integers(1, 20))
            expected = sorted((i for i in ids.tolist() if i not in exclude),
                              key=lambda i: (-scores[ids.tolist().index(i)], i))[:k]
            assert top_k(ids, scores, exclude, k) == expected

    @staticmethod
    def full_sort_top_k(item_ids, scores, exclude, k):
        """The reference for `top_k`: a lexsort of every candidate."""
        exclude = np.fromiter(exclude, dtype=np.int64)
        keep = ~np.isin(item_ids, exclude)
        item_ids, scores = item_ids[keep], scores[keep]
        order = np.lexsort((item_ids, -scores))
        return [int(i) for i in item_ids[order[:k]]]

    @given(
        n=st.integers(1, 40),
        values=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e-300]), min_size=40, max_size=40),
        k=st.integers(1, 50),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_partition_matches_the_full_sort(self, n, values, k, data):
        # few distinct scores: ties at the k-th score on most draws
        ids = np.array(data.draw(st.permutations(range(100, 100 + n))), dtype=np.int64)
        scores = np.array(values[:n])
        exclude = data.draw(st.one_of(
            st.sets(st.integers(95, 145)),
            st.just(set(ids.tolist())),  # every item excluded
            st.lists(st.integers(95, 145)).map(lambda v: np.array(v, dtype=np.int64)),
        ))
        expected = self.full_sort_top_k(ids, scores, list(exclude), k)
        assert top_k(ids, scores, exclude, k) == expected
        assert top_k(ids, scores, iter(list(exclude)), k) == expected


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, 10) == derive_seed(1, 10)
    assert derive_seed(1, 10) != derive_seed(1, 11)
    assert derive_seed(2, 10) != derive_seed(1, 10)
