import heapq
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spacerank.corpus import Observation, build_profiles, load_rating_columns, ratings_to_observations
from spacerank.errors import NoSuchTokenError
from spacerank.hsoftmax import (
    build_huffman,
    build_vocabulary,
    hs_probability,
    hs_train_step,
    new_node_matrix,
    sigmoid,
)


@lru_cache(maxsize=None)
def min_prefix_code_cost(freqs: tuple) -> int:
    """Minimum total weighted code length over all prefix-free binary codes.

    Exhaustive merge search: every full binary tree over the leaves arises
    from some pairwise merge sequence, and its weighted depth is the sum of
    merge costs. Independent of the Huffman greedy rule.
    """
    if len(freqs) == 1:
        return 0
    best = None
    for i in range(len(freqs)):
        for j in range(i + 1, len(freqs)):
            merged = freqs[:i] + freqs[i + 1:j] + freqs[j + 1:] + (freqs[i] + freqs[j],)
            cost = min_prefix_code_cost(tuple(sorted(merged))) + freqs[i] + freqs[j]
            if best is None or cost < best:
                best = cost
    return best


def children_map_huffman(counts):
    """Huffman codes and paths read top-down: record each merge's children, then a DFS.

    The same tie rule as `build_huffman` (frequency, then creation index; the
    lower node is branch 0), built the other way round, as the reference
    `build_huffman` must match byte for byte.
    """
    size = len(counts)
    heap = [(int(c), i) for i, c in enumerate(counts)]
    heapq.heapify(heap)
    children = {}
    next_index = size
    while len(heap) > 1:
        freq_left, left = heapq.heappop(heap)
        freq_right, right = heapq.heappop(heap)
        children[next_index] = (left, right)
        heapq.heappush(heap, (freq_left + freq_right, next_index))
        next_index += 1
    codes, paths = [None] * size, [None] * size
    stack = [(heap[0][1], [], [])]
    while stack:
        node, code, path = stack.pop()
        if node < size:
            codes[node] = np.array(code, dtype=np.uint8)
            paths[node] = np.array(path, dtype=np.int32)
        else:
            left, right = children[node]
            stack.append((left, code + [0], path + [node - size]))
            stack.append((right, code + [1], path + [node - size]))
    return codes, paths


def assert_matches_children_map(vocab):
    tree = build_huffman(vocab)
    codes, paths = children_map_huffman(vocab.counts)
    assert tree.internal_count == len(vocab) - 1
    assert len(tree.codes) == len(tree.paths) == len(vocab)
    for got, want in zip(tree.codes + tree.paths, codes + paths):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def random_instance(rng, max_vocab=64, max_dim=16):
    size = int(rng.integers(1, max_vocab + 1))
    d = int(rng.integers(1, max_dim + 1))
    vocab = build_vocabulary(
        [Observation(1, f"t{i}") for i in range(size) for _ in range(int(rng.integers(1, 6)))]
    )
    tree = build_huffman(vocab)
    nodes = rng.normal(0, 1, size=(tree.internal_count, d)).astype(np.float32)
    v = rng.normal(0, 1, size=d).astype(np.float32)
    return vocab, tree, nodes, v


class TestVocabulary:
    @pytest.mark.parametrize("record", [Observation, lambda item, token: (item, token)],
                             ids=["Observation", "tuple"])
    def test_frequency_order(self, record):
        obs = [record(1, "a"), record(1, "b"), record(2, "a")]
        vocab = build_vocabulary(obs)
        assert vocab.tokens == ("a", "b")
        assert vocab.counts.tolist() == [2, 1]

    def test_empty_stream(self):
        assert len(build_vocabulary([])) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from("zmqab"), max_size=30))  # five tokens: counts tie often
    @example(list("zmzmq"))
    def test_tie_broken_by_first_appearance(self, stream):
        vocab = build_vocabulary([Observation(1, t) for t in stream])
        expected = sorted(set(stream), key=lambda t: (-stream.count(t), stream.index(t)))
        assert vocab.tokens == tuple(expected)
        assert vocab.counts.tolist() == [stream.count(t) for t in expected]
        assert vocab.index == {t: i for i, t in enumerate(expected)}


class TestHuffman:
    def test_three_token_code_lengths(self):
        # Brute force confirms the optimum for {5, 2, 1} costs 11 = 5*1+2*2+1*2.
        vocab = build_vocabulary(
            [Observation(1, "a")] * 5 + [Observation(1, "b")] * 2 + [Observation(1, "c")]
        )
        tree = build_huffman(vocab)
        lengths = {t: len(tree.codes[vocab.token_id(t)]) for t in "abc"}
        assert lengths == {"a": 1, "b": 2, "c": 2}
        assert min_prefix_code_cost((1, 2, 5)) == 11

    def test_single_token_degenerate(self):
        vocab = build_vocabulary([Observation(1, "only")])
        tree = build_huffman(vocab)
        assert tree.internal_count == 0
        assert len(tree.codes[0]) == 0 and len(tree.paths[0]) == 0
        assert tree.codes[0].dtype == np.uint8 and tree.paths[0].dtype == np.int32

    def test_two_equal_tokens(self):
        vocab = build_vocabulary([Observation(1, "a"), Observation(1, "b")])
        tree = build_huffman(vocab)
        assert [len(c) for c in tree.codes] == [1, 1]

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            build_huffman(build_vocabulary([]))

    def test_deterministic(self):
        obs = [Observation(1, f"t{i % 7}") for i in range(50)]
        t1 = build_huffman(build_vocabulary(obs))
        t2 = build_huffman(build_vocabulary(obs))
        assert all(np.array_equal(a, b) for a, b in zip(t1.codes, t2.codes))
        assert all(np.array_equal(a, b) for a, b in zip(t1.paths, t2.paths))

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_optimal_and_prefix_free(self, freqs):
        obs = [Observation(1, f"t{i}") for i, f in enumerate(freqs) for _ in range(f)]
        vocab = build_vocabulary(obs)
        tree = build_huffman(vocab)
        cost = sum(
            int(vocab.counts[i]) * len(tree.codes[i]) for i in range(len(vocab))
        )
        assert cost == min_prefix_code_cost(tuple(sorted(freqs)))
        bits = ["".join(map(str, c)) for c in tree.codes]
        for i, a in enumerate(bits):
            for j, b in enumerate(bits):
                if i != j:
                    assert not b.startswith(a)
        # Kraft equality: the tree is full, so the code saturates the bound.
        assert sum(Fraction(1, 2 ** len(c)) for c in tree.codes) == 1
        assert tree.internal_count == len(freqs) - 1
        for code, path in zip(tree.codes, tree.paths):
            assert len(code) == len(path)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=200))  # few distinct counts: many ties
    @settings(max_examples=150, deadline=None)
    @example([7])
    @example([3, 3])
    @example([5, 2])
    def test_codes_and_paths_match_children_map(self, freqs):
        obs = [Observation(1, f"t{i}") for i, f in enumerate(freqs) for _ in range(f)]
        assert_matches_children_map(build_vocabulary(obs))

    def test_mini_corpus_cf_vocabulary_matches_children_map(self, mini_corpus):
        ratings = load_rating_columns(mini_corpus[0])
        vocab = build_vocabulary(ratings_to_observations(ratings, build_profiles(ratings)))
        assert len(vocab) > 100
        assert_matches_children_map(vocab)


class TestProbability:
    def test_one_token_probability_one(self):
        vocab = build_vocabulary([Observation(1, "x")])
        tree = build_huffman(vocab)
        nodes = new_node_matrix(tree, 3)
        assert hs_probability(np.ones(3, np.float32), "x", vocab, tree, nodes) == 1.0

    def test_two_tokens_sum_to_one(self):
        rng = np.random.default_rng(0)
        vocab = build_vocabulary([Observation(1, "a"), Observation(1, "b")])
        tree = build_huffman(vocab)
        nodes = rng.normal(size=(1, 4)).astype(np.float32)
        v = rng.normal(size=4).astype(np.float32)
        total = sum(hs_probability(v, t, vocab, tree, nodes) for t in "ab")
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_dots_quarter(self):
        vocab = build_vocabulary(
            [Observation(1, "a")] * 2 + [Observation(1, "b"), Observation(1, "c")]
        )
        tree = build_huffman(vocab)
        nodes = new_node_matrix(tree, 5)
        v = np.ones(5, np.float32)
        assert len(tree.codes[vocab.token_id("b")]) == 2
        assert hs_probability(v, "b", vocab, tree, nodes) == pytest.approx(0.25)

    def test_unknown_token(self):
        vocab = build_vocabulary([Observation(1, "a")])
        tree = build_huffman(vocab)
        with pytest.raises(NoSuchTokenError):
            hs_probability(np.ones(2, np.float32), "zz", vocab, tree, new_node_matrix(tree, 2))

    def test_normalization_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            vocab, tree, nodes, v = random_instance(rng)
            total = sum(hs_probability(v, t, vocab, tree, nodes) for t in vocab.tokens)
            assert abs(total - 1.0) <= 1e-9


class TestTrainStep:
    def test_zero_alpha_no_change(self):
        rng = np.random.default_rng(1)
        vocab, tree, nodes, v = random_instance(rng, max_vocab=9)
        v0, n0 = v.copy(), nodes.copy()
        hs_train_step(v, vocab.tokens[0], vocab, tree, nodes, 0.0)
        assert np.array_equal(v, v0) and np.array_equal(nodes, n0)

    def test_one_token_noop(self):
        vocab = build_vocabulary([Observation(1, "x")])
        tree = build_huffman(vocab)
        nodes = new_node_matrix(tree, 3)
        v = np.array([1.0, -0.0, 2.5], np.float32)  # the empty path's zero step must keep -0.0
        before = v.tobytes(), nodes.tobytes()
        hs_train_step(v, "x", vocab, tree, nodes, 0.5)
        assert (v.tobytes(), nodes.tobytes()) == before

    def test_step_decreases_loss(self):
        rng = np.random.default_rng(7)
        obs = [Observation(1, f"t{i}") for i in range(8)]
        vocab = build_vocabulary(obs)
        tree = build_huffman(vocab)
        nodes = rng.normal(0, 0.5, size=(tree.internal_count, 4)).astype(np.float32)
        v = rng.normal(0, 0.5, size=4).astype(np.float32)
        before = -np.log(hs_probability(v, "t3", vocab, tree, nodes))
        hs_train_step(v, "t3", vocab, tree, nodes, 0.01)
        after = -np.log(hs_probability(v, "t3", vocab, tree, nodes))
        assert after < before

    def test_gradients_match_finite_differences(self):
        # Unit alpha turns the parameter deltas into the exact analytic
        # gradients; compare against central differences of -log p.
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            vocab, tree, nodes, v = random_instance(rng, max_vocab=16, max_dim=6)
            token = vocab.tokens[int(rng.integers(len(vocab)))]
            path = tree.paths[vocab.token_id(token)]
            if len(path) == 0:
                continue
            checked += 1
            v64 = v.astype(np.float64)
            n64 = nodes.astype(np.float64)
            v_new, n_new = v64.copy(), n64.copy()
            hs_train_step(v_new, token, vocab, tree, nodes=n_new, alpha=1.0)
            analytic_v = v64 - v_new
            analytic_n = n64 - n_new

            h = 1e-5

            def loss(vec, node_matrix):
                return -np.log(hs_probability(vec, token, vocab, tree, node_matrix))

            fd_v = np.zeros_like(v64)
            for i in range(len(v64)):
                up, down = v64.copy(), v64.copy()
                up[i] += h
                down[i] -= h
                fd_v[i] = (loss(up, n64) - loss(down, n64)) / (2 * h)
            err = np.linalg.norm(analytic_v - fd_v) / max(np.linalg.norm(fd_v), 1e-12)
            assert err <= 1e-4

            fd_n = np.zeros_like(n64)
            for j in path:
                for i in range(n64.shape[1]):
                    up, down = n64.copy(), n64.copy()
                    up[j, i] += h
                    down[j, i] -= h
                    fd_n[j, i] = (loss(v64, up) - loss(v64, down)) / (2 * h)
            err_n = np.linalg.norm(analytic_n - fd_n) / max(np.linalg.norm(fd_n), 1e-12)
            assert err_n <= 1e-4


class TestSigmoid:
    def test_symmetry(self):
        x = np.linspace(-40, 40, 201)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_extremes_stay_finite(self):
        assert 0.0 < sigmoid(-1e9)
        assert np.isfinite(np.log(sigmoid(-1e9)))
        assert sigmoid(1e9) == 1.0
