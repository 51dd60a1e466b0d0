"""The bundled mini corpus: pinned bytes, and the generator against its reference."""

import hashlib

import numpy as np
import pytest

from spacerank.minicorpus import (
    _GENRE_WORDS,
    _SHARED_WORDS,
    N_CLUSTERS,
    N_ITEMS,
    N_USERS,
    RATINGS_PER_USER,
    _cluster_appeal,
    generate_minicorpus,
)

# sha256 of the bundled corpus at the generator's default seed (7).
PINNED = {
    "ratings.dat": "bc29a6bbe5df6f8d397be62e666d697ce8a15f432de1a6b7a88fc39b7f9f9782",
    "reviews.tsv": "2807cbde7eef7194b0ccb0d438a194434858b7eea607e1e5fe9db6dee4bbe437",
}


def reference_minicorpus(seed: int) -> tuple[bytes, bytes]:
    """The generator's one-draw-at-a-time loop: a scalar ``rng.choice`` per
    rating, ``np.setdiff1d`` for the other pool and a per-rating liked test.
    Returns the bytes of ratings.dat and reviews.tsv."""
    rng = np.random.default_rng(seed)

    cluster_of_item = np.arange(N_ITEMS) % N_CLUSTERS
    items_in = [np.flatnonzero(cluster_of_item == c) for c in range(N_CLUSTERS)]
    appeal = _cluster_appeal()

    lines = []
    for user in range(1, N_USERS + 1):
        liked = rng.choice(N_CLUSTERS, size=2, replace=False, p=appeal)
        liked_pool = np.concatenate([items_in[c] for c in liked])
        other_pool = np.setdiff1d(np.arange(N_ITEMS), liked_pool)

        n_ratings = int(rng.integers(RATINGS_PER_USER - 8, RATINGS_PER_USER + 9))
        n_liked = min(int(round(n_ratings * 0.6)), len(liked_pool) - 4)
        chosen = np.concatenate([
            rng.choice(liked_pool, size=n_liked, replace=False),
            rng.choice(other_pool, size=n_ratings - n_liked, replace=False),
        ])
        chosen = chosen[rng.permutation(n_ratings)]

        timestamp = 1_000_000_000 + user * 100_000
        for item in chosen:
            if cluster_of_item[item] in liked:
                rating = int(rng.choice((3, 4, 5), p=(0.1, 0.4, 0.5)))
            else:
                rating = int(rng.choice((1, 2, 3, 4), p=(0.25, 0.35, 0.3, 0.1)))
            timestamp += int(rng.integers(60, 6_000))
            lines.append(f"{user}::{int(item) + 1}::{rating}::{timestamp}")

    review_lines = []
    for item in range(N_ITEMS):
        genre = cluster_of_item[item] % len(_GENRE_WORDS)
        words = list(_GENRE_WORDS[genre])
        picks = rng.choice(len(_SHARED_WORDS), size=12)
        words += [_SHARED_WORDS[p] for p in picks]
        words += [_GENRE_WORDS[genre][int(rng.integers(6))] for _ in range(6)]
        order = rng.permutation(len(words))
        text = " ".join(words[i] for i in order)
        review_lines.append(f"{item + 1}\t{text.capitalize()}.")

    return (("\n".join(lines) + "\n").encode("utf-8"),
            ("\n".join(review_lines) + "\n").encode("utf-8"))


def test_bundled_corpus_bytes_are_pinned(mini_corpus):
    for path in mini_corpus:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[path.name]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 7])
def test_generator_matches_reference(tmp_path, seed):
    ratings, reviews = generate_minicorpus(tmp_path, seed)
    assert (ratings.read_bytes(), reviews.read_bytes()) == reference_minicorpus(seed)
