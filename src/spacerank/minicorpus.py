"""Deterministic synthetic mini-corpus for smoke tests and demos.

200 users, 300 items, roughly 8k ratings, plus a short synthetic review
per item. Items carry two levels of structure: 18 fine taste clusters
that drive who rates and likes what, and 6 coarse genres (cluster mod 6)
that drive the review vocabulary. Users pick two favourite clusters
(some clusters are fashionable, so popularity is informative), rate
mostly inside them and like what they rate there. Rating-based spaces
can therefore learn finer structure than review-based ones, and every
system in the pipeline has something real to find while the whole run
stays in the seconds range.
"""

from __future__ import annotations

from bisect import bisect_right
from pathlib import Path

import numpy as np

N_USERS = 200
N_ITEMS = 300
N_CLUSTERS = 18
RATINGS_PER_USER = 40

_GENRE_WORDS = (
    "laser starship nebula android galaxy warp".split(),
    "sword castle dragon prophecy quest throne".split(),
    "detective alibi suspect cipher heist verdict".split(),
    "romance letters meadow waltz promise vows".split(),
    "frontier canyon outlaw saloon stampede dust".split(),
    "specimen abyss contagion ritual shadows dread".split(),
)
_SHARED_WORDS = "the a film story great plot scene acting ending watch".split()


def _cdf(p) -> list[float]:
    # The cdf Generator.choice(values, p=p) builds on every call. Its draw,
    # values[cdf.searchsorted(rng.random(), side="right")], is
    # values[bisect_right(cdf, rng.random())] on the same list.
    cdf = np.cumsum(p)
    return (cdf / cdf[-1]).tolist()


# (values, cdf) of a user's rating of an item in a liked cluster (True) or in
# any other (False).
_RATING_DRAWS = {True: ((3, 4, 5), _cdf((0.1, 0.4, 0.5))),
                 False: ((1, 2, 3, 4), _cdf((0.25, 0.35, 0.3, 0.1)))}


def _cluster_appeal() -> np.ndarray:
    # Geometric falloff: a few fashionable clusters, a long unpopular tail.
    w = 0.85 ** np.arange(N_CLUSTERS)
    return w / w.sum()


def generate_minicorpus(out_dir, seed: int = 7) -> tuple[Path, Path]:
    """Write ratings.dat and reviews.tsv under out_dir; returns their paths.

    Output is a pure function of the seed: identical bytes on every call.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    cluster_of_item = np.arange(N_ITEMS) % N_CLUSTERS
    items_in = [np.flatnonzero(cluster_of_item == c) for c in range(N_CLUSTERS)]
    appeal = _cluster_appeal()

    lines = []
    for user in range(1, N_USERS + 1):
        liked = rng.choice(N_CLUSTERS, size=2, replace=False, p=appeal)
        liked_pool = np.concatenate([items_in[c] for c in liked])
        liked_cluster = np.zeros(N_CLUSTERS, dtype=bool)
        liked_cluster[liked] = True
        other_pool = np.flatnonzero(~liked_cluster[cluster_of_item])

        n_ratings = int(rng.integers(RATINGS_PER_USER - 8, RATINGS_PER_USER + 9))
        n_liked = min(int(round(n_ratings * 0.6)), len(liked_pool) - 4)
        chosen = np.concatenate([
            rng.choice(liked_pool, size=n_liked, replace=False),
            rng.choice(other_pool, size=n_ratings - n_liked, replace=False),
        ])
        chosen = chosen[rng.permutation(n_ratings)]

        timestamp = 1_000_000_000 + user * 100_000
        for item, in_liked in zip(chosen.tolist(), liked_cluster[cluster_of_item[chosen]].tolist()):
            values, cdf = _RATING_DRAWS[in_liked]
            rating = values[bisect_right(cdf, rng.random())]
            timestamp += int(rng.integers(60, 6_000))
            lines.append(f"{user}::{item + 1}::{rating}::{timestamp}")

    ratings_path = out_dir / "ratings.dat"
    ratings_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

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

    reviews_path = out_dir / "reviews.tsv"
    reviews_path.write_text("\n".join(review_lines) + "\n", encoding="utf-8", newline="\n")
    return ratings_path, reviews_path
