"""Synthetic ratings corpus shaped like MovieLens 1M.

ML1M itself cannot be shipped, so the benchmark generates a corpus with
its marginals: 3700 items, at least 20 ratings per user, heavy-tailed
activity with a mean of 165 ratings per user, Zipf-like item popularity
and a mean rating near 3.6. Latent taste structure is planted so that
the knn baseline and the hyperplane ranker have signal to find: items
belong to one of 24 genres, every user favours a few genres, rates
mostly inside them and rates those items higher.

The activity profile is fixed per size (exactly 165 ratings per user on
average, the same multiset of per-user counts for every seed), so corpora
of one size cost the pipeline nearly the same work whatever the seed; the
seed changes which users are heavy and what everyone rated. Output is a pure function of
(n_users, seed): the same arguments give byte-identical files.

Run as a script to write ``ratings.dat``:
``python3 perfbench/ml1m_corpus.py --users 6040 --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from statistics import NormalDist

import numpy as np

N_ITEMS = 3700
N_GENRES = 24
MIN_RATINGS = 20
MEAN_RATINGS = 165
MAX_RATINGS = 2300
ZIPF_EXPONENT = 0.9
ZIPF_OFFSET = 20.0
GENRE_BOOST = 12.0


def user_activity(n_users: int, rng: np.random.Generator) -> np.ndarray:
    """Ratings per user: 20 plus a lognormal tail, with a mean of exactly 165.

    The counts are the lognormal's quantiles at evenly spaced levels, so
    every seed gives the same multiset of counts; the seed only decides
    which user gets which count.
    """
    levels = (np.arange(n_users) + 0.5) / n_users
    normal = NormalDist()
    tail = np.exp(4.37 + 1.1 * np.array([normal.inv_cdf(q) for q in levels]))
    extra_total = (MEAN_RATINGS - MIN_RATINGS) * n_users
    extra = np.minimum(tail * extra_total / tail.sum(), MAX_RATINGS - MIN_RATINGS)
    counts = MIN_RATINGS + np.floor(extra).astype(np.int64)
    # Hand the rounding remainder to the heaviest users that still have room.
    shortfall = MEAN_RATINGS * n_users - int(counts.sum())
    while shortfall > 0:
        for u in range(n_users - 1, -1, -1):
            if shortfall == 0:
                break
            if counts[u] < MAX_RATINGS:
                counts[u] += 1
                shortfall -= 1
    return counts[rng.permutation(n_users)]


def generate_ratings(n_users: int, seed: int) -> list[str]:
    """Rating lines ``user::item::rating::timestamp`` in user order."""
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    rng = np.random.default_rng(seed)
    counts = user_activity(n_users, rng)

    # Zipf-like popularity over a random ranking of the items.
    rank = rng.permutation(N_ITEMS)
    log_pop = -ZIPF_EXPONENT * np.log(rank + ZIPF_OFFSET)
    genre = rng.integers(N_GENRES, size=N_ITEMS)
    quality = rng.normal(0.0, 0.45, size=N_ITEMS)
    # Popular items are somewhat better liked, as in ML1M.
    quality += 0.25 * (log_pop - log_pop.mean()) / log_pop.std()

    # As in ML1M every item is rated at least once: each item is handed to
    # one user, drawn in proportion to activity, who must rate it. A user
    # takes at most half of her ratings this way, so a corpus with fewer
    # than about two ratings per item leaves some items unrated.
    owner = rng.choice(n_users, size=N_ITEMS, p=counts / counts.sum())
    forced: list[list[int]] = [[] for _ in range(n_users)]
    for item, user in enumerate(owner.tolist()):
        if len(forced[user]) < counts[user] // 2:
            forced[user].append(item)

    lines: list[str] = []
    for user, n in enumerate(counts, start=1):
        n = int(n)
        favourites = rng.choice(N_GENRES, size=3, replace=False)
        affinity = np.zeros(N_GENRES)
        affinity[favourites] = rng.dirichlet(np.ones(3))
        in_taste = affinity[genre]
        # Weighted sampling without replacement by the Gumbel top-k trick.
        keys = log_pop + np.log1p(GENRE_BOOST * in_taste) + rng.gumbel(size=N_ITEMS)
        keys[forced[user - 1]] = np.inf
        chosen = np.argpartition(-keys, n - 1)[:n]
        chosen = chosen[rng.permutation(n)]

        bias = rng.normal(0.0, 0.35)
        score = 3.17 + bias + quality[chosen] + 1.6 * in_taste[chosen] + rng.normal(0.0, 0.9, size=n)
        ratings = np.clip(np.rint(score), 1, 5).astype(np.int64)
        stamps = 956_703_932 + user * 1_000 + np.cumsum(rng.integers(1, 4_000, size=n))
        lines.extend(
            f"{user}::{item + 1}::{rating}::{stamp}"
            for item, rating, stamp in zip(chosen.tolist(), ratings.tolist(), stamps.tolist())
        )
    return lines


def generate_ml1m_corpus(out_dir, n_users: int, seed: int) -> Path:
    """Write ``ratings.dat`` under out_dir and return its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "ratings.dat"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(generate_ratings(n_users, seed)) + "\n")
    return path


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=6040)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    cli = parser.parse_args()
    print(generate_ml1m_corpus(cli.out, cli.users, cli.seed))
