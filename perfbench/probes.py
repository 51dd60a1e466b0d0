"""Layer probes: each layer timed alone on a fixed, seeded sample.

The shapes are those of MovieLens 1M and the paper's tuned configuration,
and they do not depend on the workload, so every traced run reports them:

- vocabulary and Huffman tree over about 1M observation tokens from about
  12k ``user{u}_rating{1|2}`` tokens (the ML1M cf vocabulary);
- one hierarchical-softmax SGD step at d=32 and d=1000 on that tree;
- a 3700 x 1000 space saved and loaded as text;
- ``train_space`` on one pass over 20k observations at d=32, with one and
  with two workers;
- the per-user ranker at d=1000 with phi_t=5, phi_d=20, phi_i=10, on 16
  users of a 3700-item corpus; ``pair_stream`` also at phi_t=all; one
  hyperplane SGD step per pair at d=32 and d=1000.

``observations_s`` and ``build_vsm_s`` run on the workload's own training
events, since every workload has them.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from ml1m_corpus import N_ITEMS, generate_ratings, user_activity
from spacerank.corpus import RatingEvent, build_profiles, ratings_to_observations
from spacerank.hsoftmax import build_huffman, build_vocabulary, hs_train_step
from spacerank.ranker import (
    RankerConfig,
    build_preferences,
    derive_seed,
    pair_stream,
    recommend_topk,
    train_hyperplane,
)
from spacerank.spaces import (
    EmbeddingSpace,
    SpaceTrainConfig,
    build_vsm_space,
    load_space,
    save_space,
    train_space,
)

ML1M_USERS = 6040
HS_STEPS = {32: 3000, 1000: 1500}
HS_REPEATS = 5
RANKER_USERS = 16
PAIR_STREAM_ALL_USERS = 3
TRAIN_USERS = 120


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _events(lines: list[str]) -> list[RatingEvent]:
    out = []
    for line in lines:
        u, i, r, t = (int(p) for p in line.split("::"))
        out.append(RatingEvent(u, i, r, t))
    return out


def probe_hsoftmax(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    counts = user_activity(ML1M_USERS, rng)
    liked = rng.binomial(counts, 0.55)
    tokens = []
    for user, (n, n_liked) in enumerate(zip(counts.tolist(), liked.tolist()), start=1):
        tokens += [(0, f"user{user}_rating2")] * n_liked + [(0, f"user{user}_rating1")] * (n - n_liked)
    start = time.perf_counter()
    vocab = build_vocabulary(tokens)
    tree = build_huffman(vocab)
    out = {"hsoftmax.vocab_huffman_s": time.perf_counter() - start}

    # Steps follow token frequency, as training does.
    p = vocab.counts / vocab.counts.sum()
    sample = rng.choice(len(vocab), size=max(HS_STEPS.values()), p=p)
    out["hsoftmax.mean_path_len"] = float(np.mean([len(tree.paths[t]) for t in sample]))
    for d, steps in HS_STEPS.items():
        matrix = rng.uniform(-0.5 / d, 0.5 / d, size=(N_ITEMS, d)).astype(np.float32)
        nodes = rng.normal(0.0, 0.1, size=(tree.internal_count, d)).astype(np.float32)
        rows = rng.integers(N_ITEMS, size=steps)
        names = [vocab.tokens[t] for t in sample[:steps]]
        per_step = []
        for _ in range(HS_REPEATS):
            start = time.perf_counter()
            for row, token in zip(rows, names):
                hs_train_step(matrix[row], token, vocab, tree, nodes, 0.025)
            per_step.append((time.perf_counter() - start) / steps * 1e6)
        out[f"hsoftmax.step_us_d{d}"] = statistics.median(per_step)
    return out


def probe_space_io(seed: int, work_dir: Path) -> dict:
    rng = np.random.default_rng(seed)
    matrix = rng.normal(0.0, 0.05, size=(N_ITEMS, 1000)).astype(np.float32)
    space = EmbeddingSpace(1000, np.arange(1, N_ITEMS + 1), matrix, "cf")
    path = work_dir / "probe.space"
    save_s, _ = _timed(save_space, space, path)
    load_s, loaded = _timed(load_space, path)
    file_mb = path.stat().st_size / 1e6
    path.unlink()
    if loaded != space:
        raise AssertionError("space probe: load_space did not return the saved space")
    return {"spaces.save_space_s": save_s, "spaces.load_space_s": load_s, "spaces.file_mb": file_mb}


def probe_train_space(seed: int) -> dict:
    events = _events(generate_ratings(TRAIN_USERS, seed))
    observations = ratings_to_observations(events, build_profiles(events))
    out = {}
    for workers, name in ((1, "spaces.train_space_s"), (2, "spaces.train_space_w2_s")):
        config = SpaceTrainConfig(dimensions=32, iterations=1, seed=seed, workers=workers)
        out[name], _ = _timed(train_space, observations, config)
    out["spaces.steps_per_s"] = len(observations) / out["spaces.train_space_s"]
    return out


def probe_ranker(seed: int) -> dict:
    """The per-user path (preferences, pairs, hyperplane, top-k) at the paper's shape."""
    rng = np.random.default_rng(seed)
    events = _events(generate_ratings(RANKER_USERS, seed))
    item_ids = np.arange(1, N_ITEMS + 1)
    spaces = {
        d: EmbeddingSpace(d, item_ids, rng.normal(0.0, 0.05, size=(N_ITEMS, d)).astype(np.float32), "cf")
        for d in (32, 1000)
    }
    by_user: dict[int, list[RatingEvent]] = {}
    for e in events:
        by_user.setdefault(e.user_id, []).append(e)

    user_ms, stream_ms, topk_ms, pairs, kept, hyper_s = [], [], [], [], [], {32: 0.0, 1000: 0.0}
    for user, user_events in sorted(by_user.items()):
        config = RankerConfig(phi_i=10, phi_t=5, phi_d=20.0, seed=derive_seed(seed, user))
        start = time.perf_counter()
        triples = build_preferences(user_events, spaces[1000], config.phi_t)
        stream_s, stream = _timed(pair_stream, triples, config.phi_i, config.phi_d, config.seed)
        train_s, model = _timed(train_hyperplane, stream, spaces[1000], config, user)
        rated = {e.item_id for e in user_events}
        top_s, _ = _timed(recommend_topk, model, spaces[1000], rated, 10)
        user_ms.append((time.perf_counter() - start) * 1e3)
        stream_ms.append(stream_s * 1e3)
        topk_ms.append(top_s * 1e3)
        hyper_s[1000] += train_s
        hyper_s[32] += _timed(train_hyperplane, stream, spaces[32], config, user)[0]
        levels = [sum(1 for t in triples if t.level == v) for v in (0, 1, 2)]
        pairs.append(len(stream))
        kept.append(len(stream) / (config.phi_i * (levels[1] * levels[2] + levels[0] * (levels[1] + levels[2]))))

    all_ms = []
    # Users nearest the ML1M mean activity of 165 ratings.
    typical = sorted(by_user, key=lambda u: (abs(len(by_user[u]) - 165), u))[:PAIR_STREAM_ALL_USERS]
    for user in typical:
        triples = build_preferences(by_user[user], spaces[1000], "all")
        all_ms.append(_timed(pair_stream, triples, 10, 20.0, derive_seed(seed, user))[0] * 1e3)

    total_pairs = sum(pairs)
    return {
        "ranker.user_ms": statistics.median(user_ms),
        "ranker.pair_stream_ms": statistics.median(stream_ms),
        "ranker.pair_stream_all_ms": statistics.median(all_ms),
        "ranker.hyperplane_us_per_pair": hyper_s[1000] / total_pairs * 1e6,
        "ranker.hyperplane_us_per_pair_d32": hyper_s[32] / total_pairs * 1e6,
        "ranker.topk_ms": statistics.median(topk_ms),
        "ranker.pairs_per_user": statistics.median(pairs),
        "ranker.pairs_kept_ratio": statistics.median(kept),
    }


def probe_own_events(events: list[RatingEvent]) -> dict:
    """Layers every workload could run, timed on the workload's own training events."""
    profiles_s, profiles = _timed(build_profiles, events)
    obs_s, _ = _timed(ratings_to_observations, events, profiles)
    vsm_s, _ = _timed(build_vsm_space, events, profiles)
    return {"corpus.observations_s": profiles_s + obs_s, "spaces.build_vsm_s": vsm_s}


def run_probes(seed: int, work_dir: Path, training_events: list[RatingEvent]) -> dict:
    out = {}
    out.update(probe_own_events(training_events))
    out.update(probe_hsoftmax(seed))
    out.update(probe_space_io(seed, work_dir))
    out.update(probe_train_space(seed))
    out.update(probe_ranker(seed))
    return out
