"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail listing (add -s to see the printed summary lines). Criteria 6-9
need the MovieLens 1M ratings file (see conftest.ML1M_RATINGS) and skip
without it; 8 and 9 additionally want SPACERANK_RUN_FULL=1 since they
train the full-size spaces.
"""

import os
import time
from itertools import product
from unittest import mock

import numpy as np
import pytest

from conftest import ML1M_RATINGS, requires_full_run, requires_ml1m
from spacerank import native
from spacerank.baselines import build_popularity, popularity_topk
from spacerank.cli import main
from spacerank.corpus import Observation, RatingEvent, load_ratings
from spacerank.evaluate import ContingencyTable, load_results, contingency, mcnemar_one_tailed
from spacerank.hsoftmax import build_huffman, build_vocabulary, hs_probability, hs_train_step
from spacerank.ranker import (
    HyperplaneModel,
    RankerConfig,
    build_preferences,
    pair_stream,
    recommend_topk,
    score_items,
    train_hyperplane,
)
from spacerank.spaces import EmbeddingSpace
from spacerank.splits import build_split, mark_counts
from spacerank.splits import test_targets as targets_of
from test_hsoftmax import min_prefix_code_cost, random_instance
from test_native import kernel_step


def native_step():
    if native.kernels()[0] is None:
        pytest.skip("no C compiler: the kernel path cannot be built")
    return kernel_step


def report(number, name, detail=""):
    print(f"ACCEPTANCE {number:02d} {name}: PASS {detail}".rstrip())


def check_hs_normalization(step=None):
    """Criterion 1; with `step`, after five SGD steps of that path on each instance."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        vocab, tree, nodes, v = random_instance(rng, max_vocab=64, max_dim=16)
        if step is not None:
            for token in rng.choice(vocab.tokens, size=5):
                step(v, token, vocab, tree, nodes, 0.5)
        total = sum(hs_probability(v, t, vocab, tree, nodes) for t in vocab.tokens)
        worst = max(worst, abs(total - 1.0))
        assert abs(total - 1.0) <= 1e-9
    return worst


def check_gradient_oracle(step, dtype):
    """Criterion 2 for one SGD step implementation, on copies of type `dtype`."""
    rng = np.random.default_rng(55)
    h = 1e-5
    checked = 0
    while checked < 100:
        vocab, tree, nodes, v = random_instance(rng, max_vocab=32, max_dim=8)
        token = vocab.tokens[int(rng.integers(len(vocab)))]
        path = tree.paths[vocab.token_id(token)]
        if len(path) == 0:
            continue
        checked += 1
        v64, n64 = v.astype(np.float64), nodes.astype(np.float64)
        v_new, n_new = v.astype(dtype), nodes.astype(dtype)
        step(v_new, token, vocab, tree, n_new, 1.0)
        analytic = np.concatenate([(v64 - v_new), (n64 - n_new)[path].ravel()])

        def loss(vec, node_matrix):
            return -np.log(hs_probability(vec, token, vocab, tree, node_matrix))

        fd = []
        for i in range(len(v64)):
            up, down = v64.copy(), v64.copy()
            up[i] += h
            down[i] -= h
            fd.append((loss(up, n64) - loss(down, n64)) / (2 * h))
        for j in path:
            for i in range(n64.shape[1]):
                up, down = n64.copy(), n64.copy()
                up[j, i] += h
                down[j, i] -= h
                fd.append((loss(v64, up) - loss(v64, down)) / (2 * h))
        fd = np.array(fd)
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        assert err <= 1e-4
    return checked


def test_criterion_01_hs_normalization():
    worst = check_hs_normalization()
    report(1, "hierarchical-softmax normalization", f"(worst |sum-1| = {worst:.2e})")


@pytest.mark.parametrize("path", ["numpy", "native"])
def test_criterion_01_hs_normalization_after_training(path):
    worst = check_hs_normalization(hs_train_step if path == "numpy" else native_step())
    report(1, f"normalization after {path} steps", f"(worst |sum-1| = {worst:.2e})")


def test_criterion_02_gradient_oracle():
    checked = check_gradient_oracle(hs_train_step, np.float64)
    report(2, "gradient matches finite differences", f"({checked} instances)")


def test_criterion_02_gradient_oracle_native():
    checked = check_gradient_oracle(native_step(), np.float32)
    report(2, "native step gradient matches finite differences", f"({checked} instances)")


def test_criterion_03_huffman_oracle():
    rng = np.random.default_rng(7)
    for _ in range(500):
        size = int(rng.integers(1, 9))
        freqs = [int(rng.integers(1, 6)) for _ in range(size)]
        obs = [Observation(1, f"t{i}") for i, f in enumerate(freqs) for _ in range(f)]
        vocab = build_vocabulary(obs)
        tree = build_huffman(vocab)
        cost = sum(int(vocab.counts[i]) * len(tree.codes[i]) for i in range(len(vocab)))
        assert cost == min_prefix_code_cost(tuple(sorted(freqs)))
    report(3, "Huffman codes are brute-force optimal", "(500 cases, size <= 8)")


def test_criterion_04_mcnemar_oracle():
    # Enumerate every discordant assignment once per n, bucket by the
    # number of A-favouring outcomes, and compare every (n10, n01) table.
    for n in range(1, 17):
        wins_histogram = [0] * (n + 1)
        for bits in product((0, 1), repeat=n):
            wins_histogram[sum(bits)] += 1
        for n10 in range(0, n + 1):
            brute = sum(wins_histogram[n10:]) / 2**n
            exact = mcnemar_one_tailed(ContingencyTable(3, n - n10, n10, 2))
            assert exact == brute
    report(4, "McNemar equals brute-force enumeration", "(all tables, n01+n10 <= 16)")


def check_ranker_separability():
    """Criterion 5 on whichever hyperplane path `native.kernels` selects."""
    rng = np.random.default_rng(12)
    d, n_items, n_liked = 20, 100, 12
    matrix = rng.normal(0, 0.4, size=(n_items, d)).astype(np.float32)
    matrix[:n_liked, 3] = 2.0 + rng.random(n_liked)
    matrix[n_liked:, 3] = -2.0 - rng.random(n_items - n_liked)
    space = EmbeddingSpace(d, list(range(1, n_items + 1)), matrix)
    liked = list(range(1, n_liked + 1))
    events = [RatingEvent(1, i, 5, i) for i in liked]

    config = RankerConfig(phi_i=50, phi_t="all", phi_d=1.0, alpha0=0.025, seed=90)
    triples = build_preferences(events, space, config.phi_t)
    pairs = pair_stream(triples, config.phi_i, config.phi_d, config.seed)
    model = train_hyperplane(pairs, space, config, user_id=1)
    scores = score_items(model, space)
    ordered = sum(
        1
        for unliked in range(n_liked + 1, n_items + 1)
        for good in liked
        if scores[good] > scores[unliked]
    )
    accuracy = ordered / (n_liked * (n_items - n_liked))
    assert accuracy == 1.0

    base = recommend_topk(model, space, set(liked), 10)
    for c in (1e-6, 0.5, 3.0, 1e6):
        scaled = HyperplaneModel(1, c * model.w)
        assert recommend_topk(scaled, space, set(liked), 10) == base
    return accuracy


def test_criterion_05_ranker_separability():
    with mock.patch.object(native, "kernels", lambda: (None, "numpy")):
        accuracy = check_ranker_separability()
    report(5, "ranker separability and scale invariance", f"(accuracy {accuracy:.2f})")


def test_criterion_05_ranker_separability_native():
    native_step()  # skips without a compiler
    accuracy = check_ranker_separability()
    report(5, "native ranker separability and scale invariance", f"(accuracy {accuracy:.2f})")


@pytest.fixture(scope="module")
def ml1m_events():
    return load_ratings(ML1M_RATINGS)


@pytest.fixture(scope="module")
def ml1m_split(ml1m_events):
    return build_split(ml1m_events, mark_counts(ml1m_events))


@requires_ml1m
def test_criterion_06_ml1m_split_statistics(ml1m_events, ml1m_split):
    assert len(ml1m_events) == 1_000_209
    held = len(ml1m_split.validation) + len(ml1m_split.test)
    assert held == len(ml1m_events) // 25 == 40_008
    targets = targets_of(ml1m_split, ml1m_events)
    assert 9_500 <= len(targets) <= 10_500, f"{len(targets)} targets outside 10k +-5%"
    report(6, "ML1M split statistics", f"(held-out {held}, targets {len(targets)})")


@requires_ml1m
def test_criterion_07_ml1m_popularity_recall(ml1m_events, ml1m_split):
    train = [e for e in ml1m_events if (e.user_id, e.item_id) not in ml1m_split.test]
    rated = {}
    for e in train:
        rated.setdefault(e.user_id, set()).add(e.item_id)
    model = build_popularity(train)
    targets = targets_of(ml1m_split, ml1m_events)
    hits = total = 0
    cache = {}
    for user, item in targets:
        if user not in rated:
            continue
        if user not in cache:
            cache[user] = popularity_topk(model, rated[user], 10)
        total += 1
        hits += item in cache[user]
    recall = hits / total
    assert abs(recall - 0.053) <= 0.010, f"popularity recall {recall:.4f} outside 0.053 +- 0.010"
    report(7, "ML1M popularity baseline", f"(recall@10 = {recall:.4f})")


def _run_ml1m_ds(tmp_path, dims, out_name, mode="cf"):
    workers = str(os.cpu_count() or 1)
    split_dir = tmp_path / "split"
    code = main(["split", "--ratings", str(ML1M_RATINGS), "--out", str(split_dir)])
    assert code == 0
    split = split_dir / "split.tsv"
    space = tmp_path / f"{out_name}.space"
    args = [
        "train-space", "--mode", mode, "--ratings", str(ML1M_RATINGS),
        "--split", str(split), "--holdout", "test", "--iters", "20",
        "--seed", "1", "--workers", workers, "--out", str(space),
    ]
    if mode != "vsm":
        args += ["--dims", str(dims)]
    assert main(args) == 0
    results = tmp_path / f"{out_name}.results"
    code = main([
        "evaluate", "--system", "ds", "--space", str(space), "--ratings", str(ML1M_RATINGS),
        "--split", str(split), "--holdout", "test", "--workers", workers,
        "--out", str(results),
    ])
    assert code == 0
    pop_results = tmp_path / f"pop_{out_name}.results"
    code = main([
        "evaluate", "--system", "pop", "--ratings", str(ML1M_RATINGS),
        "--split", str(split), "--out", str(pop_results),
    ])
    assert code == 0
    return load_results(results), load_results(pop_results)


@requires_ml1m
@requires_full_run
def test_criterion_08_ml1m_ds_cf_1k(tmp_path):
    ds, pop = _run_ml1m_ds(tmp_path, dims=1000, out_name="ds_cf_1k")
    recall = sum(r.hit for r in ds) / len(ds)
    assert recall >= 0.13, f"DS-CF-1k recall {recall:.4f} below the 0.13 floor"
    if abs(recall - 0.151) > 0.015:
        print(f"note: DS-CF-1k recall {recall:.4f} outside the 0.151 +- 0.015 target band")
    table = contingency(ds, pop)
    p = mcnemar_one_tailed(table)
    assert p < 0.001, f"DS-CF-1k vs popularity p = {p:.2e} not < 0.001"
    report(8, "ML1M DS-CF-1k", f"(recall@10 = {recall:.4f}, p = {p:.2e})")


@requires_ml1m
@requires_full_run
def test_criterion_09_ml1m_informational_variants(tmp_path):
    """Non-gating reproductions: report deviations, fail only on breakage."""
    vsm, _ = _run_ml1m_ds(tmp_path, dims=0, out_name="ds_vsm", mode="vsm")
    recall_vsm = sum(r.hit for r in vsm) / len(vsm)
    cf500, _ = _run_ml1m_ds(tmp_path, dims=500, out_name="ds_cf_500")
    recall_500 = sum(r.hit for r in cf500) / len(cf500)
    for name, value, target in (("DS-VSM", recall_vsm, 0.119), ("DS-CF-500", recall_500, 0.144)):
        if abs(value - target) > 0.02:
            print(f"note: {name} recall {value:.4f} deviates from {target} by > 0.02; investigate")
    report(9, "ML1M informational variants",
           f"(DS-VSM {recall_vsm:.4f} vs 0.119, DS-CF-500 {recall_500:.4f} vs 0.144)")


def test_criterion_10_end_to_end_smoke(mini_corpus, tmp_path):
    ratings, reviews = mini_corpus
    started = time.monotonic()

    out = tmp_path / "out"
    assert main(["split", "--ratings", str(ratings), "--out", str(out)]) == 0
    split = out / "split.tsv"

    spaces = {}
    for mode, dims in (("cf", "32"), ("cb", "32"), ("vsm", None)):
        path = out / f"{mode}.space"
        args = [
            "train-space", "--mode", mode, "--ratings", str(ratings), "--split", str(split),
            "--seed", "5", "--workers", "1", "--out", str(path),
        ]
        if dims:
            args += ["--dims", dims]
        if mode == "cb":
            args += ["--reviews", str(reviews)]
        assert main(args) == 0
        spaces[mode] = path

    ds_results = out / "ds.results"
    assert main([
        "evaluate", "--system", "ds", "--space", str(spaces["cf"]), "--ratings", str(ratings),
        "--split", str(split), "--phi-t", "all", "--phi-d", "5", "--out", str(ds_results),
    ]) == 0
    pop_results = out / "pop.results"
    assert main([
        "evaluate", "--system", "pop", "--ratings", str(ratings),
        "--split", str(split), "--out", str(pop_results),
    ]) == 0
    assert main(["mcnemar", str(ds_results), str(pop_results)]) == 0

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s, budget is 60s"

    # workers=1 determinism: re-running the stochastic stages reproduces
    # the artifacts byte for byte.
    again = tmp_path / "again"
    again.mkdir()
    cf2 = again / "cf.space"
    assert main([
        "train-space", "--mode", "cf", "--ratings", str(ratings), "--split", str(split),
        "--dims", "32", "--seed", "5", "--workers", "1", "--out", str(cf2),
    ]) == 0
    assert cf2.read_bytes() == spaces["cf"].read_bytes()
    ds2 = again / "ds.results"
    assert main([
        "evaluate", "--system", "ds", "--space", str(cf2), "--ratings", str(ratings),
        "--split", str(split), "--phi-t", "all", "--phi-d", "5", "--out", str(ds2),
    ]) == 0
    assert ds2.read_bytes() == ds_results.read_bytes()
    report(10, "end-to-end smoke", f"({elapsed:.1f}s, deterministic)")
