"""The compiled passes against their numpy references, and how they are built and loaded.

The HS reference is the Python pass loop over `hs_train_step` that
`train_space` runs without a compiler. The kernel sums dot products in
another order, so it is held to a float32 tolerance: every matrix and node
entry within 1e-5 of the reference, relative to the largest magnitude in
that reference array. The hyperplane kernel and `train_hyperplane`'s
numpy loop, which runs without a compiler, are both held to 1e-12 relative
of the per-pair oracle of test_ranker, and to each other; the kernel also
equals, bit for bit, a Python transcription that sums in its order. The HS
fallback must equal its reference bit for bit.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spacerank
from spacerank import cli, native, spaces
from spacerank.cli import main
from spacerank.corpus import Observation, build_profiles, load_ratings, ratings_to_observations
from spacerank.hsoftmax import build_huffman, build_vocabulary, hs_train_step, new_node_matrix
from spacerank.ranker import RankerConfig, train_hyperplane
from spacerank.spaces import ALPHA_FLOOR, EmbeddingSpace, SpaceTrainConfig, load_space, train_space
from test_ranker import reference_hyperplane
from test_spaces import shared_token_corpus, train_space_and_nodes

TOLERANCE = 1e-5

requires_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """An empty kernel cache directory and no kernel loaded yet in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    native.kernels.cache_clear()
    yield tmp_path / "cache" / "spacerank"
    native.kernels.cache_clear()


def no_compiler(monkeypatch, tmp_path):
    empty = tmp_path / "empty-path"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))


def kernel_step(v, token, vocab, tree, nodes, alpha):
    """`hs_train_step`'s signature, through the kernel: one observation at rate alpha."""
    kernel = native.kernels()[0].hs_pass
    zero, token_id = np.zeros(1, np.int64), np.array([vocab.token_id(token)], np.int32)
    grad = np.empty(len(v), np.float32)
    kernel(v[None, :], nodes, len(v), zero, 0, 1, zero, token_id, *native.flat_paths(tree),
           0, 1, alpha, alpha, grad)


def reference_shard(matrix, nodes, perm, shard, rows, tokens, vocab, tree, pass_base, total_steps, alpha0):
    """The pass loop `train_space` runs without a compiler."""
    for k in range(*shard):
        i = perm[k]
        alpha = max(alpha0 * (1.0 - (pass_base + k) / total_steps), alpha0 * ALPHA_FLOOR)
        hs_train_step(matrix[rows[i]], tokens[i], vocab, tree, nodes, alpha)


def reference_train_space(observations, config):
    """`train_space` at workers=1 written out with `reference_shard`."""
    vocab = build_vocabulary(observations)
    tree = build_huffman(vocab)
    item_ids = sorted({o.item_id for o in observations})
    rows = [item_ids.index(o.item_id) for o in observations]
    tokens = [o.token for o in observations]
    d, n = config.dimensions, len(observations)
    rng = np.random.default_rng(config.seed)
    matrix = rng.uniform(-0.5 / d, 0.5 / d, size=(len(item_ids), d)).astype(np.float32)
    nodes = new_node_matrix(tree, d)
    for iteration in range(config.iterations):
        perm = rng.permutation(n)
        reference_shard(matrix, nodes, perm, (0, n), rows, tokens, vocab, tree,
                        iteration * n, config.iterations * n, config.alpha0)
    return matrix, nodes


def assert_close(actual, reference):
    scale = max(float(np.abs(reference).max(initial=0.0)), np.finfo(np.float32).tiny)
    np.testing.assert_allclose(actual, reference, rtol=TOLERANCE, atol=TOLERANCE * scale)


# -- the kernel against the reference ------------------------------------------


@requires_cc
@given(
    vocab_size=st.one_of(st.just(1), st.just(2), st.integers(3, 40)),
    d=st.integers(1, 64),
    n_items=st.integers(1, 6),
    extra=st.integers(0, 40),
    passes=st.integers(1, 3),
    shards=st.integers(1, 4),
    alpha0=st.floats(0.001, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference_pass_for_pass(vocab_size, d, n_items, extra, passes, shards, alpha0, seed):
    rng = np.random.default_rng(seed)
    token_ids = np.concatenate([np.arange(vocab_size), rng.integers(vocab_size, size=extra)])
    observations = [Observation(int(rng.integers(n_items)), f"t{t}") for t in token_ids]
    vocab = build_vocabulary(observations)
    tree = build_huffman(vocab)
    assert len(vocab) == vocab_size
    rows = np.array([o.item_id for o in observations], dtype=np.int64)
    tokens = [o.token for o in observations]
    ids = np.array([vocab.token_id(t) for t in tokens], dtype=np.int32)
    paths = native.flat_paths(tree)
    kernel = native.kernels()[0].hs_pass

    matrix = rng.uniform(-0.5 / d, 0.5 / d, size=(n_items, d)).astype(np.float32)
    nodes = new_node_matrix(tree, d)
    ref_matrix, ref_nodes = matrix.copy(), nodes.copy()
    n = len(observations)
    edges = np.linspace(0, n, shards + 1, dtype=int).tolist()
    for iteration in range(passes):
        perm = rng.permutation(n)
        for shard in zip(edges[:-1], edges[1:]):
            kernel(matrix, nodes, d, perm, *shard, rows, ids, *paths, iteration * n, passes * n,
                   alpha0, alpha0 * ALPHA_FLOOR, np.empty(d, np.float32))
            reference_shard(ref_matrix, ref_nodes, perm, shard, rows, tokens, vocab, tree,
                            iteration * n, passes * n, alpha0)
        assert_close(matrix, ref_matrix)
        assert_close(nodes, ref_nodes)


@requires_cc
def test_kernel_floors_the_rate_like_the_reference():
    # The last steps of a long schedule fall below the floor alpha0 * ALPHA_FLOOR.
    rng = np.random.default_rng(4)
    observations = [Observation(i % 3, f"t{i % 10}") for i in range(30)]
    vocab = build_vocabulary(observations)
    tree = build_huffman(vocab)
    rows = np.array([o.item_id for o in observations], dtype=np.int64)
    tokens = [o.token for o in observations]
    ids = np.array([vocab.token_id(t) for t in tokens], dtype=np.int32)
    matrix = rng.normal(0, 0.5, size=(3, 4)).astype(np.float32)
    nodes = rng.normal(0, 0.5, size=(tree.internal_count, 4)).astype(np.float32)
    ref_matrix, ref_nodes = matrix.copy(), nodes.copy()
    perm, total, alpha0 = rng.permutation(30), 10**7, 50.0
    native.kernels()[0].hs_pass(matrix, nodes, 4, perm, 0, 30, rows, ids, *native.flat_paths(tree),
                                total - 30, total, alpha0, alpha0 * ALPHA_FLOOR, np.empty(4, np.float32))
    reference_shard(ref_matrix, ref_nodes, perm, (0, 30), rows, tokens, vocab, tree, total - 30, total, alpha0)
    assert_close(matrix, ref_matrix)
    assert_close(nodes, ref_nodes)


@requires_cc
def test_native_path_used_when_cc_exists(pipeline):
    library, description = native.kernels()
    assert library is not None
    assert description["compiler"] == shutil.which("cc")
    assert description["flags"] == list(native.FLAGS)
    events = load_ratings(pipeline["ratings"])
    observations = ratings_to_observations(events, build_profiles(events))
    config = SpaceTrainConfig(16, iterations=2, seed=3)
    with mock.patch.object(spaces, "hs_train_step", side_effect=AssertionError("the numpy step ran")):
        space, trained_nodes = train_space_and_nodes(observations, config)
    matrix, nodes = reference_train_space(observations, config)
    assert_close(space.matrix, matrix)
    assert_close(trained_nodes, nodes)


# -- fallback, cache and packaging ---------------------------------------------


def test_no_compiler_warns_once_and_matches_reference(fresh_loader, monkeypatch, tmp_path):
    no_compiler(monkeypatch, tmp_path)
    config = SpaceTrainConfig(8, iterations=5, seed=11)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first, first_nodes = train_space_and_nodes(shared_token_corpus(), config)
        second = train_space(shared_token_corpus(), config)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert native.kernels() == (None, "numpy") and first == second
    matrix, nodes = reference_train_space(shared_token_corpus(), config)
    assert np.array_equal(first.matrix, matrix) and np.array_equal(first_nodes, nodes)
    assert not fresh_loader.exists()


def test_failing_compiler_falls_back(fresh_loader, monkeypatch, tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text("#!/bin/sh\nexit 1\n")
    (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    with pytest.warns(RuntimeWarning, match="CalledProcessError"):
        assert native.kernels() == (None, "numpy")
    assert list(fresh_loader.iterdir()) == []


def built_library(cache_root: Path, monkeypatch) -> Path:
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_root))
    native.kernels.cache_clear()
    assert native.kernels()[0] is not None
    (library,) = (cache_root / "spacerank").iterdir()
    return library


@requires_cc
@pytest.mark.parametrize("damage", ["truncated", "garbage", "no checksum"])
def test_damaged_cached_library_is_rebuilt(fresh_loader, monkeypatch, tmp_path, damage):
    good = built_library(tmp_path / "first", monkeypatch)
    fresh_loader.mkdir(parents=True)
    damaged = fresh_loader / good.name
    if damage == "truncated":  # loading it would crash the process
        damaged.write_bytes(good.read_bytes()[: good.stat().st_size // 2])
    elif damage == "garbage":
        damaged.write_bytes(b"\x7fELF" + bytes(range(256)) * 8)
    else:  # a loadable library, but not one the loader wrote
        damaged.write_bytes(good.read_bytes()[:-32])
    monkeypatch.setenv("XDG_CACHE_HOME", str(fresh_loader.parent))
    native.kernels.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = SpaceTrainConfig(8, iterations=5, seed=11)
        space = train_space(shared_token_corpus(), config)
    assert native.kernels()[0] is not None
    assert_close(space.matrix, reference_train_space(shared_token_corpus(), config)[0])
    assert damaged.read_bytes() == good.read_bytes()


@requires_cc
def test_unwritable_cache_builds_privately(fresh_loader, monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.kernels()[0] is not None


def test_kernel_source_ships_with_the_package():
    source = resources.files("spacerank").joinpath("_kernels.c")
    assert source.is_file()
    text = source.read_text(encoding="utf-8")
    assert "void hs_pass(" in text and "void hyperplane_pass(" in text


def test_other_commands_never_build_or_load_the_kernel(pipeline, tmp_path):
    out, common = tmp_path, ["--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"])]
    never = [
        ["split", "--ratings", str(pipeline["ratings"]), "--out", str(out / "split")],
        ["train-space", "--mode", "vsm", *common, "--out", str(out / "vsm.space")],
        ["evaluate", "--system", "pop", *common, "--out", str(out / "pop.results")],
        ["evaluate", "--system", "knn", *common, "--out", str(out / "knn.results")],
        ["mcnemar", str(out / "knn.results"), str(out / "pop.results")],
    ]
    ranking = [
        ["evaluate", "--system", "ds", "--space", str(pipeline["space"]), *common,
         "--out", str(out / "ds.results")],
        ["recommend", "--space", str(pipeline["space"]), *common, "--user", "1"],
    ]
    script = (
        "import json, sys\n"
        "from spacerank import native\n"
        "from spacerank.cli import main\n"
        "def run(commands):\n"
        "    codes = [main(argv) for argv in commands]\n"
        "    return [codes, 'subprocess' in sys.modules, native.kernels.cache_info().currsize]\n"
        f"print(json.dumps([run({never!r}), run({ranking!r})]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(spacerank.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    (codes, imported, loaded), (ranking_codes, _, ranking_loaded) = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * 5 and ranking_codes == [0, 0]
    assert not imported and loaded == 0
    assert ranking_loaded == 1


def test_manifest_pins_the_kernel_path(fresh_loader, pipeline, monkeypatch, tmp_path):
    common = ["--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"])]

    def run(name, *argv):
        path = tmp_path / name
        assert main([*argv, *common, "--out", str(path)]) == 0
        return path.read_bytes(), Path(f"{path}.manifest.json").read_bytes()

    def train(name):
        return run(name, "train-space", "--mode", "cf", "--dims", "8", "--iters", "2")

    def rank(name, system="ds"):
        return run(name, "evaluate", "--system", system, "--space", str(pipeline["space"]))

    first, ranked = train("a.space"), rank("a.results")
    assert train("b.space") == first and rank("b.results") == ranked
    assert json.loads(first[1])["parameters"]["kernel"] == native.kernels()[1]
    assert json.loads(ranked[1])["parameters"]["kernel"] == native.kernels()[1]
    assert "kernel" not in json.loads(rank("pop.results", "pop")[1])["parameters"]
    no_compiler(monkeypatch, tmp_path)
    native.kernels.cache_clear()
    with pytest.warns(RuntimeWarning):
        fallback = train("c.space")
    assert json.loads(fallback[1])["parameters"]["kernel"] == "numpy"
    assert json.loads(rank("c.results")[1])["parameters"]["kernel"] == "numpy"


def test_ds_without_compiler_warns_once_and_keeps_its_bits(fresh_loader, pipeline, monkeypatch, tmp_path):
    # Without cc the numpy loop ranks. On the float64-held space its results
    # must equal ranking the float32 space as loaded, as before the space was
    # held in float64, and the kernel path's results where cc exists.
    argv = ["evaluate", "--system", "ds", "--space", str(pipeline["space"]), "--ratings",
            str(pipeline["ratings"]), "--split", str(pipeline["split"]), "--workers", "2", "--out"]
    names = ["a", "b", "float32"]
    if shutil.which("cc") is not None:
        assert main([*argv, str(tmp_path / "kernel.results")]) == 0
        assert native.kernels()[0] is not None
        names.append("kernel")
        native.kernels.cache_clear()
    no_compiler(monkeypatch, tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, str(tmp_path / "a.results")]) == 0
        assert main([*argv, str(tmp_path / "b.results")]) == 0

    def as_loaded(args, holdout, inputs):
        args.kernel = native.kernels()[1]
        return load_space(args.space)

    with mock.patch.object(cli, "_ranking_space", as_loaded):
        assert main([*argv, str(tmp_path / "float32.results")]) == 0
    assert [w.category for w in caught] == [RuntimeWarning]
    results = [(tmp_path / f"{name}.results").read_bytes() for name in names]
    assert results == [results[0]] * len(names)


def unit_space(n_items, d, seed, dtype=np.float64):
    """n_items random vectors of at most unit length in d dimensions, ids unsorted."""
    rng = np.random.default_rng(seed)
    item_ids = rng.permutation(np.arange(1, 4 * n_items))[:n_items]
    matrix = rng.uniform(-1, 1, size=(n_items, d)) / np.sqrt(d)
    return EmbeddingSpace(d, item_ids, matrix.astype(dtype)), rng


@st.composite
def hyperplane_cases(draw):
    """A random space (float32 or float64, d 1-64), one user's row stream and config.

    Item vectors are at most unit length, as in vsm and trained spaces. Far
    longer ones (alpha0 * |v_b - v_a|^2 >> 1) make every step overshoot, and
    then any reordering of one dot product grows chaotically, past any
    fixed relative tolerance.
    """
    n_items, d = draw(st.integers(2, 30)), draw(st.integers(1, 64))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    space, rng = unit_space(n_items, d, draw(st.integers(0, 2**32 - 1)), dtype)
    length = draw(st.one_of(st.just(1), st.integers(1, 400)))
    stream = rng.integers(n_items, size=(length, 2))
    config = RankerConfig(alpha0=draw(st.floats(0.001, 1.0)), seed=draw(st.integers(0, 2**63)))
    return space, stream, config


def assert_hyperplane_paths_match(space, stream, config):
    """The kernel and the numpy loop each within 1e-12 relative of the oracle and of each other."""
    assert native.kernels()[0] is not None
    model = train_hyperplane(stream, space, config, user_id=4)
    with mock.patch.object(native, "kernels", lambda: (None, "numpy")):
        fallback = train_hyperplane(stream, space, config, user_id=4)
    oracle = reference_hyperplane(stream, space, config)
    assert model.user_id == fallback.user_id == 4
    for w in (model.w, fallback.w):
        assert np.linalg.norm(w - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert np.linalg.norm(model.w - fallback.w) <= 1e-12 * np.linalg.norm(fallback.w)


@requires_cc
@given(hyperplane_cases())
@settings(max_examples=60, deadline=None)
def test_hyperplane_kernel_matches_the_numpy_loop(case):
    assert_hyperplane_paths_match(*case)


@requires_cc
@pytest.mark.parametrize("d", [1, 7, 8, 9])
@pytest.mark.parametrize("length", [1, 2])
def test_hyperplane_kernel_at_the_lane_edges(d, length):
    # d below, at and just past one eight-lane block; one pair has no next
    # pair to share its sweep with, two pairs share exactly one.
    space, _ = unit_space(4, d, seed=100 * d + length)
    stream = np.array([[0, 1], [3, 2]])[:length]
    assert_hyperplane_paths_match(space, stream, RankerConfig(alpha0=0.5, seed=d))


@requires_cc
def test_hyperplane_kernel_at_the_papers_dimension():
    space, rng = unit_space(300, 1000, seed=1000)
    assert_hyperplane_paths_match(space, rng.integers(300, size=(3000, 2)), RankerConfig(seed=7))


@requires_cc
@pytest.mark.parametrize("length", [0, -1])
def test_hyperplane_kernel_leaves_w_alone_without_pairs(length):
    w = np.arange(3, dtype=np.float64)
    native.kernels()[0].hyperplane_pass(w, 3, np.ones((2, 3)), np.zeros(0, np.int32), length, 0.5)
    assert w.tolist() == [0.0, 1.0, 2.0]


def transcribed_hyperplane_pass(w, matrix, stream, alpha0):
    """`hyperplane_pass` in Python floats, each sum taken in the kernel's order.

    A pair's dot sums eight lanes over the whole eight-element blocks, then
    the lanes in order, then the tail; the pair's update reaches every
    element before it enters the next pair's dot. Equal bits rest on Python
    floats being C doubles, on the kernel's -ffp-contract=off (no fused
    multiply-add) and on `math.exp` calling the same libm `exp` as the kernel.
    """
    w, d, total = w.tolist(), len(w), len(stream)
    whole = d - d % 8
    for k, (a, b) in enumerate(stream.tolist()):
        diff = [y - x for x, y in zip(matrix[a].tolist(), matrix[b].tolist())]
        lanes = [0.0] * 8
        for c in range(whole):
            lanes[c % 8] += w[c] * diff[c]
        dot = 0.0
        for c in range(8):
            dot += lanes[c]
        for c in range(whole, d):
            dot += w[c] * diff[c]
        rate = alpha0 * (1.0 - k / total)
        step = rate / (1.0 + math.exp(500.0 if dot > 500.0 else dot))
        w = [x + step * y for x, y in zip(w, diff)]
    return np.array(w)


def assert_kernel_equals_transcription(w, matrix, stream, alpha0):
    expected = transcribed_hyperplane_pass(w, matrix, stream, alpha0)
    rows = np.ascontiguousarray(stream, np.int32)
    native.kernels()[0].hyperplane_pass(w, len(w), matrix, rows, len(stream), alpha0)
    assert w.tobytes() == expected.tobytes()


@requires_cc
@pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 17, 33])
@pytest.mark.parametrize("length", [1, 2, 30])
def test_hyperplane_kernel_sums_in_its_stated_order(d, length):
    # A tolerance cannot see the summation order; equal bits can.
    space, rng = unit_space(5, d, seed=10 * d + length)
    w = rng.uniform(-0.5 / d, 0.5 / d, size=d)
    assert_kernel_equals_transcription(w, space.matrix, rng.integers(5, size=(length, 2)), 0.7)


@requires_cc
@pytest.mark.parametrize("length", [1, 3])
def test_hyperplane_kernel_keeps_a_negative_zero(length):
    # Where every pair's v_b - v_a is -0.0, w's -0.0 entry stays -0.0: each
    # step adds -0.0 to it, and the kernel adds nothing else.
    matrix = np.array([[0.0, 0.5, -0.25], [-0.0, -0.5, 0.75]])
    w = np.array([-0.0, 0.1, -0.2])
    assert_kernel_equals_transcription(w, matrix, np.array([[0, 1]] * length), 0.5)
    assert math.copysign(1.0, w[0]) == -1.0
