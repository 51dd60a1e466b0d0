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

import hashlib
import json
import math
import os
import pwd
import shutil
import subprocess
import sys
import tempfile
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
from spacerank.ranker import HyperplaneModel, RankerConfig, train_hyperplane
from spacerank.spaces import ALPHA_FLOOR, EmbeddingSpace, SpaceTrainConfig, train_space
from test_ranker import reference_hyperplane
from test_spaces import shared_token_corpus, train_space_and_nodes, unit_rows

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


CLONES = b'__attribute__((target_clones("avx2", "default")))'


def has_avx2():
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@requires_cc
@pytest.mark.skipif(not has_avx2(), reason="no avx2 in /proc/cpuinfo")
@pytest.mark.parametrize("d", [1, 7, 8, 9, 32, 1000])
def test_avx2_clone_gives_the_base_clones_bits(d, tmp_path):
    # The loaded library runs the AVX2 clone here; the same source with the
    # attribute stripped builds the base-ISA body alone.
    source = resources.files("spacerank").joinpath("_kernels.c").read_bytes()
    assert source.count(CLONES) == 1
    plain = native._load(tmp_path / "plain.so", shutil.which("cc"), source.replace(CLONES, b""))
    libraries = (native.kernels()[0], plain)
    rng = np.random.default_rng(d)

    w = rng.uniform(-0.5 / d, 0.5 / d, size=d)
    rows = rng.integers(50, size=(400, 2)).astype(np.int32)
    for dtype in (np.float32, np.int8):
        space = unit_space(50, d, seed=d, dtype=dtype)[0]
        ws = [w.copy() for _ in libraries]
        for library, fitted in zip(libraries, ws):
            run_hyperplane_pass(library, fitted, space, rows, 0.7)
        assert ws[0].tobytes() == ws[1].tobytes()
        assert run_scores(libraries[0], ws[0], space).tobytes() == run_scores(libraries[1], ws[0], space).tobytes()

    observations = [Observation(int(rng.integers(20)), f"t{t}") for t in rng.integers(30, size=300)]
    vocab = build_vocabulary(observations)
    tree = build_huffman(vocab)
    item_rows = np.array([o.item_id for o in observations], dtype=np.int64)
    tokens = np.array([vocab.token_id(o.token) for o in observations], dtype=np.int32)
    matrix = rng.uniform(-0.5, 0.5, size=(20, d)).astype(np.float32)
    nodes = rng.uniform(-0.5, 0.5, size=(tree.internal_count, d)).astype(np.float32)
    trained = [(matrix.copy(), nodes.copy()) for _ in libraries]
    for library, (matrix, nodes) in zip(libraries, trained):
        for iteration in range(2):
            perm = np.random.default_rng(iteration).permutation(len(observations))
            library.hs_pass(matrix, nodes, d, perm, 0, len(perm), item_rows, tokens, *native.flat_paths(tree),
                            iteration * len(perm), 2 * len(perm), 0.05, 0.05 * ALPHA_FLOOR, np.empty(d, np.float32))
    for first, second in zip(*trained):
        assert first.tobytes() == second.tobytes()


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


@requires_cc
def test_checksummed_file_that_will_not_load_is_left_for_a_private_build(fresh_loader, monkeypatch, tmp_path):
    # Only this loader, under the same key, on another machine, writes such a
    # file: rewriting it would make the machines rebuild in turn.
    name = built_library(tmp_path / "first", monkeypatch).name
    fresh_loader.mkdir(parents=True)
    body = b"\x7fELF" + bytes(range(256)) * 8
    written = body + hashlib.sha256(body).digest()
    (fresh_loader / name).write_bytes(written)
    monkeypatch.setenv("XDG_CACHE_HOME", str(fresh_loader.parent))
    native.kernels.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.kernels()[0] is not None
    assert (fresh_loader / name).read_bytes() == written


@pytest.mark.parametrize("compiler", [pytest.param(True, marks=requires_cc), False])
def test_no_home_directory_builds_privately(fresh_loader, monkeypatch, tmp_path, compiler):
    monkeypatch.delenv("HOME", raising=False)
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setattr(pwd, "getpwuid", mock.Mock(side_effect=KeyError("getpwuid(): uid not found")))
    monkeypatch.chdir(tmp_path)
    if compiler:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.kernels()[0] is not None
    else:
        no_compiler(monkeypatch, tmp_path)
        with pytest.warns(RuntimeWarning, match="no cc on PATH") as caught:
            assert native.kernels() == (None, "numpy")
        assert len(caught) == 1


@pytest.mark.parametrize("compiler", [pytest.param(True, marks=requires_cc), False])
def test_package_without_its_source_falls_back(pipeline, monkeypatch, tmp_path, compiler):
    shutil.copytree(Path(spacerank.__file__).parent, tmp_path / "copy" / "spacerank",
                    ignore=shutil.ignore_patterns("_kernels.c", "__pycache__"))
    if not compiler:
        no_compiler(monkeypatch, tmp_path)
    argv = ["train-space", "--mode", "cf", "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
            "--dims", "8", "--iters", "2", "--out", str(tmp_path / "cf.space")]
    script = (
        "import json, warnings\n"
        "from spacerank import native\n"
        "from spacerank.cli import main\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    loaded = native.kernels()\n"
        "    code = main(" + repr(argv) + ")\n"
        "caught = [[w.category.__name__, str(w.message)] for w in caught]\n"
        "print(json.dumps([native.__file__, loaded, caught, code]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "copy"), XDG_CACHE_HOME=str(tmp_path / "cache"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    module, loaded, caught, code = json.loads(done.stdout.splitlines()[-1])
    assert Path(module).parent == tmp_path / "copy" / "spacerank"
    assert loaded == [None, "numpy"] and code == 0
    ((category, message),) = caught
    assert category == "RuntimeWarning"
    assert ("FileNotFoundError" if compiler else "no cc on PATH") in message


@requires_cc
def test_missing_temporary_directory_builds_into_the_cache(fresh_loader, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.kernels()[0] is not None
    (library,) = fresh_loader.iterdir()
    assert library.name.startswith("kernels-") and not (tmp_path / "missing").exists()


@requires_cc
def test_warm_cache_makes_no_directory(fresh_loader, monkeypatch):
    library = built_library(fresh_loader.parent, monkeypatch)
    built = library.read_bytes()
    native.kernels.cache_clear()
    mkdtemp = mock.Mock(side_effect=OSError("no temporary directory"))
    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.kernels()[0] is not None
    mkdtemp.assert_not_called()
    assert list(fresh_loader.iterdir()) == [library] and library.read_bytes() == built


@requires_cc
def test_missing_temporary_directory_and_unwritable_cache_fall_back(fresh_loader, monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    with pytest.warns(RuntimeWarning) as caught:
        assert native.kernels() == (None, "numpy")
    (warning,) = caught
    assert f"FileNotFoundError: [Errno 2] No such file or directory: '{tmp_path / 'missing'}" in str(warning.message)


@requires_cc
def test_missing_temporary_directory_trains_with_the_kernel(pipeline, tmp_path):
    argv = ["train-space", "--mode", "cf", "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
            "--dims", "8", "--iters", "2", "--out", str(tmp_path / "cf.space")]
    script = (
        "import json, tempfile, warnings\n"
        f"tempfile.tempdir = {str(tmp_path / 'missing')!r}\n"
        "from spacerank import native\n"
        "from spacerank.cli import main\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    code = main(" + repr(argv) + ")\n"
        "print(json.dumps([native.kernels()[0] is not None, [str(w.message) for w in caught], code]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(spacerank.__file__).parent.parent),
               XDG_CACHE_HOME=str(tmp_path / "cache"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert json.loads(done.stdout.splitlines()[-1]) == [True, [], 0]


def test_kernel_source_ships_with_the_package():
    source = resources.files("spacerank").joinpath("_kernels.c")
    assert source.is_file()
    text = source.read_text(encoding="utf-8")
    assert all(f"void {name}(" in text for name in native._ARGTYPES)


def kernel_free_commands(pipeline, out):
    """`split`, `vsm`, `pop`, `knn` and `mcnemar`, which the README says never build or load the kernel."""
    common = ["--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"])]
    return [
        ["split", "--ratings", str(pipeline["ratings"]), "--out", str(out / "split")],
        ["train-space", "--mode", "vsm", *common, "--out", str(out / "vsm.space")],
        ["evaluate", "--system", "pop", *common, "--out", str(out / "pop.results")],
        ["evaluate", "--system", "knn", *common, "--out", str(out / "knn.results")],
        ["mcnemar", str(out / "knn.results"), str(out / "pop.results")],
    ]


def test_kernel_free_commands_never_call_the_loader(pipeline, tmp_path):
    with mock.patch.object(native, "kernels", side_effect=AssertionError("the kernel loader ran")) as kernels:
        assert [main(argv) for argv in kernel_free_commands(pipeline, tmp_path)] == [0] * 5
    kernels.assert_not_called()


def test_other_commands_never_build_or_load_the_kernel(pipeline, tmp_path):
    out, common = tmp_path, ["--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"])]
    never = kernel_free_commands(pipeline, out)
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
    # Without cc the numpy loop ranks the float32 space as loaded, widening
    # each row it reads. Its results must equal ranking with test_ranker's
    # per-pair reference loop, and the kernel path's results where cc exists.
    argv = ["evaluate", "--system", "ds", "--space", str(pipeline["space"]), "--ratings",
            str(pipeline["ratings"]), "--split", str(pipeline["split"]), "--workers", "2", "--out"]
    names = ["a", "b", "reference"]
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

    def reference_loop(stream, space, config, user_id):
        assert space.matrix.dtype == np.float32
        return HyperplaneModel(user_id, reference_hyperplane(stream, space, config))

    with mock.patch.object(cli, "train_hyperplane", reference_loop):
        assert main([*argv, str(tmp_path / "reference.results")]) == 0
    assert [w.category for w in caught] == [RuntimeWarning]
    results = [(tmp_path / f"{name}.results").read_bytes() for name in names]
    assert results == [results[0]] * len(names)


def unit_space(n_items, d, seed, dtype=np.float32):
    """n_items random vectors of at most unit length in d dimensions, ids unsorted: float32 rows,
    or (int8) random levels, none an all-zero row, that stand for unit rows."""
    rng = np.random.default_rng(seed)
    item_ids = rng.permutation(np.arange(1, 4 * n_items))[:n_items]
    if dtype == np.int8:
        matrix = rng.integers(0, 3, size=(n_items, d))
        matrix[np.arange(n_items), rng.integers(d, size=n_items)] = rng.integers(1, 3, size=n_items)
    else:
        matrix = rng.uniform(-1, 1, size=(n_items, d)) / np.sqrt(d)
    return EmbeddingSpace(d, item_ids, matrix.astype(dtype)), rng


def run_hyperplane_pass(library, w, space, stream, alpha0):
    """The library's ``hyperplane_pass`` for the space's layout over the row pairs, on w in place."""
    rows, d = np.ascontiguousarray(stream, np.int32), len(w)
    if space.scale is None:
        library.hyperplane_pass_float32(w, d, space.matrix, rows, len(rows), alpha0)
    else:
        library.hyperplane_pass_int8(w, d, space.matrix, space.scale, rows, len(rows), alpha0, np.empty(d))


def run_scores(library, w, space) -> np.ndarray:
    """The library's ``scores`` for the space's layout."""
    scores, d = np.empty(len(space)), len(w)
    if space.scale is None:
        library.scores_float32(scores, w, d, space.matrix, len(space))
    else:
        library.scores_int8(scores, w, d, space.matrix, space.scale, len(space))
    return scores


def exact_rows(space) -> np.ndarray:
    """The float64 rows the space stands for, made apart from it: float32 rows cast, levels over their norms."""
    return space.matrix.astype(np.float64) if space.scale is None else unit_rows(space.matrix)


@st.composite
def hyperplane_cases(draw):
    """A random space (float32 rows or int8 levels, d 1-64), one user's row stream and config.

    Item vectors are at most unit length, as in vsm and trained spaces. Far
    longer ones (alpha0 * |v_b - v_a|^2 >> 1) make every step overshoot, and
    then any reordering of one dot product grows chaotically, past any
    fixed relative tolerance.
    """
    n_items, d = draw(st.integers(2, 30)), draw(st.integers(1, 64))
    dtype = draw(st.sampled_from([np.float32, np.int8]))
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
    for dtype in (np.float32, np.int8):
        space, _ = unit_space(4, d, seed=100 * d + length, dtype=dtype)
        stream = np.array([[0, 1], [3, 2]])[:length]
        assert_hyperplane_paths_match(space, stream, RankerConfig(alpha0=0.5, seed=d))


@requires_cc
def test_hyperplane_kernel_at_the_papers_dimension():
    for dtype in (np.float32, np.int8):
        space, rng = unit_space(300, 1000, seed=1000, dtype=dtype)
        assert_hyperplane_paths_match(space, rng.integers(300, size=(3000, 2)), RankerConfig(seed=7))


@requires_cc
@pytest.mark.parametrize("length", [0, -1])
def test_hyperplane_kernel_leaves_w_alone_without_pairs(length):
    library, rows, w = native.kernels()[0], np.zeros(0, np.int32), np.arange(3, dtype=np.float64)
    library.hyperplane_pass_float32(w, 3, np.ones((2, 3), np.float32), rows, length, 0.5)
    library.hyperplane_pass_int8(w, 3, np.ones((2, 3), np.int8), np.ones(2), rows, length, 0.5, np.empty(3))
    assert w.tolist() == [0.0, 1.0, 2.0]


def eight_lane_dot(w, v):
    """The kernels' dot of two lists of floats: eight lanes over the whole
    eight-element blocks, then the lanes in order, then the tail."""
    whole, lanes, dot = len(w) - len(w) % 8, [0.0] * 8, 0.0
    for c in range(whole):
        lanes[c % 8] += w[c] * v[c]
    for lane in lanes:
        dot += lane
    for c in range(whole, len(w)):
        dot += w[c] * v[c]
    return dot


def transcribed_hyperplane_pass(w, matrix, stream, alpha0):
    """`hyperplane_pass` in Python floats, each sum taken in the kernel's order.

    A pair's dot is `eight_lane_dot`, and the pair's update reaches every
    element before it enters the next pair's dot. The float64 rows (see
    `exact_rows`) are read as Python floats. Equal bits rest on
    Python floats being C doubles, on the kernel's -ffp-contract=off (no fused
    multiply-add) and on `math.exp` calling the same libm `exp` as the kernel.
    """
    w, total = w.tolist(), len(stream)
    for k, (a, b) in enumerate(stream.tolist()):
        diff = [y - x for x, y in zip(matrix[a].tolist(), matrix[b].tolist())]
        dot = eight_lane_dot(w, diff)
        rate = alpha0 * (1.0 - k / total)
        step = rate / (1.0 + math.exp(500.0 if dot > 500.0 else dot))
        w = [x + step * y for x, y in zip(w, diff)]
    return np.array(w)


def assert_kernel_equals_transcription(w, space, stream, alpha0):
    expected = transcribed_hyperplane_pass(w, exact_rows(space), stream, alpha0)
    run_hyperplane_pass(native.kernels()[0], w, space, stream, alpha0)
    assert w.tobytes() == expected.tobytes()


def assert_scores_equal_transcription(w, space):
    expected = [eight_lane_dot(w.tolist(), row) for row in exact_rows(space).tolist()]
    assert run_scores(native.kernels()[0], w, space).tobytes() == np.array(expected).tobytes()


@requires_cc
@pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 17, 33])
@pytest.mark.parametrize("length", [1, 2, 30])
def test_hyperplane_kernel_sums_in_its_stated_order(d, length):
    # A tolerance cannot see the summation order; equal bits can.
    for dtype in (np.int8, np.float32):
        space, rng = unit_space(5, d, seed=10 * d + length, dtype=dtype)
        w = rng.uniform(-0.5 / d, 0.5 / d, size=d)
        assert_kernel_equals_transcription(w, space, rng.integers(5, size=(length, 2)), 0.7)


@requires_cc
@pytest.mark.parametrize("d", [1, 7, 8, 9, 32, 1000])
@pytest.mark.parametrize("dtype", [np.float32, np.int8])
def test_score_kernel_sums_in_its_stated_order(d, dtype):
    # The rows start one value past the start of numpy's buffer (aligned to at
    # least 16 bytes), so no row is aligned for a vector load, and at odd d
    # each row starts an odd number of values after the one before.
    rng = np.random.default_rng(d)
    n_items = 13
    matrix = np.empty(n_items * d + 1, dtype)[1:].reshape(n_items, d)
    matrix[...] = unit_space(n_items, d, seed=d, dtype=dtype)[0].matrix
    space = EmbeddingSpace(d, np.arange(n_items), matrix)
    assert space.matrix.ctypes.data == matrix.ctypes.data  # held as it is, unaligned
    assert_scores_equal_transcription(rng.normal(size=d), space)


@st.composite
def level_cases(draw):
    """Random level matrices at the lane edges and past them, of any density, with a row stream and a w."""
    d = draw(st.sampled_from([1, 7, 8, 9, 64]))
    n_items = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.choice(np.array([0, 1, 2], np.int8), size=(n_items, d), p=draw(st.sampled_from(
        [[1 / 3] * 3, [0.9, 0.05, 0.05], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]])))
    levels[np.arange(n_items), rng.integers(d, size=n_items)] = rng.integers(1, 3, size=n_items)
    space = EmbeddingSpace(d, rng.permutation(n_items) * 3, levels, "vsm")
    stream = rng.integers(n_items, size=(draw(st.integers(1, 60)), 2))
    return space, stream, rng.uniform(-0.5 / d, 0.5 / d, size=d), draw(st.sampled_from([0.025, 0.7, 3.0]))


@requires_cc
@given(level_cases())
@settings(max_examples=120, deadline=None)
def test_int8_kernels_give_the_bits_of_their_unit_rows(case):
    # hyperplane_pass_int8 and scores_int8 against the transcription over the float64 rows the
    # levels stand for: the bits the float64 bodies gave on vsm's float64 matrix
    space, stream, w, alpha0 = case
    assert_kernel_equals_transcription(w, space, stream, alpha0)
    assert_scores_equal_transcription(w, space)


@requires_cc
@pytest.mark.parametrize("length", [1, 3])
def test_hyperplane_kernel_keeps_a_negative_zero(length):
    # Where every pair's v_b - v_a is -0.0, w's -0.0 entry stays -0.0: each
    # step adds -0.0 to it, and the kernel adds nothing else.
    space = EmbeddingSpace(3, [1, 2], np.array([[0.0, 0.5, -0.25], [-0.0, -0.5, 0.75]], np.float32))
    w = np.array([-0.0, 0.1, -0.2])
    assert_kernel_equals_transcription(w, space, np.array([[0, 1]] * length), 0.5)
    assert math.copysign(1.0, w[0]) == -1.0
