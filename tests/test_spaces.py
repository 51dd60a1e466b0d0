import re
import tracemalloc
import zipfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spacerank import native
from spacerank.corpus import Observation, RatingEvent, build_profiles, rating_levels
from spacerank.errors import FormatError, SpaceRankError
from spacerank.hsoftmax import build_huffman, build_vocabulary, hs_probability, new_node_matrix
from spacerank import spaces
from spacerank.spaces import (
    EmbeddingSpace,
    SpaceTrainConfig,
    build_vsm_space,
    export_vectors,
    load_space,
    save_space,
    train_space,
)


def shared_token_corpus():
    """Items 1 and 2 share every token; item 3 shares none."""
    obs = []
    for token in ("u1_r2", "u2_r2", "u3_r1", "u4_r2", "u5_r1", "u6_r2"):
        for item in (1, 2):
            obs.extend([Observation(item, token)] * 3)
    for token in ("u7_r2", "u8_r1", "u9_r2", "u10_r2", "u11_r1", "u12_r2"):
        obs.extend([Observation(3, token)] * 3)
    return obs


def train_space_and_nodes(observations, config):
    """`train_space`, and the hierarchical-softmax node matrix it trained in place."""
    made = []

    def record(tree, d):
        made.append(new_node_matrix(tree, d))
        return made[-1]

    with mock.patch.object(spaces, "new_node_matrix", record):
        space = train_space(observations, config)
    return space, made[0]


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestEmbeddingSpace:
    def test_rows_match_item_positions(self):
        item_ids = [40, 3, 17, 8, 25]
        space = EmbeddingSpace(1, item_ids, np.zeros((5, 1), np.float32))
        queries = np.array([[17, 40], [8, 8], [25, 3]])
        rows = space.rows(queries)
        assert rows.shape == queries.shape
        assert rows.tolist() == [[item_ids.index(i) for i in pair] for pair in queries]
        assert [int(space.rows(i)) for i in item_ids] == list(range(5))

    def test_rows_missing_item(self):
        space = EmbeddingSpace(1, [40, 3], np.zeros((2, 1), np.float32))
        for missing in (1, 20, 41):
            with pytest.raises(KeyError):
                space.rows([3, missing])
            with pytest.raises(KeyError):
                space.rows(missing)
        with pytest.raises(KeyError):
            EmbeddingSpace(1, [], np.zeros((0, 1), np.float32)).rows([1])

    def test_repeated_item_ids_refused(self):
        with pytest.raises(ValueError, match="repeated"):
            EmbeddingSpace(2, [1, 2, 1], np.zeros((3, 2), np.float32))

    @pytest.mark.parametrize("dtype", [np.int64, np.float16, np.bool_, np.float64, np.uint8])
    def test_non_float_matrix_refused(self, dtype):
        message = f"a space matrix must be float32 rows or int8 levels, got {np.dtype(dtype)}$"
        with pytest.raises(ValueError, match=message):
            EmbeddingSpace(2, [1, 2], np.ones((2, 2), dtype))

    @pytest.mark.parametrize("levels, message", [
        ([[1, 3], [2, 0]], "int8 levels must be 0, 1 or 2, got 0 to 3"),
        ([[1, -1], [2, 0]], "int8 levels must be 0, 1 or 2, got -1 to 2"),
        ([[1, 2], [0, 0], [0, 0]], "2 all-zero rows of int8 levels"),
    ])
    def test_levels_outside_0_to_2_or_an_all_zero_row_refused(self, levels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EmbeddingSpace(2, np.arange(len(levels)), np.array(levels, np.int8))

    def test_row_values_widen_either_layout(self):
        floats = EmbeddingSpace(2, [7, 3], np.array([[0.1, -2.5], [1e-40, 3.0]], np.float32), "cf")
        assert floats.scale is None
        assert floats.row_values(1).tolist() == [float(np.float32(1e-40)), 3.0]
        assert floats.row_values([1, 0]).tobytes() == floats.matrix[[1, 0]].astype(np.float64).tobytes()
        assert floats.vector(7).tolist() == [float(np.float32(0.1)), -2.5]
        levels = EmbeddingSpace(3, [7, 3], np.array([[2, 0, 1], [0, 0, 1]], np.int8), "vsm")
        assert levels.scale.tolist() == [1 / np.sqrt(5), 1.0]
        assert levels.row_values(0).tolist() == [2 / np.sqrt(5), 0.0, 1 / np.sqrt(5)]
        assert levels.row_values(slice(None)).tolist() == [[2 / np.sqrt(5), 0.0, 1 / np.sqrt(5)], [0.0, 0.0, 1.0]]
        assert levels.vector(3).tolist() == [0.0, 0.0, 1.0]

    def test_equal_values_in_other_layouts_are_other_spaces(self):
        ones = np.ones((1, 1))
        assert EmbeddingSpace(1, [1], ones.astype(np.int8)) != EmbeddingSpace(1, [1], ones.astype(np.float32))
        assert EmbeddingSpace(1, [1], ones.astype(np.int8)) == EmbeddingSpace(1, [1], ones.astype(np.int8))


class TestTrainSpace:
    def test_vanishing_alpha_keeps_initialization(self):
        obs = shared_token_corpus()
        trained = train_space(obs, SpaceTrainConfig(8, iterations=1, alpha0=1e-12, seed=4))
        rng = np.random.default_rng(4)
        init = rng.uniform(-0.5 / 8, 0.5 / 8, size=(3, 8)).astype(np.float32)
        np.testing.assert_allclose(trained.matrix, init, atol=1e-9)

    def test_cooccurrence_pulls_items_together(self):
        space = train_space(shared_token_corpus(), SpaceTrainConfig(8, iterations=200, seed=3))
        v1, v2, v3 = (space.vector(i) for i in (1, 2, 3))
        assert cosine(v1, v2) > cosine(v1, v3)

    def test_single_worker_determinism(self):
        obs = shared_token_corpus()
        config = SpaceTrainConfig(6, iterations=5, seed=11)
        assert train_space(obs, config) == train_space(obs, config)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            train_space([], SpaceTrainConfig(4))

    def test_training_reduces_mean_loss(self):
        # 50 items, 20 tokens, structured so there is something to learn.
        rng = np.random.default_rng(9)
        obs = []
        for item in range(50):
            for _ in range(12):
                token = f"t{(item % 5) * 4 + int(rng.integers(4))}"
                obs.append(Observation(item, token))
        vocab = build_vocabulary(obs)
        tree = build_huffman(vocab)
        d = 8

        def mean_loss(space, nodes):
            losses = [
                -np.log(hs_probability(space.vector(o.item_id), o.token, vocab, tree, nodes))
                for o in obs
            ]
            return float(np.mean(losses))

        trained, nodes = train_space_and_nodes(obs, SpaceTrainConfig(d, iterations=30, seed=2))
        init_rng = np.random.default_rng(2)
        init_matrix = init_rng.uniform(-0.5 / d, 0.5 / d, size=(50, d)).astype(np.float32)
        untrained = EmbeddingSpace(d, sorted({o.item_id for o in obs}), init_matrix)
        # Zero nodes make every branch 0.5, so the initial loss is exactly
        # the mean code length times log 2.
        initial = mean_loss(untrained, new_node_matrix(tree, d))
        assert mean_loss(trained, nodes) < initial

    def test_multiworker_runs(self):
        # Two Hogwild threads update the same matrices.
        obs = shared_token_corpus()
        space = train_space(obs, SpaceTrainConfig(8, iterations=20, seed=3, workers=2))
        assert len(space) == 3 and np.isfinite(space.matrix).all()
        v1, v2, v3 = (space.vector(i) for i in (1, 2, 3))
        assert cosine(v1, v2) > cosine(v1, v3)

    def test_multiworker_shards_split_each_pass(self, monkeypatch):
        def record(workers):
            passes = {}

            def hs_pass(matrix, nodes, d, perm, start, end, rows, tokens, offsets, path, codes,
                        pass_base, *_):
                passes.setdefault(pass_base, []).append((start, end, perm.copy()))

            library = SimpleNamespace(hs_pass=hs_pass)
            monkeypatch.setattr(spaces.native, "kernels", lambda: (library, "recording"))
            train_space(shared_token_corpus(), SpaceTrainConfig(8, iterations=3, seed=3, workers=workers))
            return passes

        n = len(shared_token_corpus())
        passes, reference = record(2), record(1)
        assert sorted(passes) == sorted(reference) == [0, n, 2 * n]
        for pass_base, shards in passes.items():
            assert sorted(shard[:2] for shard in shards) == [(0, n // 2), (n // 2, n)]
            for _, _, perm in shards:  # every shard cuts the permutation workers=1 trains
                np.testing.assert_array_equal(perm, reference[pass_base][0][2])

    def test_one_token_vocabulary_multiworker(self):
        obs = [Observation(1, "t"), Observation(2, "t")]
        space, nodes = train_space_and_nodes(obs, SpaceTrainConfig(4, iterations=2, seed=1, workers=2))
        assert nodes.shape == (0, 4)
        init = np.random.default_rng(1).uniform(-0.5 / 4, 0.5 / 4, size=(2, 4)).astype(np.float32)
        np.testing.assert_array_equal(space.matrix, init)

    def test_diverged_training_raises(self):
        with np.errstate(all="ignore"), pytest.raises(SpaceRankError):
            train_space(shared_token_corpus(), SpaceTrainConfig(8, iterations=2, alpha0=1e4))

    @pytest.mark.parametrize("alpha0", [float("nan"), float("inf"), 0.0])
    def test_config_refuses_nan_and_infinite_alpha0(self, alpha0):
        with pytest.raises(ValueError, match="alpha0"):
            SpaceTrainConfig(8, alpha0=alpha0)

    @pytest.mark.parametrize("fields, message", [
        ({"dimensions": 0}, "dimensions must be positive, got 0"),
        ({"dimensions": 8, "iterations": 0}, "iterations must be >= 1, got 0"),
    ])
    def test_config_refuses_counts_below_one(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SpaceTrainConfig(**fields)

    def test_config_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            SpaceTrainConfig(8, seed=-1)


class TestVsmSpace:
    def test_single_rater_unit_vector(self):
        events = [RatingEvent(5, 40, 4, 0)]
        profiles = build_profiles(events)
        space = build_vsm_space(events, profiles)
        np.testing.assert_array_equal(space.vector(40), np.array([1.0], dtype=np.float32))

    def test_identical_ratings_identical_vectors(self):
        events = [
            RatingEvent(1, 10, 4, 0), RatingEvent(2, 10, 2, 0),
            RatingEvent(1, 11, 4, 1), RatingEvent(2, 11, 2, 1),
        ]
        space = build_vsm_space(events, build_profiles(events))
        np.testing.assert_array_equal(space.vector(10), space.vector(11))

    def test_norms_are_unit_or_zero(self):
        rng = np.random.default_rng(0)
        events = []
        seen = set()
        for _ in range(300):
            u, i = int(rng.integers(1, 30)), int(rng.integers(1, 60))
            if (u, i) not in seen:
                seen.add((u, i))
                events.append(RatingEvent(u, i, int(rng.integers(1, 6)), 0))
        space = build_vsm_space(events, build_profiles(events))
        assert space.matrix.dtype == np.int8
        norms = np.linalg.norm(space.row_values(slice(None)), axis=1)
        assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0))
        assert space.provenance == "vsm"
        assert space.dimensions == 29


def write_container(path, **entries):
    """An ``.npz`` file holding exactly `entries`, written where `save_space` writes."""
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def write_forged_container(path, shape, data):
    """A container whose matrix entry is a float32 header claiming `shape`, then `data`."""
    with zipfile.ZipFile(path, "w") as container:
        for name, array in good_entries().items():
            if name != "matrix":
                with container.open(f"{name}.npy", "w") as member:
                    np.lib.format.write_array(member, array)
        with container.open("matrix.npy", "w") as member:
            header = {"descr": "<f4", "fortran_order": False, "shape": shape}
            np.lib.format.write_array_header_1_0(member, header)
            member.write(data)


def write_other_layout(path, layout):
    """A container of `good_entries` whose matrix entry has a layout `save_space` never writes."""
    entries = good_entries()
    if layout in ("int64", "uint8"):
        write_container(path, **{**entries, "matrix": entries["matrix"].astype(layout)})
    elif layout == "fortran":
        write_container(path, **{**entries, "matrix": np.asfortranarray(entries["matrix"])})
    else:  # "npy-2.0": the matrix behind a version 2.0 header
        with zipfile.ZipFile(path, "w") as container:
            for name, array in entries.items():
                with container.open(f"{name}.npy", "w") as member:
                    np.lib.format.write_array(member, array, version=(2, 0) if name == "matrix" else (1, 0))


OTHER_LAYOUTS = ["int64", "uint8", "fortran", "npy-2.0"]


def several_blocks_space(dtype, d=1024, blocks=8, provenance="cf"):
    """A space of `blocks` row blocks of d columns, the last one partial: float32 rows or random levels."""
    n = blocks * spaces._BLOCK_VALUES // d - 3
    rng = np.random.default_rng(d)
    matrix = (rng.integers(0, 3, size=(n, d)) if dtype == np.int8 else rng.normal(size=(n, d))).astype(dtype)
    return EmbeddingSpace(d, np.arange(n) * 7, matrix, provenance)


def good_entries():
    return {
        "item_ids": np.array([240, 7], dtype=np.int64),
        "matrix": np.array([[0.5, -1.0, 0.25], [1e-7, 3.5, -2.25]], dtype=np.float32),
        "provenance": np.array("cf"),
    }


def parse_exported_values(path) -> tuple[list[int], np.ndarray]:
    """The item ids and the float64 matrix of `export_vectors` text, each value read as the nearest float64."""
    with open(path, encoding="utf-8") as fh:
        count, d = (int(field) for field in fh.readline().split())
        rows = [line.split() for line in fh]
    assert len(rows) == count and all(len(row) == d + 1 for row in rows)
    matrix = np.array([[float(v) for v in row[1:]] for row in rows], dtype=np.float64)
    return [int(row[0]) for row in rows], matrix.reshape(count, d)


def parse_exported(path) -> EmbeddingSpace:
    """Read `export_vectors` text of float32 rows back: the oracle for a lossless export.

    The decimal-text parser space files had before they became containers:
    each value is read as the nearest float64, then rounded once to float32.
    """
    item_ids, matrix = parse_exported_values(path)
    return EmbeddingSpace(matrix.shape[1], item_ids, matrix.astype(np.float32))


def unit_rows(levels) -> np.ndarray:
    """Levels divided by their norms in float64, as vsm spaces were held before int8 levels: the oracle."""
    levels = np.asarray(levels, np.float64)
    return levels / np.linalg.norm(levels, axis=1, keepdims=True)


def assert_export_matches(path, space):
    """`export_vectors` text holds the space's ids and the exact float64 values of its rows."""
    item_ids, values = parse_exported_values(path)
    assert item_ids == space.item_ids.tolist()
    if space.scale is None:
        assert_bit_equal(parse_exported(path), space)
        assert values.tobytes() == space.matrix.astype(np.float64).tobytes()
    elif len(space):  # np.linalg.norm needs a row
        assert values.tobytes() == unit_rows(space.matrix).tobytes()


@st.composite
def spaces_of_any_layout(draw):
    """float32 spaces with every finite value hypothesis tries (-0.0, subnormals, max), or level spaces."""
    dtype = draw(st.sampled_from([np.float32, np.int8]))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8, unique=True))
    d = draw(st.integers(1, 6))
    if dtype == np.float32:
        values = st.floats(width=32, allow_nan=False, allow_infinity=False)
    else:  # a level in every row's first nonzero column, to keep rows nonzero
        values = st.integers(0, 2)
    matrix = draw(arrays(dtype, (len(ids), d), elements=values))
    if dtype == np.int8:
        matrix[~matrix.any(axis=1), draw(st.integers(0, d - 1))] = draw(st.integers(1, 2))
    provenance = draw(st.sampled_from([None, *spaces.PROVENANCES]))
    return EmbeddingSpace(d, ids, matrix, provenance)


def edge_space(dtype, provenance, n_items=3, d=2):
    """float32 extremes, or (int8) each level, rows holding one level among zeros, in cycle."""
    if dtype == np.int8:
        values = [2, 0, 1, 1, 0, 2] if d > 1 else [1, 2]
    else:
        info = np.finfo(dtype)
        values = [-0.0, info.smallest_subnormal, -info.max, info.max, info.tiny, 1.0]
    matrix = np.resize(np.array(values, dtype=dtype), (n_items, d))
    return EmbeddingSpace(d, np.arange(n_items) * 5, matrix, provenance)


def assert_bit_equal(loaded, space):
    assert loaded.matrix.dtype == space.matrix.dtype
    assert loaded.item_ids.dtype == np.int64
    assert loaded.matrix.tobytes() == space.matrix.tobytes()
    assert loaded.item_ids.tolist() == space.item_ids.tolist()
    assert loaded.dimensions == space.dimensions


class TestSpaceFiles:
    def make_space(self):
        entries = good_entries()
        return EmbeddingSpace(3, entries["item_ids"], entries["matrix"], "cf")

    def test_round_trip_identity(self, tmp_path):
        space = self.make_space()
        path = tmp_path / "s.space"
        save_space(space, path)
        assert load_space(path) == space

    def test_round_trip_awkward_floats(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = (rng.normal(size=(20, 6)) * 10.0 ** rng.integers(-8, 8, size=(20, 6))).astype(
            np.float32
        )
        space = EmbeddingSpace(6, list(range(20)), matrix, "cb")
        path = tmp_path / "s.space"
        save_space(space, path)
        loaded = load_space(path)
        assert np.array_equal(loaded.matrix, space.matrix)

    @given(space=spaces_of_any_layout())
    @example(space=edge_space(np.float32, None, n_items=0))
    @example(space=edge_space(np.int8, "vsm", n_items=0, d=1))
    @example(space=edge_space(np.float32, "cf", n_items=6, d=1))
    @example(space=edge_space(np.float32, "cb"))
    @example(space=edge_space(np.int8, "vsm"))
    @example(space=edge_space(np.int8, None))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_bit_exact_any_dtype(self, tmp_path_factory, space):
        path = tmp_path_factory.mktemp("rt") / "s.space"
        save_space(space, path)
        loaded = load_space(path)
        assert_bit_equal(loaded, space)
        assert loaded.provenance == space.provenance
        assert loaded.row_values(slice(None)).tobytes() == space.row_values(slice(None)).tobytes()

    def test_writes_exactly_the_given_path(self, tmp_path):
        path = tmp_path / "s.space"
        save_space(self.make_space(), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.space"]
        with np.load(path, allow_pickle=False) as npz:
            assert sorted(npz.files) == ["item_ids", "matrix", "provenance"]
            assert npz["provenance"].shape == () and str(npz["provenance"]) == "cf"

    @pytest.mark.parametrize("dtype, provenance", [(np.float32, "cf"), (np.int8, "vsm")])
    def test_file_of_the_per_value_writer_loads_bit_identically(self, tmp_path, dtype, provenance):
        # The text writer before the joined-row form: one repr(float(x)) call
        # per value of the float32 rows, or of the float64 rows levels stood for.
        # Exported vectors keep its bytes, minus the provenance.
        rng = np.random.default_rng(8)
        if dtype == np.int8:
            matrix = rng.integers(0, 3, size=(30, 7)).astype(np.int8)
            matrix[:, 0] = 1
            values = unit_rows(matrix)
        else:
            matrix = (rng.normal(size=(30, 7)) * 10.0 ** rng.integers(-30, 30, size=(30, 7))).astype(dtype)
            matrix[0, :3] = [-0.0, np.finfo(dtype).max, np.finfo(dtype).smallest_subnormal]
            values = matrix
        space = EmbeddingSpace(7, np.arange(30) * 3, matrix, provenance)
        old = tmp_path / "old.txt"
        with open(old, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{len(space)} {space.dimensions}\n")
            for item_id, vec in zip(space.item_ids, values):
                fh.write(f"{item_id} " + " ".join(repr(float(x)) for x in vec) + "\n")
        export_vectors(space, tmp_path / "new.txt")
        assert (tmp_path / "new.txt").read_bytes() == old.read_bytes()
        assert_export_matches(old, space)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "s.space"
        save_space(self.make_space(), path)
        data = path.read_bytes()
        for cut in sorted({0, 2, 4, 30, len(data) // 2, len(data) - 22, len(data) - 1}):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                load_space(path)

    def test_bad_crc_refused(self, tmp_path):
        path = tmp_path / "s.space"
        save_space(self.make_space(), path)
        data = bytearray(path.read_bytes())
        at = data.index(np.float32(3.5).tobytes())  # a value inside the matrix entry
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="CRC"):
            load_space(path)

    def test_forged_matrix_header_is_a_format_error(self, tmp_path):
        # the header claims 10^7 x 10^6 float32 values (36 TiB) over 48 bytes
        path = tmp_path / "s.space"
        write_forged_container(path, (10**7, 10**6), bytes(48))
        with pytest.raises(FormatError, match="cannot fill its 48-byte entry"):
            load_space(path)

    def test_matrix_entry_longer_than_its_header_refused(self, tmp_path):
        path = tmp_path / "s.space"
        write_forged_container(path, (2, 3), bytes(28))  # 2 x 3 float32 values take 24 bytes
        with pytest.raises(FormatError, match="cannot fill its 28-byte entry"):
            load_space(path)

    def test_non_finite_value_in_the_last_block_refused(self, tmp_path):
        path = tmp_path / "s.space"
        space = several_blocks_space(np.float32)
        space.matrix[-1, -1] = np.nan
        write_container(path, item_ids=space.item_ids, matrix=space.matrix, provenance=np.array("cf"))
        with pytest.raises(FormatError, match="non-finite"):
            load_space(path)

    def test_truncated_inside_the_matrix_after_its_first_block(self, tmp_path):
        path = tmp_path / "s.space"
        space = several_blocks_space(np.float32)
        save_space(space, path)
        data = path.read_bytes()
        first = spaces._row_blocks(space.matrix)[0]
        second_block = data.index(space.matrix[len(first)].tobytes())
        for cut in (second_block, second_block + 1000):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                load_space(path)
        # a whole container whose matrix entry holds the first block only
        write_forged_container(path, space.matrix.shape, first.tobytes())
        with pytest.raises(FormatError, match="cannot fill"):
            load_space(path)

    def test_header_without_provenance_accepted(self, tmp_path):
        path = tmp_path / "s.space"
        write_container(path, **{**good_entries(), "provenance": np.array("")})
        space = load_space(path)
        assert space.provenance is None and len(space) == 2

    def test_unknown_provenance_refused(self, tmp_path):
        path = tmp_path / "s.space"
        write_container(path, **{**good_entries(), "provenance": np.array("svd")})
        with pytest.raises(FormatError, match="provenance"):
            load_space(path)

    def test_non_finite_value_refused(self, tmp_path):
        path = tmp_path / "s.space"
        entries = good_entries()
        entries["matrix"][0, 1] = np.nan
        write_container(path, **entries)
        with pytest.raises(FormatError, match="non-finite"):
            load_space(path)
        space = self.make_space()
        space.matrix[1, 1] = np.inf
        for write in (save_space, export_vectors):
            with pytest.raises(FormatError):
                write(space, tmp_path / "inf.space")
            assert not (tmp_path / "inf.space").exists()

    def test_repeated_item_line_refused(self, tmp_path):
        path = tmp_path / "s.space"
        entries = good_entries()
        write_container(path, **{**entries, "item_ids": np.array([7, 7], dtype=np.int64)})
        with pytest.raises(FormatError, match="repeated"):
            load_space(path)

    def test_wrong_value_count(self, tmp_path):
        # one id fewer than the matrix has rows
        path = tmp_path / "s.space"
        write_container(path, **{**good_entries(), "item_ids": np.array([240], dtype=np.int64)})
        with pytest.raises(FormatError, match="does not match"):
            load_space(path)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 1), ()])
    def test_matrix_not_two_dimensional_refused(self, tmp_path, shape):
        path = tmp_path / "s.space"
        matrix = np.zeros(shape, dtype=np.float32)
        write_container(path, **{**good_entries(), "matrix": matrix})
        with pytest.raises(FormatError, match="2-D"):
            load_space(path)

    @pytest.mark.parametrize("entry, value", [
        ("item_ids", np.array([240, 7], dtype=np.int32)),
        ("item_ids", np.array([240.0, 7.0])),
        ("matrix", np.zeros((2, 3), dtype=np.float16)),
        ("matrix", np.zeros((2, 3), dtype=np.int64)),
        ("matrix", np.zeros((2, 3), dtype=">f4")),
        ("provenance", np.array(b"cf")),
        ("provenance", np.array(["cf"])),
        ("matrix", np.ones((2, 3), dtype=np.uint8)),
    ])
    def test_wrong_dtype_refused(self, tmp_path, entry, value):
        path = tmp_path / "s.space"
        write_container(path, **{**good_entries(), entry: value})
        with pytest.raises(FormatError, match="entries must be"):
            load_space(path)

    @pytest.mark.parametrize("entry", ["item_ids", "matrix", "provenance"])
    def test_missing_entry_refused(self, tmp_path, entry):
        path = tmp_path / "s.space"
        entries = good_entries()
        del entries[entry]
        write_container(path, **entries)
        with pytest.raises(FormatError, match=entry):
            load_space(path)

    @pytest.mark.parametrize("entry", ["item_ids", "provenance"])
    def test_entry_that_is_not_an_array_refused(self, tmp_path, entry):
        path = tmp_path / "s.space"
        entries = good_entries()
        del entries[entry]
        write_container(path, **entries)
        with zipfile.ZipFile(path, "a") as container:
            container.writestr(f"{entry}.npy", b"not an array")
        with pytest.raises(FormatError, match="entries must be"):
            load_space(path)

    @pytest.mark.parametrize("layout", OTHER_LAYOUTS)
    def test_matrix_layout_no_writer_makes_refused(self, tmp_path, layout):
        path = tmp_path / "s.space"
        write_other_layout(path, layout)
        message = (f"{path}: entries must be 1-D int64 item_ids, a 2-D C-ordered float32 or int8 matrix "
                   "in npy 1.0 and a 0-d string provenance")
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_space(path)

    def test_float64_vsm_space_of_earlier_versions_refused_with_rebuild_hint(self, tmp_path):
        # the layout vsm spaces were saved in before int8 levels: levels divided by their norms
        path = tmp_path / "s.space"
        write_container(path, item_ids=np.array([3, 9]), matrix=unit_rows([[2, 0, 1], [0, 1, 1]]),
                        provenance=np.array("vsm"))
        message = (f"{path}: a float64 matrix, as vsm spaces from earlier versions held; "
                   "rebuild it with train-space --mode vsm")
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_space(path)

    @pytest.mark.parametrize("levels, message", [
        ([[1, 3], [2, 0]], "int8 levels must be 0, 1 or 2, got 0 to 3"),
        ([[1, 2], [0, 0]], "1 all-zero rows of int8 levels"),
    ])
    def test_levels_outside_0_to_2_or_an_all_zero_row_are_a_format_error(self, tmp_path, levels, message):
        path = tmp_path / "s.space"
        write_container(path, item_ids=np.array([3, 9]), matrix=np.array(levels, np.int8), provenance=np.array("vsm"))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_space(path)

    def test_object_array_refused(self, tmp_path):
        path = tmp_path / "s.space"
        matrix = np.empty((2, 3), dtype=object)
        matrix[:] = 0.5
        write_container(path, **{**good_entries(), "matrix": matrix})
        with pytest.raises(FormatError):
            load_space(path)

    def test_bare_npy_refused(self, tmp_path):
        path = tmp_path / "s.space"
        np.save(path, good_entries()["matrix"])
        path.with_suffix(".space.npy").replace(path)
        with pytest.raises(FormatError, match="not a space container"):
            load_space(path)

    def test_text_space_of_earlier_versions_refused_with_retrain_hint(self, tmp_path):
        path = tmp_path / "s.space"
        path.write_text("2 3 cf\n240 0.5 -1.0 0.25\n7 1e-07 3.5 -2.25\n")
        with pytest.raises(FormatError, match="retrain"):
            load_space(path)

    def test_export_format_and_round_trip(self, tmp_path):
        space = EmbeddingSpace(2, [240], np.array([[0.5, -1.0]], dtype=np.float32))
        path = tmp_path / "vecs.txt"
        export_vectors(space, path)
        assert path.read_text().splitlines() == ["1 2", "240 0.5 -1.0"]
        assert parse_exported(path) == space

    def test_export_of_levels_prints_their_unit_rows(self, tmp_path):
        space = EmbeddingSpace(2, [240, 3], np.array([[2, 0], [1, 1]], np.int8), "vsm")
        path = tmp_path / "vecs.txt"
        export_vectors(space, path)
        half = repr(float(1 / np.sqrt(2)))
        assert path.read_text().splitlines() == ["2 2", "240 1.0 0.0", f"3 {half} {half}"]

    @given(space=spaces_of_any_layout())
    @example(space=edge_space(np.float32, "cf", n_items=0))
    @example(space=edge_space(np.int8, "vsm"))
    @settings(max_examples=100, deadline=None)
    def test_export_round_trip_bit_exact(self, tmp_path_factory, space):
        path = tmp_path_factory.mktemp("export") / "vecs.txt"
        export_vectors(space, path)
        assert_export_matches(path, space)

    def test_export_empty_space(self, tmp_path):
        space = EmbeddingSpace(4, [], np.zeros((0, 4), dtype=np.float32))
        path = tmp_path / "vecs.txt"
        export_vectors(space, path)
        assert path.read_text() == "0 4\n"

    def test_vsm_round_trip_keeps_double_precision(self, tmp_path):
        # its int8 levels, and so the exact float64 unit rows they stand for
        events = [RatingEvent(1, 10, 4, 0), RatingEvent(2, 10, 5, 0), RatingEvent(1, 11, 2, 1)]
        space = build_vsm_space(events, build_profiles(events))
        path = tmp_path / "v.space"
        save_space(space, path)
        loaded = load_space(path)
        assert loaded == space
        assert loaded.matrix.dtype == np.int8
        assert loaded.row_values(slice(None)).tobytes() == unit_rows(loaded.matrix).tobytes()


def traced_peak(fn, *args):
    """`fn(*args)` and the peak bytes tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The widest block, in bytes: _BLOCK_VALUES float64 values.
BLOCK_BYTES = 8 * spaces._BLOCK_VALUES


class TestRowBlocks:
    """Each space matrix is made, written and read a row block at a time,
    with the bits the whole-matrix operations they replace produced."""

    @pytest.mark.parametrize("space", [
        pytest.param(edge_space(dtype, provenance, n_items=4, d=3), id=f"{dtype.__name__}-{provenance}")
        for dtype in (np.float32, np.int8) for provenance in (None, "cf", "vsm")
    ] + [
        pytest.param(edge_space(np.float32, "cf", n_items=0, d=5), id="zero-rows"),
        pytest.param(edge_space(np.int8, "vsm", n_items=9, d=1), id="one-column"),
        pytest.param(several_blocks_space(np.float32), id="several-blocks"),
        pytest.param(several_blocks_space(np.int8, d=700, blocks=3, provenance=None), id="several-blocks-int8"),
        pytest.param(EmbeddingSpace(300, np.arange(500), np.asfortranarray(
            np.random.default_rng(3).normal(size=(500, 300)).astype(np.float32)), "cb"), id="f-contiguous"),
    ])
    def test_save_writes_the_bytes_of_np_savez(self, tmp_path, space):
        save_space(space, tmp_path / "new.space")
        write_container(tmp_path / "savez.space", item_ids=space.item_ids, matrix=space.matrix,
                        provenance=np.array(space.provenance or ""))
        assert (tmp_path / "new.space").read_bytes() == (tmp_path / "savez.space").read_bytes()
        assert space.matrix.flags.c_contiguous  # an F-ordered matrix is held, and so written, in C order
        for path in ("new.space", "savez.space"):
            assert_bit_equal(load_space(tmp_path / path), space)

    @pytest.mark.parametrize("n_items, d", [(3, 8), (1, 1), (700, 1000), (3, 200_000)])
    def test_initial_vectors_are_the_whole_matrix_draw(self, n_items, d):
        made, real_rng = [], np.random.default_rng

        def recording_rng(seed):
            made.append(real_rng(seed))
            return made[-1]

        obs = [Observation(item, f"t{item % 2}") for item in range(n_items)]
        with mock.patch.object(spaces, "map_on_workers"), \
                mock.patch.object(spaces.np.random, "default_rng", recording_rng):
            space = train_space(obs, SpaceTrainConfig(d, seed=9))  # no pass runs
        oracle = real_rng(9)
        init = oracle.uniform(-0.5 / d, 0.5 / d, size=(n_items, d)).astype(np.float32)
        assert space.matrix.tobytes() == init.tobytes()
        assert made[0].random() == oracle.random()

    @pytest.mark.parametrize("n_items, n_users", [(3000, 200), (40, 1)])
    def test_vsm_rows_are_divided_by_the_whole_matrix_norms(self, n_items, n_users):
        rng = np.random.default_rng(n_users)
        events = [RatingEvent(int(u), i, int(r), 0) for i in range(n_items)
                  for u, r in zip(rng.choice(n_users, size=min(n_users, 3), replace=False) + 1,
                                  rng.integers(1, 6, size=3))]
        profiles = build_profiles(events)
        space = build_vsm_space(events, profiles)
        users, items, levels = rating_levels(events, profiles)
        raw = np.zeros((n_items, len(profiles)))
        raw[items, np.searchsorted(sorted(profiles), users)] = levels
        oracle = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        assert space.matrix.tobytes() == raw.astype(np.int8).tobytes()
        assert space.row_values(slice(None)).tobytes() == oracle.tobytes()

    # Each bound: the matrix made, one block of float64 values where the step
    # works a block at a time, the boolean finiteness mask of a block where
    # the step checks one, and 64 KiB for the rest. A whole-matrix temporary
    # exceeds it.

    def test_initial_vectors_allocate_one_block_beside_the_matrix(self):
        native.kernels()  # built, loaded and cached before tracing
        obs = [Observation(item, f"t{item % 2}") for item in range(1024)]
        config = SpaceTrainConfig(1024, iterations=1)
        train_space(obs[:4], config)
        space, peak = traced_peak(train_space, obs, config)
        assert space.matrix.nbytes == 4 * 1024 * 1024
        assert peak <= space.matrix.nbytes + BLOCK_BYTES + spaces._BLOCK_VALUES + 64 * 1024

    def test_vsm_normalization_allocates_nothing_beside_the_matrix(self):
        events = [RatingEvent(1 + i % 200, i, 1 + i % 5, 0) for i in range(3000)]  # several row blocks
        profiles = build_profiles(events)
        build_vsm_space(events[:4], build_profiles(events[:4]))
        space, peak = traced_peak(build_vsm_space, events, profiles)
        assert space.matrix.nbytes == 3000 * 200
        rest = 64 * len(events)  # the event columns, their matrix rows and columns, the norms' sums
        assert peak <= space.matrix.nbytes + rest + 64 * 1024

    def test_save_allocates_one_block(self, tmp_path):
        space = several_blocks_space(np.float32)
        save_space(space, tmp_path / "warm.space")
        _, peak = traced_peak(save_space, space, tmp_path / "s.space")
        assert space.matrix.nbytes == 4 * 1024 * 1024 - 3 * 4 * 1024
        assert peak <= BLOCK_BYTES + spaces._BLOCK_VALUES + 64 * 1024

    def test_load_allocates_one_block_beside_the_matrix(self, tmp_path):
        save_space(several_blocks_space(np.float32), tmp_path / "s.space")
        load_space(tmp_path / "s.space")
        space, peak = traced_peak(load_space, tmp_path / "s.space")
        assert space.matrix.nbytes == 4 * 1024 * 1024 - 3 * 4 * 1024
        assert peak <= space.matrix.nbytes + BLOCK_BYTES + spaces._BLOCK_VALUES + 64 * 1024
