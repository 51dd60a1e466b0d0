"""Learning, storing, and exporting user-independent item spaces.

Three kinds of space share one container: embeddings trained from rating
observations (``cf``), embeddings trained from review-text observations
(``cb``), and the normalized raw vector-space model where every user is a
dimension (``vsm``). Training streams observations one at a time in
shuffled order against a hierarchical softmax, updating item vectors and
tree-node weights by SGD with a linearly decaying learning rate.
"""

from __future__ import annotations

import copy
import math
import zipfile
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.lib import format as npy

from . import native
from .corpus import Observation, RatingEvent, Ratings, UserProfile, rating_levels
from .errors import FormatError, SpaceRankError
from .evaluate import map_on_workers
from .hsoftmax import build_huffman, build_vocabulary, hs_train_step, new_node_matrix

PROVENANCES = ("cf", "cb", "vsm")

# Learning-rate floor as a fraction of alpha0: the schedule is "linear to
# zero" but the very last steps keep a tiny positive rate.
ALPHA_FLOOR = 1e-4

_BLOCK_VALUES = 1 << 17  # space matrices are made, checked and loaded this many values at a time


def _row_blocks(matrix) -> list[np.ndarray]:
    """Views of consecutive rows of a 2-D `matrix`, each of about _BLOCK_VALUES values."""
    step = max(1, _BLOCK_VALUES // max(matrix.shape[1], 1))
    return [matrix[start:start + step] for start in range(0, len(matrix), step)]


def _level_scale(levels) -> np.ndarray:
    """1 / the norm of each row of int8 `levels`, from its exact integer sum of squares (at most 4 a
    column, so int32 holds it). Raises ValueError on a level outside 0-2 or an all-zero row."""
    squares = [np.zeros(0, np.int32)]
    for block in _row_blocks(levels):
        if not 0 <= block.min() <= block.max() <= 2:
            raise ValueError(f"int8 levels must be 0, 1 or 2, got {block.min()} to {block.max()}")
        squares.append(np.einsum("ij,ij->i", block, block, dtype=np.int32))
    if zero := np.count_nonzero((squares := np.concatenate(squares)) == 0):
        raise ValueError(f"{zero} all-zero rows of int8 levels")
    return 1.0 / np.sqrt(squares)


class EmbeddingSpace:
    """Dense real vector per item, all of one dimensionality: C-ordered float32 rows (cf, cb), or
    int8 levels 0-2 (vsm) whose row i stands for the float64 values ``matrix[i] * scale[i]``, with
    `scale` 1 / the row's norm (None for float32 rows). `row_values` widens rows of either to float64."""

    def __init__(self, dimensions, item_ids, matrix, provenance=None):
        matrix = np.ascontiguousarray(matrix)
        item_ids = np.ascontiguousarray(item_ids, np.int64)
        if matrix.dtype not in (np.float32, np.int8):
            raise ValueError(f"a space matrix must be float32 rows or int8 levels, got {matrix.dtype}")
        if dimensions < 1:
            raise ValueError(f"a space needs at least one dimension, got {dimensions}")
        if matrix.shape != (len(item_ids), dimensions):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(item_ids)} items x {dimensions} dimensions"
            )
        if provenance is not None and provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}, got {provenance!r}")
        self.dimensions = int(dimensions)
        self.item_ids = item_ids
        self.matrix = matrix
        self.scale = None if matrix.dtype == np.float32 else _level_scale(matrix)
        self.provenance = provenance
        self._sorted_rows = np.argsort(item_ids)
        if repeated := np.count_nonzero(np.diff(item_ids[self._sorted_rows]) == 0):
            raise ValueError(f"{repeated} repeated item ids")

    def __len__(self) -> int:
        return len(self.item_ids)

    def rows(self, item_ids) -> np.ndarray:
        """Rows of item ids (an id or an array of them, same shape); KeyError if one is missing."""
        item_ids = np.asarray(item_ids)
        if item_ids.size and not len(self):
            raise KeyError(int(item_ids.flat[0]))
        at = np.searchsorted(self.item_ids, item_ids, sorter=self._sorted_rows)
        rows = self._sorted_rows[np.minimum(at, len(self) - 1)]
        missing = self.item_ids[rows] != item_ids
        if missing.any():
            raise KeyError(int(item_ids[missing][0]))
        return rows

    def row_values(self, rows) -> np.ndarray:
        """The float64 values of `rows` (a row, an array or a slice of rows), in a new array."""
        block = self.matrix[rows]
        return block.astype(np.float64) if self.scale is None else block * self.scale[rows][..., None]

    def vector(self, item_id: int) -> np.ndarray:
        """The item's vector, as float64 values."""
        return self.row_values(self.rows(item_id))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EmbeddingSpace)
            and self.dimensions == other.dimensions
            and self.provenance == other.provenance
            and np.array_equal(self.item_ids, other.item_ids)
            and self.matrix.dtype == other.matrix.dtype
            and np.array_equal(self.matrix, other.matrix)
        )


@dataclass(frozen=True)
class SpaceTrainConfig:
    dimensions: int
    iterations: int = 20
    alpha0: float = 0.025
    seed: int = 1
    workers: int = 1

    def __post_init__(self):
        if self.dimensions < 1:
            raise ValueError(f"dimensions must be positive, got {self.dimensions}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 < self.alpha0 < math.inf:  # also refuses NaN
            raise ValueError(f"alpha0 must be finite and > 0, got {self.alpha0}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def train_space(
    observations: Sequence[Observation],
    config: SpaceTrainConfig,
    provenance: str = "cf",
) -> EmbeddingSpace:
    """Learn item vectors by predicting each item's observations.

    Builds the vocabulary and Huffman tree, initializes item vectors
    uniformly in [-0.5/d, 0.5/d), then makes `config.iterations` passes over
    the observation stream. Each pass visits observations in a fresh seeded
    permutation and applies one hierarchical-softmax SGD step per
    observation; the learning rate decays linearly from alpha0 towards zero
    over all iterations x len(observations) steps, floored at alpha0 * 1e-4.
    The steps run in the compiled ``hs_pass`` of `native.kernels` (float32,
    equal to `hs_train_step` up to summation order), or through
    `hs_train_step` itself where no kernel can be built.

    Each pass is cut into `config.workers` contiguous shards of the
    permutation. One thread per shard runs every pass over its shard, with
    no barrier between passes, updating the shared item and node matrices
    without locking (Hogwild): races are tolerated and the result is not
    reproducible. workers=1 trains the single shard on the calling thread,
    deterministically. The numpy step holds the GIL, so without the kernel
    more workers only interleave. Raises SpaceRankError if training ends
    with non-finite item vectors (alpha0 too large).
    """
    observations = list(observations)
    if not observations:
        raise ValueError("cannot train a space on an empty observation stream")

    vocab = build_vocabulary(observations)
    tree = build_huffman(vocab)

    item_ids, obs_rows = np.unique([obs.item_id for obs in observations], return_inverse=True)
    d = config.dimensions

    rng = np.random.default_rng(config.seed)
    bound = 0.5 / d
    matrix = np.empty((len(item_ids), d), np.float32)
    for block in _row_blocks(matrix):  # the draws of one whole-matrix uniform, in order
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    nodes = new_node_matrix(tree, d)

    library = native.kernels()[0]
    if library is not None:
        token_ids = np.array([vocab.index[obs.token] for obs in observations], dtype=np.int32)
        paths = native.flat_paths(tree)

    n = len(observations)
    total_steps = config.iterations * n
    alpha0 = config.alpha0
    alpha_min = alpha0 * ALPHA_FLOOR
    edges = np.linspace(0, n, config.workers + 1, dtype=int).tolist()
    shards = list(zip(edges[:-1], edges[1:]))

    def train_shard(shard):
        shard_rng = copy.deepcopy(rng)  # so shards cut the same permutations on any thread
        grad = np.empty(d, dtype=np.float32)
        for pass_base in range(0, total_steps, n):
            perm = shard_rng.permutation(n)
            if library is not None:
                library.hs_pass(matrix, nodes, d, perm, *shard, obs_rows, token_ids, *paths,
                                pass_base, total_steps, alpha0, alpha_min, grad)
            else:
                for k in range(*shard):
                    i = perm[k]
                    alpha = max(alpha0 * (1.0 - (pass_base + k) / total_steps), alpha_min)
                    hs_train_step(matrix[obs_rows[i]], observations[i].token, vocab, tree, nodes, alpha)

    map_on_workers(train_shard, shards, config.workers)

    if not all(np.isfinite(block).all() for block in _row_blocks(matrix)):
        raise SpaceRankError(f"training diverged to non-finite item vectors at alpha0={alpha0}")
    return EmbeddingSpace(d, item_ids, matrix, provenance)


def build_vsm_space(
    ratings: Ratings | Iterable[RatingEvent], profiles: dict[int, UserProfile]
) -> EmbeddingSpace:
    """Normalized vector space with one dimension per user, over the rated items.

    Each item's coordinate for user u is binarize(rating, u's mean) where u
    rated the item and 0 elsewhere, held as int8 levels; the space reads
    each row scaled to unit Euclidean norm (see `EmbeddingSpace`), the
    float64 values of dividing the levels by their exact norm.
    """
    users, items, levels = rating_levels(ratings, profiles)
    user_axis = np.sort(np.fromiter(profiles, np.int64, len(profiles)))
    item_ids, rows = np.unique(items, return_inverse=True)
    matrix = np.zeros((len(item_ids), len(user_axis)), dtype=np.int8)
    matrix[rows, np.searchsorted(user_axis, users)] = levels
    return EmbeddingSpace(len(user_axis), item_ids, matrix, "vsm")


def _refuse_non_finite(space: EmbeddingSpace, path) -> None:
    if not all(np.isfinite(block).all() for block in _row_blocks(space.matrix)):
        raise FormatError(f"{path}: refusing to write a space with non-finite values")


def save_space(space: EmbeddingSpace, path) -> None:
    """Write one uncompressed ``.npz`` container at exactly `path`.

    Its entries are ``item_ids`` (int64), ``matrix`` (as held: float32 for
    trained spaces, int8 levels for vsm) and ``provenance`` (a 0-d string, ""
    for none), in `np.savez`'s bytes, each entry's buffer in one write.
    Raises FormatError, writing nothing, if any value is non-finite.
    """
    _refuse_non_finite(space, path)
    entries = {"item_ids": space.item_ids, "matrix": space.matrix, "provenance": np.array(space.provenance or "")}
    # np.savez(fh, ...) writes these bytes too, but copies each array through tobytes, up to 16 MiB at a time
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as container:
        for name, array in entries.items():
            with container.open(f"{name}.npy", "w", force_zip64=True) as member:
                npy.write_array_header_1_0(member, npy.header_data_from_array_1_0(array))
                member.write(array)  # C-ordered, as every entry is: the space's own arrays and a 0-d string


def load_space(path) -> EmbeddingSpace:
    """Read a `save_space` container back bit-exact, its matrix in row blocks, in its saved dtype.

    Raises FormatError on any other file (text spaces from earlier versions
    too: retrain them), a float64 matrix (vsm spaces from earlier versions:
    rebuild them), a damaged container, a missing entry, wrong dtypes or
    shapes, a matrix not C-ordered in npy 1.0 or not filling its entry, an
    unknown provenance, repeated item ids, non-finite values, levels outside
    0-2 or an all-zero row of levels.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise FormatError(
                f"{path}: not a space container; text spaces from earlier versions must be retrained"
            )
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz, npz.zip.open("matrix.npy") as member:
                # np.load hands back the raw bytes of an entry that is not an array
                item_ids, provenance = np.asarray(npz["item_ids"]), np.asarray(npz["provenance"])
                v1 = npy.read_magic(member) == (1, 0)  # the 1.0 reader cannot parse a later header
                shape, fortran_order, stored = npy.read_array_header_1_0(member) if v1 else ((), True, None)
                if stored == np.float64:
                    raise FormatError(f"{path}: a float64 matrix, as vsm spaces from earlier versions held; "
                                      "rebuild it with train-space --mode vsm")
                if not (v1 and not fortran_order and item_ids.dtype == np.int64 and item_ids.ndim == 1
                        and stored in (np.float32, np.int8) and len(shape) == 2
                        and provenance.dtype.kind == "U" and provenance.ndim == 0):
                    raise FormatError(f"{path}: entries must be 1-D int64 item_ids, a 2-D C-ordered float32 or "
                                      "int8 matrix in npy 1.0 and a 0-d string provenance")
                size = npz.zip.getinfo("matrix.npy").file_size - member.tell()
                if math.prod(shape) * stored.itemsize != size:
                    raise FormatError(f"{path}: a {shape} {stored} matrix cannot fill its {size}-byte entry")
                matrix = np.empty(shape, stored)
                for block in _row_blocks(matrix):
                    block[...] = np.frombuffer(member.read(block.size * stored.itemsize), stored).reshape(block.shape)
                    if not np.isfinite(block).all():
                        raise FormatError(f"{path}: space holds non-finite values")
        except KeyError as exc:
            raise FormatError(f"{path}: space container misses an entry: {exc}") from None
        except (zipfile.BadZipFile, EOFError, ValueError, OSError, NotImplementedError) as exc:
            raise FormatError(f"{path}: unreadable space container: {exc}") from None
    try:
        return EmbeddingSpace(matrix.shape[1], item_ids, matrix, str(provenance) or None)
    except ValueError as exc:  # no columns, ids and rows differ in count, unknown provenance, repeated ids, bad levels
        raise FormatError(f"{path}: {exc}") from None


def export_vectors(space: EmbeddingSpace, path) -> None:
    """Write the space as text for external projection tools.

    A header ``item_count d``, then ``item_id v_1 ... v_d`` per item, each
    value the repr of its float64 value (`EmbeddingSpace.row_values`), so it
    parses back bit-exact.
    No provenance is written. Raises FormatError, writing nothing, if any
    value is non-finite.
    """
    _refuse_non_finite(space, path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(space)} {space.dimensions}\n")
        for row, item_id in enumerate(space.item_ids.tolist()):
            fh.write(f"{item_id} " + " ".join(map(repr, space.row_values(row).tolist())) + "\n")
