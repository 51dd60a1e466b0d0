"""Huffman-coded hierarchical softmax: probabilities and SGD steps.

Instead of a flat softmax over every token, tokens sit at the leaves of a
binary Huffman tree and the model predicts the sequence of left/right
branch decisions from the root. Each internal node carries a trainable
vector; the probability of a token is the product of sigmoid branch
probabilities along its path, so frequent tokens (short codes) are cheap
and the leaf probabilities sum to one by construction.

Branch convention: code bit 0 maps to sigmoid target 1 ("positive"
routing), bit 1 to target 0. This is fixed so that serialized models are
portable.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import NoSuchTokenError


def sigmoid(x):
    """Numerically stable logistic function, elementwise.

    Inputs are clamped to +-500 so nothing overflows and the result never
    rounds down to zero, keeping its log finite.
    """
    x = np.clip(np.asarray(x, dtype=np.float64), -500.0, 500.0)
    out = 1.0 / (1.0 + np.exp(-x))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Vocabulary:
    """Observation tokens with occurrence counts, densely indexed.

    Iteration order is descending frequency, ties by first appearance in
    the observation stream.
    """

    tokens: tuple[str, ...]
    counts: np.ndarray  # int64, aligned with tokens
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.tokens)

    def token_id(self, token: str) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise NoSuchTokenError(f"token {token!r} not in vocabulary") from None


@dataclass(frozen=True)
class HuffmanTree:
    """Prefix-free binary codes and root-to-leaf paths for every token.

    ``codes[t]`` is the uint8 bit sequence for token t and ``paths[t]`` the
    internal-node indices visited from the root; both have equal length.
    A vocabulary of V tokens yields V - 1 internal nodes.
    """

    codes: tuple[np.ndarray, ...]
    paths: tuple[np.ndarray, ...]
    internal_count: int


def build_vocabulary(observations) -> Vocabulary:
    """Count token occurrences over a stream of ``(item, token)`` observations."""
    # most_common sorts stably, so equal counts keep the Counter's first-appearance order
    ordered = Counter(token for _, token in observations).most_common()
    return Vocabulary(
        tokens=tuple(t for t, _ in ordered),
        counts=np.array([c for _, c in ordered], dtype=np.int64),
        index={t: i for i, (t, _) in enumerate(ordered)},
    )


def build_huffman(vocab: Vocabulary) -> HuffmanTree:
    """Standard Huffman construction over the vocabulary frequencies.

    The two lowest-frequency nodes are merged repeatedly; ties are broken
    by node-creation index (leaves first, in vocabulary order), which makes
    the tree platform-independent. The lower node of each merge becomes the
    left child (code bit 0).
    """
    size = len(vocab)
    if size == 0:
        raise ValueError("cannot build a Huffman tree over an empty vocabulary")

    # Heap entries are (frequency, creation_index). Internal nodes are created as size,
    # size + 1, ..., so the last is the root; up[node] is (parent, branch bit), None at the root.
    heap = [(int(vocab.counts[i]), i) for i in range(size)]
    heapq.heapify(heap)
    up: list[tuple[int, int] | None] = [None] * (2 * size - 1)
    for parent in range(size, 2 * size - 1):
        freq_left, left = heapq.heappop(heap)
        freq_right, right = heapq.heappop(heap)
        up[left], up[right] = (parent, 0), (parent, 1)
        heapq.heappush(heap, (freq_left + freq_right, parent))

    codes, paths = [], []
    for leaf in range(size):  # walk up to the root, then read the code root first
        code, path, node = [], [], leaf
        while (step := up[node]) is not None:
            node, bit = step
            code.append(bit)
            path.append(node - size)
        codes.append(np.array(code[::-1], dtype=np.uint8))
        paths.append(np.array(path[::-1], dtype=np.int32))
    return HuffmanTree(tuple(codes), tuple(paths), size - 1)


def new_node_matrix(tree: HuffmanTree, dimensions: int) -> np.ndarray:
    """Zero-initialized internal-node vectors (the output-side weights).

    Zeros make every branch probability 0.5 before training, i.e. a uniform
    first prediction along each path.
    """
    return np.zeros((tree.internal_count, dimensions), dtype=np.float32)


def hs_probability(
    v: np.ndarray, token: str, vocab: Vocabulary, tree: HuffmanTree, nodes: np.ndarray
) -> float:
    """Probability of observing `token` given item vector `v`.

    The product of sigmoid branch decisions along the token's path;
    1.0, the empty product, for the degenerate one-token vocabulary (empty path).
    """
    t = vocab.token_id(token)
    path, code = tree.paths[t], tree.codes[t]
    x = nodes[path].astype(np.float64) @ np.asarray(v, dtype=np.float64)
    signs = 1.0 - 2.0 * code  # bit 0 -> +1, bit 1 -> -1
    return float(np.prod(sigmoid(signs * x)))


def hs_train_step(
    v: np.ndarray,
    token: str,
    vocab: Vocabulary,
    tree: HuffmanTree,
    nodes: np.ndarray,
    alpha: float,
) -> None:
    """One SGD step on -log hs_probability(v, token), in place.

    Per path node j with branch target t_j (1 for code bit 0, else 0), the
    error is e_j = sigmoid(v . n_j) - t_j. The gradient on `v` is
    accumulated against the pre-update node vectors, then node vectors and
    `v` are updated: n_j -= alpha * e_j * v and v -= alpha * sum_j e_j n_j.

    `v` must be a writable array (a row view of the embedding matrix is
    fine); `nodes` rows along the path are modified. An empty path changes nothing.
    """
    t = vocab.token_id(token)
    path, code = tree.paths[t], tree.codes[t]
    l2 = nodes[path]  # fancy indexing copies: these stay the pre-update vectors
    e = (sigmoid(l2 @ v) - (1.0 - code)).astype(np.float32)
    scaled = np.float32(alpha) * e
    grad = e @ l2
    nodes[path] = l2 - scaled[:, None] * v
    v -= np.float32(alpha) * grad
