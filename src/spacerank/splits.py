"""Deterministic validation/test sampling over the rating corpus.

Users are ordered by rating volume (most active first, ties by user id) and
each user's ratings by submission time (ties by item id). Every Nth rating
of that global sequence is marked; a user with n marked ratings contributes
her n temporally-latest events, the earlier half to validation and the later
half to test. Everything else is training data, left implicit: a split
holds only its held-out pairs. The sampling keeps the held-out set
proportional to each user's rating volume.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .corpus import RatingEvent, Ratings, _lines, as_ratings, held_mask
from .errors import FormatError, ParseError

Pair = tuple[int, int]


class EvalSplit(NamedTuple):
    """Disjoint validation and test sets of (user_id, item_id) pairs; the rest is train."""

    validation: frozenset[Pair]
    test: frozenset[Pair]

    def held_out(self, holdout: str) -> frozenset[Pair]:
        """Pairs excluded from training under the given evaluation regime.

        ``holdout="test"`` excludes only the test pairs (final evaluation,
        models may train on validation data); ``holdout="validation"``
        excludes validation and test pairs (tuning runs).
        """
        if holdout == "test":
            return self.test
        if holdout == "validation":
            return self.validation | self.test
        raise ValueError(f"holdout must be 'test' or 'validation', got {holdout!r}")


def mark_counts(events: Sequence[RatingEvent], every: int = 25) -> dict[int, int]:
    """Number of marked (held-out) ratings per user.

    Positions 25, 50, 75, ... of the global user-by-user rating sequence are
    marked; the count of marks landing inside each user's block is returned
    (users with zero marks included).
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    volume = Counter(e.user_id for e in events)
    counts = dict.fromkeys(volume, 0)
    position = 0
    # Most active users first; ties by ascending user id for determinism.
    for uid, block in sorted(volume.items(), key=lambda kv: (-kv[1], kv[0])):
        # Marks in (position, position + block] are multiples of `every`.
        counts[uid] = (position + block) // every - position // every
        position += block
    return counts


def build_split(events: Sequence[RatingEvent], counts: dict[int, int]) -> EvalSplit:
    """Hold out validation and test events per the marked counts.

    A user with n > 0 marked ratings holds out her n temporally-latest
    events (ties by item id): the earlier ceil(n/2) go to validation, the
    later floor(n/2) to test (an odd leftover goes to validation). All other
    events are train.
    """
    per_user: dict[int, list[RatingEvent]] = {}
    for e in events:
        per_user.setdefault(e.user_id, []).append(e)
    validation: set[Pair] = set()
    test: set[Pair] = set()
    for uid, user_events in per_user.items():
        n = counts.get(uid, 0)
        if n > len(user_events):
            raise ValueError(
                f"user {uid}: {n} marked ratings but only {len(user_events)} events"
            )
        user_events.sort(key=lambda e: (e.timestamp, e.item_id))
        held = user_events[len(user_events) - n:]
        n_validation = (n + 1) // 2
        validation.update((e.user_id, e.item_id) for e in held[:n_validation])
        test.update((e.user_id, e.item_id) for e in held[n_validation:])
    return EvalSplit(frozenset(validation), frozenset(test))


def test_targets(
    split: EvalSplit, ratings: Ratings | Sequence[RatingEvent], which: str = "test"
) -> list[Pair]:
    """Held-out pairs whose raw rating is a 4 or a 5, each an evaluation target.

    Returned in a deterministic (user_id, item_id) order. ``which`` selects
    the test (default) or validation side of the split.
    """
    if which not in EvalSplit._fields:
        raise ValueError(f"which must be 'test' or 'validation', got {which!r}")
    ratings = as_ratings(ratings)
    targets = ratings.select((ratings.rating >= 4) & held_mask(ratings, getattr(split, which)))
    return sorted(zip(targets.user.tolist(), targets.item.tolist()))


def save_split(split: EvalSplit, path) -> None:
    """Write held-out pairs as ``user<TAB>item<TAB>{validation|test}`` lines.

    Train pairs are implicit (corpus minus held-out). Lines are sorted by
    (user_id, item_id) so identical splits produce byte-identical files.
    """
    rows = [(u, i, "validation") for u, i in split.validation]
    rows += [(u, i, "test") for u, i in split.test]
    rows.sort()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user_id, item_id, kind in rows:
            fh.write(f"{user_id}\t{item_id}\t{kind}\n")


def load_split(path, ratings: Ratings | Sequence[RatingEvent]) -> EvalSplit:
    """Rebuild an EvalSplit from an exported file plus the corpus it covers.

    A pair listed twice, as the same kind or as both, raises ParseError at
    its second line: the sets must stay disjoint. A pair the corpus does
    not hold raises FormatError naming the first such pair in file order.
    """
    kinds: dict[Pair, str] = {}
    for line_no, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in ("validation", "test"):
            raise ParseError(path, line_no, f"bad split line {line!r}")
        try:
            pair = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ParseError(path, line_no, f"non-integer ids in {line!r}") from None
        if pair in kinds:
            raise ParseError(path, line_no, f"pair {pair} is listed twice")
        kinds[pair] = parts[2]
    ratings = as_ratings(ratings)
    int64 = [(u, i) for u, i in kinds if -2**63 <= u < 2**63 and -2**63 <= i < 2**63]  # no corpus holds the rest
    found = ratings.select(held_mask(ratings, int64))
    found = set(zip(found.user.tolist(), found.item.tolist()))
    missing = next((pair for pair in kinds if pair not in found), None)
    if missing is not None:
        raise FormatError(f"{path}: held-out pair {missing} not present in the corpus")
    validation = frozenset(p for p, kind in kinds.items() if kind == "validation")
    return EvalSplit(validation, frozenset(kinds.keys() - validation))
