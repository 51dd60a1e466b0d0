"""Deterministic validation/test sampling over the rating corpus.

Users are ordered by rating volume (most active first, ties by user id) and
each user's ratings by submission time (ties by item id). Every Nth rating
of that global sequence is marked; a user with n marked ratings contributes
her n temporally-latest events, the earlier half to validation and the later
half to test. Everything else is training data. The sampling keeps the
held-out set proportional to each user's rating volume.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .corpus import RatingEvent
from .errors import FormatError, ParseError

Pair = tuple[int, int]


class EvalSplit(NamedTuple):
    """Disjoint train/validation/test partition of (user_id, item_id) pairs."""

    train: frozenset[Pair]
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
            return frozenset(self.validation | self.test)
        raise ValueError(f"holdout must be 'test' or 'validation', got {holdout!r}")


def _user_event_order(events: Iterable[RatingEvent]) -> dict[int, list[RatingEvent]]:
    per_user: dict[int, list[RatingEvent]] = {}
    for e in events:
        per_user.setdefault(e.user_id, []).append(e)
    for user_events in per_user.values():
        user_events.sort(key=lambda e: (e.timestamp, e.item_id))
    return per_user


def _global_user_order(per_user: dict[int, list[RatingEvent]]) -> list[int]:
    # Most active users first; ties by ascending user id for determinism.
    return sorted(per_user, key=lambda uid: (-len(per_user[uid]), uid))


def mark_counts(events: Sequence[RatingEvent], every: int = 25) -> dict[int, int]:
    """Number of marked (held-out) ratings per user.

    Positions 25, 50, 75, ... of the global user-by-user rating sequence are
    marked; the count of marks landing inside each user's block is returned
    (users with zero marks included).
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    per_user = _user_event_order(events)
    counts = {uid: 0 for uid in per_user}
    position = 0
    for uid in _global_user_order(per_user):
        block = len(per_user[uid])
        # Marks in (position, position + block] are multiples of `every`.
        counts[uid] = (position + block) // every - position // every
        position += block
    return counts


def build_split(events: Sequence[RatingEvent], counts: dict[int, int]) -> EvalSplit:
    """Partition events into train/validation/test per the marked counts.

    A user with n > 0 marked ratings holds out her n temporally-latest
    events: the earlier ceil(n/2) go to validation, the later floor(n/2) to
    test (an odd leftover goes to validation). All other events are train.
    """
    per_user = _user_event_order(events)
    train: set[Pair] = set()
    validation: set[Pair] = set()
    test: set[Pair] = set()
    for uid, user_events in per_user.items():
        n = counts.get(uid, 0)
        if n > len(user_events):
            raise ValueError(
                f"user {uid}: {n} marked ratings but only {len(user_events)} events"
            )
        cut = len(user_events) - n
        train.update((e.user_id, e.item_id) for e in user_events[:cut])
        held = user_events[cut:]
        n_validation = (n + 1) // 2
        validation.update((e.user_id, e.item_id) for e in held[:n_validation])
        test.update((e.user_id, e.item_id) for e in held[n_validation:])
    return EvalSplit(frozenset(train), frozenset(validation), frozenset(test))


def test_targets(
    split: EvalSplit, events: Sequence[RatingEvent], which: str = "test"
) -> list[Pair]:
    """Held-out pairs whose raw rating is a 4 or a 5, each an evaluation target.

    Returned in a deterministic (user_id, item_id) order. ``which`` selects
    the test (default) or validation side of the split.
    """
    if which == "test":
        held = split.test
    elif which == "validation":
        held = split.validation
    else:
        raise ValueError(f"which must be 'test' or 'validation', got {which!r}")
    targets = [
        (e.user_id, e.item_id)
        for e in events
        if e.rating >= 4 and (e.user_id, e.item_id) in held
    ]
    targets.sort()
    return targets


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


def load_split(path, events: Sequence[RatingEvent]) -> EvalSplit:
    """Rebuild an EvalSplit from an exported file plus the corpus it covers.

    A pair listed twice, as the same kind or as both, raises ParseError at
    its second line: the sets must stay disjoint.
    """
    validation: set[Pair] = set()
    test: set[Pair] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[2] not in ("validation", "test"):
                raise ParseError(path, line_no, f"bad split line {line!r}")
            try:
                pair = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError(path, line_no, f"non-integer ids in {line!r}") from None
            if pair in validation or pair in test:
                raise ParseError(path, line_no, f"pair {pair} is listed twice")
            (validation if parts[2] == "validation" else test).add(pair)
    all_pairs = {(e.user_id, e.item_id) for e in events}
    held = validation | test
    if not held <= all_pairs:
        missing = next(iter(held - all_pairs))
        raise FormatError(f"{path}: held-out pair {missing} not present in the corpus")
    return EvalSplit(frozenset(all_pairs - held), frozenset(validation), frozenset(test))
