"""Rating and review ingestion, user statistics, and observation streams.

Ratings arrive as ``UserID::MovieID::Rating::Timestamp`` lines; reviews as
``item_id<TAB>text`` lines. Both are turned into a flat stream of
(item_id, token) observations that the embedding trainer consumes:
a rating becomes a single token ``user{uid}_rating{1|2}`` after binarizing
against the user's mean, and review text becomes one token per word.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import NoSuchUserError, ParseError, ValidationError

if TYPE_CHECKING:
    import numpy as np

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


class RatingEvent(NamedTuple):
    """One (user, item, rating, timestamp) interaction on a 1-5 scale."""

    user_id: int
    item_id: int
    rating: int
    timestamp: int


class UserProfile(NamedTuple):
    """Per-user statistics over the training portion of the corpus."""

    user_id: int
    mean_rating: float
    rating_count: int


class ReviewDocument(NamedTuple):
    """Concatenated review text for one item, stripped of ratings and usernames."""

    item_id: int
    text: str


class Observation(NamedTuple):
    """One (item_id, token) training pair."""

    item_id: int
    token: str


def load_ratings(path) -> list[RatingEvent]:
    """Parse a ``::``-separated ratings file into events, in file order.

    A malformed line raises :class:`ParseError` naming the line number, a
    repeated (user, item) pair :class:`ValidationError`.
    """
    events: list[RatingEvent] = []
    seen: set[tuple[int, int]] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 4:
                raise ParseError(path, line_no, f"expected 4 '::'-separated fields, got {len(parts)}")
            try:
                event = RatingEvent._make(map(int, parts))
            except ValueError:
                raise ParseError(path, line_no, f"non-integer field in {line!r}") from None
            if not 1 <= event.rating <= 5:
                raise ParseError(path, line_no, f"rating {event.rating} outside [1,5]")
            pair = (event.user_id, event.item_id)
            if pair in seen:
                raise ValidationError(
                    f"{path}:{line_no}: duplicate rating for user {event.user_id}, item {event.item_id}"
                )
            seen.add(pair)
            events.append(event)
    return events


def load_reviews(path) -> list[ReviewDocument]:
    """Parse an ``item_id<TAB>text`` reviews file, one document per item.

    Multiple lines for the same item are concatenated with a single space,
    preserving first-appearance order of items.
    """
    texts: dict[int, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            item_field, sep, text = line.partition("\t")
            if not sep:
                raise ParseError(path, line_no, "expected 'item_id<TAB>text'")
            try:
                item_id = int(item_field)
            except ValueError:
                raise ParseError(path, line_no, f"non-integer item id {item_field!r}") from None
            texts.setdefault(item_id, []).append(text)
    return [ReviewDocument(item_id, " ".join(parts)) for item_id, parts in texts.items()]


def build_profiles(events: Iterable[RatingEvent]) -> dict[int, UserProfile]:
    """UserProfile per user over the supplied (training) events."""
    totals: dict[int, list[int]] = {}
    for e in events:
        acc = totals.setdefault(e.user_id, [0, 0])
        acc[0] += e.rating
        acc[1] += 1
    return {
        uid: UserProfile(uid, total / count, count)
        for uid, (total, count) in totals.items()
    }


def binarize(rating: int, mean: float) -> int:
    """Map a raw rating to 1 (below the user's mean) or 2 (equal or above)."""
    return 2 if rating >= mean else 1


def _level(event: RatingEvent, profiles: dict[int, UserProfile]) -> int:
    if event.user_id not in profiles:
        raise NoSuchUserError(f"no profile for user {event.user_id}")
    return binarize(event.rating, profiles[event.user_id].mean_rating)


def rating_levels(
    events: Iterable[RatingEvent], profiles: dict[int, UserProfile]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """User ids, item ids and binarize levels of the events, as aligned arrays.

    Raises NoSuchUserError for an event whose user has no profile.
    """
    import numpy as np  # the only numpy use here: split and mcnemar never load it

    events = list(events)
    n = len(events)
    return (
        np.fromiter((e.user_id for e in events), np.int64, n),
        np.fromiter((e.item_id for e in events), np.int64, n),
        np.fromiter((_level(e, profiles) for e in events), np.int8, n),
    )


def ratings_to_observations(
    events: Iterable[RatingEvent], profiles: dict[int, UserProfile]
) -> list[Observation]:
    """One ``user{uid}_rating{1|2}`` observation per rating event."""
    return [Observation(e.item_id, f"user{e.user_id}_rating{_level(e, profiles)}") for e in events]


def reviews_to_observations(docs: Iterable[ReviewDocument]) -> list[Observation]:
    """One observation per word occurrence, lowercased, duplicates preserved.

    A word is a maximal run of alphanumeric characters; punctuation and
    underscores split tokens. No stopword removal, no stemming.
    """
    out = []
    for doc in docs:
        for token in _WORD_RE.findall(doc.text.lower()):
            out.append(Observation(doc.item_id, token))
    return out
