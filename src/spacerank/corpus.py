"""Rating and review ingestion, user statistics, and observation streams.

Ratings arrive as ``UserID::MovieID::Rating::Timestamp`` lines; reviews as
``item_id<TAB>text`` lines. Both are turned into a flat stream of
(item_id, token) observations that the embedding trainer consumes:
a rating becomes a single token ``user{uid}_rating{1|2}`` after binarizing
against the user's mean, and review text becomes one token per word.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .errors import NoSuchUserError, ParseError, ValidationError

if TYPE_CHECKING:
    import numpy as np

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
# After a newline, a line neither blank nor canonical (see load_rating_columns);
# one line at a time, so no backtracking state builds up over the file.
_NON_CANONICAL_LINE = re.compile(rb"\n(?!(?:[0-9]{1,18}::[0-9]{1,18}::[1-5]::[0-9]{1,18})?(?:\r?\n|\Z))")


class RatingEvent(NamedTuple):
    """One (user, item, rating, timestamp) interaction on a 1-5 scale."""

    user_id: int
    item_id: int
    rating: int
    timestamp: int


class Ratings(NamedTuple):
    """Aligned int64 columns of rating events, one row per event in file order."""

    user: np.ndarray
    item: np.ndarray
    rating: np.ndarray
    timestamp: np.ndarray

    def select(self, rows) -> Ratings:
        """The rows at `rows` (a mask, index array or slice), columns kept aligned."""
        return Ratings(*(column[rows] for column in self))


def as_ratings(events: Ratings | Iterable[RatingEvent]) -> Ratings:
    """`events` as columns: a `Ratings` as is, RatingEvents in their order."""
    if isinstance(events, Ratings):
        return events
    import numpy as np

    events = list(events)
    flat = np.fromiter(chain.from_iterable(events), np.int64, 4 * len(events))
    return Ratings(*np.ascontiguousarray(flat.reshape(-1, 4).T))


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


def _lines(path) -> Iterator[tuple[int, str]]:
    """``(line_no, line)`` for each non-blank line of a UTF-8 file; LF, CRLF and CR end lines alike."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line := line.rstrip("\n"):
                yield line_no, line


def load_ratings(path) -> list[RatingEvent]:
    """Parse a ``::``-separated ratings file into events, in file order.

    A malformed line raises :class:`ParseError` naming the line number, a
    repeated (user, item) pair :class:`ValidationError`.
    """
    events: list[RatingEvent] = []
    seen: set[tuple[int, int]] = set()
    for line_no, line in _lines(path):
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


def load_rating_columns(path) -> Ratings:
    """`load_ratings` as columns, parsed in one numpy call if the file is canonical.

    Canonical means ASCII-digit fields of at most 18 digits, ratings 1-5, LF
    or CRLF line ends (blank lines allowed) and no repeated (user, item)
    pair. Any other file goes through `load_ratings`, the reference, which
    raises its error or reads the lenient forms ``int`` accepts; a value
    outside int64 then raises ValidationError.
    """
    import numpy as np

    with open(path, "rb") as fh:
        text = fh.read()
    if not _NON_CANONICAL_LINE.search(b"\n" + text):  # stripped: numpy reads blank-only text as [0]
        text = text.replace(b":", b" ").strip()  # the file's bytes go once this copy is made
        values = np.fromstring(text, dtype=np.int64, sep=" ")
        del text
        ratings = Ratings(*np.ascontiguousarray(values.reshape(-1, 4).T))
        del values
        if np.all(np.diff(np.sort(pair_codes(ratings.user, ratings.item)))):  # no repeated pair
            return ratings
    try:
        return as_ratings(load_ratings(path))
    except OverflowError:
        raise ValidationError(f"{path}: a field is outside the 64-bit integer range") from None


def pair_codes(user: np.ndarray, item: np.ndarray) -> np.ndarray:
    """One non-negative int64 per (user, item) pair, equal exactly where the pairs are equal."""
    import numpy as np

    if not (len(user) and min(user.min(), item.min()) >= 0 and user.max() < 2**32 and item.max() < 2**31):
        user, item = (np.unique(ids, return_inverse=True)[1] for ids in (user, item))  # number densely
    return user << 31 | item


def held_mask(ratings: Ratings, pairs) -> np.ndarray:
    """Mask of the ratings whose (user, item) pair is one of `pairs`, a collection of pairs."""
    import numpy as np

    held = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2)
    n = len(ratings.user)
    codes = pair_codes(np.concatenate([ratings.user, held[:, 0]]), np.concatenate([ratings.item, held[:, 1]]))
    ours, held = codes[:n], np.sort(codes[n:])
    return np.append(held, -1)[np.searchsorted(held, ours)] == ours  # -1 is no pair's code


def load_reviews(path) -> list[ReviewDocument]:
    """Parse an ``item_id<TAB>text`` reviews file, one document per item.

    Multiple lines for the same item are concatenated with a single space,
    preserving first-appearance order of items.
    """
    texts: dict[int, list[str]] = {}
    for line_no, line in _lines(path):
        item_field, sep, text = line.partition("\t")
        if not sep:
            raise ParseError(path, line_no, "expected 'item_id<TAB>text'")
        try:
            item_id = int(item_field)
        except ValueError:
            raise ParseError(path, line_no, f"non-integer item id {item_field!r}") from None
        texts.setdefault(item_id, []).append(text)
    return [ReviewDocument(item_id, " ".join(parts)) for item_id, parts in texts.items()]


def build_profiles(ratings: Ratings | Iterable[RatingEvent]) -> dict[int, UserProfile]:
    """UserProfile per user over the supplied (training) ratings, users ascending."""
    import numpy as np

    ratings = as_ratings(ratings)
    users, rows, counts = np.unique(ratings.user, return_inverse=True, return_counts=True)
    totals = np.bincount(rows, weights=ratings.rating, minlength=len(users))  # exact below 2**53
    return {
        uid: UserProfile(uid, total / count, count)
        for uid, total, count in zip(users.tolist(), totals.tolist(), counts.tolist())
    }


def binarize(rating, mean):
    """Map a raw rating to 1 (below the user's mean) or 2 (equal or above), elementwise on arrays."""
    return 1 + (rating >= mean)


def rating_levels(
    ratings: Ratings | Iterable[RatingEvent], profiles: dict[int, UserProfile]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """User ids, item ids and binarize levels of the ratings, as aligned arrays.

    Raises NoSuchUserError for the first rating whose user has no profile,
    ValidationError for the first that repeats a (user, item) pair.
    """
    import numpy as np

    ratings = as_ratings(ratings)
    users, rows = np.unique(ratings.user, return_inverse=True)
    unknown = [u for u in users.tolist() if u not in profiles]
    if unknown:
        raise NoSuchUserError(f"no profile for user {ratings.user[np.isin(ratings.user, unknown)][0]}")
    codes = pair_codes(ratings.user, ratings.item)
    if not np.all(np.diff(np.sort(codes))):
        i = np.setdiff1d(np.arange(len(codes)), np.unique(codes, return_index=True)[1])[0]
        raise ValidationError(f"duplicate rating for user {ratings.user[i]}, item {ratings.item[i]}")
    means = np.array([profiles[u].mean_rating for u in users.tolist()], dtype=np.float64)
    return ratings.user, ratings.item, binarize(ratings.rating, means[rows]).astype(np.int8)


def ratings_to_observations(
    ratings: Ratings | Iterable[RatingEvent], profiles: dict[int, UserProfile]
) -> list[Observation]:
    """One ``user{uid}_rating{1|2}`` observation per rating, in order."""
    users, items, levels = (a.tolist() for a in rating_levels(ratings, profiles))
    return list(map(Observation, items, [f"user{u}_rating{level}" for u, level in zip(users, levels)]))


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
