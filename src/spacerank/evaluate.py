"""Recall@k evaluation and paired McNemar significance between systems.

Every held-out liked item is one binary trial: did it appear in the
system's top-k for its user? Recall@k is the hit fraction; two systems
are compared by an exact one-tailed binomial McNemar test over the
targets where exactly one of them hit.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Callable, NamedTuple, Sequence

from .corpus import _lines
from .errors import FormatError, UndefinedTestError

Target = tuple[int, int]


class HitRecord(NamedTuple):
    target: Target
    hit: bool


class ContingencyTable(NamedTuple):
    """Paired outcome counts: neither hit, only B, only A, both."""

    n00: int
    n01: int
    n10: int
    n11: int

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11


class EvalResult(NamedTuple):
    recall: float
    records: tuple[HitRecord, ...]
    skipped: tuple[Target, ...]


def recall_at_k(hits: Sequence[HitRecord]) -> float:
    """Fraction of targets retrieved in the top-k."""
    if not hits:
        raise ValueError("recall undefined over zero targets")
    return sum(1 for h in hits if h.hit) / len(hits)


def map_on_workers(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(x) for x in items]``, on the calling thread at one worker, else on a pool of
    `workers` threads (``concurrent.futures`` loads only then). A call's exception propagates."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return list(map(fn, items))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def evaluate_system(
    topk_for_user: Callable[[int], Sequence[int] | None],
    targets: Sequence[Target],
    k: int = 10,
    workers: int = 1,
) -> EvalResult:
    """Run one system over the evaluation targets.

    `topk_for_user` takes one user and returns their top-k item list, or
    None for a user it cannot rank (no training ratings, nothing usable in
    the space). It is called once per user, for the users in ascending
    order, by `map_on_workers`; users are ranked in parallel only while the
    provider releases the GIL, as the compiled ranker pass does.
    A user's list depends on the user alone, so the results do not depend
    on the worker count. The list is reused across the user's targets; an
    unranked user's targets are skipped and reported rather than counted
    as misses.
    """
    users = sorted({user_id for user_id, _ in targets})
    ranked = map_on_workers(topk_for_user, users, workers)
    tops = {u: None if top is None else list(top)[:k] for u, top in zip(users, ranked)}
    records: list[HitRecord] = []
    skipped: list[Target] = []
    for user_id, item_id in targets:
        top = tops[user_id]
        if top is None:
            skipped.append((user_id, item_id))
        else:
            records.append(HitRecord((user_id, item_id), item_id in top))
    if not records:
        raise ValueError("no evaluable targets (all users were skipped)")
    return EvalResult(recall_at_k(records), tuple(records), tuple(skipped))


def contingency(
    records_a: Sequence[HitRecord], records_b: Sequence[HitRecord]
) -> ContingencyTable:
    """Pair two systems' hit records over the identical target sequence."""
    if [r.target for r in records_a] != [r.target for r in records_b]:
        raise ValueError("systems were evaluated on different target sequences")
    tally = Counter((bool(ra.hit), bool(rb.hit)) for ra, rb in zip(records_a, records_b))
    return ContingencyTable(tally[False, False], tally[False, True], tally[True, False], tally[True, True])


def mcnemar_one_tailed(table: ContingencyTable) -> float:
    """Exact one-tailed McNemar p-value that system A beats system B.

    Under the null the n10 + n01 discordant targets fall either way with
    probability 1/2; the p-value is P(X >= n10) for X ~ Binomial(n10+n01, 1/2),
    computed with exact integer arithmetic.
    """
    n = table.n10 + table.n01
    if n == 0:
        raise UndefinedTestError("no discordant pairs: the paired test is undefined")
    favourable = sum(comb(n, i) for i in range(table.n10, n + 1))
    return favourable / 2**n


def save_results(records: Sequence[HitRecord], path, k: int = 10) -> None:
    """One ``user<TAB>item<TAB>{0|1}`` line per target, then the recall summary."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            fh.write(f"{r.target[0]}\t{r.target[1]}\t{int(r.hit)}\n")
        fh.write(f"recall@{k}\t{recall_at_k(records)!r}\n")


def load_results(path) -> list[HitRecord]:
    records: list[HitRecord] = []
    saw_summary = False
    for line_no, line in _lines(path):
        parts = line.split("\t")
        if parts[0].startswith("recall@"):
            saw_summary = True
            continue
        if saw_summary or len(parts) != 3 or parts[2] not in ("0", "1"):
            raise FormatError(f"{path}:{line_no}: bad results line {line!r}")
        try:
            target = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise FormatError(f"{path}:{line_no}: bad results line {line!r}") from None
        records.append(HitRecord(target, parts[2] == "1"))
    if not saw_summary:
        raise FormatError(f"{path}: missing recall summary line")
    return records
