import re

import pytest

from spacerank.cli import main
from spacerank.corpus import RatingEvent, load_ratings
from spacerank.errors import FormatError, ParseError
from spacerank.splits import EvalSplit, build_split, load_split, mark_counts, save_split
from spacerank.splits import test_targets as targets_of


def user_events(user_id, n, rating=4, t0=0):
    return [RatingEvent(user_id, 100 * user_id + i, rating, t0 + i) for i in range(n)]


def implicit_train(split, events):
    """The train pairs a split leaves implicit: every corpus pair it does not hold out."""
    return {(e.user_id, e.item_id) for e in events} - split.validation - split.test


class TestMarkCounts:
    def test_no_25th_element(self):
        events = user_events(1, 24)
        assert mark_counts(events) == {1: 0}

    def test_single_user_50(self):
        assert mark_counts(user_events(1, 50)) == {1: 2}

    def test_total_marks_is_floor(self):
        events = user_events(1, 30) + user_events(2, 42) + user_events(3, 11)
        counts = mark_counts(events)
        assert sum(counts.values()) == (30 + 42 + 11) // 25

    def test_most_active_user_first(self):
        # 30 + 20 events: marks at global positions 25 and 50. With user 2
        # (30 events) ordered first, position 25 is hers and 50 is user 1's.
        events = user_events(1, 20) + user_events(2, 30)
        assert mark_counts(events) == {1: 1, 2: 1}

    def test_count_tie_broken_by_user_id(self):
        # Equal rating counts: user 1 must be ordered first, so the single
        # mark at global position 10 lands in user 2's block.
        events = user_events(2, 5) + user_events(1, 5)
        assert mark_counts(events, every=10) == {1: 0, 2: 1}

    def test_custom_interval(self):
        assert mark_counts(user_events(1, 10), every=3) == {1: 3}


class TestBuildSplit:
    def test_two_marked_of_ten(self):
        events = user_events(1, 10)
        split = build_split(events, {1: 2})
        assert split.validation == {(1, 108)}
        assert split.test == {(1, 109)}
        assert len(implicit_train(split, events)) == 8

    def test_odd_count_favours_validation(self):
        events = user_events(1, 10)
        split = build_split(events, {1: 3})
        assert split.validation == {(1, 107), (1, 108)}
        assert split.test == {(1, 109)}

    def test_unmarked_user_all_train(self):
        events = user_events(1, 5)
        split = build_split(events, {1: 0})
        assert implicit_train(split, events) == {(e.user_id, e.item_id) for e in events}
        assert not split.validation and not split.test

    def test_partition_and_temporal_invariants(self):
        events = []
        for uid in range(1, 9):
            events += user_events(uid, 10 + 3 * uid, rating=1 + uid % 5)
        counts = mark_counts(events, every=7)
        split = build_split(events, counts)
        all_pairs = {(e.user_id, e.item_id) for e in events}
        train = implicit_train(split, events)
        assert split.validation | split.test <= all_pairs
        assert not split.validation & split.test
        assert len(split.validation) == sum((n + 1) // 2 for n in counts.values())
        assert len(split.test) == sum(n // 2 for n in counts.values())
        ts = {(e.user_id, e.item_id): e.timestamp for e in events}
        for uid in range(1, 9):
            train_ts = [ts[p] for p in train if p[0] == uid]
            held_ts = [ts[p] for p in (split.validation | split.test) if p[0] == uid]
            if train_ts and held_ts:
                assert min(held_ts) >= max(train_ts)


class TestTestTargets:
    def test_rating_filter(self):
        events = [
            RatingEvent(1, 1, 3, 0),
            RatingEvent(1, 2, 5, 1),
            RatingEvent(1, 3, 4, 2),
        ]
        split = build_split(events, {1: 3})
        # all three held out: 2 to validation (items 1,2), 1 to test (item 3)
        assert targets_of(split, events) == [(1, 3)]
        assert targets_of(split, events, which="validation") == [(1, 2)]

    def test_rated_3_excluded(self):
        events = [RatingEvent(1, 1, 4, 0), RatingEvent(1, 2, 3, 1)]
        split = build_split(events, {1: 1})
        assert targets_of(split, events, which="validation") == []


class TestSplitFile:
    def test_round_trip_and_determinism(self, tmp_path):
        events = []
        for uid in range(1, 6):
            events += user_events(uid, 20 + uid)
        split = build_split(events, mark_counts(events, every=9))
        path_a, path_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_split(split, path_a)
        save_split(split, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert load_split(path_a, events) == split

    def test_unknown_pair_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("9\t9\ttest\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_split(path, user_events(1, 3))

    @pytest.mark.parametrize("lines, named", [
        (["9\t900\ttest", "1\t100\ttest", "3\t7\tvalidation"], (9, 900)),
        (["3\t7\tvalidation", "1\t100\ttest", "9\t900\ttest"], (3, 7)),
        (["1\t100\ttest", f"{2**64}\t1\ttest", "3\t7\tvalidation"], (2**64, 1)),  # outside int64
        (["1\t100\ttest", "1\t999\tvalidation"], (1, 999)),  # as many corpus rows match as pairs are held
    ])
    def test_first_unknown_pair_in_file_order_named(self, tmp_path, lines, named):
        path = tmp_path / "s.tsv"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        corpus = [*user_events(1, 3), RatingEvent(1, 100, 5, 9)]  # holds (1, 100) twice
        with pytest.raises(FormatError, match=re.escape(f"held-out pair {named} not present")):
            load_split(path, corpus)

    @pytest.mark.parametrize("kinds", [("validation", "test"), ("test", "test")], ids=["both kinds", "same kind"])
    def test_pair_listed_twice_rejected_at_second_line(self, tmp_path, kinds):
        path = tmp_path / "s.tsv"
        path.write_text(f"1\t100\t{kinds[0]}\n1\t101\ttest\n1\t100\t{kinds[1]}\n", encoding="utf-8")
        with pytest.raises(ParseError) as refused:
            load_split(path, user_events(1, 3))
        assert refused.value.line_no == 3

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_and_blank_lines(self, tmp_path, end):
        # Every line end reads as LF; blank lines are skipped but counted.
        events, path = user_events(1, 3), tmp_path / "s.tsv"
        path.write_bytes(f"{end}1\t100\tvalidation{end}{end}1\t101\ttest{end}{end}".encode())
        assert load_split(path, events) == EvalSplit(frozenset({(1, 100)}), frozenset({(1, 101)}))
        path.write_bytes(f"{end}1\t100\tvalidation{end}{end}1\t101{end}".encode())
        with pytest.raises(ParseError) as refused:
            load_split(path, events)
        assert refused.value.line_no == 4

    def test_evaluate_exits_two_on_a_pair_listed_twice(self, pipeline, tmp_path, capsys):
        lines = pipeline["split"].read_text(encoding="utf-8").splitlines()
        validation = next(line for line in lines if line.endswith("\tvalidation"))
        split = tmp_path / "split.tsv"
        split.write_text("\n".join([*lines, validation.replace("validation", "test")]) + "\n", encoding="utf-8")
        code = main(["evaluate", "--system", "pop", "--ratings", str(pipeline["ratings"]),
                     "--split", str(split), "--out", str(tmp_path / "pop.results")])
        assert code == 2
        assert f"{split}:{len(lines) + 1}: pair" in capsys.readouterr().err
        assert not (tmp_path / "pop.results").exists()


class TestDeterminismAcrossRuns:
    def test_identical_corpus_identical_split(self, mini_corpus):
        ratings_path, _ = mini_corpus
        events = load_ratings(ratings_path)
        first = build_split(events, mark_counts(events))
        second = build_split(list(events), mark_counts(list(events)))
        assert first == second
