import re
import sys
import threading
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spacerank.errors import FormatError, UndefinedTestError
from spacerank.evaluate import (
    ContingencyTable,
    HitRecord,
    contingency,
    evaluate_system,
    load_results,
    mcnemar_one_tailed,
    recall_at_k,
    save_results,
)


def brute_force_mcnemar(n10: int, n01: int) -> float:
    """Enumerate every assignment of the discordant targets.

    Each of the n10 + n01 discordant targets independently favours either
    system with probability 1/2 under the null; the p-value is the fraction
    of assignments where at least n10 favour system A.
    """
    n = n10 + n01
    favourable = sum(1 for bits in product((0, 1), repeat=n) if sum(bits) >= n10)
    return favourable / 2**n


class TestRecall:
    def test_three_of_ten(self):
        records = [HitRecord((1, i), i < 3) for i in range(10)]
        assert recall_at_k(records) == pytest.approx(0.3)

    def test_all_hits(self):
        assert recall_at_k([HitRecord((1, 1), True)] * 4) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([])

    def test_guaranteed_miss_decreases_recall(self):
        records = [HitRecord((1, i), True) for i in range(5)]
        with_miss = records + [HitRecord((2, 9), False)]
        assert recall_at_k(with_miss) < recall_at_k(records)


class TestMcNemar:
    def test_balanced_discordance(self):
        # 2510 of the 4096 assignments of 12 discordant targets reach >= 6
        p = mcnemar_one_tailed(ContingencyTable(0, 6, 6, 0))
        assert p == 2510 / 4096
        assert p == pytest.approx(0.6128, abs=5e-5)

    def test_ten_versus_two(self):
        p = mcnemar_one_tailed(ContingencyTable(5, 2, 10, 3))
        assert p == 79 / 4096
        assert p == pytest.approx(0.0193, abs=5e-5)

    def test_zero_wins_p_one(self):
        assert mcnemar_one_tailed(ContingencyTable(0, 5, 0, 0)) == 1.0

    def test_zero_discordant_undefined(self):
        with pytest.raises(UndefinedTestError):
            mcnemar_one_tailed(ContingencyTable(3, 0, 0, 7))

    def test_matches_brute_force_enumeration(self):
        for n10 in range(0, 9):
            for n01 in range(0, 9):
                if n10 + n01 == 0:
                    continue
                exact = mcnemar_one_tailed(ContingencyTable(0, n01, n10, 0))
                assert exact == brute_force_mcnemar(n10, n01)

    def test_swapping_systems(self):
        table = ContingencyTable(1, 3, 8, 2)
        swapped = ContingencyTable(1, 8, 3, 2)
        assert mcnemar_one_tailed(swapped) == brute_force_mcnemar(3, 8)
        # one-tailed coverage in both directions overlaps only at the mass
        # of the observed counts, so the sum exceeds 1 by at most that mass
        assert mcnemar_one_tailed(table) + mcnemar_one_tailed(swapped) >= 1.0


class TestContingency:
    def test_counts(self):
        targets = [(u, 1) for u in range(4)]
        hits_a = [HitRecord(t, h) for t, h in zip(targets, (True, True, False, False))]
        hits_b = [HitRecord(t, h) for t, h in zip(targets, (True, False, True, False))]
        table = contingency(hits_a, hits_b)
        assert (table.n11, table.n10, table.n01, table.n00) == (1, 1, 1, 1)
        assert table.total == 4

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=60))
    @settings(max_examples=200, deadline=None)
    @example([])
    def test_matches_four_branch_tally(self, hits):
        n00 = n01 = n10 = n11 = 0
        for hit_a, hit_b in hits:
            if hit_a and hit_b:
                n11 += 1
            elif hit_a:
                n10 += 1
            elif hit_b:
                n01 += 1
            else:
                n00 += 1
        targets = [(u, 3) for u in range(len(hits))]
        table = contingency([HitRecord(t, a) for t, (a, _) in zip(targets, hits)],
                            [HitRecord(t, b) for t, (_, b) in zip(targets, hits)])
        assert table == ContingencyTable(n00, n01, n10, n11)
        assert all(type(n) is int for n in table) and table.total == len(hits)

    def test_target_mismatch_rejected(self):
        a = [HitRecord((1, 1), True)]
        b = [HitRecord((2, 1), True)]
        with pytest.raises(ValueError):
            contingency(a, b)


class TestEvaluateSystem:
    def test_single_target_hit(self):
        result = evaluate_system(lambda user: [7, 8, 9], [(1, 7)], k=10)
        assert result.recall == 1.0

    def test_topk_truncated_to_k(self):
        result = evaluate_system(lambda user: list(range(30)), [(1, 15)], k=10)
        assert result.recall == 0.0

    def test_cannot_rank_users_skipped(self):
        result = evaluate_system(lambda user: None if user == 2 else [5], [(1, 5), (2, 5), (1, 6)], k=10)
        assert result.skipped == ((2, 5),)
        assert result.recall == pytest.approx(0.5)

    def test_block_provider_none_skips_that_user_only(self):
        result = evaluate_system(lambda user: None if user == 2 else [5], [(1, 5), (2, 5), (3, 6)], k=10)
        assert result.skipped == ((2, 5),)
        assert result.recall == pytest.approx(0.5)

    def test_provider_called_once_per_user(self):
        calls = []

        def provider(user):
            calls.append(user)
            return [1]

        evaluate_system(provider, [(2, 1), (1, 1), (1, 2), (1, 3)], k=10)
        assert calls == [1, 2]

    def test_results_do_not_depend_on_workers(self):
        # user u's list is [u], so a list handed to the wrong user changes the hits
        targets = [(u, item) for u in range(35, 0, -1) for item in range(1, 36)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more threads than cores, switching as often as it can
        try:
            runs = [evaluate_system(lambda user: [user], targets, k=10, workers=w).records for w in (1, 2, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == runs[2]
        assert [r.target for r in runs[0] if r.hit] == [(u, u) for u in range(35, 0, -1)]

    def test_one_worker_ranks_on_the_calling_thread(self):
        threads = []

        def provider(user):
            threads.append((user, threading.current_thread()))
            return [1]

        evaluate_system(provider, [(2, 1), (1, 1), (3, 1)], k=10, workers=1)
        assert threads == [(u, threading.current_thread()) for u in (1, 2, 3)]

    def test_two_workers_rank_two_users_at_once(self):
        # Each user waits for the other: users ranked one after another would time out.
        barrier = threading.Barrier(2, timeout=30)

        def provider(user):
            barrier.wait()
            return [1]

        assert evaluate_system(provider, [(1, 1), (2, 1)], k=10, workers=2).recall == 1.0

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            evaluate_system(lambda user: [1], [(1, 1)], k=10, workers=workers)

    def test_all_skipped_rejected(self):
        with pytest.raises(ValueError):
            evaluate_system(lambda user: None, [(1, 1)], k=10)


class TestResultsFile:
    def test_round_trip(self, tmp_path):
        records = [HitRecord((1, 7), True), HitRecord((2, 9), False)]
        path = tmp_path / "r.tsv"
        save_results(records, path)
        assert load_results(path) == records
        assert path.read_text().splitlines()[-1].startswith("recall@10\t")

    def test_missing_summary_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\t7\t1\n")
        with pytest.raises(FormatError):
            load_results(path)

    def test_bad_hit_flag_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\t7\t2\nrecall@10\t1.0\n")
        with pytest.raises(FormatError):
            load_results(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_and_blank_lines(self, tmp_path, end):
        # Every line end reads as LF; blank lines are skipped but counted.
        path = tmp_path / "r.tsv"
        path.write_bytes(f"{end}1\t7\t1{end}{end}2\t9\t0{end}recall@10\t0.5{end}{end}".encode())
        assert load_results(path) == [HitRecord((1, 7), True), HitRecord((2, 9), False)]
        bad = "2\t9"
        path.write_bytes(f"{end}1\t7\t1{end}{end}{bad}{end}recall@10\t0.5{end}".encode())
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:4: bad results line {bad!r}')}$"):
            load_results(path)

    @pytest.mark.parametrize("line", ["x\t3\t0", "1\t3.5\t1"])
    def test_non_integer_id_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "r.tsv"
        path.write_text(f"1\t7\t1\n{line}\nrecall@10\t0.5\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: bad results line"):
            load_results(path)
