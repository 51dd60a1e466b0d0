import multiprocessing
import os

import pytest

from spacerank.parallel import fork_map


def test_fork_map_keeps_item_order_and_inherits_closures():
    offset = 100  # a closure: it cannot be pickled, only inherited by fork

    def task(x):
        return x + offset, os.getpid()

    results = fork_map(task, range(9), workers=2)
    assert [value for value, _ in results] == list(range(100, 109))
    assert os.getpid() not in {pid for _, pid in results}


def test_two_items_land_on_two_workers():
    # Each item waits for the other: one worker holding both would time out.
    barrier = multiprocessing.get_context("fork").Barrier(2, timeout=30)
    pids = fork_map(lambda _: (barrier.wait(), os.getpid())[1], [0, 1], workers=2)
    assert len(set(pids)) == 2


def test_one_worker_runs_in_process():
    assert fork_map(lambda _: os.getpid(), [0, 1, 2], workers=1) == [os.getpid()] * 3


def test_without_fork_warns_and_runs_in_process(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with pytest.warns(RuntimeWarning, match="fork is unavailable"):
        assert fork_map(lambda _: os.getpid(), [0, 1], workers=2) == [os.getpid()] * 2
