"""``parallel.fork_map``: in this process or on forked workers, results in
index order and the failure of the smallest failing index."""

import multiprocessing
import os

import pytest

from dvlae import parallel

ORDER = list(range(9))[::-1]    # the workers' order: the reverse of the index order
FORK = "fork" in multiprocessing.get_all_start_methods()


def _in_process(monkeypatch, case):
    """Make ``fork_map`` stay in this process for ``case``; the enough-work
    test to pass it, and the list of worker counts of any forked pool."""
    monkeypatch.setattr(parallel, "cpu_count", lambda: 1 if case == "one CPU" else 2)
    if case == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    forked = []
    monkeypatch.setattr(parallel, "_forked_workers", forked.append)
    return case != "too little work", forked


@pytest.mark.parametrize("case", ["one CPU", "too little work", "no fork"])
def test_in_process_in_index_order(monkeypatch, case):
    enough_work, forked = _in_process(monkeypatch, case)
    calls = []

    def fn(i):
        calls.append((i, os.getpid()))
        return i * i

    assert parallel.fork_map(fn, ORDER, enough_work) == [i * i for i in range(9)]
    assert calls == [(i, os.getpid()) for i in range(9)]
    assert forked == []
    assert parallel._job is None


@pytest.mark.parametrize("case", ["one CPU", "too little work", "no fork"])
def test_in_process_raises_the_smallest_failing_index(monkeypatch, case):
    enough_work, forked = _in_process(monkeypatch, case)
    calls = []

    def fn(i):
        calls.append(i)
        if i in (3, 6):
            raise ValueError(f"index {i}")
        return i

    with pytest.raises(ValueError, match="^index 3$"):
        parallel.fork_map(fn, ORDER, enough_work)
    assert calls == [0, 1, 2, 3]
    assert forked == []


@pytest.mark.skipif(not FORK, reason="the pool needs the fork start method")
def test_forked_results_and_failure_follow_the_index_order(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    forked = []
    forked_workers = parallel._forked_workers

    def spy(n):
        forked.append(n)
        return forked_workers(n)

    monkeypatch.setattr(parallel, "_forked_workers", spy)
    parent = os.getpid()
    assert parallel.fork_map(lambda i: (i, os.getpid() != parent), ORDER, True) == [
        (i, True) for i in range(9)]

    def fn(i):
        if i in (3, 6):
            raise ValueError(f"index {i}")
        return i

    with pytest.raises(ValueError, match="^index 3$"):
        parallel.fork_map(fn, ORDER, True)
    assert forked == [2, 2]
    assert parallel._job is None
    assert multiprocessing.active_children() == []
