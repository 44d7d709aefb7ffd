"""`in_order`, which splits a sequence by position between one forked
helper and this process: results in order, the helper's end on each path,
and no helper at all, as for one item or an iterable that is no sequence."""

import errno
import os
import pickle
import signal
import time
from pathlib import Path

import pytest

from forks import record_forks
from shoulderkin.errors import FeatureError, TooShortError
from shoulderkin.formats import Placement, SegmentKind, TaskKind
from shoulderkin.helper import in_order


class Dropped(str):
    """A result that counts, in the process that drops it, each drop."""

    drops = []

    def __del__(self):
        self.drops.append(str(self))


def where(item):
    """`item` with a value more than a pipe buffer holds, and the pid that worked it."""
    return item, item / 7, "x" * (item * 50_000), os.getpid()


def worked_here(items, work):
    """``list(in_order(items, work))``, and the items `work` ran on in this process."""
    parent = os.getpid()
    worked = []

    def recording_work(item):
        if os.getpid() == parent:
            worked.append(item)
        return work(item)

    return list(in_order(items, recording_work)), worked


def test_messages_arrive_in_order():
    # 1 MiB is more than a pipe buffer holds
    sent = [b"first", b"", b"\x00" * 8, bytes(range(256)) * 4096, b"last"]
    assert worked_here(range(5), sent.__getitem__) == (sent, [0, 2, 4])


def test_in_order_yields_every_result_in_order():
    # items 5 and 6 are more than a pipe buffer holds
    got = list(in_order(range(7), where))
    parent = os.getpid()
    assert [result[:3] for result in got] == [where(item)[:3] for item in range(7)]
    assert [pid == parent for *_, pid in got] == [item % 2 == 0 for item in range(7)]


def test_only_the_helper_works_its_items():
    assert worked_here(range(7), lambda item: item) == (list(range(7)), [0, 2, 4, 6])


def test_a_result_that_holds_a_failure_crosses_the_pipe():
    # as a session with a failing cell does: the helper sends it and goes on
    def work(item):
        cause = TooShortError(f"item {item} is short")
        return item, FeatureError(f"S{item}", TaskKind.WH, SegmentKind.SUB1, Placement.ARM, cause)

    got, worked = worked_here(range(6), work)
    assert worked == [0, 2, 4]
    assert [item for item, _ in got] == list(range(6))
    for item, failure in got:
        assert type(failure) is FeatureError
        assert str(failure) == f"S{item} WH/sub1/arm: item {item} is short"
        cell = (failure.subject_id, failure.task, failure.segment, failure.placement)
        assert cell == (f"S{item}", TaskKind.WH, SegmentKind.SUB1, Placement.ARM)
        assert type(failure.cause) is TooShortError
        assert failure.__cause__ is failure.cause


def test_an_item_that_raises_in_the_helper_is_redone_here():
    parent = os.getpid()
    worked = []

    def work(item):
        if os.getpid() == parent:
            worked.append(item)
        if item == 3:
            raise ValueError(f"bad item {item}")
        return item

    results = in_order(range(6), work)
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ValueError, match="bad item 3"):
        next(results)
    assert worked == [0, 2, 3]


def test_an_error_in_the_messages_ends_the_helper_after_those_before_it(monkeypatch):
    # the helper sends items 1 and 3 and raises at item 5, which this process
    # works once the helper has been reaped
    forked = record_forks(monkeypatch)
    parent = os.getpid()
    reaped = []

    def work(item):
        if os.getpid() != parent and item == 5:
            raise RuntimeError("stop")
        if item == 5:
            with pytest.raises(ChildProcessError):
                os.waitpid(forked[0], os.WNOHANG)
            reaped.append(item)
        return item, os.getpid()

    got = list(in_order(range(7), work))
    assert [item for item, _ in got] == list(range(7))
    assert [pid == parent for _, pid in got] == [True, False, True, False, True, True, True]
    assert reaped == [5]


def test_a_result_the_helper_cannot_pickle_is_worked_here_and_every_later_item():
    parent = os.getpid()

    def work(item):
        if item == 3 and os.getpid() != parent:
            # pickle.dump writes the 1 MB before it fails on the lambda, so
            # this process reads a cut pickle
            return item, b"x" * 1_000_000, lambda: item
        return item

    assert worked_here(range(8), work) == (list(range(8)), [0, 2, 3, 4, 5, 6, 7])


def test_a_helper_killed_partway_through_a_result_leaves_it_here(monkeypatch):
    # item 1's result is more than the pipe holds; the helper is killed while
    # it waits to write the rest, so the pickle is cut inside its bytes
    forked = record_forks(monkeypatch)
    load = pickle.load
    raised = []

    def recording_load(file):
        try:
            return load(file)
        except Exception as err:
            raised.append(type(err))
            raise

    def work(item):
        if item == 0:  # in this process: wait until the helper sleeps in its write
            stat = Path(f"/proc/{forked[0]}/stat")
            deadline = time.monotonic() + 10
            while stat.read_text().split()[2] != "S" and time.monotonic() < deadline:
                time.sleep(0.01)
            os.kill(forked[0], signal.SIGKILL)
        return item, b"x" * 1_000_000

    monkeypatch.setattr(pickle, "load", recording_load)
    got, worked = worked_here(range(4), work)
    assert got == [(item, b"x" * 1_000_000) for item in range(4)]
    assert worked == [0, 1, 2, 3]
    assert raised == [pickle.UnpicklingError]


def test_without_a_pipe_there_is_no_helper(monkeypatch):
    def pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    assert worked_here(range(5), where)[1] == list(range(5))


def test_without_a_fork_every_item_is_worked_here(monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    got = list(in_order(range(5), where))
    assert got == [where(item) for item in range(5)]


def test_without_a_fork_there_is_no_helper_and_the_pipe_is_closed(monkeypatch):
    fds = []
    pipe = os.pipe

    def recording_pipe():
        fds.extend(pipe())
        return fds

    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", fork)
    assert worked_here(range(5), where)[1] == list(range(5))
    assert len(fds) == 2
    for fd in fds:  # both ends of the pipe are closed
        with pytest.raises(OSError):
            os.fstat(fd)


def test_one_item_forks_nothing(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    assert list(in_order([3], where)) == [where(3)]
    assert list(in_order([], where)) == []


def pulling(items, events):
    """A generator of `items` that logs each pull in `events`."""
    for item in items:
        events.append(("pull", item))
        yield item


# iterables that are not sequences; only the generator logs its pulls
ITERABLES = {
    "generator": pulling,
    "view": lambda items, events: dict(enumerate(items)).values(),
}


def worked_in_turn(kind, items):
    """The events of working `items` in turn, each pulled just before its work."""
    events = []
    for item in items:
        if kind == "generator":
            events.append(("pull", item))
        events.append(("work", item))
    return events


@pytest.mark.parametrize("kind", sorted(ITERABLES))
def test_any_other_iterable_is_worked_here_pulling_each_item_once(monkeypatch, kind):
    forked = record_forks(monkeypatch)
    events = []

    def work(item):
        events.append(("work", item))
        return where(item)

    got = list(in_order(ITERABLES[kind](range(5), events), work))
    assert forked == []
    assert got == list(map(where, range(5)))
    assert events == worked_in_turn(kind, range(5))


@pytest.mark.parametrize("kind", sorted(ITERABLES))
def test_any_other_iterable_raises_after_every_earlier_result(monkeypatch, kind):
    forked = record_forks(monkeypatch)
    events = []

    def work(item):
        events.append(("work", item))
        if item == 3:
            raise ValueError(f"bad item {item}")
        return item

    results = in_order(ITERABLES[kind](range(6), events), work)
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ValueError, match="bad item 3"):
        next(results)
    assert forked == []
    assert events == worked_in_turn(kind, range(4))


def test_closing_in_order_ends_the_helper():
    results = in_order(range(10**9), lambda item: item)
    assert next(results) == 0
    assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # the helper is running
    results.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_close_kills_a_running_helper_and_may_be_called_again(monkeypatch):
    forked = record_forks(monkeypatch)
    results = in_order(range(10**9), lambda item: item)
    assert [next(results), next(results)] == [0, 1]
    results.close()
    with pytest.raises(ChildProcessError):  # killed and reaped
        os.waitpid(forked[0], os.WNOHANG)
    results.close()
    with pytest.raises(StopIteration):
        next(results)


def test_close_after_the_helper_was_reaped_elsewhere(monkeypatch):
    forked = record_forks(monkeypatch)
    results = in_order(range(10**9), lambda item: item)
    assert [next(results), next(results)] == [0, 1]
    os.kill(forked[0], signal.SIGKILL)
    os.waitpid(forked[0], 0)
    # the reaped pid may already be another process's: it must not be signalled
    kills = []
    monkeypatch.setattr(os, "kill", lambda *args: kills.append(args))
    results.close()
    assert kills == []


def test_the_helper_holds_no_result_while_it_makes_the_next():
    # every item but 1 is the number of Dropped results its process has
    # dropped so far; the helper must have dropped item 1's before item 3
    def work(item):
        return Dropped("first") if item == 1 else len(Dropped.drops)

    got = list(in_order(range(4), work))
    assert got[1:3] == ["first", got[0]]
    assert got[3] == got[0] + 1
