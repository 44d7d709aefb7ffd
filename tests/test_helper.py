"""The fork helper: messages in order, its end, and no helper at all; and
`in_order`, which splits a sequence by position between it and this process."""

import errno
import itertools
import os
import signal

import pytest

from shoulderkin.helper import Helper, in_order


def receive_all(helper):
    messages = []
    while (message := helper.receive()) is not None:
        messages.append(message)
    return messages


def test_messages_arrive_in_order():
    # 1 MiB is more than a pipe buffer holds
    sent = [b"first", b"", b"\x00" * 8, bytes(range(256)) * 4096, b"last"]
    with Helper(sent) as helper:
        assert receive_all(helper) == sent
        assert helper.pid is None


def test_only_the_helper_iterates_the_messages():
    started = []

    def messages():
        started.append(os.getpid())
        yield b"x"

    with Helper(messages()) as helper:
        assert receive_all(helper) == [b"x"]
    assert started == []


def test_an_error_in_the_messages_ends_the_helper_after_those_before_it():
    def messages():
        yield b"one"
        yield b"two"
        raise RuntimeError("stop")

    helper = Helper(messages())
    pid = helper.pid
    assert [helper.receive() for _ in range(3)] == [b"one", b"two", None]
    with pytest.raises(ChildProcessError):  # reaped by the receive that gave None
        os.waitpid(pid, os.WNOHANG)


def test_without_a_pipe_there_is_no_helper(monkeypatch):
    def pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", pipe)
    helper = Helper([b"x"])
    assert helper.pid is None
    assert helper.receive() is None


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
    helper = Helper([b"x"])
    assert helper.pid is None
    assert helper.receive() is None
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_close_kills_a_running_helper_and_may_be_called_again():
    helper = Helper(itertools.repeat(b"x"))
    assert helper.receive() == b"x"
    helper.close()
    helper.close()
    assert helper.receive() is None


def test_close_after_the_helper_was_reaped_elsewhere(monkeypatch):
    helper = Helper(itertools.repeat(b"x"))
    assert helper.receive() == b"x"
    os.kill(helper.pid, signal.SIGKILL)
    os.waitpid(helper.pid, 0)
    # the reaped pid may already be another process's: close must not signal it
    kills = []
    monkeypatch.setattr(os, "kill", lambda *args: kills.append(args))
    helper.close()
    assert kills == []
    assert helper.pid is None
    assert helper.receive() is None


def test_the_helper_holds_no_message_while_it_makes_the_next():
    freed = []

    class Message(bytes):
        def __del__(self):
            freed.append(True)

    def messages():
        yield Message(b"first")
        yield b"freed" if freed else b"held"

    with Helper(messages()) as helper:
        assert receive_all(helper) == [b"first", b"freed"]


def where(item):
    """`item` with a value more than a pipe buffer holds, and the pid that worked it."""
    return item, item / 7, "x" * (item * 50_000), os.getpid()


def test_in_order_yields_every_result_in_order():
    got = list(in_order(range(7), where))
    parent = os.getpid()
    assert [result[:3] for result in got] == [where(item)[:3] for item in range(7)]
    assert [pid == parent for *_, pid in got] == [item % 2 == 0 for item in range(7)]


def test_a_result_that_fails_keep_ends_the_helper():
    # the helper sends item 1 and ends at item 3: this process works the rest
    got = list(in_order(range(8), where, lambda result: result[0] != 3))
    parent = os.getpid()
    assert [result[0] for result in got] == list(range(8))
    assert [pid == parent for *_, pid in got] == [True, False] + [True] * 6


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


def test_without_a_fork_every_item_is_worked_here(monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    got = list(in_order(range(5), where))
    assert got == [where(item) for item in range(5)]


def test_one_item_forks_nothing(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    assert list(in_order([3], where)) == [where(3)]
    assert list(in_order([], where)) == []


def test_closing_in_order_ends_the_helper():
    results = in_order(range(10**9), lambda item: item)
    assert next(results) == 0
    assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # the helper is running
    results.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
