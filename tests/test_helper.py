"""The fork helper: messages in order, its end, and no helper at all."""

import errno
import itertools
import os
import signal

import pytest

from shoulderkin.helper import Helper


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
