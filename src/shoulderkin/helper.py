"""One forked helper process, and the one way the package uses it.

`in_order` hands every other item of a sequence to a helper and yields
every result in order. Three callers split their sessions this way:
`simulate` writes every other session in the helper, and `extract_cohort`
extracts every other session of a list, or reads and extracts every
other entry of a cohort directory. `Helper` is the process: a bare
`os.fork` (`multiprocessing` would cost its import and memory in every
process that loads it), one pipe of length-framed messages from the
helper to the parent, and a `close` that kills and reaps the helper.

The helper starts with the parent's state as it was at the fork. Making
its messages must call no BLAS routine, whose threads do not survive a
fork, and it ends with `os._exit`: it never returns into the frames it
was forked from, whose `finally` blocks and buffered output belong to
the parent.
"""
from __future__ import annotations

import itertools
import os
import pickle  # numpy has already imported it
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# each message is its length as 8 little-endian bytes, then its bytes
_LENGTH_BYTES = 8


class Helper:
    """Fork a helper that drains `messages`; `receive` takes them in order.

    Only the helper iterates `messages`, so a generator's work is done
    there, and an exception it raises ends the helper. If no process can
    be forked, there is no helper, and `receive` returns None at once:
    the caller then does the work in process. Use it as a context
    manager, or call `close`, so the helper is killed and reaped on
    every path.
    """

    def __init__(self, messages: Iterable[bytes]):
        self.pid = None
        try:
            reader, writer = os.pipe()
        except OSError:
            return
        try:
            pid = os.fork()
        except OSError:
            os.close(reader)
            os.close(writer)
            return
        if pid == 0:
            _serve(messages, reader, writer)
        os.close(writer)
        self.pid = pid
        self._reader = open(reader, "rb")

    def receive(self) -> bytes | None:
        """The helper's next message; None once it has ended, when it is
        closed, and so dead and reaped, before this returns."""
        if self.pid is None:
            return None
        try:
            header = self._reader.read(_LENGTH_BYTES)
            if len(header) == _LENGTH_BYTES:
                size = int.from_bytes(header, "little")
                message = self._reader.read(size)
                if len(message) == size:
                    return message
        except OSError:
            pass
        self.close()
        return None

    def close(self) -> None:
        """Close the pipe, then kill and reap the helper; idempotent."""
        if self.pid is None:
            return
        import signal  # here, so a process that forks no helper does not load it

        pid, self.pid = self.pid, None
        self._reader.close()
        try:
            # once reaped, the pid may be another process's: signal only a
            # helper that is still running
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:  # already reaped elsewhere
            pass

    def __enter__(self) -> Helper:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _serve(messages: Iterable[bytes], reader: int, writer: int) -> NoReturn:
    """The helper's side. Any exception, a closed pipe included, ends it quietly."""
    try:
        os.close(reader)
        with open(writer, "wb") as out:
            for message in messages:
                out.write(len(message).to_bytes(_LENGTH_BYTES, "little"))
                out.write(message)
                out.flush()
                del message  # not held while the next one is made
    finally:
        os._exit(0)


def in_order(
    items: Sequence[T], work: Callable[[T], R], keep: Callable[[R], bool] = lambda result: True
) -> Iterator[R]:
    """Yield ``work(item)`` for each of `items`, in order, on two CPUs.

    Given two or more items, one helper runs `work` on the items at
    positions 1, 3, 5, ... and sends each result pickled, while this
    process runs it on the others. The helper ends at the first result
    that fails `keep`, or at the first item that raises, and this process
    runs `work` on that item and on every later one itself. So what is
    yielded or raised is what ``map(work, items)`` gives, and no result
    that fails `keep`, and no exception, crosses the pipe. If no process
    can be forked, every item is worked in this process. Close the
    generator, or exhaust it, to end the helper.
    """
    if len(items) < 2:
        yield from map(work, items)
        return

    def results() -> Iterator[bytes]:
        for item in itertools.islice(items, 1, None, 2):
            result = work(item)
            if not keep(result):
                return
            yield pickle.dumps(result)

    with Helper(results()) as helper:
        for position, item in enumerate(items):
            # None: the helper has ended, and been reaped, without this item
            message = helper.receive() if position % 2 else None
            yield work(item) if message is None else pickle.loads(message)
