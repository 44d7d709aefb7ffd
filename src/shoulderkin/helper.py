"""One forked helper process and the pipe it reports to its parent on.

`simulate` writes every other session in a helper, `extract_cohort`
extracts every other session of a list in one, and `iter_cohort` parses
recordings one session ahead in one. All three use `Helper`: a bare
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

import os
from typing import Iterable, NoReturn

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
