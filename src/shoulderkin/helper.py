"""One forked helper process, and the one rule for where session work runs.

`in_order(items, work)` alone decides: a sequence of two or more items
is split by position, one helper working the items at positions 1, 3,
5, ... and this process the others, and any other iterable (a
generator, a view, a one-item list) is worked in this process. Every
stage that works a cohort goes through it: `ingest.save_cohort` writing
a cohort directory's sessions (for `simulate`), `ingest.walk_cohort`
reading its entries (for `iter_cohort`, `load_cohort` and `extract`), and
`features.extract_cohort` extracting sessions it reads or is given. An
item the helper does not finish is redone in this process, so the
results and the error raised are those of ``map(work, items)``. The
helper is a bare `os.fork` (`multiprocessing` would cost its import and
memory in every process that loads it) that sends its results as a
pickle stream on one pipe; pickle data marks its own end, so no message
carries a length.

The helper starts with the parent's state as it was at the fork. Making
its results must call no BLAS routine, whose threads do not survive a
fork: OpenBLAS stops its thread pool before each fork. The CLI loads
numpy with one BLAS thread (see `cli`), so a command forks from a
process that has no other thread; a library caller's process may have a
pool. The helper ends with `os._exit`: it never returns into the frames
it was forked from, whose `finally` blocks and buffered output belong to
the parent.
"""
from __future__ import annotations

import itertools
import os
import pickle  # numpy has already imported it
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def in_order(items: Iterable[T], work: Callable[[T], R]) -> Iterator[R]:
    """Yield ``work(item)`` for each of `items`, in order.

    Given a sequence of two or more items, one helper runs `work` on the
    items at positions 1, 3, 5, ... and sends each result pickled, while
    this process runs it on the others. The helper ends only at an item
    that raises, or whose result it cannot pickle, and this process runs
    `work` on that item and on every later one itself. Any other
    iterable is worked in this process, each item pulled once. So what
    is yielded or raised is what ``map(work, items)`` gives. If no pipe
    or process can be made, every item is worked in this process. Close
    the generator, or exhaust it, to end the helper.
    """
    split = isinstance(items, Sequence) and len(items) > 1
    pid, reader = _start(items, work) if split else (None, None)
    try:
        for position, item in enumerate(items):
            if position % 2 and pid is not None:
                try:
                    result = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError, OSError):
                    # the helper has ended without this item, or cut its pickle
                    _end(pid, reader)
                    pid = None
                else:
                    yield result
                    continue
            yield work(item)
    finally:
        if pid is not None:
            _end(pid, reader)


def _start(items: Sequence[T], work: Callable[[T], R]) -> tuple:
    """Fork the helper: its pid and its pipe's read end, or two Nones if that fails."""
    try:
        reader, writer = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        return None, None
    if pid == 0:
        # any exception, a closed pipe included, ends the helper quietly
        try:
            os.close(reader)
            with open(writer, "wb") as out:
                for item in itertools.islice(items, 1, None, 2):
                    result = work(item)
                    pickle.dump(result, out)
                    out.flush()
                    del result  # not held while the next one is made
        finally:
            os._exit(0)
    os.close(writer)
    return pid, open(reader, "rb")


def _end(pid: int, reader: BinaryIO) -> None:
    """Close the pipe, then kill and reap the helper."""
    import signal  # here, so a process that forks no helper does not load it

    reader.close()
    try:
        # once reaped, the pid may be another process's: signal only a
        # helper that is still running
        if os.waitpid(pid, os.WNOHANG) == (0, 0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    except ChildProcessError:  # already reaped elsewhere
        pass
