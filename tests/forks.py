"""A record of the helper processes a test forks, for the tests that kill one."""

import os


def record_forks(monkeypatch):
    """The pids of the processes `os.fork` starts in this process from now on."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids
