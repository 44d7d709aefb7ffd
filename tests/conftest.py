"""Suite-wide test settings.

The hypothesis profile is loaded here, not in one test file, so that any
file run on its own is derandomized and has no deadline as well. Every
test must end with no child process of this one left, running or
unreaped: `simulate`, `extract`, `iter_cohort`, `load_cohort`, and
`extract_cohort` given a cohort directory or a sequence, each fork one
helper (`helper.in_order`) for two or more sessions, and none for one
session or a generator; the helper is killed and reaped once it has
ended without an item or its generator is exhausted or closed. Tests
that kill a helper take its pid from `forks.record_forks`.
"""
import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # the hypothesis tests skip themselves
    pass
else:
    # Derandomized and bounded so the suite runs the same examples every
    # time and stays quick; raise max_examples locally to search harder.
    settings.register_profile(
        "tier1", derandomize=True, max_examples=40, deadline=None, database=None
    )
    settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # returns: a child is still running, or was unreaped
