"""Suite-wide test settings.

The hypothesis profile is loaded here, not in one test file, so that any
file run on its own is derandomized and has no deadline as well.
"""

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
