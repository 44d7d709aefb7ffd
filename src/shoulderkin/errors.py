"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`ShoulderKinError` so callers
can catch one base class at the boundary (the CLI does exactly that).
"""


class ShoulderKinError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ShoulderKinError):
    """A file does not match its expected format.

    Carries enough context (path, line number) to point at the offending
    spot in the input.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = str(path)
            if line is not None:
                prefix += f":{line}"
            prefix += ": "
        super().__init__(prefix + message)


class ValidationError(ShoulderKinError):
    """Well-formed input with values that violate a documented constraint."""


class BoundaryError(ValidationError):
    """Segment boundaries are out of range, out of order, or not contiguous."""


class TooShortError(ShoulderKinError):
    """A signal window has fewer samples than the metric requires."""


class DegenerateSignalError(ShoulderKinError):
    """A signal is constant (or otherwise informationless) where a spread
    of values is required, e.g. a flat window fed to the peak counter."""


class FeatureError(ShoulderKinError):
    """Feature extraction failed for one (task, segment, placement) cell.

    Wraps the underlying cause (also as `__cause__`) and records which cell
    failed so a batch run can report precisely and keep going. Pickles by
    its five fields, so a failure sent by a helper process reads back whole.
    """

    def __init__(self, subject_id, task, segment, placement, cause):
        self.subject_id = subject_id
        self.task = task
        self.segment = segment
        self.placement = placement
        self.cause = self.__cause__ = cause
        super().__init__(
            f"{subject_id} {task.value}/{segment.value}/{placement.value}: {cause}"
        )

    def __reduce__(self):
        return type(self), (self.subject_id, self.task, self.segment, self.placement, self.cause)


class DegenerateStatisticsError(ShoulderKinError):
    """A statistical comparison cannot be computed from the given samples
    (too few observations, or both groups constant and identical)."""


class CohortError(ShoulderKinError):
    """Loading or comparing a cohort failed; names the subject or group
    responsible when one can be singled out."""
