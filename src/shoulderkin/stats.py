"""Two-group statistics: Welch's t-test, Cohen's d, and the comparison grid.

`compare_samples` computes one cell (t, dof, p, d and its interval) from
two samples; `compare_cohort` runs it over every cell of a feature matrix.
The p-value path is self-contained: a Lentz-style continued fraction for
the regularized incomplete beta function. At dof 1 to 1998 (the largest
Welch dof of a simulated cohort), its absolute error against the tests'
reference was under 1e-10 for |t| >= 1e-3. Nearer 0, where x = dof /
(dof + t^2) rounds next to 1, it grows as about 1e-16 * dof / |t| (2.6e-7
at dof 1998, |t| = 3.3e-7), and p > 0.9999. Nothing here depends on the
signal modules; inputs are plain samples or feature rows, and no numpy
is loaded: the means and variances are summed in numpy's pairwise order
(`_sum`), so each equals numpy's to the bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CohortError, DegenerateStatisticsError, ValidationError
from .formats import FEATURE_GRID, Group, Placement, SegmentKind, TaskKind, _is_integer

_BETA_EPS = 3.0e-16
_BETA_FPMIN = 1.0e-300
_BETA_MAX_ITER = 300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the continued fraction for I_x(a, b).

    Only called for x below the symmetry split point, where convergence
    is rapid (a few dozen terms even for large a).
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # the even step, then the odd step
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _BETA_FPMIN:
                d = _BETA_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _BETA_FPMIN:
                c = _BETA_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_prefactor = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    prefactor = math.exp(ln_prefactor)
    # use the side of the symmetry relation where the fraction converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return prefactor * _beta_continued_fraction(a, b, x) / a
    return 1.0 - prefactor * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_survival_two_sided(t: float, dof: float) -> float:
    """P(|T| >= |t|) for Student's T with `dof` > 0 degrees of freedom."""
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


def significance_flag(p: float, d: float) -> bool:
    """The paper's star: p < 0.05 and a large effect, |d| > 0.8 (Cohen's "large")."""
    return p < 0.05 and abs(d) > 0.8


@dataclass(frozen=True)
class ComparisonCell:
    """Full statistics for one grid cell, patient vs healthy; no star (see `significance_flag`)."""

    t_stat: float
    dof: float
    p_value: float
    d: float
    d_ci_low: float
    d_ci_high: float

    def __post_init__(self):
        for name in ("t_stat", "dof", "p_value", "d", "d_ci_low", "d_ci_high"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} is not finite")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p_value must be in [0,1], got {self.p_value}")
        if not self.d_ci_low <= self.d <= self.d_ci_high:
            raise ValidationError("confidence interval must bracket d")


# numpy sums a contiguous float64 array pairwise: a plain loop under
# `_UNROLL` values, `_UNROLL` running sums up to `_BLOCK`, and above that
# the two halves, split at a multiple of `_UNROLL`
_UNROLL = 8
_BLOCK = 128


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    """``values[start:start + n]`` summed in numpy's pairwise order."""
    if n < _UNROLL:
        total = 0.0
        for value in values[start : start + n]:
            total += value
        return total
    if n <= _BLOCK:
        r = values[start : start + _UNROLL]
        end = start + n - n % _UNROLL
        for i in range(start + _UNROLL, end, _UNROLL):
            for j in range(_UNROLL):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[end : start + n]:
            total += value
        return total
    half = n // 2
    half -= half % _UNROLL
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _sum(values: list[float]) -> float:
    """`np.sum` of the values as a float64 array: the pairwise sum added to 0.0."""
    return 0.0 + _pairwise_sum(values, 0, len(values))


def _mean_and_variance(sample) -> tuple[float, float]:
    """``float(np.mean(x))`` and ``float(np.var(x, ddof=1))`` of the sample as
    float64, bit for bit: the mean is the sum over n, and the variance the
    sum of squared deviations from it over n - 1. An overflow gives inf or
    nan, as numpy's does, and raises nothing."""
    values = [float(v) for v in sample]
    n = len(values)
    mean = _sum(values) / n
    return mean, _sum([(v - mean) * (v - mean) for v in values]) / (n - 1)


def compare_samples(x, y) -> ComparisonCell:
    """Welch's t-test and Cohen's d for sample x against sample y.

    Each sample needs at least 2 finite observations. t has Welch-Satterthwaite
    degrees of freedom and a two-sided p-value. d divides the mean difference
    by the pooled standard deviation, with a normal-approximation 95% interval
    d +/- 1.96 * SE. The star is `significance_flag`'s.
    Raises DegenerateStatisticsError when a sample has fewer than 2 values,
    or when t, dof, d or either interval bound is not a finite double, for
    example when both samples are constant or a variance overflows.
    """
    n1, n2 = len(x), len(y)
    if n1 < 2 or n2 < 2:
        raise DegenerateStatisticsError(f"each sample needs at least 2 values, got {n1} and {n2}")
    m1, v1 = _mean_and_variance(x)
    m2, v2 = _mean_and_variance(y)
    diff = m1 - m2
    se1, se2 = v1 / n1, v2 / n2
    try:
        t = diff / math.sqrt(se1 + se2)
        dof = (se1 + se2) ** 2 / (se1 * se1 / (n1 - 1) + se2 * se2 / (n2 - 1))
        d = diff / math.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    except (ZeroDivisionError, OverflowError):
        raise DegenerateStatisticsError("t, dof or d is undefined") from None
    se = math.sqrt((n1 + n2) / (n1 * n2) + d * d / (2.0 * (n1 + n2 - 2)))
    ci_low, ci_high = d - 1.96 * se, d + 1.96 * se
    if not all(map(math.isfinite, (t, dof, d, ci_low, ci_high))):
        raise DegenerateStatisticsError("t, dof, d or an interval bound is not finite")
    p = t_survival_two_sided(t, dof)
    return ComparisonCell(t_stat=t, dof=dof, p_value=p, d=d, d_ci_low=ci_low, d_ci_high=ci_high)


CellKey = tuple[TaskKind, str, "Placement | None", SegmentKind]


def cell_keys():
    """Canonical cell order: task, feature, placement, segment kind."""
    for task in TaskKind:
        for feature, _, placements in FEATURE_GRID:
            for placement in placements:
                for kind in SegmentKind:
                    yield (task, feature, placement, kind)


def check_group_size(name: str, size) -> None:
    """Refuse a group size no comparison can have: not an integer, or under 2."""
    if not _is_integer(size) or size < 2:
        raise ValidationError(f"{name} must be an integer of at least 2, got {size!r}")


@dataclass(frozen=True)
class ComparisonTable:
    """The complete per-task comparison grid.

    `cells` maps every canonical cell key to a ComparisonCell, or to None
    where the statistics were degenerate (untestable cell). n1 counts
    patient subjects, n2 healthy subjects.
    """

    n1: int
    n2: int
    cells: dict

    def __post_init__(self):
        check_group_size("n1", self.n1)
        check_group_size("n2", self.n2)
        object.__setattr__(self, "cells", dict(self.cells))
        expected = set(cell_keys())
        got = set(self.cells)
        if got != expected:
            missing = len(expected - got)
            extra = len(got - expected)
            raise ValidationError(
                f"comparison grid incomplete: {missing} cells missing, {extra} unexpected"
            )

    def cell(self, task: TaskKind, feature: str, placement, kind: SegmentKind):
        return self.cells[(task, feature, placement, kind)]

    def untestable_count(self) -> int:
        return sum(1 for v in self.cells.values() if v is None)


def compare_cohort(rows) -> ComparisonTable:
    """Run the full grid of two-group tests over a feature matrix.

    Observations are grouped per (task, feature, placement, segment); a
    feature that `FEATURE_GRID` scores at no placement (duration) is taken
    once per subject, from the wrist rows. Cells whose statistics are
    degenerate (or that lack 2 observations in a group) come back as None
    rather than failing the table; an entirely missing or single-subject
    group is a cohort-level error.
    """
    subjects: dict[Group, set] = {Group.PATIENT: set(), Group.HEALTHY: set()}
    for row in rows:
        subjects[row.group].add(row.subject_id)
    for group, ids in subjects.items():
        if not ids:
            raise CohortError(f"matrix has no rows for the {group.value} group")
        if len(ids) < 2:
            raise CohortError(
                f"group {group.value} has {len(ids)} subject; need at least 2 for a comparison"
            )

    observations: dict[CellKey, dict[Group, list[float]]] = {
        key: {Group.PATIENT: [], Group.HEALTHY: []} for key in cell_keys()
    }
    # The cells a row feeds, by its (task, placement, segment, group), so
    # that each row is looked up once: each feature at its placement, and
    # the placement-free ones from a wrist row.
    feeds: dict[tuple, list[tuple[str, list[float]]]] = {}
    for (task, feature, placement, kind), groups in observations.items():
        for group, values in groups.items():
            key = (task, Placement.WRIST if placement is None else placement, kind, group)
            feeds.setdefault(key, []).append((feature, values))
    for row in rows:
        for feature, values in feeds[row.task, row.placement, row.segment, row.group]:
            values.append(getattr(row.features, feature))

    cells: dict[CellKey, ComparisonCell | None] = {}
    for key in cell_keys():
        xs = observations[key][Group.PATIENT]
        ys = observations[key][Group.HEALTHY]
        try:
            cells[key] = compare_samples(xs, ys)
        except DegenerateStatisticsError:
            cells[key] = None
    return ComparisonTable(n1=len(subjects[Group.PATIENT]), n2=len(subjects[Group.HEALTHY]), cells=cells)
