"""Hand-rolled statistics against pre-pinned high-precision reference values.

PAIRS/EXPECTED and BETAINC_CASES were computed once, before this package
existed, with an independent high-precision route; the literals here are
frozen and must never be regenerated from the code under test.
`compare_samples` is also held bit for bit to the separate Welch's t and
Cohen's d formulas it replaced, kept here as the reference.
"""

import itertools
import math

import numpy as np
import pytest

from shoulderkin import CohortError, DegenerateStatisticsError, ValidationError, compare_cohort
from shoulderkin.formats import FeatureRow, FeatureVector, Group, Placement, SegmentKind, TaskKind
from shoulderkin.stats import (
    ComparisonCell,
    ComparisonTable,
    SignificanceRule,
    _mean_and_variance,
    cell_keys,
    compare_samples,
    regularized_incomplete_beta,
    significance_flag,
    t_survival_two_sided,
)

PAIRS = [
    ([1.0, 2.0, 3.0, 4.0, 5.0],
     [3.0, 4.0, 5.0, 6.0, 7.0]),
    ([0.677189, -0.293395, -0.061262, 1.841982, 0.13544],
     [2.307049, -0.313389, 1.635102, 2.049632, 0.824963]),
    ([12.029327, 15.010515, 9.285213, 11.370812, 8.681147, 6.858766, 12.057896, 10.589328],
     [12.95246, 10.234116, 12.431394, 7.285191, 14.441719, 14.667382, 10.286105, 7.063539, 14.000216, 17.382417, 18.157605, 14.736318]),
    ([-0.829545, -0.988936, -1.693952, -0.928334, -0.856706, -1.782282, -0.796972, -0.930459, -1.392551, -1.401684, -2.267146, -1.206001, -1.196747, -1.374268, -0.557725, -2.166774, -0.310892, -0.718841, -0.61094, -0.910696],
     [-0.872247, -0.560172, -0.425574, -0.77905, -0.625496, -0.880693, -0.124689, -1.653041, -1.05455, -0.436374, -0.751175, -0.504461, -0.605003, -0.458988, -0.1283, -1.08576, -0.965964, -1.039362, -1.610448, -1.116856]),
    ([98.838242, 95.244409, 76.72624, 106.763005, 111.787983, 98.962127],
     [92.168226, 104.963288, 93.181961, 100.957874, 97.360569, 97.588869, 93.999722, 97.097103, 96.243104]),
    ([-0.011823, 0.485421, 0.027201, 1.546034, -0.864104, -0.1468, 0.011985, -0.120215, 0.359448, 1.401847],
     [3.319438, 3.280506, 2.007101, 4.728356, 3.058605, 1.429277, 3.144256, 1.762566, 1.244995, 5.845189]),
    ([56.243986, 51.696374, 56.253227, 56.317336, 43.682638, 49.53685, 50.679],
     [44.616985, 50.61907, 45.569405, 61.765769, 21.869795]),
    ([0.000803, 0.000875, 0.001005, 0.00112, 0.000842, 0.001093, 0.000517, 0.001039, 0.001019, 0.000853, 0.000964, 0.00102],
     [0.001375, 0.001217, 0.001285, 0.001121, 0.001163, 0.001168, 0.001059, 0.001291]),
    ([221.469642, 268.147492, 278.505295, 265.469071, 185.513739, 338.124698, 238.806011, 300.148175, 264.029819, 316.965427, 302.108313, 153.66655, 248.641002, 259.429547, 275.369888],
     [263.910238, 271.931898, 269.898483, 216.370663, 294.859032, 282.579946, 256.585952, 290.328798, 197.531951, 285.951812, 265.549636, 236.807524, 243.045987, 199.289814, 241.081791]),
    ([-8.215735, -3.457151, -6.344714, -10.866979, -2.803344, -6.342457, 0.083405, -5.642654, -0.963856],
     [-3.402281, -3.138893, -3.515593, -3.161487, -4.982639, -3.908563, -3.784985, -3.369933, -3.829792, -3.226637, -3.130312, -4.077802, -1.78019, -4.203622]),
]

# (t, dof, p, d, ci_low, ci_high) per pair
EXPECTED = [
    (-2.0, 8.0, 0.08051623795726257, -1.2649110640673518, -2.650840355192985, 0.12101822705828141),
    (-1.380320571042729, 7.637880552738843, 0.20653552621215468, -0.8729913811358563, -2.184335561648414, 0.4383527993767013),
    (-1.5337452361409727, 17.890024974222715, 0.14258691157609163, -0.6522162403375542, -1.5718502700594816, 0.26741778938437305),
    (-2.4336922612857537, 36.07213393187334, 0.020027247748880442, -0.76960106695886, -1.4131059143824114, -0.1260962195353087),
    (0.1942232137168004, 5.7338359475540335, 0.8526984144398493, 0.12219231114823806, -0.9118856443325916, 1.1562702666290676),
    (-5.239865127726781, 13.191763114339933, 0.00015213307495739152, -2.34333892370554, -3.5070811781886, -1.1795966692224797),
    (1.0625022442822674, 4.597158109821884, 0.3406047726026028, 0.724352472506668, -0.46640433884073995, 1.915109283854076),
    (-4.676832367658228, 17.96565470842006, 0.00018863954332000066, -1.945077900561293, -3.0423729712235685, -0.8477828298990177),
    (0.4527644913637154, 24.119796520632836, 0.6547647564227752, 0.16532621677150597, -0.5516733372930966, 0.8823257708361086),
    (-1.1948877209810485, 8.441258651114923, 0.264621350179945, -0.6325346571121526, -1.4915109467928906, 0.2264416325685854),
]

# (a, b, x, I_x(a,b))
BETAINC_CASES = [
    (0.5, 0.5, 0.3, 0.36901011956554536),
    (2.0, 3.0, 0.5, 0.6875),
    (9.0, 0.5, 0.99, 0.6748712326262113),
    (4.5, 0.5, 0.2, 0.0002024993220676407),
    (30.0, 0.5, 0.999, 0.807237306159537),
    (1.0, 1.0, 0.42, 0.42),
    (12.5, 0.5, 0.7, 0.0031034299247518107),
]


class TestIncompleteBeta:
    def test_pinned_cases(self):
        for a, b, x, want in BETAINC_CASES:
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(want, abs=1e-12)

    def test_domain_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_reflection_identity(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            a = float(rng.uniform(0.3, 40.0))
            b = float(rng.uniform(0.3, 40.0))
            x = float(rng.uniform(0.001, 0.999))
            left = regularized_incomplete_beta(a, b, x)
            right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert left == pytest.approx(right, abs=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.01, 0.99, 50)
        vals = [regularized_incomplete_beta(3.5, 0.5, float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestTSurvival:
    def test_zero_t_gives_one(self):
        assert t_survival_two_sided(0.0, 10.0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_in_t(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            t = float(rng.uniform(0.1, 6.0))
            dof = float(rng.uniform(2.0, 60.0))
            assert t_survival_two_sided(t, dof) == pytest.approx(
                t_survival_two_sided(-t, dof), abs=1e-14
            )

    def test_decreasing_in_abs_t(self):
        ts = np.linspace(0.0, 8.0, 40)
        ps = [t_survival_two_sided(float(t), 12.0) for t in ts]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_large_dof_approaches_normal(self):
        for t in (0.5, 1.0, 1.96, 3.0):
            want = math.erfc(t / math.sqrt(2.0))
            assert t_survival_two_sided(t, 1e7) == pytest.approx(want, abs=1e-6)

    # 1998 is the largest Welch dof of a simulated cohort (1000 per group)
    SCIPY_DOFS = (1, 2, 5, 10, 38, 198, 1998)

    @staticmethod
    def scipy_errors(ts, dof):
        from scipy.stats import t as student_t

        got = np.array([t_survival_two_sided(float(t), float(dof)) for t in ts])
        return np.abs(got - 2.0 * student_t.sf(ts, dof))

    def test_matches_scipy_to_1e_10_for_t_from_1e_3(self):
        ts = np.concatenate([np.linspace(1e-3, 40.0, 400), np.linspace(1e-3, 0.1, 100)])
        for dof in self.SCIPY_DOFS:
            assert self.scipy_errors(ts, dof).max() <= 1e-10, dof

    def test_error_near_zero_t_stays_within_the_stated_bound(self):
        # x = dof / (dof + t^2) rounds next to 1, so the complement loses digits
        ts = np.logspace(-9.0, -3.0, 61)
        for dof in self.SCIPY_DOFS:
            assert (self.scipy_errors(ts, dof) <= 2e-16 * dof / ts).all(), dof


class TestWelchOracle:
    def test_t_dof_p_match_pinned_values(self):
        for (x, y), (t_ref, dof_ref, p_ref, _, _, _) in zip(PAIRS, EXPECTED):
            cell = compare_samples(x, y)
            assert abs(cell.t_stat - t_ref) < 1e-9
            assert abs(cell.dof - dof_ref) < 1e-9
            assert abs(cell.p_value - p_ref) < 1e-9

    def test_d_and_ci_match_pinned_values(self):
        for (x, y), (_, _, _, d_ref, lo_ref, hi_ref) in zip(PAIRS, EXPECTED):
            cell = compare_samples(x, y)
            assert abs(cell.d - d_ref) < 1e-9
            assert abs(cell.d_ci_low - lo_ref) < 1e-9
            assert abs(cell.d_ci_high - hi_ref) < 1e-9


def statistics(cell: ComparisonCell) -> tuple[float, ...]:
    return (cell.t_stat, cell.dof, cell.p_value, cell.d, cell.d_ci_low, cell.d_ci_high)


def reference_welch_t(xa, ya):
    """Welch's t and dof as a separate two-sample function computed them."""
    n1, n2 = xa.size, ya.size
    v1 = float(np.var(xa, ddof=1))
    v2 = float(np.var(ya, ddof=1))
    se1, se2 = v1 / n1, v2 / n2
    t = (float(np.mean(xa)) - float(np.mean(ya))) / math.sqrt(se1 + se2)
    dof = (se1 + se2) ** 2 / (se1 * se1 / (n1 - 1) + se2 * se2 / (n2 - 1))
    return t, dof


def reference_cohens_d(xa, ya):
    """Cohen's d and its interval, recomputing the moments on its own."""
    n1, n2 = xa.size, ya.size
    v1 = float(np.var(xa, ddof=1))
    v2 = float(np.var(ya, ddof=1))
    pooled_var = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
    d = (float(np.mean(xa)) - float(np.mean(ya))) / math.sqrt(pooled_var)
    se = math.sqrt((n1 + n2) / (n1 * n2) + d * d / (2.0 * (n1 + n2 - 2)))
    return d, d - 1.96 * se, d + 1.96 * se


def reference_statistics(x, y):
    """The six statistics from the two reference functions, or None where
    t, dof, d or an interval bound cannot be formed as a finite double."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            t, dof = reference_welch_t(xa, ya)
            d, lo, hi = reference_cohens_d(xa, ya)
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(map(math.isfinite, (t, dof, d, lo, hi))):
        return None
    return t, dof, t_survival_two_sided(t, dof), d, lo, hi


def random_sample(rng, scale):
    n = int(rng.integers(2, 31))
    if rng.random() < 0.3:
        # integer ties
        return scale * rng.integers(-3, 4, n).astype(float)
    return scale * rng.normal(rng.normal(), 1.0, n)


class TestCompareSamplesMatchesReference:
    def test_bit_for_bit_or_untestable(self):
        rng = np.random.default_rng(107)
        untestable = 0
        for case in range(2000):
            scale = 10.0 ** rng.uniform(-100.0, 100.0)
            x = random_sample(rng, scale)
            y = random_sample(rng, scale * 10.0 ** rng.uniform(-2.0, 2.0))
            if case % 5 == 0:
                y[:] = y[0]
            want = reference_statistics(x, y)
            if want is None:
                untestable += 1
                with pytest.raises(DegenerateStatisticsError):
                    compare_samples(x, y)
                continue
            got = statistics(compare_samples(x, y))
            assert [v.hex() for v in got] == [v.hex() for v in want], (x, y)
        # both outcomes are exercised, mostly the finite one
        assert 100 < untestable < 1000


class TestPairwiseSums:
    """The plain-Python means and variances at each of numpy's pairwise-sum
    boundaries: a plain loop under 8 values, eight running sums up to 128,
    and halves split at a multiple of 8 above it."""

    SIZES = [2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137, 255, 256, 257, 1031]

    @staticmethod
    def sample(kind, n):
        rng = np.random.default_rng(n)
        if kind == "similar":  # every summation order rounds differently
            return (rng.standard_normal(n) * 1e3).tolist()
        if kind == "negative-zeros":  # numpy's sum starts from +0.0
            return [-0.0] * n
        if kind == "subnormal":
            return (rng.integers(-1000, 1000, n) * 5e-324).tolist()
        return (rng.uniform(0.5, 1.0, n) * 1.7e308).tolist()  # "overflow"

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kind", ["similar", "negative-zeros", "subnormal", "overflow"])
    def test_mean_and_variance_equal_numpys(self, kind, n):
        sample = self.sample(kind, n)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [float(np.mean(sample)), float(np.var(sample, ddof=1))]
        got = list(_mean_and_variance(sample))
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestWelchProperties:
    def test_antisymmetric_in_sample_order(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            x = rng.normal(0.0, 1.0, int(rng.integers(3, 20)))
            y = rng.normal(0.5, 2.0, int(rng.integers(3, 20)))
            xy, yx = compare_samples(x, y), compare_samples(y, x)
            assert xy.t_stat == pytest.approx(-yx.t_stat, rel=1e-12)
            assert xy.dof == pytest.approx(yx.dof, rel=1e-12)
            assert xy.p_value == pytest.approx(yx.p_value, rel=1e-12)

    def test_invariant_under_common_affine_map(self):
        rng = np.random.default_rng(83)
        x = rng.normal(10.0, 2.0, 12)
        y = rng.normal(11.0, 3.0, 9)
        before = statistics(compare_samples(x, y))
        for scale, shift in ((2.5, 0.0), (0.001, -4.0), (1000.0, 37.0)):
            after = statistics(compare_samples(scale * x + shift, scale * y + shift))
            assert after == pytest.approx(before, rel=1e-9)

    def test_p_tracks_permutation_truth(self):
        # Across 20 random two-sample problems, the analytic p-value should
        # rank the problems almost exactly like the exhaustive permutation
        # p-value (all 252 relabelings of 5+5 observations).
        rng = np.random.default_rng(97)
        analytic = []
        exact = []
        for _ in range(20):
            shift = float(rng.uniform(0.0, 3.0))
            x = rng.normal(0.0, 1.0, 5)
            y = rng.normal(shift, 1.0, 5)
            observed = compare_samples(x, y)
            pooled = np.concatenate([x, y])
            hits = 0
            total = 0
            for idx in itertools.combinations(range(10), 5):
                mask = np.zeros(10, dtype=bool)
                mask[list(idx)] = True
                t_perm = compare_samples(pooled[mask], pooled[~mask]).t_stat
                hits += abs(t_perm) >= abs(observed.t_stat) - 1e-12
                total += 1
            analytic.append(observed.p_value)
            exact.append(hits / total)
        rank_a = np.argsort(np.argsort(analytic))
        rank_e = np.argsort(np.argsort(exact))
        corr = np.corrcoef(rank_a, rank_e)[0, 1]
        assert corr > 0.9

    def test_rejects_double_zero_variance(self):
        with pytest.raises(DegenerateStatisticsError):
            compare_samples([2.0, 2.0, 2.0], [5.0, 5.0])

    def test_one_sided_zero_variance_is_fine(self):
        cell = compare_samples([2.0, 2.0, 2.0], [5.0, 6.0])
        assert math.isfinite(cell.t_stat) and math.isfinite(cell.p_value)

    def test_cohens_d_zero_pooled_sd_degenerate(self):
        with pytest.raises(DegenerateStatisticsError):
            compare_samples([1.0, 1.0], [1.0, 1.0])

    # numpy warns on the mean of no values and on a ddof=1 variance of one,
    # and the suite turns warnings into errors; no values also divided by 0
    @pytest.mark.parametrize(
        "x, y",
        [
            ([], [1.0, 2.0]),
            ([1.0], [1.0, 2.0]),
            ([1.0, 2.0], []),
            ([1.0, 2.0], np.array([3.0])),
            ([], []),
        ],
        ids=["no-x", "one-x", "no-y", "one-y", "neither"],
    )
    def test_a_sample_of_fewer_than_2_values_is_degenerate(self, x, y):
        with pytest.raises(DegenerateStatisticsError, match="at least 2 values"):
            compare_samples(x, y)


class TestSignificanceRule:
    def test_strict_excludes_boundary_effect(self):
        assert significance_flag(0.01, 0.81) is True
        assert significance_flag(0.01, 0.8) is False
        assert significance_flag(0.01, -0.81) is True
        assert significance_flag(0.06, 2.0) is False

    def test_inclusive_admits_boundary_effect(self):
        rule = SignificanceRule.INCLUSIVE
        assert significance_flag(0.01, 0.8, rule) is True
        assert significance_flag(0.01, 0.79, rule) is False
        assert significance_flag(0.06, 0.9, rule) is False

    def test_rule_wire_values(self):
        assert SignificanceRule.STRICT.value == "strict"
        assert SignificanceRule.INCLUSIVE.value == "inclusive"


def feature_row(sid, group, task, segment, placement, value):
    fv = FeatureVector(
        nmcp_a=int(value), np_a=int(value) + 1, sparc=-value - 1.0, ldlj_a=-value - 2.0,
        rav=value + 3.0, pi=value + 4.0, duration_s=value + 5.0,
    )
    return FeatureRow(sid, group, task, segment, placement, fv)


def full_matrix(n_patients=3, n_healthy=3, offset=5.0):
    rng = np.random.default_rng(101)
    rows = []
    for group, n, prefix, base in (
        (Group.PATIENT, n_patients, "P", offset),
        (Group.HEALTHY, n_healthy, "H", 0.0),
    ):
        for i in range(n):
            for task in TaskKind:
                for segment in SegmentKind:
                    for placement in Placement:
                        value = base + float(rng.uniform(0.0, 2.0)) + i
                        rows.append(
                            feature_row(f"{prefix}{i:02d}", group, task, segment, placement, value)
                        )
    return rows


class TestCompareCohort:
    def test_grid_is_complete(self):
        table = compare_cohort(full_matrix())
        assert len(table.cells) == 260
        assert set(table.cells) == set(cell_keys())
        assert table.n1 == 3 and table.n2 == 3
        assert table.untestable_count() == 0

    def test_cell_values_match_direct_computation(self):
        rows = full_matrix()
        table = compare_cohort(rows)
        key_task, key_seg, key_pl = TaskKind.WUB, SegmentKind.SUB2, Placement.ARM
        xs = [r.features.rav for r in rows
              if r.group is Group.PATIENT and r.task is key_task
              and r.segment is key_seg and r.placement is key_pl]
        ys = [r.features.rav for r in rows
              if r.group is Group.HEALTHY and r.task is key_task
              and r.segment is key_seg and r.placement is key_pl]
        cell = table.cell(key_task, "rav", key_pl, key_seg)
        assert cell == compare_samples(xs, ys)

    def test_duration_observations_come_from_wrist_rows(self):
        rows = full_matrix()
        table = compare_cohort(rows)
        xs = [r.features.duration_s for r in rows
              if r.group is Group.PATIENT and r.task is TaskKind.WH
              and r.segment is SegmentKind.COMPLETE and r.placement is Placement.WRIST]
        ys = [r.features.duration_s for r in rows
              if r.group is Group.HEALTHY and r.task is TaskKind.WH
              and r.segment is SegmentKind.COMPLETE and r.placement is Placement.WRIST]
        cell = table.cell(TaskKind.WH, "duration_s", None, SegmentKind.COMPLETE)
        assert cell == compare_samples(xs, ys)

    def test_missing_group_is_cohort_error(self):
        rows = [r for r in full_matrix() if r.group is Group.PATIENT]
        with pytest.raises(CohortError):
            compare_cohort(rows)

    def test_single_subject_group_is_cohort_error(self):
        rows = [r for r in full_matrix() if r.group is Group.PATIENT or r.subject_id == "H00"]
        with pytest.raises(CohortError, match="at least 2"):
            compare_cohort(rows)

    def test_degenerate_cell_becomes_untestable(self):
        # Integer-valued nmcp_a columns can be constant in both groups;
        # force that by using the same value for every subject.
        rows = []
        for group, prefix in ((Group.PATIENT, "P"), (Group.HEALTHY, "H")):
            for i in range(2):
                for task in TaskKind:
                    for segment in SegmentKind:
                        for placement in Placement:
                            rows.append(feature_row(f"{prefix}{i}", group, task, segment, placement, 1.0))
        table = compare_cohort(rows)
        assert table.untestable_count() == 260
        assert table.cell(TaskKind.WH, "nmcp_a", Placement.WRIST, SegmentKind.SUB1) is None

    def test_a_cell_with_one_observation_in_a_group_is_untestable(self):
        key = (TaskKind.WLB, SegmentKind.SUB3, Placement.ARM)
        rows = [
            r for r in full_matrix()
            if r.subject_id not in ("P01", "P02") or (r.task, r.segment, r.placement) != key
        ]
        table = compare_cohort(rows)
        assert table.untestable_count() == 6
        assert table.cell(TaskKind.WLB, "rav", Placement.ARM, SegmentKind.SUB3) is None
        # duration is taken from the wrist rows, which are all there
        assert table.cell(TaskKind.WLB, "duration_s", None, SegmentKind.SUB3) is not None

    def test_inclusive_rule_is_recorded(self):
        table = compare_cohort(full_matrix(), rule=SignificanceRule.INCLUSIVE)
        assert table.rule is SignificanceRule.INCLUSIVE


class TestComparisonTable:
    def test_incomplete_grid_rejected(self):
        keys = list(cell_keys())
        cells = {k: None for k in keys[:-1]}
        with pytest.raises(ValidationError, match="incomplete"):
            ComparisonTable(n1=2, n2=2, rule=SignificanceRule.STRICT, cells=cells)

    @pytest.mark.parametrize(
        "n1, n2", [(True, 20), (20, False), (1, 20), (20, 0), (-7, 20), (2.0, 20), (20, "20")]
    )
    def test_a_group_size_no_comparison_can_have_is_rejected(self, n1, n2):
        cells = dict.fromkeys(cell_keys())
        with pytest.raises(ValidationError, match="must be an integer of at least 2"):
            ComparisonTable(n1=n1, n2=n2, rule=SignificanceRule.STRICT, cells=cells)

    def test_cell_validation(self):
        with pytest.raises(ValidationError):
            ComparisonCell(t_stat=1.0, dof=5.0, p_value=1.5, d=0.1, d_ci_low=-1.0, d_ci_high=1.0)
        with pytest.raises(ValidationError):
            ComparisonCell(t_stat=1.0, dof=5.0, p_value=0.5, d=2.0, d_ci_low=-1.0, d_ci_high=1.0)
