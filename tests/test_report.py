"""Table rendering conventions and the dump round trip."""

from pathlib import Path

import numpy as np
import pytest

from reference_table import build_reference_table
from shoulderkin import ParseError, ValidationError, read_dump, render_report, write_dump
from shoulderkin.cli import EXIT_INVALID, main
from shoulderkin.formats import TaskKind
from shoulderkin.report import (
    DUMP_HEADER,
    TASK_TITLES,
    UNTESTABLE_MARK,
    footnote,
    format_p,
    render_task_table,
)
from shoulderkin.stats import ComparisonCell, ComparisonTable, SignificanceRule, cell_keys

GOLDEN = Path(__file__).parent / "data" / "golden_report.txt"
NUMBER_FIELDS = ("t_stat", "dof", "p_value", "d", "d_ci_low", "d_ci_high")


class TestFormatP:
    def test_three_decimals(self):
        assert format_p(0.0174999) == "0.017"
        assert format_p(0.05) == "0.050"
        assert format_p(1.0) == "1.000"

    def test_small_value_floor(self):
        assert format_p(0.0) == "<0.001"
        assert format_p(0.0004999) == "<0.001"
        assert format_p(0.0005) == "0.001"


class TestFootnote:
    def test_strict(self):
        assert footnote(SignificanceRule.STRICT) == "*: p < 0.05 and Cohen's d > 0.8"

    def test_inclusive(self):
        assert footnote(SignificanceRule.INCLUSIVE) == "*: p < 0.05 and Cohen's d >= 0.8"


class TestRenderTaskTable:
    def test_matches_golden_file(self):
        text = render_report(build_reference_table())
        assert text == GOLDEN.read_text(encoding="utf-8")

    def test_title_line_per_task(self):
        table = build_reference_table()
        for task in TaskKind:
            text = render_task_table(table, task)
            first = text.splitlines()[0]
            assert first == f"{task.value}: {TASK_TITLES[task]}"

    def test_segment_column_headers(self):
        text = render_task_table(build_reference_table(), TaskKind.WH)
        header = text.splitlines()[1]
        for title in ("Complete Task", "Subtask 1", "Subtask 2", "Subtask 3"):
            assert title in header

    def test_duration_row_has_na_placement(self):
        text = render_task_table(build_reference_table(), TaskKind.WH)
        duration_lines = [l for l in text.splitlines() if l.startswith("Duration")]
        assert len(duration_lines) == 1
        assert duration_lines[0].split()[1] == "N/A"

    def test_two_rows_per_placement_feature(self):
        text = render_task_table(build_reference_table(), TaskKind.POH)
        lines = text.splitlines()
        wrist_rows = [l for l in lines if " Wrist " in f" {l} "]
        arm_rows = [l for l in lines if l.lstrip().startswith("Arm")]
        assert len(wrist_rows) == 6
        assert len(arm_rows) == 6

    def test_star_and_floor_conventions_present(self):
        text = render_report(build_reference_table())
        assert "<0.001*" in text
        assert "0.017*" in text
        assert "0.650" in text
        assert UNTESTABLE_MARK in text
        assert text.count(footnote(SignificanceRule.STRICT)) == len(TaskKind)

    def test_boundary_effect_not_starred_under_strict(self):
        # the template with p = 0.02, d = 0.8 sits exactly on the strict
        # boundary and must render without a star
        text = render_report(build_reference_table())
        assert "0.020*" not in text
        assert "0.020" in text

    def test_inclusive_rule_stars_boundary_and_changes_footnote(self):
        text = render_report(build_reference_table(SignificanceRule.INCLUSIVE))
        assert "0.020*" in text
        assert footnote(SignificanceRule.INCLUSIVE) in text


class TestDumpRoundTrip:
    def test_identity(self, tmp_path):
        table = build_reference_table()
        path = tmp_path / "comparison.csv"
        path.write_bytes(write_dump(table))
        back = read_dump(path)
        assert back.n1 == table.n1
        assert back.n2 == table.n2
        assert back.rule is table.rule
        for key in cell_keys():
            a, b = table.cells[key], back.cells[key]
            if a is None:
                assert b is None
                continue
            assert a == b

    def test_numpy_scalars_round_trip(self, tmp_path):
        table = build_reference_table()
        cells = {
            key: None if cell is None else ComparisonCell(
                *(np.float64(getattr(cell, name)) for name in NUMBER_FIELDS)
            )
            for key, cell in table.cells.items()
        }
        numpy_table = ComparisonTable(n1=np.int64(20), n2=np.int64(20), rule=table.rule, cells=cells)
        path = tmp_path / "comparison.csv"
        path.write_bytes(write_dump(numpy_table))
        assert write_dump(numpy_table) == write_dump(table)
        assert read_dump(path).cells == table.cells

    def test_rendering_survives_round_trip(self, tmp_path):
        table = build_reference_table()
        path = tmp_path / "comparison.csv"
        path.write_bytes(write_dump(table))
        assert render_report(read_dump(path)) == render_report(table)

    def test_preamble_and_header(self, tmp_path):
        lines = write_dump(build_reference_table()).decode("utf-8").splitlines()
        assert lines[0] == "rule,strict"
        assert lines[1] == "n1,20"
        assert lines[2] == "n2,20"
        assert lines[3] == DUMP_HEADER
        assert len(lines) == 4 + 260

    def test_duration_rows_use_na_placement(self):
        lines = write_dump(build_reference_table()).decode("utf-8").splitlines()
        duration = [l for l in lines if l.split(",")[1] == "duration_s"]
        assert duration and all(l.split(",")[2] == "NA" for l in duration)

    def test_untestable_rows_have_empty_statistics(self):
        lines = write_dump(build_reference_table()).decode("utf-8").splitlines()
        untestable = [l for l in lines[4:] if l.split(",")[4] == "untestable"]
        assert untestable
        for line in untestable:
            assert line.split(",")[5:] == [""] * 7


class TestDumpDiagnostics:
    def write(self, tmp_path, mutate):
        lines = write_dump(build_reference_table()).decode("utf-8").splitlines()
        lines = mutate(lines)
        path = tmp_path / "comparison.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_bad_preamble(self, tmp_path):
        path = self.write(tmp_path, lambda ls: ["rule=strict"] + ls[1:])
        with pytest.raises(ParseError, match="rule"):
            read_dump(path)

    @pytest.mark.parametrize("line_no, line", [(2, "n1,1"), (2, "n1,0"), (3, "n2,-7")])
    def test_a_group_size_under_two_is_invalid(self, tmp_path, line_no, line):
        def mutate(ls):
            ls[line_no - 1] = line
            return ls

        path = self.write(tmp_path, mutate)
        name, size = line.split(",")
        message = rf"comparison\.csv:{line_no}: {name} must be an integer of at least 2, got {size}$"
        with pytest.raises(ValidationError, match=message):
            read_dump(path)
        assert main(["report", str(path)]) == EXIT_INVALID

    def test_unknown_rule(self, tmp_path):
        path = self.write(tmp_path, lambda ls: ["rule,fuzzy"] + ls[1:])
        with pytest.raises(ParseError, match=r"comparison\.csv:1: cannot parse value for 'rule': 'fuzzy' is not one of"):
            read_dump(path)

    def test_missing_cell_rejected(self, tmp_path):
        path = self.write(tmp_path, lambda ls: ls[:-1])
        with pytest.raises(ParseError, match="incomplete"):
            read_dump(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = self.write(tmp_path, lambda ls: ls + [ls[4]])
        with pytest.raises(ParseError, match="duplicate"):
            read_dump(path)

    def test_untestable_with_statistics_rejected(self, tmp_path):
        def mutate(ls):
            out = []
            fixed = False
            for l in ls:
                parts = l.split(",")
                if not fixed and len(parts) == 12 and parts[4] == "untestable":
                    parts[5] = "1.0"
                    l = ",".join(parts)
                    fixed = True
                out.append(l)
            assert fixed
            return out

        path = self.write(tmp_path, mutate)
        with pytest.raises(ParseError, match="carries statistics"):
            read_dump(path)

    def test_non_numeric_statistic_rejected(self, tmp_path):
        def mutate(ls):
            parts = ls[4].split(",")
            assert parts[4] == "ok"
            parts[5] = "abc"
            ls[4] = ",".join(parts)
            return ls

        path = self.write(tmp_path, mutate)
        with pytest.raises(ParseError, match=r"comparison\.csv:5: cannot parse value for 't': 'abc' is not a number"):
            read_dump(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="file not found"):
            read_dump(tmp_path / "absent.csv")

    def test_the_rule_line_decides_the_star(self, tmp_path):
        # the p = 0.02, d = 0.8 rows are unstarred under the strict rule only
        path = self.write(tmp_path, lambda ls: ["rule,inclusive"] + ls[1:])
        line = next(
            i for i, l in enumerate(path.read_text().splitlines(), 1) if ",0.02,0.8," in l
        )
        message = (
            rf"comparison\.csv:{line}: significant is false, but p = 0\.02 and d = 0\.8 "
            "under the inclusive rule give true$"
        )
        with pytest.raises(ValidationError, match=message):
            read_dump(path)

    @pytest.mark.parametrize("rule", list(SignificanceRule))
    def test_each_rule_reads_back_its_own_stars(self, tmp_path, rule):
        path = tmp_path / "comparison.csv"
        path.write_bytes(write_dump(build_reference_table(rule)))
        assert read_dump(path) == build_reference_table(rule)

    @pytest.mark.parametrize("significant", ["True", "1", ""])
    def test_significant_must_be_true_or_false(self, tmp_path, significant):
        def mutate(ls):
            ls[4] = ls[4].removesuffix(",true") + "," + significant
            return ls

        path = self.write(tmp_path, mutate)
        with pytest.raises(ParseError, match=r"comparison\.csv:5: significant must be true/false"):
            read_dump(path)
