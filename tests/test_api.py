"""The package's top-level names are exactly the documented API."""

import re
from inspect import ismodule
from pathlib import Path

import shoulderkin

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    # the README's library example
    "default_profile",
    "generate_cohort",
    "load_cohort",
    "extract_cohort",
    "compare_cohort",
    "render_report",
    # parameters and the file formats passed between stages
    "FeatureParams",
    "write_matrix",
    "read_matrix",
    "write_dump",
    "read_dump",
    "write_profile",
    # the CLI entry point
    "main",
    # the errors a caller catches
    "ShoulderKinError",
    "ParseError",
    "ValidationError",
    "BoundaryError",
    "TooShortError",
    "DegenerateSignalError",
    "FeatureError",
    "DegenerateStatisticsError",
    "CohortError",
}


def test_exports_exactly_the_documented_names():
    exported = {
        name
        for name, value in vars(shoulderkin).items()
        if not name.startswith("_") and not ismodule(value)
    }
    assert len(PUBLIC) == 22
    assert exported == PUBLIC
    assert isinstance(shoulderkin.__version__, str)


def test_readme_library_example_imports_only_exported_names():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"from shoulderkin import \(([^)]*)\)", library)
    assert block is not None
    names = set(re.findall(r"\w+", block.group(1)))
    assert names
    assert names <= PUBLIC
