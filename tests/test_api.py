"""The package's top-level names are exactly the documented API."""

import importlib
import importlib.util
import re
import sys
from inspect import ismodule
from pathlib import Path

import shoulderkin

README = Path(__file__).resolve().parents[1] / "README.md"
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

PUBLIC = {
    # the pipeline, as the README's library section lists it
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


def test_package_source_never_mentions_scipy():
    # numpy is the only runtime dependency; scipy is the tests' oracle
    sources = sorted(Path(shoulderkin.__file__).parent.glob("*.py"))
    assert sources
    mentions = [p.name for p in sources if "scipy" in p.read_text(encoding="utf-8").lower()]
    assert mentions == []


def test_only_the_helper_module_forks_or_pickles():
    # `helper.in_order` is the one way the package uses a second CPU
    sources = sorted(Path(shoulderkin.__file__).parent.glob("*.py"))
    assert "helper.py" in [p.name for p in sources]
    pattern = re.compile(r"os\.fork|os\.pipe|os\._exit|pickle")
    mentions = [
        f"{p.name}: {match}"
        for p in sources
        if p.name != "helper.py"
        for match in pattern.findall(p.read_text(encoding="utf-8"))
    ]
    assert mentions == []


def test_every_traced_function_exists():
    # the benchmark's tracer wraps these by name; a rename or deletion here
    # would otherwise surface only in its own, much slower, self-tests
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name, _span in spans.WRAPPED
        if not callable(getattr(importlib.import_module(f"shoulderkin.{module}"), name, None))
    ]
    assert spans.WRAPPED
    assert missing == []
    # it loads by path here because it imports only the standard library
    imported = {value.__name__.split(".")[0] for value in vars(spans).values() if ismodule(value)}
    assert imported and imported <= sys.stdlib_module_names
    assert set(spans.COUNTERS) <= {name for _module, name, _span in spans.WRAPPED}
