"""The package's top-level names are exactly the documented API."""

import ast
import importlib
import importlib.util
import inspect
import pickle
import re
import sys
from inspect import ismodule
from pathlib import Path

import numpy as np
import pytest

import shoulderkin
from shoulderkin import cli, default_profile, errors, extract_cohort, load_cohort, write_profile
from shoulderkin.formats import Group, Placement, SegmentKind, TaskKind
from shoulderkin.helper import in_order
from shoulderkin.model import SensorStream
from shoulderkin.synth import generate_session

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SPANS = ROOT / "perfbench" / "spans.py"

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
    # the package serves its names on first lookup, so they are listed by
    # `__all__` and `dir()`, not held in its namespace
    exported = {
        name
        for name in dir(shoulderkin)
        if not name.startswith("_") and not ismodule(getattr(shoulderkin, name))
    }
    assert len(PUBLIC) == 22
    assert len(shoulderkin.__all__) == 22
    assert set(shoulderkin.__all__) == exported == PUBLIC
    for name in PUBLIC:
        value = getattr(shoulderkin, name)
        assert value.__module__.startswith("shoulderkin.") and value.__name__ == name
    with pytest.raises(AttributeError, match="no attribute 'spectral_arc_length'"):
        shoulderkin.spectral_arc_length
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


def test_only_ingest_spells_the_cohort_file_names():
    # the cohort directory's layout lives beside its reader: `save_session`
    # and `save_cohort` write what `load_session` and `walk_cohort` read
    sources = sorted(Path(shoulderkin.__file__).parent.glob("*.py"))
    assert "ingest.py" in [p.name for p in sources]
    pattern = re.compile(r"_session\.txt|_labels\.csv|_wrist\.csv|_arm\.csv|COHORT_MANIFEST_NAME")
    mentions = [
        f"{p.name}: {match}"
        for p in sources
        if p.name != "ingest.py"
        for match in pattern.findall(p.read_text(encoding="utf-8"))
    ]
    assert mentions == []


def test_only_the_helper_module_imports_concurrency():
    # the helper is a bare fork; threads gave nothing (ROADMAP, "Decisions that stand")
    sources = sorted(Path(shoulderkin.__file__).parent.glob("*.py"))
    banned = {"multiprocessing", "threading", "concurrent", "subprocess", "signal"}
    imports = []
    for path in sources:
        if path.name == "helper.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            imports += [f"{path.name}: {name}" for name in names if name.split(".")[0] in banned]
    assert imports == []


# `@` and numpy's routines that reach BLAS, by name; anything under
# `linalg` does too
BLAS_NAMES = {"@", "dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def blas_uses(source: str) -> list[str]:
    """Each `@` and each BLAS name that `source` uses or imports, with its line."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            names = ["@"]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".")
        else:
            continue
        uses += [f"{node.lineno}: {name}" for name in names if name in BLAS_NAMES]
    return uses


@pytest.mark.parametrize(
    "source",
    [
        "a @ b",
        "a @= b",
        "np.dot(a, b)",
        "a.dot(b)",
        "np.einsum('i,i', a, b)",
        "np.linalg.norm(a)",
        "from numpy.linalg import norm",
        "from numpy import linalg",
        "import numpy.linalg",
        "from numpy import inner as product",
    ],
)
def test_the_blas_guard_sees_each_way_in(source):
    assert blas_uses(source) != []


def test_no_module_calls_a_blas_routine():
    # the helper's forked child runs the stages, and BLAS threads do not
    # survive a fork (see `helper`), so no module calls a BLAS routine
    sources = sorted(Path(shoulderkin.__file__).parent.glob("*.py"))
    uses = [f"{p.name}:{use}" for p in sources for use in blas_uses(p.read_text(encoding="utf-8"))]
    assert uses == []


def test_the_version_is_the_one_in_pyproject():
    # tomllib is 3.11 and later, so the [project] table is read by pattern
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S)
    assert project is not None
    version = re.search(r'^version = "([^"]+)"$', project.group(1), re.M)
    assert version is not None
    assert shoulderkin.__version__ == version.group(1)


def imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, package modules by their bare name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("stem", ["errors", "formats", "stats", "report"])
def test_the_text_stages_import_no_numpy_stage(stem):
    # `compare` and `report` run on these alone, so neither loads numpy
    package = Path(shoulderkin.__file__).parent
    imported = imported_modules(package / f"{stem}.py")
    own = {path.stem for path in package.glob("*.py")}
    assert imported & own <= {"errors", "formats", "stats"}
    assert imported - own <= sys.stdlib_module_names


def load_spans():
    """The benchmark's tracer, loaded by path: it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module's own top-level statements bind, imports aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_name_is_imported_from_the_module_that_defines_it():
    # one name per object: no module hands out another's names, so each
    # import names the defining module, and a `src` import is there to be
    # used; the tracer's lookups by module and name are the one exception
    package = Path(shoulderkin.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    defined = {stem: defined_names(tree) for stem, tree in trees.items()}
    traced = {(module, name) for module, name, _span in load_spans().WRAPPED}
    sources = [package / f"{stem}.py" for stem in sorted(trees)]
    sources += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    misplaced, unused = [], []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(ROOT)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.partition(".")[0]: a.name for a in node.names}
            if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
                continue
            bound |= {a.asname or a.name: a.name for a in node.names}
            top, dot, module = (node.module or "").partition(".")
            if node.level == 1 and node.module:
                module = node.module
            elif node.level or top != "shoulderkin" or not dot:
                continue  # the package's exports and submodules, or another package
            misplaced += [
                f"{where}:{node.lineno}: {alias.name} from {module}"
                for alias in node.names
                if alias.name not in defined[module]
            ]
        if path.parent == package:
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [
                f"{path.stem}.{name} is imported but unused"
                for name, original in bound.items()
                if name not in used and (path.stem, original) not in traced
            ]
    assert misplaced + unused == [], "\n".join(misplaced + unused)


def fingerprint(value):
    """An exception as its class, message, attributes and cause; any other value as it is."""
    if not isinstance(value, BaseException):
        return value
    attributes = {name: fingerprint(item) for name, item in vars(value).items()}
    return type(value), str(value), attributes, fingerprint(value.__cause__)


def error_examples():
    """One instance of each exception class in `errors`, made as the package makes it."""
    made = {
        errors.ParseError: errors.ParseError("bad header", path="S01_wrist.csv", line=1),
        errors.FeatureError: errors.FeatureError(
            "P01", TaskKind.WH, SegmentKind.SUB2, Placement.ARM, errors.TooShortError("2 samples")
        ),
    }
    classes = [
        value
        for value in vars(errors).values()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == errors.__name__
    ]
    assert set(made) <= set(classes)
    return [made[cls] if cls in made else cls("a message") for cls in classes]


@pytest.mark.parametrize("err", error_examples(), ids=lambda err: type(err).__name__)
def test_every_error_survives_pickle(err):
    # what a helper process sends, failures included, must read back whole
    assert fingerprint(pickle.loads(pickle.dumps(err))) == fingerprint(err)


def test_a_session_read_back_from_the_pipe_holds_read_only_arrays():
    session = generate_session(default_profile(n_per_group=2), Group.PATIENT, 0)
    _, sent = in_order(range(2), lambda item: session)  # item 1 is the helper's
    assert sent is not session
    fields = ("subject_id", "group", "side", "labels")
    assert [getattr(sent, name) for name in fields] == [getattr(session, name) for name in fields]
    for placement, stream in session.streams.items():
        got = sent.streams[placement]
        assert got.sample_rate_hz == stream.sample_rate_hz
        for got_array, array in [(got.accel, stream.accel), (got.gyro, stream.gyro)]:
            assert got_array.dtype == np.float64 and not got_array.flags.writeable
            assert got_array.tobytes() == array.tobytes()


def test_a_pickled_stream_edited_to_hold_nan_is_refused_on_load():
    data = pickle.dumps(SensorStream(accel=np.full((4, 3), 1.5), gyro=np.zeros((4, 3))))
    sample = np.float64(1.5).tobytes()
    assert data.count(sample) == 12
    edited = data.replace(sample, np.float64(np.nan).tobytes(), 1)
    with pytest.raises(errors.ValidationError, match="accel contains non-finite values"):
        pickle.loads(edited)


def test_every_traced_function_exists():
    # the benchmark's tracer wraps these by name; a rename or deletion here
    # would otherwise surface only in its own, much slower, self-tests
    spans = load_spans()
    missing = [
        f"{module}.{name}"
        for module, name, _span in spans.WRAPPED
        if not callable(getattr(importlib.import_module(f"shoulderkin.{module}"), name, None))
    ]
    assert spans.WRAPPED
    assert missing == []
    imported = {value.__name__.split(".")[0] for value in vars(spans).values() if ismodule(value)}
    assert imported and imported <= sys.stdlib_module_names
    assert set(spans.COUNTERS) <= {name for _module, name, _span in spans.WRAPPED}


# public names that the census below never calls, each with why it stays
NOT_ON_THE_TRACED_PATHS = {
    # perfbench/spans.py wraps this as `features.np_a`; extraction calls it
    # only for a window under 3 samples, to raise
    "features.peak_count",
    # the one-window case of the LDLJ-A, RAV and PI kernels, which extraction
    # runs over all of a placement's windows at once; perfbench/spans.py
    # wraps these three as `features.ldlj_a`, `features.rav` and `features.pi`
    "features.log_dimensionless_jerk",
    "features.angular_velocity_range",
    "features.power_index",
    # every bin's frequency, built only when read: perfbench/spans.py
    # `_count_spectrum` reads it to count `dsp.fft_points`, and SPARC reads
    # the spacing instead
    "dsp.Spectrum.freqs_hz",
    # renders one segment from pulse rows: the demos and the release gate
    # render pulses of their own choosing with it
    "synth.synth_segment",
}


def public_functions():
    """Every public function and method defined in the package, by qualified name."""
    found = {}
    for path in sorted(Path(shoulderkin.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"shoulderkin.{path.stem}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).items() if inspect.isclass(value) else [(None, value)]
            for attr, member in members:
                if attr is not None and attr.startswith("_"):
                    continue
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    found[".".join(filter(None, (path.stem, name, attr)))] = member.__code__
    return found


def test_every_public_function_is_called_by_the_pipeline_or_the_library_api(tmp_path, capsys):
    """A census of the code no documented path reaches: on a 2v2 cohort,
    the four CLI stages and the library's loading and extraction, under
    `sys.setprofile`. A helper process's calls are not seen, but this
    process makes each kind of call the helper makes."""
    profile, params = tmp_path / "profile.ini", tmp_path / "features.ini"
    params.write_text("sparc_pad_level = 2\n")
    cohort, matrix, out = (str(tmp_path / name) for name in ("cohort", "m.csv", "cmp"))
    dump = str(tmp_path / "cmp" / "comparison.csv")
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        profile.write_bytes(write_profile(default_profile(n_per_group=2)))
        codes = [
            cli.main(["simulate", "--params", str(profile), "--out", cohort]),
            cli.main(["extract", "--cohort", cohort, "--out", matrix, "--params", str(params)]),
            cli.main(["compare", matrix, "--out", out]),
            cli.main(["report", dump, "--out", str(tmp_path / "report.txt")]),
        ]
        sessions = load_cohort(cohort)
        from_list = extract_cohort(sessions)
        from_generator = extract_cohort(session for session in sessions)
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0, 0], capsys.readouterr().err
    assert from_list == from_generator and from_list[0]
    functions = public_functions()
    assert NOT_ON_THE_TRACED_PATHS <= set(functions)
    uncalled = {name for name, code in functions.items() if code not in called}
    assert uncalled == NOT_ON_THE_TRACED_PATHS
