"""IMU-based shoulder functional task assessment.

Ingests wrist/arm inertial recordings of five shoulder tasks, slices them
into labelled subtasks, computes seven kinematic features per segment, and
compares patient against healthy groups with Welch's t-test and Cohen's d.
A deterministic minimum-jerk simulator stands in for clinical data.

The names in ``__all__`` are the documented API; everything else is
imported from its own module (``shoulderkin.dsp``, ``shoulderkin.model``,
...). Importing the package loads none of its modules: each submodule is
registered in ``sys.modules`` with `importlib.util.LazyLoader` and runs on
its first attribute access, and each documented name loads its module
when it is first looked up. So a process loads numpy only once it reaches
a stage that works on arrays; `compare` and `report` never do.
"""

import importlib.util
import sys

# every module of the package but `__main__`
_SUBMODULES = (
    "errors", "formats", "helper", "model", "dsp", "ingest",
    "features", "stats", "report", "synth", "cli",
)

# each documented name and the module that defines it
_EXPORTS = {
    "main": "cli",
    "BoundaryError": "errors",
    "CohortError": "errors",
    "DegenerateSignalError": "errors",
    "DegenerateStatisticsError": "errors",
    "FeatureError": "errors",
    "ParseError": "errors",
    "ShoulderKinError": "errors",
    "TooShortError": "errors",
    "ValidationError": "errors",
    "FeatureParams": "features",
    "extract_cohort": "features",
    "read_matrix": "formats",
    "write_matrix": "formats",
    "load_cohort": "ingest",
    "read_dump": "report",
    "render_report": "report",
    "write_dump": "report",
    "compare_cohort": "stats",
    "default_profile": "synth",
    "generate_cohort": "synth",
    "write_profile": "synth",
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def _register_lazily(name: str):
    """Put the submodule in ``sys.modules`` unexecuted (the lazy-import
    recipe of the `importlib` documentation), unless it is there already."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


# each one also an attribute of the package, as an import makes it
for _name in _SUBMODULES:
    globals()[_name] = _register_lazily(f"{__package__}.{_name}")
del _name


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
