"""tabrc: synthetic reading-comprehension corpora from semi-structured
tables, plus accuracy-driven multi-task sampling schedules.

The public names load on first use (PEP 562), so `import tabrc` loads no
submodule, and each CLI command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it provides.
_SOURCES = {
    "facts": ("Context", "Fact", "FactKind", "FactPlan", "FactPool", "GoldSpec",
              "build_context"),
    "generators": ("Answer", "AnswerKind", "Instantiation", "Triplet", "generate"),
    "grammar": ("Template",),
    "sampling": ("AccuracyHistory", "SamplerConfig", "TaskDistribution", "compose_batch",
                 "error_sampling", "momentum_sampling", "on_checkpoint", "uniform"),
    "shared": ("GeneratorKind", "Strategy"),
    "simulation": ("LearnerTask", "SimulationConfig", "run_simulation", "two_task_report"),
    "tables": ("MalformedRecord", "RawTable", "ShapeRejected", "TypedTable", "ingest"),
    "values": ("Date", "Duration", "SemanticType", "parse_date", "parse_number"),
}
_ORIGIN = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORIGIN))
