"""tabrc: synthetic reading-comprehension corpora from semi-structured
tables, plus accuracy-driven multi-task sampling schedules."""

from .facts import (
    Context,
    ContextConfig,
    Fact,
    FactKind,
    FactPlan,
    FactPool,
    GoldSpec,
    build_context,
)
from .generators import (
    Answer,
    AnswerKind,
    GeneratorKind,
    Instantiation,
    Template,
    Triplet,
    generate,
)
from .sampling import (
    AccuracyHistory,
    SamplerConfig,
    Strategy,
    TaskDistribution,
    compose_batch,
    error_sampling,
    momentum_sampling,
    on_checkpoint,
    uniform,
)
from .simulation import LearnerTask, SimulationConfig, run_simulation, two_task_report
from .tables import CellValue, MalformedRecord, RawTable, ShapeRejected, TypedTable, ingest
from .values import Date, Duration, SemanticType, parse_date, parse_number

__version__ = "0.1.0"

__all__ = [
    "Answer", "AnswerKind", "AccuracyHistory", "CellValue", "Context", "ContextConfig",
    "Date", "Duration", "Fact", "FactKind", "FactPlan", "FactPool", "GeneratorKind", "GoldSpec",
    "Instantiation", "LearnerTask", "MalformedRecord", "RawTable", "SamplerConfig",
    "SemanticType", "ShapeRejected", "SimulationConfig", "Strategy", "TaskDistribution",
    "Template", "Triplet", "TypedTable", "build_context", "compose_batch",
    "error_sampling", "generate", "ingest", "momentum_sampling", "on_checkpoint",
    "parse_date", "parse_number", "run_simulation", "two_task_report", "uniform",
]
