"""Convergence analysis toolkit for multi-stage retry pipelines.

The model: a generation pipeline advances through a fixed number of stages,
each stage needing a geometrically distributed number of attempts with a
shared per-attempt success probability. The package provides the exact
absorbing-chain analysis, a vectorized simulator, distribution statistics,
operating-region classification, and an online drift monitor, plus a CLI
(`convlab`) wrapping all of it.
"""

from .calibrate import (
    ActionKind,
    CalibrationAction,
    CalibrationState,
    EventColumns,
    MonitorConfig,
    MonitorTrace,
    StageEvent,
    monitor_columns,
    observe,
    parse_event_columns,
    parse_event_line,
    read_events_jsonl,
    replay,
    synthesize_drift_stream,
)
from .errors import (
    ConvlabError,
    EmptyInputError,
    InsufficientDataError,
    InsufficientTailError,
    OutOfOrderError,
    ResourceLimitError,
    SingularMatrixError,
)
from .harness import CrossValidationReport, cross_validate
from .markov import (
    CanonicalDecomposition,
    ChainAnalysis,
    PipelineSpec,
    analyze,
    build_pipeline_chain,
    decompose,
    failure_counting_expected_steps,
    pipeline_expected_steps,
)
from .regions import RegionLabel, classify
from .rng import child_seed, generator, trial_generators, validate_seed
from .simulate import (
    SimConfig,
    TotalsHistogram,
    TrialBatch,
    run_batch,
    run_histogram,
    run_sweep,
    sample_geometric,
)
from .stats import (
    SummaryStats,
    ccdf,
    nearest_rank_percentile,
    negbin_cdf,
    negbin_quantile,
    negbin_survival,
    prefactor_corrected_slope,
    summarize,
    tail_decay_fit,
)

__version__ = "0.1.0"

__all__ = [
    "ActionKind",
    "CalibrationAction",
    "CalibrationState",
    "CanonicalDecomposition",
    "ChainAnalysis",
    "ConvlabError",
    "CrossValidationReport",
    "EmptyInputError",
    "EventColumns",
    "InsufficientDataError",
    "InsufficientTailError",
    "MonitorConfig",
    "MonitorTrace",
    "OutOfOrderError",
    "PipelineSpec",
    "RegionLabel",
    "ResourceLimitError",
    "SimConfig",
    "SingularMatrixError",
    "StageEvent",
    "SummaryStats",
    "TotalsHistogram",
    "TrialBatch",
    "analyze",
    "build_pipeline_chain",
    "ccdf",
    "child_seed",
    "classify",
    "cross_validate",
    "decompose",
    "failure_counting_expected_steps",
    "generator",
    "monitor_columns",
    "nearest_rank_percentile",
    "negbin_cdf",
    "negbin_quantile",
    "negbin_survival",
    "observe",
    "parse_event_columns",
    "parse_event_line",
    "pipeline_expected_steps",
    "prefactor_corrected_slope",
    "read_events_jsonl",
    "replay",
    "run_batch",
    "run_histogram",
    "run_sweep",
    "sample_geometric",
    "summarize",
    "synthesize_drift_stream",
    "tail_decay_fit",
    "trial_generators",
    "validate_seed",
]
