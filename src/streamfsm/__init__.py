"""Streaming frequent-subgraph mining over fully-dynamic labeled edge streams."""

from .engine import (
    EngineConfig,
    EngineError,
    EventStats,
    FrequencyEstimate,
    FrequentReport,
    MetricsResult,
    build_engine,
    metrics,
    recommended_sample_size,
    snapshot_lines,
)
from .exploration import (
    compute_d_exact,
    compute_w_approx,
    compute_w_exact,
    new_vertex_sets,
)
from .graph import (
    DynamicLabeledGraph,
    GraphError,
    LabelConflictError,
    SubgraphInstance,
    is_connected,
)
from .pattern import (
    PatternBudgetError,
    PatternKey,
    canonical_key,
    count_patterns,
)
from .sampling import (
    SampleInvariantError,
    SubgraphReservoir,
    skip_rp,
    skip_rp_sequential,
    skip_rs,
    skip_rs_sequential,
)
from .sketch import (
    BottomKSketch,
    SketchStore,
    VertexHasher,
    intersection_estimate,
)
from .stream import (
    StreamEvent,
    StreamFormatError,
    drive_window,
    format_event,
    generate_stream,
    load_stream,
    parse_event,
    read_stream,
    write_stream,
)

__version__ = "0.1.0"

__all__ = [
    "BottomKSketch",
    "DynamicLabeledGraph",
    "EngineConfig",
    "EngineError",
    "EventStats",
    "FrequencyEstimate",
    "FrequentReport",
    "GraphError",
    "LabelConflictError",
    "MetricsResult",
    "PatternBudgetError",
    "PatternKey",
    "SampleInvariantError",
    "SketchStore",
    "StreamEvent",
    "StreamFormatError",
    "SubgraphInstance",
    "SubgraphReservoir",
    "VertexHasher",
    "build_engine",
    "canonical_key",
    "compute_d_exact",
    "compute_w_approx",
    "compute_w_exact",
    "count_patterns",
    "drive_window",
    "format_event",
    "generate_stream",
    "intersection_estimate",
    "is_connected",
    "load_stream",
    "metrics",
    "new_vertex_sets",
    "parse_event",
    "read_stream",
    "recommended_sample_size",
    "skip_rp",
    "skip_rp_sequential",
    "skip_rs",
    "skip_rs_sequential",
    "snapshot_lines",
    "write_stream",
]
