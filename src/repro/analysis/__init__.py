"""Analysis utilities: windowed statistics, tables, experiment records."""

from repro.analysis.windows import (
    WindowSummary,
    burstiness_ratio,
    peak_to_median,
    summarize_windows,
)
from repro.analysis.stats import describe, Description
from repro.analysis.tables import render_table
from repro.analysis.results import ExperimentLog, ExperimentRecord

__all__ = [
    "Description",
    "ExperimentLog",
    "ExperimentRecord",
    "WindowSummary",
    "burstiness_ratio",
    "describe",
    "peak_to_median",
    "render_table",
    "summarize_windows",
]
