"""Analysis utilities: statistics, the passenger-discomfort metric, and
ASCII table/series reporting."""

from .ascii_plot import line_chart
from .chains import ChainBudget, StageBudget, chain_budget, render_chain_budget
from .discomfort import COMFORT_JERK_THRESHOLD, DiscomfortReport, discomfort, jerk_series
from .latency import LatencyReport, command_latencies, latency_report
from .report import format_comparison, format_series, format_table, sparkline
from .stats import clip_series, mean, percentile, rms, rms_series

__all__ = [
    "line_chart",
    "ChainBudget",
    "StageBudget",
    "chain_budget",
    "render_chain_budget",
    "COMFORT_JERK_THRESHOLD",
    "DiscomfortReport",
    "discomfort",
    "jerk_series",
    "LatencyReport",
    "command_latencies",
    "latency_report",
    "format_comparison",
    "format_series",
    "format_table",
    "sparkline",
    "clip_series",
    "mean",
    "percentile",
    "rms",
    "rms_series",
]
