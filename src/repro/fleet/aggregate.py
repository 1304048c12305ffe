"""Aggregation over a campaign store.

Loads the JSONL records back into the ``analysis.stats`` helpers: one
:class:`CellStats` per (scenario, variant, scheduler) cell with the mean /
std / 95% CI over its seeds, scheduler-vs-scheduler tables per group and
a per-seed ASCII chart.  The claims ledger reads its seed and overload
appendices straight from :func:`load_groups`.

Everything here orders by sorted job fields — never by store line order —
so the same set of finished jobs renders identically regardless of how
many workers produced it or in which order they finished.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..analysis.ascii_plot import line_chart
from ..analysis.report import format_table
from ..analysis.stats import mean, mean_ci95, sample_std
from .store import ResultStore

__all__ = [
    "CellStats",
    "CampaignGroup",
    "load_groups",
    "render_group",
    "render_store",
    "pick_metric",
]

#: Summary keys worth ranking on, in auto-pick preference order
#: (lower is better for all of them).
METRIC_PREFERENCE = (
    "speed_error_rms",
    "distance_error_rms",
    "lateral_offset_rms",
    "overall_miss_ratio",
    "control_response_mean",
)


def _variant_key(overrides: Mapping[str, object]) -> str:
    return json.dumps(
        {k: overrides[k] for k in sorted(overrides)}, sort_keys=True,
        separators=(",", ":"),
    )


@dataclass
class CellStats:
    """One scheduler's metric values across the seeds of one grid cell."""

    scenario: str
    scheduler: str
    overrides: Dict[str, object]
    seeds: List[int]
    values: List[float]

    @property
    def mean(self) -> float:
        return mean(self.values)

    @property
    def std(self) -> float:
        return sample_std(self.values)

    @property
    def ci95(self) -> float:
        return mean_ci95(self.values)

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)


@dataclass
class CampaignGroup:
    """All schedulers of one (scenario, variant) cell, seed-aligned."""

    scenario: str
    overrides: Dict[str, object]
    metric: str
    cells: Dict[str, CellStats]  # scheduler -> stats, in render order

    @property
    def seeds(self) -> List[int]:
        """The seeds every cell has (a partially resumed store may hold
        more for some schedulers; only shared seeds are comparable)."""
        cells = list(self.cells.values())
        if not cells:
            return []
        common = set(cells[0].seeds).intersection(*(c.seeds for c in cells[1:]))
        return sorted(common)

    def wins(self) -> Dict[str, int]:
        """Per-scheduler count of shared seeds where it had the lowest metric
        (a partially resumed store never awards a win by forfeit)."""
        counts = {s: 0 for s in self.cells}
        for seed in self.seeds:
            per_seed = {
                s: c.values[c.seeds.index(seed)] for s, c in self.cells.items()
            }
            counts[min(per_seed, key=per_seed.get)] += 1
        return counts

    def best_by_mean(self) -> str:
        return min(self.cells, key=lambda s: self.cells[s].mean)


def pick_metric(summaries: Sequence[Mapping[str, object]]) -> str:
    """First preference-order metric present in every summary of a group."""
    for key in METRIC_PREFERENCE:
        if summaries and all(key in s for s in summaries):
            return key
    raise ValueError(
        f"no common metric among {METRIC_PREFERENCE} in the stored summaries"
    )


def load_groups(
    store: Union[ResultStore, str, Path],
    metric: Optional[str] = None,
    schemes: Optional[Sequence[str]] = None,
) -> List[CampaignGroup]:
    """Group a store's records into per-(scenario, variant) tables.

    ``store`` is a JSONL :class:`ResultStore` or a path to one.
    ``metric`` forces one summary key for every group; ``None`` auto-picks
    per group (car-following groups rank on speed RMS, lane keeping on
    lateral offset).  ``schemes`` fixes the scheduler render order;
    ``None`` sorts alphabetically.
    """
    if isinstance(store, (str, Path)):
        store = ResultStore(store)
    records = [r for r in store.records() if "job" in r]
    grouped: Dict[Tuple[str, str], List[Dict[str, object]]] = {}
    for record in records:
        job = record["job"]
        key = (str(job["scenario"]), _variant_key(job.get("overrides", {})))
        grouped.setdefault(key, []).append(record)

    groups: List[CampaignGroup] = []
    for (scenario, vkey) in sorted(grouped):
        recs = grouped[(scenario, vkey)]
        overrides = dict(recs[0]["job"].get("overrides", {}))
        summaries = [r["summary"] for r in recs]
        group_metric = metric or pick_metric(summaries)
        per_sched: Dict[str, Dict[int, float]] = {}
        for r in recs:
            job, summary = r["job"], r["summary"]
            if group_metric not in summary:
                raise KeyError(
                    f"summary of {job} has no metric {group_metric!r}; "
                    f"available: {sorted(summary)}"
                )
            per_sched.setdefault(str(job["scheduler"]), {})[int(job["seed"])] = float(
                summary[group_metric]
            )
        if schemes is not None:
            order = [s for s in schemes if s in per_sched]
            order += sorted(set(per_sched) - set(order))
        else:
            order = sorted(per_sched)
        cells = {}
        for sched in order:
            by_seed = per_sched[sched]
            seeds = sorted(by_seed)
            cells[sched] = CellStats(
                scenario=scenario,
                scheduler=sched,
                overrides=overrides,
                seeds=seeds,
                values=[by_seed[s] for s in seeds],
            )
        groups.append(
            CampaignGroup(
                scenario=scenario, overrides=overrides, metric=group_metric,
                cells=cells,
            )
        )
    return groups


def render_group(group: CampaignGroup, chart: bool = True) -> str:
    """Scheduler-vs-scheduler table (and per-seed chart) for one group."""
    wins = group.wins()
    n_seeds = len(group.seeds)
    best = group.best_by_mean() if group.cells else None
    rows = []
    for sched, cell in group.cells.items():
        rows.append(
            [
                sched + (" *" if sched == best else ""),
                cell.mean,
                cell.std,
                cell.ci95,
                cell.min,
                cell.max,
                f"{wins.get(sched, 0)}/{n_seeds}",
            ]
        )
    ov = ""
    if group.overrides:
        ov = " [" + ",".join(f"{k}={v}" for k, v in sorted(group.overrides.items())) + "]"
    title = f"{group.scenario}{ov} — {group.metric} over {n_seeds} seed(s)"
    out = format_table(
        title, ["scheme", "mean", "std", "ci95", "min", "max", "wins"], rows
    )
    if chart and n_seeds > 1:
        series = {
            sched: [(float(seed), v) for seed, v in zip(cell.seeds, cell.values)]
            for sched, cell in group.cells.items()
        }
        out += "\n\n" + line_chart(
            series,
            title=f"{group.metric} per seed",
            width=max(20, min(72, 12 * n_seeds)),
            height=12,
            y_label=group.metric,
        )
    return out


def render_store(
    store: Union[ResultStore, str, Path],
    metric: Optional[str] = None,
    schemes: Optional[Sequence[str]] = None,
    chart: bool = True,
) -> str:
    """Full campaign report: one table (+ chart) per (scenario, variant)."""
    groups = load_groups(store, metric=metric, schemes=schemes)
    if not groups:
        return "(store is empty)"
    return "\n\n".join(render_group(g, chart=chart) for g in groups)
