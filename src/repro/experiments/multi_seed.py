"""Multi-seed robustness harness.

The paper reports single runs; this module re-runs any scenario over many
seeds and summarizes each scheme's metric as mean ± std, plus how often
HCPerf wins — the statistical form of the reproduction claims.

The harness is a front-end over the fleet engine: name a registry
scenario and a summary metric and the (scheme × seed) grid runs as a
campaign — sharded across ``jobs`` worker processes, optionally persisted
to a resumable store.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..analysis.report import format_table
from ..analysis.stats import mean, sample_std
from .runner import DEFAULT_SCHEMES

__all__ = ["MetricSummary", "MultiSeedResult", "run_multi_seed", "render"]


@dataclass
class MetricSummary:
    """Mean/std/min/max of one scheme's metric across seeds."""

    scheme: str
    values: List[float]

    @property
    def mean(self) -> float:
        return mean(self.values)

    @property
    def std(self) -> float:
        return sample_std(self.values)

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)


@dataclass
class MultiSeedResult:
    metric_name: str
    seeds: List[int]
    summaries: Dict[str, MetricSummary]
    wins: Dict[str, int]  # scheme -> number of seeds it had the lowest metric

    def win_ratio(self, scheme: str) -> float:
        total = sum(self.wins.values())
        if total == 0:
            return 0.0
        return self.wins.get(scheme, 0) / total

    def best_scheme_by_mean(self) -> str:
        return min(self.summaries, key=lambda s: self.summaries[s].mean)


def run_multi_seed(
    scenario: str,
    metric: str,
    metric_name: str = "metric",
    seeds: Sequence[int] = range(5),
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    overrides: Optional[Mapping[str, object]] = None,
    jobs: int = 1,
    store: Union[str, Path, None] = None,
) -> MultiSeedResult:
    """Run every (scheme, seed) pair and summarize ``metric``.

    ``scenario`` is a registry name (``"fig13"``), ``metric`` a summary
    key (``"speed_error_rms"``); ``overrides`` tunes the scenario (see
    :data:`repro.fleet.OVERRIDE_KEYS`), ``jobs`` shards the grid across
    worker processes and ``store`` persists/resumes the campaign.
    """
    seeds = sorted(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")

    from ..fleet import (
        CampaignSpec,
        ResultStore,
        load_groups,
        run_campaign,
        to_multi_seed_result,
    )

    spec = CampaignSpec(
        name=f"multi_seed_{scenario}",
        scenarios=[scenario],
        schedulers=list(schemes),
        seeds=seeds,
        variants=[dict(overrides or {})],
        metric=metric,
    )
    result_store = ResultStore(store)
    run_campaign(spec, store=result_store, jobs=jobs)
    wanted = dict(overrides or {})
    (group,) = [
        g
        for g in load_groups(result_store, metric=metric, schemes=schemes)
        if g.scenario == scenario and g.overrides == wanted
    ]
    result = to_multi_seed_result(group)
    if metric_name != "metric":
        result.metric_name = metric_name
    return result


def render(result: MultiSeedResult) -> str:
    rows = []
    for scheme, summary in result.summaries.items():
        rows.append(
            [
                scheme,
                summary.mean,
                summary.std,
                summary.min,
                summary.max,
                f"{result.wins.get(scheme, 0)}/{len(result.seeds)}",
            ]
        )
    return format_table(
        f"{result.metric_name} across {len(result.seeds)} seeds (lower is better)",
        ["scheme", "mean", "std", "min", "max", "wins"],
        rows,
    )
