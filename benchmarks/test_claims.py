"""The claims ledger: every number EXPERIMENTS.md publishes, generated and checked.

    PYTHONPATH=src python -m pytest benchmarks/test_claims.py
    python benchmarks/test_claims.py     # rewrite EXPERIMENTS.md's claim blocks

One :class:`Section` per experiment run: the eight paper figures and the E12
typed-platform extension at seed 1 with their default horizons, plus three
appendices (design-choice ablations, overload-depth sweep, seeds).  A
section's rows are either a :class:`Number` (a quantity, the paper's value
when it publishes one, and a function of the run's result) or a
:class:`Shape` (a predicate such as "HCPerf lowest speed RMS").  Each
section renders to one markdown table, kept in EXPERIMENTS.md between
``<!-- claims:<section> -->`` and ``<!-- /claims:<section> -->``; prose
outside the markers is never touched.

The pytest form regenerates every block at full horizon and fails when a
committed block is not byte-equal to its regeneration, naming the section and
showing the diff; it also asserts every shape row.  Paper values come from the
experiment modules' ``PAPER_TABLE_*`` constants.  Host wall-clock numbers stay
out of the ledger: they are not functions of the code and the seed.
"""

from __future__ import annotations

import dataclasses
import difflib
import re
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import pytest

HERE = Path(__file__).resolve().parent
DOC = HERE.parent / "EXPERIMENTS.md"
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from repro.analysis.stats import mean  # noqa: E402
from repro.core.dynamic_priority import DynamicPriorityConfig  # noqa: E402
from repro.core.rate_adapter import RateAdapterConfig  # noqa: E402
from repro.experiments import (  # noqa: E402
    fig04_motivation,
    fig05_toy,
    fig12_exectime,
    fig13_car_following,
    fig14_lane_keeping,
    fig15_hardware,
    fig17_responsiveness,
    fig18_ablation,
    heterogeneous,
)
from repro.experiments.runner import DEFAULT_SCHEMES, run_scenario  # noqa: E402
from repro.fleet import (  # noqa: E402
    CampaignGroup, CampaignSpec, ResultStore, load_groups, run_campaign,
)
from repro.schedulers.hcperf import HCPerfConfig, HCPerfScheduler  # noqa: E402
from repro.workloads import fig13_car_following as fig13_scenario  # noqa: E402

SEED = 1
#: Horizon of the appendices' Fig. 13 runs: pre-window, onset, adaptation.
APPENDIX_HORIZON_S = 40.0
#: A short horizon that still crosses the t = 10 s fusion overload; the
#: tier-1 schema test evaluates every row at it.
QUICK_HORIZON_S = 10.5
BASELINES = ("HPF", "EDF", "EDF-VD", "Apollo")


def fmt(value: Union[float, bool, None]) -> str:
    """The one number format of every row."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "✓" if value else "✗"
    return f"{value:.4g}"


@dataclasses.dataclass(frozen=True)
class Number:
    quantity: str
    value: Callable[[Any], float]
    paper: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class Shape:
    claim: str
    holds: Callable[[Any], bool]


Row = Union[Number, Shape]


@dataclasses.dataclass(frozen=True)
class Section:
    name: str
    #: ``run(horizon)`` -> the result the rows read; ``None`` is the default horizon.
    run: Callable[[Optional[float]], Any]
    rows: Tuple[Row, ...]
    #: Horizon of the tier-1 schema run (``None``: the default, for runs that are cheap).
    quick_horizon: Optional[float] = QUICK_HORIZON_S


def evaluate(row: Row, result: Any) -> Union[float, bool]:
    return row.holds(result) if isinstance(row, Shape) else row.value(result)


def render_block(section: Section, result: Any) -> str:
    lines = ["| Claim | Paper | Measured |", "|---|---|---|"]
    for row in section.rows:
        if isinstance(row, Shape):
            label, paper = f"shape: {row.claim}", None
        else:
            label, paper = row.quantity, row.paper
        lines.append(f"| {label} | {fmt(paper)} | {fmt(evaluate(row, result))} |")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# EXPERIMENTS.md blocks
# ----------------------------------------------------------------------
_BLOCK = re.compile(r"<!-- claims:(\w+) -->\n(.*?)\n<!-- /claims:\1 -->", re.DOTALL)
_OPEN = re.compile(r"<!-- claims:(\w+) -->")


def marker_names(doc: str) -> List[str]:
    """Section names of the doc's marker pairs, in order."""
    return [m.group(1) for m in _BLOCK.finditer(doc)]


def opening_marker_names(doc: str) -> List[str]:
    """Section names of every opening marker, closed or not."""
    return _OPEN.findall(doc)


def committed_blocks(doc: str) -> Dict[str, str]:
    return {m.group(1): m.group(2) for m in _BLOCK.finditer(doc)}


def rewrite(doc: str, blocks: Mapping[str, str]) -> str:
    """``doc`` with each named block replaced; everything else byte-equal."""

    def swap(m: "re.Match[str]") -> str:
        name = m.group(1)
        body = blocks.get(name, m.group(2))
        return f"<!-- claims:{name} -->\n{body}\n<!-- /claims:{name} -->"

    return _BLOCK.sub(swap, doc)


def differences(doc: str, fresh: Mapping[str, str]) -> List[str]:
    """One message per section whose committed block differs from ``fresh``."""
    committed = committed_blocks(doc)
    out = []
    for name, block in fresh.items():
        if name not in committed:
            out.append(f"{name}: no <!-- claims:{name} --> block in {DOC.name}")
        elif committed[name] != block:
            diff = difflib.unified_diff(
                committed[name].splitlines(), block.splitlines(),
                f"{DOC.name} (committed)", "regenerated", lineterm="",
            )
            out.append(
                f"{name}: committed block differs from its regeneration "
                "(rerun `python benchmarks/test_claims.py` if the change is meant)\n"
                + "\n".join(diff)
            )
    return out


# ----------------------------------------------------------------------
# Row helpers
# ----------------------------------------------------------------------
Metric = Callable[[Any], Dict[str, float]]


def paper_table(module: Any, roman: str, quantity: str, metric: Metric) -> List[Row]:
    """One row per scheme of paper Table ``roman``; paper values from ``PAPER_TABLE_<roman>``."""
    paper = getattr(module, f"PAPER_TABLE_{roman}")
    return [
        Number(f"Table {roman} {quantity}, {s}", lambda r, s=s: metric(r)[s], paper[s])
        for s in DEFAULT_SCHEMES
    ]


def per_key(quantity: str, keys: Sequence[str], metric: Metric) -> List[Row]:
    return [Number(f"{quantity}, {k}", lambda r, k=k: metric(r)[k]) for k in keys]


def window_mean(series: Sequence[Tuple[float, float]], inside: Callable[[float], bool]) -> float:
    """Mean of a ``(t, value)`` series over the samples whose ``t`` is ``inside``."""
    return mean(v for t, v in series if inside(t))


def lowest(values: Mapping[str, float]) -> str:
    return min(values, key=values.get)


def figure(module: Any, **kwargs: Any) -> Callable[[Optional[float]], Any]:
    def run(horizon: Optional[float]) -> Any:
        extra = {} if horizon is None else {"horizon": horizon}
        return module.run(seed=SEED, **kwargs, **extra)

    return run


# ----------------------------------------------------------------------
# E1–E8: the paper's figures and tables
# ----------------------------------------------------------------------
def _fig04() -> Section:
    m = fig04_motivation
    return Section(
        m.EXPERIMENT_ID,
        figure(m),
        (
            Number(
                "Apollo mean window miss ratio after the lead brakes (t > 5 s)",
                lambda r: window_mean(r.miss_series("Apollo"), lambda t: t > 5.0),
            ),
            Number("Apollo collision time (s)", lambda r: r.collision_time("Apollo")),
            Number(
                "HCPerf minimum gap (m)",
                lambda r: min(g for _, g in r.results["HCPerf"].plant.gap_series()),
            ),
            Shape("Apollo (fixed priority) collides", lambda r: r.collided("Apollo")),
            Shape("HCPerf does not collide", lambda r: not r.collided("HCPerf")),
        ),
        quick_horizon=None,  # 0.2 s at its full 30 s; the collision comes late
    )


def _fig05() -> Section:
    m = fig05_toy
    return Section(
        m.EXPERIMENT_ID,
        lambda horizon: m.run(),
        (
            *[
                Number(f"adaptive schedule, command {i + 1} time (s)",
                       lambda r, i=i: r.adaptive_commands[i])
                for i in range(3)
            ],
            *[
                Number(f"preferred schedule, command {i + 1} time (s)",
                       lambda r, i=i: r.preferred_commands[i])
                for i in range(3)
            ],
            Shape("adaptive commands at 7, 8, 9 s",
                  lambda r: r.adaptive_commands == [7.0, 8.0, 9.0]),
            Shape("preferred commands at 3, 6, 9 s",
                  lambda r: r.preferred_commands == [3.0, 6.0, 9.0]),
            Shape("both schedules meet every deadline",
                  lambda r: not r.adaptive_misses and not r.preferred_misses),
        ),
        quick_horizon=None,
    )


def _fig12() -> Section:
    m = fig12_exectime
    return Section(
        m.EXPERIMENT_ID,
        lambda horizon: m.run(seed=SEED, samples=500),
        (
            *[
                Number(f"fusion mean execution time (ms), {int(n)} obstacles",
                       lambda r, i=i: r.fusion_vs_complexity[i][1] * 1000.0)
                for i, n in enumerate((0, 5, 10, 15, 20, 25, 30))
            ],
            Shape(
                "fusion cost grows with obstacle count",
                lambda r: [c for _, c in r.fusion_vs_complexity]
                == sorted(c for _, c in r.fusion_vs_complexity),
            ),
        ),
        quick_horizon=None,
    )


def _fig13() -> Section:
    m = fig13_car_following
    return Section(
        m.EXPERIMENT_ID,
        figure(m),
        (
            *paper_table(m, "II", "speed RMS (m/s)", lambda r: r.speed_rms()),
            *paper_table(m, "III", "distance RMS (m)", lambda r: r.distance_rms()),
            *per_key(
                "Fig. 13(d) mean window miss ratio, 10 ≤ t < 80 s", DEFAULT_SCHEMES,
                lambda r: {s: window_mean(v, lambda t: 10.0 <= t < 80.0)
                           for s, v in r.miss_series().items()},
            ),
            Number(
                "best-baseline speed RMS / HCPerf speed RMS",
                lambda r: min(r.speed_rms()[s] for s in BASELINES) / r.speed_rms()["HCPerf"],
            ),
            Shape("HCPerf lowest speed RMS", lambda r: r.hcperf_wins()),
            Shape(
                "EDF-VD lowest speed RMS among baselines",
                lambda r: r.speed_rms()["EDF-VD"]
                == min(v for s, v in r.speed_rms().items() if s != "HCPerf"),
            ),
            Shape("Apollo highest speed RMS",
                  lambda r: r.speed_rms()["Apollo"] == max(r.speed_rms().values())),
            Shape("HCPerf lowest distance RMS", lambda r: lowest(r.distance_rms()) == "HCPerf"),
            Shape(
                "HCPerf mean window miss ratio over 15 < t < 80 s below 0.01",
                lambda r: window_mean(r.miss_series()["HCPerf"], lambda t: 15.0 < t < 80.0)
                < 0.01,
            ),
        ),
    )


def _fig14() -> Section:
    m = fig14_lane_keeping
    return Section(
        m.EXPERIMENT_ID,
        figure(m),
        (
            *paper_table(m, "IV", "lateral-offset RMS (m)", lambda r: r.offset_rms()),
            *per_key("lateral-offset RMS in the turns (m)", DEFAULT_SCHEMES,
                     lambda r: r.turn_offset_rms()),
            Shape("HCPerf lowest lateral-offset RMS", lambda r: r.hcperf_wins()),
            Shape("EDF-VD below EDF", lambda r: r.offset_rms()["EDF-VD"] < r.offset_rms()["EDF"]),
            Shape("Apollo highest lateral-offset RMS",
                  lambda r: r.offset_rms()["Apollo"] == max(r.offset_rms().values())),
        ),
    )


def _fig15() -> Section:
    m = fig15_hardware

    def mean_miss(r: Any, scheme: str, inside: Callable[[float], bool]) -> float:
        return window_mean(r.miss_series()[scheme], inside)

    return Section(
        m.EXPERIMENT_ID,
        figure(m),
        (
            *paper_table(m, "V", "speed RMS, 5–10 s cruise (m/s)", lambda r: r.speed_rms()),
            *paper_table(m, "VI", "distance RMS (m)", lambda r: r.distance_rms()),
            *per_key(
                "Fig. 15(d) mean window miss ratio", DEFAULT_SCHEMES,
                lambda r: {s: mean_miss(r, s, lambda t: True) for s in DEFAULT_SCHEMES},
            ),
            Shape("HCPerf lowest speed RMS", lambda r: r.hcperf_wins()),
            Shape("HCPerf lowest distance RMS", lambda r: lowest(r.distance_rms()) == "HCPerf"),
            Shape("HCPerf mean window miss ratio after t = 5 s below 0.01",
                  lambda r: mean_miss(r, "HCPerf", lambda t: t > 5.0) < 0.01),
            *[
                Shape(f"{s} mean window miss ratio above 0.003",
                      lambda r, s=s: mean_miss(r, s, lambda t: True) > 0.003)
                for s in BASELINES
            ],
        ),
    )


def _fig17() -> Section:
    m = fig17_responsiveness
    columns = (
        ("tracking RMS (m/s)", "tracking_rms"),
        ("peak error (m/s)", "peak_error"),
        ("control response (ms)", "response_time_ms"),
        ("commands per second", "throughput"),
        ("discomfort", "discomfort"),
        ("mean γ", "mean_gamma"),
    )
    return Section(
        m.EXPERIMENT_ID,
        figure(m),
        (
            *[
                Number(f"{phase}: {label}",
                       lambda r, phase=phase, attr=attr: getattr(r.phase(phase), attr))
                for phase, _, _ in m.PHASES
                for label, attr in columns
            ],
            Shape("error spike mitigated after the jam", lambda r: r.error_mitigated()),
            Shape("control response below 5 ms during the jam",
                  lambda r: r.responsive_during_jam()),
            Shape("mean γ higher during the jam than before",
                  lambda r: r.gamma_raised_during_jam()),
            Shape("fewer commands per second during the jam than before",
                  lambda r: r.phase("during").throughput < r.phase("before").throughput),
        ),
        quick_horizon=None,  # run() needs all three phases, up to 40 s
    )


def _fig18() -> Section:
    m = fig18_ablation
    return Section(
        m.EXPERIMENT_ID,
        figure(m),
        (
            *per_key("speed RMS (m/s)", m.VARIANTS, lambda r: r.speed_rms()),
            *per_key("distance RMS (m)", m.VARIANTS, lambda r: r.distance_rms()),
            *per_key("mean window miss ratio, 15 ≤ t < 80 s", m.VARIANTS,
                     lambda r: r.steady_miss_ratio()),
            Shape("full version misses less than internal only", lambda r: r.external_helps()),
            Shape("internal-only window miss ratio in (0, 0.2)",
                  lambda r: 0.0 < r.steady_miss_ratio()["Internal only"] < 0.2),
            Shape(
                "full version speed RMS at most internal only's",
                lambda r: r.speed_rms()["HCPerf (full)"] <= r.speed_rms()["Internal only"],
            ),
        ),
    )


# ----------------------------------------------------------------------
# E12: the Fig. 13 setup on a homogeneous and a typed platform
# ----------------------------------------------------------------------
def _heterogeneous() -> Section:
    m = heterogeneous
    homo, typed = m.PROFILES["homogeneous"], m.PROFILES["heterogeneous"]

    def miss(r: Any, profile: str) -> Dict[str, float]:
        return r.miss_ratio()[profile]

    return Section(
        m.EXPERIMENT_ID,
        figure(m),
        (
            *per_key(f"{homo} miss ratio", m.SCHEMES, lambda r: miss(r, "homogeneous")),
            *per_key(f"{typed} miss ratio", m.SCHEMES, lambda r: miss(r, "heterogeneous")),
            *per_key(f"{homo} speed RMS (m/s)", m.SCHEMES,
                     lambda r: r.speed_rms()["homogeneous"]),
            *per_key(f"{typed} speed RMS (m/s)", m.SCHEMES,
                     lambda r: r.speed_rms()["heterogeneous"]),
            Shape(f"{homo}: every scheme has the same miss ratio",
                  lambda r: len(set(miss(r, "homogeneous").values())) == 1),
            Shape(
                f"{typed}: the schemes' miss ratios all differ, and each moves from {homo}'s",
                lambda r: len(set(miss(r, "heterogeneous").values())) == len(m.SCHEMES)
                and all(miss(r, "heterogeneous")[s] != miss(r, "homogeneous")[s]
                        for s in m.SCHEMES),
            ),
            Shape(f"HCPerf lowest miss ratio on {typed}",
                  lambda r: miss(r, "heterogeneous")["HCPerf"]
                  == min(miss(r, "heterogeneous").values())),
        ),
    )


# ----------------------------------------------------------------------
# Appendix A: design-choice ablations (Fig. 13, 40 s)
# ----------------------------------------------------------------------
class _PinnedGamma(HCPerfScheduler):
    """HCPerf with γ forced to a constant (ablates the MFC direction)."""

    def __init__(self, gamma: float) -> None:
        super().__init__()
        self._pin = gamma
        self.name = f"HCPerf(γ={gamma:g})"

    def on_dispatch_round(self, now, view):
        super().on_dispatch_round(now, view)
        last = self.last_result
        gmax = last.gamma_max if last is not None else None
        self._gamma = self.policy.clamp_gamma(self._pin, gmax)


def _hcperf(**fields: Any) -> Callable[[], HCPerfScheduler]:
    return lambda: HCPerfScheduler(HCPerfConfig(**fields))


#: (knob, setting) -> (scheduler factory, execution-time observer EWMA weight or None).
ABLATIONS: Dict[Tuple[str, str], Tuple[Callable[[], HCPerfScheduler], Optional[float]]] = {
    ("γ", "0 (pinned: deadline mode)"): (lambda: _PinnedGamma(0.0), None),
    ("γ", "cap (pinned: priority mode)"): (lambda: _PinnedGamma(1.0), None),
    ("γ", "MFC-directed (default)"): (HCPerfScheduler, None),
    **{
        ("utilization bound", f"{b:.2f}"):
            (_hcperf(rate=RateAdapterConfig(utilization_bound=b)), None)
        for b in (0.70, 0.80, 0.90, 1.00)
    },
    **{
        ("ε", f"{e:g}"): (_hcperf(rate=RateAdapterConfig(epsilon=e)), None)
        for e in (0.005, 0.02, 0.1)
    },
    **{("observer EWMA α", f"{a:g}"): (HCPerfScheduler, a) for a in (0.2, 0.5, 1.0)},
    **{
        ("γ grid points", str(n)):
            (_hcperf(priority=DynamicPriorityConfig(gamma_cap=0.02, resolution=n)), None)
        for n in (4, 16, 64)
    },
}

Ablation = Dict[Tuple[str, str], Tuple[float, float, float]]


def run_ablations(horizon: Optional[float]) -> Ablation:
    """(knob, setting) -> (speed RMS, overall miss ratio, commands per second).

    A setting that builds the same run as an earlier one (the defaults recur
    under every knob) reuses its result: runs are keyed by the built
    ``HCPerfConfig``, the observer α and the pinned γ, compared by value.
    """
    out = {}
    done: List[Tuple[Any, Tuple[float, float, float]]] = []
    for key, (scheduler, alpha) in ABLATIONS.items():
        scenario = fig13_scenario(horizon=horizon or APPENDIX_HORIZON_S)
        if alpha is not None:
            scenario.sim = dataclasses.replace(scenario.sim, observer_alpha=alpha)
        sched = scheduler()
        same = (sched.config, scenario.sim.observer_alpha, getattr(sched, "_pin", None))
        for seen, value in done:
            if seen == same:
                out[key] = value
                break
        else:
            r = run_scenario(scenario, sched, seed=SEED)
            out[key] = (r.speed_error_rms(), r.overall_miss_ratio(), r.control_throughput())
            done.append((same, out[key]))
    return out


def _appendix_a() -> Section:
    rows: List[Row] = []
    for key in ABLATIONS:
        label = "{} = {}".format(*key)
        rows.append(Number(f"{label}: speed RMS (m/s)", lambda r, k=key: r[k][0]))
        rows.append(Number(f"{label}: miss ratio", lambda r, k=key: r[k][1]))
        if key[0] == "ε":
            rows.append(Number(f"{label}: commands per second", lambda r, k=key: r[k][2]))
    return Section(
        "appendix_a_ablations",
        run_ablations,
        (
            *rows,
            Shape(
                "MFC-directed γ speed RMS at most 1.10× the better fixed extreme",
                lambda r: r[("γ", "MFC-directed (default)")][0]
                <= min(r[("γ", "0 (pinned: deadline mode)")][0],
                       r[("γ", "cap (pinned: priority mode)")][0]) * 1.10,
            ),
            Shape(
                "utilization bound 1.00 misses at least as much as 0.80",
                lambda r: r[("utilization bound", "1.00")][1]
                >= r[("utilization bound", "0.80")][1],
            ),
            Shape(
                "ε = 0.1 commands per second at least 0.95× ε = 0.005's",
                lambda r: r[("ε", "0.1")][2] >= r[("ε", "0.005")][2] * 0.95,
            ),
            Shape(
                "miss ratio below 0.1 at every observer EWMA α",
                lambda r: all(v[1] < 0.1 for k, v in r.items() if k[0] == "observer EWMA α"),
            ),
            Shape(
                "miss ratio below 0.1 at every γ grid resolution",
                lambda r: all(v[1] < 0.1 for k, v in r.items() if k[0] == "γ grid points"),
            ),
        ),
    )


# ----------------------------------------------------------------------
# Appendices B and C: fleet campaigns read through load_groups
# ----------------------------------------------------------------------
def campaign(spec: CampaignSpec) -> List[CampaignGroup]:
    store = ResultStore(None)
    run_campaign(spec, store=store, jobs=1)
    return load_groups(store, metric=spec.metric, schemes=spec.schedulers)


def advantage(group: CampaignGroup) -> float:
    """Best baseline mean over HCPerf's mean (> 1: HCPerf ahead)."""
    return min(c.mean for s, c in group.cells.items() if s != "HCPerf") / group.cells["HCPerf"].mean


ELEVATIONS_MS = (20.0, 35.0, 50.0)
SWEEP_SCHEMES = ("HPF", "EDF", "EDF-VD", "HCPerf")


def run_sweep(horizon: Optional[float]) -> Dict[float, CampaignGroup]:
    """Elevated fusion cost -> the group of its Fig. 13 variant."""
    h = horizon or APPENDIX_HORIZON_S
    groups = campaign(
        CampaignSpec(
            name="fusion_sweep",
            scenarios=["fig13"],
            schedulers=list(SWEEP_SCHEMES),
            seeds=[SEED],
            variants=[
                {"horizon": h, "fusion_normal_ms": 20.0, "fusion_elevated_ms": ms,
                 "fusion_t_on": 10.0, "fusion_t_off": h}
                for ms in ELEVATIONS_MS
            ],
            metric="speed_error_rms",
        )
    )
    return {float(g.overrides["fusion_elevated_ms"]): g for g in groups}


def _appendix_b() -> Section:
    return Section(
        "appendix_b_overload_depth",
        run_sweep,
        (
            *[
                Number(f"{ms:g} ms elevated fusion: speed RMS (m/s), {s}",
                       lambda r, ms=ms, s=s: r[ms].cells[s].mean)
                for ms in ELEVATIONS_MS
                for s in SWEEP_SCHEMES
            ],
            *[
                Number(f"{ms:g} ms elevated fusion: best baseline / HCPerf",
                       lambda r, ms=ms: advantage(r[ms]))
                for ms in ELEVATIONS_MS
            ],
            Shape(
                "advantage at 50 ms above advantage at 20 ms",
                lambda r: advantage(r[ELEVATIONS_MS[-1]]) > advantage(r[ELEVATIONS_MS[0]]),
            ),
            Shape(
                "at 20 ms every scheme within 1.3× HCPerf",
                lambda r: all(
                    c.mean <= r[ELEVATIONS_MS[0]].cells["HCPerf"].mean * 1.3
                    for c in r[ELEVATIONS_MS[0]].cells.values()
                ),
            ),
        ),
    )


def run_seeds(horizon: Optional[float]) -> CampaignGroup:
    (group,) = campaign(
        CampaignSpec(
            name="seeds",
            scenarios=["fig13"],
            schedulers=list(DEFAULT_SCHEMES),
            seeds=[0, 1, 2],
            variants=[{"horizon": horizon or APPENDIX_HORIZON_S}],
            metric="speed_error_rms",
        )
    )
    return group


def _appendix_c() -> Section:
    return Section(
        "appendix_c_seeds",
        run_seeds,
        (
            *per_key("mean speed RMS over seeds 0–2 (m/s)", DEFAULT_SCHEMES,
                     lambda g: {s: c.mean for s, c in g.cells.items()}),
            Number("seeds HCPerf wins", lambda g: g.wins()["HCPerf"]),
            Shape("HCPerf lowest mean speed RMS", lambda g: g.best_by_mean() == "HCPerf"),
            Shape("HCPerf wins at least 2/3 of the seeds",
                  lambda g: g.wins()["HCPerf"] / sum(g.wins().values()) >= 2 / 3),
        ),
    )


SECTIONS: Tuple[Section, ...] = (
    _fig04(), _fig05(), _fig12(), _fig13(), _fig14(), _fig15(), _fig17(), _fig18(),
    _heterogeneous(), _appendix_a(), _appendix_b(), _appendix_c(),
)


# ----------------------------------------------------------------------
# The check (full horizons; CI's `pytest benchmarks/` step)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("section", SECTIONS, ids=[s.name for s in SECTIONS])
def test_section_matches_committed_and_shapes_hold(section: Section) -> None:
    result = section.run(None)
    problems = differences(
        DOC.read_text(encoding="utf-8"), {section.name: render_block(section, result)}
    )
    problems += [
        f"{section.name}: shape row does not hold: {row.claim}"
        for row in section.rows
        if isinstance(row, Shape) and not row.holds(result)
    ]
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    text = DOC.read_text(encoding="utf-8")
    missing = [s.name for s in SECTIONS if s.name not in committed_blocks(text)]
    if missing:
        sys.exit(f"{DOC.name} has no marker pair for: {', '.join(missing)}")
    blocks = {s.name: render_block(s, s.run(None)) for s in SECTIONS}
    DOC.write_text(rewrite(text, blocks), encoding="utf-8")
    print(f"rewrote {len(SECTIONS)} claim blocks in {DOC}")
