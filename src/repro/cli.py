"""Command-line front-end.

Modes:

* ``hcperf <experiment-id> [--seed N]`` — regenerate one of the paper's
  tables/figures (or ``all``; default ``list`` shows what exists);
* ``hcperf run <scenario> <scheduler> [--seed N] [--horizon S] [--json]`` —
  run one scenario under one policy and print (or JSON-dump) the summary;
* ``hcperf validate <scenario>`` — static schedulability check;
* ``hcperf fleet run|status|report`` — campaign engine: expand a
  scenarios × schedulers × seeds grid, shard it across ``--jobs N`` worker
  processes, stream summaries into a resumable JSONL store, and aggregate
  the store into comparison tables;
* ``hcperf faults run|list`` — deterministic fault injection: run a
  scenario with a fault spec (JSON file or named suite entry) and print
  the resilience report (time-to-recover, peak miss ratio,
  tracking-error degradation; see docs/faults.md);
* ``hcperf trace run|export|check`` — structured run tracing: record a
  run's full event stream, export it as a Chrome trace / JSONL / text
  summary, and check the trace-invariant catalog
  (see docs/observability.md);
* ``hcperf lint [--rule ID] [--severity error] [--format text|json]``
  — hclint, the per-file invariant checker (determinism, scheduler
  contracts, hygiene; see docs/static_analysis.md).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from .experiments import EXPERIMENTS
from .rt.resources import MAX_UNITS

__all__ = ["main", "build_parser", "build_run_parser", "build_fleet_parser"]


def horizon_seconds(text: str) -> float:
    """The argparse type of every ``--horizon`` flag: positive, finite seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def processor_count(text: str) -> int:
    """The argparse type of ``--processors``: an integer in ``[1, MAX_UNITS]``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= value <= MAX_UNITS:
        raise argparse.ArgumentTypeError(f"must be in [1, {MAX_UNITS}], got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcperf",
        description=(
            "HCPerf reproduction — run the paper's experiments "
            "(ICDCS 2023: performance-directed hierarchical coordination)"
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        default="list",
        help="experiment id (or 'all' / 'list')",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    return parser


def build_run_parser() -> argparse.ArgumentParser:
    from .schedulers import SCHEDULERS
    from .workloads import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="hcperf run",
        description="Run one scenario under one scheduling policy.",
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("scheduler", choices=sorted(SCHEDULERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--horizon", type=horizon_seconds, default=None, help="override the simulated horizon (s)"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the run summary as JSON"
    )
    parser.add_argument(
        "--gantt",
        action="store_true",
        help="print an ASCII Gantt chart of the first simulated second",
    )
    parser.add_argument(
        "--chains",
        action="store_true",
        help="print the end-to-end chain latency budget",
    )
    return parser


def _list_experiments() -> str:
    from .workloads import SCENARIOS

    lines = ["Available experiments:"]
    for exp_id, module in sorted(EXPERIMENTS.items()):
        doc = (module.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        lines.append(f"  {exp_id:24s} {summary}")
    lines.append("  all                      run every experiment")
    lines.append("")
    lines.append(
        "Static check:     hcperf validate {"
        + ",".join(sorted(SCENARIOS))
        + "} [--processors N] [--complexity X]"
    )
    lines.append(
        "Scenario runner:  hcperf run {"
        + ",".join(sorted(SCENARIOS))
        + "} {HPF,EDF,EDF-VD,Apollo,HCPerf} [--seed N] [--horizon S] [--json]"
    )
    lines.append(
        "Fleet campaigns:  hcperf fleet {run,status,report} "
        "[--scenarios A,B] [--schedulers X,Y] [--seeds 0,1,..] [--jobs N] "
        "[--store PATH]"
    )
    lines.append(
        "Fault injection:  hcperf faults {run,list} "
        "[SCENARIO SCHEDULER --spec FILE|NAME --seed N --json]"
    )
    lines.append(
        "Run tracing:      hcperf trace {run,export,check} "
        "[--scenario S --out FILE | RECORDING --format chrome|jsonl|summary]"
    )
    lines.append(
        "Static analysis:  hcperf lint [PATH ...] [--rule ID] "
        "[--severity error] [--format text|json] [--list-rules]"
    )
    return "\n".join(lines)


def _run_scenario_command(argv: List[str]) -> int:
    from .experiments.runner import run_scenario
    from .workloads import SCENARIOS

    args = build_run_parser().parse_args(argv)
    factory = SCENARIOS[args.scenario]
    scenario = factory(horizon=args.horizon) if args.horizon is not None else factory()
    recorder = None
    if args.gantt or args.chains:
        from .obs.recorder import Recorder

        recorder = Recorder()
    graph = scenario.graph_factory() if args.chains else None
    result = run_scenario(scenario, args.scheduler, seed=args.seed, recorder=recorder)
    summary = result.to_dict()
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"scenario   : {summary['scenario']}")
    print(f"scheduler  : {summary['scheduler']} (seed {summary['seed']})")
    print(f"horizon    : {summary['horizon']:.1f} s")
    print(f"miss ratio : {summary['overall_miss_ratio']:.4f}")
    print(f"commands/s : {summary['control_throughput']:.1f}")
    print(f"ctl resp   : {summary['control_response_mean'] * 1000:.2f} ms")
    for key in ("speed_error_rms", "distance_error_rms", "lateral_offset_rms"):
        if key in summary:
            print(f"{key:11s}: {summary[key]:.4f}")
    if summary.get("collided"):
        print("collision  : YES")
    if summary.get("departed"):
        print("lane exit  : YES")
    if args.gantt and recorder is not None:
        from .obs.export import render_gantt

        t_hi = min(1.0, summary["horizon"])
        print()
        print(render_gantt(recorder, 0.0, t_hi, width=100))
    if args.chains and recorder is not None and graph is not None:
        from .analysis.chains import chain_budget, render_chain_budget

        print()
        print(render_chain_budget(chain_budget(graph, recorder)))
    return 0


#: Scenario-name conveniences accepted by ``hcperf faults`` / ``hcperf
#: trace`` on top of the registry keys (the paper text names the fig13
#: setup "car following").
SCENARIO_ALIASES = {"car_following": "fig13"}


def build_trace_parser() -> argparse.ArgumentParser:
    from .schedulers import SCHEDULERS
    from .workloads import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="hcperf trace",
        description=(
            "Structured run tracing: record a run's event stream, export "
            "it (Chrome trace / JSONL / summary) and check its trace "
            "invariants (see docs/observability.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario with the recorder attached")
    run.add_argument(
        "--scenario",
        required=True,
        choices=sorted(SCENARIOS) + sorted(SCENARIO_ALIASES),
        help="scenario registry key (or alias)",
    )
    run.add_argument(
        "--scheduler",
        default="HCPerf",
        help=f"scheduling policy ({','.join(sorted(SCHEDULERS))}; "
        "case-insensitive, default HCPerf)",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--horizon", type=horizon_seconds, default=None, help="override the simulated horizon (s)"
    )
    run.add_argument(
        "--faults", default=None,
        help="optional fault spec (JSON file path or named suite entry)",
    )
    run.add_argument(
        "--out", required=True, help="recording output path (JSONL)"
    )

    export = sub.add_parser("export", help="convert a recording to another format")
    export.add_argument("recording", help="JSONL recording file")
    export.add_argument(
        "--format",
        choices=("chrome", "jsonl", "summary"),
        default="chrome",
        help="output format (default chrome, for chrome://tracing / Perfetto)",
    )
    export.add_argument(
        "--out", default=None, help="output path (default: stdout)"
    )

    check = sub.add_parser("check", help="run the trace-invariant catalog")
    check.add_argument(
        "recording", nargs="?", help="JSONL recording file (not needed with --list)"
    )
    check.add_argument(
        "--list", action="store_true", dest="list_invariants",
        help="list the invariant catalog instead of checking",
    )
    return parser


def _trace_command(argv: List[str]) -> int:
    from pathlib import Path

    from .obs.export import (
        load_recording,
        summary_text,
        to_chrome_trace,
        to_jsonl,
    )
    from .obs.invariants import INVARIANTS, check_recording
    from .obs.recorder import Recorder

    parser = build_trace_parser()
    args = parser.parse_args(argv)

    if args.command == "check" and args.list_invariants:
        for code in sorted(INVARIANTS):
            description, _ = INVARIANTS[code]
            print(f"{code}  {description}")
        return 0
    if args.command == "check" and args.recording is None:
        parser.error("check needs a recording file (or --list)")

    if args.command == "run":
        from .experiments.runner import run_scenario
        from .workloads import SCENARIOS

        try:
            scheduler = _resolve_scheduler_name(args.scheduler)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        before_run = None
        if args.faults is not None:
            from .faults import get_spec, load_fault_spec
            from .faults.harness import InjectionHarness

            if Path(args.faults).exists():
                try:
                    spec = load_fault_spec(args.faults)
                except (OSError, ValueError) as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
            else:
                try:
                    spec = get_spec(args.faults)
                except ValueError as exc:
                    print(f"error: {exc} (and no such file)", file=sys.stderr)
                    return 2
            before_run = InjectionHarness(spec).attach
        factory = SCENARIOS[SCENARIO_ALIASES.get(args.scenario, args.scenario)]
        scenario = factory(horizon=args.horizon) if args.horizon is not None else factory()
        recorder = Recorder()
        run_scenario(
            scenario, scheduler, seed=args.seed, recorder=recorder,
            before_run=before_run,
        )
        Path(args.out).write_text(to_jsonl(recorder))
        stats = recorder.stats()
        print(
            f"recorded {stats['_total']} events "
            f"({recorder.meta.get('scenario')}/{recorder.meta.get('scheduler')} "
            f"seed {recorder.meta.get('seed')}) -> {args.out}"
        )
        return 0

    try:
        recorder = load_recording(args.recording)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "export":
        if args.format == "chrome":
            text = json.dumps(to_chrome_trace(recorder), indent=1) + "\n"
        elif args.format == "jsonl":
            text = to_jsonl(recorder)
        else:
            text = summary_text(recorder) + "\n"
        if args.out:
            Path(args.out).write_text(text)
            print(f"wrote {args.format} export -> {args.out}")
        else:
            sys.stdout.write(text)
        return 0

    # check
    violations = check_recording(recorder)
    if violations:
        for violation in violations:
            print(str(violation))
        print(f"FAIL: {len(violations)} invariant violation(s)")
        return 1
    print(
        f"OK: {len(recorder.events)} events, "
        f"{len(INVARIANTS)} invariants clean"
    )
    return 0


def build_faults_parser() -> argparse.ArgumentParser:
    from .faults import list_specs
    from .schedulers import SCHEDULERS
    from .workloads import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="hcperf faults",
        description=(
            "Deterministic fault injection: run a scenario with a fault "
            "spec and report resilience metrics (see docs/faults.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario+scheduler under a fault spec")
    run.add_argument(
        "scenario",
        choices=sorted(SCENARIOS) + sorted(SCENARIO_ALIASES),
        help="scenario registry key (or alias)",
    )
    run.add_argument(
        "scheduler",
        type=str,
        help=f"scheduling policy ({','.join(sorted(SCHEDULERS))}; case-insensitive)",
    )
    run.add_argument(
        "--spec",
        required=True,
        help=(
            "fault spec: a JSON file path or a named suite entry "
            f"({','.join(list_specs())})"
        ),
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--horizon", type=horizon_seconds, default=None, help="override the simulated horizon (s)"
    )
    run.add_argument(
        "--json", action="store_true", help="emit the resilience report as JSON"
    )

    sub.add_parser("list", help="list named fault specs and the model catalog")
    return parser


def _resolve_scheduler_name(name: str) -> str:
    from .schedulers import SCHEDULERS

    by_lower = {k.lower(): k for k in SCHEDULERS}
    try:
        return by_lower[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {sorted(SCHEDULERS)}"
        ) from None


def _faults_command(argv: List[str]) -> int:
    from pathlib import Path

    from .faults import FAULT_KINDS, NAMED_SPECS, get_spec, load_fault_spec
    from .faults.resilience import run_resilience
    from .workloads import SCENARIOS

    args = build_faults_parser().parse_args(argv)
    if args.command == "list":
        print("Named fault specs (hcperf faults run ... --spec NAME):")
        for name in sorted(NAMED_SPECS):
            spec = get_spec(name)
            kinds = ",".join(sorted({f.kind for f in spec.faults}))
            print(f"  {name:18s} {len(spec.faults)} fault(s): {kinds}")
        print()
        print("Fault model catalog (JSON spec 'kind' values):")
        for kind in sorted(FAULT_KINDS):
            doc = (FAULT_KINDS[kind].__doc__ or "").strip().splitlines()[0]
            print(f"  {kind:18s} {doc}")
        return 0

    try:
        scheduler = _resolve_scheduler_name(args.scheduler)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if Path(args.spec).exists():
        try:
            spec = load_fault_spec(args.spec)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            spec = get_spec(args.spec)
        except ValueError as exc:
            print(f"error: {exc} (and no such file)", file=sys.stderr)
            return 2

    factory = SCENARIOS[SCENARIO_ALIASES.get(args.scenario, args.scenario)]
    scenario_factory = (
        (lambda: factory(horizon=args.horizon)) if args.horizon is not None else factory
    )
    report = run_resilience(scenario_factory, scheduler, spec, seed=args.seed)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(f"scenario    : {report.scenario}")
    print(f"scheduler   : {report.scheduler} (seed {report.seed})")
    print(f"fault spec  : {report.spec_name or '<unnamed>'} [{report.spec_hash}]")
    if report.fault_onset is None:
        print("faults      : none (empty spec)")
    else:
        clear = "never" if report.fault_clear is None else f"{report.fault_clear:.1f} s"
        print(f"fault window: {report.fault_onset:.1f} s .. {clear}")
    ttr = "n/a" if report.time_to_recover is None else f"{report.time_to_recover:.2f} s"
    print(f"recovered   : {'yes' if report.recovered else 'NO'} (time-to-recover {ttr})")
    print(f"miss ratio  : baseline {report.baseline_miss_ratio:.4f}, "
          f"peak {report.peak_miss_ratio:.4f}, "
          f"steady-state {report.steady_state_miss_ratio:.4f}")
    print(f"tracking    : rms {report.tracking_error_rms:.4f} "
          f"(clean twin {report.tracking_error_rms_clean:.4f}, "
          f"degradation {report.tracking_error_degradation:+.4f})")
    print(f"overload    : duty cycle {report.overload_duty_cycle:.4f}, "
          f"rate-adapter resets {report.rate_adapter_resets}")
    print(f"fault events: {len(report.fault_events)}")
    return 0


def build_fleet_parser() -> argparse.ArgumentParser:
    from .schedulers import SCHEDULERS
    from .workloads import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="hcperf fleet",
        description=(
            "Campaign engine: run scenario × scheduler × seed grids in "
            "parallel with a resumable JSONL result store."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", default=None, help="JSON campaign-spec file")
        p.add_argument(
            "--scenarios",
            default="fig13",
            help=f"comma-separated scenario names ({','.join(sorted(SCENARIOS))})",
        )
        p.add_argument(
            "--schedulers",
            default="HPF,EDF,EDF-VD,Apollo,HCPerf",
            help=f"comma-separated scheduler names ({','.join(sorted(SCHEDULERS))})",
        )
        p.add_argument(
            "--seeds", default="0,1,2,3",
            help="comma-separated seed list (default 0,1,2,3)",
        )
        p.add_argument(
            "--horizon", type=horizon_seconds, default=None,
            help="horizon override applied to every job (s)",
        )
        p.add_argument(
            "--name", default="campaign",
            help="campaign name (names the default store file)",
        )
        p.add_argument(
            "--store", default=None,
            help="JSONL result-store path (default results/fleet/<name>.jsonl)",
        )

    run = sub.add_parser("run", help="run (or resume) a campaign")
    add_spec_args(run)
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1 = serial)",
    )
    run.add_argument(
        "--max-jobs", type=int, default=None,
        help="stop after this many executed jobs (incremental run)",
    )
    run.add_argument(
        "--report", action="store_true",
        help="print the aggregated report after the run",
    )

    status = sub.add_parser("status", help="done/pending breakdown of a campaign")
    add_spec_args(status)

    report = sub.add_parser("report", help="aggregate a store into tables")
    report.add_argument("--store", required=True, help="JSONL result-store path")
    report.add_argument(
        "--metric", default=None,
        help="summary key to rank on (default: auto per scenario kind)",
    )
    report.add_argument(
        "--no-chart", action="store_true", help="tables only, no per-seed chart"
    )
    return parser


def _fleet_spec_from_args(args) -> "object":
    from .fleet import CampaignSpec, load_spec

    if args.spec:
        return load_spec(args.spec)
    variants = [{"horizon": args.horizon}] if args.horizon is not None else [{}]
    return CampaignSpec(
        name=args.name,
        scenarios=[s for s in args.scenarios.split(",") if s],
        schedulers=[s for s in args.schedulers.split(",") if s],
        seeds=[int(s) for s in args.seeds.split(",") if s],
        variants=variants,
    )


def _fleet_command(argv: List[str]) -> int:
    from pathlib import Path

    from .fleet import campaign_status, default_store_path, render_store, run_campaign

    args = build_fleet_parser().parse_args(argv)
    if args.store is not None and Path(args.store).suffix != ".jsonl":
        print(
            f"error: store {args.store} is not a .jsonl result store",
            file=sys.stderr,
        )
        return 2
    if args.command == "report":
        if not Path(args.store).exists():
            print(f"error: store {args.store} does not exist", file=sys.stderr)
            return 2
        try:
            report = render_store(
                args.store, metric=args.metric, chart=not args.no_chart
            )
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report)
        return 0

    try:
        spec = _fleet_spec_from_args(args).validate()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = args.store or default_store_path(spec)
    if args.command == "status":
        status = campaign_status(spec, store)
        print(f"store   : {store}")
        print(f"done    : {status['done']}/{status['total']}")
        for line in status["pending"]:
            print(f"pending : {line}")
        if status["stray"]:
            print(f"stray   : {len(status['stray'])} record(s) outside the spec")
        return 0 if status["done"] == status["total"] else 1

    report = run_campaign(
        spec,
        store=store,
        jobs=args.jobs,
        max_jobs=args.max_jobs,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    print(
        f"campaign {spec.name}: {report.executed} run, {report.skipped} resumed, "
        f"{report.remaining} remaining -> {store}"
    )
    if args.report:
        print()
        print(render_store(store, metric=spec.metric))
    return 0 if report.complete else 1


def _validate_command(argv: List[str]) -> int:
    from .workloads import SCENARIOS, render_report, validate_platform

    parser = argparse.ArgumentParser(
        prog="hcperf validate",
        description="Static schedulability check of a scenario's task graph.",
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--processors", type=processor_count, default=None,
                        help="override the scenario's processor count")
    parser.add_argument("--complexity", type=float, default=0.0,
                        help="scene complexity operating point (obstacle count)")
    args = parser.parse_args(argv)
    scenario = SCENARIOS[args.scenario]()
    n_proc = scenario.sim.n_processors if args.processors is None else args.processors
    report = validate_platform(
        scenario.graph_factory(), n_proc, scene_complexity=args.complexity
    )
    print(render_report(report))
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return _run_scenario_command(argv[1:])
    if argv and argv[0] == "validate":
        return _validate_command(argv[1:])
    if argv and argv[0] == "fleet":
        return _fleet_command(argv[1:])
    if argv and argv[0] == "faults":
        return _faults_command(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_command(argv[1:])
    if argv and argv[0] == "lint":
        from .devtools.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print(_list_experiments())
        return 0
    targets = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for exp_id in targets:
        module = EXPERIMENTS[exp_id]
        print(f"\n===== {exp_id} =====")
        module.main(seed=args.seed)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
