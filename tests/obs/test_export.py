"""Exporters: Chrome trace validity, JSONL byte-stability and loading, Gantt."""

import json
import re
import tracemalloc

import pytest

from repro.experiments.runner import run_scenario
from repro.obs.events import SpanEvent
from repro.obs.export import (
    from_jsonl,
    load_recording,
    render_gantt,
    summary_text,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.recorder import SCHEMA, Recorder
from repro.rt import RTExecutor, SimConfig
from repro.schedulers import EDFScheduler, HCPerfScheduler
from repro.workloads import SCENARIOS

from ..conftest import build_chain_graph


@pytest.fixture
def recorded_run():
    executor = RTExecutor(
        build_chain_graph(),
        HCPerfScheduler(),
        SimConfig(n_processors=2, horizon=1.0, coordination_period=0.25, seed=3),
    )
    rec = Recorder()
    executor.recorder = rec
    executor.run()
    rec.annotate(scenario="chain", scheduler="HCPerf", seed=3)
    return rec


class TestChromeTrace:
    def test_export_is_schema_valid(self, recorded_run):
        trace = to_chrome_trace(recorded_run)
        assert validate_chrome_trace(trace) == []
        # JSON-serializable end to end
        json.dumps(trace)

    def test_lane_and_event_structure(self, recorded_run):
        trace = to_chrome_trace(recorded_run)
        events = trace["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names and "thread_name" in names
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and all(e["dur"] >= 0 for e in spans)
        # timestamps are microseconds of simulated time
        assert all(0 <= e["ts"] <= 1.0e6 for e in spans)
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert "gamma" in counters and "miss_ratio" in counters
        assert trace["otherData"]["seed"] == 3
        assert "tasks" not in trace["otherData"]

    def test_validator_flags_malformed_traces(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": 3}) != []
        bad = {
            "traceEvents": [
                {"ph": "Z", "name": "x"},
                {"ph": "X", "name": "", "ts": 0},
                {"ph": "X", "name": "x", "ts": -1, "dur": -2},
                {"ph": "i", "name": "x", "ts": 0, "s": "q"},
                {"ph": "C", "name": "x", "ts": 0, "args": 5},
            ]
        }
        problems = validate_chrome_trace(bad)
        assert len(problems) >= 5


class TestJsonl:
    def test_round_trip_is_byte_stable(self, recorded_run):
        text = to_jsonl(recorded_run)
        clone = from_jsonl(text)
        assert to_jsonl(clone) == text
        assert clone.events == recorded_run.events
        assert clone.meta["scenario"] == "chain"

    def test_meta_line_first_with_schema(self, recorded_run):
        first = json.loads(to_jsonl(recorded_run).splitlines()[0])
        assert first["ev"] == "meta"
        assert first["schema"] == SCHEMA

    def test_compact_separators(self, recorded_run):
        line = to_jsonl(recorded_run).splitlines()[1]
        assert ": " not in line and ", " not in line

    def test_export_holds_one_buffer_and_its_result(self):
        # Joined blocks plus the returned text: about twice the output.  A
        # string per line, or a trailing-newline copy, would be 3.4x.
        rec = Recorder()
        run_scenario(SCENARIOS["fig13"](horizon=10.0), "HCPerf", seed=0, recorder=rec)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = to_jsonl(rec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(text) > 1_000_000
        assert peak <= 2.2 * len(text), f"peak {peak / len(text):.2f}x the output"

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            from_jsonl('{"ev":"meta","schema":"hcperf-trace/99"}\n')

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1]", "must be a JSON object"),
            ("not json", "not valid JSON"),
            ('{"ev":"release","t":"x"}', "missing cycle, deadline, task"),
            ('{"ev":"control","t":"x","response":0.1}', "'t' must be float"),
            ('{"ev":"window","t":1e999,"t_start":0.0,"completed":0,"missed":0,'
             '"control_commands":0,"utilization":0.0}', "'t' must be float"),
            ('{"ev":"control","t":NaN,"response":0.1}', "'t' must be float"),
            ('{"ev":"gamma","t":0.0,"gamma":true,"gamma_max":null,"overloaded":false}',
             "'gamma' must be float"),
            ('{"ev":"gamma","t":0.0,"gamma":0.0,"gamma_max":0.1,"overloaded":1}',
             "'overloaded' must be bool"),
            ('{"ev":"unresolved","t":0.0,"task":"a","cycle":1.5,"state":"ready"}',
             "'cycle' must be int"),
            ('{"ev":"control","t":0.0,"response":0.1,"extra":1}', "unknown field extra"),
            ('{"t":0.0}', "unknown event kind None"),
            (f'{{"ev":"meta","schema":"{SCHEMA}","tasks":5}}', "meta 'tasks'"),
            (f'{{"ev":"meta","schema":"{SCHEMA}","t_end":"late"}}', "meta 't_end'"),
            (f'{{"ev":"meta","schema":"{SCHEMA}","n_processors":{2**62}}}',
             "meta 'n_processors'"),
            (f'{{"ev":"meta","schema":"{SCHEMA}","n_processors":2.0}}', "meta 'n_processors'"),
            (f'{{"ev":"meta","schema":"{SCHEMA}","n_processors":true}}', "meta 'n_processors'"),
            ("[" * 100_000, "nested too deeply"),
        ],
    )
    def test_malformed_line_rejected_with_its_number(self, line, message):
        text = f'{{"ev":"meta","schema":"{SCHEMA}"}}\n{line}\n'
        with pytest.raises(ValueError, match=f"^line 2: .*{re.escape(message)}"):
            from_jsonl(text)

    def test_bad_line_reported_with_number(self):
        text = (
            f'{{"ev":"meta","schema":"{SCHEMA}"}}\n'
            '{"ev":"gamma","t":0.0,"bogus":1}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            from_jsonl(text)


class TestSaveLoad:
    def test_canonical_json_round_trip(self, tmp_path, capsys):
        """``hcperf trace run --out`` writes JSONL, the one recording format."""
        from repro.cli import main

        path = tmp_path / "rec.jsonl"
        argv = ["trace", "run", "--scenario", "fig13", "--horizon", "1", "--out", str(path)]
        assert main(argv) == 0
        clone = load_recording(path)
        assert clone.events and clone.meta["scheduler"] == "HCPerf"
        assert to_jsonl(clone) == path.read_text()
        capsys.readouterr()
        assert main(["trace", "export", str(path), "--format", "summary"]) == 0
        assert capsys.readouterr().out == summary_text(clone) + "\n"

    def test_load_accepts_jsonl(self, recorded_run, tmp_path):
        path = tmp_path / "rec.jsonl"
        path.write_text(to_jsonl(recorded_run))
        clone = load_recording(path)
        assert clone.events == recorded_run.events
        assert clone.meta == recorded_run.meta

    def test_load_rejects_chrome_export(self, recorded_run, tmp_path):
        path = tmp_path / "chrome.json"
        path.write_text(json.dumps(to_chrome_trace(recorded_run)))
        with pytest.raises(ValueError, match="Chrome"):
            load_recording(path)

    def test_load_rejects_single_object_form(self, tmp_path):
        path = tmp_path / "rec.json"
        old_form = {"schema": SCHEMA, "meta": {}, "events": []}
        path.write_text(json.dumps(old_form, indent=1))
        with pytest.raises(ValueError, match="single-object JSON recording form"):
            load_recording(path)

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_recording(path)


class TestSummary:
    def test_summary_mentions_the_essentials(self, recorded_run):
        text = summary_text(recorded_run)
        assert "chain / HCPerf" in text
        assert "jobs_released" in text
        assert "span=" in text

    def test_summary_without_meta(self):
        executor = RTExecutor(
            build_chain_graph(),
            EDFScheduler(),
            SimConfig(n_processors=1, horizon=0.5, coordination_period=0.25, seed=0),
        )
        rec = Recorder()
        executor.recorder = rec
        executor.run()
        assert "time span" in summary_text(rec)


def gantt_recording(*spans):
    """A recording holding ``(task, proc, start, finish, outcome)`` spans."""
    rec = Recorder()
    for cycle, (task, proc, start, finish, outcome) in enumerate(spans):
        rec.emit(SpanEvent(
            t=finish, task=task, cycle=cycle, processor=proc, start=start,
            finish=finish, release=start, deadline=start + 0.1, outcome=outcome,
        ))
    return rec


class TestGantt:
    def test_render_real_trace(self):
        executor = RTExecutor(
            build_chain_graph(), EDFScheduler(),
            SimConfig(n_processors=2, horizon=1.0, seed=3),
        )
        rec = Recorder()
        executor.recorder = rec
        executor.run()
        out = render_gantt(rec, 0.0, 0.5, width=60)
        assert "p0" in out
        assert "=source" in out and "=sink" in out and "=middle" in out
        # Distinct symbols per task (no first-letter collisions).
        legend = out.splitlines()[-1]
        symbols = [part.split("=")[0].strip() for part in legend[7:].split(",")]
        assert len(set(symbols)) == 3

    def test_missed_jobs_lowercase(self):
        rec = gantt_recording(("Miss", 0, 0.0, 0.5, "miss"))
        out = render_gantt(rec, 0.0, 1.0, width=10)
        assert "a" in out.splitlines()[1]

    def test_killed_jobs_render_distinctly(self):
        # A job killed by a processor failure renders as '#', not as a
        # plain miss, and the header legend names the mark.
        rec = gantt_recording(
            ("Kill", 0, 0.0, 0.5, "kill"),
            ("Miss", 1, 0.5, 0.9, "miss"),
        )
        out = render_gantt(rec, 0.0, 1.0, width=10)
        assert "#=killed" in out.splitlines()[0]
        assert "#" in out.splitlines()[1]
        assert "#" not in out.splitlines()[2]

    def test_validation(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            render_gantt(rec, 1.0, 0.5)
        with pytest.raises(ValueError):
            render_gantt(rec, 0.0, 1.0, width=5)

    def test_out_of_window_spans_skipped(self):
        rec = gantt_recording(("a", 0, 5.0, 6.0, "complete"))
        out = render_gantt(rec, 0.0, 1.0, width=10)
        assert "A" not in out.splitlines()[1]


class TestTypedSpanSerialization:
    """The optional ``unit`` key: present iff the platform is typed."""

    def _record(self, profile=None):
        kwargs = (
            {"processor_profile": profile}
            if profile is not None else {"n_processors": 2}
        )
        executor = RTExecutor(
            build_chain_graph(), EDFScheduler(),
            SimConfig(horizon=0.5, coordination_period=0.25, seed=1, **kwargs),
        )
        rec = Recorder()
        executor.recorder = rec
        rec.bind_run(executor)
        executor.run()
        return rec

    def test_identity_platform_spans_have_no_unit_key(self):
        rec = self._record()
        for line in to_jsonl(rec).splitlines()[1:]:
            assert '"unit"' not in line
        assert "processor_profile" not in rec.meta

    def test_typed_platform_unit_round_trips(self):
        rec = self._record(profile="1xCPU+1xGPU@2")
        text = to_jsonl(rec)
        clone = from_jsonl(text)
        spans = [e for e in clone.events if e.kind == "span"]
        assert spans and all(s.unit in ("CPU", "GPU") for s in spans)
        assert to_jsonl(clone) == text
        assert clone.meta["processor_profile"] == "1xCPU+1xGPU@2"
