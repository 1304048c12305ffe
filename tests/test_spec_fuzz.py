"""Boundary fuzzing of the JSON and string forms a user can hand the CLI.

``FaultSpec.from_dict``, ``CampaignSpec.from_dict``,
``ProcessorProfile.from_dict``, ``ProcessorProfile.parse`` and the
recording reader ``from_jsonl`` take input straight from a file or a flag.
Whatever the input, each must either build an object that is valid, here
meaning that it survives a strict JSON round trip unchanged (a recording:
that its invariant check, summary and Chrome export run and its JSONL
re-reads to the same bytes), or raise ``ValueError``; no other exception
may escape.  The strategies draw arbitrary JSON values (including the NaN and
Infinity that Python's ``json`` parses), shaped half the time like the
input each reader expects, so that nested objects get deep enough to reach
the field checks.
"""

import json
import math
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FAULT_KINDS, FaultSpec
from repro.fleet import OVERRIDE_KEYS, CampaignSpec
from repro.obs import EVENT_KINDS, check_recording, summary_text, to_chrome_trace, to_jsonl
from repro.obs.events import DROP_REASONS, SPAN_OUTCOMES
from repro.obs.export import from_jsonl
from repro.obs.recorder import SCHEMA
from repro.rt import ProcessorProfile

WORDS = (
    sorted(FAULT_KINDS)
    + ["CPU", "gpu", "2xCPU+1xGPU@3", "fig13", "HCPerf", "fusion_spike"]
    + list(SPAN_OUTCOMES + DROP_REASONS)
)

text = st.sampled_from(WORDS) | st.text(max_size=8)
#: Plain draws rarely hit the edges (st.floats() is non-finite about 0.3% of
#: the time), so the edges are drawn on purpose too.
number = (
    st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 0.5, 2.0, 10**400])
)
json_values = st.recursive(
    st.none() | st.booleans() | number | text,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)


def objects(shape):
    """JSON objects holding each key of ``shape`` or not, plus stray keys.

    A present key's value is drawn from ``shape[key]`` (the type the reader
    expects) half the time and from any JSON value the other half.
    """
    known = st.fixed_dictionaries(
        {}, optional={key: value | json_values for key, value in shape.items()}
    )
    stray = st.dictionaries(st.text(max_size=4), json_values, max_size=2)
    return st.tuples(stray, known).map(lambda pair: {**pair[0], **pair[1]})


def fault_model(kind):
    shape = {
        f.name: text if f.name in ("task", "unit") else number for f in fields(FAULT_KINDS[kind])
    }
    return objects(shape).map(lambda d: {**d, "kind": kind})


fault_specs = objects(
    {
        "name": text,
        "seed": number,
        "faults": st.lists(st.sampled_from(sorted(FAULT_KINDS)).flatmap(fault_model), max_size=3),
    }
)
overrides = objects({key: text if key == "processor_profile" else number for key in OVERRIDE_KEYS})
campaign_specs = objects(
    {
        "name": text,
        "scenarios": st.lists(text, min_size=1, max_size=3),
        "schedulers": st.lists(text, min_size=1, max_size=3),
        "seeds": st.lists(number, min_size=1, max_size=3),
        "variants": st.lists(overrides, min_size=1, max_size=3),
        "faults": st.lists(st.none() | text | fault_specs, min_size=1, max_size=3),
        "metric": st.none() | text,
    }
)
#: A recording event field's annotation -> the values ``to_dict`` writes for it.
FIELD_VALUES = {
    "float": number,
    "int": st.integers(),
    "str": text,
    "bool": st.booleans(),
    "Optional[float]": st.none() | number,
    "Optional[str]": st.none() | text,
}


def event_line(kind, well_typed):
    """An event object of ``kind``: every field it needs, well typed, or loose."""
    shape = {f.name: FIELD_VALUES[str(f.type)] for f in fields(EVENT_KINDS[kind])}
    if not well_typed:
        return objects(shape).map(lambda d: {"ev": kind, **d})
    required = set(EVENT_KINDS[kind](t=0.0).to_dict()) - {"ev"}
    return st.fixed_dictionaries(
        {name: shape[name] for name in sorted(required)},
        optional={name: shape[name] for name in sorted(set(shape) - required)},
    ).map(lambda d: {"ev": kind, **d})


def any_event(well_typed):
    return st.sampled_from(sorted(EVENT_KINDS)).flatmap(lambda k: event_line(k, well_typed))


meta_line = st.fixed_dictionaries(
    {"ev": st.just("meta"), "schema": st.just(SCHEMA) | text},
    optional={
        "n_processors": number | json_values,
        "t_end": number | json_values,
        "gamma_cap": number | json_values,
        "tasks": st.lists(
            objects({"name": text, "rate_range": st.none() | st.lists(number, max_size=3)}),
            max_size=3,
        )
        | json_values,
    },
)
#: Mostly well-typed events, so that a fair share of texts loads and reaches
#: the checker; the rest is loose objects, other JSON and non-JSON text.
jsonl_lines = st.lists(
    st.one_of(
        any_event(True), any_event(True), any_event(True), meta_line,
        any_event(False), json_values,
    ).map(json.dumps)
    | st.text(max_size=12),
    max_size=6,
).map("\n".join)
profile_dicts = objects({"units": st.lists(objects({"type": text, "speedup": number}), max_size=4)})
#: ``[N x] TYPE [@speedup]`` segments; the 305-315 digit speedups overflow to inf.
segment = st.from_regex(
    r"\s?(\d{1,6}\s?[xX]\s?)?[A-Za-z_]\w{0,3}\s?(@\s?(\d{0,3}\.?\d{1,3}|\d{305,315}))?",
    fullmatch=True,
)
profile_text = st.lists(
    segment | st.text(max_size=6),
    min_size=1,
    max_size=3,
).map("+".join)


def build_or_reject(build, value):
    """``build(value)``, or ``None`` where it raises ``ValueError``."""
    try:
        return build(value)
    except ValueError:
        return None


def strict_json(obj):
    """JSON text and back, refusing NaN and Infinity as a JSON parser may."""
    return json.loads(json.dumps(obj.to_dict(), allow_nan=False))


@settings(max_examples=500, deadline=None)
@given(data=fault_specs | json_values)
def test_fault_spec_from_dict(data):
    spec = build_or_reject(FaultSpec.from_dict, data)
    if spec is not None:
        assert FaultSpec.from_dict(strict_json(spec)) == spec


@settings(max_examples=500, deadline=None)
@given(data=campaign_specs | json_values)
def test_campaign_spec_from_dict(data):
    spec = build_or_reject(CampaignSpec.from_dict, data)
    if spec is not None:
        assert CampaignSpec.from_dict(strict_json(spec)) == spec


@settings(max_examples=500, deadline=None)
@given(data=profile_dicts | json_values)
def test_processor_profile_from_dict(data):
    profile = build_or_reject(ProcessorProfile.from_dict, data)
    if profile is not None:
        assert ProcessorProfile.from_dict(strict_json(profile)) == profile


@settings(max_examples=500, deadline=None)
@given(value=profile_text | json_values)
def test_processor_profile_parse(value):
    profile = build_or_reject(ProcessorProfile.parse, value)
    if profile is not None:
        assert isinstance(value, str)
        assert ProcessorProfile.from_dict(strict_json(profile)) == profile


@settings(max_examples=500, deadline=None)
@given(text=jsonl_lines)
@example(text=json.dumps({"ev": "meta", "schema": SCHEMA, "n_processors": 2**62}))
@example(text="[" * 100_000)
def test_recording_from_jsonl(text):
    rec = build_or_reject(from_jsonl, text)
    if rec is not None:
        check_recording(rec)
        summary_text(rec)
        to_chrome_trace(rec)
        assert to_jsonl(from_jsonl(to_jsonl(rec))) == to_jsonl(rec)
