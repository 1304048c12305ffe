"""Unit tests for the task/job model."""

import dataclasses
import math

import pytest

from repro.rt import ConstantExecTime, Criticality, ExecContext, Job, JobState, TaskSpec


def make_spec(**kwargs):
    defaults = dict(
        name="t",
        priority=1,
        relative_deadline=0.1,
        exec_model=ConstantExecTime(0.01),
    )
    defaults.update(kwargs)
    return TaskSpec(**defaults)


class TestTaskSpec:
    def test_basic_construction(self):
        spec = make_spec(name="camera", priority=5)
        assert spec.name == "camera"
        assert spec.priority == 5
        assert spec.criticality is Criticality.LOW

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_spec(name="")

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError, match="relative_deadline"):
            make_spec(relative_deadline=0.0)
        with pytest.raises(ValueError, match="relative_deadline"):
            make_spec(relative_deadline=-1.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            make_spec(rate=0.0)

    def test_invalid_rate_range_rejected(self):
        with pytest.raises(ValueError, match="rate_range"):
            make_spec(rate=10.0, rate_range=(0.0, 20.0))
        with pytest.raises(ValueError, match="rate_range"):
            make_spec(rate=10.0, rate_range=(20.0, 10.0))

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("relative_deadline", dict(relative_deadline=math.nan)),
            ("rate", dict(rate=math.nan)),
            ("rate_range", dict(rate=10.0, rate_range=(math.nan, 20.0))),
            ("rate_range", dict(rate=10.0, rate_range=(5.0, math.nan))),
            ("speedup", dict(speedup={"GPU": math.nan})),
        ],
        ids=["relative_deadline", "rate", "rate_range_lo", "rate_range_hi", "speedup"],
    )
    def test_nan_rejected(self, field, kwargs):
        # Each check used to be written ``x <= 0``, which NaN passes: a NaN
        # rate silenced its source after one release, a NaN deadline passed
        # every Eq. (11) comparison.
        with pytest.raises(ValueError, match=field):
            make_spec(**kwargs)

    def test_infinite_rate_rejected(self):
        # A period of 0 s: the source released forever at t = 0 and the run hung.
        with pytest.raises(ValueError, match="finite"):
            make_spec(rate=math.inf)

    def test_rate_outside_range_rejected(self):
        with pytest.raises(ValueError, match="outside range"):
            make_spec(rate=100.0, rate_range=(5.0, 50.0))

    def test_period_from_rate(self):
        assert make_spec(rate=20.0).period == pytest.approx(0.05)

    def test_period_none_without_rate(self):
        assert make_spec().period is None

    def test_equality_and_hash_by_name(self):
        a = make_spec(name="x", priority=1)
        b = make_spec(name="x", priority=9)
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_spec(name="y")

    def test_equality_with_non_spec(self):
        assert make_spec() != 42


class TestJob:
    def test_absolute_deadline(self):
        job = Job(task=make_spec(relative_deadline=0.2), release_time=1.0, exec_time=0.01)
        assert job.absolute_deadline == pytest.approx(1.2)

    def test_default_provenance_is_own_release(self):
        job = Job(task=make_spec(name="src"), release_time=3.0, exec_time=0.01)
        assert job.provenance == {"src": 3.0}
        assert job.sense_time == pytest.approx(3.0)

    def test_sense_time_is_oldest_provenance(self):
        job = Job(
            task=make_spec(),
            release_time=5.0,
            exec_time=0.01,
            provenance={"camera": 4.8, "lidar": 4.9},
        )
        assert job.sense_time == pytest.approx(4.8)

    def test_negative_exec_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Job(task=make_spec(), release_time=0.0, exec_time=-0.1)

    def test_nan_exec_time_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Job(task=make_spec(), release_time=0.0, exec_time=float("nan"))

    def test_latest_start_uses_own_exec_time(self):
        job = Job(task=make_spec(relative_deadline=0.1), release_time=0.0, exec_time=0.03)
        assert job.latest_start() == pytest.approx(0.07)

    def test_latest_start_with_estimate(self):
        job = Job(task=make_spec(relative_deadline=0.1), release_time=0.0, exec_time=0.03)
        assert job.latest_start(0.05) == pytest.approx(0.05)

    def test_is_expired(self):
        job = Job(task=make_spec(relative_deadline=0.1), release_time=0.0, exec_time=0.01)
        assert not job.is_expired(0.05)
        assert job.is_expired(0.1)
        assert job.is_expired(0.2)

    def test_response_time_none_until_finished(self):
        job = Job(task=make_spec(), release_time=1.0, exec_time=0.01)
        assert job.response_time is None
        job.finish_time = 1.5
        assert job.response_time == pytest.approx(0.5)

    def test_job_ids_unique_and_hashable(self):
        a = Job(task=make_spec(), release_time=0.0, exec_time=0.01)
        b = Job(task=make_spec(), release_time=0.0, exec_time=0.01)
        assert a != b
        assert len({a, b}) == 2
        assert a == a

    def test_equality_with_non_job(self):
        job = Job(task=make_spec(), release_time=0.0, exec_time=0.01)
        assert job != "job"

    def test_initial_state_ready(self):
        job = Job(task=make_spec(), release_time=0.0, exec_time=0.01)
        assert job.state is JobState.READY

    def test_leading_fields_are_the_executors_positional_order(self):
        # The executor builds every job as Job(spec, now, exec_time,
        # provenance, cycle) and every context as ExecContext(now,
        # complexity): reordering these fields would silently swap values.
        spec = make_spec()
        job = Job(spec, 1.5, 0.02, {"a": 1.25}, 7)
        assert (job.task, job.release_time, job.exec_time, job.provenance, job.cycle) == (
            spec, 1.5, 0.02, {"a": 1.25}, 7
        )
        leading = [f.name for f in dataclasses.fields(Job)[:5]]
        assert leading == ["task", "release_time", "exec_time", "provenance", "cycle"]
        ctx = ExecContext(2.0, 9.0)
        assert (ctx.now, ctx.scene_complexity) == (2.0, 9.0)
        assert [f.name for f in dataclasses.fields(ExecContext)] == ["now", "scene_complexity"]

    def test_jobs_are_slotted(self):
        # One is built per release: no per-instance __dict__.
        job = Job(task=make_spec(), release_time=0.0, exec_time=0.01)
        assert not hasattr(job, "__dict__")
        with pytest.raises(AttributeError):
            job.extra = 1
