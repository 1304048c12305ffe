"""Unit tests for the latency analysis module."""

import pytest

from repro.analysis import command_latencies, latency_report
from repro.vehicle.longitudinal import ACCCommand


def cmd(computed_at, sense_time):
    return ACCCommand(accel=0.0, computed_at=computed_at, sense_time=sense_time)


class TestLatency:
    def test_command_latencies(self):
        cmds = [cmd(1.0, 0.9), cmd(2.0, 1.7)]
        assert command_latencies(cmds) == pytest.approx([0.1, 0.3])

    def test_empty_report(self):
        report = latency_report([])
        assert report.count == 0 and report.mean == 0.0 and report.worst == 0.0

    def test_report_statistics(self):
        cmds = [cmd(float(k), float(k) - 0.1 * (k + 1)) for k in range(10)]
        report = latency_report(cmds)
        assert report.count == 10
        assert report.mean == pytest.approx(0.55, abs=1e-9)
        assert report.worst == pytest.approx(1.0)
        assert report.p50 <= report.p95 <= report.p99 <= report.worst

    def test_window_restriction(self):
        cmds = [cmd(1.0, 0.9), cmd(5.0, 4.0), cmd(9.0, 8.9)]
        report = latency_report(cmds, t_min=4.0, t_max=6.0)
        assert report.count == 1
        assert report.mean == pytest.approx(1.0)


class TestRunResultIntegration:
    def test_latency_report_from_run(self):
        from repro.experiments.runner import run_scenario
        from repro.workloads import fig13_car_following

        r = run_scenario(fig13_car_following(horizon=5.0), "EDF", seed=0)
        report = r.latency_report()
        assert report.count > 0
        assert 0.0 < report.mean < 1.0

    def test_to_dict_serializable(self):
        import json

        from repro.experiments.runner import run_scenario
        from repro.workloads import fig13_car_following, lane_keeping_loop

        r = run_scenario(fig13_car_following(horizon=5.0), "HCPerf", seed=0)
        payload = r.to_dict()
        text = json.dumps(payload)
        assert "speed_error_rms" in payload and "mean_gamma" in payload
        assert json.loads(text)["scheduler"] == "HCPerf"

        r2 = run_scenario(lane_keeping_loop(horizon=5.0), "EDF", seed=0)
        payload2 = r2.to_dict()
        json.dumps(payload2)
        assert "lateral_offset_rms" in payload2

    def test_save_writes_json_file(self, tmp_path):
        import json

        from repro.experiments.runner import run_scenario
        from repro.workloads import fig13_car_following

        r = run_scenario(fig13_car_following(horizon=5.0), "EDF", seed=0)
        out = tmp_path / "run.json"
        r.save(out)
        payload = json.loads(out.read_text())
        assert payload["scenario"] == "fig13_car_following"
