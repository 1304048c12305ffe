"""Regression tests: §V gain reset is reachable from the executor loop.

Historically the drift signal driving ``TaskRateAdapter``'s gain reset was
computed from the *fast* execution-time EWMA, so ordinary sampling noise of
wide execution-time distributions crossed the reset threshold nearly every
coordination window — the reset fired constantly, and a genuine regime
change was indistinguishable from noise.  The observer now tracks drift on
a separate slow EWMA (``SimConfig.drift_alpha``); these tests pin the two
ends of the fix through a full executor run:

* a scripted execution-time regime change (the Fig. 13 fusion step) resets
  the adapter gain at least once;
* a steady-state run with noisy-but-stationary execution times never does.
"""

from repro.rt import (
    ConstantExecTime,
    RTExecutor,
    SimConfig,
    StepExecTime,
    TaskGraph,
    TaskSpec,
    UniformExecTime,
)
from repro.schedulers import HCPerfScheduler


def make_graph(fusion_model):
    g = TaskGraph()
    g.add_task(
        TaskSpec(
            "camera",
            priority=5,
            relative_deadline=0.1,
            exec_model=UniformExecTime(0.004, 0.008),
            rate=20.0,
            rate_range=(10.0, 40.0),
        )
    )
    g.add_task(
        TaskSpec("fusion", priority=3, relative_deadline=0.1, exec_model=fusion_model)
    )
    g.add_task(
        TaskSpec(
            "control", priority=1, relative_deadline=0.1,
            exec_model=ConstantExecTime(0.002),
        )
    )
    g.add_edge("camera", "fusion")
    g.add_edge("fusion", "control")
    g.validate()
    return g


def run(fusion_model, horizon=20.0):
    sched = HCPerfScheduler()
    config = SimConfig(n_processors=2, horizon=horizon, seed=7)
    executor = RTExecutor(make_graph(fusion_model), sched, config)
    # Feed a small constant tracking error so the MFC has a signal.
    executor.add_periodic("err", 0.05, lambda t: sched.report_performance(t, 0.3))
    executor.run()
    return sched


class TestRegimeReset:
    def test_regime_change_resets_adapter_gain(self):
        """A 3x fusion-time step (Fig. 13 style) must trigger the §V reset."""
        step = StepExecTime(
            normal=ConstantExecTime(0.005),
            elevated=ConstantExecTime(0.015),
            t_on=5.0,
            t_off=15.0,
        )
        sched = run(step)
        # One reset entering the elevated regime, one leaving it.
        assert sched.rate_adapter.resets >= 1

    def test_stationary_noise_does_not_reset(self):
        """Wide-but-stationary execution times must NOT look like a regime
        change — this is exactly the hair-trigger the slow drift EWMA fixes."""
        noisy = UniformExecTime(0.004, 0.016)  # 4x spread, fixed distribution
        sched = run(noisy)
        assert sched.rate_adapter.resets == 0

    def test_reset_restores_gain(self):
        """After a regime-change reset the proportional gain is back at
        ``kp_initial`` (the decayed value is discarded)."""
        step = StepExecTime(
            normal=ConstantExecTime(0.005),
            elevated=ConstantExecTime(0.015),
            t_on=5.0,
            t_off=100.0,  # never leaves the elevated regime
        )
        sched = run(step, horizon=6.0)
        adapter = sched.rate_adapter
        assert adapter.resets == 1
        # kp has decayed again since the reset, but only for the windows
        # observed after it (t in (5, 6]); far fewer decays than a run
        # without any reset would have accumulated by t = 6.
        cfg = adapter.config
        windows_since_reset = 3  # 0.5 s windows in (5.0, 6.0] plus slack
        assert adapter.kp >= cfg.kp_initial * cfg.kp_decay**windows_since_reset
