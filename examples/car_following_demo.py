#!/usr/bin/env python3
"""Car following (paper Fig. 13): all five schemes on the sine-lead scenario.

Reproduces Tables II & III on a shortened 40 s horizon and renders the
deadline-miss-ratio timelines of Fig. 13(d).

Run:  python examples/car_following_demo.py [--horizon 90] [--seed 1]
"""

import argparse

from repro.analysis import format_comparison, sparkline
from repro.cli import horizon_seconds
from repro.experiments.runner import compare_schedulers
from repro.workloads import fig13_car_following


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=horizon_seconds, default=40.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"Running 5 schemes x {args.horizon:.0f}s (seed {args.seed})...\n")
    results = compare_schedulers(
        lambda: fig13_car_following(horizon=args.horizon), seed=args.seed
    )

    print(format_comparison(
        "Speed tracking error (Table II analogue)",
        "RMS (m/s)",
        {s: r.speed_error_rms() for s, r in results.items()},
    ))
    print()
    print(format_comparison(
        "Distance oscillation (Table III analogue)",
        "RMS (m)",
        {s: r.distance_error_rms() for s, r in results.items()},
    ))
    print("\nDeadline miss ratio over time (fusion elevated from t = 10 s):")
    for scheme, r in results.items():
        series = [m for _, m in r.miss_ratio_series()]
        print(f"  {scheme:8s} {sparkline(series)}")
    print("\nControl commands per second:")
    for scheme, r in results.items():
        print(f"  {scheme:8s} {r.control_throughput():6.1f}")


if __name__ == "__main__":
    main()
