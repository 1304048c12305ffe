"""The package runs on the standard library alone.

``pyproject.toml`` lists no runtime dependency; numpy is only a ``dev``
extra (the end-to-end benchmark and one observability test use it).  A
fresh interpreter with ``import numpy`` made to fail runs a Fig. 13 HCPerf
scenario, which exercises the γ_max search on every dispatch round.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
from repro import fig13_car_following, run_scenario
result = run_scenario(fig13_car_following(horizon=5.0), "HCPerf", seed=0)
print(len(result.gamma_history), result.overall_miss_ratio())
"""


def test_hcperf_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    rounds, miss_ratio = proc.stdout.split()
    assert int(rounds) > 0
    assert float(miss_ratio) <= 0.1
