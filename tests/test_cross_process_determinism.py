"""Cross-process determinism oracle: the same runs in two fresh interpreters
must print the same bytes.

Every number the reproduction publishes must be a pure function of
(scenario, scheduler, seed).  This test checks that by running the code,
not by reading it: it starts two ``python`` children at once, one with
``PYTHONHASHSEED=1`` and a serial fleet (``jobs=1``), the other with
``PYTHONHASHSEED=2`` and a two-worker fleet (``jobs=2``).  Each child runs
the end-to-end benchmark's four workloads at seed 0 over a 12 s horizon
(past the t = 10 s fusion overload) plus a small fleet campaign with and
without a fault, and prints one sha256 digest per output.  A wall-clock or
global-RNG value that reaches a result, a recording or a fleet record, set
iteration order that leaks into one, or a worker-count dependence, shows up
as a byte difference between the two children, wherever in the call graph
the leak sits.

Run as a script (``python tests/test_cross_process_determinism.py JOBS``
with ``src`` on ``PYTHONPATH``) it is the child.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

REPO = Path(__file__).resolve().parents[1]
HORIZON_S = 12.0
FLEET_HORIZON_S = 6.0


def _e2e_child():
    """``benchmarks/e2e/child.py``, imported by path (it is not a package)."""
    path = REPO / "benchmarks" / "e2e" / "child.py"
    spec = importlib.util.spec_from_file_location("e2e_child", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_digests(jobs: int) -> Dict[str, str]:
    """One digest per output of the oracle's runs; ``jobs`` sizes the fleet."""
    from repro.experiments.runner import run_scenario
    from repro.fleet import CampaignSpec, ResultStore, run_campaign
    from repro.obs import Recorder, to_jsonl

    e2e = _e2e_child()
    digests: Dict[str, str] = {}
    for name, workload in e2e.WORKLOADS.items():
        scenario = workload.build(HORIZON_S)
        for scheme in workload.schemes:
            recorder = Recorder() if workload.recorded else None
            result = run_scenario(scenario, scheme, seed=0, recorder=recorder)
            digests[f"{name}.{scheme}"] = _sha(json.dumps(result.to_dict(), sort_keys=True))
            if recorder is not None:
                digests[f"{name}.{scheme}.recording"] = _sha(to_jsonl(recorder))

    spec = CampaignSpec(
        name="oracle",
        scenarios=["fig13"],
        schedulers=["EDF", "HCPerf"],
        seeds=[0, 1],
        variants=[{"horizon": FLEET_HORIZON_S}],
        faults=[None, "fusion_spike"],
    )
    store = ResultStore(None)
    run_campaign(spec, store=store, jobs=jobs)
    records = sorted(store.records(), key=lambda r: str(r["job_id"]))
    digests["fleet"] = _sha(json.dumps(records, sort_keys=True))
    return digests


def test_two_processes_print_identical_digests():
    children = []
    for hash_seed, jobs in (("1", 1), ("2", 2)):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(REPO / "src"))
        children.append(
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(jobs)],
                cwd=REPO,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    outputs = []
    try:
        for child in children:
            out, err = child.communicate(timeout=600)
            assert child.returncode == 0, err
            outputs.append(out)
    finally:
        for child in children:
            child.kill()
    first, second = (json.loads(out) for out in outputs)
    assert set(first) == set(second)
    differing = sorted(key for key in first if first[key] != second[key])
    assert differing == [], f"outputs differ between processes: {differing}"
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    print(json.dumps(child_digests(int(sys.argv[1])), sort_keys=True))
