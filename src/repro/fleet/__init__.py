"""Fleet campaign engine — sharded parallel simulation runs with resume.

The experiment harnesses run one (scenario, scheduler, seed) at a time;
evaluating a scheduler the way the related campaign studies do (HetSched's
mission-mix sweeps, randomized DAG populations) needs whole grids of them.
This package turns a declarative :class:`~repro.fleet.spec.CampaignSpec`
into that grid and runs it at the hardware's width:

``spec``      scenarios × schedulers × seeds × config-override variants;
``manifest``  deterministic expansion into content-hashed jobs;
``worker``    one picklable job executor shared by every backend;
``engine``    serial or ``multiprocessing`` execution that streams each
              finished summary into the store and skips stored jobs on
              resume;
``store``     append-only JSONL keyed by job hash — interrupt-safe;
``aggregate`` store → per-cell mean/std/CI tables, win counts and
              charts; the claims ledger's Appendices B and C read them.

CLI: ``hcperf fleet run|status|report`` (see ``repro.cli``).
"""

from .aggregate import (
    CampaignGroup,
    CellStats,
    load_groups,
    render_group,
    render_store,
)
from .engine import CampaignReport, campaign_status, default_store_path, run_campaign
from .manifest import Job, build_manifest, job_id
from .spec import OVERRIDE_KEYS, CampaignSpec, load_spec
from .store import ResultStore
from .worker import build_scenario, execute_job

__all__ = [
    "CampaignGroup",
    "CampaignReport",
    "CampaignSpec",
    "CellStats",
    "Job",
    "OVERRIDE_KEYS",
    "ResultStore",
    "build_manifest",
    "build_scenario",
    "campaign_status",
    "default_store_path",
    "execute_job",
    "job_id",
    "load_groups",
    "load_spec",
    "render_group",
    "render_store",
    "run_campaign",
]
