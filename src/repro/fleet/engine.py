"""Campaign engine: expand, shard, execute, stream to the store, resume.

``run_campaign`` expands a spec into its manifest, drops every job whose
id the store already holds (resume), and executes the remainder either
serially in-process or sharded across a ``multiprocessing`` pool.  Each
finished summary is appended to the store the moment it arrives, so an
interrupt loses at most the jobs in flight — never finished work.

Parallelism is observation-free by construction: a job's result depends
only on its own (scenario, scheduler, seed, overrides), completion order
only affects store line order, and aggregation sorts by manifest order —
so ``jobs=4`` and ``jobs=1`` produce byte-identical reports.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from .manifest import Job, build_manifest
from .spec import CampaignSpec
from .store import ResultStore
from .worker import execute_job

__all__ = ["CampaignReport", "run_campaign", "campaign_status", "default_store_path"]

#: Where ``hcperf fleet`` keeps stores unless told otherwise.
STORE_DIR = Path("results/fleet")


def default_store_path(spec: CampaignSpec) -> Path:
    return STORE_DIR / f"{spec.name}.jsonl"


@dataclass
class CampaignReport:
    """What one ``run_campaign`` call did."""

    spec: CampaignSpec
    total: int
    skipped: int
    executed_ids: List[str] = field(default_factory=list)
    interrupted: bool = False

    @property
    def executed(self) -> int:
        return len(self.executed_ids)

    @property
    def remaining(self) -> int:
        return self.total - self.skipped - self.executed

    @property
    def complete(self) -> bool:
        return self.remaining == 0


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork shares the already-imported interpreter (fast); fall back to
    # spawn where fork does not exist (Windows) — execute_job is a
    # module-level function over picklable Jobs, so both work.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def run_campaign(
    spec: CampaignSpec,
    store: Union[ResultStore, str, Path, None] = None,
    jobs: int = 1,
    max_jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run (or resume) a campaign.

    Parameters
    ----------
    store:
        A JSONL :class:`ResultStore`, a path to one, or ``None`` for an
        in-memory store (no resume across calls, but identical semantics).
    jobs:
        Worker-process count; ``1`` executes serially in-process.
    max_jobs:
        Execute at most this many pending jobs, then return — an
        intentional interruption (useful for incremental runs and for
        testing resume).
    progress:
        Callback for one-line progress messages (e.g. ``print`` or a
        logger); ``None`` is silent.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    spec.validate()
    if store is None or isinstance(store, (str, Path)):
        store = ResultStore(store)

    manifest = build_manifest(spec)
    done = store.job_ids()
    pending = [job for job in manifest if job.id not in done]
    skipped = len(manifest) - len(pending)
    report = CampaignReport(spec=spec, total=len(manifest), skipped=skipped)

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    if skipped:
        say(f"resume: {skipped}/{len(manifest)} jobs already in store, skipping")
    if max_jobs is not None:
        if max_jobs < 0:
            raise ValueError("max_jobs must be >= 0")
        if max_jobs < len(pending):
            report.interrupted = True
        pending = pending[:max_jobs]
    if not pending:
        say("nothing to do: campaign already complete")
        return report

    n = len(pending)
    say(f"running {n} jobs on {min(jobs, n)} worker(s)")

    def record_result(job: Job, record: Dict[str, object]) -> None:
        store.append(record)
        report.executed_ids.append(job.id)
        say(f"[{report.skipped + report.executed}/{report.total}] {job.describe()}")

    if jobs == 1 or n == 1:
        for job in pending:
            record_result(job, execute_job(job))
        return report

    by_id = {job.id: job for job in pending}
    ctx = _pool_context()
    with ctx.Pool(processes=min(jobs, n)) as pool:
        for record in pool.imap_unordered(execute_job, pending, chunksize=1):
            record_result(by_id[str(record["job_id"])], record)
        pool.close()
        pool.join()
    return report


def campaign_status(
    spec: CampaignSpec, store: Union[ResultStore, str, Path, None]
) -> Dict[str, object]:
    """Done/pending breakdown of a campaign against its store."""
    if store is None or isinstance(store, (str, Path)):
        store = ResultStore(store)
    manifest = build_manifest(spec)
    done = store.job_ids()
    pending = [job for job in manifest if job.id not in done]
    stray = sorted(set(done) - {job.id for job in manifest})
    return {
        "total": len(manifest),
        "done": len(manifest) - len(pending),
        "pending": [job.describe() for job in pending],
        "stray": stray,  # store records no longer part of the spec
    }
