"""Append-only JSONL result store.

One line per finished job, keyed by the job's content hash.  Append-only
makes interruption safe: a killed campaign leaves at most one torn final
line, which :meth:`ResultStore.load` skips, and every intact record is a
job that never needs recomputing.  ``path=None`` gives an in-memory store
with the same interface, for campaigns whose records need not outlive the
process (the claims ledger's appendices, tests).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = ["ResultStore"]


class ResultStore:
    """JSONL store of job records (``{"job_id", "job", "summary"}``)."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._memory: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, object]]:
        """Every intact record, in append order; torn/corrupt lines skipped.

        Later duplicates of a job id win (a record re-appended after a
        partially flushed predecessor supersedes it), though the engine
        never appends a job id twice in normal operation.
        """
        from ..obs.log import warn

        if self.path is None:
            raw: Iterator[str] = iter([json.dumps(r) for r in self._memory])
        else:
            if not self.path.exists():
                return []
            raw = iter(self.path.read_text().splitlines())
        where = "<memory>" if self.path is None else str(self.path)
        by_id: Dict[str, Dict[str, object]] = {}
        for lineno, line in enumerate(raw, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # Torn tail of an interrupted append: recoverable by
                # construction, but never silent — the warning is what
                # tells an operator a writer died mid-record.
                warn(
                    "store.torn_line",
                    "skipping torn/corrupt JSONL record",
                    store=where,
                    line=lineno,
                )
                continue
            if not isinstance(record, dict) or "job_id" not in record:
                warn(
                    "store.bad_record",
                    "skipping record without a job_id",
                    store=where,
                    line=lineno,
                )
                continue
            by_id[str(record["job_id"])] = record
        return list(by_id.values())

    def job_ids(self) -> Dict[str, Dict[str, object]]:
        """Mapping of finished job id → record."""
        return {str(r["job_id"]): r for r in self.records()}

    def __len__(self) -> int:
        return len(self.records())

    def __contains__(self, job_id: str) -> bool:
        return job_id in self.job_ids()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: Dict[str, object]) -> None:
        """Durably append one record (open → write → flush → fsync → close)."""
        if "job_id" not in record:
            raise ValueError("record must carry a job_id")
        if self.path is None:
            self._memory.append(record)
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        # A killed writer can leave a torn line without a newline; never
        # glue a fresh record onto it.
        torn_tail = False
        if self.path.exists() and self.path.stat().st_size > 0:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                torn_tail = fh.read(1) != b"\n"
        with open(self.path, "ab") as fh:
            if torn_tail:
                fh.write(b"\n")
            fh.write(line.encode("utf-8") + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
