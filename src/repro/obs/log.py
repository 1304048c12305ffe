"""Structured warning channel for the observability layer.

Simulation output must stay a pure function of (scenario, scheduler,
seed), but the *infrastructure* around a run — the fleet's result store —
occasionally has something operational to say: a torn JSONL line skipped
on recovery, a record without a job id.  Swallowing those silently
violates the repo's no-hidden-failure stance (HC005); printing them
corrupts CLI output that tests pin byte-for-byte.  This module is the
sanctioned middle path: a single stdlib :mod:`logging` logger
(``repro.obs``) that callers emit structured warnings through.

The channel is passive and seed-pure: it never reads clocks or
randomness itself, and with no handler configured the root ``lastResort``
handler writes to stderr — never stdout — so piped JSON stays clean.
Tests observe it with ``caplog``; callers may attach their own handler.
"""

from __future__ import annotations

import logging
from typing import Any

__all__ = ["LOGGER_NAME", "get_logger", "warn"]

#: The one logger name every infrastructure warning goes through.
LOGGER_NAME = "repro.obs"


def get_logger() -> logging.Logger:
    """The shared ``repro.obs`` logger (create-on-first-use)."""
    return logging.getLogger(LOGGER_NAME)


def warn(event: str, message: str, **fields: Any) -> None:
    """Emit one structured warning.

    Parameters
    ----------
    event:
        Stable machine-readable event key (``"store.torn_line"``) —
        the thing a log pipeline filters on.
    message:
        Human-readable description of what happened.
    fields:
        Context key/values, rendered ``k=v`` after the message.
    """
    suffix = ""
    if fields:
        suffix = " " + " ".join(f"{k}={fields[k]}" for k in sorted(fields))
    get_logger().warning("%s: %s%s", event, message, suffix)
