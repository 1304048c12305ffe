"""Dynamic Priority Scheduler core (paper §V).

Every ready job gets a *dynamic scheduling priority*

    P_i = γ · p_i + d_i                                        (Eq. 10)

where ``p_i`` is the configured priority and ``d_i`` the scheduling deadline
``D_i − c_i`` (Eq. 9) — realized here as the absolute latest-start slack
``release_i + D_i − c_i − now`` so that jobs from different control cycles
are comparable (DESIGN.md §2).  Small γ ≈ deadline-driven (EDF-like); large
γ ≈ priority-driven (HPF-like).

γ is bounded by the largest value for which the ready queue remains
schedulable under the workload-conservation test of Eq. (11):

    c_j + ΣT_p/n_p + Σ_{P_i < P_j} c_i / n_p  <  D_j  (remaining)

``γ_max`` is the largest point of a ``resolution``-point grid over
``[0, gamma_cap]`` that passes Eq. (11).  One search finds it:

1. Each queued job becomes one ``(p_i, slack_i, c_i, D_i − now)`` tuple,
   with a single ``exec_estimate`` call per job per search.
2. Early exit: if some job fails ``c_i + ΣT_p/n_p >= D_i − now`` with
   nothing queued ahead of it, no γ is feasible and the search returns
   ``None``.  This is exact because estimates are non-negative (``Job``
   rejects a negative ``exec_time`` and the observer averages observed
   ones): the backlog ahead of a job is a sum of non-negative terms, and
   adding a non-negative float never lowers a sum, so the job fails at
   every γ.
3. Otherwise the top point ``gamma_cap`` is tested with plain Python
   floats (:func:`_eq11_holds`).  If it fails, the other ``resolution − 1``
   points are tested in one NumPy pass (:func:`_eq11_grid`) and the
   largest passing one is returned.

The split follows the searches of the end-to-end benchmark at seed 0.
The top point passes in 99.9% of all searches on ``fig13_hcperf`` and
99.7% on ``lane_keeping_hcperf``; on the deep-queue
``fig13_typed_recorded`` 78% pass there and 14% take the early exit.  For
those one scalar test is cheaper than any array setup.  The other 7% of
``fig13_typed_recorded``'s searches walk below the top, most of them
failing at all 64 points, and a one-point-at-a-time walk spent 75% of
the run's Eq. (11) evaluations on them.  The batch repeats the scalar
test's float operations in the same order, so it returns the same grid
point bit for bit.

The nominal parameter ``u`` from the MFC controller is finally clamped into
``[0, γ_max]`` (Eq. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..rt.task import Job

__all__ = [
    "DynamicPriorityConfig",
    "GammaSearchResult",
    "DynamicPriorityPolicy",
]

#: One queued job as the search sees it: ``(p_i, slack_i, c_i, D_i − now)``.
_Entry = Tuple[float, float, float, float]


@dataclass
class DynamicPriorityConfig:
    """Tuning of the γ search.

    Attributes
    ----------
    gamma_cap:
        Upper end of the γ search grid (``γ^max`` of constraint (1b)).
        γ multiplies the dimensionless priority ``p_i`` and is added to a
        *seconds*-scale slack, so the meaningful range is of order
        ``D_typical / p_spread`` — a few milliseconds of bias per priority
        level.  The default 0.02 spans from pure deadline-driven to fully
        priority-driven for deadlines up to ~100 ms and priorities up to 10.
    resolution:
        Number of grid points over ``[0, gamma_cap]``.
    """

    gamma_cap: float = 0.02
    resolution: int = 64

    def __post_init__(self) -> None:
        if self.gamma_cap < 0:
            raise ValueError("gamma_cap must be >= 0")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")


@dataclass
class GammaSearchResult:
    """Outcome of one γ_max search."""

    gamma_max: Optional[float]  # None => even γ = 0 is infeasible (overload)
    gamma: float  # the applied coefficient after Eq. (12)
    overloaded: bool
    #: The search's per-job table in queue order (HCPerf ranks from it).
    entries: List[_Entry] = field(default_factory=list, repr=False)

    @property
    def feasible(self) -> bool:
        return self.gamma_max is not None


def _entries(
    jobs: Sequence[Job], now: float, exec_estimate: Callable[[Job], float]
) -> List[_Entry]:
    """Per-job ``(p_i, slack_i, c_i, D_i − now)``, one estimate per job.

    ``slack_i`` is ``latest_start(c_i) - now`` operation for operation:
    ``(release + D) - c_i - now``.
    """
    entries = []
    for job in jobs:
        est = exec_estimate(job)
        deadline = job.absolute_deadline
        entries.append((job.task.priority, (deadline - est) - now, est, deadline - now))
    return entries


def _eq11_holds(gamma: float, entries: List[_Entry], base: float, n_p: int) -> bool:
    """The Eq. (11) constraint set at one γ.

    Jobs are ranked by ``P_i`` (stable, so ties keep queue order); the
    higher-priority backlog ahead of a job is then a prefix sum, making the
    test O(n log n).  ``base`` is ``ΣT_p / n_p``.
    """
    ranked = sorted(
        [(gamma * p + slack, c, rem) for p, slack, c, rem in entries], key=itemgetter(0)
    )
    ahead = 0.0
    start = 0  # first index of the current equal-P_i group
    for i, (prio, c, rem) in enumerate(ranked):
        if prio != ranked[start][0]:
            # Jobs with equal P_i do not count toward each other's backlog
            # (Eq. 11 uses a strict inequality P_i < P_j), so a group joins
            # the backlog, one job at a time, only once it is complete.
            for k in range(start, i):
                ahead += ranked[k][1]
            start = i
        if c + base + ahead / n_p >= rem:
            return False
    return True


def _eq11_grid(
    gammas: np.ndarray, entries: List[_Entry], base: float, n_p: int
) -> np.ndarray:
    """:func:`_eq11_holds` at every γ in ``gammas`` at once, bit for bit.

    Row ``r`` repeats the scalar test's float operations in the same order:
    keys ``γ·p + slack``, a stable sort, the sum of the sorted ``c`` ahead
    of each equal-key group (``cumsum`` adds left to right, as the scalar
    loop does), and ``(c + base) + ahead / n_p >= rem``.
    """
    p, slack, c, rem = np.array(entries, dtype=float).T
    g = gammas[:, None]
    order = np.argsort(g * p + slack, axis=1, kind="stable")
    keys = g * p[order] + slack[order]  # the sorted keys, recomputed exactly
    c = c[order]
    # ahead[:, j]: sum of the sorted c before position j.
    ahead = np.zeros_like(keys)
    np.cumsum(c[:, :-1], axis=1, out=ahead[:, 1:])
    # Equal keys do not count toward each other (strict P_i < P_j): every
    # job reads the backlog at the start of its equal-key group.
    group_start = np.zeros(keys.shape, dtype=np.intp)
    group_start[:, 1:] = np.where(keys[:, 1:] != keys[:, :-1], np.arange(1, len(p)), 0)
    np.maximum.accumulate(group_start, axis=1, out=group_start)
    ahead = ahead[np.arange(len(gammas))[:, None], group_start]
    return ~((c + base) + ahead / n_p >= rem[order]).any(axis=1)


class DynamicPriorityPolicy:
    """Computes dynamic priorities and the bounded coefficient γ."""

    def __init__(self, config: Optional[DynamicPriorityConfig] = None) -> None:
        self.config = config or DynamicPriorityConfig()

    # ------------------------------------------------------------------
    # Priority arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def scheduling_slack(job: Job, now: float, exec_estimate: float) -> float:
        """Absolute form of the scheduling deadline ``d_i = D_i − c_i``.

        Time remaining until the job's latest feasible start; negative when
        the job can no longer finish on time.
        """
        return job.latest_start(exec_estimate) - now

    def dynamic_priority(
        self, job: Job, gamma: float, now: float, exec_estimate: float
    ) -> float:
        """``P_i = γ·p_i + d_i`` (Eq. 10); smaller runs first."""
        return gamma * job.task.priority + self.scheduling_slack(job, now, exec_estimate)

    # ------------------------------------------------------------------
    # Schedulability test (Eq. 11) and the γ_max search
    # ------------------------------------------------------------------
    def is_feasible(
        self,
        gamma: float,
        jobs: Sequence[Job],
        now: float,
        exec_estimate: Callable[[Job], float],
        busy_remaining: float,
        n_processors: int,
    ) -> bool:
        """Check the Eq. (11) constraint set for a candidate γ.

        ``busy_remaining`` is ``ΣT_p`` — the total remaining processing time
        of jobs currently running; ``exec_estimate`` maps each queued job to
        its observed execution time ``c_i``.
        """
        if not jobs:
            return True
        n_p = max(1, n_processors)
        entries = _entries(jobs, now, exec_estimate)
        return _eq11_holds(gamma, entries, busy_remaining / n_p, n_p)

    def gamma_max(
        self,
        jobs: Sequence[Job],
        now: float,
        exec_estimate: Callable[[Job], float],
        busy_remaining: float,
        n_processors: int,
    ) -> Optional[float]:
        """Largest grid γ satisfying Eq. (11), or ``None`` when overloaded.

        Feasibility is *not* monotone in γ in general, but taking the
        largest feasible grid point implements the paper's "allowable range
        [0, γ_max]" faithfully for practical queues.
        """
        return self._search(_entries(jobs, now, exec_estimate), busy_remaining, n_processors)

    def _search(
        self, entries: List[_Entry], busy_remaining: float, n_processors: int
    ) -> Optional[float]:
        """The γ_max grid search over an already built per-job table."""
        cfg = self.config
        if not entries:
            return cfg.gamma_cap
        n_p = max(1, n_processors)
        base = busy_remaining / n_p
        # Exact early exit (module docstring): a job that misses with an
        # empty backlog ahead of it misses at every γ.
        for _, _, c, rem in entries:
            if c + base >= rem:
                return None
        top = cfg.resolution - 1
        step = cfg.gamma_cap / top
        if _eq11_holds(top * step, entries, base, n_p):
            return top * step
        passing = np.flatnonzero(_eq11_grid(np.arange(top) * step, entries, base, n_p))
        return int(passing[-1]) * step if passing.size else None

    # ------------------------------------------------------------------
    # Eq. (12): map nominal u to actual γ
    # ------------------------------------------------------------------
    @staticmethod
    def clamp_gamma(u: float, gamma_max: Optional[float]) -> float:
        """Clamp the nominal parameter into ``[0, γ_max]``.

        With no feasible γ (overload) the paper sets γ to zero — pure
        deadline-driven scheduling — and defers to the external coordinator.
        """
        if gamma_max is None:
            return 0.0
        if u < 0.0:
            return 0.0
        if u > gamma_max:
            return gamma_max
        return u

    def resolve(
        self,
        u: float,
        jobs: Sequence[Job],
        now: float,
        exec_estimate: Callable[[Job], float],
        busy_remaining: float,
        n_processors: int,
    ) -> GammaSearchResult:
        """Full §V pipeline: search γ_max, clamp u, flag overload."""
        entries = _entries(jobs, now, exec_estimate)
        gmax = self._search(entries, busy_remaining, n_processors)
        gamma = self.clamp_gamma(u, gmax)
        return GammaSearchResult(gmax, gamma, gmax is None, entries)
