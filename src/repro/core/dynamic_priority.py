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

    c_j + ΣT_p/n_p + Σ_{i ahead of j} c_i / n_p  <  D_j  (remaining)

where the jobs ahead of ``j`` are those before it in the stable ``P_i``
order: smaller ``P_i``, or equal ``P_i`` and earlier in the queue.  The
paper writes ``P_i < P_j``; counting earlier tied jobs too is what the
dispatcher does with ties, and it keeps the test sound (DESIGN.md §2).

``γ_max`` is the largest point of a ``resolution``-point grid over
``[0, gamma_cap]`` that passes Eq. (11).  One search finds it, and
:func:`_eq11_holds` is the only evaluation of Eq. (11):

1. One pass over the queue (:func:`_table`) builds everything the search
   needs: each job's ``(p_i, slack_i, c_i, D_i − now, job)`` tuple, with a
   single ``estimate(task_name, exec_time)`` call per job per search; its
   key ``γ_top·p_i + slack_i`` at the top grid point ``γ_top``; and the
   early-exit verdict.
2. Early exit, before any sort: if some job fails ``c_i + ΣT_p/n_p >=
   D_i − now`` with nothing queued ahead of it, no γ is feasible and the
   search returns ``None``.  This is exact because estimates are
   non-negative (``Job`` and the observer reject a negative or NaN time,
   and the observer averages the ones it takes): the backlog ahead of a job
   is a sum of non-negative terms, and adding a non-negative float never
   lowers a sum, so the job fails at every γ.
3. Otherwise the top point is tested with the keys of step 1; a single
   queued job has nothing ahead of it, so step 2 already passed it there
   and nothing is sorted.  If the top point fails, the grid is walked down
   from the top, testing only the points where the key order may change
   (:func:`_breakpoints`); the walk computes each point's keys afresh and
   tests neither the early exit nor the top point again.

γ enters Eq. (11) only through the stable order of the keys: ``c``,
``ΣT_p``, the sums ahead and ``D − now`` do not depend on it.  So the
verdict is constant on every run of grid points that share one order, and
one test per run is enough.  The top point passes in 99.9% of the searches
on ``fig13_hcperf`` (seed 0); on the deep-queue ``fig13_typed_recorded``
78% pass there, 14% take the early exit, and the rest walk below the top
with a few tests each (EXPERIMENTS.md, E9).

The nominal parameter ``u`` from the MFC controller is finally clamped into
``[0, γ_max]`` (Eq. 12).  When that clamp applies ``γ = γ_max`` (``u ≥
γ_max``: 99% of the rounds on ``fig13_hcperf``), the stable ``P_i`` order the
passing Eq. (11) test sorted *is* the round's dispatch order, so the search
keeps it (:attr:`GammaSearchResult.order`) and HCPerf dispatches from it
without sorting the queue again.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..rt.task import Job

__all__ = [
    "DynamicPriorityConfig",
    "GammaSearchResult",
    "DynamicPriorityPolicy",
]

#: One queued job as the search sees it: ``(p_i, slack_i, c_i, D_i − now, job)``.
_Entry = Tuple[float, float, float, float, Job]

#: ``estimate(task_name, default) -> c_i``, shaped like ``ExecTimeObserver.estimate``.
Estimator = Callable[[str, float], float]


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
        if not 0 <= self.gamma_cap < math.inf:  # NaN fails it too
            raise ValueError(f"gamma_cap must be >= 0 and finite, got {self.gamma_cap}")
        if not isinstance(self.resolution, int) or self.resolution < 2:
            raise ValueError(f"resolution must be an int >= 2, got {self.resolution!r}")


@dataclass(slots=True)
class GammaSearchResult:
    """Outcome of one γ_max search."""

    gamma_max: Optional[float]  # None => even γ = 0 is infeasible (overload)
    gamma: float  # the applied coefficient after Eq. (12)
    overloaded: bool
    #: The search's per-job table in queue order (HCPerf ranks from it).
    entries: List[_Entry] = field(default_factory=list, repr=False)
    #: ``entries`` in the stable ``P_i`` order at ``gamma_max``, as the
    #: passing Eq. (11) test sorted them; ``None`` exactly when
    #: ``gamma_max`` is.
    order: Optional[List[_Entry]] = field(default=None, repr=False)

    @property
    def feasible(self) -> bool:
        return self.gamma_max is not None


def _table(
    jobs: Sequence[Job], now: float, estimate: Estimator, gamma: float, base: float
) -> Tuple[List[_Entry], List[float], bool]:
    """The search's per-job table, its keys at ``gamma`` and the early-exit
    verdict, in one pass over the queue.

    Each job gives ``(p_i, slack_i, c_i, D_i − now, job)`` from one estimate,
    with ``slack_i`` equal to ``latest_start(c_i) - now`` operation for
    operation: ``(release + D) - c_i - now``.  Its key is ``rank``'s
    ``γ·p_i + slack_i``.  The verdict is ``True`` when some job fails Eq. (11)
    with nothing ahead of it, ``c_i + base >= D_i − now`` with ``base`` the
    ``ΣT_p / n_p`` of the round; no γ can then pass (module docstring).
    """
    entries: List[_Entry] = []
    keys: List[float] = []
    doomed = False
    for job in jobs:
        task = job.task
        c = estimate(task.name, job.exec_time)
        deadline = job.absolute_deadline
        p = task.priority
        slack = (deadline - c) - now
        rem = deadline - now
        entries.append((p, slack, c, rem, job))
        keys.append(gamma * p + slack)
        if c + base >= rem:
            doomed = True
    return entries, keys, doomed


def _eq11_holds(
    entries: List[_Entry], keys: List[float], base: float, n_p: int
) -> Optional[List[_Entry]]:
    """The Eq. (11) constraint set at one γ: the tested order, or ``None``.

    ``keys`` are the entries' ``γ·p_i + slack_i`` at that γ.  Jobs are ranked
    by them (stable, so ties keep queue order), and every job before ``j``
    in that order counts toward ``j``'s backlog, which is then a prefix sum:
    the test is O(n log n).  ``base`` is ``ΣT_p / n_p``.  When every
    constraint holds, the entries come back in that ``P_i`` order: the keys
    are ``rank``'s at this γ, bit for bit, so it is the dispatch order of a
    round that applies this γ.
    """
    # sorted() computes each entry's key once, in order: draw them off an iterator.
    ranked = sorted(entries, key=partial(next, iter(keys)))
    ahead = 0.0
    for _, _, c, rem, _ in ranked:
        if c + base + ahead / n_p >= rem:
            return None
        ahead += c
    return ranked


#: Half-width, in grid steps, of the window around each pairwise crossing.
_WINDOW = 1e-6
#: ``16u`` with ``u = 2⁻⁵³``: twice the ``8u`` rounding bound on a key difference.
_ULPS = 8 * sys.float_info.epsilon


def _breakpoints(entries: List[_Entry], top: int, step: float) -> Sequence[int]:
    """Grid indices ``k < top``, descending, whose key order may differ at ``k + 1``.

    Index ``k`` is *marked* when the stable order of the keys
    ``K_i(k) = fl(fl(k·step)·p_i + slack_i)`` at ``k`` may differ from the
    order at ``k + 1``.  An unmarked ``k`` has the order, and so the
    verdict, of ``k + 1``: walking down from a failed point, only marked
    indices need a test.  The stable order is fixed by one predicate per
    pair ``a`` queued before ``b``, namely ``K_b < K_a``; each is constant
    between marks:

    * Equal ``p``: both keys add their slack to the same product
      ``x = fl(γ·p)``, and rounding is monotone, so ``s_a <= s_b`` gives
      ``K_a <= K_b`` at every γ and equal slacks tie at every γ.  Only
      unequal slacks that one rounding can merge can flip the predicate,
      and they lie within ``2u·A`` of each other (``A`` below); when two
      slacks are within ``_ULPS·A``, every index is marked.
    * Unequal ``p``: with ``A`` the largest ``|top·step·p_i| + |slack_i|``,
      each key is within ``4u·A`` of its real value ``k·step·p + slack``
      (three roundings), so the predicate equals the real one wherever the
      real keys differ by more than ``8u·A``.  The real keys cross once, at
      ``q* = (s_b − s_a)/((p_a − p_b)·step)`` grid steps, and differ by
      ``|p_a − p_b|·step·|k − q*|``.  So the predicate can change only
      between ``floor(q*)`` and ``floor(q*) + 1``, or next to an index
      within ``e = 8u·A/(|p_a − p_b|·step)`` of ``q*``.  The computed
      ``q`` is within ``5u·(top + 2)`` of ``q*``.  When ``e`` plus that
      error is below ``_WINDOW`` (checked once, with the smallest
      ``|p_a − p_b|``; otherwise every index is marked), a ``q`` more than
      ``_WINDOW`` from every integer has ``floor(q) = floor(q*)`` and no
      index within ``e`` of ``q*``, so marking ``floor(q)`` suffices.  A
      ``q`` within ``_WINDOW`` of an integer ``m`` leaves only ``m``
      within ``e`` of ``q*``, and marking ``m − 1`` and ``m`` covers both
      of its sides.

    Only pairs with ``q`` in ``(−1, top + 1)`` can mark an index in
    ``[0, top)``; bisecting each sorted slack list finds them (the same
    check keeps the bisection bounds' rounding far below one step).
    """
    if step == 0.0:
        return ()  # every grid point is γ = 0
    everything = range(top - 1, -1, -1)
    groups: Dict[float, List[float]] = {}
    scale = 0.0
    cap = top * step
    for p, slack, _, _, _ in entries:
        groups.setdefault(p, []).append(slack)
        scale = max(scale, abs(cap * p) + abs(slack))
    tol = _ULPS * scale
    by_p = sorted((p, sorted(set(slacks))) for p, slacks in groups.items())
    for _, slacks in by_p:
        for lo, hi in zip(slacks, slacks[1:]):
            if hi - lo <= tol:
                return everything
    if len(by_p) < 2:
        return ()
    dp_min = min(b[0] - a[0] for a, b in zip(by_p, by_p[1:]))
    if tol / (dp_min * step) + _ULPS * (top + 2) >= _WINDOW:
        return everything
    marks = set()
    for i, (p_a, slacks_a) in enumerate(by_p):
        for p_b, slacks_b in by_p[:i]:
            d = (p_a - p_b) * step  # > 0
            for s_a in slacks_a:
                lo = bisect_right(slacks_b, s_a - d)
                hi = bisect_left(slacks_b, s_a + (top + 1) * d)
                for s_b in slacks_b[lo:hi]:
                    q = (s_b - s_a) / d
                    m = round(q)
                    if abs(q - m) <= _WINDOW:
                        marks.add(m - 1)
                        marks.add(m)
                    else:
                        marks.add(math.floor(q))
    return sorted((k for k in marks if 0 <= k < top), reverse=True)


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
        estimate: Estimator,
        busy_remaining: float,
        n_processors: int,
    ) -> bool:
        """Check the Eq. (11) constraint set for a candidate γ.

        ``busy_remaining`` is ``ΣT_p`` — the total remaining processing time
        of jobs currently running; ``estimate(task_name, exec_time)`` gives
        each queued job's observed execution time ``c_i``.
        """
        if not jobs:
            return True
        n_p = n_processors if n_processors > 1 else 1
        base = busy_remaining / n_p
        entries, keys, doomed = _table(jobs, now, estimate, gamma, base)
        return not doomed and _eq11_holds(entries, keys, base, n_p) is not None

    def gamma_max(
        self,
        jobs: Sequence[Job],
        now: float,
        estimate: Estimator,
        busy_remaining: float,
        n_processors: int,
    ) -> Optional[float]:
        """Largest grid γ satisfying Eq. (11), or ``None`` when overloaded.

        Feasibility is *not* monotone in γ: the key order changes at each
        pairwise breakpoint, and a later order can pass where an earlier
        one failed.  Taking the largest feasible grid point implements the
        paper's "allowable range [0, γ_max]" faithfully for practical
        queues.
        """
        return self.resolve(0.0, jobs, now, estimate, busy_remaining, n_processors).gamma_max

    def _search(
        self, entries: List[_Entry], top_keys: List[float], doomed: bool, base: float, n_p: int
    ) -> Tuple[Optional[float], Optional[List[_Entry]]]:
        """The γ_max grid search over what :func:`_table` built at the top point.

        Returns ``(γ_max, order)``: ``order`` is what :func:`_eq11_holds`
        returned at ``γ_max``, and both are ``None`` when no point passes.
        """
        cfg = self.config
        if not entries:
            return cfg.gamma_cap, []
        if doomed:
            return None, None
        top = cfg.resolution - 1
        step = cfg.gamma_cap / top
        if len(entries) == 1:
            return top * step, entries  # Eq. (11) for one job is the early-exit test
        order = _eq11_holds(entries, top_keys, base, n_p)
        if order is not None:
            return top * step, order
        for k in _breakpoints(entries, top, step):
            gamma = k * step
            keys = [gamma * p + slack for p, slack, _, _, _ in entries]
            order = _eq11_holds(entries, keys, base, n_p)
            if order is not None:
                return gamma, order
        return None, None

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
        estimate: Estimator,
        busy_remaining: float,
        n_processors: int,
    ) -> GammaSearchResult:
        """Full §V pipeline: search γ_max, clamp u, flag overload."""
        cfg = self.config
        n_p = n_processors if n_processors > 1 else 1
        base = busy_remaining / n_p
        top = cfg.resolution - 1
        entries, keys, doomed = _table(jobs, now, estimate, top * (cfg.gamma_cap / top), base)
        gmax, order = self._search(entries, keys, doomed, base, n_p)
        gamma = self.clamp_gamma(u, gmax)
        return GammaSearchResult(gmax, gamma, gmax is None, entries, order)
