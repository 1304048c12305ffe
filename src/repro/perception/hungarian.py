"""Hungarian (Kuhn–Munkres) assignment, implemented from scratch.

The paper's configurable sensor fusion "uses the Hungarian algorithm, with
time complexity O(n³), for data matching.  Thus, its execution time is highly
dependent on the number of obstacles (n) detected at runtime" (§II) — this is
the root cause of the execution-time variance HCPerf is built to absorb.

This is the potentials/shortest-augmenting-path formulation (as in
Jonker–Volgenant): exactly O(n³) worst case, numerically robust for float
costs.  Rectangular matrices are handled by padding with a large finite cost.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

__all__ = ["hungarian", "assignment_cost"]


def hungarian(cost: Sequence[Sequence[float]]) -> List[Tuple[int, int]]:
    """Minimum-cost assignment for a (possibly rectangular) cost matrix.

    Parameters
    ----------
    cost:
        ``cost[i][j]`` — cost of assigning row ``i`` to column ``j``.  Costs
        must be finite; use gating *before* calling (drop impossible pairs)
        rather than infinities.

    Returns
    -------
    list of (row, col)
        One pair per assigned row, sorted by row.  For an ``n×m`` matrix,
        ``min(n, m)`` pairs are returned (padding assignments are stripped).

    Examples
    --------
    >>> hungarian([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
    [(0, 1), (1, 0), (2, 2)]
    """
    n_rows = len(cost)
    if n_rows == 0:
        return []
    n_cols = len(cost[0])
    if n_cols == 0:
        return []
    for row in cost:
        if len(row) != n_cols:
            raise ValueError("cost matrix rows must have equal length")
        for value in row:
            if not math.isfinite(value):
                raise ValueError("cost matrix entries must be finite")

    n = max(n_rows, n_cols)
    # Pad to square.  Every padded assignment uses a *fixed* number of pad
    # entries (n − min(n_rows, n_cols)), so the pad value does not change
    # which real pairs are optimal — it only needs to stay within float
    # resolution of the real costs (a huge constant like 1e18 would swamp
    # sub-unit cost differences).
    pad = 1.0 + 2.0 * max(abs(v) for row in cost for v in row)
    a = [
        [
            (cost[i][j] if i < n_rows and j < n_cols else pad)
            for j in range(n)
        ]
        for i in range(n)
    ]

    # Potentials and matching arrays, 1-indexed internally (classic
    # formulation); p[j0] is the column matched in the current phase.
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (0 = free)
    way = [0] * (n + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = math.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = a[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        # Augment along the alternating path.
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    pairs = []
    for j in range(1, n + 1):
        i = p[j]
        if 1 <= i <= n_rows and 1 <= j <= n_cols:
            pairs.append((i - 1, j - 1))
    pairs.sort()
    return pairs


def assignment_cost(
    cost: Sequence[Sequence[float]], pairs: Optional[List[Tuple[int, int]]] = None
) -> float:
    """Total cost of an assignment (computing it first if not supplied)."""
    if pairs is None:
        pairs = hungarian(cost)
    return sum(cost[i][j] for i, j in pairs)
