"""Cross-validation of the from-scratch Hungarian against SciPy's solver."""

import random

import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")

from perception import assignment_cost, hungarian


@pytest.mark.parametrize("n,m,seed", [
    (1, 1, 0), (3, 3, 1), (5, 5, 2), (8, 8, 3), (12, 12, 4),
    (20, 20, 5), (3, 7, 6), (7, 3, 7), (1, 10, 8), (15, 4, 9),
])
def test_matches_scipy_linear_sum_assignment(n, m, seed):
    rng = random.Random(seed)
    cost = [[rng.uniform(-50.0, 50.0) for _ in range(m)] for _ in range(n)]
    ours = assignment_cost(cost, hungarian(cost))
    rows, cols = scipy_optimize.linear_sum_assignment(cost)
    theirs = sum(cost[r][c] for r, c in zip(rows, cols))
    assert ours == pytest.approx(theirs, abs=1e-9)


def test_many_random_square_instances():
    rng = random.Random(42)
    for trial in range(30):
        n = rng.randint(2, 15)
        cost = [[rng.uniform(0.0, 100.0) for _ in range(n)] for _ in range(n)]
        ours = assignment_cost(cost, hungarian(cost))
        rows, cols = scipy_optimize.linear_sum_assignment(cost)
        theirs = sum(cost[r][c] for r, c in zip(rows, cols))
        assert ours == pytest.approx(theirs, abs=1e-9), f"trial {trial}, n={n}"


def test_degenerate_equal_costs():
    cost = [[1.0] * 4 for _ in range(4)]
    ours = assignment_cost(cost, hungarian(cost))
    assert ours == pytest.approx(4.0)
