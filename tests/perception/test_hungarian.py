"""Unit and property tests for the Hungarian algorithm."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perception import assignment_cost, hungarian


def brute_force_cost(cost):
    """Optimal assignment cost by enumeration (square or rectangular)."""
    n_rows, n_cols = len(cost), len(cost[0])
    k = min(n_rows, n_cols)
    best = math.inf
    rows = range(n_rows)
    for row_subset in itertools.permutations(rows, k):
        for col_subset in itertools.permutations(range(n_cols), k):
            total = sum(cost[r][c] for r, c in zip(row_subset, col_subset))
            best = min(best, total)
    return best


class TestKnownCases:
    def test_identity_matrix(self):
        cost = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert hungarian(cost) == [(0, 0), (1, 1), (2, 2)]

    def test_classic_example(self):
        cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
        pairs = hungarian(cost)
        assert assignment_cost(cost, pairs) == 5.0

    def test_single_element(self):
        assert hungarian([[3.5]]) == [(0, 0)]

    def test_two_by_two_swap(self):
        cost = [[10, 1], [1, 10]]
        assert hungarian(cost) == [(0, 1), (1, 0)]

    def test_float_costs(self):
        cost = [[0.5, 1.2], [1.1, 0.4]]
        assert hungarian(cost) == [(0, 0), (1, 1)]


class TestRectangular:
    def test_more_rows_than_cols(self):
        cost = [[1.0], [0.5], [2.0]]
        pairs = hungarian(cost)
        assert pairs == [(1, 0)]

    def test_more_cols_than_rows(self):
        cost = [[3.0, 1.0, 2.0]]
        assert hungarian(cost) == [(0, 1)]

    def test_rect_optimality_vs_brute_force(self):
        rng = random.Random(0)
        cost = [[rng.uniform(0, 10) for _ in range(4)] for _ in range(2)]
        pairs = hungarian(cost)
        assert assignment_cost(cost, pairs) == pytest.approx(brute_force_cost(cost))


class TestEdgeCases:
    def test_empty_inputs(self):
        assert hungarian([]) == []
        assert hungarian([[]]) == []

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            hungarian([[1.0, 2.0], [1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian([[math.inf]])
        with pytest.raises(ValueError, match="finite"):
            hungarian([[math.nan]])

    def test_negative_costs_supported(self):
        cost = [[-5.0, 0.0], [0.0, -5.0]]
        assert hungarian(cost) == [(0, 0), (1, 1)]


class TestOptimality:
    @given(
        n=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_square_matches_brute_force(self, n, seed):
        rng = random.Random(seed)
        cost = [[rng.uniform(0, 100) for _ in range(n)] for _ in range(n)]
        pairs = hungarian(cost)
        assert len(pairs) == n
        assert len({r for r, _ in pairs}) == n
        assert len({c for _, c in pairs}) == n
        assert assignment_cost(cost, pairs) == pytest.approx(brute_force_cost(cost))

    def test_large_instance_runs(self):
        rng = random.Random(1)
        n = 60
        cost = [[rng.uniform(0, 1) for _ in range(n)] for _ in range(n)]
        pairs = hungarian(cost)
        assert len(pairs) == n
        # Sanity: optimal must beat the diagonal assignment.
        diag = sum(cost[i][i] for i in range(n))
        assert assignment_cost(cost, pairs) <= diag + 1e-9
