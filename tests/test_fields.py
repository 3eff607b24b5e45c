"""Exact linear algebra over prime fields."""

import itertools
import random

import pytest

from posetmetrics import fields


class TestSolveLinear:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_agrees_with_exhaustive_search(self, q):
        rng = random.Random(q)
        consistent = inconsistent = 0
        for _ in range(60):
            rows, n = rng.randint(1, 3), rng.randint(1, 3)
            a = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(rows))
            b = tuple(rng.randrange(q) for _ in range(rows))
            solvable = any(
                fields.mat_vec(q, a, x) == b for x in itertools.product(range(q), repeat=n)
            )
            x = fields.solve_linear(q, a, b)
            if solvable:
                assert x is not None and fields.mat_vec(q, a, x) == b
                consistent += 1
            else:
                assert x is None
                inconsistent += 1
        assert consistent and inconsistent  # both branches are exercised
