"""Exact linear algebra over prime fields."""

import itertools
import random

import pytest

from posetmetrics import fields
from posetmetrics.errors import BoundExceeded


def scan_invertible(q, n):
    """Every invertible n x n matrix by filtering all q^(n^2) candidates: the row walk's oracle."""
    out = []
    for entries in itertools.product(range(q), repeat=n * n):
        m = tuple(entries[r * n : (r + 1) * n] for r in range(n))
        if fields.is_invertible(q, m):
            out.append(m)
    return tuple(out)


def gl_order(q, n):
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


# every (q, n) with q in {2, 3, 5, 7} whose q^(n^2) candidates fit in 2^16
GL_SHAPES = [(q, n) for q in (2, 3, 5, 7) for n in range(5) if q ** (n * n) <= 1 << 16]


class TestInvertibleMatrices:
    @pytest.mark.parametrize("q,n", GL_SHAPES)
    def test_row_walk_equals_candidate_scan(self, q, n):
        matrices = fields.invertible_matrices(q, n)
        assert matrices == scan_invertible(q, n)
        assert len(matrices) == gl_order(q, n)

    def test_bound_counts_every_candidate(self):
        # 2^16 candidates for GL_4(F_2): refused one below, admitted at the bound
        with pytest.raises(BoundExceeded) as exc:
            fields.invertible_matrices(2, 4, (1 << 16) - 1)
        assert str(exc.value) == "cannot scan 2^16 matrices (bound 65535)"
        assert len(fields.invertible_matrices(2, 4, 1 << 16)) == gl_order(2, 4)

    @pytest.mark.parametrize("q,n,text", [
        (2, 5, "cannot scan 2^25 matrices (bound 262144)"),
        (3, 4, "cannot scan 3^16 matrices (bound 262144)"),
        (23, 2, "cannot scan 23^4 matrices (bound 262144)"),
    ])
    def test_default_bound_refuses_before_any_work(self, q, n, text):
        with pytest.raises(BoundExceeded) as exc:
            fields.invertible_matrices(q, n)
        assert str(exc.value) == text


def oracle_mat_mul(q, a, b):
    """The triple-index product that the column kernel replaced."""
    cols = len(b[0])
    inner = len(b)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(inner)) % q for c in range(cols))
        for r in range(len(a))
    )


class TestMatMul:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_column_kernel_equals_the_triple_index_product(self, q):
        rng = random.Random(q)

        def random_matrix(rows, cols):
            return tuple(tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rows))

        for _ in range(300):
            k, m, l = (rng.randint(1, 5) for _ in range(3))
            a, b = random_matrix(k, m), random_matrix(m, l)
            assert fields.mat_mul(q, a, b) == oracle_mat_mul(q, a, b)
            assert fields.mat_mul(q, fields.identity_matrix(k), a) == a
            assert fields.mat_mul(q, a, fields.identity_matrix(m)) == a
