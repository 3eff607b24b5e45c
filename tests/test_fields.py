"""Exact linear algebra over prime fields."""

import itertools
import random
import time

import pytest

from posetmetrics import fields
from posetmetrics.errors import BoundExceeded, count_text, power_over, power_text


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


class TestDotValues:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_column_sums_index_every_combination(self, q):
        # summed column by column with the place values, the kernel gives the
        # vector index of every codeword sum_r x_r row_r, x in lexicographic order
        rng = random.Random(q)
        for _ in range(40):
            d, n = rng.randint(0, 3), rng.randint(1, 4)
            rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(d)]
            indices = [0] * q**d
            for c, column in enumerate(zip(*rows)):
                place = q ** (n - 1 - c)
                indices = [t + place * v for t, v in zip(indices, fields.dot_values(q, column))]
            if not rows:  # no columns: only the empty combination, the zero vector
                assert indices == [0]
                continue
            expected = [
                fields.vec_index(q, fields.combine(q, rows, x, n))
                for x in itertools.product(range(q), repeat=d)
            ]
            assert indices == expected

    def test_values_are_inner_products_in_lexicographic_order(self):
        assert fields.dot_values(3, (1, 2)) == [
            (x0 + 2 * x1) % 3 for x0 in range(3) for x1 in range(3)
        ]
        assert fields.dot_values(5, ()) == [0]


class TestPowerBounds:
    def test_power_over_agrees_with_the_formed_power(self):
        for q in (2, 3, 5, 7, 61, 4294967291):
            for e in range(0, 70):
                for bound in (0, 1, q - 1, q, 1 << 16, (1 << 16) - 1, q**e - 1, q**e, q**e + 1):
                    assert power_over(q, e, bound) == (q**e > bound), (q, e, bound)

    def test_power_text_names_a_power_of_two_the_power_reaches(self):
        for q in (2, 3, 5, 7, 61):
            for e in range(0, 200):
                text = power_text(q, e)
                if q**e < 1 << 64:
                    assert text == str(q**e)
                else:
                    assert q**e >= 2 ** int(text.removeprefix("at least 2^"))
        assert power_text(2, 100000) == count_text(2**100000) == "at least 2^100000"

    def test_huge_exponents_are_never_raised(self):
        start = time.perf_counter()
        assert power_over(2, 10**12, 1 << 16) and power_over(4294967291, 10**12, 1 << 20)
        assert power_text(3, 10**12) == "at least 2^1000000000000"
        assert time.perf_counter() - start < 0.1
