"""Exact linear algebra over prime fields on plain int tuples.

Vectors are flat tuples with entries in [0, q); matrices are tuples of row
tuples and act on column vectors: (M v)_r = sum_c M[r][c] v[c].  Everything
is hashable, so results can be deduplicated with sets and memoized.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Sequence

from .errors import BoundExceeded, ValidationError, power_over

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def inv_mod(a: int, q: int) -> int:
    """Multiplicative inverse in F_q (q prime)."""
    a %= q
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, q - 2, q)


def vec_add(q: int, a: Sequence[int], b: Sequence[int]) -> Vector:
    return tuple((x + y) % q for x, y in zip(a, b))


def vec_sub(q: int, a: Sequence[int], b: Sequence[int]) -> Vector:
    return tuple((x - y) % q for x, y in zip(a, b))


def vec_scale(q: int, c: int, a: Sequence[int]) -> Vector:
    c %= q
    return tuple((c * x) % q for x in a)


def vec_index(q: int, v: Sequence[int]) -> int:
    """The vector's place in lexicographic order: its entries as base-q digits."""
    index = 0
    for x in v:
        index = index * q + x
    return index


def combine(q: int, rows: Sequence[Sequence[int]], coeffs: Sequence[int], n: int) -> Vector:
    """The length-n vector sum_r coeffs[r] * rows[r]."""
    out = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            for t in range(n):
                out[t] = (out[t] + c * row[t]) % q
    return tuple(out)


def dot_values(q: int, column: Sequence[int]) -> list[int]:
    """<x, column> mod q for every x in F_q^d, d = len(column), with x in
    lexicographic order, grown one digit of x at a time.  Coordinate c of
    the codeword sum_r x_r row_r is <x, column c>, so a code's codewords
    come column by column with no table over the space."""
    if not column:
        return [0]
    values = [x * column[0] % q for x in range(q)]
    for a in column[1:]:
        steps = [x * a % q for x in range(q)]
        values = [(v + s) % q for v in values for s in steps]
    return values


def mat_vec(q: int, m: Matrix, v: Sequence[int]) -> Vector:
    return tuple(sum(map(operator.mul, row, v)) % q for row in m)


def mat_mul(q: int, a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return tuple([tuple([sum(map(operator.mul, row, col)) % q for col in cols]) for row in a])


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def rref(q: int, rows: Sequence[Sequence[int]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The RREF is the unique canonical form of the row space, so two spans are
    equal iff their RREFs are identical.
    """
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(work)):
            if work[r][col] % q != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = inv_mod(work[row][col], q)
        work[row] = [(inv * x) % q for x in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col] % q != 0:
                factor = work[r][col] % q
                work[r] = [(x - factor * y) % q for x, y in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return tuple(tuple(x % q for x in work[r]) for r in range(row)), tuple(pivots)


def rank(q: int, rows: Sequence[Sequence[int]]) -> int:
    return len(rref(q, rows)[0])


def is_invertible(q: int, m: Matrix) -> bool:
    if not m:
        return True
    return len(m) == len(m[0]) and rank(q, m) == len(m)


def mat_inv(q: int, m: Matrix) -> Matrix:
    """Inverse via Gauss-Jordan on the augmented matrix."""
    n = len(m)
    aug = [list(m[r]) + [1 if c == r else 0 for c in range(n)] for r in range(n)]
    reduced, pivots = rref(q, aug)
    if pivots != tuple(range(n)):
        raise ValidationError("matrix is not invertible")
    return tuple(tuple(row[n:]) for row in reduced)


def nullspace(q: int, rows: Sequence[Sequence[int]], ncols: int) -> Matrix:
    """Basis (RREF) of {x : rows @ x = 0} built from the free columns."""
    reduced, pivots = rref(q, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, p in enumerate(pivots):
            vec[p] = (-reduced[r][f]) % q
        basis.append(tuple(vec))
    return rref(q, basis)[0]


@lru_cache(maxsize=None)
def invertible_matrices(q: int, n: int, bound: int = 1 << 18) -> tuple[Matrix, ...]:
    """Every invertible n x n matrix over F_q, in lexicographic order of its entries.

    Each row is picked outside the span of the rows above it, so no singular
    matrix is visited; the bound still counts all q^(n^2) candidates."""
    if power_over(q, n * n, bound):
        raise BoundExceeded(f"cannot scan {q}^{n * n} matrices (bound {bound})")
    if n == 0:
        return ((),)
    vectors = list(itertools.product(range(q), repeat=n))
    out = []

    def extend(rows: tuple[Vector, ...], span: set[int]) -> None:  # span: indices of vectors
        free = [row for t, row in enumerate(vectors) if t not in span]
        if len(rows) == n - 1:
            out.extend((*rows, row) for row in free)
            return
        for row in free:
            multiples = [vec_scale(q, a, row) for a in range(1, q)]
            grown = {vec_index(q, vec_add(q, vectors[s], m)) for s in span for m in multiples}
            extend((*rows, row), span | grown)

    extend((), {0})
    return tuple(out)
