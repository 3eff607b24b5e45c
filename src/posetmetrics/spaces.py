"""Products of prime-field column blocks: vectors, weights, linear codes.

The ambient space is a product of blocks F_q^{k_i}, one block per poset
label.  Vectors are flat int tuples of length N = sum k_i; the space knows
each block's slice.  Codes are kept in reduced row echelon form, which is
the unique canonical basis, so code equality and hashing are structural.
enumerate_codes also yields the codes as their rows' lexicographic vector
indices, which the MEP scan and the MacWilliams check read directly.  These
depend only on the shape (q, N): for the last CACHED_SHAPES shapes read with
at most CODE_BOUND subspaces, the whole list is built on the first read and
kept as one tuple, with the code spans of the MEP scan beside it
(shape_tables).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from . import fields
from .errors import BoundExceeded, ValidationError, count_text, power_over, power_text
from .fields import Matrix, Vector
from .posets import Poset, Value, WeightFunction

# The most vectors a space may have where its vectors are enumerated one by
# one: code enumeration, weight partitions and the dense MEP index.
VECTOR_BOUND = 1 << 16


# The largest field size: trial division of q < 2^32 takes about 10 ms.
FIELD_BOUND = 1 << 32


class FieldSpec(Value):
    __match_args__ = ("q",)

    def __init__(self, q: int) -> None:
        object.__setattr__(self, "q", q)
        if q > FIELD_BOUND:  # before the primality test, which is O(sqrt(q))
            raise BoundExceeded(f"field size {count_text(q)} exceeds the field bound {FIELD_BOUND}")
        if not fields.is_prime(q):
            raise ValidationError(f"field size {q} is not prime")


class AlphabetSpec(Value):
    # _block_bounds maps a label to the (start, stop) of its block
    __match_args__ = ("field", "labels", "dims")

    def __init__(self, field: FieldSpec, labels: tuple[str, ...], dims: tuple[int, ...]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        if len(labels) != len(dims):
            raise ValidationError("labels and dims must align")
        if len(set(labels)) != len(labels):
            raise ValidationError("labels must be distinct")
        if any(k < 1 for k in dims):
            raise ValidationError("every block dimension must be at least 1")
        bounds, start = {}, 0
        for label, k in zip(labels, dims):
            bounds[label] = (start, start + k)
            start += k
        object.__setattr__(self, "_block_bounds", bounds)

    @classmethod
    def from_map(cls, field: FieldSpec, labels: Sequence[str], dims: Mapping[str, int]) -> "AlphabetSpec":
        if set(dims) != set(labels):
            raise ValidationError("dims domain must equal the label set")
        return cls(field, tuple(labels), tuple(int(dims[l]) for l in labels))

    @classmethod
    def uniform(cls, field: FieldSpec, labels: Sequence[str], k: int = 1) -> "AlphabetSpec":
        return cls(field, tuple(labels), tuple(k for _ in labels))

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def vector_count(self) -> int:
        """q^N; form it only after vectors_over has bounded it."""
        return self.q**self.total_dim

    def vectors_over(self, bound: int) -> bool:
        """Whether the space has more than bound vectors, without forming a
        q^N far past the bound."""
        return power_over(self.q, self.total_dim, bound)

    @property
    def vector_count_text(self) -> str:
        return power_text(self.q, self.total_dim)

    def block_range(self, label: str) -> range:
        return range(*self._block_bounds[label])

    def block(self, vec: Sequence[int], label: str) -> Vector:
        start, stop = self._block_bounds[label]
        return tuple(vec[start:stop])

    def dim_of(self, label: str) -> int:
        try:
            start, stop = self._block_bounds[label]
        except KeyError:
            raise ValidationError(f"unknown label {label!r}") from None
        return stop - start

    def support(self, vec: Sequence[int]) -> frozenset[str]:
        return frozenset(
            label for label, (start, stop) in self._block_bounds.items() if any(vec[start:stop])
        )

    def zero(self) -> Vector:
        return (0,) * self.total_dim

    def vectors(self) -> Iterator[Vector]:
        return itertools.product(range(self.q), repeat=self.total_dim)

    def check_vector(self, vec: Sequence[int]) -> Vector:
        if len(vec) != self.total_dim:
            raise ValidationError(f"vector length {len(vec)} != {self.total_dim}")
        return tuple(x % self.q for x in vec)


def vector_masks(space: AlphabetSpec, label_masks: Sequence[int]) -> list[int]:
    """One mask per vector, in lexicographic order: the OR of label_masks
    (one per label, in space order) over the vector's nonzero blocks, built
    for all vectors in one walk over the blocks' digits.  With label_masks[i]
    = 1 << i this is the vector's exact support."""
    masks = [0]
    for label_mask, k in zip(label_masks, space.dims):
        # the zero block vector adds nothing, every other one the label's mask
        digit_masks = [0] + [label_mask] * (space.q**k - 1)
        masks = [m | b for m in masks for b in digit_masks]
    return masks


def mask_classes(
    space: AlphabetSpec, poset: Poset, key: Callable[[int], object]
) -> tuple[list[int], dict[int, int]]:
    """Each vector's closure mask in lexicographic order (the OR of the down
    sets of its nonzero blocks, vector_masks), and each distinct mask's class
    id, numbered by first appearance: equal ids for equal key results, key
    run once per mask.  The ids are the weighting's class partition."""
    masks = vector_masks(space, [poset._down[poset.index(label)] for label in space.labels])
    ids: dict[object, int] = {}
    return masks, {mask: ids.setdefault(key(mask), len(ids)) for mask in dict.fromkeys(masks)}


def support_classes(space: AlphabetSpec, poset: Poset, key: Callable[[int], object]) -> list[int]:
    """One class id per vector, in lexicographic order (mask_classes)."""
    masks, class_of_mask = mask_classes(space, poset, key)
    return list(map(class_of_mask.__getitem__, masks))


# -- weights -----------------------------------------------------------------


def p_support(space: AlphabetSpec, poset: Poset, vec: Sequence[int]) -> frozenset[str]:
    """Ideal closure of the support."""
    return poset.ideal_closure(space.support(vec))


def weight(space: AlphabetSpec, poset: Poset, omega: WeightFunction, vec: Sequence[int]) -> Fraction:
    """Sum of the weights over the support's ideal closure."""
    return omega.total(p_support(space, poset, vec))


def p_weight(space: AlphabetSpec, poset: Poset, vec: Sequence[int]) -> int:
    return len(p_support(space, poset, vec))


def distance(
    space: AlphabetSpec,
    poset: Poset,
    omega: WeightFunction,
    a: Sequence[int],
    b: Sequence[int],
) -> Fraction:
    if len(a) != len(b):
        raise ValidationError("distance arguments must have equal length")
    return weight(space, poset, omega, fields.vec_sub(space.q, b, a))


# -- linear codes ------------------------------------------------------------


class LinearCode(Value):
    __match_args__ = ("space", "basis")

    def __init__(self, space: AlphabetSpec, basis: Matrix) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "basis", basis)  # RREF rows; empty tuple for the zero code

    @classmethod
    def from_rows(cls, space: AlphabetSpec, rows: Iterable[Sequence[int]]) -> "LinearCode":
        rows = [space.check_vector(r) for r in rows]
        reduced, _ = fields.rref(space.q, rows)
        return cls(space, reduced)

    @classmethod
    def zero(cls, space: AlphabetSpec) -> "LinearCode":
        return cls(space, ())

    @classmethod
    def full(cls, space: AlphabetSpec) -> "LinearCode":
        return cls(space, fields.identity_matrix(space.total_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.space.q**self.dim

    def contains(self, vec: Sequence[int]) -> bool:
        vec = self.space.check_vector(vec)
        return fields.rank(self.space.q, self.basis + (vec,)) == self.dim

    def codewords(self) -> Iterator[Vector]:
        for coeffs, vec in self.coefficient_pairs():
            yield vec

    def coefficient_pairs(self) -> Iterator[tuple[Vector, Vector]]:
        """(coefficients, codeword) pairs, coefficients in lexicographic order."""
        q = self.space.q
        n = self.space.total_dim
        for coeffs in itertools.product(range(q), repeat=self.dim):
            yield coeffs, fields.combine(q, self.basis, coeffs, n)

    def dual(self) -> "LinearCode":
        """All vectors orthogonal to this code under the coordinatewise inner product."""
        return LinearCode(
            self.space, fields.nullspace(self.space.q, self.basis, self.space.total_dim)
        )


def delta_code(space: AlphabetSpec, labels: Iterable[str]) -> LinearCode:
    """Code of all vectors supported inside the given label set."""
    positions = sorted(t for label in set(labels) for t in space.block_range(label))
    n = space.total_dim
    rows = []
    for t in positions:
        row = [0] * n
        row[t] = 1
        rows.append(tuple(row))
    return LinearCode(space, tuple(rows))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def subspace_count(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


# The most subspaces a shape (q, N) may have for its tables to be kept (F_2^7
# has 29,212, F_2^8 417,199), and the most shapes kept, here and in fourier.
CODE_BOUND = 1 << 16
CACHED_SHAPES = 4


def shape_tables(q: int, n: int) -> Optional[tuple[tuple, dict]]:
    """The kept tables of F_q^n, or None past CODE_BOUND, which keeps nothing."""
    return _shape_tables(q, n) if subspace_count(n, q) <= CODE_BOUND else None


@lru_cache(maxsize=CACHED_SHAPES)
def _shape_tables(q: int, n: int) -> tuple[tuple, dict]:
    """Per shape, made on first use: all its codes, and the code spans the
    MEP scan has read."""
    return tuple(_code_stream(q, n)), {}


def enumerate_codes(
    space: AlphabetSpec, max_dim: Optional[int] = None, indices: bool = False
) -> Iterator[LinearCode | tuple[int, ...]]:
    """Every subspace exactly once via its RREF, ordered by dimension; with
    indices, as its basis rows' lexicographic vector indices, which the
    scans read directly.  The LinearCode form is built from the same indices.

    A kept shape (shape_tables) is read from its tuple, built whole on the
    shape's first read, whatever max_dim; any other shape is enumerated
    afresh and only up to max_dim.
    """
    if space.vectors_over(VECTOR_BOUND):
        raise BoundExceeded(
            f"space holds {space.vector_count_text} vectors, over the bound {VECTOR_BOUND}"
        )
    q = space.q
    n = space.total_dim
    top = n if max_dim is None else max(0, min(max_dim, n))
    stop = sum(gaussian_binomial(n, d, q) for d in range(top + 1))  # the codes up to top
    tables = shape_tables(q, n)
    codes = itertools.islice(tables[0] if tables else _code_stream(q, n), stop)
    if not indices:
        vectors = list(space.vectors())
        codes = (LinearCode(space, tuple(map(vectors.__getitem__, basis))) for basis in codes)
    yield from codes


def _code_stream(q: int, n: int) -> Iterator[tuple[int, ...]]:
    """The bases of F_q^n's subspaces as tuples of vector indices.  Within one
    dimension the order is (pivot columns, free entries), both lexicographic,
    so the stream is deterministic.  The free entries run row by row, so each
    pivot set's bases are a product of per-row index lists."""
    yield ()
    for d in range(1, n + 1):
        for pivots in itertools.combinations(range(n), d):
            rows = []
            for p in pivots:
                row = [q ** (n - 1 - p)]
                for place in (q ** (n - 1 - c) for c in range(p + 1, n) if c not in pivots):
                    row = [t + v * place for t in row for v in range(q)]
                rows.append(row)
            yield from itertools.product(*rows)
