"""Products of prime-field column blocks: vectors, weights, linear codes.

The ambient space is a product of blocks F_q^{k_i}, one block per poset
label.  Vectors are flat int tuples of length N = sum k_i; the space knows
each block's slice.  Codes are kept in reduced row echelon form, which is
the unique canonical basis, so code equality and hashing are structural.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from . import fields
from .errors import BoundExceeded, ValidationError
from .fields import Matrix, Vector
from .posets import Poset, WeightFunction, derived

# The most vectors a space may have where its vectors are enumerated one by
# one: code enumeration, weight partitions and the dense MEP index.
VECTOR_BOUND = 1 << 16
# The most basis-image tuples linear_maps yields.
LINEAR_MAP_BOUND = 1 << 20


@dataclass(frozen=True)
class FieldSpec:
    q: int

    def __post_init__(self) -> None:
        if not fields.is_prime(self.q):
            raise ValidationError(f"field size {self.q} is not prime")


@dataclass(frozen=True)
class AlphabetSpec:
    field: FieldSpec
    labels: tuple[str, ...]
    dims: tuple[int, ...]
    # label -> (start, stop) of its block: derived, so out of eq, hash and repr
    _block_bounds: dict[str, tuple[int, int]] = derived()

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.dims):
            raise ValidationError("labels and dims must align")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("labels must be distinct")
        if any(k < 1 for k in self.dims):
            raise ValidationError("every block dimension must be at least 1")
        bounds, start = {}, 0
        for label, k in zip(self.labels, self.dims):
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
        return self.q**self.total_dim

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


def support_classes(space: AlphabetSpec, poset: Poset, key: Callable[[int], object]) -> list[int]:
    """One class id per vector, in lexicographic order.

    A vector's closure mask is the OR of the poset's down-set masks over its
    nonzero blocks, built for all vectors in one walk over the blocks' digits.
    Two vectors share an id exactly when key gives their closure masks equal
    results.  Ids are numbered by first appearance, and key runs once per
    distinct mask.
    """
    masks = [0]
    for label, k in zip(space.labels, space.dims):
        down = poset._down[poset.index(label)]
        # the zero block vector adds nothing, every other one the label's down-set
        block_masks = [0] + [down] * (space.q**k - 1)
        masks = [m | b for m in masks for b in block_masks]
    ids: dict[object, int] = {}
    class_of_mask = {mask: ids.setdefault(key(mask), len(ids)) for mask in dict.fromkeys(masks)}
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


@dataclass(frozen=True)
class LinearCode:
    space: AlphabetSpec
    basis: Matrix  # RREF rows; empty tuple for the zero code

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

    def pivots(self) -> tuple[int, ...]:
        # basis is already reduced, so pivots are the leading-one columns
        return tuple(next(t for t, x in enumerate(row) if x) for row in self.basis)

    def contains(self, vec: Sequence[int]) -> bool:
        vec = self.space.check_vector(vec)
        return fields.coefficients_in_rref(self.space.q, self.basis, self.pivots(), vec) is not None

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


def enumerate_codes(space: AlphabetSpec, max_dim: Optional[int] = None) -> Iterator[LinearCode]:
    """Every subspace exactly once via its RREF, ordered by dimension.

    Within one dimension the order is (pivot columns, free entries), both
    lexicographic, so the stream is deterministic.
    """
    if space.vector_count > VECTOR_BOUND:
        raise BoundExceeded(
            f"space holds {space.vector_count} vectors, over the bound {VECTOR_BOUND}"
        )
    q = space.q
    n = space.total_dim
    top = n if max_dim is None else min(max_dim, n)
    yield LinearCode.zero(space)
    for d in range(1, top + 1):
        for pivots in itertools.combinations(range(n), d):
            pivot_set = set(pivots)
            free_slots = [
                (r, c) for r in range(d) for c in range(pivots[r] + 1, n) if c not in pivot_set
            ]
            for values in itertools.product(range(q), repeat=len(free_slots)):
                rows = [[0] * n for _ in range(d)]
                for r, p in enumerate(pivots):
                    rows[r][p] = 1
                for (r, c), v in zip(free_slots, values):
                    rows[r][c] = v
                yield LinearCode(space, tuple(tuple(row) for row in rows))


def linear_maps(code: LinearCode, space: AlphabetSpec) -> Iterator[tuple[Vector, ...]]:
    """Every linear map from the code into the space, as basis-image tuples.

    Images align with the code's RREF basis rows; the map sends
    sum c_r basis_r to sum c_r images_r.
    """
    total = space.vector_count**code.dim
    if total > LINEAR_MAP_BOUND:
        raise BoundExceeded(f"{total} maps exceed the bound {LINEAR_MAP_BOUND}")
    all_vecs = tuple(space.vectors())
    return itertools.product(all_vecs, repeat=code.dim)
