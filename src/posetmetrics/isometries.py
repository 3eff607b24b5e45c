"""Weight isometries in structured form: a poset automorphism plus block maps.

Every weight isometry of the ambient space factors as a label permutation
(constrained to preserve weights and block dimensions), one invertible
square block per label, and arbitrary "strict" blocks feeding a label from
labels strictly above its image.  The structured form is stored; the full
N x N matrix is built on first use and kept on the isometry.  The MEP layer
builds the group's permutations of the indexed vectors from its semidirect
factors without any matrix (`mep._indexed_group`); criterion 4 turns
matrices into permutations with `mep.SpaceIndex.perm_of_matrix`, and
matrices serve reports and the oracles.

The same machinery runs for any support functional: a function on label
subsets that only sees the ideal closure, is monotone on ideals, and pins
ideals that share a value with one of their points.  The exact-rational
weight sum and the ideal-closure map itself are the two shipped instances.
Each also has an integer key on ideal masks, which the scans compare.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import fields
from .errors import BoundExceeded, PropertyViolation, ValidationError
from .fields import Matrix, Vector
from .posets import SCAN_BOUND, Perm, Poset, WeightFunction, derived, set_bits, weight_preserving_automorphisms
from .spaces import AlphabetSpec, support_classes


@dataclass(frozen=True)
class SupportFunctional:
    """A closure-respecting functional on label subsets with a comparison.

    key gives an int for each ideal mask of the poset (bit t for
    poset.elements[t]); two ideals have equal keys exactly when evaluate gives
    them equal values.  The scans compare keys; evaluate and leq serve the
    condition check, preserves and reports.
    """

    name: str
    evaluate: Callable[[frozenset[str]], object]
    leq: Callable[[object, object], bool]
    key: Callable[[int], int]


def weight_sum_functional(poset: Poset, omega: WeightFunction) -> SupportFunctional:
    """Exact rational weight of the ideal closure, compared by <=.  Its key is
    the weight sum scaled by the LCM of the denominators, so keys and values
    are equal together."""
    weights = omega.scaled(poset.elements)

    def evaluate(subset: frozenset[str]):
        return omega.total(poset.ideal_closure(subset))

    def key(mask: int) -> int:
        return sum(map(weights.__getitem__, set_bits(mask)))

    return SupportFunctional("weight-sum", evaluate, lambda a, b: a <= b, key)


def p_support_functional(poset: Poset) -> SupportFunctional:
    """The ideal closure itself, compared by inclusion; its key is the mask."""

    def evaluate(subset: frozenset[str]):
        return poset.ideal_closure(subset)

    return SupportFunctional("support-closure", evaluate, lambda a, b: a <= b, lambda mask: mask)


# check_support_functional walks all 2^n label subsets, so n is capped.
FUNCTIONAL_CHECK_BOUND = 12


def check_support_functional(
    sf: SupportFunctional, poset: Poset
) -> tuple[bool, dict[str, Optional[tuple]]]:
    """Exhaustively check the three defining conditions over all subsets.

    Returns (ok, violations) where violations maps each condition name to a
    witness tuple or None:
      closure_invariant:     value must not change under ideal closure;
      monotone:              nested ideals must have comparable values;
      singleton_determined:  an ideal sharing its value with a member point
                             must be that point's principal ideal.
    """
    n = len(poset.elements)
    if n > FUNCTIONAL_CHECK_BOUND:
        raise BoundExceeded(
            f"support functional check capped at {FUNCTIONAL_CHECK_BOUND} elements"
        )
    violations: dict[str, Optional[tuple]] = {
        "closure_invariant": None,
        "monotone": None,
        "singleton_determined": None,
    }
    subsets = [
        frozenset(poset.elements[i] for i in range(n) if mask >> i & 1)
        for mask in range(1 << n)
    ]
    for subset in subsets:
        closed = poset.ideal_closure(subset)
        if sf.evaluate(subset) != sf.evaluate(closed):
            violations["closure_invariant"] = (subset, closed)
            break
    ideals = poset.all_ideals()
    for small in ideals:
        for large in ideals:
            if small <= large and not sf.leq(sf.evaluate(small), sf.evaluate(large)):
                violations["monotone"] = (small, large)
                break
        if violations["monotone"]:
            break
    for ideal in ideals:
        for u in ideal:
            if sf.evaluate(ideal) == sf.evaluate(frozenset({u})):
                if ideal != poset.ideal_closure({u}):
                    violations["singleton_determined"] = (ideal, u)
                    break
        if violations["singleton_determined"]:
            break
    return all(v is None for v in violations.values()), violations


# -- admissible label permutations --------------------------------------------


def admissible_automorphisms(
    poset: Poset, space: AlphabetSpec, sf: SupportFunctional
) -> tuple[Perm, ...]:
    """Poset automorphisms preserving the functional on every ideal and all
    block dimensions (block isomorphism over a field is dimension equality)."""
    masks, autos = poset._ideal_masks, tuple(_keeping_dims(space, poset.automorphisms()))
    if len(autos) * len(masks) > SCAN_BOUND:  # before any key is computed
        scan = f"functional filter of {len(autos)} automorphisms over {len(masks)} ideals"
        raise BoundExceeded(f"{scan} exceeds the bound {SCAN_BOUND}")
    keys = list(map(sf.key, masks))

    def preserved(perm: Perm) -> bool:
        bits = [1 << t for t in perm]
        images = (sum(map(bits.__getitem__, set_bits(mask))) for mask in masks)
        return all(map(operator.eq, map(sf.key, images), keys))

    return tuple(filter(preserved, autos))


def weight_automorphisms(
    poset: Poset, space: AlphabetSpec, omega: WeightFunction
) -> tuple[Perm, ...]:
    """Pointwise filter: automorphisms fixing the weight of every label and
    every block dimension.  Agrees with the weight-sum functional filter."""
    return tuple(_keeping_dims(space, weight_preserving_automorphisms(poset, omega)))


def _keeping_dims(space: AlphabetSpec, perms: Iterable[Perm]) -> Iterator[Perm]:
    """The label permutations that send every block to one of its dimension."""
    dims = space.dims
    return (perm for perm in perms if all(dims[perm[i]] == dims[i] for i in range(len(dims))))


# -- structured isometries -----------------------------------------------------


@dataclass(frozen=True)
class Isometry:
    """lam plus block maps; block (i -> j) may be nonzero only for j below lam(i)."""

    space: AlphabetSpec
    poset: Poset
    lam: Perm
    diag: tuple[Matrix, ...]  # diag[i] : block i -> block lam(i), invertible
    strict: tuple[tuple[int, int, Matrix], ...]  # (i, j, M) with j strictly below lam(i)
    # the full matrix, built on first use: derived, so out of eq, hash and repr
    _matrix: Optional[Matrix] = derived(default=None)

    @classmethod
    def identity(cls, space: AlphabetSpec, poset: Poset) -> "Isometry":
        n = len(poset.elements)
        return cls(
            space,
            poset,
            tuple(range(n)),
            tuple(fields.identity_matrix(space.dims[i]) for i in range(n)),
            (),
        )

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            bounds = self.space._block_bounds
            starts = [bounds[label][0] for label in self.poset.elements]
            rows = [[0] * self.space.total_dim for _ in range(self.space.total_dim)]
            for i, block in enumerate(self.diag):
                c0 = starts[i]
                for r, row in enumerate(block, starts[self.lam[i]]):
                    rows[r][c0 : c0 + len(row)] = row
            for i, j, block in self.strict:
                c0 = starts[i]
                for r, row in enumerate(block, starts[j]):
                    rows[r][c0 : c0 + len(row)] = row
            object.__setattr__(self, "_matrix", tuple(map(tuple, rows)))
        return self._matrix

    def apply(self, vec: Sequence[int]) -> Vector:
        return fields.mat_vec(self.space.q, self.matrix, vec)

    def serialize(self) -> dict:
        labels = self.poset.elements
        blocks = [
            [labels[i], labels[self.lam[i]], [list(row) for row in self.diag[i]]]
            for i in range(len(labels))
        ]
        blocks += [
            [labels[i], labels[j], [list(row) for row in m]] for i, j, m in self.strict
        ]
        return {"lambda": list(self.lam), "blocks": blocks}


def build_isometry(
    space: AlphabetSpec,
    poset: Poset,
    lam: Perm,
    diag: Sequence[Matrix],
    strict: Sequence[tuple[int, int, Matrix]] = (),
) -> Isometry:
    """Validate shapes, invertibility, and the zero-block constraint."""
    q = space.q
    n = len(poset.elements)
    if sorted(lam) != list(range(n)):
        raise ValidationError("lam is not a permutation")
    for i in range(n):
        if space.dims[lam[i]] != space.dims[i]:
            raise ValidationError("lam must preserve block dimensions")
        m = diag[i]
        if len(m) != space.dims[lam[i]] or any(len(row) != space.dims[i] for row in m):
            raise ValidationError(f"diagonal block {i} has the wrong shape")
        if not fields.is_invertible(q, m):
            raise ValidationError(f"diagonal block {i} is not invertible")
    seen = set()
    for i, j, m in strict:
        if not poset.strictly_below(lam[i]) >> j & 1:
            raise ValidationError(f"strict block ({i}->{j}) is not below lam({i})")
        if (i, j) in seen:
            raise ValidationError(f"duplicate strict block ({i}->{j})")
        seen.add((i, j))
        if len(m) != space.dims[j] or any(len(row) != space.dims[i] for row in m):
            raise ValidationError(f"strict block ({i}->{j}) has the wrong shape")
    ordered = tuple(sorted(((i, j, m) for i, j, m in strict), key=lambda t: (t[0], t[1])))
    return Isometry(space, poset, tuple(lam), tuple(diag), ordered)


def _strict_pairs(poset: Poset, lam: Perm) -> list[tuple[int, int]]:
    return [(i, j) for i, image in enumerate(lam) for j in set_bits(poset.strictly_below(image))]


# The largest isometry group that is enumerated (the --bound default of `isometries`).
GROUP_BOUND = 1 << 20


def gl_order(q: int, k: int) -> int:
    """|GL_k(F_q)|: the product of q^k - q^i over i < k."""
    order = 1
    for i in range(k):
        order *= q**k - q**i
    return order


def _order_factors(space: AlphabetSpec, poset: Poset, lam_count: int) -> Iterator[int]:
    """Factors of the closed-form order, each at least 1: the lam choices,
    q^k - q^i (i < k) per diagonal block, q^(k k') per strict block."""
    q, dims, identity = space.q, space.dims, tuple(range(len(poset.elements)))
    yield lam_count
    yield from (q**k - q**i for k in dims for i in range(k))
    yield from (q ** (dims[i] * dims[j]) for i, j in _strict_pairs(poset, identity))


def group_order(space: AlphabetSpec, poset: Poset, lam_count: int) -> int:
    """Closed-form order: lam choices x invertible diagonals x strict entries."""
    return math.prod(_order_factors(space, poset, lam_count))


def _check_order(space: AlphabetSpec, poset: Poset, lam_count: int, bound: int) -> None:
    partial_orders = itertools.accumulate(_order_factors(space, poset, lam_count), operator.mul)
    order = next((order for order in partial_orders if order > bound), None)  # the first one over
    if order is not None:
        # a str of over 4300 digits raises, so a huge order is named by its bit length
        reached = order if order < 1 << 64 else f"at least 2^{order.bit_length() - 1}"
        raise BoundExceeded(
            f"isometry group order reaches {reached}, over the bound {bound}; raise it with --bound"
        )


def admissible_lams(
    space: AlphabetSpec, poset: Poset, sf: SupportFunctional, bound: int
) -> tuple[Perm, ...]:
    """The group's label maps, with its order checked against the bound
    before the functional filter and again after it."""
    if space.labels != poset.elements:  # blocks and dims are indexed by poset position
        raise ValidationError("the space's labels must be the poset's elements, in its order")
    _check_order(space, poset, 1, bound)  # the identity is admissible: refuse before the filter
    lams = admissible_automorphisms(poset, space, sf)
    _check_order(space, poset, len(lams), bound)
    return lams


def enumerate_group(
    space: AlphabetSpec,
    poset: Poset,
    sf: SupportFunctional,
    bound: int = GROUP_BOUND,
) -> Iterator[Isometry]:
    """All isometries for the functional, in (lam, diag, strict) lexicographic order."""
    lams = admissible_lams(space, poset, sf, bound)
    q = space.q
    invertibles = [fields.invertible_matrices(q, k) for k in space.dims]
    for lam in lams:
        pairs = _strict_pairs(poset, lam)
        block_shapes = [(space.dims[j], space.dims[i]) for i, j in pairs]
        for diag in itertools.product(*invertibles):
            for strict_choice in itertools.product(
                *(_all_blocks(q, shape) for shape in block_shapes)
            ):
                strict = tuple(
                    (i, j, m) for (i, j), m in zip(pairs, strict_choice)
                )
                yield Isometry(space, poset, lam, diag, strict)


@lru_cache(maxsize=None)
def _all_blocks(q: int, shape: tuple[int, int]) -> tuple[Matrix, ...]:
    rows, cols = shape
    return tuple(
        tuple(entries[r * cols : (r + 1) * cols] for r in range(rows))
        for entries in itertools.product(range(q), repeat=rows * cols)
    )


def weight_isometry_group(
    space: AlphabetSpec, poset: Poset, omega: WeightFunction, bound: int = GROUP_BOUND
) -> list[Isometry]:
    return list(enumerate_group(space, poset, weight_sum_functional(poset, omega), bound))


def support_isometry_group(
    space: AlphabetSpec, poset: Poset, bound: int = GROUP_BOUND
) -> list[Isometry]:
    return list(enumerate_group(space, poset, p_support_functional(poset), bound))


# -- brute force & decomposition ------------------------------------------------


# The brute-force oracle refuses an action table of more entries than this.
ACTION_TABLE_BOUND = 1 << 22


@lru_cache(maxsize=8)
def _invertible_index_perms(q: int, n: int) -> tuple[tuple[Matrix, ...], tuple[tuple[int, ...], ...]]:
    """Invertible matrices with their action on lexicographically indexed vectors.

    The image of v has index sum_r q^(n-1-r) (row_r . v mod q), summed row by
    row from one dot table per row; matrices sharing leading rows share those sums."""
    matrices = fields.invertible_matrices(q, n)
    if n == 0:
        return matrices, ((0,),)
    vectors = list(itertools.product(range(q), repeat=n))
    dots = {w: [sum(map(operator.mul, w, v)) % q for v in vectors] for w in vectors}
    perms: list[tuple[int, ...]] = []

    def walk(group: Iterable[Matrix], r: int, scaled: list[int]) -> None:
        # group: consecutive matrices sharing rows 0..r-1; scaled: q times their sums
        if r == n - 1:
            perms.extend(tuple(map(operator.add, scaled, dots[m[r]])) for m in group)
            return
        for row, sub in itertools.groupby(group, key=operator.itemgetter(r)):
            walk(sub, r + 1, [(s + d) * q for s, d in zip(scaled, dots[row])])

    walk(matrices, 0, [0] * len(vectors))
    return matrices, tuple(perms)


def brute_force_isometries(
    space: AlphabetSpec, poset: Poset, sf: SupportFunctional
) -> list[Matrix]:
    """All invertible N x N matrices preserving the functional of the support.

    An oracle for small spaces only.  The |GL_N(F_q)| * q^N entries of the
    action table are checked against ACTION_TABLE_BOUND before any matrix is
    built.  The matrix actions on indexed vectors are cached.
    """
    q = space.q
    n = space.total_dim
    table = f"the action table of GL_{n}(F_{q}) on F_{q}^{n}"
    if n >= ACTION_TABLE_BOUND.bit_length():  # q^N alone is over the bound
        raise BoundExceeded(f"{table} has over 2^{n} entries, over the bound {ACTION_TABLE_BOUND}")
    entries = gl_order(q, n) * q**n
    if entries > ACTION_TABLE_BOUND:
        raise BoundExceeded(f"{table} has {entries} entries, over the bound {ACTION_TABLE_BOUND}")
    matrices, perms = _invertible_index_perms(q, n)
    values = support_classes(space, poset, sf.key)
    # perm[t] is the index of the image of vector t
    return [m for m, perm in zip(matrices, perms) if [values[p] for p in perm] == values]


def decompose(
    space: AlphabetSpec, poset: Poset, matrix: Matrix, sf: SupportFunctional
) -> Isometry:
    """Recover (lam, blocks) from a matrix that should preserve the functional.

    Raises PropertyViolation with the first witness vector (in index order) if
    the matrix is not an isometry for the functional.  The structure is then
    read off the block pattern: lam(i) is the one label whose block in block
    column i is invertible and lies above every other nonzero block of that
    column, and those other blocks are the strict ones.
    """
    q = space.q
    n = space.total_dim
    if len(matrix) != n or not fields.is_invertible(q, matrix):
        raise PropertyViolation("matrix is not an automorphism of the space")
    values = support_classes(space, poset, sf.key)
    for vec, value in zip(space.vectors(), values):
        if values[fields.vec_index(q, fields.mat_vec(q, matrix, vec))] != value:
            raise PropertyViolation(f"functional not preserved at {vec}")
    labels = poset.elements
    lam, diag, strict = [], [], []
    for i, label in enumerate(labels):
        column = [_extract_block(space, matrix, out, label) for out in labels]
        nonzero = {j for j, block in enumerate(column) if any(map(any, block))}
        heads = [
            j
            for j in nonzero
            if all(poset.strictly_below(j) >> k & 1 for k in nonzero - {j})
            and fields.is_invertible(q, column[j])
        ]
        if not heads:
            raise PropertyViolation(
                f"block column {label!r} has no invertible block above its other nonzero blocks"
            )
        lam.append(heads[0])
        diag.append(column[heads[0]])
        strict += [(i, j, column[j]) for j in nonzero - {heads[0]}]
    if sorted(lam) != list(range(len(labels))):
        raise PropertyViolation("recovered label map is not a permutation")
    return build_isometry(space, poset, tuple(lam), tuple(diag), tuple(strict))


def _extract_block(space: AlphabetSpec, matrix: Matrix, out_label: str, in_label: str) -> Matrix:
    rows = space.block_range(out_label)
    cols = space.block_range(in_label)
    return tuple(tuple(matrix[r][c] for c in cols) for r in rows)
