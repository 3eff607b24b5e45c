"""Weight isometries in structured form: a poset automorphism plus block maps.

Every weight isometry of the ambient space factors as a label permutation
(constrained to preserve weights and block dimensions), one invertible
square block per label, and arbitrary "strict" blocks feeding a label from
labels strictly above its image.  The label permutations come from one
automorphism search coloured by block dimension and principal-ideal key.  An
isometry is built whole: its constructor checks the label order and takes
its N x N matrix from the label map's one block-row builder (`_row_builder`),
which joins each row's entries left and right of its diagonal piece once per
choice of strict blocks, so a listed element costs only concatenations.  The
elements with a given label map depend on the space, the poset and the map
alone, so `enumerate_group` keeps each map's completed slice on the poset,
keyed by the space and the map, as immutable (diag, strict, matrix) tuples,
and replays it on the next listing for any key.  The MEP scan's lines and
the orbit check are decided on closure masks, under the label maps alone;
for wider codes the scan builds the permutations of the indexed vectors for
the group's nontrivial factors without any matrix and joins them into a
table of packed 16-bit image columns with no element built on its own
(`mep._scan_group`).  The diagonal and strict blocks make the kernel K(P),
the same for every weight, and the label maps act on it (the semidirect
splitting), so the scan keeps the kernel's table per order and block dims
and joins only the label maps over it for a new weight.  The brute-force
oracle keeps one packed action table per (q, N) (`_action_table`) and
filters GL_N(F_q) one vector at a time; criterion 4 reads the permutations
of matrices off that table, and matrices serve reports and the oracles.

The same machinery runs for any integer key on ideal masks (bit t for
poset.elements[t]).  `weight_sum_functional` gives the (P, omega)-weight of
an ideal as an int, scaled by the LCM of the denominators, so two ideals
share a key exactly when they share a weight.  Support closure is the case
omega(t) = 2^t (`posets.powers_of_two_weight`): its key is the mask itself,
so two ideals share it only when they are equal.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import fields
from .errors import (
    BoundExceeded, GroupBoundExceeded, PropertyViolation, ValidationError, count_text,
)
from .fields import Matrix, Vector
from .posets import Perm, Poset, Value, WeightFunction, powers_of_two_weight, set_bits
from .spaces import CACHED_SHAPES, VECTOR_BOUND, AlphabetSpec, support_classes

# An int per ideal mask; the scans compare vectors by the keys of their closures.
# Every key is an additive weight sum over the mask's labels (the closure key
# is the sum of 2^t), so the keys of the principal ideals fix the weight of
# every label, and they alone decide which label maps keep the key.
Key = Callable[[int], int]


def weight_sum_functional(poset: Poset, omega: WeightFunction) -> Key:
    """The weight key: the weight sum over an ideal mask, scaled by the LCM
    of the denominators, so keys are equal exactly when weights are."""
    weights = omega.scaled(poset.elements)

    def key(mask: int) -> int:
        return sum(map(weights.__getitem__, set_bits(mask)))

    return key


# -- admissible label permutations --------------------------------------------


def admissible_automorphisms(poset: Poset, space: AlphabetSpec, key: Key) -> tuple[Perm, ...]:
    """Poset automorphisms preserving the key of every ideal and all
    block dimensions (block isomorphism over a field is dimension equality):
    the search coloured by each label's block dim and principal-ideal key.

    The key is additive, so the principal ideals decide it: an automorphism
    sends the down-set of i onto that of perm[i], and keeping the key of
    every principal ideal keeps omega at every label (by induction along a
    linear extension), hence the key of every ideal.  No ideal is enumerated."""
    return poset.automorphisms(tuple(zip(space.dims, map(key, poset._down))))


def weight_automorphisms(
    poset: Poset, space: AlphabetSpec, omega: WeightFunction
) -> tuple[Perm, ...]:
    """Automorphisms fixing the weight of every label and every block
    dimension, coloured pointwise.  Agrees with the colouring by weight keys."""
    return poset.automorphisms(tuple(zip(space.dims, omega.scaled(poset.elements))))


# -- structured isometries -----------------------------------------------------


class Isometry(Value):
    """lam plus block maps; block (i -> j) may be nonzero only for j below lam(i)."""

    __match_args__ = ("space", "poset", "lam", "diag", "strict")

    def __init__(
        self,
        space: AlphabetSpec,
        poset: Poset,
        lam: Perm,
        diag: tuple[Matrix, ...],  # diag[i] : block i -> block lam(i), invertible
        strict: tuple[tuple[int, int, Matrix], ...],  # (i, j, M) with j strictly below lam(i)
    ) -> None:
        _check_label_order(space, poset)
        pieces, matrix = _row_builder(space, lam)
        vars(self).update(space=space, poset=poset, lam=lam, diag=diag, strict=strict,
                          _matrix=matrix(diag, pieces(strict)))

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


def _check_label_order(space: AlphabetSpec, poset: Poset) -> None:
    """Blocks and dims are indexed by poset position, so the labels must agree."""
    if space.labels != poset.elements:
        raise ValidationError("the space's labels must be the poset's elements, in its order")


def _row_builder(space: AlphabetSpec, lam: Perm) -> tuple[Callable, Callable]:
    """The one matrix builder, made once per label map.  Block row lam(i)
    holds diag[i] in block column i, block row j holds each strict (i, j, M)
    in block column i, and every other block is zero.  `pieces(strict)`
    gives each output row's entries left and right of its diagonal piece,
    once per choice of strict blocks; `matrix(diag, pieces)` then only
    concatenates.  A one-block space has no other piece: its matrices are
    its diagonal blocks themselves."""
    dims, n = space.dims, len(lam)
    starts = [0, *itertools.accumulate(dims)]
    inverse = sorted(range(n), key=lam.__getitem__)  # the diagonal's block column per block row
    lows, highs = [], []  # per output row, the columns its diagonal piece spans
    for j, i in enumerate(inverse):
        lows += [starts[i]] * dims[j]
        highs += [starts[i + 1]] * dims[j]

    def pieces(strict: Iterable[tuple[int, int, Matrix]]) -> tuple[list[Vector], list[Vector]]:
        rows = [[0] * starts[n] for _ in lows]
        for i, j, m in strict:
            for row, piece in zip(rows[starts[j] :], m):
                row[starts[i] : starts[i + 1]] = piece
        return ([tuple(row[:a]) for row, a in zip(rows, lows)],
                [tuple(row[b:]) for row, b in zip(rows, highs)])

    def matrix(diag: Sequence[Matrix], pieces: tuple[list[Vector], list[Vector]]) -> Matrix:
        if n == 1:
            return diag[0]
        rows = itertools.chain.from_iterable(map(diag.__getitem__, inverse))
        return tuple(map(operator.add, map(operator.add, pieces[0], rows), pieces[1]))

    return pieces, matrix


def build_isometry(
    space: AlphabetSpec,
    poset: Poset,
    lam: Perm,
    diag: Sequence[Matrix],
    strict: Sequence[tuple[int, int, Matrix]] = (),
) -> Isometry:
    """Validate the label order, shapes, invertibility (an identity block is
    invertible with no rank), and the zero-block constraint."""
    _check_label_order(space, poset)
    q = space.q
    n = len(poset.elements)
    if sorted(lam) != list(range(n)):
        raise ValidationError("lam is not a permutation")
    diag = [tuple(map(tuple, m)) for m in diag]  # the matrix rows are joined from block rows
    for i in range(n):
        if space.dims[lam[i]] != space.dims[i]:
            raise ValidationError("lam must preserve block dimensions")
        m = diag[i]
        if len(m) != space.dims[lam[i]] or any(len(row) != space.dims[i] for row in m):
            raise ValidationError(f"diagonal block {i} has the wrong shape")
        if m != fields.identity_matrix(len(m)) and not fields.is_invertible(q, m):
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
    ordered = tuple(sorted((i, j, tuple(map(tuple, m))) for i, j, m in strict))
    return Isometry(space, poset, tuple(lam), tuple(diag), ordered)


def _strict_pairs(poset: Poset, lam: Perm) -> list[tuple[int, int]]:
    return [(i, j) for i, image in enumerate(lam) for j in set_bits(poset.strictly_below(image))]


# The largest isometry group that is enumerated: the --bound default of the
# `isometries` command, and the fixed bound of the MEP scan and orbit check.
GROUP_BOUND = 1 << 20


def gl_order(q: int, k: int) -> int:
    """|GL_k(F_q)|: the product of q^k - q^i over i < k."""
    order = 1
    for i in range(k):
        order *= q**k - q**i
    return order


def group_order(
    space: AlphabetSpec, poset: Poset, lam_count: int, bound: Optional[int] = None
) -> int:
    """Closed-form order, walked as prefix products of its factors: the lam
    choices, q^k - q^i (i < k) per diagonal block, q^(k k') per strict block.
    With a bound, the first prefix product over it raises GroupBoundExceeded,
    as does a power q^e whose lower bound 2^(low e) (q^k - q^i >= q^(k-1))
    is past the bound and 2^64: it is named "at least 2^(low e)", unformed.
    The walk reads q, the dims and the down-set masks alone and is kept
    (CACHED_SHAPES), so an order's kernel order (lam_count 1) is walked once."""
    return _group_order(space.q, space.dims, poset._down, lam_count, bound)


@lru_cache(maxsize=CACHED_SHAPES)
def _group_order(q: int, dims: tuple, down: tuple, lam_count: int, bound: Optional[int]) -> int:
    low = q.bit_length() - 1  # q^e >= 2^(low e)

    def refuse(reached: str) -> None:
        raise GroupBoundExceeded(f"isometry group order reaches {reached}, over the bound {bound}")

    def checked(order: int) -> int:
        if bound is not None and order > bound:
            refuse(count_text(order))
        return order

    def power(e: int) -> int:
        if bound is not None and low * e >= max(64, bound.bit_length()):
            refuse(f"at least 2^{low * e}")
        return q**e

    order = checked(lam_count)
    for k in dims:
        top = power(k - 1) * q
        for i in range(k):
            order = checked(order * (top - q**i))
    for i, k in enumerate(dims):  # the strict blocks (i, j), j strictly below i
        for j in set_bits(down[i] ^ 1 << i):
            order = checked(order * power(k * dims[j]))
    return order


def admissible_lams(space: AlphabetSpec, poset: Poset, key: Key, bound: int) -> tuple[Perm, ...]:
    """The group's label maps, with its order checked against the bound
    before the coloured search, as the kept kernel order, and after it, as
    that times the label maps (walked again only to word a refusal).  A
    repeat call finds its search kept on the poset (`Poset.automorphisms`)."""
    _check_label_order(space, poset)
    order = group_order(space, poset, 1, bound)  # the identity is admissible: refuse first
    lams = admissible_automorphisms(poset, space, key)
    if order * len(lams) > bound:
        group_order(space, poset, len(lams), bound)
    return lams


def enumerate_group(
    space: AlphabetSpec, poset: Poset, key: Key, bound: int = GROUP_BOUND
) -> Iterator[Isometry]:
    """All isometries for the key, in (lam, diag, strict) lexicographic order.

    The elements with a given lam depend on the space, the poset and lam
    alone, never on the key.  Each element is built whole, its matrix from
    the lam's row builder, with the strict choices (varying fastest) and
    their row pieces made in the first diag's pass and reused by the rest.
    A lam's slice listed to its end is kept on the poset
    (`Poset._group_slices`, keyed by the space and lam) as a tuple of
    immutable (diag, strict, matrix) tuples, and a later listing replays it
    as fresh isometries sharing those values.  A slice cut short is not kept."""
    lams = admissible_lams(space, poset, key, bound)
    q, slices = space.q, poset._group_slices
    invertibles = [fields.invertible_matrices(q, k) for k in space.dims]
    new = object.__new__

    def fresh(lam: Perm) -> Iterator[tuple]:
        kept, made = [], []  # made: each strict choice with its row pieces, in the first pass
        pieces, matrix = _row_builder(space, lam)
        pairs = _strict_pairs(poset, lam)
        blocks = [_all_blocks(q, (space.dims[j], space.dims[i])) for i, j in pairs]

        def strict_choices() -> Iterator[tuple]:
            for choice in itertools.product(*blocks):
                strict = tuple((i, j, m) for (i, j), m in zip(pairs, choice))
                made.append((strict, pieces(strict)))
                yield made[-1]

        choices = strict_choices()
        for diag in itertools.product(*invertibles):
            for strict, row_pieces in choices:
                kept.append((diag, strict, matrix(diag, row_pieces)))
                yield kept[-1]
            choices = made
        slices[space, lam] = tuple(kept)

    for lam in lams:
        for diag, strict, matrix in slices.get((space, lam)) or fresh(lam):
            iso = new(Isometry)  # not the constructor, which would build the matrix again
            vars(iso).update(space=space, poset=poset, lam=lam, diag=diag, strict=strict,
                             _matrix=matrix)
            yield iso


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
    """The support-closure isometries: the weight group of the doubling weights."""
    return weight_isometry_group(space, poset, powers_of_two_weight(poset), bound)


# -- brute force & decomposition ------------------------------------------------


# The oracle's action-table bound; under it q^N <= 2048, so indices fit in 16 bits.
ACTION_TABLE_BOUND = 1 << 22


@lru_cache(maxsize=8)
def _action_table(q: int, n: int) -> tuple[tuple[Matrix, ...], list[array]]:
    """The invertible matrices, in `fields` order, and per vector t a packed
    column: columns[t][g] indexes matrices[g] times t.  The index of M v sums
    q^(n-1-r) (row_r . v mod q) from the rows' dot tables, shared by matrices
    sharing leading rows, into one flat array; column t is flat[t::q^n]."""
    matrices = fields.invertible_matrices(q, n)
    size, order = q**n, sys.byteorder
    flat = array("H", [0] * (n == 0))  # the empty matrix fixes the one vector
    # a dot table is one int of 16-bit lanes, lane t = <row, t>: every lane stays
    # under q^n <= 2048, so tables add and scale by q lane by lane, with no carry
    dots = {w: int.from_bytes(array("H", fields.dot_values(q, w)).tobytes(), order)
            for w in itertools.product(range(q), repeat=n)}

    def walk(group: Iterable[Matrix], r: int, scaled: int) -> None:
        # group: consecutive matrices sharing rows 0..r-1; scaled: q times their sums
        if r == n - 1:
            for m in group:
                flat.frombytes((scaled + dots[m[r]]).to_bytes(2 * size, order))
            return
        for row, sub in itertools.groupby(group, key=operator.itemgetter(r)):
            walk(sub, r + 1, (scaled + dots[row]) * q)

    if n:
        walk(matrices, 0, 0)
    return matrices, [flat[t::size] for t in range(size)]


def check_action_table(space: AlphabetSpec) -> None:
    """Refuse an oracle action table of over ACTION_TABLE_BOUND entries."""
    q, n = space.q, space.total_dim
    table = f"the action table of GL_{n}(F_{q}) on F_{q}^{n}"
    if n >= ACTION_TABLE_BOUND.bit_length():  # q^N alone is over the bound
        raise BoundExceeded(f"{table} has over 2^{n} entries, over the bound {ACTION_TABLE_BOUND}")
    entries = gl_order(q, n) * q**n
    if entries > ACTION_TABLE_BOUND:
        raise BoundExceeded(
            f"{table} has {count_text(entries)} entries, over the bound {ACTION_TABLE_BOUND}"
        )


def brute_force_isometries(space: AlphabetSpec, poset: Poset, key: Key,
                           trace: Optional[dict] = None) -> list[Matrix]:
    """All invertible N x N matrices preserving the key of the support closure.

    An oracle for small spaces only: `check_action_table` runs first.  Each
    nonzero vector, the unit vectors first, keeps the matrices that send it
    into its own class, read off its column of the kept `_action_table`."""
    check_action_table(space)
    q, n, misses = space.q, space.total_dim, _action_table.cache_info().misses
    matrices, columns = _action_table(q, n)
    values = support_classes(space, poset, key)
    units = [q**r for r in reversed(range(n))]  # e_r has index q^(n-1-r)
    survivors = range(len(matrices))
    for t in units + [t for t in range(1, q**n) if t not in units]:
        column, value = columns[t], values[t]
        survivors = [g for g in survivors if values[column[g]] == value]
    if trace is not None:
        trace.update(matrices=len(matrices), vectors_checked=q**n - 1, survivors=len(survivors),
                     action_table="built" if _action_table.cache_info().misses > misses else "kept")
    return [matrices[g] for g in survivors]


def decompose(space: AlphabetSpec, poset: Poset, matrix: Matrix, key: Key) -> Isometry:
    """Recover (lam, blocks) from a matrix that should preserve the key.

    Raises PropertyViolation with the first witness vector (in index order) if
    the matrix is not an isometry for the key.  The structure is then
    read off the block pattern: lam(i) is the one label whose block in block
    column i is invertible and lies above every other nonzero block of that
    column, and those other blocks are the strict ones.
    """
    q = space.q
    n = space.total_dim
    if len(matrix) != n or not fields.is_invertible(q, matrix):
        raise PropertyViolation("matrix is not an automorphism of the space")
    if space.vectors_over(VECTOR_BOUND):  # the replay below visits every vector
        raise BoundExceeded(f"space of {space.vector_count_text} vectors exceeds {VECTOR_BOUND}")
    values = support_classes(space, poset, key)
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
