"""Intersection-closed set families, their Moebius functions, and solutions
to the indicator-sum (isometry) equation.

A lattice here is a finite family of subsets of a ground set, containing the
ground set and closed under pairwise intersection.  Members are frozensets
at the interface.  Inside, bit t of an int mask stands for the t-th ground
point, and bit i of a member bitset for the i-th member, so validation,
closures and the Moebius down-sets are operations on ints (bitset
techniques as in Knuth, TAOCP 4A, 7.1.3).  Validation intersects every
member with the meet-irreducible members only, which generate every member
by intersection (Ganter & Wille, *Formal Concept Analysis*, 1999, ch. 1).
The Moebius down-sets come from each member's up-set, the bitset of the
members containing it, computed once.  The member index, the point
closures, the generator table (the points whose closure is each member)
and the Moebius table are built at most once per lattice and kept on it, so
they are freed with it.  Subspace lattices get their members from codeword
indices, one column of each RREF basis at a time (fields.dot_values), with
no code object and no vector arithmetic.  They and the pointed boolean
lattices are intersection-closed by construction, so they hand their point
positions to a trusted entry that builds the same tables with no
validation; families given by users are validated.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    AllSolutionsTrivial,
    BoundExceeded,
    PropertyViolation,
    ValidationError,
    count_text,
    power_over,
)
from .fields import Vector, combine, dot_values
from .posets import Value, set_bits
from .spaces import AlphabetSpec, FieldSpec, LinearCode, enumerate_codes, subspace_count


class FiniteLattice(Value):
    # Point t is ground[t], and _pos maps ground[t] to t.  Member i holds the
    # points _points[i], as a tuple and as the mask _masks[i] with bit t set
    # for each; _holders[t] is the bitset of the members holding point t, and
    # _ups[i] that of the members containing member i (itself included),
    # indexed by _up_index.  _member_index maps each member to its index.
    # The constructor validates the family and _from_points trusts it; both
    # set these tables by _build.
    __match_args__ = ("ground", "members")

    def __init__(self, ground: tuple, members: tuple[frozenset, ...]) -> None:
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "members", members)
        pos = {x: t for t, x in enumerate(ground)}
        if len(pos) != len(ground):
            raise ValidationError("ground points must be distinct")
        member_index = {m: i for i, m in enumerate(members)}
        if len(member_index) != len(members):
            raise ValidationError("duplicate members")
        if frozenset(ground) not in member_index:
            raise ValidationError("the ground set itself must be a member")
        try:
            points = tuple(tuple(map(pos.__getitem__, m)) for m in members)
        except KeyError:
            raise ValidationError("member outside the ground set") from None
        self._build(pos, points, member_index)
        masks = self._masks
        mask_index = dict(zip(masks, range(len(masks))))
        # Every member is an intersection of meet-irreducible members, so
        # closure under intersection with each of them implies closure.
        irreducibles = _meet_irreducibles(masks, self._ups, (1 << len(ground)) - 1)
        if not all({a & m for a in masks} <= mask_index.keys() for m in irreducibles):
            # The pairs i <= j name the first failing pair of the whole
            # row-major square: (j, i) fails when (i, j) does.
            for i, a in enumerate(masks):
                if not {a & b for b in masks[i:]} <= mask_index.keys():
                    j = next(j for j in range(i, len(masks)) if a & masks[j] not in mask_index)
                    raise ValidationError(
                        f"family is not intersection-closed at {sorted(members[i])} "
                        f"and {sorted(members[j])}"
                    )

    @classmethod
    def _from_points(cls, ground: tuple, points: Sequence[Sequence[int]]) -> "FiniteLattice":
        """The lattice whose member i holds the ground points at the sorted
        positions points[i], built from the ground's own objects with no
        validation.  The caller guarantees what the constructor would check:
        the members are distinct, in from_sets' order, closed under
        intersection, and the ground set is one of them."""
        lattice = cls.__new__(cls)
        members = tuple(frozenset(map(ground.__getitem__, p)) for p in points)
        object.__setattr__(lattice, "ground", ground)
        object.__setattr__(lattice, "members", members)
        lattice._build(
            {x: t for t, x in enumerate(ground)},
            tuple(map(tuple, points)),
            dict(zip(members, range(len(members)))),
        )
        return lattice

    def _build(self, pos: dict, points: tuple[tuple[int, ...], ...], member_index: dict) -> None:
        """Set the index tables from each member's point positions."""
        holders = [0] * len(self.ground)
        for i, p in enumerate(points):
            for t in p:
                holders[t] |= 1 << i
        object.__setattr__(self, "_holders", holders)
        ups = tuple(map(self._holding, points))
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_masks", tuple(sum(1 << t for t in p) for p in points))
        object.__setattr__(self, "_ups", ups)
        object.__setattr__(self, "_up_index", dict(zip(ups, range(len(ups)))))
        object.__setattr__(self, "_member_index", member_index)

    @classmethod
    def from_sets(cls, ground: Iterable, members: Iterable[Iterable]) -> "FiniteLattice":
        """The lattice of the distinct members, validated, in the order by
        size, then sorted ground positions.  More than MEMBER_BOUND distinct
        members are refused before they are sorted."""
        ground = tuple(ground)
        pos = {x: i for i, x in enumerate(ground)}
        frozen = {frozenset(m) for m in members}
        if len(frozen) > MEMBER_BOUND:
            raise BoundExceeded(
                f"the family has {len(frozen)} distinct members, over the member bound "
                f"{MEMBER_BOUND}"
            )
        # points outside the ground sort first; the constructor rejects them
        ordered = sorted(frozen, key=lambda s: (len(s), sorted(pos.get(x, -1) for x in s)))
        return cls(ground, tuple(ordered))

    def _holding(self, points: Iterable[int]) -> int:
        """Bitset of the members holding every given point; all members when
        there are none."""
        out = (1 << len(self.members)) - 1
        for t in points:
            out &= self._holders[t]
        return out

    def _closure_index(self, mask: int) -> int:
        """Index of the intersection of the members containing the mask: the
        member whose up-set is exactly those members."""
        return self._up_index[self._holding(set_bits(mask))]

    def _index(self, member: frozenset) -> int:
        """The member's index, or a ValidationError naming a non-member."""
        try:
            return self._member_index[member]
        except KeyError:
            raise ValidationError(f"not a lattice member: {sorted(member, key=repr)}") from None

    @cached_property
    def _point_closure_masks(self) -> tuple[int, ...]:
        """The closure mask of each ground point, in ground order."""
        return tuple(self._masks[self._closure_index(1 << t)] for t in range(len(self.ground)))

    @cached_property
    def _generators(self) -> dict[int, frozenset]:
        """The generator table: each point closure mask, mapped to the points
        whose closure it is."""
        points: dict[int, list] = {}
        for x, mask in zip(self.ground, self._point_closure_masks):
            points.setdefault(mask, []).append(x)
        return {mask: frozenset(xs) for mask, xs in points.items()}

    @cached_property
    def _moebius(self) -> MoebiusTable:
        return _moebius_table(self)

    def closure(self, subset: Iterable) -> frozenset:
        """Smallest member containing the subset; unique by intersection-closure."""
        try:
            mask = sum(1 << self._pos[x] for x in frozenset(subset))
        except KeyError:
            raise ValidationError("closure argument outside the ground set") from None
        return self.members[self._closure_index(mask)]

    def bottom(self) -> frozenset:
        return self.closure(())

    def non_point_closures(self) -> tuple[frozenset, ...]:
        """Members that are not the closure of any single point."""
        hit = set(self._point_closure_masks)
        return tuple(m for m, mask in zip(self.members, self._masks) if mask not in hit)

    def contains_empty(self) -> bool:
        return self._masks[self._closure_index(0)] == 0


def _meet_irreducibles(masks: Sequence[int], ups: Sequence[int], full: int) -> list[int]:
    """The masks of the members that are not the intersection of the members
    strictly above them, given each member's up-set.  The ground set is the
    empty intersection, full, so it is not one.  Every member above holds the
    member, so a running intersection that reaches it stops there."""
    out = []
    for i, m in enumerate(masks):
        meet = full
        for j in set_bits(ups[i] ^ (1 << i)):
            if meet == m:
                break
            meet &= masks[j]
        if meet != m:
            out.append(m)
    return out


class MoebiusTable:
    """Sparse table of the lattice's Moebius values.

    columns[j] = (below, values): the members i with a nonzero value at (i, j)
    and those values, two tuples in the sieve's order (size descending, then
    index).
    """

    def __init__(self, lattice: FiniteLattice, columns: list):
        self.lattice = lattice
        self.columns = columns

    @cached_property
    def entries(self) -> dict:
        """(i, j) -> nonzero value, in column order; built on first use only."""
        return {(i, j): v for j, col in enumerate(self.columns) for i, v in zip(*col)}

    def of(self, below: frozenset, above: frozenset) -> int:
        return self.entries.get((self.lattice._index(below), self.lattice._index(above)), 0)

    def column(self, above: frozenset) -> list[tuple[frozenset, int]]:
        below, values = self.columns[self.lattice._index(above)]
        members = self.lattice.members
        return [(members[i], v) for i, v in zip(below, values)]


def moebius(lattice: FiniteLattice) -> MoebiusTable:
    """The unique table with unit diagonal, zero off intervals, and vanishing
    interval sums, computed per upper member by a downward sieve.  The table
    is built once per lattice and kept on it."""
    return lattice._moebius


def _down_lists(lattice: FiniteLattice) -> list[list[int]]:
    """For each member, the indices of the members below it (itself
    included, so first), by size descending, then index: each member is
    appended, in that order, to the list of every member in its up-set."""
    masks = lattice._masks
    out: list[list[int]] = [[] for _ in masks]
    for i in sorted(range(len(masks)), key=lambda i: -masks[i].bit_count()):
        for j in set_bits(lattice._ups[i]):
            out[j].append(i)
    return out


def _moebius_table(lattice: FiniteLattice) -> MoebiusTable:
    down_lists = _down_lists(lattice)
    # acc[i] is the value at i in column j: 1 at j minus the values strictly
    # above i.  Pushing over down_lists[i] (i first) zeroes acc[i], and every
    # slot pushed to lies in j's down-set, so acc ends each column all zeros.
    acc = [0] * len(down_lists)
    columns = []
    for j, down in enumerate(down_lists):
        acc[j] = 1
        below, values = [], []
        for i in down:
            value = acc[i]
            if value:
                below.append(i)
                values.append(value)
                for w in down_lists[i]:
                    acc[w] -= value
        columns.append((tuple(below), tuple(values)))
    return MoebiusTable(lattice, columns)


def moebius_indicator_identity(
    lattice: FiniteLattice, above: frozenset
) -> tuple[bool, bool, frozenset]:
    """Check the alternating indicator identity at one member.

    Returns (identity_ok, split_ok, generators): generators are the points
    whose closure is exactly the member; the signed sum of member indicators
    below the member must match the generator-set indicator pointwise, and
    the positive/negative split equation must hold exactly when no point
    generates the member.
    """
    j = lattice._index(above)
    below, values = moebius(lattice).columns[j]
    target = lattice._masks[j]
    generators = lattice._generators.get(target, frozenset())
    # counts[t] is the positive minus the negative mass at point t, so the
    # two sides of the split equation agree exactly where it is 0
    counts = [0] * len(lattice.ground)
    points = lattice._points
    for i, coeff in zip(below, values):
        for t in points[i]:
            counts[t] += coeff
    identity_ok = counts == [mask == target for mask in lattice._point_closure_masks]
    split_ok = (not any(counts)) == (not generators)
    return identity_ok, split_ok, generators


# -- solutions to the indicator equation ---------------------------------------


class Solution(Value):
    """Two multisets of sets; a solution when the indicator sums agree pointwise."""

    __match_args__ = ("left", "right")

    def __init__(self, left: tuple[frozenset, ...], right: tuple[frozenset, ...]) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def length(self) -> tuple[int, int]:
        return (len(self.left), len(self.right))


def is_solution(candidate: Solution) -> bool:
    points = set()
    for s in candidate.left:
        points |= s
    for s in candidate.right:
        points |= s
    return all(
        sum(1 for s in candidate.left if x in s) == sum(1 for s in candidate.right if x in s)
        for x in points
    )


def is_trivial(candidate: Solution) -> bool:
    """Trivial when the two multisets coincide."""
    return Counter(candidate.left) == Counter(candidate.right)


def construct_minimal_solution(lattice: FiniteLattice, top: frozenset) -> Solution:
    """Signed Moebius masses at a member no point generates, split by sign.

    Left side: members with negative value, repeated |value| times; right
    side: members with positive value (the member itself once).  The output
    is validated as a nontrivial solution of the predicted length.
    """
    j = lattice._index(top)
    if lattice.contains_empty():
        raise ValidationError("the family must not contain the empty set")
    if top not in lattice.non_point_closures():
        raise ValidationError("the chosen member is generated by a point")
    below, values = moebius(lattice).columns[j]
    members = lattice.members
    left: list[frozenset] = []
    right: list[frozenset] = []
    for i, value in zip(below, values):
        if value < 0:
            left.extend([members[i]] * (-value))
        else:
            right.extend([members[i]] * value)
    out = Solution(tuple(left), tuple(right))
    expected = sum(map(abs, values)) // 2
    if len(out.left) != expected or len(out.right) != expected:
        raise PropertyViolation("signed masses did not split evenly")
    if not is_solution(out) or is_trivial(out):
        raise PropertyViolation("constructed candidate failed validation")
    return out


def minimal_nontrivial_length(
    lattice: FiniteLattice, tops: Optional[Sequence[frozenset]] = None
) -> int:
    """Least length of a nontrivial solution with members from the lattice.

    The minimum runs over candidate top members (by default every member no
    point generates); each candidate contributes half its total absolute
    Moebius mass.
    """
    indices = None if tops is None else [lattice._index(top) for top in tops]
    if lattice.contains_empty():
        raise ValidationError("the family must not contain the empty set")
    if indices is None:
        indices = [lattice._index(top) for top in lattice.non_point_closures()]
    if not indices:
        raise AllSolutionsTrivial("every member is generated by a point")
    columns = moebius(lattice).columns
    masses = [sum(map(abs, columns[j][1])) for j in indices]
    if any(mass % 2 for mass in masses):
        raise PropertyViolation("odd total Moebius mass")
    return min(masses) // 2


def minimal_nontrivial_solution(lattice: FiniteLattice) -> tuple[int, frozenset, Solution]:
    """Minimal length together with the first minimizing top and a built solution."""
    best = minimal_nontrivial_length(lattice)
    columns = moebius(lattice).columns
    best_top = min(
        lattice.non_point_closures(), key=lambda m: sum(map(abs, columns[lattice._index(m)][1]))
    )
    solution = construct_minimal_solution(lattice, best_top)
    if len(solution.left) != best:
        raise PropertyViolation("constructed solution length disagrees with the minimum")
    return best, best_top, solution


def nontrivial_solutions_up_to(
    lattice: FiniteLattice, max_len: int, include_unequal: bool = False
) -> Iterator[Solution]:
    """Exhaustive scan over multiset pairs of members, shortest first.

    Confirms minimality on tiny lattices; member count and length are capped.
    """
    if len(lattice.members) > 8 or max_len > 6:
        raise BoundExceeded("exhaustive solution search capped at 8 members, length 6")
    members = lattice.members
    for n in range(1, max_len + 1):
        right_lengths = [n] if not include_unequal else list(range(0, max_len + 1))
        for n_right in right_lengths:
            for left in itertools.combinations_with_replacement(members, n):
                for right in itertools.combinations_with_replacement(members, n_right):
                    candidate = Solution(left, right)
                    if is_solution(candidate) and not is_trivial(candidate):
                        yield candidate


# -- concrete lattices -----------------------------------------------------------


# The most members a built-in lattice or a from_sets family may have; F_2^6
# has 2825 subspaces.
MEMBER_BOUND = 4096
# The most points F_q^k may have for subspace_lattice.
POINT_BOUND = 4096


def subspace_lattice(q: int, k: int) -> FiniteLattice:
    """All subspaces of F_q^k as sets of vector tuples, built from codeword
    indices and ordered as FiniteLattice.from_sets orders them.

    The point bound and MEMBER_BOUND are checked before anything is
    enumerated: F_q^k has q^k points and a sum of Gaussian binomials of
    subspaces.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if q >= 2 and power_over(q, k, POINT_BOUND):  # a huge k is never raised to a power
        raise BoundExceeded(f"F_{q}^{k} has {q}^{k} points, over the bound {POINT_BOUND}")
    field_spec = FieldSpec(q)
    count = subspace_count(k, q)
    if count > MEMBER_BOUND:
        raise BoundExceeded(
            f"F_{q}^{k} has {count_text(count)} subspaces, over the member bound {MEMBER_BOUND}"
        )
    space = AlphabetSpec(field_spec, ("x",), (k,))
    vectors = tuple(space.vectors())
    # Codeword x of a basis is sum_c q^(k-1-c) <x, column c> as a vector
    # index; each column's scaled values are built once per position.
    columns: dict[tuple[int, Vector], list[int]] = {}
    index_lists = []
    for basis in enumerate_codes(space, indices=True):
        indices = [0] * q ** len(basis)
        for part in enumerate(zip(*map(vectors.__getitem__, basis))):
            if part not in columns:
                place = q ** (k - 1 - part[0])
                columns[part] = [place * v for v in dot_values(q, part[1])]
            indices = list(map(operator.add, indices, columns[part]))
        index_lists.append(sorted(indices))
    # a point's ground position is its vector index, so this is from_sets' order
    index_lists.sort(key=lambda indices: (len(indices), indices))
    return FiniteLattice._from_points(vectors, index_lists)


def pointed_boolean_lattice(n: int) -> FiniteLattice:
    """Powerset of {1..n} with a shared basepoint 0 added to every member.

    Isomorphic to the powerset as a lattice but avoids the empty set, so the
    minimal-length machinery applies.  The 2^n members are checked against
    MEMBER_BOUND before any is built.
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    # 2^n exceeds the bound exactly when n reaches the bound's bit length
    if n >= MEMBER_BOUND.bit_length():
        raise BoundExceeded(f"2^{n} members exceed the member bound {MEMBER_BOUND}")
    # point t sits at position t, and combinations come in lexicographic
    # order, so this is from_sets' order
    points = [(0, *c) for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
    return FiniteLattice._from_points(tuple(range(n + 1)), points)


def _vector_set_dim(q: int, member: frozenset) -> int:
    size = len(member)
    d = 0
    while size > 1:
        size //= q
        d += 1
    return d


def matrix_module_min_length(q: int, e: int, k: int) -> int:
    """Least nontrivial solution length over the submodule lattice of the
    width-k column module over e x e matrices.

    Left submodules correspond to subspaces of F_q^k, cyclic ones to the
    subspaces of dimension at most e, so the minimum runs over subspaces of
    dimension above e.  The value always equals prod_{i=1..e} (q^i + 1),
    which is asserted before returning.
    """
    return _module_min_length(subspace_lattice(q, k), q, e, k)


def _module_min_length(lattice: FiniteLattice, q: int, e: int, k: int) -> int:
    """matrix_module_min_length on the already built subspace lattice of
    F_q^k, so that its Moebius table is reused."""
    if e < 1:
        raise ValidationError("the matrix rank e must be at least 1")
    if k <= e:
        raise ValidationError("the module has no non-cyclic submodule when k <= e")
    tops = [m for m in lattice.members if _vector_set_dim(q, m) > e]
    value = minimal_nontrivial_length(lattice, tops=tops)
    closed_form = 1
    for i in range(1, e + 1):
        closed_form *= q**i + 1
    if value != closed_form:
        raise PropertyViolation(
            f"lattice minimum {value} disagrees with the product formula {closed_form}"
        )
    return value


# -- subgroup indicators and Hamming extension -------------------------------------


def subgroup_indicator_equivalence(
    a: LinearCode, b: LinearCode, c: LinearCode, d: LinearCode
) -> tuple[bool, bool, bool]:
    """Three faces of one fact for subgroups A, B, C, D of the ambient space:
    pairing equality, pointwise indicator-sum equality, and union-plus-
    intersection equality.  All three are evaluated and must agree."""
    set_a, set_b = frozenset(a.codewords()), frozenset(b.codewords())
    set_c, set_d = frozenset(c.codewords()), frozenset(d.codewords())
    paired = (set_a == set_c and set_b == set_d) or (set_a == set_d and set_b == set_c)
    ambient = set_a | set_b | set_c | set_d
    sums = all(
        (x in set_a) + (x in set_b) == (x in set_c) + (x in set_d) for x in ambient
    )
    boundary = (set_a | set_b == set_c | set_d) and (set_a & set_b == set_c & set_d)
    if not (paired == sums == boundary):
        raise PropertyViolation(
            f"indicator equivalence split: paired={paired} sums={sums} boundary={boundary}"
        )
    return paired, sums, boundary


def hamming_extension_via_solutions(
    space: AlphabetSpec, code: LinearCode, images: Sequence[Vector]
) -> tuple[Solution, bool, bool]:
    """Kernel-tuple translation of a map on a code over equal-size blocks.

    Builds (per-block kernels of the code, per-block kernels of the map) as
    subsets of the code and returns (record, preserves block weight,
    extendable).  Preservation is equivalent to the record being a solution;
    extendability to it being trivial, because field blocks always admit the
    final patching step.
    """
    if len(set(space.dims)) != 1:
        raise ValidationError("equal block dimensions are required")
    q = space.q
    n = space.total_dim
    codewords, mapped = [], []  # mapped[c] is the image of codewords[c]
    for coeffs, vec in code.coefficient_pairs():
        codewords.append(vec)
        mapped.append(combine(q, images, coeffs, n))
    left = []
    right = []
    for label in space.labels:
        rng = space.block_range(label)
        left.append(frozenset(v for v in codewords if not any(v[t] for t in rng)))
        right.append(
            frozenset(v for v, w in zip(codewords, mapped) if not any(w[t] for t in rng))
        )
    record = Solution(tuple(left), tuple(right))
    return record, is_solution(record), is_trivial(record)
