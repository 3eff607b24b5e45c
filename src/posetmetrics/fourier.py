"""Weight partitions, exact character sums, dual partitions, and the audit
relating the extension property to identity/duality/reflexivity properties.

A partition holds one block id per vector, in lexicographic order, with
blocks numbered by first appearance, which orders them by their least
vectors.  Equality is id-tuple equality; blocks as vector sets are derived.

Character sums live in the ring of integers of the p-th cyclotomic field,
represented as integer vectors over the power basis 1, z, ..., z^{p-2} with
z^{p-1} reduced to -(1 + z + ... + z^{p-2}).  Equality is coefficient
equality, so partition comparisons are exact.

Dual partitions take no character sum.  Over the vectors beta of exact
support S (the labels whose block is nonzero), z^<alpha, beta> sums to the
integer prod_{i in S} (q^{k_i} [alpha_i = 0] - 1) under every nontrivial
character.  So where every block is a union of exact-support classes, as in
weight partitions and their duals, a block's sum depends only on supp(alpha)
and comes from one transform over the 2^n label subsets (MacWilliams and
Sloane, The Theory of Error-Correcting Codes, ch. 5).  Criterion 7 replays
character_sum against that transform.  The MacWilliams check keys each code
by its exact-support enumerator A_C and gets its dual code's distribution
from A_C and that transform (Kim and Oh, 2005), building no dual code.  A_C
depends only on the space's shape (q, dims), not on the poset or weights, so
the distinct enumerators are listed once per shape, each with the first code
that has it, and kept for the last CACHED_SHAPES shapes; a check folds
each enumerator, not each code.
"""

from __future__ import annotations

import operator
import time
from collections import Counter
from functools import lru_cache
from typing import Iterable, Optional

from . import fields
from .errors import BoundExceeded, PropertyViolation, ValidationError, count_text
from .fields import Vector
from .isometries import weight_sum_functional
from .mep import condition_report, level_class_bound, mep_brute_force, single_orbit_check
from .posets import Poset, Value, WeightFunction
from .spaces import (
    CACHED_SHAPES,
    CODE_BOUND,
    VECTOR_BOUND,
    AlphabetSpec,
    FieldSpec,
    LinearCode,
    enumerate_codes,
    subspace_count,
    support_classes,
    vector_masks,
)


class CyclotomicInteger(Value):
    """Element of Z[z], z a primitive p-th root of unity, p prime."""

    __match_args__ = ("prime", "coeffs")

    def __init__(self, prime: int, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "coeffs", coeffs)  # length prime - 1, basis 1, z, ..., z^(p-2)
        if len(coeffs) != prime - 1:
            raise ValidationError("coefficient vector must have length p - 1")


def character_sum(
    space: AlphabetSpec,
    block: Iterable[Vector],
    alpha: Vector,
    scale: int = 1,
) -> CyclotomicInteger:
    """Sum of z^(scale * <alpha, beta>) over the block, exactly."""
    q = space.q
    if scale % q == 0:
        raise ValidationError("the character must be nontrivial")
    counts = [0] * q
    for beta in block:
        counts[scale * sum(map(operator.mul, alpha, beta)) % q] += 1
    # z^(q-1) = -(1 + z + ... + z^(q-2)), so its count is taken off every coefficient
    return CyclotomicInteger(q, tuple(c - counts[-1] for c in counts[:-1]))


class Partition(Value):
    """Partition of a space's vectors: ids[t] is the block of vector t in
    lexicographic order, blocks numbered by first appearance."""

    __match_args__ = ("space", "ids")

    def __init__(self, space: AlphabetSpec, ids: tuple[int, ...]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "ids", ids)

    @classmethod
    def from_blocks(cls, space: AlphabetSpec, blocks: Iterable[Iterable[Vector]]) -> "Partition":
        """Refuses an empty block, a vector in two blocks, a vector outside the
        space (wrong length, or an entry outside 0..q-1) and a missing vector."""
        q, block_of = space.q, {}  # vector index -> block
        for b, block in enumerate(map(list, blocks)):
            if not block:
                raise ValidationError("partition blocks must be nonempty")
            for vec in block:
                if len(vec) != space.total_dim or not all(x in range(q) for x in vec):
                    raise ValidationError(f"the vector {tuple(vec)} is not in the space")
                if block_of.setdefault(fields.vec_index(q, vec), b) != b:
                    raise ValidationError("partition blocks must be disjoint")
        if space.vectors_over(len(block_of)):
            missing = next(v for t, v in enumerate(space.vectors()) if t not in block_of)
            raise ValidationError(f"the partition lacks the vector {missing} of the space")
        return cls(space, _numbered(map(block_of.__getitem__, range(space.vector_count))))

    @property
    def block_count(self) -> int:
        return max(self.ids) + 1

    @property
    def blocks(self) -> tuple[frozenset, ...]:
        blocks: list[list[Vector]] = [[] for _ in range(self.block_count)]
        for vec, b in zip(self.space.vectors(), self.ids):
            blocks[b].append(vec)
        return tuple(map(frozenset, blocks))

    def distribution(self, vectors: Iterable[Vector]) -> tuple[int, ...]:
        counts = [0] * self.block_count
        for v in vectors:
            counts[self.ids[fields.vec_index(self.space.q, v)]] += 1
        return tuple(counts)


def _numbered(keys: Iterable) -> tuple[int, ...]:
    """Each key's id, numbered by first appearance."""
    ids: dict = {}
    return tuple(ids.setdefault(key, len(ids)) for key in keys)


def weight_partition(space: AlphabetSpec, poset: Poset, omega: WeightFunction) -> Partition:
    """Group vectors by exact weight; the zero vector always sits alone."""
    if space.vectors_over(VECTOR_BOUND):
        raise BoundExceeded(
            f"space too large to partition: {space.vector_count_text} vectors, "
            f"over the bound {VECTOR_BOUND}"
        )
    ids = tuple(support_classes(space, poset, weight_sum_functional(poset, omega)))
    if 0 in ids[1:]:
        raise PropertyViolation("a nonzero vector has weight zero")
    return Partition(space, ids)


def support_transforms(
    space: AlphabetSpec, partition: Partition
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Each vector's exact-support mask (bit i for label i), and per mask T
    the character sums of the blocks at any alpha of support T.

    A block's sum at T is sum_S h(S) prod_{i in S} g_i, with h its indicator
    on the supports and g_i = -1 for i in T, q^{k_i} - 1 otherwise: one
    butterfly with the step (x, y) -> (x + (q^{k_i} - 1) y, x - y) per label.
    Raises ValidationError for a partition of another space, or naming the
    first vector whose block splits its exact-support class.
    """
    if partition.space != space:
        raise ValidationError("the partition is of another space")
    n = len(space.labels)
    supports = vector_masks(space, [1 << i for i in range(n)])
    holder: list[Optional[int]] = [None] * (1 << n)  # block of each exact-support class
    for vec, s, b in zip(space.vectors(), supports, partition.ids):
        if holder[s] is None:
            holder[s] = b
        elif holder[s] != b:
            raise ValidationError(f"the block of the vector {vec} splits its exact-support class")
    steps = [(1 << i, space.q**k - 1) for i, k in enumerate(space.dims)]
    columns = []
    for b in range(partition.block_count):
        h = [int(c == b) for c in holder]
        for bit, g in steps:
            for low in range(0, 1 << n, bit << 1):
                for m in range(low, low + bit):
                    x, y = h[m], h[m | bit]
                    h[m], h[m | bit] = x + g * y, x - y
        columns.append(h)
    return supports, list(zip(*columns))


def dual_partition(space: AlphabetSpec, partition: Partition) -> Partition:
    """Group vectors by their tuple of character sums across the blocks.

    Over the vectors beta of exact support S, z^<alpha, beta> sums to the
    integer prod_{i in S} (q^{k_i} [alpha_i = 0] - 1) under every nontrivial
    character.  So with every block a union of exact-support classes, which
    is required, the sums are the integers of support_transforms, and the
    result is the same for every nontrivial character.
    """
    supports, sums = support_transforms(space, partition)
    return Partition(space, _numbered(sums[s] for s in supports))


def is_fourier_reflexive(space: AlphabetSpec, partition: Partition) -> bool:
    return dual_partition(space, dual_partition(space, partition)) == partition


class MacwilliamsResult(Value):
    __match_args__ = ("holds", "witness")

    def __init__(self, holds: bool, witness: Optional[tuple[LinearCode, LinearCode]] = None) -> None:
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "witness", witness)


def macwilliams_identity_check(
    space: AlphabetSpec, poset: Poset, omega: WeightFunction, trace: Optional[dict] = None
) -> MacwilliamsResult:
    """Equal dual-order weight distributions must force equal weight
    distributions of the dual codes; codes are grouped by distribution first.
    Primal block B holds (sum_S A_C(S) H_B(S)) / |C| dual codewords, H_B(S)
    being B's character sum at a vector of support S (support_transforms).

    Both distributions read only A_C, so each class of _code_classes is folded
    once; its first code is the first of its codes in enumeration order, so
    the witness is the pair of codes a scan of every code would name.  A
    given trace dict gets the class table's work and times in milliseconds."""
    _check_code_count(space)
    primal = weight_partition(space, poset, omega)
    reversed_order = weight_partition(space, poset.dual(), omega)
    supports, sums = support_transforms(space, primal)
    # A class's key (its reversed-order distribution) and |C| times its dual
    # code's distribution (the key fixes |C| within a group), each packed in
    # one integer with entry b at bit width * b: every entry is in 0..q^N,
    # which width bits hold, so equal integers are equal distributions,
    # whatever negative partial sums carry
    width = space.vector_count.bit_length()
    key_of = [0] * (1 << len(space.labels))  # per exact support, its reversed-order block
    for s, b in zip(supports, reversed_order.ids):
        key_of[s] = 1 << width * b
    dual_of = [sum(h << width * b for b, h in enumerate(row)) for row in sums]
    groups: dict[int, list] = {}  # key -> [first basis, its dual, first other]
    start, misses = time.perf_counter(), _code_classes.cache_info().misses
    classes = _code_classes(space.q, space.dims)
    built, fold_start = _code_classes.cache_info().misses > misses, time.perf_counter()
    for masks, counts, basis in classes:
        key = sum(map(operator.mul, counts, map(key_of.__getitem__, masks)))
        dual = sum(map(operator.mul, counts, map(dual_of.__getitem__, masks)))
        group = groups.setdefault(key, [basis, dual, None])
        if group[2] is None and dual != group[1]:
            group[2] = basis
    witness = next(((first, other) for first, _, other in groups.values() if other is not None),
                   None)
    if trace is not None:
        codes = subspace_count(space.total_dim, space.q) if built else 0
        trace.update(class_table="built" if built else "reused", codes_enumerated=codes,
                     classes_folded=len(classes), build_ms=round((fold_start - start) * 1000, 3),
                     fold_ms=round((time.perf_counter() - fold_start) * 1000, 3))
    if witness is None:
        return MacwilliamsResult(True)
    vectors = list(space.vectors())
    return MacwilliamsResult(False, tuple(
        LinearCode(space, tuple(map(vectors.__getitem__, basis))) for basis in witness))


# The largest class table the code bound admits, F_2^7 with unit blocks (29,212
# classes), takes about 6 MB.
@lru_cache(maxsize=CACHED_SHAPES)
def _code_classes(
    q: int, dims: tuple[int, ...]
) -> tuple[tuple[bytes, tuple[int, ...], tuple[int, ...]], ...]:
    """The distinct exact-support enumerators A_C over the codes of F_q^N
    with blocks of dims, in order of first appearance in enumerate_codes,
    each as (supports, counts, basis): the label masks S with A_C(S) > 0 in
    increasing order as bytes, their A_C(S), and the basis indices of the
    class's first code.  Masks and indices are positional, so spaces of one
    shape share the table whatever their labels.  The caller checks the code
    bound first, which admits at most 7 labels, so every mask fits a byte.
    """
    space = AlphabetSpec(FieldSpec(q), tuple(map(str, range(len(dims)))), dims)
    vectors = list(space.vectors())
    label_bits = [1 << i for i, k in enumerate(dims) for _ in range(k)]
    classes: dict[bytes, tuple[int, ...]] = {}  # sorted codeword masks -> first basis
    parts: dict[tuple[int, Vector], list[int]] = {}  # (label bit, column) -> its mask bits
    for basis in enumerate_codes(space, indices=True):
        # codeword x's exact support, one column of the basis at a time
        masks = [0] * q ** len(basis)
        for part in zip(label_bits, zip(*(vectors[t] for t in basis))):
            if part not in parts:
                parts[part] = [part[0] if v else 0 for v in fields.dot_values(q, part[1])]
            masks = list(map(operator.or_, masks, parts[part]))
        masks.sort()
        classes.setdefault(bytes(masks), basis)
    table, shared = [], {}  # classes share equal count tuples: F_2^7 has 8 distinct ones
    for masks, basis in classes.items():
        enumerator = Counter(masks)  # in increasing mask order, as masks is sorted
        counts = tuple(enumerator.values())
        table.append((bytes(enumerator), shared.setdefault(counts, counts), basis))
    return tuple(table)


def _check_code_count(space: AlphabetSpec) -> None:
    """Refuse a space with more subspaces than CODE_BOUND.  Past the vector
    bound the count is not formed: the weight partition refuses such a space."""
    if space.vectors_over(VECTOR_BOUND):
        return
    count = subspace_count(space.total_dim, space.q)
    if count > CODE_BOUND:
        raise BoundExceeded(
            f"F_{space.q}^{space.total_dim} has {count_text(count)} subspaces, "
            f"over the code bound {CODE_BOUND}"
        )


# -- the comparison audit ---------------------------------------------------------


class AuditReport(Value):
    __match_args__ = (
        "statements", "implication_failures", "hierarchical", "integer_weights", "all_ones",
        "block_counts_match",
    )

    def __init__(
        self, statements: dict, implication_failures: tuple[str, ...], hierarchical: bool,
        integer_weights: bool, all_ones: bool, block_counts_match: bool,
    ) -> None:
        object.__setattr__(self, "statements", statements)
        object.__setattr__(self, "implication_failures", implication_failures)
        object.__setattr__(self, "hierarchical", hierarchical)
        object.__setattr__(self, "integer_weights", integer_weights)
        object.__setattr__(self, "all_ones", all_ones)
        object.__setattr__(self, "block_counts_match", block_counts_match)

    @property
    def consistent(self) -> bool:
        return not self.implication_failures and self.block_counts_match


def coding_property_audit(
    space: AlphabetSpec, poset: Poset, omega: WeightFunction, trace: Optional[dict] = None
) -> AuditReport:
    """Evaluate the seven comparison statements and check their implication web.

    One-directional: extension property forces orbit transitivity; matched
    UDP forces the dual-partition match; the identity forces reflexivity.
    Equivalences: orbit transitivity with matched UDP; partition match with
    the identity.  With a hierarchical order the extension property equals
    matched UDP plus the level class bound, and with integer (or all-ones)
    weights the middle five statements collapse into one.  The code bound
    of the identity check is checked before the first statement runs.  A
    given trace dict gets the MEP scan's under "brute_force" and the
    identity check's under "macwilliams_identity".
    """
    _check_code_count(space)
    scan_trace = None if trace is None else trace.setdefault("brute_force", {})
    mep_verdict = mep_brute_force(space, poset, omega, trace=scan_trace)
    report = condition_report(space, poset, omega)
    orbit_ok, _ = single_orbit_check(space, poset, omega)
    primal = weight_partition(space, poset, omega)
    reversed_order = weight_partition(space, poset.dual(), omega)
    dual = dual_partition(space, primal)
    dual_match = dual == reversed_order
    identity_trace = None if trace is None else trace.setdefault("macwilliams_identity", {})
    identity = macwilliams_identity_check(space, poset, omega, identity_trace).holds
    reflexive = dual_partition(space, dual) == primal
    bound_ok, _ = level_class_bound(space, poset, omega)
    statements = {
        "mep": mep_verdict.holds,
        "single_orbit": orbit_ok,
        "udp_matched_dims": report.udp_matched_dims,
        "dual_partition_match": dual_match,
        "macwilliams_identity": identity,
        "fourier_reflexive": reflexive,
        "level_class_bound": bound_ok,
    }
    failures = []
    if statements["mep"] and not statements["single_orbit"]:
        failures.append("mep => single_orbit")
    if statements["single_orbit"] != statements["udp_matched_dims"]:
        failures.append("single_orbit <=> udp_matched_dims")
    if statements["udp_matched_dims"] and not statements["dual_partition_match"]:
        failures.append("udp_matched_dims => dual_partition_match")
    if statements["dual_partition_match"] != statements["macwilliams_identity"]:
        failures.append("dual_partition_match <=> macwilliams_identity")
    if statements["macwilliams_identity"] and not statements["fourier_reflexive"]:
        failures.append("macwilliams_identity => fourier_reflexive")
    hierarchical = poset.is_hierarchical
    if hierarchical or omega.is_all_ones:
        expected = statements["udp_matched_dims"] and statements["level_class_bound"]
        if statements["mep"] != expected:
            failures.append("mep <=> (udp_matched_dims and level_class_bound)")
    if omega.is_all_ones or (hierarchical and omega.is_integer_valued):
        middle = [
            statements[name]
            for name in (
                "single_orbit",
                "udp_matched_dims",
                "dual_partition_match",
                "macwilliams_identity",
                "fourier_reflexive",
            )
        ]
        if len(set(middle)) != 1:
            failures.append("middle statements must agree")
    return AuditReport(
        statements=statements,
        implication_failures=tuple(failures),
        hierarchical=hierarchical,
        integer_weights=omega.is_integer_valued,
        all_ones=omega.is_all_ones,
        block_counts_match=primal.block_count == reversed_order.block_count,
    )
