"""Weight partitions, exact character sums, dual partitions, and the audit
relating the extension property to identity/duality/reflexivity properties.

Character sums live in the ring of integers of the p-th cyclotomic field,
represented as integer vectors over the power basis 1, z, ..., z^{p-2} with
z^{p-1} reduced to -(1 + z + ... + z^{p-2}).  Equality is coefficient
equality, so partition comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import BoundExceeded, PropertyViolation, ValidationError
from .fields import Vector
from .isometries import weight_sum_functional
from .mep import condition_report, level_class_bound, mep_brute_force, single_orbit_check
from .posets import Poset, WeightFunction
from .spaces import (
    VECTOR_BOUND,
    AlphabetSpec,
    LinearCode,
    enumerate_codes,
    subspace_count,
    support_classes,
)

# The most codes macwilliams_identity_check enumerates: F_2^7 has 29,212
# subspaces and is admitted, F_2^8 has 417,199 and is refused.
CODE_BOUND = 1 << 16


@dataclass(frozen=True)
class CyclotomicInteger:
    """Element of Z[z], z a primitive p-th root of unity, p prime."""

    prime: int
    coeffs: tuple[int, ...]  # length prime - 1, basis 1, z, ..., z^(p-2)

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.prime - 1:
            raise ValidationError("coefficient vector must have length p - 1")


def inner_product(q: int, a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b)) % q


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
        counts[(scale * inner_product(q, alpha, beta)) % q] += 1
    # z^(q-1) = -(1 + z + ... + z^(q-2)), so its count is taken off every coefficient
    return CyclotomicInteger(q, tuple(c - counts[-1] for c in counts[:-1]))


@dataclass(frozen=True)
class Partition:
    """Partition of the ambient space's vectors, blocks in canonical order."""

    blocks: tuple[frozenset, ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[Vector]]) -> "Partition":
        frozen = [frozenset(b) for b in blocks]
        if any(not b for b in frozen):
            raise ValidationError("partition blocks must be nonempty")
        total = sum(len(b) for b in frozen)
        union = frozenset().union(*frozen)
        if total != len(union):
            raise ValidationError("partition blocks must be disjoint")
        return cls(tuple(sorted(frozen, key=lambda b: sorted(b))))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @cached_property
    def _block_index(self) -> dict:
        """vector -> index of its block"""
        return {v: t for t, block in enumerate(self.blocks) for v in block}

    def block_of(self, vec: Vector) -> int:
        return self._block_index[vec]

    def distribution(self, vectors: Iterable[Vector]) -> tuple[int, ...]:
        counts = [0] * len(self.blocks)
        for v in vectors:
            counts[self._block_index[v]] += 1
        return tuple(counts)


def weight_partition(space: AlphabetSpec, poset: Poset, omega: WeightFunction) -> Partition:
    """Group vectors by exact weight; the zero vector always sits alone."""
    if space.vector_count > VECTOR_BOUND:
        raise BoundExceeded(
            f"space too large to partition: {space.vector_count} vectors, "
            f"over the bound {VECTOR_BOUND}"
        )
    classes = support_classes(space, poset, weight_sum_functional(poset, omega).key)
    blocks: list[list[Vector]] = [[] for _ in range(max(classes) + 1)]
    for vec, c in zip(space.vectors(), classes):
        blocks[c].append(vec)
    partition = Partition.from_blocks(blocks)
    zero_block = partition.blocks[partition.block_of(space.zero())]
    if zero_block != frozenset({space.zero()}):
        raise PropertyViolation("a nonzero vector has weight zero")
    return partition


def dual_partition(space: AlphabetSpec, partition: Partition, scale: int = 1) -> Partition:
    """Group vectors by their tuple of character sums across the blocks."""
    signatures: dict[tuple, list[Vector]] = {}
    for alpha in space.vectors():
        key = tuple(
            character_sum(space, block, alpha, scale).coeffs for block in partition.blocks
        )
        signatures.setdefault(key, []).append(alpha)
    return Partition.from_blocks(signatures.values())


def is_fourier_reflexive(space: AlphabetSpec, partition: Partition, scale: int = 1) -> bool:
    return dual_partition(space, dual_partition(space, partition, scale), scale) == partition


def character_choice_audit(
    space: AlphabetSpec, partition: Partition
) -> tuple[bool, tuple[bool, ...]]:
    """Reflexivity verdicts for every nontrivial character scaling must agree."""
    verdicts = tuple(
        is_fourier_reflexive(space, partition, scale) for scale in range(1, space.q)
    )
    return len(set(verdicts)) == 1, verdicts


@dataclass(frozen=True)
class MacwilliamsResult:
    holds: bool
    witness: Optional[tuple[LinearCode, LinearCode]] = None


def macwilliams_identity_check(
    space: AlphabetSpec, poset: Poset, omega: WeightFunction
) -> MacwilliamsResult:
    """Equal dual-order weight distributions must force equal weight
    distributions of the dual codes; codes are grouped by distribution first."""
    _check_code_count(space)
    primal = weight_partition(space, poset, omega)
    reversed_order = weight_partition(space, poset.dual(), omega)
    groups: dict[tuple[int, ...], list[LinearCode]] = {}
    for code in enumerate_codes(space):
        key = reversed_order.distribution(code.codewords())
        groups.setdefault(key, []).append(code)
    for group in groups.values():
        if len(group) < 2:
            continue
        seen: dict[tuple[int, ...], LinearCode] = {}
        for code in group:
            dual_key = primal.distribution(code.dual().codewords())
            if seen and dual_key not in seen:
                other = next(iter(seen.values()))
                return MacwilliamsResult(False, (other, code))
            seen.setdefault(dual_key, code)
    return MacwilliamsResult(True)


def _check_code_count(space: AlphabetSpec) -> None:
    """Refuse a space with more subspaces than CODE_BOUND.  Past the vector
    bound the count is not formed: the weight partition refuses such a space."""
    if space.vector_count > VECTOR_BOUND:
        return
    count = subspace_count(space.total_dim, space.q)
    if count > CODE_BOUND:
        raise BoundExceeded(
            f"F_{space.q}^{space.total_dim} has {count} subspaces, over the code bound {CODE_BOUND}"
        )


# -- the comparison audit ---------------------------------------------------------


AUDIT_STATEMENTS = (
    "mep",
    "single_orbit",
    "udp_matched_dims",
    "dual_partition_match",
    "macwilliams_identity",
    "fourier_reflexive",
    "level_class_bound",
)


@dataclass(frozen=True)
class AuditReport:
    statements: dict
    implication_failures: tuple[str, ...]
    hierarchical: bool
    integer_weights: bool
    all_ones: bool
    block_counts_match: bool

    @property
    def consistent(self) -> bool:
        return not self.implication_failures and self.block_counts_match


def coding_property_audit(space: AlphabetSpec, poset: Poset, omega: WeightFunction) -> AuditReport:
    """Evaluate the seven comparison statements and check their implication web.

    One-directional: extension property forces orbit transitivity; matched
    UDP forces the dual-partition match; the identity forces reflexivity.
    Equivalences: orbit transitivity with matched UDP; partition match with
    the identity.  With a hierarchical order the extension property equals
    matched UDP plus the level class bound, and with integer (or all-ones)
    weights the middle five statements collapse into one.  The code bound
    of the identity check is checked before the first statement runs.
    """
    _check_code_count(space)
    mep_verdict = mep_brute_force(space, poset, omega)
    report = condition_report(space, poset, omega)
    orbit_ok, _ = single_orbit_check(space, poset, omega)
    primal = weight_partition(space, poset, omega)
    reversed_order = weight_partition(space, poset.dual(), omega)
    dual_match = dual_partition(space, primal) == reversed_order
    identity = macwilliams_identity_check(space, poset, omega).holds
    reflexive = is_fourier_reflexive(space, primal)
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
