"""Small helpers shared by the test modules."""

import itertools
from dataclasses import dataclass
from typing import Optional

from posetmetrics import lattices, posets, spaces
from posetmetrics.isometries import weight_sum_functional
from posetmetrics.posets import Perm, powers_of_two_weight


def apply_perm(poset: posets.Poset, perm: Perm, subset) -> frozenset:
    """The image of a label set under an element permutation of the poset."""
    return frozenset(poset.elements[perm[poset.index(x)]] for x in subset)


def linear_maps(code, space):
    """Every linear map from the code into the space, as tuples of images of
    the code's RREF basis rows."""
    return itertools.product(tuple(space.vectors()), repeat=code.dim)


def key_for(poset: posets.Poset, omega, mode: str):
    """The integer key mep_brute_force compares in a mode: the weight key, of
    the doubling weights in support mode."""
    return weight_sum_functional(poset, powers_of_two_weight(poset) if mode == "support" else omega)


def value_for(poset: posets.Poset, omega, mode: str):
    """The value a key stands for, on label sets, kept as the oracle of the
    keys: the exact weight of the ideal closure, or the closure itself in
    support mode."""
    if mode == "support":
        return poset.ideal_closure
    return lambda subset: omega.total(poset.ideal_closure(subset))


def subspace_lattice_oracle(q: int, k: int) -> lattices.FiniteLattice:
    """The subspace lattice of F_q^k built from each code's codewords as
    vector tuples and ordered by FiniteLattice.from_sets: the oracle of
    lattices.subspace_lattice, which builds its members from codeword
    indices.  No bounds are checked."""
    space = spaces.AlphabetSpec(spaces.FieldSpec(q), ("x",), (k,))
    members = [frozenset(code.codewords()) for code in spaces.enumerate_codes(space)]
    return lattices.FiniteLattice.from_sets(list(space.vectors()), members)


def closure_key(mask: int) -> int:
    """The support-closure key with no weights: each ideal mask is its own key."""
    return mask


# -- frozen-dataclass twins of the value classes ----------------------------------
# Each has the class name, public fields, order and defaults of a class on
# posets.Value, so its generated eq, hash and repr are the oracle of the base's.
# The names shadow the package's, so this module reads posets.Poset.


@dataclass(frozen=True)
class Poset:
    elements: tuple
    leq: tuple


@dataclass(frozen=True)
class WeightFunction:
    labels: tuple
    values: tuple


@dataclass(frozen=True)
class FieldSpec:
    q: int


@dataclass(frozen=True)
class AlphabetSpec:
    field: object
    labels: tuple
    dims: tuple


@dataclass(frozen=True)
class LinearCode:
    space: object
    basis: tuple


@dataclass(frozen=True)
class Isometry:
    space: object
    poset: object
    lam: tuple
    diag: tuple
    strict: tuple


@dataclass(frozen=True)
class FiniteLattice:
    ground: tuple
    members: tuple


@dataclass(frozen=True)
class Solution:
    left: tuple
    right: tuple


@dataclass(frozen=True)
class MepVerdict:
    holds: bool
    mode: str
    source: str
    complete: bool = True
    counterexample: Optional[tuple] = None
    predicate_trace: Optional[dict] = None


@dataclass(frozen=True)
class ConditionReport:
    blocks_pseudo_injective: bool
    cross_injective: bool
    common_nonzero_block: bool
    udp_matched_dims: bool
    level_matched_dims: bool
    witnesses: tuple = ()
    notes: tuple = ()


@dataclass(frozen=True)
class CyclotomicInteger:
    prime: int
    coeffs: tuple


@dataclass(frozen=True)
class Partition:
    space: object
    ids: tuple


@dataclass(frozen=True)
class MacwilliamsResult:
    holds: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class AuditReport:
    statements: dict
    implication_failures: tuple
    hierarchical: bool
    integer_weights: bool
    all_ones: bool
    block_counts_match: bool


@dataclass(frozen=True)
class Instance:
    poset: object
    omega: object
    space: object
    digest: str


DATACLASS_TWINS = {
    twin.__name__: twin
    for twin in (
        Poset, WeightFunction, FieldSpec, AlphabetSpec, LinearCode, Isometry, FiniteLattice,
        Solution, MepVerdict, ConditionReport, CyclotomicInteger, Partition, MacwilliamsResult,
        AuditReport, Instance,
    )
}
