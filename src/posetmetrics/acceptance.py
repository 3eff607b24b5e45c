"""The acceptance grid: every exit criterion as a replayable check.

Each criterion returns (passed, details).  The runner times them and keeps
one line per criterion, so failures point straight at the broken claim.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import ValidationError

if TYPE_CHECKING:
    from .fourier import Partition
    from .lattices import FiniteLattice
    from .posets import Poset, WeightFunction
    from .spaces import AlphabetSpec

# The criteria import the engine modules they run, so importing this module
# (as the command line does for every command) imports none of them.

LABELS = ("a", "b", "c", "d", "e")
POSET_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}


class CriterionResult:
    def __init__(self, key: str, title: str, passed: bool, details: str, elapsed_s: float) -> None:
        self.key = key
        self.title = title
        self.passed = passed
        self.details = details
        self.elapsed_s = elapsed_s

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} criterion {self.key}: {self.title} ({self.elapsed_s:.1f}s) {self.details}"


def _labeled_posets(n: int) -> list[Poset]:
    from .posets import all_posets_on

    posets = list(all_posets_on(LABELS[:n]))
    expected = POSET_COUNTS.get(n)
    if expected is not None and len(posets) != expected:
        raise AssertionError(f"poset generator produced {len(posets)} != {expected} for n={n}")
    return posets


def criterion_mep_predicate(max_elements: int = 3) -> tuple[bool, str]:
    """Brute-force extension verdicts match the closed form on every small poset."""
    from .mep import condition_report, level_class_bound, mep_brute_force, mep_predicate
    from .posets import WeightFunction
    from .spaces import AlphabetSpec, FieldSpec

    n = min(max_elements, 3)
    field = FieldSpec(2)
    checked = 0
    for poset in _labeled_posets(n):
        space = AlphabetSpec.uniform(field, poset.elements, 1)
        omega = WeightFunction.ones(poset.elements)
        brute = mep_brute_force(space, poset, omega)
        report = condition_report(space, poset, omega)
        bound_ok, _ = level_class_bound(space, poset, omega)
        expected = poset.is_hierarchical and report.level_matched_dims and bound_ok
        closed = mep_predicate(space, poset, omega)
        if brute.holds != expected or closed.holds != expected or not brute.complete:
            return False, f"mismatch on {poset.elements} relation {poset.leq}"
        checked += 1
    return True, f"{checked} posets, brute force == closed form"


def criterion_threshold_sharpness() -> tuple[bool, str]:
    """Two equal planes extend; three do not, with a replayable counterexample,
    while every weaker statement holds on them with no implication failure:
    the MEP is strictly stronger."""
    from .fourier import coding_property_audit
    from .mep import extend_to_isometry, mep_brute_force, preserves_weight
    from .posets import Poset, WeightFunction
    from .spaces import AlphabetSpec, FieldSpec

    field = FieldSpec(2)
    pair = Poset.antichain(("a", "b"))
    space2 = AlphabetSpec.uniform(field, pair.elements, 2)
    verdict2 = mep_brute_force(space2, pair, WeightFunction.ones(pair.elements))
    if not (verdict2.holds and verdict2.complete):
        return False, "extension property failed at two blocks"
    triple = Poset.antichain(("a", "b", "c"))
    space3 = AlphabetSpec.uniform(field, triple.elements, 2)
    omega3 = WeightFunction.ones(triple.elements)
    verdict3 = mep_brute_force(space3, triple, omega3, max_dim=3)
    if verdict3.holds or verdict3.counterexample is None:
        return False, "no counterexample found at three blocks"
    code, images = verdict3.counterexample
    if not preserves_weight(space3, triple, omega3, code, images):
        return False, "counterexample does not preserve weight"
    if extend_to_isometry(space3, triple, omega3, code, images) is not None:
        return False, "counterexample unexpectedly extends"
    weaker = ("single_orbit", "udp_matched_dims", "dual_partition_match",
              "macwilliams_identity", "fourier_reflexive")
    audit = coding_property_audit(space3, triple, omega3)
    failing = [name for name in weaker if not audit.statements[name]]
    if audit.statements["mep"] or failing or audit.implication_failures:
        return False, (f"audit at n=3: mep {audit.statements['mep']}, failing {failing}, "
                       f"implication failures {list(audit.implication_failures)}")
    return True, (
        f"holds at n=2; fails at n=3 with a dim-{code.dim} code counterexample, "
        f"where all {len(weaker)} weaker statements hold"
    )


def criterion_module_threshold() -> tuple[bool, str]:
    """Computed minimal lengths match the product formula; minimality verified."""
    from .lattices import (
        construct_minimal_solution,
        is_solution,
        is_trivial,
        matrix_module_min_length,
        nontrivial_solutions_up_to,
        subspace_lattice,
    )

    cases = ((2, 1, 2, 3), (3, 1, 2, 4), (5, 1, 2, 6), (2, 2, 3, 15))
    for q, e, k, expected in cases:
        value = matrix_module_min_length(q, e, k)
        if value != expected:
            return False, f"threshold for q={q}, e={e}, k={k} is {value}, wanted {expected}"
        lattice = subspace_lattice(q, k)
        top = frozenset(lattice.ground)
        solution = construct_minimal_solution(lattice, top)
        if not is_solution(solution) or is_trivial(solution):
            return False, f"constructed solution invalid for q={q}, k={k}"
        if e == 1 and solution.length != (expected, expected):
            return False, f"solution length {solution.length} != {expected} for q={q}"
    lattice22 = subspace_lattice(2, 2)
    if any(True for _ in nontrivial_solutions_up_to(lattice22, 2)):
        return False, "a nontrivial solution shorter than 3 exists over F_2^2"
    shortest = next(iter(nontrivial_solutions_up_to(lattice22, 3)), None)
    if shortest is None or shortest.length != (3, 3):
        return False, "exhaustive search failed to find the length-3 solution"
    return True, "thresholds 3, 4, 6, 15; exhaustive search confirms 3 over F_2^2"


def _omega_variants(poset: Poset) -> list[WeightFunction]:
    from .posets import WeightFunction, powers_of_two_weight

    labels = poset.elements
    ones = WeightFunction.ones(labels)
    pow2 = powers_of_two_weight(poset)
    mixed = WeightFunction(
        labels,
        tuple(Fraction(1, 2) if t % 2 == 0 else Fraction(1) for t in range(len(labels))),
    )
    return [ones, pow2, mixed]


def _group_grid() -> list[tuple[AlphabetSpec, Poset, WeightFunction]]:
    from .posets import Poset
    from .spaces import AlphabetSpec, FieldSpec

    grid = []
    for q in (2, 3):
        field = FieldSpec(q)
        shapes: list[tuple[Poset, tuple[int, ...]]] = []
        one = Poset.chain(("a",))
        shapes += [(one, (1,)), (one, (2,)), (one, (3,))]
        for make in (Poset.chain, Poset.antichain):
            two = make(("a", "b"))
            shapes += [(two, (1, 1)), (two, (1, 2)), (two, (2, 1))]
            shapes += [(make(("a", "b", "c")), (1, 1, 1))]
        vee = Poset.from_covers(("a", "b", "c"), [("a", "b"), ("a", "c")])
        wedge = Poset.from_covers(("a", "b", "c"), [("a", "c"), ("b", "c")])
        shapes += [(vee, (1, 1, 1)), (wedge, (1, 1, 1))]
        for poset, dims in shapes:
            space = AlphabetSpec(field, poset.elements, dims)
            for omega in _omega_variants(poset):
                grid.append((space, poset, omega))
    return grid


def criterion_isometry_group_structure() -> tuple[bool, str]:
    """Structured enumeration equals the brute-force group; every element
    moves closures by its label map, so the label-map projection is a
    homomorphism, with the closure-preserving elements as kernel."""
    from .isometries import (
        _action_table,
        brute_force_isometries,
        weight_isometry_group,
        weight_sum_functional,
    )
    from .posets import set_bits
    from .spaces import vector_masks

    instances = _group_grid()
    for space, poset, omega in instances:
        q = space.q
        group = weight_isometry_group(space, poset, omega)
        brute = brute_force_isometries(space, poset, weight_sum_functional(poset, omega))
        structured = {iso.matrix for iso in group}
        if len(structured) != len(group) or structured != set(brute):
            return False, (
                f"group mismatch q={q} dims={space.dims} poset={poset.elements}"
                f" ({len(group)} structured vs {len(brute)} brute)"
            )
        # the label maps apart from the group's coloured search: the plain one, filtered
        colours = list(zip(omega.scaled(poset.elements), space.dims))
        admissible = {lam for lam in poset.automorphisms() if [colours[j] for j in lam] == colours}
        if {iso.lam for iso in group} != admissible:
            return False, f"label-map image mismatch for dims={space.dims}"
        # GL_N(F_q) acts faithfully, so an element is its matrix's place in the
        # oracle's kept table, whose columns there give its images' closure masks
        masks = tuple(vector_masks(space, poset._down))  # the closure mask of each vector
        matrices, columns = _action_table(q, space.total_dim)
        places = [bisect_left(matrices, iso.matrix) for iso in group]
        images = list(zip(*[map(masks.__getitem__, map(c.__getitem__, places)) for c in columns]))
        kernel = {g for g, iso in zip(places, group) if iso.lam == tuple(range(len(iso.lam)))}
        if kernel != {g for g, image in zip(places, images) if image == masks}:
            return False, f"kernel mismatch for dims={space.dims}"
        if len(group) != len(kernel) * len(admissible):
            return False, f"order != kernel * image for dims={space.dims}"
        # g sends closure(v) to lam_g(closure(v)) for every v; on the principal
        # ideals this gives lam_gh = lam_g lam_h over the whole group
        moved = {lam: tuple(sum(1 << lam[i] for i in set_bits(m)) for m in masks) for lam in admissible}
        if any(image != moved[iso.lam] for iso, image in zip(group, images)):
            return False, "label map disagrees with the action on closures"
    return True, f"{len(instances)} instances, sets equal and projection multiplicative"


def criterion_canonical_decomposition(max_elements: int = 3) -> tuple[bool, str]:
    """Every code over a small hierarchical poset straightens and replays."""
    from .mep import canonical_decomposition
    from .spaces import AlphabetSpec, FieldSpec, LinearCode, enumerate_codes

    field = FieldSpec(2)
    checked = 0
    for n in range(1, min(max_elements, 3) + 1):
        for poset in _labeled_posets(n):
            if not poset.is_hierarchical:
                continue
            space = AlphabetSpec.uniform(field, poset.elements, 1)
            levels = poset.level_sets()
            for code in enumerate_codes(space):
                phi, parts = canonical_decomposition(space, poset, code)
                if phi.lam != tuple(range(n)):
                    return False, "straightening map permutes labels"
                image_rows = [phi.apply(row) for row in code.basis]
                image = LinearCode.from_rows(space, image_rows)
                combined = LinearCode.from_rows(
                    space, [row for part in parts for row in part.basis]
                )
                if image != combined:
                    return False, f"image != sum of parts on {poset.elements}"
                if sum(part.dim for part in parts) != code.dim:
                    return False, "dimension not preserved"
                for level_index, part in enumerate(parts, start=1):
                    allowed = levels[level_index - 1]
                    for row in part.basis:
                        if not space.support(row) <= allowed:
                            return False, "part leaks outside its level"
                depth = len(parts)
                for label in poset.elements:
                    if poset.level(label) > depth:
                        for t in space.block_range(label):
                            unit = tuple(1 if s == t else 0 for s in range(space.total_dim))
                            if phi.apply(unit) != unit:
                                return False, "upper levels not fixed pointwise"
                checked += 1
    return True, f"{checked} (poset, code) decompositions replayed"


def _nonhierarchical_example() -> Poset:
    from .posets import Poset

    return Poset.from_covers(("a", "b", "c"), [("a", "b")])


def criterion_macwilliams_dichotomy() -> tuple[bool, str]:
    """Identity verified on chain and antichain, refuted on the mixed poset."""
    from .fourier import macwilliams_identity_check, weight_partition
    from .posets import Poset, WeightFunction
    from .spaces import AlphabetSpec, FieldSpec

    field = FieldSpec(2)
    for make in (Poset.chain, Poset.antichain):
        poset = make(("a", "b", "c"))
        space = AlphabetSpec.uniform(field, poset.elements, 1)
        result = macwilliams_identity_check(space, poset, WeightFunction.ones(poset.elements))
        if not result.holds:
            return False, f"identity failed on {make.__name__}"
    poset = _nonhierarchical_example()
    space = AlphabetSpec.uniform(field, poset.elements, 1)
    omega = WeightFunction.ones(poset.elements)
    result = macwilliams_identity_check(space, poset, omega)
    if result.holds or result.witness is None:
        return False, "identity unexpectedly held on the non-hierarchical poset"
    first, second = result.witness
    reversed_order = weight_partition(space, poset.dual(), omega)
    primal = weight_partition(space, poset, omega)
    same_front = reversed_order.distribution(first.codewords()) == reversed_order.distribution(
        second.codewords()
    )
    different_back = primal.distribution(first.dual().codewords()) != primal.distribution(
        second.dual().codewords()
    )
    if not (same_front and different_back):
        return False, "witness pair does not replay"
    return True, "identity holds on chain/antichain, refuted with replayable witness"


def _transform_matches(space: AlphabetSpec, partition: Partition) -> bool:
    """Every exact character sum over a block, at every alpha and nontrivial
    scale, equals the integer the dual partition's support transform gives."""
    from .fourier import CyclotomicInteger, character_sum, support_transforms

    supports, sums = support_transforms(space, partition)
    pad, blocks = (0,) * (space.q - 2), partition.blocks
    return all(
        character_sum(space, block, alpha, scale) == CyclotomicInteger(space.q, (sums[s][b],) + pad)
        for alpha, s in zip(space.vectors(), supports)
        for b, block in enumerate(blocks)
        for scale in range(1, space.q)
    )


def criterion_fourier_reflexivity() -> tuple[bool, str]:
    """Double dual returns the weight partition exactly when expected; the
    dual's support transform replays against the exact character sums."""
    from .fourier import is_fourier_reflexive, weight_partition
    from .posets import Poset, WeightFunction
    from .spaces import AlphabetSpec, FieldSpec

    field = FieldSpec(2)
    for make in (Poset.chain, Poset.antichain):
        poset = make(("a", "b", "c"))
        space = AlphabetSpec.uniform(field, poset.elements, 1)
        partition = weight_partition(space, poset, WeightFunction.ones(poset.elements))
        if not _transform_matches(space, partition):
            return False, f"character sums differ from the support transform on {make.__name__}"
        if not is_fourier_reflexive(space, partition):
            return False, f"reflexivity failed on {make.__name__}"
    poset = _nonhierarchical_example()
    space = AlphabetSpec.uniform(field, poset.elements, 1)
    partition = weight_partition(space, poset, WeightFunction.ones(poset.elements))
    if not _transform_matches(space, partition):
        return False, "character sums differ from the support transform on the mixed poset"
    if is_fourier_reflexive(space, partition):
        return False, "reflexivity unexpectedly held on the non-hierarchical poset"
    field3 = FieldSpec(3)
    triple = Poset.antichain(("a", "b"))
    space3 = AlphabetSpec.uniform(field3, triple.elements, 1)
    partition3 = weight_partition(space3, triple, WeightFunction.ones(triple.elements))
    if not _transform_matches(space3, partition3):
        return False, "character sums differ from the support transform over F_3"
    if not is_fourier_reflexive(space3, partition3):
        return False, "reflexivity failed over F_3"
    return True, "reflexive on chain/antichain, not on the mixed poset; characters agree"


def criterion_udp_hierarchy(max_elements: int = 5) -> tuple[bool, str]:
    """All-ones weights: unique decomposition is exactly hierarchy."""
    from .posets import WeightFunction, udp_check

    total = 0
    for n in range(1, min(max_elements, 5) + 1):
        for poset in _labeled_posets(n):
            holds, _witness = udp_check(poset, WeightFunction.ones(poset.elements))
            if holds != poset.is_hierarchical:
                return False, f"mismatch on {poset.elements} relation {poset.leq}"
            total += 1
    return True, f"{total} posets, unique decomposition == hierarchy"


# Criterion 9 draws this many random intersection-closed families.
RANDOM_FAMILIES = 60


def _random_intersection_family(rng: random.Random) -> FiniteLattice:
    from .lattices import FiniteLattice

    size = rng.randint(1, 5)
    ground = tuple(range(size))
    members = {frozenset(ground)}
    for _ in range(rng.randint(1, 6)):
        members.add(frozenset(x for x in ground if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                if a & b not in members:
                    members.add(a & b)
                    changed = True
    return FiniteLattice.from_sets(ground, members)


def criterion_moebius_identities(seed: int = 20260808) -> tuple[bool, str]:
    """Signed indicator identity holds pointwise on every tested family."""
    from .lattices import moebius_indicator_identity, subspace_lattice

    rng = random.Random(seed)
    lattices = [_random_intersection_family(rng) for _ in range(RANDOM_FAMILIES)]
    for q in (2, 3, 5, 7, 11, 13):
        k = 1
        while q ** (k + 1) <= 81:
            k += 1
        for kk in range(1, k + 1):
            lattices.append(subspace_lattice(q, kk))
    for prime in (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79):
        lattices.append(subspace_lattice(prime, 1))
    members_checked = 0
    for lattice in lattices:
        for member in lattice.members:
            identity_ok, split_ok, _generators = moebius_indicator_identity(lattice, member)
            if not identity_ok or not split_ok:
                return False, f"identity failed at a member of size {len(member)}"
            members_checked += 1
    return True, f"{members_checked} members across {len(lattices)} lattices"


def criterion_support_weight_bridge(max_elements: int = 3) -> tuple[bool, str]:
    """Doubling weights make weight classes the closure classes and the two
    brute-force isometry groups coincide."""
    from .isometries import brute_force_isometries, weight_isometry_group, weight_sum_functional
    from .posets import powers_of_two_weight
    from .spaces import AlphabetSpec, FieldSpec

    field = FieldSpec(2)
    for poset in _labeled_posets(min(max_elements, 3)):
        space = AlphabetSpec.uniform(field, poset.elements, 1)
        omega = powers_of_two_weight(poset)
        by_weight: dict[Fraction, set] = {}
        by_closure: dict[frozenset, set] = {}
        for vec in space.vectors():
            closure = poset.ideal_closure(space.support(vec))
            by_weight.setdefault(omega.total(closure), set()).add(vec)
            by_closure.setdefault(closure, set()).add(vec)
        if set(map(frozenset, by_weight.values())) != set(map(frozenset, by_closure.values())):
            return False, f"weight classes differ from closure classes on {poset.leq}"
        weight_group = set(
            map(tuple, brute_force_isometries(space, poset, weight_sum_functional(poset, omega)))
        )
        # the support side keys each closure by its own mask, with no weights
        support_group = set(map(tuple, brute_force_isometries(space, poset, lambda mask: mask)))
        if weight_group != support_group:
            return False, f"groups differ on {poset.leq}"
        structured = {iso.matrix for iso in weight_isometry_group(space, poset, omega)}
        if structured != weight_group:
            return False, f"structured group differs on {poset.leq}"
    return True, "19 posets, weight classes and groups match the support versions"


CRITERIA: tuple[tuple[str, str, Callable], ...] = (
    ("1", "extension property equals its closed form on all 3-element posets", criterion_mep_predicate),
    ("2", "two equal planes extend, three do not (sharp threshold)", criterion_threshold_sharpness),
    ("3", "minimal nontrivial solution lengths match the product formula", criterion_module_threshold),
    ("4", "structured isometry groups equal brute force with multiplicative label maps", criterion_isometry_group_structure),
    ("5", "canonical level decomposition replays on every small hierarchical code", criterion_canonical_decomposition),
    ("6", "duality identity holds on hierarchical posets and fails with witness otherwise", criterion_macwilliams_dichotomy),
    ("7", "weight partitions are Fourier-reflexive exactly for hierarchical instances", criterion_fourier_reflexivity),
    ("8", "unique decomposition under unit weights is exactly hierarchy (all posets to 5)", criterion_udp_hierarchy),
    ("9", "signed indicator identities hold on random families and subspace lattices", criterion_moebius_identities),
    ("10", "doubling weights reduce weight questions to support questions", criterion_support_weight_bridge),
)


def run_acceptance(
    keys: Optional[Sequence[str]] = None,
    max_elements: Optional[int] = None,
    seed: Optional[int] = None,
) -> list[CriterionResult]:
    wanted = set(keys) if keys else None
    known = [key for key, _title, _fn in CRITERIA]
    unknown = sorted(wanted - set(known)) if wanted else []
    if unknown:
        raise ValidationError(
            f"unknown criterion keys: {', '.join(map(repr, unknown))}; "
            f"valid keys: {', '.join(known)}"
        )
    results = []
    for key, title, fn in CRITERIA:
        if wanted is not None and key not in wanted:
            continue
        kwargs = {}
        if max_elements is not None and key in {"1", "5", "8", "10"}:
            kwargs["max_elements"] = max_elements
        if seed is not None and key == "9":
            kwargs["seed"] = seed
        start = time.perf_counter()
        passed, details = fn(**kwargs)
        results.append(
            CriterionResult(key, title, passed, details, time.perf_counter() - start)
        )
    return results
