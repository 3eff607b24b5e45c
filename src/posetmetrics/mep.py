"""MacWilliams extension property: brute-force verdicts, closed forms, and
the canonical level decomposition for hierarchical posets.

Brute force quantifies over every code (skipping the isometry orbit of a code
that held) and every linear map out of it, checks weight (or support-closure)
preservation per codeword, and searches the structured isometry group for an
extension.  Small spaces are indexed densely so the inner loops run on ints:
vectors are classed by the functional's integer key on their closure masks,
and the scan and the orbit check see each group element only as the
permutation it induces on the indexed vectors.  `_indexed_group` composes
those permutations from the group's semidirect factors, with no `Isometry`
and no matrix.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import fields
from .errors import (
    BoundExceeded,
    PredicateUnavailable,
    PropertyViolation,
    ValidationError,
)
from .fields import Matrix, Vector
from .isometries import (
    GROUP_BOUND,
    Isometry,
    SupportFunctional,
    admissible_lams,
    decompose,
    p_support_functional,
    enumerate_group,
    weight_sum_functional,
)
from .posets import Poset, WeightFunction, set_bits, udp_check
from .spaces import VECTOR_BOUND, AlphabetSpec, LinearCode, enumerate_codes, support_classes


# The most entries of a q != 2 addition table (q = 2 adds by xor).
ADD_TABLE_BOUND = 1 << 20


class SpaceIndex:
    """Dense int index of a small space: add/scale tables and per-vector value classes.

    values[t] is the class id of vector t: two vectors share an id exactly
    when the functional gives their supports equal values, so preservation
    checks compare ints.  classes[i] lists the vectors of class i in index
    order.
    """

    def __init__(self, space: AlphabetSpec, poset: Poset, sf: SupportFunctional):
        q, count = space.q, space.vector_count
        if count > VECTOR_BOUND:
            raise BoundExceeded(f"space of {count} vectors exceeds {VECTOR_BOUND}")
        if q != 2 and count * count > ADD_TABLE_BOUND:
            raise BoundExceeded(
                f"addition table of {count * count} entries for q = {q} exceeds {ADD_TABLE_BOUND}"
            )
        self.q = q
        self.vectors = list(space.vectors())
        self.index = {v: t for t, v in enumerate(self.vectors)}
        self.values = support_classes(space, poset, sf.key)
        self.classes: list[list[int]] = [[] for _ in range(max(self.values) + 1)]
        for t, c in enumerate(self.values):
            self.classes[c].append(t)
        self.scale_table = [
            [self.index[fields.vec_scale(q, c, v)] for v in self.vectors] for c in range(q)
        ]
        if q == 2:
            self._add_table = None  # index equals the base-2 digit string, so add is xor
        else:
            self._add_table = [
                [self.index[fields.vec_add(q, a, b)] for b in self.vectors]
                for a in self.vectors
            ]

    def span_indices(self, basis: Sequence[int], spans: Sequence[int] = (0,)) -> list[int]:
        """Indices of all combinations, aligned with lexicographic coefficients.

        spans is the span of a basis prefix, in the same order; the result
        extends it by the given basis vectors.
        """
        add_table = self._add_table
        for b in basis:
            scaled = [row[b] for row in self.scale_table]
            if add_table is None:
                spans = [s ^ sc for s in spans for sc in scaled]
            else:
                spans = [row[sc] for row in map(add_table.__getitem__, spans) for sc in scaled]
        return list(spans)

    def perm_of_matrix(self, matrix: Matrix) -> tuple[int, ...]:
        """Index permutation of a matrix, spanned from its column images.

        Vector t has coordinates equal to its base-q digits, most significant
        first, so its image is the span entry of the columns at t.
        """
        return tuple(self.span_indices([self.index[col] for col in zip(*matrix)]))


@dataclass(frozen=True)
class MepVerdict:
    holds: bool
    mode: str  # "weight" | "support"
    source: str  # "brute-force" | "predicate"
    complete: bool = True
    counterexample: Optional[tuple[LinearCode, tuple[Vector, ...]]] = None
    predicate_trace: Optional[dict] = None


def preserves(
    space: AlphabetSpec, sf: SupportFunctional, code: LinearCode, images: Sequence[Vector]
) -> bool:
    """Does the map sending the code's basis rows to images keep the
    functional's value on the support of every codeword?"""
    n = space.total_dim
    for coeffs, vec in code.coefficient_pairs():
        image = fields.combine(space.q, images, coeffs, n)
        if sf.evaluate(space.support(image)) != sf.evaluate(space.support(vec)):
            return False
    return True


def preserves_weight(
    space: AlphabetSpec,
    poset: Poset,
    omega: WeightFunction,
    code: LinearCode,
    images: Sequence[Vector],
) -> bool:
    return preserves(space, weight_sum_functional(poset, omega), code, images)


def _functional_for(poset: Poset, omega: Optional[WeightFunction], mode: str) -> SupportFunctional:
    if mode == "support":
        return p_support_functional(poset)
    if omega is None:
        raise ValidationError("weight mode needs a weight function")
    return weight_sum_functional(poset, omega)


def extend_to_isometry(
    space: AlphabetSpec,
    poset: Poset,
    omega: WeightFunction,
    code: LinearCode,
    images: Sequence[Vector],
) -> Optional[Isometry]:
    """Search the weight isometry group for an isometry restricting to the map.

    A hit is replayed on every codeword before being returned.
    """
    basis = code.basis
    for iso in enumerate_group(space, poset, weight_sum_functional(poset, omega)):
        if all(iso.apply(b) == tuple(img) for b, img in zip(basis, images)):
            n = space.total_dim
            for coeffs, vec in code.coefficient_pairs():
                if iso.apply(vec) != fields.combine(space.q, images, coeffs, n):
                    raise PropertyViolation("extension replay failed on a codeword")
            return iso
    return None


def mep_brute_force(
    space: AlphabetSpec,
    poset: Poset,
    omega: Optional[WeightFunction] = None,
    mode: str = "weight",
    max_dim: Optional[int] = None,
    map_bound: int = 1 << 19,
) -> MepVerdict:
    """Quantify over codes (by ascending dimension) and all linear maps.

    Returns the first counterexample in (code dimension, code RREF, image
    tuple) order, so failures are deterministic regression artifacts.  When
    max_dim cuts the scan short and no counterexample was found, the verdict
    is marked complete=False.

    A code gC in the orbit of a code C that held is skipped (f on gC extends
    to F iff f o g on C extends to F o g).  Only orbits of codes that held are
    marked, so the first failing code and its counterexample are unchanged.

    Weight-preserving maps are automatically injective (only the zero vector
    has weight zero), so no injectivity filter is applied or needed.
    """
    si, perms = _indexed_group(space, poset, _functional_for(poset, omega, mode))
    # columns[t][g] is the image of vector t under the g-th group element
    columns = list(zip(*perms))
    count = len(si.vectors)
    n = space.total_dim
    top = n if max_dim is None else min(max_dim, n)
    held: set[frozenset[int]] = set()  # spans of the orbits of codes that held
    for code in enumerate_codes(space, max_dim=top):
        d = code.dim
        if d == 0:
            continue
        if count**d > map_bound:
            raise BoundExceeded(
                f"{count ** d} candidate maps at dimension {d} exceed the bound "
                f"{map_bound}; raise it with --bound"
            )
        basis_idx = [si.index[b] for b in code.basis]
        span = frozenset(si.span_indices(basis_idx))
        if span in held:
            continue
        reachable = set(zip(*(columns[b] for b in basis_idx)))
        images = _first_unreachable_map(si, basis_idx, reachable)
        if images is not None:
            image_vectors = tuple(si.vectors[t] for t in images)
            return MepVerdict(
                holds=False,
                mode=mode,
                source="brute-force",
                complete=True,
                counterexample=(code, image_vectors),
            )
        held.update(frozenset(map(p.__getitem__, span)) for p in perms)
    return MepVerdict(holds=True, mode=mode, source="brute-force", complete=(top >= n))


def _indexed_group(
    space: AlphabetSpec, poset: Poset, sf: SupportFunctional
) -> tuple[SpaceIndex, list[tuple[int, ...]]]:
    """The space's dense index and each group element's index permutation
    (perm[t] indexes the image of vector t); every bound fires before the work.

    Every element is P u.  P = P(lam, D) sends block i into block lam(i) by
    the invertible D_i.  u = I + X lies in the unipotent group U of strict
    blocks (k, i), k strictly below i.  With X_i the part of X in block column
    i, X_a X_b = 0 unless a is strictly below b, so taking the factors
    C_i = {I + X_i} top-down gives U = C_top ... C_bottom with no cross terms.
    Each P and each factor element is spanned once from its column indices;
    every other element is a composite of those permutations.  A column's
    index is the plain sum of its blocks' base-q digit values, which is exact
    because the blocks fill disjoint digits.
    """
    si = SpaceIndex(space, poset, sf)
    lams = admissible_lams(space, poset, sf, GROUP_BOUND)
    q, n = space.q, space.total_dim
    bounds = [space._block_bounds[label] for label in poset.elements]
    # place[i][t]: index of the vector holding block vector t in block i and zeros elsewhere
    place = [[t * q ** (n - stop) for t in range(q ** (stop - start))] for start, stop in bounds]
    units = [q ** (n - 1 - c) for c in range(n)]  # index of the c-th unit vector
    diag_columns = []  # the columns of each invertible block, as block vector indices
    for start, stop in bounds:
        matrices = fields.invertible_matrices(q, stop - start)
        diag_columns.append([tuple(fields.vec_index(q, c) for c in zip(*m)) for m in matrices])
    outer = []  # the permutations of P(lam, D)
    for lam in lams:
        for diag in itertools.product(*diag_columns):
            columns = [0] * n
            for (start, stop), image, block_columns in zip(bounds, lam, diag):
                columns[start:stop] = map(place[image].__getitem__, block_columns)
            outer.append(tuple(si.span_indices(columns)))
    inner = [tuple(range(len(si.vectors)))]  # the permutations of U
    for i in reversed(poset._linear_extension()):
        below = [0]  # indices of the vectors supported strictly below block i
        for k in set_bits(poset.strictly_below(i)):
            below = [a + b for a in below for b in place[k]]
        if len(below) == 1:
            continue
        start, stop = bounds[i]
        factor = []
        for lows in itertools.product(below, repeat=stop - start):
            columns = units[:]
            columns[start:stop] = map(operator.add, units[start:stop], lows)
            factor.append(tuple(si.span_indices(columns)))
        inner = [tuple(map(a.__getitem__, c)) for a in inner for c in factor]
    return si, [tuple(map(p.__getitem__, u)) for p in outer for u in inner]


def _first_unreachable_map(
    si: SpaceIndex, basis_idx: Sequence[int], reachable: set[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """The first class-preserving basis-image tuple outside reachable.

    Tuples come in itertools.product order over the classes of the basis
    vectors.  Images are chosen one basis vector at a time, and a prefix is
    dropped as soon as an element of its span leaves the class of the
    matching codeword: every completion of it would fail the same check.
    """
    values = si.values
    # targets[k]: classes of the span of the first k + 1 basis vectors
    targets, span = [], (0,)
    for b in basis_idx:
        span = si.span_indices((b,), span)
        targets.append(list(map(values.__getitem__, span)))
    allowed = [si.classes[values[b]] for b in basis_idx]

    def search(images: tuple[int, ...], prefix_span: list[int]) -> Optional[tuple[int, ...]]:
        k = len(images)
        if k == len(basis_idx):
            return None if images in reachable else images
        for img in allowed[k]:
            img_span = si.span_indices((img,), prefix_span)
            if list(map(values.__getitem__, img_span)) == targets[k]:
                found = search(images + (img,), img_span)
                if found is not None:
                    return found
        return None

    return search((), [0])


# -- closed forms ---------------------------------------------------------------


def level_class_bound(
    space: AlphabetSpec, poset: Poset, omega: WeightFunction
) -> tuple[bool, Optional[tuple[int, Fraction, tuple[str, ...]]]]:
    """Per level and weight value: blocks are lines, or the class has at most q labels."""
    q = space.q
    for r, level in enumerate(poset.level_sets(), start=1):
        classes: dict[Fraction, list[str]] = {}
        for label in level:
            classes.setdefault(omega.of(label), []).append(label)
        for b, labels in classes.items():
            if all(space.dim_of(l) == 1 for l in labels):
                continue
            if len(labels) > q:
                return False, (r, b, tuple(sorted(labels)))
    return True, None


@dataclass(frozen=True)
class ConditionReport:
    """The five alphabet/poset conditions, with failure witnesses.

    The first three are decided by the instantiation: finite-dimensional
    blocks over a prime field are pseudo-injective and injective over each
    other, and the one-dimensional field embeds in every nonzero block.
    """

    blocks_pseudo_injective: bool
    cross_injective: bool
    common_nonzero_block: bool
    udp_matched_dims: bool
    level_matched_dims: bool
    witnesses: tuple[tuple[str, object], ...] = ()
    notes: tuple[str, ...] = ()


def condition_report(space: AlphabetSpec, poset: Poset, omega: WeightFunction) -> ConditionReport:
    witnesses: list[tuple[str, object]] = []
    udp_ok, udp_witness = udp_check(poset, omega)
    if not udp_ok:
        witnesses.append(("udp_matched_dims", udp_witness))
    dims_ok, dims_witness = _matched_dims(space, poset, omega)
    if udp_ok and not dims_ok:
        witnesses.append(("udp_matched_dims", dims_witness))
    level_ok = poset.is_hierarchical
    if not level_ok:
        witnesses.append(("level_matched_dims", poset.hierarchy_violation()))
    level_dims_ok, level_dims_witness = _level_dims(space, poset)
    if level_ok and not level_dims_ok:
        witnesses.append(("level_matched_dims", level_dims_witness))
    return ConditionReport(
        blocks_pseudo_injective=True,
        cross_injective=True,
        common_nonzero_block=all(k >= 1 for k in space.dims),
        udp_matched_dims=udp_ok and dims_ok,
        level_matched_dims=level_ok and level_dims_ok,
        witnesses=tuple(witnesses),
        notes=(
            "blocks_pseudo_injective, cross_injective: true by instantiation "
            "(finite-dimensional blocks over a prime field)",
        ),
    )


def _matched_dims(space: AlphabetSpec, poset: Poset, omega: WeightFunction):
    """Equal (level, weight) pairs must carry equal block dimensions."""
    seen: dict[tuple[int, Fraction], tuple[str, int]] = {}
    for label in poset.elements:
        key = (poset.level(label), omega.of(label))
        k = space.dim_of(label)
        if key in seen and seen[key][1] != k:
            return False, (seen[key][0], label)
        seen.setdefault(key, (label, k))
    return True, None


def _level_dims(space: AlphabetSpec, poset: Poset):
    for level in poset.level_sets():
        dims = {space.dim_of(l) for l in level}
        if len(dims) > 1:
            return False, tuple(sorted(level))
    return True, None


def mep_predicate(space: AlphabetSpec, poset: Poset, omega: WeightFunction) -> MepVerdict:
    """Closed-form verdict where one exists.

    For all-ones weights: hierarchical with matched level dims, plus the per
    level class bound.  For hierarchical posets and general weights: UDP with
    matched dims, plus the class bound.  Otherwise no closed form is known
    and the call refuses rather than guessing.
    """
    bound_ok, bound_witness = level_class_bound(space, poset, omega)
    report = condition_report(space, poset, omega)
    if omega.is_all_ones:
        holds = report.level_matched_dims and bound_ok
        trace = {
            "route": "unweighted",
            "level_matched_dims": report.level_matched_dims,
            "level_class_bound": bound_ok,
            "bound_witness": bound_witness,
        }
    elif poset.is_hierarchical:
        holds = report.udp_matched_dims and bound_ok
        trace = {
            "route": "hierarchical",
            "udp_matched_dims": report.udp_matched_dims,
            "level_class_bound": bound_ok,
            "bound_witness": bound_witness,
        }
    else:
        raise PredicateUnavailable(
            "no closed form for a non-hierarchical poset with non-constant weights; "
            "run the brute-force check instead"
        )
    return MepVerdict(
        holds=holds, mode="weight", source="predicate", predicate_trace=trace
    )


def mep_p_support_predicate(space: AlphabetSpec, poset: Poset) -> MepVerdict:
    """Support-closure MEP always holds over a prime field alphabet."""
    return MepVerdict(
        holds=True,
        mode="support",
        source="predicate",
        predicate_trace={
            "route": "division-ring alphabet",
            "note": "finite-dimensional blocks over a field always extend "
            "support-preserving maps",
        },
    )


def single_orbit_check(
    space: AlphabetSpec, poset: Poset, omega: WeightFunction
) -> tuple[bool, Optional[tuple[Vector, Vector]]]:
    """Does the isometry group act transitively on each equal-weight class?"""
    si, perms = _indexed_group(space, poset, weight_sum_functional(poset, omega))
    count = len(si.vectors)
    root = list(range(count))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for perm in perms:
        for t in range(count):
            ra, rb = find(t), find(perm[t])
            if ra != rb:
                root[ra] = rb
    first = [members[0] for members in si.classes]
    for t, value in enumerate(si.values):
        if find(first[value]) != find(t):
            return False, (si.vectors[first[value]], si.vectors[t])
    return True, None


# -- canonical decomposition ------------------------------------------------------


def canonical_decomposition(
    space: AlphabetSpec, poset: Poset, code: LinearCode
) -> tuple[Isometry, list[LinearCode]]:
    """Straighten a code into level-supported summands with a support-preserving map.

    Returns (phi, [B_1, ..., B_r]) where r is the least level prefix holding
    the code: phi fixes every vector supported above level r, phi maps the
    code onto the direct sum of the B_j, and B_j lives inside level j's
    coordinates.  Requires a hierarchical poset.

    One RREF of the basis, with the columns ordered by level from the top
    down (position order inside a level), shows the whole structure: every
    reduced row is t + l, with t on its pivot's level and l on lower levels.
    B_j is the span of the level-j tops, which is the level-j projection of
    the codewords vanishing above level j, so the parts are unique.  sigma_j
    is the identity minus each such l placed in its pivot's column: it sends
    t + l to t and fixes every vector vanishing on level j.  phi is
    sigma_1 ... sigma_r, replayed through `decompose`.
    """
    if not poset.is_hierarchical:
        raise ValidationError("canonical decomposition needs a hierarchical poset")
    if code.dim == 0:
        return Isometry.identity(space, poset), []
    q = space.q
    n = space.total_dim
    level_of = [0] * n
    for label in poset.elements:
        for t in space.block_range(label):
            level_of[t] = poset.level(label)
    order = sorted(range(n), key=lambda t: -level_of[t])
    reduced, pivots = fields.rref(q, [[row[t] for t in order] for row in code.basis])
    r = level_of[order[pivots[0]]]
    tops: list[list[list[int]]] = [[] for _ in range(r)]
    sigmas = [[list(row) for row in fields.identity_matrix(n)] for _ in range(r)]
    for reduced_row, pivot in zip(reduced, pivots):
        column = order[pivot]
        j = level_of[column]
        top = [0] * n
        for t, x in zip(order, reduced_row):
            if level_of[t] == j:
                top[t] = x
            else:  # zero above level j, so only the tail l lands in sigma_j
                sigmas[j - 1][t][column] = -x % q
        tops[j - 1].append(top)
    parts = [LinearCode.from_rows(space, rows) for rows in tops]
    if sum(part.dim for part in parts) != code.dim:
        raise PropertyViolation("decomposition did not exhaust the code")
    phi_matrix = fields.identity_matrix(n)
    for sigma in sigmas:  # phi = sigma_1 ... sigma_r
        phi_matrix = fields.mat_mul(q, phi_matrix, sigma)
    phi = decompose(space, poset, phi_matrix, p_support_functional(poset))
    return phi, parts
