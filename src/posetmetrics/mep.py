"""MacWilliams extension property: brute-force verdicts, closed forms, and
the canonical level decomposition for hierarchical posets.

Brute force quantifies over every code (skipping the isometry orbit of a code
that held) and every linear map out of it, checks weight (or support-closure)
preservation per codeword, and searches the structured isometry group for an
extension block by block, without listing it.  Vectors are indexed densely
and classed by the integer weight key of their closure masks (support
closure is the weight with doubling weights, whose key is the mask itself).
A linear map keeps the weight exactly when it keeps every vector's class,
so the scan depends on the weighting only through its class partition of
the closure masks (`spaces.mask_classes`), computed first: with dims >= 1
every principal ideal is the closure of a unit vector, so the partition
fixes the label maps, the group, the held sets, the verdict and its counts.
A label permutation keeping the dims carries the codes, maps and isometries
of one labeling onto another's, so answers are kept per class of questions
for the last KEPT_QUESTIONS classes, under q, the top dimension, the map
and group bounds and a canonical form of (dims, down sets, partition)
(`_class_key`); past KEY_SEARCH_BOUND the class is one labeling, keyed by
position.  A record (failing basis and images by vector index, or None;
codes read and decided; group order; map-bound refusal) is rebuilt on the
caller's space with no group, index or table work (trace "verdict":
"kept").  A holding verdict and a map-bound refusal read and decide the
same counts under every labeling, and answer them all; a failing verdict's
counterexample is the first in its own labeling's scan order, so it
answers that labeling alone, until another labeling's failing scan takes
the class's one record.  Group- and table-bound refusals keep nothing.

The group is the label maps acting on a kernel K(P) of block maps, which
is transitive on the vectors of one closure mask, so lines (codes of
dimension 1) and the orbit check are decided on the label maps' orbits of
masks (`_mask_orbit`).  Only a wider code fetches the group (`_scan_group`),
as a table of columns: column t holds the image of vector t under every
element, packed as 16-bit indices, spanned factor by factor with no
`Isometry` and no matrix and joined one factor at a time.  The kernel
depends only on the order and the block dims, so its table is kept per (q,
dims, down sets), for the last `spaces.CACHED_SHAPES`, up to
KEPT_TABLE_BOUND entries (2 MB); the group's table is joined over it for
each scan.  Spans read one addition table (xor at q = 2).

A wider code is decided on the stabilizer chain of its basis (`_holds_on`):
only the images of the identity prefix at each level are looked at, a level
whose class is its basis vector's orbit is skipped before its tables are
built, and only a failing code gets the leaf search for its counterexample.
A held wider code's orbit is marked in one pass over the table's columns at
its vectors, into the scan's held spans; a shape past the code bound keeps
no span table.  The label maps are searched once per class partition of the
poset (`Poset.automorphisms`) and shared by the scan, the extension search and
the orbit check (`isometries.admissible_lams`).  Codes come from
`enumerate_codes` as index tuples, and a code's span is read from the span
table of its shape (q, N) in `spaces.shape_tables`, spanned only on a miss.

The closed form (`mep_predicate`) picks its route, all-ones weights or a
hierarchical poset, before it computes any condition, and refuses any other
question; the route reads its condition from one `condition_report`.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Container, Iterator, Optional, Sequence

from . import fields
from .errors import (
    BoundExceeded,
    MapBoundExceeded,
    PredicateUnavailable,
    PropertyViolation,
    ValidationError,
    count_text,
)
from .fields import Matrix, Vector
from .isometries import (
    GROUP_BOUND,
    Isometry,
    Key,
    _all_blocks,
    _check_label_order,
    _strict_pairs,
    admissible_lams,
    build_isometry,
    group_order,
    weight_sum_functional,
)
from .posets import Perm, Poset, Value, WeightFunction, set_bits, udp_check
from .spaces import (
    CACHED_SHAPES, VECTOR_BOUND, AlphabetSpec, LinearCode, enumerate_codes, mask_classes,
    shape_tables, support_classes, weight,
)


# The most entries of a q != 2 addition table (q = 2 adds by xor).
ADD_TABLE_BOUND = 1 << 20
# The most entries |G| x q^N of the group's listed index permutations.
GROUP_TABLE_BOUND = 1 << 27
# The most entries |K| x q^N of a kernel table kept across scans (2 MB of
# 16-bit entries); a larger one is built, read and dropped.
KEPT_TABLE_BOUND = 1 << 20
# The default bound on a code dimension d's candidate maps, (q^N)^d (`mep --bound`).
MAP_BOUND = 1 << 19
# The most label orders x 2^n mask renamings the canonical key of a question
# tries (`_class_key`); past it the question is kept by position alone.  On
# a 2-vCPU VM (Python 3.11) the unit 4-antichain's 384 took 0.18 ms, and the
# 5-antichain's 3,840 took 2 ms, as long as a cold scan of it to dimension 1.
KEY_SEARCH_BOUND = 1 << 9
# The most question classes whose records are kept (`_kept_verdict`).
KEPT_QUESTIONS = 256


class SpaceIndex:
    """Dense int index of a small space: an addition table and per-vector value classes.

    values[t] is the class id of vector t: two vectors share an id exactly
    when the key gives their closure masks equal ints, so preservation
    checks compare ints.  classes[i] lists the vectors of class i in index
    order; given values, they are taken as the class ids already computed.
    """

    def __init__(self, space: AlphabetSpec, poset: Poset, key: Key, values: Optional[list] = None):
        SpaceIndex.check_bounds(space)
        self.q = q = space.q
        self.vectors = list(space.vectors())
        self.values = support_classes(space, poset, key) if values is None else values
        self.classes: list[list[int]] = [[] for _ in range(max(self.values) + 1)]
        for t, c in enumerate(self.values):
            self.classes[c].append(t)
        # Index t spells vector t in base-q digits, most significant first, and
        # adding acts digit by digit, so the table grows one digit at a time:
        # prefix index p and digit d make index p * q + d.
        if q == 2:
            self._add_table = None  # add is xor of the digit strings
        else:
            table = [[0]]
            for _ in range(space.total_dim):
                table = [[s * q + (x + y) % q for s in row for y in range(q)]
                         for row in table for x in range(q)]
            self._add_table = table

    @staticmethod
    def check_bounds(space: AlphabetSpec) -> None:
        """Refuse a space over the vector bound, or over the addition table's."""
        if space.vectors_over(VECTOR_BOUND):
            raise BoundExceeded(f"space of {space.vector_count_text} vectors exceeds {VECTOR_BOUND}")
        q, count = space.q, space.vector_count
        if q != 2 and count * count > ADD_TABLE_BOUND:
            raise BoundExceeded(
                f"addition table of {count_text(count * count)} entries for q = {q} "
                f"exceeds {ADD_TABLE_BOUND}"
            )

    def span_indices(self, basis: Sequence[int], spans: Sequence[int] = (0,)) -> list[int]:
        """Indices of all combinations, aligned with lexicographic coefficients.

        spans is the span of a basis prefix, in the same order; the result
        extends it by the given basis vectors.
        """
        add_table = self._add_table
        for b in basis:
            if add_table is None:
                spans = [s ^ sc for s in spans for sc in (0, b)]
            else:
                plus_b, scaled = add_table[b], [0]  # the multiples c b, c = 0..q-1
                for _ in range(self.q - 1):
                    scaled.append(plus_b[scaled[-1]])
                spans = [row[sc] for row in map(add_table.__getitem__, spans) for sc in scaled]
        return list(spans)

    def perm_of_matrix(self, matrix: Matrix) -> tuple[int, ...]:
        """Index permutation of a matrix, spanned from its column images.

        Vector t has coordinates equal to its base-q digits, most significant
        first, so its image is the span entry of the columns at t.
        """
        return tuple(self.span_indices([fields.vec_index(self.q, col) for col in zip(*matrix)]))


class MepVerdict(Value):
    __match_args__ = ("holds", "complete", "counterexample", "predicate_trace")

    def __init__(
        self, holds: bool, complete: bool = True,
        counterexample: Optional[tuple[LinearCode, tuple[Vector, ...]]] = None,
        predicate_trace: Optional[dict] = None,
    ) -> None:
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "predicate_trace", predicate_trace)


def _check_images(space: AlphabetSpec, code: LinearCode, images: Sequence[Vector]) -> None:
    """Refuse a map that is not one vector of the space per basis row."""
    if len(images) != code.dim:
        raise ValidationError(f"{len(images)} images for a code of dimension {code.dim}")
    n, q = space.total_dim, space.q
    for image in images:
        if len(image) != n or not all(isinstance(x, int) and 0 <= x < q for x in image):
            raise ValidationError(f"image {tuple(image)} is not a vector of F_{q}^{n}")


def preserves_weight(
    space: AlphabetSpec,
    poset: Poset,
    omega: WeightFunction,
    code: LinearCode,
    images: Sequence[Vector],
) -> bool:
    """Does the map sending the code's basis rows to images keep the exact
    (Fraction) weight of every codeword?  Independent of the integer keys."""
    _check_images(space, code, images)
    n = space.total_dim
    for coeffs, vec in code.coefficient_pairs():
        image = fields.combine(space.q, images, coeffs, n)
        if weight(space, poset, omega, image) != weight(space, poset, omega, vec):
            return False
    return True


def extend_to_isometry(
    space: AlphabetSpec,
    poset: Poset,
    omega: WeightFunction,
    code: LinearCode,
    images: Sequence[Vector],
) -> Optional[Isometry]:
    """The first weight isometry in `enumerate_group` order restricting to the map.

    Searched block by block, never listed: output block j of an element
    reads only its slots D_i (lam(i) = j) and the strict blocks (a, j).  Per
    lam, block j takes the first product of its slots that maps block j of
    each basis vector onto block j of its image; the first element of a
    product of independent slot groups is each group's first, so these picks
    are the full scan's first hit.  Only that hit becomes an `Isometry`,
    replayed on every codeword.
    """
    _check_images(space, code, images)
    lams = admissible_lams(space, poset, weight_sum_functional(poset, omega), GROUP_BOUND)
    q, dims = space.q, space.dims
    blocks = [slice(*space._block_bounds[label]) for label in poset.elements]
    invertibles = [fields.invertible_matrices(q, k) for k in dims]
    for lam in lams:
        pairs = _strict_pairs(poset, lam)
        diag, chosen = [None] * len(lam), {}
        for j, out in enumerate(blocks):
            i = lam.index(j)
            feeders = [a for a, target in pairs if target == j]
            slots = [invertibles[i], *(_all_blocks(q, (dims[j], dims[a])) for a in feeders)]
            # block row j of the element, [D_i | strict blocks], meets the inputs it reads
            parts = [sum((b[blocks[a]] for a in (i, *feeders)), ()) for b in code.basis]
            wanted = [tuple(image[out]) for image in images]
            pick = next((choice for choice in itertools.product(*slots) if all(
                fields.mat_vec(q, [sum(rows, ()) for rows in zip(*choice)], part) == w
                for part, w in zip(parts, wanted)
            )), None)
            if pick is None:
                break
            diag[i] = pick[0]
            chosen.update(zip(((a, j) for a in feeders), pick[1:]))
        else:
            strict = tuple((a, j, chosen[a, j]) for a, j in pairs)
            iso = Isometry(space, poset, lam, tuple(diag), strict)
            for coeffs, vec in code.coefficient_pairs():
                if iso.apply(vec) != fields.combine(q, images, coeffs, space.total_dim):
                    raise PropertyViolation("extension replay failed on a codeword")
            return iso
    return None


def mep_brute_force(
    space: AlphabetSpec,
    poset: Poset,
    omega: WeightFunction,
    max_dim: Optional[int] = None,
    map_bound: int = MAP_BOUND,
    trace: Optional[dict] = None,
) -> MepVerdict:
    """Quantify over codes (by ascending dimension) and all linear maps that
    keep the omega-weight; support closure is omega = powers_of_two_weight(poset).

    Returns the first counterexample in (code dimension, code RREF, image
    tuple) order, so failures are deterministic regression artifacts.  When
    max_dim cuts the scan short and no counterexample was found, the verdict
    is marked complete=False.

    After the space and label checks the class partition comes first, and a
    question whose verdict or map-bound refusal is kept (module notes) is
    answered from it; otherwise `_scanned_record` scans.

    A given trace dict gets the key the record is kept by ("canonical" or
    "positional"), the group's order, whether its kernel was built or kept
    and its table built ("none" for both when no table was fetched), the
    nonzero codes read, the codes decided and whether the verdict was
    "scanned" or "kept"; a map-bound refusal writes the two counts before it
    raises.  Maps keeping the weight are injective (only 0 has weight 0), so
    none is filtered.
    """
    key = weight_sum_functional(poset, omega)
    SpaceIndex.check_bounds(space)
    _check_label_order(space, poset)
    masks, class_of_mask = mask_classes(space, poset, key)
    n = space.total_dim
    top = n if max_dim is None else min(max_dim, n)
    bounds = (space.q, top, map_bound, GROUP_BOUND, GROUP_TABLE_BOUND)
    positional = (*bounds, space.dims, poset._down, tuple(class_of_mask.values()))
    canonical = _class_key(poset, space.dims, class_of_mask)
    if trace is not None:
        trace["key"] = "positional" if canonical is None else "canonical"
    holder = _kept_verdict(*(positional if canonical is None else (*bounds, canonical)))
    record = holder.get(None) or holder.get(positional)
    status = "kept" if record else "scanned"
    if record is None:
        record = _scanned_record(space, poset, key, masks, class_of_mask, top, map_bound, trace)
        holder.clear()  # one record a class: a failing one is its last labeling's
        holder[positional if record[0] else None] = record
    elif trace is not None:  # a kept record does no group work
        trace.update(group_order=record[4], kernel="none", group_table="none")
    failing, images, read, decided, _, refusal = record
    if trace is not None:
        trace.update(codes_read=read, codes_decided=decided)
    if refusal is not None:
        raise MapBoundExceeded(refusal)
    if trace is not None:
        trace["verdict"] = status
    if failing is None:
        return MepVerdict(holds=True, complete=(top >= n))
    vectors = [_vector(space, t) for t in (*failing, *images)]
    code = LinearCode(space, tuple(vectors[:len(failing)]))
    return MepVerdict(holds=False, counterexample=(code, tuple(vectors[len(failing):])))


def _scanned_record(
    space: AlphabetSpec, poset: Poset, key: Key, masks: list[int], class_of_mask: dict[int, int],
    top: int, map_bound: int, trace: Optional[dict],
) -> tuple:
    """Scan the codes up to dimension top, after the label maps and the
    table's entry bound; the record (failing basis, its images, as vector
    indices, or None twice; codes read; codes decided; group order; the
    map-bound refusal's message or None).  A code gC in the orbit of a code
    C that held is skipped (f on gC extends to F iff f o g on C extends to
    F o g), so the first failing code and its counterexample are unchanged.

    A line <b> is decided on masks.  With I b's closure mask, the diagonal
    GL_{k_m} at each maximal m of I sends b_m to any nonzero u_m, and a
    strict block (k, m), k strictly below m, sets block k to anything: K b
    is every vector of closure mask I, and G b = Lambda K b every vector
    whose mask lies in Lambda I (`_mask_orbit`).  Every x in b's class keeps
    the weight on <b> (c x has x's support), so <b> holds exactly when
    Lambda I is its class's masks, whose lines are then one orbit, and
    otherwise the first unreachable image is the class's first vector whose
    mask lies outside Lambda I.

    The first wider code, after its map-bound check, fetches the group
    (`_scan_group`); each is decided by `_holds_on`, and only a code it
    rejects gets the leaf search.  A held code marks its orbit's spans
    held (`_orbit_spans`), and a code whose span is marked is skipped.  Only
    sets of images are read.
    """
    lams = admissible_lams(space, poset, key, GROUP_BOUND)
    count = len(masks)
    entries = _checked_entries(space, poset, len(lams), count)
    order = entries // count
    if trace is not None:  # until a wider code fetches the group
        trace.update(group_order=order, kernel="none", group_table="none")
    sizes = Counter(class_of_mask.values())  # Lambda keeps the key, so Lambda I lies in I's class
    held_classes: set[int] = set()  # the classes whose lines held
    held: set[frozenset[int]] = set()  # the spans of the wider orbits that held
    decided, si = 0, None
    tables = shape_tables(space.q, space.total_dim)
    spans = {} if tables is None else tables[1]  # a shape past the code bound keeps no span
    for read, basis_idx in enumerate(enumerate_codes(space, max_dim=top, indices=True)):
        d = len(basis_idx)  # the zero code is read first and never decided
        if d == 0:
            continue
        if count**d > map_bound:
            return None, None, read, decided, order, (
                f"{count_text(count**d)} candidate maps at dimension {d} exceed the bound {map_bound}")
        if d == 1:
            mask = masks[basis_idx[0]]
            c = class_of_mask[mask]
            if c in held_classes:
                continue
            orbit = _mask_orbit(lams, mask)
            if len(orbit) < sizes[c]:
                image = next(t for t, m in enumerate(masks) if class_of_mask[m] == c and m not in orbit)
                return basis_idx, (image,), read, decided + 1, order, None
            held_classes.add(c)
            decided += 1
            continue
        if si is None:
            values = list(map(class_of_mask.__getitem__, masks))
            si, columns = _scan_group(space, poset, key, lams, entries, trace, values)
        span = spans.get(basis_idx)
        if span is None:
            span = frozenset(si.span_indices(basis_idx))
            if tables is not None:
                spans[basis_idx] = span
        if span in held:
            continue
        if not _holds_on(si, basis_idx, columns):
            reachable = set(zip(*map(columns.__getitem__, basis_idx)))
            images = _first_unreachable_map(si, basis_idx, reachable)
            return basis_idx, images, read, decided + 1, order, None
        held.update(_orbit_spans(columns, span))
        decided += 1
    return None, None, read, decided, order, None


def _mask_orbit(lams: Sequence[Perm], mask: int) -> set[int]:
    """The label maps' images of an ideal mask (P(lam, I) sends block i to
    block lam(i)): a vector's orbit is the vectors whose closure masks lie
    in its mask's (`_scanned_record`)."""
    bits = list(set_bits(mask))
    return {sum([1 << lam[i] for i in bits]) for lam in lams}


def _vector(space: AlphabetSpec, t: int) -> Vector:
    """Vector t of the space: its base-q digits, most significant first."""
    return tuple(t // space.q**e % space.q for e in reversed(range(space.total_dim)))


def _class_key(poset: Poset, dims: tuple[int, ...], class_of_mask: dict[int, int]) -> Optional[tuple]:
    """A canonical form of the order, block dims and class partition of the
    closure masks, or None when its search passes KEY_SEARCH_BOUND.  Two
    questions share it exactly when a label permutation keeping the dims
    carries one's down sets and classes onto the other's.

    The labels are sorted by what a relabeling keeps (block dim, down-set
    size, up-set size, the size of its principal ideal's class), and each
    order of the labels within equal invariants renames every mask through
    one table over the 2^n masks.  The form is the sorted invariants and the
    least (renamed down sets by new position, sorted renamed classes).
    """
    down, n = poset._down, len(dims)
    sizes = Counter(class_of_mask.values())
    invariants = [(k, d.bit_count(), u.bit_count(), sizes[class_of_mask[d]])
                  for k, d, u in zip(dims, down, poset._up)]
    ranked = sorted(range(n), key=invariants.__getitem__)
    runs = [tuple(run) for _, run in itertools.groupby(ranked, key=invariants.__getitem__)]
    if math.prod(math.factorial(len(run)) for run in runs) << n > KEY_SEARCH_BOUND:
        return None
    classes: dict[int, list[int]] = {}
    for mask, c in class_of_mask.items():
        classes.setdefault(c, []).append(mask)
    best = None
    for picks in itertools.product(*map(itertools.permutations, runs)):
        order = [i for pick in picks for i in pick]  # order[p]: the label renamed p
        bits = [0] * n
        for p, i in enumerate(order):
            bits[i] = 1 << p
        renamed = [0]
        for bit in bits:
            renamed += [mask | bit for mask in renamed]
        downs = tuple([renamed[down[i]] for i in order])
        if best is None or downs <= best[0]:
            form = (downs, tuple(sorted(tuple(sorted(map(renamed.__getitem__, members)))
                                        for members in classes.values())))
            best = form if best is None else min(best, form)
    return tuple(sorted(invariants)), best


@lru_cache(maxsize=KEPT_QUESTIONS)
def _kept_verdict(*key) -> dict:
    """The record of one question class: a holding verdict or a map-bound
    refusal under None, for every labeling, or the last failing verdict
    scanned, under its labeling's positional key."""
    return {}


def _orbit_spans(
    columns: Sequence[Sequence[int]], span: frozenset[int]
) -> Iterator[frozenset[int]]:
    """The span's images under the group.  Row g of the span's columns
    spells g's image of the span, and elements that agree on the span give
    equal rows, so each row is made a set once."""
    return map(frozenset, set(zip(*map(columns.__getitem__, span))))


def _checked_entries(space: AlphabetSpec, poset: Poset, lam_count: int, count: int) -> int:
    """The entries |G| x count of the group table, refused over
    GROUP_TABLE_BOUND; |G| is the kept kernel order times the label maps."""
    entries = group_order(space, poset, 1, GROUP_BOUND) * lam_count * count
    if entries > GROUP_TABLE_BOUND:
        raise BoundExceeded(f"group index table of {entries} entries exceeds {GROUP_TABLE_BOUND}")
    return entries


def _coordinates(space: AlphabetSpec, poset: Poset) -> tuple[list[tuple[int, int]], list[int]]:
    """Each block's coordinate bounds, and the index of the c-th unit vector."""
    n = space.total_dim
    return ([space._block_bounds[label] for label in poset.elements],
            [space.q ** (n - 1 - c) for c in range(n)])


def _label_map_columns(space: AlphabetSpec, poset: Poset, lams: Sequence[Perm]) -> list[list[int]]:
    """Each P(lam, I)'s columns: block i takes the units of block lam(i)."""
    bounds, units = _coordinates(space, poset)
    return [[c for image in lam for c in units[slice(*bounds[image])]] for lam in lams]


def _kernel_columns(space: AlphabetSpec, poset: Poset) -> list[list[list[int]]]:
    """The kernel's factors as column lists: a GL_{k_i} on block i per block,
    then the unipotent factors C_i top-down.  With X_i the part of a strict
    X in block column i, X_a X_b = 0 unless a is strictly below b, so the
    C_i = {I + X_i} top-down give the unipotent group of strict blocks with
    no cross terms, and each product of one pick per factor arises once."""
    q, n = space.q, space.total_dim
    bounds, units = _coordinates(space, poset)
    # place[i][t]: index of the vector holding block vector t in block i and zeros elsewhere
    place = [[t * q ** (n - stop) for t in range(q ** (stop - start))] for start, stop in bounds]
    factors = [
        [units[:start] + [block[fields.vec_index(q, c)] for c in zip(*m)] + units[stop:]
         for m in fields.invertible_matrices(q, stop - start)]
        for (start, stop), block in zip(bounds, place)
    ]
    for i in reversed(poset._linear_extension()):
        lows = [0]  # indices of the vectors supported strictly below block i
        for k in set_bits(poset.strictly_below(i)):
            lows = [a + b for a in lows for b in place[k]]
        start, stop = bounds[i]
        if len(lows) > 1:
            factors.append([
                units[:start] + list(map(operator.add, units[start:stop], low)) + units[stop:]
                for low in itertools.product(lows, repeat=stop - start)
            ])
    return factors


def _spanned(si: SpaceIndex, factors: Sequence[Sequence[list[int]]]) -> list[list[array]]:
    """The factors' elements as index permutations (16-bit entries), spanned
    from their columns; a one-element factor is the identity and is dropped
    before it is spanned."""
    return [[array("H", si.span_indices(columns)) for columns in factor]
            for factor in factors if len(factor) > 1]


def _joined(count: int, factors: Sequence[Sequence[array]]) -> list[bytes]:
    """The raw columns of the factors' products over count vectors.  The
    table starts as the identity (column t holds t as a native 16-bit entry)
    and takes each factor in turn, the factor's element f as the outer index
    over the elements g so far: g o f sends t to g(f(t)), so the new column t
    is the old columns at f[t] joined over the factor's column t, one byte
    join per column with no entry unpacked."""
    table = [t.to_bytes(2, sys.byteorder) for t in range(count)]
    for factor in factors:
        table = [b"".join(map(table.__getitem__, column)) for column in zip(*factor)]
    return table


@lru_cache(maxsize=CACHED_SHAPES)
def _kept_kernel(q: int, dims: tuple[int, ...], down: tuple[int, ...]) -> list:
    """The holder of the kernel table of one order and block dims, filled by
    its first reader: the kernel K(P) depends on neither the weight nor the
    labels' names."""
    return []


def _scan_group(
    space: AlphabetSpec, poset: Poset, key: Key, lams: Sequence[Perm], entries: int,
    trace: Optional[dict] = None, values: Optional[list] = None,
) -> tuple[SpaceIndex, list[memoryview]]:
    """The space's dense index (on the given class ids, if any) and the
    column table of the group of the label maps lams over the kernel, whose
    entries |G| x q^N the caller has checked (`_checked_entries`).

    columns[t][g] is the index of the image of vector t under the g-th group
    element, as native unsigned 16-bit entries (indices stay below
    VECTOR_BOUND = 2^16).  The table is the label maps joined over the
    kernel's columns: for each entry x of the kernel's column t, in order,
    the images of x under every label map, so element g is p o k.  The
    kernel table starts as the identity and takes its factors one at a time
    (`_joined`), so it is f_1 o f_2 o ... with `_kernel_columns`' factors in
    their order.  Every reader reads only sets of images, so no verdict,
    counterexample or digest depends on the order.

    The kernel is kept per (q, dims, down-set masks), for the last
    `spaces.CACHED_SHAPES`, up to KEPT_TABLE_BOUND entries; the table is
    joined for each call.  The label maps' permutations are folded into one
    packed row per vector before the table is joined; one label map leaves
    the kernel as it is.
    """
    si = SpaceIndex(space, poset, key, values)
    kept = entries // len(lams) <= KEPT_TABLE_BOUND
    kernel = _kept_kernel(space.q, space.dims, poset._down) if kept else []
    if trace is not None:
        trace.update(kernel="kept" if kernel else "built", group_table="built")
    count = len(si.vectors)
    if not kernel:
        table = _joined(count, _spanned(si, _kernel_columns(space, poset)))
        kernel.append([memoryview(column).cast("H") for column in table])
    columns = kernel[0]
    if len(lams) > 1:  # row x: x's images under every label map
        rows = _joined(count, _spanned(si, [_label_map_columns(space, poset, lams)]))
        columns = [memoryview(b"".join(map(rows.__getitem__, kernel_column))).cast("H")
                   for kernel_column in columns]
    return si, columns


def _levels(
    si: SpaceIndex, basis_idx: Sequence[int]
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Per basis position k: the span of the first k basis vectors, the
    classes the span of the first k + 1 must keep, and the vectors of the
    class image k is drawn from."""
    values = si.values
    spans, targets = [[0]], []
    for b in basis_idx:
        spans.append(si.span_indices((b,), spans[-1]))
        targets.append(list(map(values.__getitem__, spans[-1])))
    return spans, targets, [si.classes[values[b]] for b in basis_idx]


def _first_leaf_outside(
    si: SpaceIndex,
    allowed: Sequence[Sequence[int]],
    targets: Sequence[list[int]],
    images: tuple[int, ...],
    prefix_span: list[int],
    reachable: Container[tuple[int, ...]],
) -> Optional[tuple[int, ...]]:
    """The first class-preserving completion of the image prefix outside reachable.

    Completions come in itertools.product order over allowed.  Images are
    chosen one basis vector at a time, and a prefix is dropped as soon as an
    element of its span leaves the class of the matching codeword: every
    completion of it would fail the same check.
    """
    k = len(images)
    if k == len(allowed):
        return None if images in reachable else images
    values = si.values
    for img in allowed[k]:
        img_span = si.span_indices((img,), prefix_span)
        if list(map(values.__getitem__, img_span)) == targets[k]:
            found = _first_leaf_outside(si, allowed, targets, images + (img,), img_span, reachable)
            if found is not None:
                return found
    return None


def _first_unreachable_map(
    si: SpaceIndex, basis_idx: Sequence[int], reachable: set[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """The first class-preserving basis-image tuple outside reachable, in
    itertools.product order over the classes of the basis vectors."""
    _, targets, allowed = _levels(si, basis_idx)
    return _first_leaf_outside(si, allowed, targets, (), [0], reachable)


def _holds_on(si: SpaceIndex, basis_idx: Sequence[int], columns: Sequence[Sequence[int]]) -> bool:
    """Is every class-preserving basis-image tuple the basis's image under
    some group element?  Decided on the basis's stabilizer chain.

    An element g reaching the prefix (x_1..x_k) moves the subtree of the
    identity prefix (b_1..b_k) onto that prefix's subtree, leaf for leaf and
    reachable onto reachable, so only the identity prefix's children need a
    look.  Its child x is reachable exactly when x lies in O_k, the orbit of
    b_{k+1} under the elements fixing b_1..b_k, and then its subtree has an
    unreachable leaf exactly when level k + 1 has one.  A class-preserving
    child outside O_k is unreachable with its whole subtree, which is bad
    exactly when it has a class-preserving completion.  So the code holds iff
    no level k has such a child; levels are looked at from the bottom up.
    Isometries keep classes, so O_k lies in b_{k+1}'s class: a level whose
    class is O_k (a singleton class included) is skipped, and the level
    tables are built only at the first level whose class is wider.
    """
    values, classes = si.values, si.classes
    fixers = [range(len(columns[0]))]  # fixers[k]: the elements fixing b_1..b_k
    for b in basis_idx[:-1]:
        column = columns[b]
        fixers.append([g for g in fixers[-1] if column[g] == b])
    levels = None
    for k in reversed(range(len(basis_idx))):
        b, width = basis_idx[k], len(classes[values[basis_idx[k]]])
        orbit = {b} if width == 1 else set(map(columns[b].__getitem__, fixers[k]))
        if len(orbit) == width:
            continue
        levels = levels or _levels(si, basis_idx)
        spans, targets, allowed = levels
        prefix = tuple(basis_idx[:k])
        for x in allowed[k]:
            if x in orbit:
                continue
            x_span = si.span_indices((x,), spans[k])
            if list(map(values.__getitem__, x_span)) == targets[k] and (
                _first_leaf_outside(si, allowed, targets, prefix + (x,), x_span, ()) is not None
            ):
                return False
    return True


# -- closed forms ---------------------------------------------------------------


def level_class_bound(
    space: AlphabetSpec, poset: Poset, omega: WeightFunction
) -> tuple[bool, Optional[tuple[int, Fraction, tuple[str, ...]]]]:
    """Per level and weight value: blocks are lines, or the class has at most q labels.

    Levels are walked in position order, so the witness is the first failing
    class in the order of its first label."""
    q, labels, weights = space.q, poset.elements, omega.scaled(poset.elements)
    for r, level in enumerate(poset._level_masks, start=1):
        classes: dict[int, list[str]] = {}
        for i in set_bits(level):
            classes.setdefault(weights[i], []).append(labels[i])
        for members in classes.values():
            if all(space.dim_of(l) == 1 for l in members):
                continue
            if len(members) > q:
                return False, (r, omega.of(members[0]), tuple(sorted(members)))
    return True, None


class ConditionReport(Value):
    """The five alphabet/poset conditions, with failure witnesses.

    The first three are decided by the instantiation: finite-dimensional
    blocks over a prime field are pseudo-injective and injective over each
    other, and the one-dimensional field embeds in every nonzero block.
    """

    __match_args__ = (
        "blocks_pseudo_injective", "cross_injective", "common_nonzero_block",
        "udp_matched_dims", "level_matched_dims", "witnesses", "notes",
    )

    def __init__(
        self, blocks_pseudo_injective: bool, cross_injective: bool, common_nonzero_block: bool,
        udp_matched_dims: bool, level_matched_dims: bool,
        witnesses: tuple[tuple[str, object], ...] = (), notes: tuple[str, ...] = (),
    ) -> None:
        object.__setattr__(self, "blocks_pseudo_injective", blocks_pseudo_injective)
        object.__setattr__(self, "cross_injective", cross_injective)
        object.__setattr__(self, "common_nonzero_block", common_nonzero_block)
        object.__setattr__(self, "udp_matched_dims", udp_matched_dims)
        object.__setattr__(self, "level_matched_dims", level_matched_dims)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "notes", notes)


def condition_report(space: AlphabetSpec, poset: Poset, omega: WeightFunction) -> ConditionReport:
    """The conditions, each computed once; a failing one adds its witness."""
    udp = _udp_matched_dims(space, poset, omega)
    level = _level_matched_dims(space, poset)
    named = (("udp_matched_dims", udp), ("level_matched_dims", level))
    return ConditionReport(
        blocks_pseudo_injective=True,
        cross_injective=True,
        common_nonzero_block=all(k >= 1 for k in space.dims),
        udp_matched_dims=udp[0],
        level_matched_dims=level[0],
        witnesses=tuple((name, witness) for name, (ok, witness) in named if not ok),
        notes=(
            "blocks_pseudo_injective, cross_injective: true by instantiation "
            "(finite-dimensional blocks over a prime field)",
        ),
    )


def _udp_matched_dims(space: AlphabetSpec, poset: Poset, omega: WeightFunction):
    """UDP, then equal block dims on equal (level, weight) pairs; the witness
    is UDP's, else the first label pair sharing both with unequal dims."""
    ok, witness = udp_check(poset, omega)
    if not ok:
        return ok, witness
    seen: dict[tuple[int, int], tuple[str, int]] = {}
    for label, level, w in zip(poset.elements, poset._levels, omega.scaled(poset.elements)):
        k = space.dim_of(label)
        first, dim = seen.setdefault((level, w), (label, k))
        if dim != k:
            return False, (first, label)
    return True, None


def _level_matched_dims(space: AlphabetSpec, poset: Poset):
    """Hierarchical, then one block dim per level; the witness is the hierarchy
    violation, else the sorted labels of the first level with mixed dims."""
    if not poset.is_hierarchical:
        return False, poset.hierarchy_violation()
    for level in poset._level_masks:
        labels = [poset.elements[i] for i in set_bits(level)]
        if len({space.dim_of(l) for l in labels}) > 1:
            return False, tuple(sorted(labels))
    return True, None


def mep_predicate(
    space: AlphabetSpec, poset: Poset, omega: WeightFunction,
    report: Optional[ConditionReport] = None,
) -> MepVerdict:
    """Closed-form verdict where one exists.

    For all-ones weights: hierarchical with matched level dims, plus the per
    level class bound.  For hierarchical posets and general weights: UDP with
    matched dims, plus the class bound.  Otherwise no closed form is known
    and the call refuses, before any condition is computed, rather than
    guessing.  The route's condition is read from the given report, or from
    one built once the route is known.
    """
    if omega.is_all_ones:
        route, condition = "unweighted", "level_matched_dims"
    elif poset.is_hierarchical:
        route, condition = "hierarchical", "udp_matched_dims"
    else:
        raise PredicateUnavailable(
            "no closed form for a non-hierarchical poset with non-constant weights; "
            "run the brute-force check instead"
        )
    if report is None:
        report = condition_report(space, poset, omega)
    matched = getattr(report, condition)
    bound_ok, bound_witness = level_class_bound(space, poset, omega)
    trace = {"route": route, condition: matched,
             "level_class_bound": bound_ok, "bound_witness": bound_witness}
    return MepVerdict(holds=matched and bound_ok, predicate_trace=trace)


def mep_p_support_predicate(space: AlphabetSpec, poset: Poset) -> MepVerdict:
    """Support-closure MEP always holds over a prime field alphabet."""
    return MepVerdict(
        holds=True,
        predicate_trace={
            "route": "division-ring alphabet",
            "note": "finite-dimensional blocks over a field always extend "
            "support-preserving maps",
        },
    )


def single_orbit_check(
    space: AlphabetSpec, poset: Poset, omega: WeightFunction
) -> tuple[bool, Optional[tuple[Vector, Vector]]]:
    """Does the isometry group act transitively on each equal-weight class?
    Each class is checked against its first vector's mask orbit
    (`_mask_orbit`); the witness is that vector and the first outside it."""
    key = weight_sum_functional(poset, omega)
    SpaceIndex.check_bounds(space)
    lams = admissible_lams(space, poset, key, GROUP_BOUND)
    masks, class_of_mask = mask_classes(space, poset, key)
    orbits: dict[int, tuple[int, set[int]]] = {}  # class -> its first vector and mask orbit
    for t, mask in enumerate(masks):
        c = class_of_mask[mask]
        if c not in orbits:
            orbits[c] = t, _mask_orbit(lams, mask)
        elif mask not in orbits[c][1]:
            return False, (_vector(space, orbits[c][0]), _vector(space, t))
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
    the codewords vanishing above level j, so the parts are unique.  phi is
    the identity minus every tail l in its pivot's column: the product of the
    per-level straightening maps, since a reduced row vanishes in every other
    pivot column.  It is checked by replay on the code's basis.
    """
    if not poset.is_hierarchical:
        raise ValidationError("canonical decomposition needs a hierarchical poset")
    if code.dim == 0:
        return Isometry.identity(space, poset), []
    q = space.q
    n = space.total_dim
    labels = poset.elements
    ranges = [space.block_range(label) for label in labels]
    label_of = [0] * n
    level_of = [0] * n
    for i, label in enumerate(labels):
        for t in ranges[i]:
            label_of[t], level_of[t] = i, poset.level(label)
    order = sorted(range(n), key=lambda t: -level_of[t])
    reduced, pivots = fields.rref(q, [[row[t] for t in order] for row in code.basis])
    r = level_of[order[pivots[0]]]
    tops: list[list[list[int]]] = [[] for _ in range(r)]
    strict: dict[tuple[int, int], list[list[int]]] = {}  # (i, k) -> block i -> k
    for reduced_row, pivot in zip(reduced, pivots):
        column = order[pivot]
        i, j = label_of[column], level_of[column]
        top = [0] * n
        for t, x in zip(order, reduced_row):
            if level_of[t] == j:
                top[t] = x
            elif x:  # zero above level j, so x is an entry of the tail l
                k = label_of[t]
                block = strict.setdefault((i, k), [[0] * len(ranges[i]) for _ in ranges[k]])
                block[t - ranges[k][0]][column - ranges[i][0]] = -x % q
        tops[j - 1].append(top)
    blocks = [(i, k, tuple(map(tuple, block))) for (i, k), block in strict.items()]
    diag = tuple(map(fields.identity_matrix, space.dims))
    phi = build_isometry(space, poset, tuple(range(len(labels))), diag, blocks)
    # every row here already has length N and entries in 0..q-1: no check_vector
    parts = [LinearCode(space, fields.rref(q, rows)[0]) for rows in tops]
    image = LinearCode(space, fields.rref(q, [phi.apply(row) for row in code.basis])[0])
    if image != LinearCode(space, fields.rref(q, [row for rows in tops for row in rows])[0]):
        raise PropertyViolation("phi does not map the code onto the sum of the parts")
    return phi, parts
