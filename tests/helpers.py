"""Small helpers shared by the test modules."""

import functools
import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from posetmetrics import fields, fourier, isometries, lattices, mep, posets, spaces
from posetmetrics.errors import (
    BoundExceeded, GroupBoundExceeded, MapBoundExceeded, PredicateUnavailable, ValidationError,
)
from posetmetrics.isometries import GROUP_BOUND, weight_sum_functional
from posetmetrics.posets import (
    AUTOMORPHISM_BOUND,
    Perm,
    _find_cycle,
    _intransitive_triple,
    count_text,
    powers_of_two_weight,
    set_bits,
)


def apply_perm(poset: posets.Poset, perm: Perm, subset) -> frozenset:
    """The image of a label set under an element permutation of the poset."""
    return frozenset(poset.elements[perm[poset.index(x)]] for x in subset)


def linear_maps(code, space):
    """Every linear map from the code into the space, as tuples of images of
    the code's RREF basis rows."""
    return itertools.product(tuple(space.vectors()), repeat=code.dim)


def key_for(poset: posets.Poset, omega, mode: str):
    """The integer key of a question: the weight key of omega, or of the
    doubling weights in support mode (omega is then unread)."""
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
    members = [frozenset(code.codewords()) for code in enumerate_codes_oracle(space)]
    return lattices.FiniteLattice.from_sets(list(space.vectors()), members)


def moebius_indicator_identity_oracle(
    lattice: lattices.FiniteLattice, above: frozenset
) -> tuple[bool, bool, frozenset]:
    """lattices.moebius_indicator_identity as it was before the generator
    table, kept as its oracle: the generators come from a scan of the ground,
    the positive and negative masses are counted apart, and the identity is
    checked point by point."""
    j = lattice._index(above)
    below, values = lattices.moebius(lattice).columns[j]
    target = lattice._masks[j]
    closures = lattice._point_closure_masks
    generators = frozenset(x for x, c in zip(lattice.ground, closures) if c == target)
    positive = [0] * len(closures)
    negative = [0] * len(closures)
    points = lattice._points
    for i, coeff in zip(below, values):
        counts, weight = (positive, coeff) if coeff > 0 else (negative, -coeff)
        for t in points[i]:
            counts[t] += weight
    identity_ok = all(
        p - n == (c == target) for p, n, c in zip(positive, negative, closures)
    )
    split_ok = (positive == negative) == (not generators)
    return identity_ok, split_ok, generators


def closure_key(mask: int) -> int:
    """The support-closure key with no weights: each ideal mask is its own key."""
    return mask


def compose_perms(outer: Perm, inner: Perm) -> Perm:
    """Permutation sending i to outer[inner[i]]."""
    return tuple(map(outer.__getitem__, inner))


def invert_perm(perm: Perm) -> Perm:
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


@functools.lru_cache(maxsize=8)
def invertible_index_perms(q: int, n: int) -> dict:
    """isometries' brute-force action table as it was: each invertible matrix,
    in `fields` order, mapped to the tuple of its action on indexed vectors.

    The image of v has index sum_r q^(n-1-r) (row_r . v mod q), summed row by
    row from one dot table per row; matrices sharing leading rows share those
    sums.  The oracle of isometries._action_table."""
    matrices = fields.invertible_matrices(q, n)
    if n == 0:
        return dict.fromkeys(matrices, (0,))
    dots = {w: fields.dot_values(q, w) for w in itertools.product(range(q), repeat=n)}
    perms: list[tuple[int, ...]] = []

    def walk(group, r: int, scaled: list[int]) -> None:
        # group: consecutive matrices sharing rows 0..r-1; scaled: q times their sums
        if r == n - 1:
            perms.extend(tuple(map(operator.add, scaled, dots[m[r]])) for m in group)
            return
        for row, sub in itertools.groupby(group, key=operator.itemgetter(r)):
            walk(sub, r + 1, [(s + d) * q for s, d in zip(scaled, dots[row])])

    walk(matrices, 0, [0] * q**n)
    return dict(zip(matrices, perms))


def brute_force_isometries_oracle(space, poset, key) -> list:
    """isometries.brute_force_isometries as it was: matrix by matrix over the
    dict of action tuples, each matrix's scan stopping at the first vector
    whose class it moves.  The oracle of the vector-by-vector filter."""
    isometries.check_action_table(space)
    perms = invertible_index_perms(space.q, space.total_dim)
    values = spaces.support_classes(space, poset, key)
    return [
        m
        for m, perm in perms.items()
        if all(map(operator.eq, map(values.__getitem__, perm), values))
    ]


def criterion_four_oracle() -> tuple[bool, str]:
    """Criterion 4 as it was, kept as the oracle of the closure-action check:
    the structured group equals brute force as a matrix set, the kernel is
    the listed support group, and the label map is checked multiplicative on
    a sample of up to 60 x 60 products, with one fixed b replayed on unit
    vectors.  Reads the isometries module's functions at call time."""
    from posetmetrics.acceptance import _group_grid
    from posetmetrics.fields import vec_index
    from posetmetrics.isometries import (
        brute_force_isometries,
        support_isometry_group,
        weight_automorphisms,
        weight_isometry_group,
        weight_sum_functional,
    )

    instances = _group_grid()
    for space, poset, omega in instances:
        q = space.q
        key = weight_sum_functional(poset, omega)
        structured = weight_isometry_group(space, poset, omega)
        struct_set = {iso.matrix for iso in structured}
        brute = set(brute_force_isometries(space, poset, key))
        if struct_set != brute:
            return False, (
                f"group mismatch q={q} dims={space.dims} poset={poset.elements}"
                f" ({len(struct_set)} structured vs {len(brute)} brute)"
            )
        n = space.total_dim
        perm_of = invertible_index_perms(q, n).get
        pairs = [(perm_of(iso.matrix), iso.lam) for iso in structured]
        to_lam = dict(pairs)
        admissible = set(weight_automorphisms(poset, space, omega))
        if {iso.lam for iso in structured} != admissible:
            return False, f"label-map image mismatch for dims={space.dims}"
        identity_perm = tuple(range(len(poset.elements)))
        kernel = {p for p, lam in to_lam.items() if lam == identity_perm}
        support_set = {perm_of(iso.matrix) for iso in support_isometry_group(space, poset)}
        if kernel != support_set:
            return False, f"kernel mismatch for dims={space.dims}"
        if len(struct_set) != len(support_set) * len(admissible):
            return False, f"order != kernel * image for dims={space.dims}"
        sample = pairs if len(pairs) <= 120 else pairs[:60]
        for a, lam_a in sample:
            if to_lam.get(invert_perm(a)) != invert_perm(lam_a):
                return False, "label map of an inverse disagrees"
            for b, lam_b in sample:
                if to_lam.get(compose_perms(a, b)) != compose_perms(lam_a, lam_b):
                    return False, "label map is not multiplicative"
        units = [tuple(int(s == t) for s in range(n)) for t in range(n)]
        fixed = tuple(range(q**n))
        moved = [(iso, p) for iso, (p, _) in zip(structured, pairs) if p != fixed]
        if moved:
            b, perm_b = moved[0]
            for a, (perm_a, _) in zip(structured, sample):
                product = compose_perms(perm_a, perm_b)
                if any(product[vec_index(q, e)] != vec_index(q, a.apply(b.apply(e))) for e in units):
                    return False, "composite permutation disagrees with the action"
    return True, f"{len(instances)} instances, sets equal and projection multiplicative"


def enumerate_group_oracle(space, poset, key, bound: int = GROUP_BOUND) -> Iterator:
    """isometries.enumerate_group as it was before completed slices were kept
    on the poset: every call lists every element afresh with the Isometry
    constructor.  The oracle of the slice memo.  The constructor builds each
    matrix with the listing's block-row builder (isometries._row_builder), so
    this is not an oracle of the matrices: block_matrix_oracle is."""
    lams = isometries.admissible_lams(space, poset, key, bound)
    q = space.q
    invertibles = [fields.invertible_matrices(q, k) for k in space.dims]
    for lam in lams:
        pairs = isometries._strict_pairs(poset, lam)
        block_shapes = [(space.dims[j], space.dims[i]) for i, j in pairs]
        for diag in itertools.product(*invertibles):
            for strict_choice in itertools.product(
                *(isometries._all_blocks(q, shape) for shape in block_shapes)
            ):
                strict = tuple((i, j, m) for (i, j), m in zip(pairs, strict_choice))
                yield isometries.Isometry(space, poset, lam, diag, strict)


def block_matrix_oracle(iso) -> tuple:
    """An isometry's full matrix as Isometry.matrix built it on first use,
    before the constructor built it: each block's rows pasted into rows of
    zeros at the block offsets of the space.  The oracle of the block-row
    builder, isometries._row_builder."""
    bounds = iso.space._block_bounds
    starts = [bounds[label][0] for label in iso.poset.elements]
    n = iso.space.total_dim
    rows = [[0] * n for _ in range(n)]
    for i, block in enumerate(iso.diag):
        c0 = starts[i]
        for r, row in enumerate(block, starts[iso.lam[i]]):
            rows[r][c0 : c0 + len(row)] = row
    for i, j, block in iso.strict:
        c0 = starts[i]
        for r, row in enumerate(block, starts[j]):
            rows[r][c0 : c0 + len(row)] = row
    return tuple(map(tuple, rows))


def order_factors_oracle(space, poset, lam_count: int, bound: Optional[int] = None) -> Iterator[int]:
    """The factors of the closed-form group order as isometries yielded them
    before isometries.group_order walked them itself, each at least 1: the
    lam choices, q^k - q^i (i < k) per diagonal block, q^(k k') per strict
    block.  With a bound, a factor whose power of two 2^(low e) <= q^e is
    past the bound and 2^64 is not formed: GroupBoundExceeded names it.  The
    oracle of group_order."""
    q, dims, identity = space.q, space.dims, tuple(range(len(poset.elements)))
    low = q.bit_length() - 1  # q^e >= 2^(low e)

    def power(e: int) -> int:
        if bound is not None and low * e >= max(64, bound.bit_length()):
            raise GroupBoundExceeded(
                f"isometry group order reaches at least 2^{low * e}, over the bound {bound}"
            )
        return q**e

    yield lam_count
    for k in dims:
        top = power(k - 1) * q
        yield from (top - q**i for i in range(k))
    yield from (power(dims[i] * dims[j]) for i, j in isometries._strict_pairs(poset, identity))


def order_walk_oracle(space, poset, lam_count: int, bound: Optional[int] = None) -> int:
    """The group order accumulated from order_factors_oracle, refused at the
    first prefix product over the bound, as the walks before
    isometries.group_order refused it."""
    order = None
    for order in itertools.accumulate(
        order_factors_oracle(space, poset, lam_count, bound), operator.mul
    ):
        if bound is not None and order > bound:
            raise GroupBoundExceeded(
                f"isometry group order reaches {count_text(order)}, over the bound {bound}"
            )
    return order


def indexed_group_oracle(space, poset, key) -> tuple:
    """The MEP scan's group as it was before the column table: the space's
    index and every element's index permutation as a tuple, f_1 o f_2 o ...
    folded from mep._group_factors' lists in (lam, D, u) order, the first
    factor's pick varying slowest.  The oracle of the packed columns."""
    si, factors = mep._group_factors(space, poset, key, listed=True)
    listing = [tuple(range(len(si.vectors)))]
    for factor in factors:
        listing = [tuple(map(a.__getitem__, f)) for a in listing for f in factor]
    return si, listing


def indexed_group(space, poset, key) -> tuple:
    """The space's index and the group's column table as the MEP scan reads
    them, kept or built (mep._scan_group, without its orbit memo)."""
    return mep._scan_group(space, poset, key)[:2]


def column_table_oracle(space, poset, key) -> tuple:
    """The MEP scan's table as it was before the kept kernel: the space's index
    and the column table joined from all of mep._group_factors' lists, label
    maps first, built afresh on every call.  The oracle of the kept tables."""
    si, factors = mep._group_factors(space, poset, key, listed=True)
    table = [t.to_bytes(2, sys.byteorder) for t in range(len(si.vectors))]
    for factor in factors:
        table = [b"".join(map(table.__getitem__, column)) for column in zip(*factor)]
    return si, [memoryview(column).cast("H") for column in table]


def held_set_scan_oracle(space, poset, omega, max_dim=None, map_bound=mep.MAP_BOUND):
    """mep.mep_brute_force as it was before the kept group: the oracle's
    table, a held set of every held code's orbit spans, no orbit memo and no
    kept span or code.  The oracle of verdicts, counterexamples and refusals."""
    si, columns = column_table_oracle(space, poset, weight_sum_functional(poset, omega))
    count = len(si.vectors)
    n = space.total_dim
    top = n if max_dim is None else min(max_dim, n)
    held: set = set()
    for basis_idx in enumerate_codes_oracle(space, max_dim=top, indices=True):
        d = len(basis_idx)
        if d == 0:
            continue
        if count**d > map_bound:
            raise MapBoundExceeded(
                f"{count_text(count**d)} candidate maps at dimension {d} exceed the bound {map_bound}"
            )
        span = frozenset(si.span_indices(basis_idx))
        if span in held:
            continue
        if not mep._holds_on(si, basis_idx, columns):
            reachable = set(zip(*(columns[b] for b in basis_idx)))
            images = mep._first_unreachable_map(si, basis_idx, reachable)
            code = spaces.LinearCode(space, tuple(si.vectors[t] for t in basis_idx))
            return mep.MepVerdict(
                holds=False, counterexample=(code, tuple(si.vectors[t] for t in images))
            )
        held.update(mep._orbit_spans(columns, span))
    return mep.MepVerdict(holds=True, complete=(top >= n))


# -- the boolean-matrix poset core, kept as the oracle of the mask core ------------


class MatrixPoset(NamedTuple):
    """What the boolean-matrix constructor kept: the labels and the matrix
    as given, and the down-set and up-set masks it read off the matrix."""

    elements: tuple
    leq: tuple
    down: tuple
    up: tuple


def matrix_poset(elements, leq) -> MatrixPoset:
    """`Poset(elements, leq)` as it was: the matrix kept as given, turned into
    masks and checked on them, raising the first failed check's error."""
    n = len(elements)
    pos = {e: i for i, e in enumerate(elements)}
    if len(pos) != n:
        raise ValidationError("poset labels must be distinct")
    if len(leq) != n or any(len(row) != n for row in leq):
        raise ValidationError("relation matrix shape must match the label count")
    powers = [1 << j for j in range(n)]
    rows = [sum(itertools.compress(powers, row)) for row in leq]
    down = [sum(itertools.compress(powers, column)) for column in zip(*leq)]
    for i, row in enumerate(rows):
        if not row >> i & 1:
            raise ValidationError(f"relation is not reflexive at {elements[i]!r}")
    for i, row in enumerate(rows):
        mutual = row & down[i] & ~(1 << i)
        if mutual:
            raise ValidationError(
                f"relation is not antisymmetric: {elements[i]!r} and "
                f"{elements[next(set_bits(mutual))]!r} are mutually comparable"
            )
    triple = _intransitive_triple(rows)
    if triple is not None:
        i, j, k = (repr(elements[t]) for t in triple)
        raise ValidationError(f"relation is not transitive at ({i}, {j}, {k})")
    return MatrixPoset(elements, leq, tuple(down), tuple(rows))


def rows_matrix(rows, n: int) -> tuple:
    """The boolean matrix of a relation given by row masks."""
    powers = [1 << j for j in range(n)]
    return tuple(tuple([row & p != 0 for p in powers]) for row in rows)


def matrix_from_covers(elements, covers) -> MatrixPoset:
    """`Poset.from_covers` as it was: the cover checks, then the cycle search,
    then the Warshall closure handed to the matrix constructor as a matrix."""
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    adjacency = [[] for _ in range(n)]
    rows = [1 << i for i in range(n)]
    for a, b in covers:
        if a not in index or b not in index:
            raise ValidationError(f"cover ({a!r}, {b!r}) uses an unknown label")
        if a == b:
            raise ValidationError(f"cover ({a!r}, {b!r}) is reflexive")
        adjacency[index[a]].append(index[b])
        rows[index[a]] |= 1 << index[b]
    cycle = _find_cycle(adjacency)
    if cycle is not None:
        names = " < ".join(elements[t] for t in cycle)
        raise ValidationError(f"cover relation contains a cycle: {names}")
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return matrix_poset(elements, rows_matrix(rows, n))


def matrix_posets_on(labels) -> Iterator[MatrixPoset]:
    """`all_posets_on` as it was: every relation choice, filtered by
    transitivity, through the matrix constructor."""
    labels = tuple(labels)
    n = len(labels)
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        rows = [1 << i for i in range(n)]
        for (i, j), state in zip(pairs, states):
            if state == 1:
                rows[i] |= 1 << j
            elif state == 2:
                rows[j] |= 1 << i
        if _intransitive_triple(rows) is None:
            yield matrix_poset(labels, rows_matrix(rows, n))


def prefix_sum_automorphisms(poset: posets.Poset) -> tuple:
    """The automorphism search as it was: the same candidates and bound, with
    the images of the prefix summed again at every node."""
    down, up, n = poset._down, poset._up, len(poset.elements)
    signatures = [(d.bit_count(), u.bit_count(), l) for d, u, l in zip(down, up, poset._levels)]
    estimate = math.prod(math.factorial(signatures.count(s)) for s in set(signatures))
    if estimate > AUTOMORPHISM_BOUND:
        search = f"automorphism search over {count_text(estimate)} candidate permutations"
        raise BoundExceeded(f"{search} exceeds the bound {AUTOMORPHISM_BOUND}")
    candidates = [[j for j, s in enumerate(signatures) if s == t] for t in signatures]

    def extend(perm: Perm, used: int) -> Iterator[Perm]:
        i = len(perm)
        if i == n:
            yield perm
            return
        below = sum(1 << p for k, p in enumerate(perm) if down[i] >> k & 1)
        above = sum(1 << p for k, p in enumerate(perm) if up[i] >> k & 1)
        for j in candidates[i]:
            if not used >> j & 1 and down[j] & used == below and up[j] & used == above:
                yield from extend(perm + (j,), used | 1 << j)

    return tuple(extend((), 0))


# -- the per-poset kernel before it moved to integer keys, peeling and tables --


def relate_from_covers(elements, covers) -> tuple:
    """`Poset.from_covers` as it was: the cover checks, the Warshall closure,
    then the full relation check every constructor ran (reflexivity, then
    antisymmetry naming a cycle of the covers, then transitivity, then
    distinct labels).  Returns (elements, pos, down, up) or raises."""
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    adjacency = [[] for _ in range(n)]
    up = [1 << i for i in range(n)]
    for a, b in covers:
        if a not in index or b not in index:
            raise ValidationError(f"cover ({a!r}, {b!r}) uses an unknown label")
        if a == b:
            raise ValidationError(f"cover ({a!r}, {b!r}) is reflexive")
        adjacency[index[a]].append(index[b])
        up[index[a]] |= 1 << index[b]
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    down = [sum(1 << i for i, row in enumerate(up) if row >> j & 1) for j in range(n)]
    for i, row in enumerate(up):
        if not row >> i & 1:
            raise ValidationError(f"relation is not reflexive at {elements[i]!r}")
    for i, row in enumerate(up):
        if row & down[i] & ~(1 << i):
            names = " < ".join(elements[t] for t in _find_cycle(adjacency))
            raise ValidationError(f"cover relation contains a cycle: {names}")
    triple = _intransitive_triple(up)
    if triple is not None:
        i, j, k = (repr(elements[t]) for t in triple)
        raise ValidationError(f"relation is not transitive at ({i}, {j}, {k})")
    if len(index) != n:
        raise ValidationError("poset labels must be distinct")
    return elements, index, tuple(down), tuple(up)


def linear_extension_levels(poset: posets.Poset) -> tuple:
    """`Poset._levels` as it was: one more than the largest level below, in a
    linear extension order."""
    levels = [0] * len(poset.elements)
    for j in sorted(range(len(levels)), key=lambda j: poset._down[j].bit_count()):
        levels[j] = 1 + max((levels[i] for i in set_bits(poset.strictly_below(j))), default=0)
    return tuple(levels)


def tuple_keyed_ideal_masks(poset: posets.Poset) -> tuple:
    """`Poset._ideal_masks` as it was: the ideals sorted by (size, the tuple of
    their bit positions)."""
    masks = [0]
    for j in poset._linear_extension():
        below, bit = poset.strictly_below(j), 1 << j
        masks += [m | bit for m in masks if m & below == below]
    masks.sort(key=lambda m: (m.bit_count(), tuple(set_bits(m))))
    return tuple(masks)


def unshortcut_automorphisms(poset: posets.Poset, colours=None) -> tuple:
    """`Poset.automorphisms` as it was: the same classes, bound and search,
    run even when every class is one element, and not cached."""
    down, up, n = poset._down, poset._up, len(poset.elements)
    numbers: dict = {}
    keyed = zip(map(int.bit_count, down), map(int.bit_count, up), poset._levels)
    keyed = keyed if colours is None else zip(keyed, colours)
    classes = tuple(numbers.setdefault(s, len(numbers)) for s in keyed)
    estimate = math.prod(math.factorial(classes.count(c)) for c in range(len(numbers)))
    if estimate > AUTOMORPHISM_BOUND:
        search = f"automorphism search over {count_text(estimate)} candidate permutations"
        raise BoundExceeded(f"{search} exceeds the bound {AUTOMORPHISM_BOUND}")
    candidates = [[j for j, c in enumerate(classes) if c == t] for t in classes]
    listed: list = []

    def extend(perm: Perm, used: int, img: list) -> None:
        i = len(perm)
        if i == n:
            listed.append(perm)
            return
        later = (up[i] >> i + 1) | (down[i] >> i + 1 << n)
        for j in candidates[i]:
            if not used >> j & 1 and down[j] & used == img[i] and up[j] & used == img[n + i]:
                bit, grown = 1 << j, img
                if later:
                    grown = img[:]
                    for t in set_bits(later):
                        grown[i + 1 + t] |= bit
                extend(perm + (j,), used | bit, grown)

    extend((), 0, [0] * 2 * n)
    return tuple(listed)


def compress_udp_check(poset: posets.Poset, omega) -> tuple:
    """`posets.udp_check` as it was: one `compress` sum per ideal for its
    weight and one per automorphism for each image of a class's first ideal."""
    weights = omega.scaled(poset.elements)
    images = [[1 << t for t in perm] for perm in poset.automorphisms(weights)]
    powers = [1 << t for t in range(len(weights))]
    by_sum: dict = {}
    for mask in poset._ideal_masks:
        total = sum(itertools.compress(weights, map(mask.__and__, powers)))
        by_sum.setdefault(total, []).append(mask)
    shared = [by_sum[total] for total in sorted(by_sum) if len(by_sum[total]) > 1]
    if not shared:
        return True, None
    if len(images) * len(shared) > posets.SCAN_BOUND:
        scan = f"orbit scan of {len(images)} automorphisms over {len(shared)} weight classes"
        raise BoundExceeded(f"{scan} exceeds the bound {posets.SCAN_BOUND}")
    for base, *others in shared:
        orbit = {sum(itertools.compress(bits, map(base.__and__, powers))) for bits in images}
        for other in others:
            if other not in orbit:
                return False, (poset._labels(base), poset._labels(other))
    return True, None


def filtered_automorphisms(poset: posets.Poset, *colourings, plain=None) -> tuple:
    """The label-map search as it was: every order automorphism from the
    search with no colours (`prefix_sum_automorphisms`, or the given `plain`
    result of it), then one pointwise filter per colouring, keeping perm when
    colouring[perm[i]] == colouring[i] at every i.  The oracle of
    `Poset.automorphisms(colours)`."""
    return tuple(
        perm
        for perm in (prefix_sum_automorphisms(poset) if plain is None else plain)
        if all([colouring[j] for j in perm] == list(colouring) for colouring in colourings)
    )


def admissible_automorphisms_oracle(poset: posets.Poset, space, key, plain=None) -> tuple:
    """`isometries.admissible_automorphisms` as it was: the plain search, then
    the block-dim filter (`_keeping_dims`) and the principal-ideal key filter."""
    keys = tuple(map(key, poset._down))
    return filtered_automorphisms(poset, space.dims, keys, plain=plain)


def weight_automorphisms_oracle(poset: posets.Poset, space, omega, plain=None) -> tuple:
    """`isometries.weight_automorphisms` as it was: the plain search, then the
    weight filter (`weight_preserving_automorphisms`) and the block-dim filter."""
    return filtered_automorphisms(poset, omega.scaled(poset.elements), space.dims, plain=plain)


def condition_report_oracle(space, poset: posets.Poset, omega) -> "mep.ConditionReport":
    """`mep.condition_report` as it was, kept as its oracle: each condition's
    two halves are computed apart, both always, and a failing second half adds
    its witness only when the first half held."""
    witnesses: list[tuple[str, object]] = []
    udp_ok, udp_witness = posets.udp_check(poset, omega)
    if not udp_ok:
        witnesses.append(("udp_matched_dims", udp_witness))
    dims_ok, dims_witness = matched_dims_oracle(space, poset, omega)
    if udp_ok and not dims_ok:
        witnesses.append(("udp_matched_dims", dims_witness))
    level_ok = poset.is_hierarchical
    if not level_ok:
        witnesses.append(("level_matched_dims", poset.hierarchy_violation()))
    level_dims_ok, level_dims_witness = level_dims_oracle(space, poset)
    if level_ok and not level_dims_ok:
        witnesses.append(("level_matched_dims", level_dims_witness))
    return mep.ConditionReport(
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


def matched_dims_oracle(space, poset: posets.Poset, omega) -> tuple:
    """`mep._matched_dims` as it was: equal (level, weight) pairs must carry
    equal block dimensions."""
    weights = omega.scaled(poset.elements)
    seen: dict[tuple[int, int], tuple[str, int]] = {}
    for label, level, w in zip(poset.elements, poset._levels, weights):
        k = space.dim_of(label)
        first, dim = seen.setdefault((level, w), (label, k))
        if dim != k:
            return False, (first, label)
    return True, None


def level_dims_oracle(space, poset: posets.Poset) -> tuple:
    """`mep._level_dims` as it was: each level's blocks share one dimension."""
    for level in poset._level_masks:
        labels = [poset.elements[i] for i in set_bits(level)]
        if len({space.dim_of(l) for l in labels}) > 1:
            return False, tuple(sorted(labels))
    return True, None


def mep_predicate_oracle(space, poset: posets.Poset, omega) -> "mep.MepVerdict":
    """`mep.mep_predicate` as it was: the level class bound and the whole
    condition report are built before the route is chosen, and each route
    writes its own trace."""
    bound_ok, bound_witness = mep.level_class_bound(space, poset, omega)
    report = condition_report_oracle(space, poset, omega)
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
    return mep.MepVerdict(holds=holds, predicate_trace=trace)


def macwilliams_identity_check_oracle(space, poset: posets.Poset, omega) -> "fourier.MacwilliamsResult":
    """fourier.macwilliams_identity_check as it was before the per-shape class
    table, kept as its oracle: every code's exact-support enumerator A_C is
    counted afresh, per call, and folded into its key and dual as tuples."""
    fourier._check_code_count(space)
    primal = fourier.weight_partition(space, poset, omega)
    reversed_order = fourier.weight_partition(space, poset.dual(), omega)
    supports, sums = fourier.support_transforms(space, primal)
    q, vectors = space.q, list(space.vectors())
    block_of = dict(zip(supports, reversed_order.ids))
    key_width, dual_width = reversed_order.block_count, primal.block_count
    label_bits = [1 << i for i, k in enumerate(space.dims) for _ in range(k)]
    groups: dict = {}  # key -> [first code, its dual key, first other]
    parts: dict = {}  # (label bit, column) -> its mask bits
    for basis in enumerate_codes_oracle(space, indices=True):
        masks = [0] * q ** len(basis)
        for part in zip(label_bits, zip(*(vectors[t] for t in basis))):
            if part not in parts:
                parts[part] = [part[0] if v else 0 for v in fields.dot_values(q, part[1])]
            masks = list(map(operator.or_, masks, parts[part]))
        key, dual = [0] * key_width, [0] * dual_width
        for s, c in Counter(masks).items():
            key[block_of[s]] += c
            dual = [d + c * h for d, h in zip(dual, sums[s])]
        group = groups.setdefault(tuple(key), [basis, dual, None])
        if group[2] is None and dual != group[1]:
            group[2] = basis
    for first, _, other in groups.values():
        if other is not None:
            witness = (spaces.LinearCode(space, tuple(vectors[t] for t in first)),
                       spaces.LinearCode(space, tuple(vectors[t] for t in other)))
            return fourier.MacwilliamsResult(False, witness)
    return fourier.MacwilliamsResult(True)


def enumerate_codes_oracle(space, max_dim: Optional[int] = None, indices: bool = False) -> Iterator:
    """spaces.enumerate_codes as it was before the recorded per-shape
    streams, kept as its oracle: every call enumerates afresh."""
    if space.vectors_over(spaces.VECTOR_BOUND):
        raise BoundExceeded(
            f"space holds {space.vector_count_text} vectors, over the bound {spaces.VECTOR_BOUND}"
        )
    q = space.q
    n = space.total_dim
    top = n if max_dim is None else min(max_dim, n)
    yield () if indices else spaces.LinearCode.zero(space)
    vectors = None if indices else list(space.vectors())
    for d in range(1, top + 1):
        for pivots in itertools.combinations(range(n), d):
            rows = []
            for p in pivots:
                row = [q ** (n - 1 - p)]
                for place in (q ** (n - 1 - c) for c in range(p + 1, n) if c not in pivots):
                    row = [t + v * place for t in row for v in range(q)]
                rows.append(row)
            for basis in itertools.product(*rows):
                yield basis if indices else spaces.LinearCode(
                    space, tuple(map(vectors.__getitem__, basis))
                )


def fraction_weight_fields(labels, values) -> tuple[dict, tuple]:
    """`WeightFunction`'s checks as they were, comparing each value with 0 as a
    Fraction: its label positions and scaled values, or its first error."""
    if len(labels) != len(values):
        raise ValidationError("weight function shape mismatch")
    pos = {label: i for i, label in enumerate(labels)}
    if len(pos) != len(labels):
        raise ValidationError("weight function labels must be distinct")
    for label, value in zip(labels, values):
        if value <= 0:
            raise ValidationError(f"weight of {label!r} must be strictly positive")
    scale = math.lcm(*(v.denominator for v in values))
    return pos, tuple(v.numerator * scale // v.denominator for v in values)


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
