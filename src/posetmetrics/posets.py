"""Finite posets on a labeled coordinate set, with exact rational weights.

A poset stores a tuple of distinct labels, a label -> position dict and a
down-set and an up-set mask per element (bit i of down-set j is set when
elements[i] <= elements[j]).  `Poset._keep` is the one builder of those
fields and validates nothing: the matrix constructor calls it after its
checks, and the relations that are transitive by construction (the closure
in `from_covers` once its cover and cycle checks pass, `dual`, and the
one-point extensions of `all_posets_on`) are kept through it unchecked.  Its
value is still the labels plus the order as a boolean matrix, `leq`, derived
from the masks on first read, so eq, hash and repr are unchanged.  Closure,
ideals, levels (minimal elements peeled off), UDP and automorphisms (from the
question's colours: McKay & Piperno, J. Symb. Comput. 2014) run on the masks
(Knuth, TAOCP 4A, 7.1.3) and on integer-scaled weights.  The ideals come in
canonical (size, index) order, sorted as integers: an ideal of size k is
keyed k * 2^n - rev(mask), rev reversing its n bits, so among ideals of equal
size A comes first exactly when the lowest bit of A ^ B is in A.  Tables are
cached on the poset at first use, so they are freed with it: the order
matrix, the ideals, the levels, the automorphisms of each class partition
(which also serve as the admissible label maps of `isometries.admissible_lams`)
and each completed slice of an isometry group, per space and label map, as
immutable (diag, strict, matrix) tuples, each matrix made by the label map's
block-row builder (`isometries.enumerate_group`).  Label
sets cross the interface as frozensets, weights as Fractions.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BoundExceeded, ValidationError, count_text

Perm = tuple[int, ...]  # perm[i] = index of the image of elements[i]

# Ideals are enumerated exactly, so instances are capped at this many elements.
ELEMENT_BOUND = 20
# Cap on the automorphism search's candidates (Poset.automorphisms); 8! admits 8 elements.
AUTOMORPHISM_BOUND = 40320
# Cap on automorphisms x weight classes in udp_check's orbit scan; 8! * 2^8 admits 8 elements.
SCAN_BOUND = AUTOMORPHISM_BOUND << 8


class Value:
    """An immutable value.  The public fields, named in `__match_args__` in
    declaration order, alone make its eq, hash and repr:

    - eq holds only between objects of the same class with equal fields;
    - hash is the hash of the field tuple (a 1-tuple for one field);
    - repr reads `Name(field=value, ...)`.

    A subclass sets its fields in `__init__` with `object.__setattr__` or
    `vars(self).update`, or derives one on first read by `cached_property`
    (`Poset.leq`).  Names
    starting with an underscore are derived state, set either way, and stay
    out of eq, hash and repr.  Assignment and deletion raise AttributeError.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls.__match_args__
        get = operator.attrgetter(*names)  # of one name, the bare value
        cls._fields_of = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields_of(self) == other._fields_of(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields_of(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _intransitive_triple(rows: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """The first (i, j, k) in row-major order with i <= j <= k but not i <= k,
    for a relation whose row i has bit j set when i <= j."""
    for i, row in enumerate(rows):
        for j, other in enumerate(rows):
            if row >> j & 1 and other & ~row:
                return i, j, next(set_bits(other & ~row))
    return None


def _positions(labels: tuple, owner: str) -> dict:
    """Each label's position, once the labels are found distinct."""
    pos = {label: i for i, label in enumerate(labels)}
    if len(pos) != len(labels):
        raise ValidationError(f"{owner} labels must be distinct")
    return pos


def _transpose(rows: Sequence[int]) -> list[int]:
    """The column masks of a relation given by its row masks."""
    columns = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= bit
            row ^= low
    return columns


class Poset(Value):
    # _pos maps a label to its position; _down[j] and _up[j] are the masks of
    # the elements below and above elements[j], the only stored relation;
    # _automorphisms keeps automorphisms' results by class partition and
    # _group_slices the completed slices of isometries.enumerate_group
    __match_args__ = ("elements", "leq")

    def __init__(self, elements: tuple[str, ...], leq: tuple[tuple[bool, ...], ...]) -> None:
        n, pos = len(elements), _positions(elements, "poset")
        if len(leq) != n or any(len(row) != n for row in leq):
            raise ValidationError("relation matrix shape must match the label count")
        powers = [1 << j for j in range(n)]
        up = [sum(itertools.compress(powers, row)) for row in leq]
        down = _transpose(up)
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise ValidationError(f"relation is not reflexive at {elements[i]!r}")
        for i, row in enumerate(up):
            mutual = row & down[i] & ~(1 << i)
            if mutual:
                raise ValidationError(
                    f"relation is not antisymmetric: {elements[i]!r} and "
                    f"{elements[next(set_bits(mutual))]!r} are mutually comparable"
                )
        triple = _intransitive_triple(up)
        if triple is not None:
            i, j, k = (repr(elements[t]) for t in triple)
            raise ValidationError(f"relation is not transitive at ({i}, {j}, {k})")
        self._keep(elements, pos, up, down)

    def _keep(self, elements: tuple, pos: dict, up: Sequence[int], down: Sequence[int]) -> "Poset":
        """Keep the relation with row masks `up` and column masks `down`, with
        no validation: the one builder, and on `object.__new__(Poset)` the
        trusted entry.  The caller guarantees what the constructor checks:
        the labels are distinct and `pos` maps each to its position, `up` is
        reflexive, antisymmetric and transitive, and `down` is its transpose."""
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_down", tuple(down))
        object.__setattr__(self, "_up", tuple(up))
        object.__setattr__(self, "_automorphisms", {})
        object.__setattr__(self, "_group_slices", {})
        return self

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """The order as a boolean matrix, built from the masks on first read."""
        powers = [1 << j for j in range(len(self.elements))]
        return tuple(tuple([row & p != 0 for p in powers]) for row in self._up)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_covers(cls, elements: Sequence[str], covers: Iterable[tuple[str, str]]) -> "Poset":
        """Build from cover pairs (a, b) meaning a is strictly below b.

        The reflexive-transitive closure is computed here; a cycle raises a
        ValidationError carrying the offending label sequence.
        """
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        adjacency: list[list[int]] = [[] for _ in range(n)]
        powers = [1 << i for i in range(n)]
        up = powers[:]
        for a, b in covers:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise ValidationError(f"cover ({a!r}, {b!r}) uses an unknown label")
            if a == b:
                raise ValidationError(f"cover ({a!r}, {b!r}) is reflexive")
            adjacency[i].append(j)
            up[i] |= powers[j]
        # Warshall closure, one row mask at a time (a cycle becomes a mutual
        # pair); the closure of covers is reflexive and transitive, so the
        # cycle and the duplicate labels are all that is left to check
        for k, bit in enumerate(powers):
            row = up[k]
            if row != bit:  # nothing to add below a maximal element
                up = [u | row if u & bit else u for u in up]
        down = _transpose(up)
        if list(map(operator.and_, up, down)) != powers:
            names = " < ".join(elements[t] for t in _find_cycle(adjacency))
            raise ValidationError(f"cover relation contains a cycle: {names}")
        if len(index) != n:
            raise ValidationError("poset labels must be distinct")
        return object.__new__(cls)._keep(elements, index, up, down)

    @classmethod
    def chain(cls, elements: Sequence[str]) -> "Poset":
        elements = tuple(elements)
        return cls.from_covers(elements, list(zip(elements, elements[1:])))

    @classmethod
    def antichain(cls, elements: Sequence[str]) -> "Poset":
        return cls.from_covers(tuple(elements), [])

    # -- basic queries -----------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise ValidationError(f"unknown label {label!r}") from None

    def _labels(self, mask: int) -> frozenset[str]:
        return frozenset(self.elements[t] for t in set_bits(mask))

    def strictly_below(self, j: int) -> int:
        """The mask of the elements strictly below elements[j]."""
        return self._down[j] & ~(1 << j)

    def ideal_closure(self, subset: Iterable[str]) -> frozenset[str]:
        """Smallest ideal containing the given labels."""
        mask = 0
        for b in subset:
            mask |= self._down[self.index(b)]
        return self._labels(mask)

    def _linear_extension(self) -> list[int]:
        """Positions ordered so that every element follows those below it."""
        sizes = list(map(int.bit_count, self._down))
        return sorted(range(len(sizes)), key=sizes.__getitem__)

    def all_ideals(self) -> tuple[frozenset[str], ...]:
        """Exact enumeration of all ideals, in canonical (size, index) order."""
        return self._ideals

    @cached_property
    def _ideal_masks(self) -> tuple[int, ...]:
        if len(self.elements) > ELEMENT_BOUND:
            raise BoundExceeded(f"ideal enumeration is capped at {ELEMENT_BOUND} elements")
        # adding the elements in a linear extension order, the ideals so far
        # are extended by the new element wherever they hold its down-set;
        # each is held as key * 2^n + mask, its key |mask| * 2^n - rev(mask)
        # summed over its elements as 2^n - 2^(n-1-j), so one integer sort
        # puts the ideals in (size, index) order
        n = len(self.elements)
        held = [0]
        for j in self._linear_extension():
            below, bit = self.strictly_below(j), 1 << j
            step = ((1 << n) - (1 << n - 1 - j) << n) + bit
            held += [h + step for h in held if h & below == below]
        held.sort()
        return tuple(map(((1 << n) - 1).__and__, held))

    @cached_property
    def _ideals(self) -> tuple[frozenset[str], ...]:
        return tuple(map(self._labels, self._ideal_masks))

    @cached_property
    def _levels(self) -> tuple[int, ...]:
        # level l holds the minimal elements of what the lower levels leave
        down, levels = self._down, [0] * len(self.elements)
        rest, level = (1 << len(levels)) - 1, 0
        while rest:
            level += 1
            peeled, left = 0, rest
            while left:
                low = left & -left
                left ^= low
                if down[low.bit_length() - 1] & rest == low:
                    peeled |= low
                    levels[low.bit_length() - 1] = level
            rest ^= peeled
        return tuple(levels)

    def level(self, label: str) -> int:
        """Largest size of a chain having this label as its greatest element."""
        return self._levels[self.index(label)]

    @cached_property
    def _level_masks(self) -> tuple[int, ...]:
        """The mask of each level, bottom level first."""
        masks = [0] * max(self._levels, default=0)
        for i, l in enumerate(self._levels):
            masks[l - 1] |= 1 << i
        return tuple(masks)

    def level_sets(self) -> tuple[frozenset[str], ...]:
        """Partition of the labels by level, bottom level first."""
        return tuple(map(self._labels, self._level_masks))

    def hierarchy_violation(self) -> Optional[tuple[str, str]]:
        """The first pair (u, v) in row-major order with level(u)+1 <= level(v)
        but u not below v, or None."""
        return self._hierarchy_violation

    @cached_property
    def _hierarchy_violation(self) -> Optional[tuple[str, str]]:
        # lower[k]: the elements on the lowest k levels; missing[j]: the
        # elements on a lower level than j that are not below j
        lower = list(itertools.accumulate(self._level_masks, operator.or_, initial=0))
        missing = [lower[l - 1] & ~down for l, down in zip(self._levels, self._down)]
        if not any(missing):
            return None
        spread = reduce(operator.or_, missing)  # its lowest bit is the least i
        i = (spread & -spread).bit_length() - 1
        j = [m >> i & 1 for m in missing].index(1)
        return (self.elements[i], self.elements[j])

    @property
    def is_hierarchical(self) -> bool:
        return self.hierarchy_violation() is None

    def dual(self) -> "Poset":
        return object.__new__(Poset)._keep(self.elements, self._pos, self._down, self._up)

    def automorphisms(self, colours: Optional[Sequence] = None) -> tuple[Perm, ...]:
        """The order automorphisms keeping the colours (one hashable per element;
        None colours all alike), in lexicographic order, by backtracking.  perm[i]
        runs over the elements with i's (down-set size, up-set size, level, colour),
        so prod(c!) over those classes c bounds the search, and keeps k <= i iff
        perm[k] <= perm[i] and i <= k iff perm[i] <= perm[k] for every k < i.
        Results are kept per class partition, its classes numbered by first
        appearance, so colourings that split the elements alike share a search."""
        down, up, n = self._down, self._up, len(self.elements)
        if colours is not None and len(colours) != n:
            raise ValidationError(f"{len(colours)} colours given for {n} elements")
        numbers: dict = {}
        keyed = zip(map(int.bit_count, down), map(int.bit_count, up), self._levels)
        keyed = keyed if colours is None else zip(keyed, colours)
        classes = tuple([numbers.setdefault(s, len(numbers)) for s in keyed])
        if classes in self._automorphisms:
            return self._automorphisms[classes]
        if len(numbers) == n:  # every class one element: the identity alone
            self._automorphisms[classes] = found = (tuple(range(n)),)
            return found
        members: list[list[int]] = [[] for _ in numbers]
        for j, c in enumerate(classes):
            members[c].append(j)
        estimate = math.prod(map(math.factorial, map(len, members)))
        if estimate > AUTOMORPHISM_BOUND:
            search = f"automorphism search over {count_text(estimate)} candidate permutations"
            raise BoundExceeded(f"{search} exceeds the bound {AUTOMORPHISM_BOUND}")
        candidates = [members[c] for c in classes]
        listed: list[Perm] = []

        def extend(perm: Perm, used: int, img: list[int]) -> None:
            # img[t], img[n + t]: the images of the prefix's elements below, above t;
            # placing perm[i] = j adds j's bit there for the later t above, below i
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
        self._automorphisms[classes] = found = tuple(listed)
        return found


def _find_cycle(adjacency: list[list[int]]) -> Optional[list[int]]:
    """A directed cycle (as an index path, closing node repeated) or None."""
    color = [0] * len(adjacency)  # 0 unseen, 1 on the path, 2 done
    for root in range(len(adjacency)):
        if color[root]:
            continue
        color[root] = 1
        path, todo = [root], [iter(adjacency[root])]
        while path:
            nxt = next(todo[-1], None)
            if nxt is None:
                color[path.pop()] = 2
                todo.pop()
            elif color[nxt] == 1:
                return path[path.index(nxt) :] + [nxt]
            elif color[nxt] == 0:
                color[nxt] = 1
                path.append(nxt)
                todo.append(iter(adjacency[nxt]))
    return None


class WeightFunction(Value):
    """Strictly positive rational weight per label, with exact sums."""

    # _pos maps a label to its position; _scaled holds the values times the
    # LCM of their denominators
    __match_args__ = ("labels", "values")

    def __init__(self, labels: tuple[str, ...], values: tuple[Fraction, ...]) -> None:
        if len(labels) != len(values):
            raise ValidationError("weight function shape mismatch")
        pos = _positions(labels, "weight function")
        for label, value in zip(labels, values):
            if value.numerator <= 0:  # a Fraction's denominator is positive
                raise ValidationError(f"weight of {label!r} must be strictly positive")
        scale = math.lcm(*(v.denominator for v in values))
        scaled = tuple(v.numerator * scale // v.denominator for v in values)
        self._keep(labels, values, pos, scaled)

    def _keep(self, labels: tuple, values: tuple, pos: dict, scaled: tuple) -> "WeightFunction":
        """Set the fields, with no validation: the one builder."""
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_scaled", scaled)
        return self

    @classmethod
    def from_map(cls, values: Mapping[str, Fraction | int | str]) -> "WeightFunction":
        labels = tuple(values)
        return cls(labels, tuple(Fraction(values[l]) for l in labels))

    @classmethod
    def ones(cls, labels: Sequence[str]) -> "WeightFunction":
        """Weight 1 at every label: one shared Fraction, scaled values all 1."""
        labels = tuple(labels)
        pos, n = _positions(labels, "weight function"), len(labels)
        return object.__new__(cls)._keep(labels, (Fraction(1),) * n, pos, (1,) * n)

    def _index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise ValidationError(f"unknown label {label!r}") from None

    def of(self, label: str) -> Fraction:
        return self.values[self._index(label)]

    def scaled(self, labels: Iterable[str]) -> tuple[int, ...]:
        """The weights of the labels times the LCM of all denominators: exact, same order."""
        return tuple([self._scaled[self._index(l)] for l in labels])

    def total(self, subset: Iterable[str]) -> Fraction:
        return sum((self.of(x) for x in subset), Fraction(0))

    @property
    def is_all_ones(self) -> bool:
        return all(v == 1 for v in self.values)

    @property
    def is_integer_valued(self) -> bool:
        return all(v.denominator == 1 for v in self.values)


def powers_of_two_weight(poset: Poset) -> WeightFunction:
    """Weights 2^position, so subsets have pairwise distinct sums.

    With these weights two vectors have equal weight exactly when their
    support closures agree, which turns support questions into weight ones.
    """
    return WeightFunction(poset.elements, tuple(Fraction(2**t) for t in range(len(poset.elements))))


def weight_preserving_automorphisms(poset: Poset, omega: WeightFunction) -> tuple[Perm, ...]:
    return poset.automorphisms(omega.scaled(poset.elements))


def udp_check(
    poset: Poset, omega: WeightFunction
) -> tuple[bool, Optional[tuple[frozenset[str], frozenset[str]]]]:
    """Do equal-weight ideals always differ by a weight-preserving automorphism?

    Returns (True, None) or (False, witness pair of ideals with equal weight
    sums lying in different orbits).  The search keeping the weights runs
    first; it refuses only on a class of two elements i, j, and then U + i and
    U + j (U the union of their strict down-sets) are ideals of equal weight.
    """
    weights = omega.scaled(poset.elements)
    perms = poset.automorphisms(weights)
    masks = poset._ideal_masks  # first, as it holds the element bound
    # an ideal's weight is the sum of a low-half and a high-half subset sum
    half = len(weights) // 2
    low_sums, high_sums = _subset_sums(weights[:half]), _subset_sums(weights[half:])
    low = (1 << half) - 1
    totals = [low_sums[mask & low] + high_sums[mask >> half] for mask in masks]
    shared = sorted([total for total, count in Counter(totals).items() if count > 1])
    if not shared:
        return True, None
    if len(perms) * len(shared) > SCAN_BOUND:
        scan = f"orbit scan of {len(perms)} automorphisms over {len(shared)} weight classes"
        raise BoundExceeded(f"{scan} exceeds the bound {SCAN_BOUND}")
    by_sum: dict[int, list[int]] = {}
    for total, mask in zip(totals, masks):
        by_sum.setdefault(total, []).append(mask)
    # columns[t][a]: the bit of perms[a][t], so an ideal's images under all
    # the perms are the OR of the columns of its elements
    bits = [1 << t for t in range(len(weights))]
    columns = [list(map(bits.__getitem__, column)) for column in zip(*perms)]
    for total in shared:
        base, *others = by_sum[total]
        # weight-preserving automorphisms form a group, so orbits partition
        # the equal-sum class; one orbit computation settles the whole class
        images = [0] * len(perms)
        for t in set_bits(base):
            images = list(map(operator.or_, images, columns[t]))
        orbit = set(images)
        for other in others:
            if other not in orbit:
                return False, (poset._labels(base), poset._labels(other))
    return True, None


def _subset_sums(weights: Sequence[int]) -> list[int]:
    """sums[m]: the sum of the weights at the set bits of m."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def all_posets_on(labels: Sequence[str]) -> Iterator[Poset]:
    """Every labeled poset on the given labels.

    Each unordered pair is independently incomparable, <, or > (the pairs in
    itertools.combinations order, the last varying fastest), and the
    transitive choices are yielded in that order.  They are built by
    one-point extension (`_one_point_extensions`), each first label added to
    the posets on the labels after it, so no relation is checked.
    """
    labels = tuple(labels)
    n, pos = len(labels), _positions(labels, "poset")
    relations = [((), ())]  # the one poset on no labels
    for m in range(1, n + 1):
        relations = _one_point_extensions(list(relations), m)
    for up, down in relations:
        yield object.__new__(Poset)._keep(labels, pos, up, down)


def _one_point_extensions(relations: list, m: int) -> Iterator[tuple[tuple, tuple]]:
    """The (up, down) masks of the posets on m points, from those on points
    1..m-1, in the order of the choices for the pairs (0, j), j = 1..m-1, the
    last varying fastest, and then of the given relations: point 0 goes above
    a down-set D and below an up-set U, disjoint, with every element of D
    below every element of U, which is exactly when the choice is transitive."""
    choices = [(0, 0)]  # (D, U), as pair (0, j) is incomparable, 0 < j or j < 0
    for j in range(1, m):
        bit = 1 << j
        choices = [c for d, u in choices for c in ((d, u), (d, u | bit), (d | bit, u))]
    shifted = []
    for up, down in relations:
        up, down = [u << 1 for u in up], [d << 1 for d in down]
        order = sorted(range(m - 1), key=list(map(int.bit_count, down)).__getitem__)
        # above[D]: for each down-set D, the elements above all of D
        above = {0: (1 << m) - 2}
        for k in order:
            bit, below = 2 << k, down[k] ^ 2 << k
            above.update([(s | bit, a & up[k]) for s, a in above.items() if s & below == below])
        filters = [0]
        for k in reversed(order):
            bit, over = 2 << k, up[k] ^ 2 << k
            filters += [s | bit for s in filters if s & over == over]
        shifted.append((up, down, above, set(filters)))
    for d, u in choices:
        for up, down, above, filters in shifted:
            a = above.get(d)
            if a is not None and u & a == u and u in filters:
                yield (
                    (1 | u, *[x | (d >> j & 1) for j, x in enumerate(up, 1)]),
                    (1 | d, *[x | (u >> j & 1) for j, x in enumerate(down, 1)]),
                )
