"""Finite posets on a labeled coordinate set, with exact rational weights.

A poset's value is a tuple of distinct labels plus the full order relation
as a boolean matrix (row i, column j means elements[i] is below elements[j]);
those two fields alone make its eq, hash and repr.  Construction also keeps a
label -> position dict and a down-set and an up-set mask per element (bit i
of down-set j is set when elements[i] <= elements[j]).  Validation, closure,
ideals, levels, UDP and automorphisms by refinement (McKay & Piperno, J. Symb.
Comput. 2014) run on those masks (Knuth, TAOCP 4A, 7.1.3) and on integer-scaled
weights.  Tables are cached on the poset at first use, so they are freed with
it.  Label sets cross the interface as frozensets, weights as Fractions.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BoundExceeded, ValidationError

Perm = tuple[int, ...]  # perm[i] = index of the image of elements[i]

# Ideals are enumerated exactly, so instances are capped at this many elements.
ELEMENT_BOUND = 20
# Cap on the automorphism search's candidates (Poset.automorphisms); 8! admits 8 elements.
AUTOMORPHISM_BOUND = 40320
# Cap on automorphisms x ideals or weight classes in one scan; 8! * 2^8 admits 8 elements.
SCAN_BOUND = AUTOMORPHISM_BOUND << 8


def derived(**kwargs):
    """An attribute computed from the fields: not an argument, and left out
    of eq, hash and repr."""
    return field(init=False, repr=False, compare=False, **kwargs)


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


@dataclass(frozen=True)
class Poset:
    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    _pos: dict[str, int] = derived()
    _down: tuple[int, ...] = derived()
    _up: tuple[int, ...] = derived()

    def __post_init__(self) -> None:
        n = len(self.elements)
        pos = {e: i for i, e in enumerate(self.elements)}
        if len(pos) != n:
            raise ValidationError("poset labels must be distinct")
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise ValidationError("relation matrix shape must match the label count")
        powers = [1 << j for j in range(n)]
        rows = [sum(itertools.compress(powers, row)) for row in self.leq]
        down = [sum(itertools.compress(powers, column)) for column in zip(*self.leq)]
        for i, row in enumerate(rows):
            if not row >> i & 1:
                raise ValidationError(f"relation is not reflexive at {self.elements[i]!r}")
        for i, row in enumerate(rows):
            mutual = row & down[i] & ~(1 << i)
            if mutual:
                raise ValidationError(
                    f"relation is not antisymmetric: {self.elements[i]!r} and "
                    f"{self.elements[next(set_bits(mutual))]!r} are mutually comparable"
                )
        triple = _intransitive_triple(rows)
        if triple is not None:
            i, j, k = (repr(self.elements[t]) for t in triple)
            raise ValidationError(f"relation is not transitive at ({i}, {j}, {k})")
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_down", tuple(down))
        object.__setattr__(self, "_up", tuple(rows))

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
        # Warshall closure, one row mask at a time
        for k in range(n):
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
        return cls(elements, _matrix(rows, n))

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
        return sorted(range(len(self.elements)), key=lambda j: self._down[j].bit_count())

    def all_ideals(self) -> tuple[frozenset[str], ...]:
        """Exact enumeration of all ideals, in canonical (size, index) order."""
        return self._ideals

    @cached_property
    def _ideal_masks(self) -> tuple[int, ...]:
        if len(self.elements) > ELEMENT_BOUND:
            raise BoundExceeded(f"ideal enumeration is capped at {ELEMENT_BOUND} elements")
        # adding the elements in a linear extension order, the ideals so far
        # are extended by the new element wherever they hold its down-set
        masks = [0]
        for j in self._linear_extension():
            below, bit = self.strictly_below(j), 1 << j
            masks += [m | bit for m in masks if m & below == below]
        masks.sort(key=lambda m: (m.bit_count(), tuple(set_bits(m))))
        return tuple(masks)

    @cached_property
    def _ideals(self) -> tuple[frozenset[str], ...]:
        return tuple(map(self._labels, self._ideal_masks))

    @cached_property
    def _levels(self) -> tuple[int, ...]:
        levels = [0] * len(self.elements)
        for j in self._linear_extension():
            levels[j] = 1 + max((levels[i] for i in set_bits(self.strictly_below(j))), default=0)
        return tuple(levels)

    def level(self, label: str) -> int:
        """Largest size of a chain having this label as its greatest element."""
        return self._levels[self.index(label)]

    def level_sets(self) -> tuple[frozenset[str], ...]:
        """Partition of the labels by level, bottom level first."""
        levels = self._levels
        return tuple(
            frozenset(e for e, l in zip(self.elements, levels) if l == r)
            for r in range(1, max(levels) + 1)
        )

    def hierarchy_violation(self) -> Optional[tuple[str, str]]:
        """The first pair (u, v) in row-major order with level(u)+1 <= level(v)
        but u not below v, or None."""
        levels = self._levels
        level_masks = [0] * (max(levels) + 1)
        for i, l in enumerate(levels):
            level_masks[l] |= 1 << i
        # lower[r]: the elements on a level below r; missing[j]: the elements
        # on a lower level than j that are not below j
        lower = list(itertools.accumulate(level_masks, operator.or_, initial=0))
        missing = [lower[l] & ~down for l, down in zip(levels, self._down)]
        if not any(missing):
            return None
        i = min(next(set_bits(m)) for m in missing if m)
        j = next(j for j, m in enumerate(missing) if m >> i & 1)
        return (self.elements[i], self.elements[j])

    @property
    def is_hierarchical(self) -> bool:
        return self.hierarchy_violation() is None

    def dual(self) -> "Poset":
        return Poset(self.elements, tuple(zip(*self.leq)))

    def automorphisms(self) -> tuple[Perm, ...]:
        """All order automorphisms in lexicographic order, by backtracking.  perm[i]
        runs over the elements with i's (down-set size, up-set size, level), so
        prod(c!) over those classes c bounds the search, and keeps k <= i iff
        perm[k] <= perm[i] and i <= k iff perm[i] <= perm[k] for every k < i."""
        return self._automorphisms

    @cached_property
    def _automorphisms(self) -> tuple[Perm, ...]:
        down, up, n = self._down, self._up, len(self.elements)
        signatures = [(d.bit_count(), u.bit_count(), l) for d, u, l in zip(down, up, self._levels)]
        estimate = math.prod(math.factorial(signatures.count(s)) for s in set(signatures))
        if estimate > AUTOMORPHISM_BOUND:
            search = f"automorphism search over {estimate} candidate permutations"
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

    def apply_perm(self, perm: Perm, subset: Iterable[str]) -> frozenset[str]:
        return frozenset(self.elements[perm[self.index(x)]] for x in subset)


def _matrix(rows: Sequence[int], n: int) -> tuple[tuple[bool, ...], ...]:
    """The boolean matrix of a relation given by row masks."""
    powers = [1 << j for j in range(n)]
    return tuple(tuple([row & p != 0 for p in powers]) for row in rows)


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


def compose_perms(outer: Perm, inner: Perm) -> Perm:
    """Permutation sending i to outer[inner[i]]."""
    return tuple(map(outer.__getitem__, inner))


def invert_perm(perm: Perm) -> Perm:
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


@dataclass(frozen=True)
class WeightFunction:
    """Strictly positive rational weight per label, with exact sums."""

    labels: tuple[str, ...]
    values: tuple[Fraction, ...]
    _pos: dict[str, int] = derived()
    _scaled: tuple[int, ...] = derived()

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.values):
            raise ValidationError("weight function shape mismatch")
        pos = {label: i for i, label in enumerate(self.labels)}
        if len(pos) != len(self.labels):
            raise ValidationError("weight function labels must be distinct")
        for label, value in zip(self.labels, self.values):
            if value <= 0:
                raise ValidationError(f"weight of {label!r} must be strictly positive")
        scale = math.lcm(*(v.denominator for v in self.values))
        scaled = tuple(v.numerator * scale // v.denominator for v in self.values)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_scaled", scaled)

    @classmethod
    def from_map(cls, values: Mapping[str, Fraction | int | str]) -> "WeightFunction":
        labels = tuple(values)
        return cls(labels, tuple(Fraction(values[l]) for l in labels))

    @classmethod
    def ones(cls, labels: Sequence[str]) -> "WeightFunction":
        return cls(tuple(labels), tuple(Fraction(1) for _ in labels))

    def _index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise ValidationError(f"unknown label {label!r}") from None

    def of(self, label: str) -> Fraction:
        return self.values[self._index(label)]

    def scaled(self, labels: Iterable[str]) -> tuple[int, ...]:
        """The weights of the labels times the LCM of all denominators: exact, same order."""
        return tuple(self._scaled[self._index(l)] for l in labels)

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
    weights = omega.scaled(poset.elements)
    return tuple(p for p in poset.automorphisms() if tuple(map(weights.__getitem__, p)) == weights)


def udp_check(
    poset: Poset, omega: WeightFunction
) -> tuple[bool, Optional[tuple[frozenset[str], frozenset[str]]]]:
    """Do equal-weight ideals always differ by a weight-preserving automorphism?

    Returns (True, None) or (False, witness pair of ideals with equal weight
    sums lying in different orbits).
    """
    masks, weights = poset._ideal_masks, omega.scaled(poset.elements)  # bound checked first
    powers = [1 << t for t in range(len(weights))]
    by_sum: dict[int, list[int]] = {}
    for mask in masks:
        total = sum(itertools.compress(weights, map(mask.__and__, powers)))
        by_sum.setdefault(total, []).append(mask)
    shared = [by_sum[total] for total in sorted(by_sum) if len(by_sum[total]) > 1]
    if not shared:
        return True, None
    images = [[1 << t for t in perm] for perm in weight_preserving_automorphisms(poset, omega)]
    if len(images) * len(shared) > SCAN_BOUND:
        scan = f"orbit scan of {len(images)} automorphisms over {len(shared)} weight classes"
        raise BoundExceeded(f"{scan} exceeds the bound {SCAN_BOUND}")
    for base, *others in shared:
        # weight-preserving automorphisms form a group, so orbits partition
        # the equal-sum class; one orbit computation settles the whole class
        orbit = {sum(itertools.compress(bits, map(base.__and__, powers))) for bits in images}
        for other in others:
            if other not in orbit:
                return False, (poset._labels(base), poset._labels(other))
    return True, None


def all_posets_on(labels: Sequence[str]) -> Iterator[Poset]:
    """Every labeled poset on the given labels.

    Each unordered pair is independently incomparable, <, or >; transitivity
    is then filtered.  Antisymmetry and reflexivity hold by construction.
    """
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
            yield Poset(labels, _matrix(rows, n))
