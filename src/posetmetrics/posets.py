"""Finite posets on a labeled coordinate set, with exact rational weights.

Posets are immutable: a tuple of distinct labels plus the full order relation
as a boolean matrix (row i, column j means elements[i] is below elements[j]).
Construction validates reflexivity, antisymmetry and transitivity; the
cover-relation constructor computes the transitive closure and reports a
cycle witness on antisymmetry failures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BoundExceeded, ValidationError

Perm = tuple[int, ...]  # perm[i] = index of the image of elements[i]


@dataclass(frozen=True)
class Poset:
    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValidationError("poset labels must be distinct")
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise ValidationError("relation matrix shape must match the label count")
        for i in range(n):
            if not self.leq[i][i]:
                raise ValidationError(f"relation is not reflexive at {self.elements[i]!r}")
        for i in range(n):
            for j in range(n):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    raise ValidationError(
                        f"relation is not antisymmetric: {self.elements[i]!r} and "
                        f"{self.elements[j]!r} are mutually comparable"
                    )
        for i in range(n):
            for j in range(n):
                if not self.leq[i][j]:
                    continue
                for k in range(n):
                    if self.leq[j][k] and not self.leq[i][k]:
                        raise ValidationError(
                            f"relation is not transitive at "
                            f"({self.elements[i]!r}, {self.elements[j]!r}, {self.elements[k]!r})"
                        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_relation(cls, elements: Sequence[str], leq: Sequence[Sequence[bool]]) -> "Poset":
        return cls(tuple(elements), tuple(tuple(bool(x) for x in row) for row in leq))

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
        below = [[False] * n for _ in range(n)]
        for a, b in covers:
            if a not in index or b not in index:
                raise ValidationError(f"cover ({a!r}, {b!r}) uses an unknown label")
            if a == b:
                raise ValidationError(f"cover ({a!r}, {b!r}) is reflexive")
            adjacency[index[a]].append(index[b])
            below[index[a]][index[b]] = True
        cycle = _find_cycle(adjacency)
        if cycle is not None:
            names = " < ".join(elements[t] for t in cycle)
            raise ValidationError(f"cover relation contains a cycle: {names}")
        # Warshall closure
        for k in range(n):
            for i in range(n):
                if below[i][k]:
                    row_k = below[k]
                    row_i = below[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        for i in range(n):
            below[i][i] = True
        return cls(elements, tuple(tuple(row) for row in below))

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
            return self.elements.index(label)
        except ValueError:
            raise ValidationError(f"unknown label {label!r}") from None

    def leq_of(self, a: str, b: str) -> bool:
        return self.leq[self.index(a)][self.index(b)]

    def ideal_closure(self, subset: Iterable[str]) -> frozenset[str]:
        """Smallest ideal containing the given labels."""
        idxs = [self.index(b) for b in subset]
        out = set()
        for j in idxs:
            for i in range(len(self.elements)):
                if self.leq[i][j]:
                    out.add(self.elements[i])
        return frozenset(out)

    def is_ideal(self, subset: Iterable[str]) -> bool:
        subset = frozenset(subset)
        return self.ideal_closure(subset) == subset

    def all_ideals(self) -> tuple[frozenset[str], ...]:
        """Exact enumeration of all ideals, in canonical (size, index) order."""
        if len(self.elements) > 20:
            raise BoundExceeded("ideal enumeration by subset filter is capped at 20 elements")
        return _all_ideals_cached(self)

    def level(self, label: str) -> int:
        """Largest size of a chain having this label as its greatest element."""
        return _levels_cached(self)[self.index(label)]

    def level_sets(self) -> tuple[frozenset[str], ...]:
        """Partition of the labels by level, bottom level first."""
        levels = _levels_cached(self)
        m = max(levels)
        return tuple(
            frozenset(e for e, l in zip(self.elements, levels) if l == r)
            for r in range(1, m + 1)
        )

    def hierarchy_violation(self) -> Optional[tuple[str, str]]:
        """A pair (u, v) with level(u)+1 <= level(v) but u not below v, or None."""
        levels = _levels_cached(self)
        n = len(self.elements)
        for i in range(n):
            for j in range(n):
                if levels[i] + 1 <= levels[j] and not self.leq[i][j]:
                    return (self.elements[i], self.elements[j])
        return None

    @property
    def is_hierarchical(self) -> bool:
        return self.hierarchy_violation() is None

    def dual(self) -> "Poset":
        n = len(self.elements)
        return Poset(self.elements, tuple(tuple(self.leq[j][i] for j in range(n)) for i in range(n)))

    def automorphisms(self, cap: int = 8) -> tuple[Perm, ...]:
        """All order automorphisms, by brute force over permutations."""
        if len(self.elements) > cap:
            raise BoundExceeded(f"automorphism enumeration is capped at {cap} elements")
        return _automorphisms_cached(self)

    def apply_perm(self, perm: Perm, subset: Iterable[str]) -> frozenset[str]:
        return frozenset(self.elements[perm[self.index(x)]] for x in subset)


def _find_cycle(adjacency: list[list[int]]) -> Optional[list[int]]:
    """A directed cycle (as an index path, closing node repeated) or None."""
    n = len(adjacency)
    color = [0] * n  # 0 unseen, 1 on stack, 2 done
    parent = [-1] * n
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, iter(adjacency[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if color[nxt] == 1:
                    path = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        path.append(cur)
                    path.reverse()
                    path.append(path[0])
                    return path
            if not advanced:
                color[node] = 2
                stack.pop()
    return None


@lru_cache(maxsize=None)
def _all_ideals_cached(poset: Poset) -> tuple[frozenset[str], ...]:
    n = len(poset.elements)
    ideals = []
    for mask in range(1 << n):
        subset = frozenset(poset.elements[i] for i in range(n) if mask >> i & 1)
        if poset.is_ideal(subset):
            ideals.append(subset)
    return tuple(sorted(ideals, key=lambda s: (len(s), sorted(poset.index(x) for x in s))))


@lru_cache(maxsize=None)
def _levels_cached(poset: Poset) -> tuple[int, ...]:
    n = len(poset.elements)
    memo: dict[int, int] = {}

    def depth(j: int) -> int:
        if j in memo:
            return memo[j]
        best = 1
        for i in range(n):
            if i != j and poset.leq[i][j]:
                best = max(best, depth(i) + 1)
        memo[j] = best
        return best

    return tuple(depth(j) for j in range(n))


@lru_cache(maxsize=None)
def _automorphisms_cached(poset: Poset) -> tuple[Perm, ...]:
    n = len(poset.elements)
    leq = poset.leq
    out = []
    for perm in itertools.permutations(range(n)):
        if all(leq[i][j] == leq[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            out.append(perm)
    return tuple(out)


def compose_perms(outer: Perm, inner: Perm) -> Perm:
    """Permutation sending i to outer[inner[i]]."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


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

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.values):
            raise ValidationError("weight function shape mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("weight function labels must be distinct")
        for label, value in zip(self.labels, self.values):
            if value <= 0:
                raise ValidationError(f"weight of {label!r} must be strictly positive")

    @classmethod
    def from_map(cls, values: Mapping[str, Fraction | int | str]) -> "WeightFunction":
        labels = tuple(values)
        return cls(labels, tuple(Fraction(values[l]) for l in labels))

    @classmethod
    def ones(cls, labels: Sequence[str]) -> "WeightFunction":
        return cls(tuple(labels), tuple(Fraction(1) for _ in labels))

    def of(self, label: str) -> Fraction:
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise ValidationError(f"unknown label {label!r}") from None

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
    values = tuple(omega.of(e) for e in poset.elements)
    return tuple(
        perm
        for perm in poset.automorphisms()
        if all(values[perm[i]] == values[i] for i in range(len(values)))
    )


def udp_check(
    poset: Poset, omega: WeightFunction
) -> tuple[bool, Optional[tuple[frozenset[str], frozenset[str]]]]:
    """Do equal-weight ideals always differ by a weight-preserving automorphism?

    Returns (True, None) or (False, witness pair of ideals with equal weight
    sums lying in different orbits).
    """
    ideals = poset.all_ideals()
    by_sum: dict[Fraction, list[frozenset[str]]] = {}
    for ideal in ideals:
        by_sum.setdefault(omega.total(ideal), []).append(ideal)
    if all(len(group) == 1 for group in by_sum.values()):
        return True, None
    perms = weight_preserving_automorphisms(poset, omega)
    for total in sorted(by_sum):
        group = by_sum[total]
        if len(group) == 1:
            continue
        base = group[0]
        # weight-preserving automorphisms form a group, so orbits partition
        # the equal-sum class; one orbit computation settles the whole class
        orbit = {poset.apply_perm(p, base) for p in perms}
        for other in group[1:]:
            if other not in orbit:
                return False, (base, other)
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
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), state in zip(pairs, states):
            if state == 1:
                leq[i][j] = True
            elif state == 2:
                leq[j][i] = True
        if _is_transitive(leq):
            yield Poset(labels, tuple(tuple(row) for row in leq))


def _is_transitive(leq: list[list[bool]]) -> bool:
    n = len(leq)
    for i in range(n):
        row_i = leq[i]
        for j in range(n):
            if i != j and row_i[j]:
                row_j = leq[j]
                for k in range(n):
                    if row_j[k] and not row_i[k]:
                        return False
    return True
