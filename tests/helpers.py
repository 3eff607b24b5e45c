"""Small helpers shared by the test modules."""

import itertools

from posetmetrics.isometries import weight_sum_functional
from posetmetrics.posets import Perm, Poset, powers_of_two_weight


def apply_perm(poset: Poset, perm: Perm, subset) -> frozenset:
    """The image of a label set under an element permutation of the poset."""
    return frozenset(poset.elements[perm[poset.index(x)]] for x in subset)


def linear_maps(code, space):
    """Every linear map from the code into the space, as tuples of images of
    the code's RREF basis rows."""
    return itertools.product(tuple(space.vectors()), repeat=code.dim)


def key_for(poset: Poset, omega, mode: str):
    """The integer key mep_brute_force compares in a mode: the weight key, of
    the doubling weights in support mode."""
    return weight_sum_functional(poset, powers_of_two_weight(poset) if mode == "support" else omega)


def value_for(poset: Poset, omega, mode: str):
    """The value a key stands for, on label sets, kept as the oracle of the
    keys: the exact weight of the ideal closure, or the closure itself in
    support mode."""
    if mode == "support":
        return poset.ideal_closure
    return lambda subset: omega.total(poset.ideal_closure(subset))


def closure_key(mask: int) -> int:
    """The support-closure key with no weights: each ideal mask is its own key."""
    return mask
