"""Small helpers shared by the test modules."""

import itertools

from posetmetrics.posets import Perm, Poset


def apply_perm(poset: Poset, perm: Perm, subset) -> frozenset:
    """The image of a label set under an element permutation of the poset."""
    return frozenset(poset.elements[perm[poset.index(x)]] for x in subset)


def linear_maps(code, space):
    """Every linear map from the code into the space, as tuples of images of
    the code's RREF basis rows."""
    return itertools.product(tuple(space.vectors()), repeat=code.dim)
