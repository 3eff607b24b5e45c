"""Value semantics of the classes on posets.Value, against frozen-dataclass twins.

Every value class is built in its positional, keyword and default call forms,
and its twin in tests/helpers.py from the same arguments; the twin's
generated eq, hash and repr are the oracle.
"""

import inspect
import itertools
from dataclasses import fields
from fractions import Fraction

import pytest

from helpers import DATACLASS_TWINS, matrix_from_covers
from posetmetrics import fourier, instances, isometries, lattices, mep, posets, spaces

F2, F3 = spaces.FieldSpec(2), spaces.FieldSpec(3)
CHAIN = posets.Poset.chain(("a", "b"))
VEE = posets.Poset.from_covers(("a", "b", "c"), [("b", "a"), ("b", "c")])
SPACE = spaces.AlphabetSpec(F2, ("a", "b"), (1, 2))
CODE = spaces.LinearCode(SPACE, ((1, 0, 0),))
OTHER_CODE = spaces.LinearCode(SPACE, ((0, 1, 0), (0, 0, 1)))
ONES = posets.WeightFunction.ones(("a", "b"))
DIAG = (((1,),), ((1, 0), (0, 1)))
BOOLEAN = (frozenset(), frozenset("x"), frozenset("y"), frozenset("xy"))

CLASSES = {
    cls.__name__: cls
    for cls in (
        posets.Poset, posets.WeightFunction, spaces.FieldSpec, spaces.AlphabetSpec,
        spaces.LinearCode, isometries.Isometry, lattices.FiniteLattice, lattices.Solution,
        mep.MepVerdict, mep.ConditionReport, fourier.CyclotomicInteger, fourier.Partition,
        fourier.MacwilliamsResult, fourier.AuditReport, instances.Instance,
    )
}

# (class name, positional arguments, keyword arguments)
CALLS = [
    ("FieldSpec", (2,), {}),
    ("FieldSpec", (3,), {}),
    ("FieldSpec", (), {"q": 5}),
    ("Poset", (CHAIN.elements, CHAIN.leq), {}),
    ("Poset", (("a", "b"), ((True, False), (False, True))), {}),
    ("Poset", (), {"elements": VEE.elements, "leq": VEE.leq}),
    ("WeightFunction", (("a", "b"), (Fraction(1), Fraction(1, 2))), {}),
    ("WeightFunction", (), {"labels": ("a", "b"), "values": (Fraction(1), Fraction(1))}),
    ("AlphabetSpec", (F2, ("a", "b"), (1, 2)), {}),
    ("AlphabetSpec", (F3, ("a", "b"), (1, 2)), {}),
    ("AlphabetSpec", (), {"field": F2, "labels": ("a", "b"), "dims": (1, 1)}),
    ("LinearCode", (SPACE, ((1, 0, 0),)), {}),
    ("LinearCode", (SPACE, ()), {}),
    ("LinearCode", (), {"space": SPACE, "basis": ((0, 1, 0), (0, 0, 1))}),
    ("Isometry", (SPACE, CHAIN, (0, 1), DIAG, ()), {}),
    ("Isometry", (SPACE, CHAIN, (0, 1), DIAG, ((1, 0, ((1, 1),)),)), {}),
    ("Isometry", (), {"space": SPACE, "poset": CHAIN, "lam": (0, 1), "diag": DIAG, "strict": ()}),
    ("FiniteLattice", (("x", "y"), BOOLEAN), {}),
    ("FiniteLattice", (), {"ground": ("x", "y"), "members": (frozenset("x"), frozenset("xy"))}),
    ("Solution", ((frozenset("a"),), (frozenset("b"),)), {}),
    ("Solution", (), {"left": (), "right": (frozenset("a"),)}),
    ("MepVerdict", (True,), {}),
    ("MepVerdict", (), {"holds": False, "complete": False}),
    ("MepVerdict", (False, True, (CODE, ((0, 1, 0),))), {}),
    ("MepVerdict", (True,), {"predicate_trace": {"udp": True}}),
    ("ConditionReport", (True, True, True, True, True), {}),
    (
        "ConditionReport",
        (True, True, True, False, False),
        {"witnesses": (("udp_matched_dims", ("a", "b")),), "notes": ("by instantiation",)},
    ),
    ("CyclotomicInteger", (3, (1, -1)), {}),
    ("CyclotomicInteger", (), {"prime": 5, "coeffs": (0, 0, 0, 1)}),
    ("Partition", (SPACE, (0, 1, 1, 1, 2, 2, 2, 2)), {}),
    ("Partition", (), {"space": SPACE, "ids": (0,) + (1,) * 7}),
    ("MacwilliamsResult", (True,), {}),
    ("MacwilliamsResult", (), {"holds": False, "witness": (CODE, OTHER_CODE)}),
    ("AuditReport", ({"mep": True}, (), True, True, True, True), {}),
    ("Instance", (CHAIN, ONES, SPACE, "0" * 64), {}),
    ("Instance", (), {"poset": VEE, "omega": ONES, "space": SPACE, "digest": "f" * 64}),
]
IDS = [f"{name}-{t}" for t, (name, _, _) in enumerate(CALLS)]


def build(call):
    """The value and its dataclass twin, from the same arguments."""
    name, args, kwargs = call
    return CLASSES[name](*args, **kwargs), DATACLASS_TWINS[name](*args, **kwargs)


def hash_or_error(obj):
    """The hash, or the name of the error hashing raises (a dict field)."""
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc).__name__


def test_every_value_class_has_a_twin_with_its_signature():
    assert {cls.__name__ for cls in posets.Value.__subclasses__()} == set(CLASSES)
    assert set(DATACLASS_TWINS) == set(CLASSES) == {name for name, _, _ in CALLS}
    for name, cls in CLASSES.items():
        twin = DATACLASS_TWINS[name]
        assert cls.__match_args__ == twin.__match_args__ == tuple(f.name for f in fields(twin))
        ours, theirs = inspect.signature(cls).parameters, inspect.signature(twin).parameters
        assert [(p.name, p.kind, p.default) for p in ours.values()] == [
            (p.name, p.kind, p.default) for p in theirs.values()
        ], name


@pytest.mark.parametrize("call", CALLS, ids=IDS)
def test_eq_hash_and_repr_match_the_twin(call):
    value, twin = build(call)
    again, _ = build(call)
    assert repr(value) == repr(twin)
    assert hash_or_error(value) == hash_or_error(twin) == hash_or_error(again)
    assert value == again and not value != again
    # a value never equals an object of another class, its twin included
    assert value != twin and not value == twin and not twin == value


def test_equality_on_every_pair_matches_the_twins():
    built = [build(call) for call in CALLS]
    for (a, twin_a), (b, twin_b) in itertools.product(built, repeat=2):
        assert (a == b) is (twin_a == twin_b)
        assert (a != b) is (twin_a != twin_b)
        if a == b and hash_or_error(a) != "TypeError":
            assert hash(a) == hash(b)


def test_equal_fields_of_another_class_are_not_equal():
    code, partition = spaces.LinearCode(SPACE, ()), fourier.Partition(SPACE, ())
    assert (code.space, code.basis) == (partition.space, partition.ids)
    assert code != partition and not code == partition and not partition == code


@pytest.mark.parametrize("call", CALLS, ids=IDS)
def test_assignment_and_deletion_raise(call):
    value, _ = build(call)
    before = repr(value)
    for name in (value.__match_args__[0], "_derived", "new_name"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == before


# each class with derived state: a factory, the derived names set at
# construction (the isometry's matrix among them), the names a first use adds
# (by cached_property), and the value each derived field (one named in
# __match_args__) must read
VEE_COVERS = (("a", "b", "c"), [("b", "a"), ("b", "c")])
LATTICE_TABLES = {"_pos", "_points", "_masks", "_holders", "_ups", "_up_index", "_member_index"}
LATTICE_ON_USE = ("_point_closure_masks", "_generators", "_moebius")
DERIVED = [
    (lambda: posets.Poset.from_covers(*VEE_COVERS),
     {"_pos", "_down", "_up", "_automorphisms", "_group_slices"},
     ("leq", "_ideal_masks", "_ideals", "_levels"),
     {"leq": matrix_from_covers(*VEE_COVERS).leq}),
    (lambda: posets.WeightFunction(("a", "b"), (Fraction(1, 3), Fraction(3, 4))),
     {"_pos", "_scaled"}, (), {}),
    (lambda: spaces.AlphabetSpec(F3, ("a", "b", "c"), (1, 2, 1)), {"_block_bounds"}, (), {}),
    (lambda: lattices.FiniteLattice(("x", "y"), BOOLEAN), LATTICE_TABLES, LATTICE_ON_USE, {}),
    # built by the trusted entry, with no validation
    (lambda: lattices.subspace_lattice(2, 2), LATTICE_TABLES, LATTICE_ON_USE, {}),
    (lambda: isometries.Isometry(SPACE, CHAIN, (0, 1), DIAG, ((1, 0, ((1, 1),)),)), {"_matrix"},
     (), {}),
]


@pytest.mark.parametrize(
    "make, at_init, on_use, derived_fields", DERIVED,
    ids=["Poset", "WeightFunction", "AlphabetSpec", "FiniteLattice", "subspace_lattice",
         "Isometry"],
)
def test_derived_state_stays_out_of_eq_hash_and_repr(make, at_init, on_use, derived_fields):
    value, fresh = make(), make()
    fields = set(value.__match_args__)
    assert set(vars(value)) == (fields - set(derived_fields)) | at_init
    for name in on_use:  # a first use keeps its result on the object
        first = getattr(value, name)
        assert getattr(value, name) is first
    for name, expected in derived_fields.items():
        assert getattr(value, name) == expected
    assert set(vars(value)) == fields | at_init | set(on_use)
    assert value == fresh and hash(value) == hash(fresh) and repr(value) == repr(fresh)
    assert not any(name in repr(value) for name in (at_init | set(on_use)) - fields)
    for name in at_init | set(on_use):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
