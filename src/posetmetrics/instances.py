"""Instance files: one JSON document describing field, poset, weights, dims.

Schema:
    {
      "q": 2,
      "poset": {"elements": ["a", "b", "c"], "covers": [["a", "b"]]},
      "omega": {"a": "1", "b": "1/2", "c": "3"},      # optional, default all 1
      "dims":  {"a": 1, "b": 2, "c": 1}               # optional, default all 1
    }

Rationals are strings so parsing stays exact.  Covers list the strict
relation's covering pairs; the full order is closed here.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .errors import BoundExceeded, ValidationError
from .posets import ELEMENT_BOUND, Poset, Value, WeightFunction
from .spaces import AlphabetSpec, FieldSpec


class Instance(Value):
    __match_args__ = ("poset", "omega", "space", "digest")

    def __init__(self, poset: Poset, omega: WeightFunction, space: AlphabetSpec, digest: str) -> None:
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "digest", digest)


def _is_int(raw) -> bool:
    """JSON true and false load as bools, which Python counts as ints."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _parse_fraction(raw, where: str) -> Fraction:
    if isinstance(raw, float):
        raise ValidationError(f"{where}: floats are not accepted, use strings like '1/3'")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ValidationError(f"{where}: {raw!r} has a zero denominator") from None
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def instance_from_dict(payload: Mapping) -> Instance:
    if not isinstance(payload, Mapping):
        raise ValidationError("instance document must be a JSON object")
    try:
        q = payload["q"]
        poset_doc = payload["poset"]
        elements = list(poset_doc["elements"])
        covers = [tuple(pair) for pair in poset_doc.get("covers", [])]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"missing or malformed instance field: {exc}") from None
    if not _is_int(q):
        raise ValidationError("q must be an integer")
    if not elements:
        raise ValidationError("the coordinate set must be nonempty")
    for pair in covers:
        if len(pair) != 2:
            raise ValidationError(f"cover {pair!r} must be a pair")
    # omega and dims keys are JSON strings, so any other label could never match
    if not all(isinstance(label, str) for label in elements + [x for p in covers for x in p]):
        raise ValidationError("poset elements and cover endpoints must be strings")
    field = FieldSpec(q)
    if len(elements) > ELEMENT_BOUND:  # checked before any work on the relation
        raise BoundExceeded(f"{len(elements)} poset elements exceed the element bound {ELEMENT_BOUND}")
    poset = Poset.from_covers(elements, covers)
    omega_doc = payload.get("omega")
    if omega_doc is None:
        omega = WeightFunction.ones(poset.elements)
    else:
        if set(omega_doc) != set(elements):
            raise ValidationError("omega keys must equal the element set")
        omega = WeightFunction(
            poset.elements,
            tuple(_parse_fraction(omega_doc[e], f"omega[{e}]") for e in poset.elements),
        )
    dims_doc = payload.get("dims")
    if dims_doc is None:
        space = AlphabetSpec.uniform(field, poset.elements, 1)
    else:
        if set(dims_doc) != set(elements):
            raise ValidationError("dims keys must equal the element set")
        if not all(_is_int(dims_doc[e]) for e in elements):
            raise ValidationError("dims must be integers")
        space = AlphabetSpec.from_map(field, poset.elements, dims_doc)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return Instance(poset, omega, space, digest)


def load_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read instance file: {exc}") from None
    try:
        payload = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise ValidationError(f"instance file is not valid JSON: {exc}") from None
    return instance_from_dict(payload)
