"""Ingestion of declared field data for orders beyond the quadratic backend.

A declared file is a single JSON object:

    {
      "description": "...",
      "class_invariants": [2, 6],
      "conductor_primes": [
        {
          "label": "p1",              # optional; defaults to "p<p>"
          "p": 7,
          "residue_size_below": 7,
          "places": [
            {"label": "P1", "degree": 2, "ramification": 1, "class_image": [1, 3]},
            ...
          ]
        },
        ...
      ]
    }

``class_invariants`` are the invariant factors of the class group of the
normalization (ascending divisibility chain, entries >= 2).  Each conductor
prime record describes one potential non-invertible maximal ideal: the size
of its residue field, and the places of the normalization above it with
their degrees over the prime, ramification exponents and ideal-class images
in invariant coordinates.  One file stores the superset of records for a
field; an order is carved out by selecting a sublist of records, so the same
place may appear in several records as long as no two of them are selected
together.

Parsed, each record is an ``orders.NonInvertiblePrime`` (``residue_size``
from ``"residue_size_below"``) over ``DeclaredPlace``s (``e`` from
``"ramification"``), with g and the Bezout coefficients derived once; an
order holds the selected records themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DeclaredDataError
from .ntheory import is_prime
from .orders import DeclaredOrder, NonInvertiblePrime

_TOP_KEYS = {"description", "class_invariants", "conductor_primes"}
_PRIME_KEYS = {"label", "p", "residue_size_below", "places"}
_PRIME_REQUIRED = {"p", "residue_size_below", "places"}
_PLACE_KEYS = {"label", "degree", "ramification", "class_image"}


@dataclass(frozen=True)
class DeclaredPlace:
    """A declared place: ``e`` is its ramification exponent (the JSON key
    ``"ramification"``), ``class_image`` its class in invariant coordinates."""

    label: str
    degree: int
    e: int
    class_image: tuple


@dataclass(frozen=True)
class DeclaredField:
    description: str
    class_invariants: tuple
    conductor_primes: tuple
    # record by label, the first one when a label repeats; built once
    _by_label: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_label = {}
        for rec in self.conductor_primes:
            by_label.setdefault(rec.label, rec)
        object.__setattr__(self, "_by_label", by_label)

    def prime(self, label):
        """The record with this label, looked up in constant time."""
        rec = self._by_label.get(label)
        if rec is None:
            raise DeclaredDataError(f"unknown conductor prime {label!r}")
        return rec

    @property
    def prime_labels(self):
        return tuple(rec.label for rec in self.conductor_primes)


# The checks below build a path and a message only on the branch that
# raises, so a valid document costs one pass over its values.  JSON yields
# exact ints, so ``type(v) is int`` is "an integer and not a bool".


def _keys_error(keys, allowed, required, path):
    """Raise for a map whose keys are not between ``required`` and ``allowed``."""
    extra = set(keys) - allowed
    if extra:
        raise DeclaredDataError(f"unknown keys {sorted(extra)}", path)
    raise DeclaredDataError(f"missing keys {sorted(required - set(keys))}", path)


def _int_error(value, path, minimum=None):
    """Raise for a value that is not an integer, or one below ``minimum``."""
    if type(value) is not int:
        raise DeclaredDataError(f"expected an integer, got {value!r}", path)
    raise DeclaredDataError(f"expected an integer >= {minimum}, got {value}", path)


def _image_error(image, invariants, path):
    """Raise for the first coordinate of ``image`` that is not reduced."""
    for t, (v, dmod) in enumerate(zip(image, invariants)):
        if type(v) is not int:
            _int_error(v, f"{path}[{t}]")
        if not 0 <= v < dmod:
            raise DeclaredDataError(f"coordinate {v} is not reduced modulo {dmod}",
                                    f"{path}[{t}]")


def parse_declared(text: str) -> DeclaredField:
    """Parse and validate a declared-data document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DeclaredDataError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if type(raw) is not dict:
        raise DeclaredDataError("top level must be a single map", "$")
    if raw.keys() != _TOP_KEYS:
        _keys_error(raw, _TOP_KEYS, _TOP_KEYS, "$")
    if type(raw["description"]) is not str:
        raise DeclaredDataError("description must be a string", "description")

    invariants = raw["class_invariants"]
    if type(invariants) is not list:
        raise DeclaredDataError("class_invariants must be a list", "class_invariants")
    for i, d in enumerate(invariants):
        if type(d) is not int or d < 2:
            _int_error(d, f"class_invariants[{i}]", minimum=2)
        if i and d % invariants[i - 1]:
            raise DeclaredDataError(
                f"divisibility chain broken: {invariants[i - 1]} does not divide {d}",
                f"class_invariants[{i}]")
    invariants = tuple(invariants)
    width = len(invariants)

    recs = raw["conductor_primes"]
    if type(recs) is not list:
        raise DeclaredDataError("conductor_primes must be a list", "conductor_primes")
    primes = []
    labels_seen = set()
    known_primes = set()  # a file repeats a handful of p: test each once
    for i, rec in enumerate(recs):
        if type(rec) is not dict:
            raise DeclaredDataError("each conductor prime must be a map",
                                    f"conductor_primes[{i}]")
        if not _PRIME_REQUIRED <= rec.keys() <= _PRIME_KEYS:
            _keys_error(rec, _PRIME_KEYS, _PRIME_REQUIRED, f"conductor_primes[{i}]")
        p = rec["p"]
        if type(p) is not int or p < 2:
            _int_error(p, f"conductor_primes[{i}].p", minimum=2)
        if p not in known_primes:
            if not is_prime(p):
                raise DeclaredDataError(f"{p} is not prime", f"conductor_primes[{i}].p")
            known_primes.add(p)
        res = rec["residue_size_below"]
        if type(res) is not int or res < 2:
            _int_error(res, f"conductor_primes[{i}].residue_size_below", minimum=2)
        r = res
        while r % p == 0:
            r //= p
        if r != 1:
            raise DeclaredDataError(f"residue size {res} is not a power of {p}",
                                    f"conductor_primes[{i}].residue_size_below")
        label = rec["label"] if "label" in rec else f"p{p}"
        if type(label) is not str or not label:
            raise DeclaredDataError("label must be a non-empty string",
                                    f"conductor_primes[{i}].label")
        if label in labels_seen:
            raise DeclaredDataError(f"duplicate prime label {label!r}",
                                    f"conductor_primes[{i}].label")
        labels_seen.add(label)

        raw_places = rec["places"]
        if type(raw_places) is not list or not raw_places:
            raise DeclaredDataError("places must be a non-empty list",
                                    f"conductor_primes[{i}].places")
        places = []
        place_labels = set()
        for j, pl in enumerate(raw_places):
            if type(pl) is not dict:
                raise DeclaredDataError("each place must be a map",
                                        f"conductor_primes[{i}].places[{j}]")
            if pl.keys() != _PLACE_KEYS:
                _keys_error(pl, _PLACE_KEYS, _PLACE_KEYS,
                            f"conductor_primes[{i}].places[{j}]")
            plabel = pl["label"]
            if type(plabel) is not str or not plabel:
                raise DeclaredDataError("label must be a non-empty string",
                                        f"conductor_primes[{i}].places[{j}].label")
            if plabel in place_labels:
                raise DeclaredDataError(
                    f"duplicate place label {plabel!r} within the record",
                    f"conductor_primes[{i}].places[{j}].label")
            place_labels.add(plabel)
            degree = pl["degree"]
            if type(degree) is not int or degree < 1:
                _int_error(degree, f"conductor_primes[{i}].places[{j}].degree", minimum=1)
            ram = pl["ramification"]
            if type(ram) is not int or ram < 1:
                _int_error(ram, f"conductor_primes[{i}].places[{j}].ramification",
                           minimum=1)
            image = pl["class_image"]
            if type(image) is not list:
                raise DeclaredDataError("class_image must be an integer vector",
                                        f"conductor_primes[{i}].places[{j}].class_image")
            if len(image) != width:
                raise DeclaredDataError(
                    f"class_image has length {len(image)}, expected {width}",
                    f"conductor_primes[{i}].places[{j}].class_image")
            for v, dmod in zip(image, invariants):
                if type(v) is not int or not 0 <= v < dmod:
                    _image_error(image, invariants,
                                 f"conductor_primes[{i}].places[{j}].class_image")
            places.append(DeclaredPlace(plabel, degree, ram, tuple(image)))
        primes.append(NonInvertiblePrime(label, p, res, tuple(places)))

    return DeclaredField(raw["description"], invariants, tuple(primes))


def serialize_declared(decl: DeclaredField) -> str:
    """Canonical JSON for a declared record; parse(serialize(x)) == x."""
    doc = {
        "description": decl.description,
        "class_invariants": list(decl.class_invariants),
        "conductor_primes": [
            {
                "label": rec.label,
                "p": rec.p,
                "residue_size_below": rec.residue_size,
                "places": [
                    {
                        "label": pl.label,
                        "degree": pl.degree,
                        "ramification": pl.e,
                        "class_image": list(pl.class_image),
                    }
                    for pl in rec.places
                ],
            }
            for rec in decl.conductor_primes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_declared(path) -> DeclaredField:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_declared(handle.read())


def declared_order(decl: DeclaredField, active_primes) -> DeclaredOrder:
    """Order carved out of a declared field by selecting conductor primes.

    ``active_primes`` is an iterable of record labels; an empty selection
    yields the maximal order.  Selected records must not share place labels,
    and no selected record may be labeled like a place of another one, or
    the label would name both (``PlaceResolutionError``).
    """
    selection = tuple(active_primes)
    seen = set()
    primes = []
    for label in selection:
        if label in seen:
            raise DeclaredDataError(f"conductor prime {label!r} selected twice")
        seen.add(label)
        primes.append(decl.prime(label))
    return DeclaredOrder(decl, selection, primes)
