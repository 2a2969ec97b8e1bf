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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DeclaredDataError
from .ntheory import is_prime
from .orders import DeclaredOrder, NonInvertiblePrime, PlaceInfo
from .abgroup import bezout_gcd

_TOP_KEYS = {"description", "class_invariants", "conductor_primes"}
_PRIME_KEYS = {"label", "p", "residue_size_below", "places"}
_PLACE_KEYS = {"label", "degree", "ramification", "class_image"}


@dataclass(frozen=True)
class DeclaredPlace:
    label: str
    degree: int
    ramification: int
    class_image: tuple


@dataclass(frozen=True)
class DeclaredPrime:
    label: str
    p: int
    residue_size_below: int
    places: tuple


@dataclass(frozen=True)
class DeclaredField:
    description: str
    class_invariants: tuple
    conductor_primes: tuple

    def prime(self, label):
        for rec in self.conductor_primes:
            if rec.label == label:
                return rec
        raise DeclaredDataError(f"unknown conductor prime {label!r}")

    @property
    def prime_labels(self):
        return tuple(rec.label for rec in self.conductor_primes)


def _expect(cond, message, path):
    if not cond:
        raise DeclaredDataError(message, path=path)


def _check_int(value, path, minimum=None):
    _expect(isinstance(value, int) and not isinstance(value, bool),
            f"expected an integer, got {value!r}", path)
    if minimum is not None:
        _expect(value >= minimum, f"expected an integer >= {minimum}, got {value}", path)
    return value


def parse_declared(text: str) -> DeclaredField:
    """Parse and validate a declared-data document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DeclaredDataError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _expect(isinstance(raw, dict), "top level must be a single map", "$")
    extra = set(raw) - _TOP_KEYS
    _expect(not extra, f"unknown keys {sorted(extra)}", "$")
    missing = _TOP_KEYS - set(raw)
    _expect(not missing, f"missing keys {sorted(missing)}", "$")

    _expect(isinstance(raw["description"], str), "description must be a string",
            "description")

    inv = raw["class_invariants"]
    _expect(isinstance(inv, list), "class_invariants must be a list",
            "class_invariants")
    invariants = []
    for i, d in enumerate(inv):
        path = f"class_invariants[{i}]"
        _check_int(d, path, minimum=2)
        if invariants:
            _expect(d % invariants[-1] == 0,
                    f"divisibility chain broken: {invariants[-1]} does not divide {d}",
                    path)
        invariants.append(d)

    recs = raw["conductor_primes"]
    _expect(isinstance(recs, list), "conductor_primes must be a list",
            "conductor_primes")
    primes = []
    labels_seen = set()
    for i, rec in enumerate(recs):
        path = f"conductor_primes[{i}]"
        _expect(isinstance(rec, dict), "each conductor prime must be a map", path)
        extra = set(rec) - _PRIME_KEYS
        _expect(not extra, f"unknown keys {sorted(extra)}", path)
        missing = {"p", "residue_size_below", "places"} - set(rec)
        _expect(not missing, f"missing keys {sorted(missing)}", path)
        p = _check_int(rec["p"], f"{path}.p", minimum=2)
        _expect(is_prime(p), f"{p} is not prime", f"{path}.p")
        res = _check_int(rec["residue_size_below"], f"{path}.residue_size_below",
                         minimum=2)
        r = res
        while r % p == 0:
            r //= p
        _expect(r == 1, f"residue size {res} is not a power of {p}",
                f"{path}.residue_size_below")
        label = rec.get("label", f"p{p}")
        _expect(isinstance(label, str) and label,
                "label must be a non-empty string", f"{path}.label")
        _expect(label not in labels_seen, f"duplicate prime label {label!r}",
                f"{path}.label")
        labels_seen.add(label)

        raw_places = rec["places"]
        _expect(isinstance(raw_places, list) and raw_places,
                "places must be a non-empty list", f"{path}.places")
        places = []
        place_labels = set()
        for j, pl in enumerate(raw_places):
            ppath = f"{path}.places[{j}]"
            _expect(isinstance(pl, dict), "each place must be a map", ppath)
            extra = set(pl) - _PLACE_KEYS
            _expect(not extra, f"unknown keys {sorted(extra)}", ppath)
            missing = _PLACE_KEYS - set(pl)
            _expect(not missing, f"missing keys {sorted(missing)}", ppath)
            plabel = pl["label"]
            _expect(isinstance(plabel, str) and plabel,
                    "label must be a non-empty string", f"{ppath}.label")
            _expect(plabel not in place_labels,
                    f"duplicate place label {plabel!r} within the record",
                    f"{ppath}.label")
            place_labels.add(plabel)
            degree = _check_int(pl["degree"], f"{ppath}.degree", minimum=1)
            ram = _check_int(pl["ramification"], f"{ppath}.ramification", minimum=1)
            image = pl["class_image"]
            _expect(isinstance(image, list),
                    "class_image must be an integer vector", f"{ppath}.class_image")
            _expect(len(image) == len(invariants),
                    f"class_image has length {len(image)}, expected {len(invariants)}",
                    f"{ppath}.class_image")
            vec = []
            for t, (v, dmod) in enumerate(zip(image, invariants)):
                vpath = f"{ppath}.class_image[{t}]"
                _check_int(v, vpath)
                _expect(0 <= v < dmod,
                        f"coordinate {v} is not reduced modulo {dmod}", vpath)
                vec.append(v)
            places.append(DeclaredPlace(plabel, degree, ram, tuple(vec)))
        primes.append(DeclaredPrime(label, p, res, tuple(places)))

    return DeclaredField(raw["description"], tuple(invariants), tuple(primes))


def serialize_declared(decl: DeclaredField) -> str:
    """Canonical JSON for a declared record; parse(serialize(x)) == x."""
    doc = {
        "description": decl.description,
        "class_invariants": list(decl.class_invariants),
        "conductor_primes": [
            {
                "label": rec.label,
                "p": rec.p,
                "residue_size_below": rec.residue_size_below,
                "places": [
                    {
                        "label": pl.label,
                        "degree": pl.degree,
                        "ramification": pl.ramification,
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
    yields the maximal order.  Selected records must not share place labels.
    """
    selection = tuple(active_primes)
    seen = set()
    primes = []
    for label in selection:
        if label in seen:
            raise DeclaredDataError(f"conductor prime {label!r} selected twice")
        seen.add(label)
        rec = decl.prime(label)
        infos = tuple(
            PlaceInfo(pl.label, pl.degree, pl.ramification,
                      class_image=pl.class_image)
            for pl in rec.places
        )
        g, lambdas = bezout_gcd([pl.degree for pl in rec.places])
        primes.append(NonInvertiblePrime(
            rec.label, rec.p, rec.residue_size_below, infos, g, tuple(lambdas)))
    return DeclaredOrder(decl, selection, primes)
