"""Declared-data ingestion: validation, round trips, backend equivalence."""

import json
import random

import pytest

from chowkit.chow import chow_group
from chowkit.declared import (
    declared_order,
    load_declared,
    parse_declared,
    serialize_declared,
)
from chowkit.errors import DeclaredDataError, PlaceResolutionError
from chowkit.orders import order_from_conductor
from chowkit.quadfield import make_field
from util import random_declared_field, transcribe_to_declared

BIQUAD = "data/biquad.decl"
QUINTIC = "data/quintic.decl"
TEMPLATE = "data/sextic_template.decl"


def test_parse_golden_files():
    biquad = load_declared(BIQUAD)
    assert biquad.class_invariants == (2,)
    (rec,) = biquad.conductor_primes
    assert rec.label == "main" and rec.p == 2
    assert [pl.degree for pl in rec.places] == [2, 2]
    assert [pl.class_image for pl in rec.places] == [(1,), (1,)]

    quintic = load_declared(QUINTIC)
    assert quintic.class_invariants == ()
    assert quintic.prime_labels == ("p1", "p2", "p7")


def test_template_is_rejected_with_named_invariant():
    with pytest.raises(DeclaredDataError) as err:
        load_declared(TEMPLATE)
    assert "class_image" in str(err.value)


def test_round_trip():
    for path in (BIQUAD, QUINTIC):
        decl = load_declared(path)
        assert parse_declared(serialize_declared(decl)) == decl
    # equality covers each record's derived g and lambdas, and e <-> "ramification"
    for uniform in (True, False):
        for seed, chain in enumerate(((), (2,), (3, 6), (2, 6, 12)) * 5):
            decl = random_declared_field(random.Random(seed), 12, chain, uniform=uniform)
            assert parse_declared(serialize_declared(decl)) == decl, (uniform, seed)


def test_syntax_error_position():
    with pytest.raises(DeclaredDataError) as err:
        parse_declared('{"description": "x", \n  "class_invariants": [2,],}')
    assert "line" in str(err.value)


def _golden_doc():
    with open(BIQUAD, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _expect_rejected(doc, needle):
    with pytest.raises(DeclaredDataError) as err:
        parse_declared(json.dumps(doc))
    assert needle in str(err.value), str(err.value)


def test_fuzzed_mutations_are_rejected():
    doc = _golden_doc()
    doc["class_invariants"] = [4, 6]          # 4 does not divide 6
    _expect_rejected(doc, "divisibility")

    doc = _golden_doc()
    doc["class_invariants"] = [1]
    _expect_rejected(doc, "class_invariants[0]")

    doc = _golden_doc()
    doc["conductor_primes"][0]["places"][0]["class_image"] = [1, 0]
    _expect_rejected(doc, "length")

    doc = _golden_doc()
    doc["conductor_primes"][0]["places"][0]["class_image"] = [2]
    _expect_rejected(doc, "reduced")

    doc = _golden_doc()
    doc["conductor_primes"][0]["places"][0]["degree"] = 0
    _expect_rejected(doc, "degree")

    doc = _golden_doc()
    doc["conductor_primes"][0]["places"][1]["ramification"] = -1
    _expect_rejected(doc, "ramification")

    doc = _golden_doc()
    doc["conductor_primes"][0]["places"][1]["label"] = "P"
    _expect_rejected(doc, "duplicate place label")

    doc = _golden_doc()
    doc["conductor_primes"][0]["p"] = 6
    _expect_rejected(doc, "not prime")

    doc = _golden_doc()
    doc["conductor_primes"][0]["residue_size_below"] = 3
    _expect_rejected(doc, "power")

    doc = _golden_doc()
    doc["conductor_primes"][0]["extra_key"] = 1
    _expect_rejected(doc, "unknown keys")

    doc = _golden_doc()
    del doc["class_invariants"]
    _expect_rejected(doc, "missing keys")

    doc = _golden_doc()
    doc["conductor_primes"].append(dict(doc["conductor_primes"][0]))
    _expect_rejected(doc, "duplicate prime label")


def test_selection_rules():
    quintic = load_declared(QUINTIC)
    assert declared_order(quintic, ()).is_maximal
    with pytest.raises(DeclaredDataError):
        declared_order(quintic, ["nope"])
    with pytest.raises(DeclaredDataError):
        declared_order(quintic, ["p1", "p1"])
    # p1 and p7 share the place P1 and cannot be co-selected
    with pytest.raises(Exception) as err:
        declared_order(quintic, ["p1", "p7"])
    assert "P1" in str(err.value)


def test_selection_refuses_a_record_label_naming_another_place():
    """Records ``A`` (place ``B1``) and ``B`` (place ``A``) parse, and each
    can be selected, but selected together the token ``A`` would name both
    a prime and a place: the selection is refused, as for a shared place."""
    def record(label, place):
        return {"label": label, "p": 7, "residue_size_below": 7,
                "places": [{"label": place, "degree": 1, "ramification": 1,
                            "class_image": []}]}

    decl = parse_declared(json.dumps({
        "description": "a record label that is a place label of another record",
        "class_invariants": [],
        "conductor_primes": [record("A", "B1"), record("B", "A")]}))
    assert declared_order(decl, ["A"]).resolve("A") == (None, decl.prime("A"))
    assert declared_order(decl, ["B"]).resolve("A")[1] is decl.prime("B")
    for selection in (["A", "B"], ["B", "A"]):
        with pytest.raises(PlaceResolutionError, match="A names a selected prime"):
            declared_order(decl, selection)


def test_declared_order_fabric():
    quintic = load_declared(QUINTIC)
    O = declared_order(quintic, ["p7"])
    (prime,) = O.primes
    assert prime.g == 1
    assert [pl.degree for pl in prime.places] == [2, 3]
    assert sum(l * d for l, d in zip(prime.lambdas,
                                     [pl.degree for pl in prime.places])) == 1
    # biquad: one prime with d = (2, 2) and g = 2; the quintic local parts
    biquad = load_declared(BIQUAD)
    (bp,) = declared_order(biquad, ["main"]).primes
    assert [pl.degree for pl in bp.places] == [2, 2] and bp.g == 2
    assert declared_order(quintic, ["p1"]).primes[0].g == 2
    assert declared_order(quintic, ["p2"]).primes[0].g == 3


def test_backend_equivalence_sample():
    for d, f in ((-23, 2), (-20, 6), (-7, 14), (8, 3), (40, 10)):
        O = order_from_conductor(make_field(d), f)
        T = transcribe_to_declared(O)
        assert chow_group(T).result.invariant_factors == chow_group(O).result.invariant_factors, (d, f)
