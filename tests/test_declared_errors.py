"""Byte-exact corpus of declared-data errors: one mutated document per raise
site of ``parse_declared``, with the exact message and ``path``.

The messages are part of the CLI's output (exit code 3 prints them), so a
change to the parser must keep every one of them, and the order in which a
document's first problem is found, byte for byte.
"""

import copy
import json

import pytest

from chowkit.declared import parse_declared
from chowkit.errors import DeclaredDataError

BIQUAD = "data/biquad.decl"

with open(BIQUAD, "r", encoding="utf-8") as _handle:
    _BASE = json.load(_handle)

REC = "conductor_primes[0]"
PL0 = f"{REC}.places[0]"
PL1 = f"{REC}.places[1]"


def _rec(doc):
    return doc["conductor_primes"][0]


def _place(doc, j=0):
    return _rec(doc)["places"][j]


def _set(getter, key, value):
    def mutate(doc):
        getter(doc)[key] = value
    return mutate


def _drop(getter, *keys):
    def mutate(doc):
        for key in keys:
            del getter(doc)[key]
    return mutate


def _top(doc):
    return doc


def _two_factor_chain(doc):
    """class_invariants [2, 6] with valid images, for the vector checks."""
    doc["class_invariants"] = [2, 6]
    for pl in _rec(doc)["places"]:
        pl["class_image"] = [1, 5]


def _then(*mutators):
    def mutate(doc):
        for m in mutators:
            m(doc)
    return mutate


def _duplicate_record(doc):
    doc["conductor_primes"].append(copy.deepcopy(_rec(doc)))


def _duplicate_default_label(doc):
    rec = _rec(doc)
    del rec["label"]
    twin = copy.deepcopy(rec)
    for pl in twin["places"]:
        pl["label"] += "'"
    doc["conductor_primes"].append(twin)


def _image(*values):
    return _then(_two_factor_chain, _set(lambda d: _place(d), "class_image", list(values)))


# (case id, mutation of the biquad document, path, full message)
CASES = [
    ("top-unknown-keys", _set(_top, "zeta", 1), "$", "$: unknown keys ['zeta']"),
    ("top-missing-keys", _drop(_top, "class_invariants", "description"),
     "$", "$: missing keys ['class_invariants', 'description']"),
    ("description-type", _set(_top, "description", 7),
     "description", "description: description must be a string"),
    ("invariants-type", _set(_top, "class_invariants", {"2": 2}),
     "class_invariants", "class_invariants: class_invariants must be a list"),
    ("invariant-not-int", _set(_top, "class_invariants", ["2"]),
     "class_invariants[0]", "class_invariants[0]: expected an integer, got '2'"),
    ("invariant-bool", _set(_top, "class_invariants", [True]),
     "class_invariants[0]", "class_invariants[0]: expected an integer, got True"),
    ("invariant-float", _set(_top, "class_invariants", [2, 4.0]),
     "class_invariants[1]", "class_invariants[1]: expected an integer, got 4.0"),
    ("invariant-below-2", _set(_top, "class_invariants", [1]),
     "class_invariants[0]", "class_invariants[0]: expected an integer >= 2, got 1"),
    ("divisibility", _set(_top, "class_invariants", [2, 4, 6]),
     "class_invariants[2]",
     "class_invariants[2]: divisibility chain broken: 4 does not divide 6"),
    ("records-type", _set(_top, "conductor_primes", "main"),
     "conductor_primes", "conductor_primes: conductor_primes must be a list"),
    ("record-not-map", _set(_top, "conductor_primes", [[2]]),
     REC, f"{REC}: each conductor prime must be a map"),
    ("record-unknown-keys", _set(_rec, "q", 3), REC, f"{REC}: unknown keys ['q']"),
    ("record-missing-keys", _drop(_rec, "residue_size_below", "p"),
     REC, f"{REC}: missing keys ['p', 'residue_size_below']"),
    ("p-not-int", _set(_rec, "p", "2"), f"{REC}.p",
     f"{REC}.p: expected an integer, got '2'"),
    ("p-below-2", _set(_rec, "p", 1), f"{REC}.p",
     f"{REC}.p: expected an integer >= 2, got 1"),
    ("p-not-prime", _set(_rec, "p", 6), f"{REC}.p", f"{REC}.p: 6 is not prime"),
    ("residue-not-int", _set(_rec, "residue_size_below", 2.0),
     f"{REC}.residue_size_below",
     f"{REC}.residue_size_below: expected an integer, got 2.0"),
    ("residue-below-2", _set(_rec, "residue_size_below", 0),
     f"{REC}.residue_size_below",
     f"{REC}.residue_size_below: expected an integer >= 2, got 0"),
    ("residue-not-power", _set(_rec, "residue_size_below", 12),
     f"{REC}.residue_size_below",
     f"{REC}.residue_size_below: residue size 12 is not a power of 2"),
    ("prime-label-type", _set(_rec, "label", 5), f"{REC}.label",
     f"{REC}.label: label must be a non-empty string"),
    ("prime-label-empty", _set(_rec, "label", ""), f"{REC}.label",
     f"{REC}.label: label must be a non-empty string"),
    ("prime-label-duplicate", _duplicate_record, "conductor_primes[1].label",
     "conductor_primes[1].label: duplicate prime label 'main'"),
    ("prime-label-default-duplicate", _duplicate_default_label,
     "conductor_primes[1].label",
     "conductor_primes[1].label: duplicate prime label 'p2'"),
    ("places-type", _set(_rec, "places", {"P": 1}), f"{REC}.places",
     f"{REC}.places: places must be a non-empty list"),
    ("places-empty", _set(_rec, "places", []), f"{REC}.places",
     f"{REC}.places: places must be a non-empty list"),
    ("place-not-map", _set(_rec, "places", ["P"]), PL0,
     f"{PL0}: each place must be a map"),
    ("place-unknown-keys", _set(_place, "weight", 1), PL0,
     f"{PL0}: unknown keys ['weight']"),
    ("place-missing-keys", _drop(_place, "ramification", "degree"), PL0,
     f"{PL0}: missing keys ['degree', 'ramification']"),
    ("place-label-type", _set(_place, "label", None), f"{PL0}.label",
     f"{PL0}.label: label must be a non-empty string"),
    ("place-label-duplicate", _set(lambda d: _place(d, 1), "label", "P"),
     f"{PL1}.label", f"{PL1}.label: duplicate place label 'P' within the record"),
    ("degree-not-int", _set(_place, "degree", False), f"{PL0}.degree",
     f"{PL0}.degree: expected an integer, got False"),
    ("degree-below-1", _set(_place, "degree", 0), f"{PL0}.degree",
     f"{PL0}.degree: expected an integer >= 1, got 0"),
    ("ramification-not-int", _set(lambda d: _place(d, 1), "ramification", "1"),
     f"{PL1}.ramification", f"{PL1}.ramification: expected an integer, got '1'"),
    ("ramification-below-1", _set(lambda d: _place(d, 1), "ramification", -1),
     f"{PL1}.ramification", f"{PL1}.ramification: expected an integer >= 1, got -1"),
    ("image-not-list", _set(_place, "class_image", "1"), f"{PL0}.class_image",
     f"{PL0}.class_image: class_image must be an integer vector"),
    ("image-length", _set(_place, "class_image", [1, 0]), f"{PL0}.class_image",
     f"{PL0}.class_image: class_image has length 2, expected 1"),
    ("image-not-int", _image(1, "5"), f"{PL0}.class_image[1]",
     f"{PL0}.class_image[1]: expected an integer, got '5'"),
    ("image-float", _image(1.0, 5), f"{PL0}.class_image[0]",
     f"{PL0}.class_image[0]: expected an integer, got 1.0"),
    ("image-null", _image(0, None), f"{PL0}.class_image[1]",
     f"{PL0}.class_image[1]: expected an integer, got None"),
    ("image-bool", _image(True, 5), f"{PL0}.class_image[0]",
     f"{PL0}.class_image[0]: expected an integer, got True"),
    ("image-too-large", _image(1, 6), f"{PL0}.class_image[1]",
     f"{PL0}.class_image[1]: coordinate 6 is not reduced modulo 6"),
    ("image-negative", _image(-1, 5), f"{PL0}.class_image[0]",
     f"{PL0}.class_image[0]: coordinate -1 is not reduced modulo 2"),
    # the first bad coordinate wins, whichever check it fails
    ("image-range-before-type", _image(2, "x"), f"{PL0}.class_image[0]",
     f"{PL0}.class_image[0]: coordinate 2 is not reduced modulo 2"),
    ("image-type-before-range", _image([1], 9), f"{PL0}.class_image[0]",
     f"{PL0}.class_image[0]: expected an integer, got [1]"),
    # within a record, p is checked before the label, the label before places
    ("p-before-label", _then(_set(_rec, "p", 4), _set(_rec, "label", "")),
     f"{REC}.p", f"{REC}.p: 4 is not prime"),
    ("label-before-places", _then(_set(_rec, "label", ""), _set(_rec, "places", [])),
     f"{REC}.label", f"{REC}.label: label must be a non-empty string"),
    # within a place: label, degree, ramification, then the image
    ("degree-before-image", _then(_set(_place, "degree", 0),
                                  _set(_place, "class_image", [9])),
     f"{PL0}.degree", f"{PL0}.degree: expected an integer >= 1, got 0"),
    # an earlier place's image is checked before a later place's label
    ("image-before-next-place", _then(_set(_place, "class_image", [5]),
                                      _set(lambda d: _place(d, 1), "label", "")),
     f"{PL0}.class_image[0]",
     f"{PL0}.class_image[0]: coordinate 5 is not reduced modulo 2"),
]


@pytest.mark.parametrize("mutate, path, message",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_error_message_and_path(mutate, path, message):
    doc = copy.deepcopy(_BASE)
    mutate(doc)
    with pytest.raises(DeclaredDataError) as err:
        parse_declared(json.dumps(doc))
    assert (str(err.value), err.value.path) == (message, path)


@pytest.mark.parametrize("text, message", [
    ('{"description": "x", \n  "class_invariants": [2,],}',
     "syntax error at line 2, column 26: Expecting value"),
    ("", "syntax error at line 1, column 1: Expecting value"),
    ('{"description": "x"', "syntax error at line 1, column 20: "
                            "Expecting ',' delimiter"),
])
def test_syntax_error_message(text, message):
    with pytest.raises(DeclaredDataError) as err:
        parse_declared(text)
    assert (str(err.value), err.value.path) == (message, None)


@pytest.mark.parametrize("text", ["[]", "3", '"main"', "null"])
def test_top_level_must_be_a_map(text):
    with pytest.raises(DeclaredDataError) as err:
        parse_declared(text)
    assert (str(err.value), err.value.path) == ("$: top level must be a single map", "$")

