"""The two order backends: what a declared order refuses, Furtwaengler verdicts
as order-info prints them, and the public namespace."""

import importlib
import inspect
import json
import random
import re

import pytest

import chowkit
from chowkit.chow import chow_group, pic_cardinality, principal_divisor_test
from chowkit.cli import _add_field_flags, main
from chowkit.declared import declared_order, load_declared
from chowkit.errors import BackendError, PlaceResolutionError
from chowkit.ntheory import factorize
from chowkit.orders import (
    LEVEL_NORMALIZATION,
    LEVEL_ORDER,
    Divisor,
    conductor_test,
    div_over_order,
    divisor_kernel_witness,
    order_from_conductor,
    prop_fix_report,
    pushforward,
    resolve_place,
)
from chowkit.quadfield import QElement, check_class_disc, class_group, make_field, splitting
from util import fundamental_discriminants

BIQUAD = "data/biquad.decl"


_DECLARED_REFUSES = {
    "div_over_order": lambda o: div_over_order(o, QElement(make_field(-7), 1, 1, 1)),
    "divisor_kernel_witness": divisor_kernel_witness,
    "pic_cardinality": pic_cardinality,
    "resolve_place": lambda o: resolve_place(o.field, "P"),
}


@pytest.mark.parametrize("selection", [["main"], []])
@pytest.mark.parametrize("call", sorted(_DECLARED_REFUSES))
def test_declared_order_has_no_field_arithmetic(call, selection):
    order = declared_order(load_declared(BIQUAD), selection)
    with pytest.raises(BackendError):
        _DECLARED_REFUSES[call](order)


def _orders_and_argv():
    """One order of each backend, with the CLI flags that build it."""
    return [(order_from_conductor(make_field(-7), 2), ["--disc", "-7", "--conductor", "2"]),
            (declared_order(load_declared(BIQUAD), ["main"]),
             ["--data", BIQUAD, "--order", "main"])]


_ENTRY_POINTS = {
    "principal_divisor_test": lambda o, tok: principal_divisor_test(
        o, Divisor(LEVEL_ORDER, {tok: 1})),
    "project": lambda o, tok: chow_group(o).project(Divisor(LEVEL_ORDER, {tok: 1})),
    "pushforward": lambda o, tok: pushforward(o, Divisor(LEVEL_NORMALIZATION, {tok: 1})),
}


@pytest.mark.parametrize("token", ["X", "2.0.1"])
@pytest.mark.parametrize("call", sorted(_ENTRY_POINTS))
def test_unknown_token_is_refused_by_name(call, token):
    """A token that names no place and no prime raises
    ``PlaceResolutionError`` naming it, on both backends; on a declared
    order the principal test and ``project`` raised ``BackendError``."""
    for order, _ in _orders_and_argv():
        with pytest.raises(PlaceResolutionError, match=re.escape(repr(token))):
            _ENTRY_POINTS[call](order, token)


@pytest.mark.parametrize("token", ["X", "2.0.1"])
def test_cli_refuses_unknown_token(capsys, token):
    for _, argv in _orders_and_argv():
        assert main(["principal"] + argv + ["--divisor", f"{token}:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and repr(token) in captured.err


def test_resolve_on_both_backends():
    """``order.resolve``: a place with the prime below it, None when
    invertible; a prime's own label naming no single place gives no place."""
    quadratic, declared = (order for order, _ in _orders_and_argv())
    (two,) = quadratic.primes
    assert quadratic.resolve("2") == (None, two)
    assert quadratic.resolve("02.1") == quadratic.resolve("2.1") == (two.places[1], two)
    place, prime = quadratic.resolve("011.0")
    assert (place.label, prime) == ("11.0", None)
    (main_prime,) = declared.primes
    assert declared.resolve("main") == (None, main_prime)
    assert declared.resolve("Q") == (main_prime.places[1], main_prime)
    with pytest.raises(PlaceResolutionError, match="'4'"):
        quadratic.resolve("4")


def _furtwangler_line(capsys, argv):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    (line,) = [l for l in lines if l.startswith("conductor ideal (Furtwangler): ")]
    return line.split(": ", 1)[1]


def test_quadratic_order_conductors_pass_furtwangler(capsys):
    # Z + f*O~ has conductor ideal f*O~: the verdict is always yes, and it is
    # the verdict of conductor_test on the exponents v_p(f) * e
    for d in fundamental_discriminants(60):
        F = make_field(d)
        for f in range(2, 9):
            exps = {pl.label: v * pl.e for p, v in factorize(f).items()
                    for pl in splitting(F, p)}
            assert conductor_test(F, exps) == (True, None)
            verdict = _furtwangler_line(
                capsys, ["order-info", "--disc", str(d), "--conductor", str(f)])
            assert verdict == "yes", (d, f)


def _closed_form(decl, selection):
    """Furtwaengler on a declared conductor (each place to its exponent e):
    a place with residue field F_p and e = 1 fails when it is the only place
    of its record; nothing else can fail."""
    for label in selection:
        rec = decl.prime(label)
        for pl in rec.places:
            if (rec.residue_size == rec.p and pl.degree == 1
                    and pl.e == 1 and len(rec.places) == 1):
                return f"no (violator: {pl.label})"
    return "yes"


def _random_document(rng):
    invariants = rng.choice([[], [2], [2, 4], [3]])
    recs = []
    n_place = 0
    for i in range(rng.randint(1, 4)):
        p = rng.choice([2, 3, 5, 7])
        places = []
        for _ in range(rng.choice([1, 1, 2, 3])):
            n_place += 1
            places.append({
                "label": f"P{n_place}",
                "degree": rng.choice([1, 1, 2, 3]),
                "ramification": rng.choice([1, 1, 2, 3]),
                "class_image": [rng.randrange(m) for m in invariants],
            })
        recs.append({"label": f"r{i}", "p": p,
                     "residue_size_below": p ** rng.choice([1, 1, 2]),
                     "places": places})
    return {"description": "random", "class_invariants": invariants,
            "conductor_primes": recs}


def test_declared_furtwangler_matches_closed_form(capsys, tmp_path):
    path = tmp_path / "doc.decl"
    inline = {
        "description": "one degree-1 unramified place alone over F_3",
        "class_invariants": [],
        "conductor_primes": [
            {"label": "a", "p": 5, "residue_size_below": 5, "places": [
                {"label": "A1", "degree": 1, "ramification": 1, "class_image": []},
                {"label": "A2", "degree": 2, "ramification": 1, "class_image": []}]},
            {"label": "b", "p": 3, "residue_size_below": 3, "places": [
                {"label": "B", "degree": 1, "ramification": 1, "class_image": []}]},
        ],
    }
    path.write_text(json.dumps(inline))
    argv = ["order-info", "--data", str(path), "--order"]
    assert _furtwangler_line(capsys, argv + ["a,b"]) == "no (violator: B)"
    assert _furtwangler_line(capsys, argv + ["a"]) == "yes"

    rng = random.Random(5)
    seen = set()
    for _ in range(150):
        doc = _random_document(rng)
        path.write_text(json.dumps(doc))
        decl = load_declared(path)
        labels = list(decl.prime_labels)
        selection = rng.sample(labels, rng.randint(1, len(labels)))
        expected = _closed_form(decl, selection)
        seen.add(expected == "yes")
        assert _furtwangler_line(capsys, argv + [",".join(selection)]) == expected
    assert seen == {True, False}


_REMOVED_NAMES = ("PlaceInfo", "DeclaredPrime", "is_conductor_ideal", "local_chow_at",
                  "UnsupportedOrderError", "q_divisor", "divisor_to_ideal",
                  "invertible_place_class", "residue_units_trivial", "ord_at",
                  "unit_group_order", "_form_pow", "local_chow", "fabric",
                  "bezout_vectors")


@pytest.mark.parametrize("module", ["chowkit", "chowkit.orders", "chowkit.declared",
                                    "chowkit.errors", "chowkit.quadfield"])
@pytest.mark.parametrize("name", _REMOVED_NAMES)
def test_removed_names_stay_removed(name, module):
    assert not hasattr(importlib.import_module(module), name)


def _owner(kind):
    """A live object of each kind that lost attributes."""
    if kind == "ChowPresentation":
        return chow_group(order_from_conductor(make_field(-23), 2))
    if kind == "ClassGroupData":
        return class_group(make_field(40))  # a real field, with a wide quotient
    if kind == "PrimePlace":
        return splitting(make_field(-7), 3)[0]
    if kind == "QIdeal":
        return splitting(make_field(-7), 2)[0].ideal()
    if kind == "QuadraticOrder":
        return order_from_conductor(make_field(-7), 2)
    if kind == "DeclaredOrder":
        return declared_order(load_declared(BIQUAD), ["main"])
    if kind == "FixReport":
        return prop_fix_report(order_from_conductor(make_field(-7), 2))
    if kind == "Divisor":
        return Divisor(LEVEL_ORDER, {"2": 1})
    return importlib.import_module("chowkit.cli")


@pytest.mark.parametrize("kind, name", [
    ("ChowPresentation", "generator_labels"),
    ("ChowPresentation", "n_generators"),
    ("ChowPresentation", "invariant_factors"),
    ("ChowPresentation", "cardinality"),
    ("ClassGroupData", "_wide"),
    ("ClassGroupData", "representatives"),
    ("ClassGroupData", "_narrow"),
    ("ClassGroupData", "invariant_factors"),
    ("QIdeal", "contains"),
    ("PrimePlace", "unique"),
    ("cli", "_group_str"),
    ("QuadraticOrder", "invertible_place_class"),
    ("DeclaredOrder", "invertible_place_class"),
    ("QuadraticOrder", "fabric"),
    ("DeclaredOrder", "fabric"),
    ("QuadraticOrder", "place_class"),
    ("DeclaredOrder", "place_class"),
    ("QuadraticOrder", "place_label"),
    ("DeclaredOrder", "place_label"),
    ("QuadraticOrder", "prime_for_place"),
    ("DeclaredOrder", "prime_for_place"),
    ("FixReport", "residue_units_trivial"),
    ("Divisor", "__neg__"),
    ("Divisor", "__sub__"),
])
def test_removed_attributes_stay_removed(kind, name):
    assert not hasattr(_owner(kind), name)


@pytest.mark.parametrize("function, parameter", [
    (_add_field_flags, "conductor"),
    (_add_field_flags, "data"),
    (class_group, "max_disc"),
    (check_class_disc, "max_disc"),
])
def test_removed_parameters_stay_removed(function, parameter):
    assert parameter not in inspect.signature(function).parameters


def test_public_names_resolve():
    assert len(set(chowkit.__all__)) == len(chowkit.__all__)
    for name in chowkit.__all__:
        assert getattr(chowkit, name) is not None, name
