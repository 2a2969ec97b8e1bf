"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import json
import random
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import pytest

from chowkit.abgroup import IntMatrix, smith_normal_form
from chowkit.chow import (
    chow_group,
    exact_sequence_data,
    find_trivial_chow_conductor,
    pic_cardinality,
    pic_chow_report,
    principal_divisor_test,
)
from chowkit.cli import main as cli_main
from chowkit.declared import declared_order, load_declared
from chowkit.orders import (
    LEVEL_NORMALIZATION,
    Divisor,
    conductor_test,
    div_over_order,
    order_from_conductor,
    prop_fix_report,
    pushforward,
)
from chowkit.quadfield import (
    QElement,
    class_group,
    element_divisor,
    make_field,
    reduced_form_count,
    splitting,
)
from util import fundamental_discriminants, transcribe_to_declared

DATA = Path(__file__).parent.parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_criterion_1_ord_and_div_in_root7():
    F = make_field(-7)
    O = order_from_conductor(F, 2)
    alpha = QElement(F, 1, 1, 1)          # (1 + sqrt(-7))/2
    a = alpha / alpha.conj()              # (-3 + sqrt(-7))/4
    assert (a.x, a.y, a.den) == (-3, 1, 2)
    over_max = element_divisor(F, a)
    assert over_max == {"2.0": 1, "2.1": -1}
    assert div_over_order(O, a).is_zero()
    _report("1", "ord = (+1, -1) over 2 and div_O(a) = 0")


def test_criterion_2_biquad_nonsplit():
    decl = load_declared(DATA / "biquad.decl")
    O = declared_order(decl, ["main"])
    es = exact_sequence_data(O)
    assert es.chow.invariant_factors == (4,)
    assert es.image_part.invariant_factors == (2,)
    assert es.local_invariants == (2,)
    assert es.nonsplit
    _report("2", "Chow = Z/4, image Z/2, local Z/2, non-split")


def test_criterion_3_quintic_neither_nor():
    decl = load_declared(DATA / "quintic.decl")
    o1 = declared_order(decl, ["p1"])
    o2 = declared_order(decl, ["p2"])
    op = declared_order(decl, ["p1", "p2"])
    o7 = declared_order(decl, ["p7"])
    assert chow_group(o1).result.invariant_factors == (2,)
    assert chow_group(o2).result.invariant_factors == (3,)
    assert chow_group(op).result.invariant_factors == (6,)
    assert chow_group(o7).result.invariant_factors == ()
    # induced-map data: Chow(O~) -> Chow(O') has cokernel of order
    # prod(g_i) = 6 (not surjective); any homomorphism
    # Chow(O') -> Chow(Z + 7*O~) kills a 6-element group (not injective)
    es = exact_sequence_data(op)
    coker = prod(es.local_orders)
    assert coker == 6 and coker > 1
    assert chow_group(op).result.cardinality() > chow_group(o7).result.cardinality()
    _report("3", "Chow = Z/2, Z/3, Z/6, trivial; cokernel 6, kernel forced nontrivial")


def test_criterion_4_example_inj():
    F = make_field(-7)
    O = order_from_conductor(F, 2)
    fix = prop_fix_report(O)
    # the three structural bullets
    assert fix.cond_squarefree and fix.all_residue_f2 and fix.all_r_geq_2
    assert fix.equivalent_conditions_hold
    # residue units of the normalization are trivial ...
    assert fix.residue_unit_order == 1
    # ... and match the residue units of the order, |(Z/2)^*| = 1
    assert fix.residue_unit_order == 1 == sum(1 for u in range(1, 2) if u % 2)
    pic = pic_cardinality(O)
    assert pic.pic_cardinality == 1
    pc = pic_chow_report(O)
    assert pc.injective is True and pc.surjective is True
    assert chow_group(O).result.invariant_factors == ()
    _report("4", "fix conditions hold, |Pic| = 1, Pic -> Chow bijective, Chow trivial")


def _even_class_number_sweep():
    orders = []
    for d in fundamental_discriminants(500, sign=-1):
        F = make_field(d)
        if class_group(F).cardinality() % 2:
            continue
        for f in range(1, 31):
            orders.append((d, f))
    return orders


def test_criterion_5_even_class_number_obstruction():
    sweep = _even_class_number_sweep()
    assert sweep, "sweep must not be empty"
    for d, f in sweep:
        O = order_from_conductor(make_field(d), f)
        assert chow_group(O).result.invariant_factors != (), (d, f)
    _report("5", f"{len(sweep)} orders with even class number, all Chow groups nontrivial")


def test_criterion_6_constructive_trivial_chow():
    F = make_field(-23)
    f = find_trivial_chow_conductor(F, 100)
    assert f is not None
    pres = chow_group(order_from_conductor(F, f))
    assert pres.result.invariant_factors == ()
    _report("6", f"d = -23: conductor {f} gives a verified trivial Chow group")


def _minors_gcd(A, k):
    g = 0
    for rows in combinations(range(A.rows), k):
        for cols in combinations(range(A.cols), k):
            sub = IntMatrix([[A[i, j] for j in cols] for i in rows])
            g = gcd(g, abs(sub.det()))
    return g


def test_criterion_7a_snf_against_determinant_divisors():
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        D, U, V = smith_normal_form(A)
        assert U @ A @ V == D
        assert abs(U.det()) == 1 and abs(V.det()) == 1
        diag = [D[i, i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0)
        acc = 1
        for k in range(1, min(m, n) + 1):
            acc *= diag[k - 1]
            assert abs(acc) == _minors_gcd(A, k)
    _report("7a", "1000 random matrices up to 5x5")


def test_criterion_7b_pushforward_of_principal_divisors():
    rng = random.Random(1234)
    fields = [-7, -8, -11, -15, -20, -23, -3, -4, 5, 8]
    checked = 0
    for d in fields:
        F = make_field(d)
        O = order_from_conductor(F, 6)
        while True:
            a = QElement(F, rng.randint(-12, 12), rng.randint(-12, 12),
                         rng.choice([1, 1, 2, 3]))
            if a.is_zero():
                continue
            b = QElement(F, rng.randint(-12, 12), rng.randint(-12, 12), 1)
            if b.is_zero():
                continue
            # f_* of the divisor over the normalization equals div_O
            over_max = Divisor(LEVEL_NORMALIZATION, element_divisor(F, a))
            div_o = div_over_order(O, a)
            assert pushforward(O, over_max) == div_o
            # independent check: per rational prime the degree-weighted
            # coefficients recover the valuation of the norm
            n = a.norm()
            for prime in O.primes:
                v = 0
                num, den = n.numerator, n.denominator
                while num % prime.p == 0:
                    num //= prime.p
                    v += 1
                while den % prime.p == 0:
                    den //= prime.p
                    v -= 1
                assert div_o.coefficient(prime.label) == v
            # additivity
            assert div_over_order(O, a * b) == div_o + div_over_order(O, b)
            checked += 1
            if checked % 20 == 0:
                break
    assert checked == 200
    _report("7b", "200 random elements across 10 fields")


def test_criterion_7c_principal_test_round_trip():
    rng = random.Random(555)
    for d, f in ((-7, 2), (-23, 3), (-4, 3)):
        F = make_field(d)
        O = order_from_conductor(F, f)
        done = 0
        while done < 100:
            a = QElement(F, rng.randint(-9, 9), rng.randint(-9, 9), 1)
            if a.is_zero():
                continue
            D = div_over_order(O, a)
            res = principal_divisor_test(O, D)
            assert res.status == "principal", (d, f, a)
            assert div_over_order(O, res.generator) == D, (d, f, a)
            done += 1
    _report("7c", "100 principal divisors per field over 3 fields")


def test_criterion_7d_cardinality_identity_on_sweep():
    sweep = _even_class_number_sweep()
    for d, f in sweep:
        es = exact_sequence_data(order_from_conductor(make_field(d), f))
        assert es.consistent, (d, f)
        assert es.chow.cardinality() == (
            es.image_part.cardinality() * prod(es.local_orders)), (d, f)
    _report("7d", f"|Chow| = |image| * prod(g_i) on {len(sweep)} orders")


def test_criterion_7e_class_numbers_to_ten_thousand():
    discs = fundamental_discriminants(10000, sign=-1)
    for d in discs:
        assert class_group(make_field(d)).cardinality() == reduced_form_count(d), d
    _report("7e", f"{len(discs)} imaginary fundamental discriminants")


def test_criterion_7f_lambda_choice_independence():
    cases = [(-23, 2), (-20, 6), (-84, 30), (-7, 10), (-120, 6), (40, 6), (-47, 2)]
    for d, f in cases:
        O = order_from_conductor(make_field(d), f)
        base = chow_group(O).result.invariant_factors
        permuted = transcribe_to_declared(O, reverse_places=True)
        assert chow_group(permuted).result.invariant_factors == base, (d, f)
    _report("7f", f"{len(cases)} orders, places permuted")


def test_criterion_7g_declared_matches_automatic():
    cases = [
        (-7, 2), (-7, 6), (-7, 14), (-8, 2), (-8, 6), (-15, 2), (-15, 4),
        (-20, 3), (-20, 6), (-23, 2), (-23, 3), (-23, 30), (-84, 2), (-84, 15),
        (-120, 7), (-4, 15), (5, 6), (8, 3), (40, 6), (60, 10),
    ]
    assert len(cases) == 20
    for d, f in cases:
        O = order_from_conductor(make_field(d), f)
        T = transcribe_to_declared(O)
        assert chow_group(T).result.invariant_factors == chow_group(O).result.invariant_factors, (d, f)
    _report("7g", "20 transcribed quadratic orders")


def test_criterion_7h_furtwangler_multiplicative():
    rng = random.Random(9999)
    F = make_field(-23)
    pools = {p: [pl.label for pl in splitting(F, p)] for p in (2, 3, 13, 23, 29)}
    for _ in range(300):
        pa, pb = rng.sample(sorted(pools), 2)
        ea = {lab: rng.randint(0, 3) for lab in pools[pa]}
        eb = {lab: rng.randint(0, 3) for lab in pools[pb]}
        both = {**ea, **eb}
        assert conductor_test(F, both)[0] == (
            conductor_test(F, ea)[0] and conductor_test(F, eb)[0])
    _report("7h", "300 random coprime exponent pairs")


CLI_GOLDEN = [
    (["chow", "--disc", "-7", "--conductor", "2"], "chow_disc-7_f2.txt", 0),
    (["principal", "--disc", "-7", "--conductor", "2", "--divisor", "2.0:1"],
     "principal_disc-7_f2.txt", 0),
    (["order-info", "--disc", "-7", "--conductor", "2"],
     "order-info_disc-7_f2.txt", 0),
    (["find-trivial", "--disc", "-23", "--prime-budget", "100"],
     "find-trivial_disc-23.txt", 0),
    (["conductor-test", "--disc", "-7", "--ideal", "2.0:1"],
     "conductor-test_disc-7.txt", 1),
]


def test_criterion_8_cli_golden_and_differential(capsys):
    for argv, golden, expected_code in CLI_GOLDEN:
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == expected_code, argv
        assert out == (GOLDEN / golden).read_text(), argv
    # machine/text differential agreement on the numeric content
    code = cli_main(["chow", "--disc", "-7", "--conductor", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (doc["chow"], doc["image"], doc["local"], doc["nonsplit"]) == ([], [], [], False)
    code = cli_main(["order-info", "--disc", "-7", "--conductor", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["pic"]["pic"] == 1 and doc["primes"][0]["g"] == 1
    code = cli_main(["find-trivial", "--disc", "-23", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["conductor"] == 2 and doc["chow"] == []
    code = cli_main(["conductor-test", "--disc", "-7", "--ideal", "2.0:1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["conductor_ideal"] is False and doc["violator"] == "2.0"
    code = cli_main(["principal", "--disc", "-7", "--conductor", "2",
                     "--divisor", "2.0:1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["generator"]["str"] == "(1 + sqrt(-7))/2"
    _report("8", "5 golden transcripts byte-stable; JSON agrees with text")
