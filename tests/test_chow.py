"""Chow groups, the exact sequence, the principal divisor test, Pic reports."""

import json
import random

import pytest

from chowkit.abgroup import IntMatrix, direct_sum_invariants
from chowkit.chow import (
    chow_group,
    exact_sequence_data,
    find_trivial_chow_conductor,
    pic_cardinality,
    pic_chow_report,
    principal_divisor_test,
)
from chowkit.declared import declared_order, load_declared, parse_declared
from chowkit.errors import BackendError
from chowkit.orders import (
    LEVEL_NORMALIZATION,
    LEVEL_ORDER,
    Divisor,
    div_over_order,
    order_from_conductor,
    pushforward,
)
from chowkit.quadfield import QElement, class_group, make_field, splitting
from util import transcribe_to_declared

BIQUAD = "data/biquad.decl"
QUINTIC = "data/quintic.decl"


def test_chow_of_maximal_order_is_class_group():
    F = make_field(-23)
    pres = chow_group(order_from_conductor(F, 1))
    assert pres.invariant_factors == (3,)
    es = exact_sequence_data(order_from_conductor(F, 1))
    assert es.image_part.invariant_factors == (3,)
    assert es.local_orders == ()


def test_chow_biquad_example():
    decl = load_declared(BIQUAD)
    O = declared_order(decl, ["main"])
    pres = chow_group(O)
    assert pres.invariant_factors == (4,)
    es = exact_sequence_data(O)
    assert es.image_part.invariant_factors == (2,)
    assert es.local_orders == (2,)
    assert es.nonsplit          # Z/4 is not Z/2 x Z/2
    assert es.consistent


def test_chow_quintic_orders():
    decl = load_declared(QUINTIC)
    expected = {
        ("p1",): (2,),
        ("p2",): (3,),
        ("p1", "p2"): (6,),
        ("p7",): (),
    }
    for sel, inv in expected.items():
        O = declared_order(decl, sel)
        assert chow_group(O).invariant_factors == inv, sel


def test_chow_trivial_example():
    O = order_from_conductor(make_field(-7), 2)
    assert chow_group(O).invariant_factors == ()
    assert chow_group(order_from_conductor(make_field(-4), 3)).invariant_factors == (2,)


def test_projection_of_divisors():
    decl = load_declared(BIQUAD)
    O = declared_order(decl, ["main"])
    pres = chow_group(O)
    one = pres.project(Divisor(LEVEL_ORDER, {"main": 1}))
    assert one.coords == (1,)   # p generates Z/4
    four = pres.project(Divisor(LEVEL_ORDER, {"main": 4}))
    assert four.is_identity()

    # divisors differing by a relation-lattice element project equally
    F = make_field(-23)
    Om = order_from_conductor(F, 2)
    presm = chow_group(Om)
    D = Divisor(LEVEL_ORDER, {"2": 3})
    alpha = QElement(F, 3, 1, 1)          # norm 8 = 2^3: a principal divisor
    Dp = div_over_order(Om, alpha)
    assert presm.project(D + Dp) == presm.project(D) + presm.project(Dp)
    assert presm.project(Dp).is_identity()


def test_projection_kills_principal_divisors():
    rng = random.Random(606)
    for d, f in ((-23, 2), (-23, 7), (-84, 6), (-4, 3), (40, 6)):
        F = make_field(d)
        O = order_from_conductor(F, f)
        pres = chow_group(O)
        done = 0
        while done < 20:
            a = QElement(F, rng.randint(-9, 9), rng.randint(-9, 9),
                         rng.choice([1, 1, 2]))
            if a.is_zero():
                continue
            assert pres.project(div_over_order(O, a)).is_identity(), (d, f, a)
            done += 1


def test_principal_divisor_test_quadratic():
    F = make_field(-7)
    O = order_from_conductor(F, 2)
    res = principal_divisor_test(O, Divisor(LEVEL_ORDER, {"2": 1}))
    assert res.status == "principal"
    assert div_over_order(O, res.generator).support == {"2": 1}
    assert str(res.generator) == "(1 + sqrt(-7))/2"

    zero = principal_divisor_test(O, Divisor(LEVEL_ORDER, {}))
    assert zero.status == "principal"
    assert str(zero.generator) == "1"

    O34 = order_from_conductor(make_field(-4), 3)
    res3 = principal_divisor_test(O34, Divisor(LEVEL_ORDER, {"3": 1}))
    assert res3.status == "not-principal" and res3.failing_step == 1


def test_principal_divisor_test_step5():
    # conductor 7 is inert in Q(sqrt(-23)), so the kernel subgroup is trivial
    # and the non-principal prime over 2 is rejected at step 5
    F = make_field(-23)
    O = order_from_conductor(F, 7)
    D = Divisor(LEVEL_ORDER, {"2.0": 1})
    res = principal_divisor_test(O, D)
    assert res.status == "not-principal" and res.failing_step == 5
    # its cube is principal
    res3 = principal_divisor_test(O, Divisor(LEVEL_ORDER, {"2.0": 3}))
    assert res3.status == "principal"
    assert div_over_order(O, res3.generator).support == {"2.0": 3}


def test_principal_divisor_test_kernel_correction():
    # conductor 3 splits in Q(sqrt(-23)) and its kernel classes generate
    # Cl = Z/3, so Chow(Z + 3*O~) is trivial: even the lift of a
    # non-principal ideal is corrected by a kernel ideal in step 6
    F = make_field(-23)
    O = order_from_conductor(F, 3)
    assert chow_group(O).invariant_factors == ()
    D = Divisor(LEVEL_ORDER, {"2.0": 1})
    res = principal_divisor_test(O, D)
    assert res.status == "principal"
    assert div_over_order(O, res.generator) == D


def test_principal_divisor_test_declared():
    decl = load_declared(BIQUAD)
    O = declared_order(decl, ["main"])
    assert principal_divisor_test(O, Divisor(LEVEL_ORDER, {"main": 2})).status == "not-principal"
    res4 = principal_divisor_test(O, Divisor(LEVEL_ORDER, {"main": 4}))
    assert res4.status == "principal-no-generator"
    res1 = principal_divisor_test(O, Divisor(LEVEL_ORDER, {"main": 1}))
    assert res1.status == "not-principal" and res1.failing_step == 1


def test_principal_round_trip():
    rng = random.Random(77)
    for d in (-7, -23, -4):
        F = make_field(d)
        O = order_from_conductor(F, 2 if d != -4 else 3)
        done = 0
        while done < 25:
            a = QElement(F, rng.randint(-9, 9), rng.randint(-9, 9), 1)
            if a.is_zero():
                continue
            D = div_over_order(O, a)
            res = principal_divisor_test(O, D)
            assert res.status == "principal", (d, a)
            assert div_over_order(O, res.generator) == D
            done += 1


def test_pic_cardinality_examples():
    assert pic_cardinality(order_from_conductor(make_field(-7), 2)).pic_cardinality == 1
    rep = pic_cardinality(order_from_conductor(make_field(-4), 3))
    assert rep.pic_cardinality == 2
    assert (rep.cl_cardinality, rep.unit_index, rep.relative_unit_quotient) == (1, 2, 4)
    # f = 1: Pic = Cl
    assert pic_cardinality(order_from_conductor(make_field(-23), 1)).pic_cardinality == 3
    with pytest.raises(BackendError):
        pic_cardinality(declared_order(load_declared(BIQUAD), ["main"]))


def test_pic_oracle_disc_minus36():
    # ring class number of Z + 3*Z[i]: forms of discriminant -36 are
    # (1,0,9) and (2,2,5), so |Pic| = 2
    from chowkit.quadfield import reduced_form_count

    count = 0
    for a in range(1, 4):
        for b in range(-a, a + 1):
            q = b * b + 36
            if q % (4 * a):
                continue
            c = q // (4 * a)
            if c < a or (abs(b) == a or a == c) and b < 0:
                continue
            from math import gcd

            if gcd(gcd(a, b), c) == 1:
                count += 1
    assert count == 2
    assert pic_cardinality(order_from_conductor(make_field(-4), 3)).pic_cardinality == count


def test_pic_real_field():
    rep = pic_cardinality(order_from_conductor(make_field(8), 3))
    assert rep.unit_index == 4 and rep.pic_cardinality == 1


def test_pic_chow_report():
    r1 = pic_chow_report(order_from_conductor(make_field(-7), 2))
    assert r1.surjective is True and r1.injective is True
    r2 = pic_chow_report(order_from_conductor(make_field(-4), 3))
    assert r2.surjective is False and r2.injective is False
    rm = pic_chow_report(order_from_conductor(make_field(-7), 1))
    assert rm.surjective is True and rm.injective is True
    rd = pic_chow_report(declared_order(load_declared(QUINTIC), ["p1"]))
    assert rd.surjective is False and rd.injective is None


def test_surjectivity_matches_reachability():
    # Pic -> Chow surjective iff projected push-forwards cover the Chow group
    for d, f in ((-4, 3), (-7, 2), (-23, 2)):
        F = make_field(d)
        O = order_from_conductor(F, f)
        pres = chow_group(O)
        total = pres.result.cardinality()
        reached = set()
        pool = []
        for p in (2, 3, 5, 7, 11, 13):
            pool.extend(splitting(F, p))
        for place in pool:
            for c in (-2, -1, 1, 2):
                D = pushforward(O, Divisor(LEVEL_NORMALIZATION, {place.label: c}))
                reached.add(pres.project(D))
        spanned = set()
        frontier = [pres.result.identity()]
        spanned.add(pres.result.identity())
        while frontier:
            nxt = []
            for x in frontier:
                for g in reached:
                    y = x + g
                    if y not in spanned:
                        spanned.add(y)
                        nxt.append(y)
            frontier = nxt
        assert (len(spanned) == total) == pic_chow_report(O).surjective, (d, f)


def test_cardinality_identity_smoke():
    for d in (-20, -23, -84, -120):
        F = make_field(d)
        for f in (2, 3, 6, 10):
            es = exact_sequence_data(order_from_conductor(F, f))
            assert es.consistent, (d, f)


def test_lambda_choice_independence_smoke():
    for d, f in ((-23, 2), (-84, 6), (-20, 30)):
        O = order_from_conductor(make_field(d), f)
        base = chow_group(O).invariant_factors
        permuted = transcribe_to_declared(O, reverse_places=True)
        assert chow_group(permuted).invariant_factors == base, (d, f)


def test_declared_matches_automatic_smoke():
    for d, f in ((-23, 2), (-7, 6), (-4, 15), (40, 6)):
        O = order_from_conductor(make_field(d), f)
        T = transcribe_to_declared(O)
        assert chow_group(T).invariant_factors == chow_group(O).invariant_factors


def test_find_trivial_examples():
    assert find_trivial_chow_conductor(make_field(-23), 100) == 2
    assert find_trivial_chow_conductor(make_field(-7), 100) == 1
    # even class number: obstruction
    assert find_trivial_chow_conductor(make_field(-20), 60) is None


def test_even_class_number_smoke():
    for d in (-15, -20, -24):
        F = make_field(d)
        assert class_group(F).cardinality() % 2 == 0
        for f in range(1, 11):
            assert chow_group(order_from_conductor(F, f)).invariant_factors != (), (d, f)


def test_nonsplit_flag_against_direct_sum():
    decl = load_declared(BIQUAD)
    es = exact_sequence_data(declared_order(decl, ["main"]))
    ds = direct_sum_invariants(es.image_part.invariant_factors, es.local_invariants)
    assert ds == (2, 2) and es.chow.invariant_factors == (4,)
    assert es.nonsplit
    # the quintic intersection order splits (trivial image)
    esq = exact_sequence_data(declared_order(load_declared(QUINTIC), ["p1", "p2"]))
    assert not esq.nonsplit


def test_declared_120_primes_det_oracle():
    """A seeded declared order with 120 conductor primes: |Chow| equals |det|
    of the square G/R matrix (Bareiss), and the lifts section basis_change."""
    rng = random.Random(120)
    chain = [2, 6, 12]
    records = []
    for i in range(120):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        # one class and one degree on all places of a record: N is trivial,
        # so the three class columns stay in the presentation
        degree = rng.choice((1, 1, 1, 2, 3))
        image = [rng.randrange(d) for d in chain]
        places = [{"label": f"P{i}_{j}", "degree": degree,
                   "ramification": rng.randint(1, 2), "class_image": image}
                  for j in range(rng.randint(1, 4))]
        records.append({"label": f"q{i}", "p": p, "residue_size_below": p,
                        "places": places})
    decl = parse_declared(json.dumps({"description": "120 primes",
                                      "class_invariants": chain,
                                      "conductor_primes": records}))
    pres = chow_group(declared_order(decl, decl.prime_labels))
    r = len(pres.order.primes)
    moduli = pres.cl_mod_n.invariant_factors
    rows = [[0] * (r + len(moduli)) for _ in moduli]
    for j, d in enumerate(moduli):
        rows[j][r + j] = d
    square = IntMatrix(rows + pres.relations.tolists())
    assert moduli == (2, 6, 12)
    assert pres.cardinality() == abs(square.det()) > 1
    G = pres.result
    assert G.user_rank == r + len(moduli)
    for j in range(G.rank):
        unit = tuple(1 if t == j else 0 for t in range(G.rank))
        assert G.member(G.generator_lifts.row(j)).coords == G.reduce(unit)
