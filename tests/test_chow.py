"""Chow groups, the exact sequence, the principal divisor test, Pic reports."""

import json
import random
import time
import tracemalloc
from math import isqrt

import pytest

from chowkit import chow
from chowkit.abgroup import IntMatrix, direct_sum_invariants, subgroup_quotient
from chowkit.chow import (
    chow_group,
    exact_sequence_data,
    find_trivial_chow_conductor,
    pic_cardinality,
    pic_chow_report,
    principal_divisor_test,
)
from chowkit.declared import declared_order, load_declared, parse_declared
from chowkit.errors import BackendError, FieldInputError, PlaceResolutionError
from chowkit.orders import (
    LEVEL_NORMALIZATION,
    LEVEL_ORDER,
    Divisor,
    div_over_order,
    order_from_conductor,
    pushforward,
)
from chowkit.ntheory import factorize, primes_below
from chowkit.quadfield import (
    QElement,
    class_group,
    class_prime_bound,
    fundamental_unit,
    make_field,
    splitting,
)
from util import (
    LIFT_CONDUCTORS,
    LIFT_FIELDS,
    check_class_step,
    find_trivial_by_scan,
    fundamental_discriminants,
    principal_lift_by_labels,
    transcribe_to_declared,
)

BIQUAD = "data/biquad.decl"
QUINTIC = "data/quintic.decl"


def test_chow_of_maximal_order_is_class_group():
    F = make_field(-23)
    pres = chow_group(order_from_conductor(F, 1))
    assert pres.result.invariant_factors == (3,)
    es = exact_sequence_data(order_from_conductor(F, 1))
    assert es.image_part.invariant_factors == (3,)
    assert es.local_orders == ()


def test_chow_biquad_example():
    decl = load_declared(BIQUAD)
    O = declared_order(decl, ["main"])
    pres = chow_group(O)
    assert pres.result.invariant_factors == (4,)
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
        assert chow_group(O).result.invariant_factors == inv, sel


def test_chow_trivial_example():
    O = order_from_conductor(make_field(-7), 2)
    assert chow_group(O).result.invariant_factors == ()
    assert chow_group(order_from_conductor(make_field(-4), 3)).result.invariant_factors == (2,)


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
    assert chow_group(O).result.invariant_factors == ()
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


def test_place_over_the_conductor_is_refused_quadratic():
    """Over the order a place over the conductor is part of its prime: on
    Z + 2*O~ in Q(sqrt(-7)), where 2 splits, a divisor naming 2.0 or 2.1,
    in any spelling, is refused by the principal test and by ``project``
    with the prime's label, where the test used to answer "principal" for
    {"2.0": 1} with (1 + sqrt(-7))/2, whose divisor is {"2": 1}."""
    O = order_from_conductor(make_field(-7), 2)
    pres = chow_group(O)
    for label in ("2.0", "2.1", "02.1"):
        D = Divisor(LEVEL_ORDER, {"11.0": 1, label: 1})
        for call in (lambda D: principal_divisor_test(O, D), pres.project):
            with pytest.raises(PlaceResolutionError, match=f"place {label} .*prime 2$"):
                call(D)
    assert principal_divisor_test(O, Divisor(LEVEL_ORDER, {"2": 1})).status == "principal"


def test_place_over_the_conductor_is_refused_declared():
    """On a declared order the same divisor raised ``BackendError``, from
    the field it has not: now the place P of the biquadratic record is
    refused by name, with the record's label."""
    O = declared_order(load_declared(BIQUAD), ["main"])
    pres = chow_group(O)
    for call in (lambda D: principal_divisor_test(O, D), pres.project):
        with pytest.raises(PlaceResolutionError, match="place P .*prime main$"):
            call(Divisor(LEVEL_ORDER, {"main": 2, "P": 2}))


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


def _smooth_elements(F):
    """Small primes and (x + v*sqrt(d))/2 of small 1000-smooth norm."""
    primes = primes_below(1000)
    out = [QElement.from_int(F, p) for p in (2, 3, 5, 7)]
    for v in (1, 2, 3):
        centre = isqrt(v * v * F.d) if F.d > 0 else 0
        for x in range(centre - 600, centre + 601):
            n = abs(x * x - v * v * F.d) // 4
            if (x - v * F.d) % 2 or n == 0:
                continue
            for p in primes:
                while n % p == 0:
                    n //= p
            if n == 1:
                out.append(QElement(F, x, v, 1))
    return out


@pytest.mark.parametrize("d, f", [(-23, 10), (1001, 6), (-837191, 3), (999997, 5)])
def test_principal_round_trip_large_norms(d, f):
    # principal divisors of elements with norms of 2^200 and more: the
    # generator comes back within a second, h = 1325 for -837191 included
    F = make_field(d)
    O = order_from_conductor(F, f)
    chow_group(O)                       # class group and Cl/N built up front
    pool = _smooth_elements(F)
    rng = random.Random(d)
    for _ in range(3):
        a = QElement.from_int(F, 1)
        while abs(a.norm()).numerator.bit_length() <= 200:
            a = a * rng.choice(pool)
        D = div_over_order(O, a)
        start = time.perf_counter()
        res = principal_divisor_test(O, D)
        assert time.perf_counter() - start < 1.0, (d, f, a)
        assert res.status == "principal", (d, f, a)
        assert div_over_order(O, res.generator) == D



def _lift_sweep(seed):
    """(order, divisor) pairs over LIFT_FIELDS x LIFT_CONDUCTORS: per order,
    six divisors with multiples of g_i at the conductor primes and two small
    invertible places, then the divisor of one element."""
    rng = random.Random(seed)
    for d in LIFT_FIELDS:
        F = make_field(d)
        for f in LIFT_CONDUCTORS:
            O = order_from_conductor(F, f)
            pool = [pl for p in primes_below(30) if f % p for pl in splitting(F, p)]
            divisors = []
            for _ in range(6):
                support = {prime.label: prime.g * rng.randint(-2, 2) for prime in O.primes}
                for pl in rng.sample(pool, 2):
                    support[pl.label] = rng.randint(-2, 2)
                divisors.append(Divisor(LEVEL_ORDER, support))
            y = rng.randint(1, 3)
            x = rng.randint(-9, 9)
            divisors.append(div_over_order(O, QElement(F, x + (x - y * d) % 2, y, 1)))
            for D in divisors:
                yield O, D


def test_principal_lift_matches_label_keyed_divisors(monkeypatch):
    """Step 6 builds the ideal and the generator of the label-keyed
    reference: the same corrected lift, multiplied out from the order's
    places instead of from labels."""
    lifts = []
    original = chow.is_principal

    def capturing(field, I, max_steps=None):
        lifts.append(I)
        return original(field, I, max_steps=max_steps)

    monkeypatch.setattr(chow, "is_principal", capturing)
    kinds = set()
    reached = {True: 0, False: 0}          # by field.is_imaginary
    for O, D in _lift_sweep(17):
        F, f = O.field, O.conductor
        kinds |= {pl.kind for prime in O.primes for pl in prime.places}
        del lifts[:]
        res = principal_divisor_test(O, D)
        expected = principal_lift_by_labels(O, D)
        if expected is None:
            assert res.status == "not-principal" and lifts == [], (F.d, f, D)
            continue
        assert lifts == [expected], (F.d, f, D)
        assert res.generator == original(F, expected), (F.d, f, D)
        reached[F.is_imaginary] += 1
    assert kinds == {"split", "inert", "ramified"}
    assert min(reached.values()) >= 100, reached


def test_class_step_matches_solve_combination_quadratic():
    """Step 5 over the sweep above: membership in ``order.cl_mod_n`` and the
    verdict of ``principal_divisor_test`` agree with the
    ``solve_combination`` reference, and both verdicts occur on orders
    where N and Cl/N are both nontrivial."""
    seen = {}
    for O, D in _lift_sweep(17):
        verdict = check_class_step(O, D)
        h = O.class_group().cardinality()
        if verdict is not None and 1 < O.cl_mod_n.cardinality() < h:
            seen[verdict] = seen.get(verdict, 0) + 1
    assert min(seen.get(True, 0), seen.get(False, 0)) >= 20, seen


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
        base = chow_group(O).result.invariant_factors
        permuted = transcribe_to_declared(O, reverse_places=True)
        assert chow_group(permuted).result.invariant_factors == base, (d, f)


def test_declared_matches_automatic_smoke():
    for d, f in ((-23, 2), (-7, 6), (-4, 15), (40, 6)):
        O = order_from_conductor(make_field(d), f)
        T = transcribe_to_declared(O)
        assert chow_group(T).result.invariant_factors == chow_group(O).result.invariant_factors


def test_find_trivial_examples():
    assert find_trivial_chow_conductor(make_field(-23), 100) == 2
    assert find_trivial_chow_conductor(make_field(-7), 100) == 1
    # even class number: obstruction
    assert find_trivial_chow_conductor(make_field(-20), 60) is None


def test_find_trivial_matches_full_scan():
    for d in fundamental_discriminants(3000):
        F = make_field(d)
        assert find_trivial_chow_conductor(F, 100) == find_trivial_by_scan(F, 100), d


def _genus_sample(rng, sign, count, bound=10**5):
    """``count`` distinct fundamental discriminants of the given sign, with
    |d| drawn uniformly below ``bound``."""
    out = set()
    while len(out) < count:
        d = sign * rng.randint(3, bound)
        try:
            make_field(d)
        except FieldInputError:
            continue
        out.add(d)
    return sorted(out)


@pytest.mark.parametrize("sign", (-1, 1))
def test_genus_theory_oracle(sign):
    """Genus theory, with t the number of primes dividing d: the 2-rank of
    Cl is t - 1 for d < 0, and lies in [t - 2, t - 1] for d > 0, with t - 1
    when N(eps) = -1 (then the narrow and wide class groups agree).  A
    conductor with trivial Chow group is found exactly when |Cl| is odd, so
    for d < 0 exactly when t = 1, and every one found has a trivial Chow
    group by ``chow_group``."""
    rng = random.Random(15 + sign)
    seen = {"found": 0, "t>=3": 0, "N(eps)=-1": 0}
    for d in _genus_sample(rng, sign, 300):
        F = make_field(d)
        t = len(factorize(abs(d)))
        cl = class_group(F).group
        two_rank = sum(1 for m in cl.invariant_factors if m % 2 == 0)
        f = find_trivial_chow_conductor(F, class_prime_bound(d))
        assert (f is not None) == (cl.cardinality() % 2 == 1), d
        if d < 0:
            assert two_rank == t - 1, d
            assert (f is not None) == (t == 1), d
        else:
            assert t - 2 <= two_rank <= t - 1, d
            if fundamental_unit(F).norm() == -1:
                assert two_rank == t - 1, d
                seen["N(eps)=-1"] += 1
        if f is not None:
            assert chow_group(order_from_conductor(F, f)).result.is_trivial(), (d, f)
            seen["found"] += 1
        seen["t>=3"] += t >= 3
    assert seen["found"] and seen["t>=3"] and (sign < 0 or seen["N(eps)=-1"]), seen


def test_find_trivial_memory_does_not_grow_with_budget():
    F = make_field(-23)
    class_group(F)
    tracemalloc.start()
    try:
        assert find_trivial_chow_conductor(F, 10**7) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_even_class_number_smoke():
    for d in (-15, -20, -24):
        F = make_field(d)
        assert class_group(F).cardinality() % 2 == 0
        for f in range(1, 11):
            assert chow_group(order_from_conductor(F, f)).result.invariant_factors != (), (d, f)


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
    of the square G/R matrix (Bareiss), and ``member`` is onto."""
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
    assert pres.result.cardinality() == abs(square.det()) > 1
    G = pres.result
    n = r + len(moduli)
    images = [pres.member([1 if t == i else 0 for t in range(n)]) for i in range(n)]
    assert subgroup_quotient(G, images).is_trivial()
