"""Orders: conductors, push-forward, kernel generators, Furtwaengler, fix report."""

import itertools
import random
import sys

import pytest

import chowkit.ntheory
from chowkit import orders
from chowkit.chow import principal_divisor_test
from chowkit.cli import main
from chowkit.declared import declared_order, load_declared
from chowkit.errors import NotConductorIdealError, PlaceResolutionError
from chowkit.ntheory import primes_below
from chowkit.orders import (
    LEVEL_NORMALIZATION,
    LEVEL_ORDER,
    Divisor,
    conductor_test,
    div_over_order,
    divisor_kernel_witness,
    kernel_generators,
    kernel_vectors,
    order_from_conductor,
    order_from_ideal,
    place_product,
    prop_fix_report,
    pushforward,
)
from chowkit.quadfield import QElement, class_group, make_field, splitting
from util import (
    LIFT_CONDUCTORS,
    LIFT_FIELDS,
    fabric_of,
    fundamental_discriminants,
    kernel_generators_by_labels,
    random_declared_field,
    witness_ideal_by_labels,
)


def test_order_from_conductor_examples():
    F = make_field(-7)
    O = order_from_conductor(F, 2)
    (prime,) = O.primes
    assert prime.label == "2" and prime.residue_size == 2
    assert [pl.degree for pl in prime.places] == [1, 1]
    assert prime.g == 1 and prime.lambdas == (1, 0)

    O34 = order_from_conductor(make_field(-4), 3)
    (p3,) = O34.primes
    assert [pl.degree for pl in p3.places] == [2]
    assert p3.g == 2

    assert order_from_conductor(F, 1).is_maximal
    assert list(order_from_conductor(F, 1).primes) == []


def test_local_chow():
    O1 = order_from_conductor(make_field(-4), 3)
    assert [prime.g for prime in O1.primes] == [2]


def test_pushforward_examples():
    F = make_field(-7)
    O = order_from_conductor(F, 2)
    D = Divisor(LEVEL_NORMALIZATION, {"2.0": 1, "2.1": -1})
    assert pushforward(O, D).is_zero()

    O34 = order_from_conductor(make_field(-4), 3)
    D3 = Divisor(LEVEL_NORMALIZATION, {"3": 1})
    assert pushforward(O34, D3).support == {"3": 2}

    assert pushforward(O, Divisor(LEVEL_NORMALIZATION, {})).is_zero()
    # invertible places push with degree 1
    D5 = Divisor(LEVEL_NORMALIZATION, {"11.0": 2})
    assert pushforward(O, D5).support == {"11.0": 2}


def _spellings(place):
    """Every label of the place: p.branch, also signed or zero-padded, and
    the bare p when it is the only place over p."""
    p, b = place.p, place.branch
    out = [f"{p}.{b}", f"+{p}.{b}", f"0{p}.{b}", f"{p}.0{b}"]
    if "." not in place.label:
        out += [f"{p}", f"+{p}", f"0{p}"]
    return out


def test_pushforward_reads_every_spelling_of_a_place():
    # 3 is inert in Q(sqrt(-7)): its place has degree 2 over the conductor 3
    O = order_from_conductor(make_field(-7), 3)
    for label in ("3", "3.0", "03"):
        assert pushforward(O, Divisor(LEVEL_NORMALIZATION, {label: 1})).support == {"3": 2}
    decl = declared_order(load_declared("data/biquad.decl"), ["main"])
    assert pushforward(decl, Divisor(LEVEL_NORMALIZATION, {"P": 1})).support == {"main": 2}
    with pytest.raises(PlaceResolutionError):
        pushforward(decl, Divisor(LEVEL_NORMALIZATION, {"R": 1}))


def test_spelling_does_not_change_pushforward_or_principal_test():
    # property: every spelling of a place gives the same push-forward and
    # the same principal-test verdict and generator, over the conductor
    # (through the push-forward) and at invertible places (directly)
    for d, f in ((-7, 3), (-7, 6), (-4, 15), (-23, 6), (-15, 10), (5, 6), (40, 21)):
        F = make_field(d)
        O = order_from_conductor(F, f)
        for p in primes_below(14):
            for place in splitting(F, p):
                for c in (1, 2):
                    seen = set()
                    for label in _spellings(place):
                        D = pushforward(O, Divisor(LEVEL_NORMALIZATION, {label: c}))
                        res = principal_divisor_test(O, D)
                        seen.add((D, res.status, res.failing_step, res.generator))
                        if f % p:
                            res = principal_divisor_test(O, Divisor(LEVEL_ORDER, {label: c}))
                            seen.add((D, res.status, res.failing_step, res.generator))
                    assert len(seen) == 1, (d, f, place.label, c, seen)


def test_pushforward_image_is_g_multiples():
    # coker(f_*) = prod Z/g_i: coefficients at p_i are exactly the multiples of g_i
    rng = random.Random(44)
    for d, f in ((-4, 3), (-23, 7), (-3, 6)):
        O = order_from_conductor(make_field(d), f)
        for prime in O.primes:
            seen = set()
            for _ in range(30):
                D = Divisor(LEVEL_NORMALIZATION, {
                    pl.label: rng.randint(-4, 4) for pl in prime.places})
                c = pushforward(O, D).coefficient(prime.label)
                assert c % prime.g == 0, (d, f, prime.label)
                seen.add(c)
            # g itself is attained (lambdas give a divisor pushing to g * p_i)
            q = Divisor(LEVEL_NORMALIZATION, {
                pl.label: lam for pl, lam in zip(prime.places, prime.lambdas) if lam})
            assert pushforward(O, q).coefficient(prime.label) == prime.g


def test_div_over_order_examples():
    F = make_field(-7)
    O = order_from_conductor(F, 2)
    alpha = QElement(F, 1, 1, 1)
    a = alpha / alpha.conj()
    assert div_over_order(O, a).is_zero()
    assert div_over_order(O, alpha).support == {"2": 1}
    # a rational inert prime has a single place; the coefficient stays 1
    q = QElement.from_int(F, 3)
    assert div_over_order(O, q).support == {"3": 1}
    with pytest.raises(ValueError):
        div_over_order(O, QElement.from_int(F, 0))


def test_kernel_generators_examples():
    F = make_field(-7)
    O = order_from_conductor(F, 2)
    gens = kernel_generators(O)
    assert [g.support for g in gens] == [{}, {"2.0": 1, "2.1": -1}]
    for g in gens:
        assert pushforward(O, g).is_zero()

    # r_i = 1: the lone generator collapses to zero (injective push-forward)
    O34 = order_from_conductor(make_field(-4), 3)
    assert [g.support for g in kernel_generators(O34)] == [{}]

    assert kernel_generators(order_from_conductor(F, 1)) == []


def test_kernel_generators_span():
    # any divisor in ker(f_*) reduces to zero against the generators
    rng = random.Random(2)
    for d, f in ((-23, 6), (-7, 10), (-4, 15), (40, 6)):
        O = order_from_conductor(make_field(d), f)
        gens = kernel_generators(O)
        for _ in range(20):
            D = Divisor(LEVEL_NORMALIZATION, {})
            coeffs = []
            for prime in O.primes:
                degs = [pl.degree for pl in prime.places]
                a = [rng.randint(-5, 5) for _ in degs]
                # adjust the last coefficient to land in the kernel, if possible
                s = sum(x * dd for x, dd in zip(a, degs))
                if s % degs[-1]:
                    continue
                a[-1] -= s // degs[-1]
                for x, pl in zip(a, prime.places):
                    if x:
                        D = D + Divisor(LEVEL_NORMALIZATION, {pl.label: x})
                coeffs.append(a)
            if D.is_zero():
                continue
            assert pushforward(O, D).is_zero()
            # eliminate: D + sum a_ij * gen_ij = 0
            acc = D
            idx = 0
            for prime, a in zip(O.primes, coeffs):
                for x, pl in zip(a, prime.places):
                    acc = acc + x * gens[idx]
                    idx += 1
            assert acc.is_zero()


def test_conductor_test_examples():
    F = make_field(-7)
    assert conductor_test(F, {"2.0": 1}) == (False, "2.0")
    assert conductor_test(F, {"2.0": 1, "2.1": 1})[0]
    assert conductor_test(F, {"3": 1})[0]
    assert conductor_test(F, {})[0]
    # ramified places need even exponents
    assert conductor_test(F, {"7": 1})[0] is False
    assert conductor_test(F, {"7": 2})[0]
    # split places need equal exponents
    assert conductor_test(F, {"2.0": 2, "2.1": 1})[0] is False
    assert conductor_test(F, {"2.0": 2, "2.1": 2})[0]


def test_conductor_test_multiplicative():
    rng = random.Random(12)
    F = make_field(-23)
    place_pools = {
        2: [pl.label for pl in splitting(F, 2)],
        3: [pl.label for pl in splitting(F, 3)],
        13: [pl.label for pl in splitting(F, 13)],
        23: [pl.label for pl in splitting(F, 23)],
    }
    for _ in range(200):
        pa, pb = rng.sample(list(place_pools), 2)
        ea = {lab: rng.randint(0, 3) for lab in place_pools[pa]}
        eb = {lab: rng.randint(0, 3) for lab in place_pools[pb]}
        combined = dict(ea)
        combined.update(eb)
        assert conductor_test(F, combined)[0] == (
            conductor_test(F, ea)[0] and conductor_test(F, eb)[0]
        )


def test_order_from_ideal():
    F = make_field(-7)
    O = order_from_ideal(F, {"2.0": 1, "2.1": 1})
    assert O.conductor == 2
    with pytest.raises(NotConductorIdealError):
        order_from_ideal(F, {"2.0": 1})
    assert order_from_ideal(F, {}).is_maximal


def test_order_from_ideal_exhaustive():
    # every exponent tuple in 0..6 over the places of p: a passing ideal is
    # the conductor of the order returned (each place to v_p(f) * e), and
    # it passes exactly when the exponents are v * e for one v >= 0
    counts = {True: 0, False: 0}
    for d in (-3, -4, -7, -20, -23, -84, 5, 8, 12, 13, 40, 60, 105):
        F = make_field(d)
        for p in (2, 3, 5, 7):
            places = splitting(F, p)
            for ks in itertools.product(range(7), repeat=len(places)):
                exps = {pl.label: k for pl, k in zip(places, ks)}
                v = ks[0] // places[0].e
                passes = all(k == v * pl.e for pl, k in zip(places, ks))
                counts[passes] += 1
                if not passes:
                    with pytest.raises(NotConductorIdealError):
                        order_from_ideal(F, exps)
                    continue
                O = order_from_ideal(F, exps)
                assert O.conductor == p ** v, (d, p, ks)
                conductor = {pl.label: O.conductor_exponent(prime) * pl.e
                             for prime in O.primes for pl in prime.places}
                assert conductor == {l: k for l, k in exps.items() if k}, (d, p, ks)
    assert counts == {True: 304, False: 606}


def test_prop_fix_report_examples():
    F = make_field(-7)
    rep = prop_fix_report(order_from_conductor(F, 2))
    assert rep.cond_squarefree and rep.all_residue_f2 and rep.all_r_geq_2
    assert rep.equivalent_conditions_hold
    assert rep.residue_unit_order == 1

    rep3 = prop_fix_report(order_from_conductor(make_field(-4), 3))
    assert not rep3.all_residue_f2
    assert not rep3.equivalent_conditions_hold
    assert rep3.residue_unit_order == 8

    repm = prop_fix_report(order_from_conductor(F, 1))
    assert repm.maximal and repm.equivalent_conditions_hold


def test_fix_conditions_equivalence_sweep():
    # conditions (4) and (5) agree on all quadratic orders |d| <= 500, f <= 50
    for d in fundamental_discriminants(500):
        F = make_field(d)
        for f in range(1, 51):
            rep = prop_fix_report(order_from_conductor(F, f))
            assert rep.equivalent_conditions_hold == (rep.residue_unit_order == 1), (d, f)


def test_one_noninvertible_prime_per_divisor():
    for d in (-7, -20, -23, 8, 40):
        F = make_field(d)
        for f in (2, 6, 12, 30):
            O = order_from_conductor(F, f)
            ps = sorted(p.p for p in O.primes)
            from chowkit.ntheory import factorize

            assert ps == sorted(factorize(f)), (d, f)


def test_divisor_kernel_witness():
    F = make_field(-7)
    O = order_from_conductor(F, 2)
    w = divisor_kernel_witness(O)
    assert w is not None
    assert div_over_order(O, w).is_zero()
    u, v, den = w.omega_coords()
    assert den != 1 or v % 2 != 0     # outside Z + 2*O~, hence outside O^*

    # inert conductor: the witness is a unit of the normalization
    Oi = order_from_conductor(make_field(-4), 3)
    wi = divisor_kernel_witness(Oi)
    assert wi is not None and abs(wi.norm()) == 1
    assert div_over_order(Oi, wi).is_zero()

    with pytest.raises(ValueError):
        divisor_kernel_witness(order_from_conductor(F, 1))
    # real field: fundamental unit escapes the order
    Or = order_from_conductor(make_field(8), 3)
    wr = divisor_kernel_witness(Or)
    assert wr is not None and div_over_order(Or, wr).is_zero()



def test_kernel_witness_matches_label_keyed_divisors(monkeypatch):
    """A witness from a kernel generator is the generator of the label-keyed
    reference ideal; otherwise it is a unit, or None exactly when the
    reference has no nonzero kernel generator either."""
    ideals = []
    original = orders.is_principal

    def capturing(field, I, max_steps=None):
        ideals.append(I)
        return original(field, I, max_steps=max_steps)

    monkeypatch.setattr(orders, "is_principal", capturing)
    from_kernel = 0
    for d in LIFT_FIELDS:
        F = make_field(d)
        for f in LIFT_CONDUCTORS:
            O = order_from_conductor(F, f)
            del ideals[:]
            w = divisor_kernel_witness(O)
            if not ideals:
                assert w is None or abs(w.norm()) == 1, (d, f)
                if w is None:
                    assert witness_ideal_by_labels(O) is None, (d, f)
                continue
            expected = witness_ideal_by_labels(O)
            assert ideals == [expected], (d, f)
            assert w == original(F, expected), (d, f)
            from_kernel += 1
    assert from_kernel >= 20, from_kernel


def test_fabric_n_generators_are_kernel_vector_classes():
    """The N generators of the fabric, ``order.class_of`` of the kernel
    vectors of ``kernel_vectors``, are the classes of those vectors summed
    place by place, and ``kernel_generators`` spells the vectors as the
    label-keyed divisors (d_{i,j}/g_i) Q_i - P_{i,j}."""
    decl = random_declared_field(random.Random(7), 12, (2, 6))
    cases = [order_from_conductor(make_field(d), f)
             for d in LIFT_FIELDS for f in LIFT_CONDUCTORS]
    cases += [declared_order(decl, decl.prime_labels),
              declared_order(load_declared("data/biquad.decl"), ["main"])]
    for O in cases:
        cl, _, n_gens = fabric_of(O)
        classes = []
        for prime in O.primes:
            for gen in kernel_vectors(prime):
                c = cl.identity()
                for pl, k in zip(prime.places, gen):
                    c = c + k * O.class_of([pl], [1])
                classes.append(c)
        assert tuple(classes) == n_gens
        assert kernel_generators(O) == kernel_generators_by_labels(O)

def test_class_of_matches_dlog_of_place_product():
    """``order.class_of`` against ideal arithmetic: on the LIFT_FIELDS x
    LIFT_CONDUCTORS orders, imaginary and real, the class of a seeded
    exponent vector over places over the conductor and invertible places,
    with negative and zero exponents and a place repeated, is the ``dlog``
    of its ``place_product``."""
    rng = random.Random(41)
    nontrivial = 0
    for d in LIFT_FIELDS:
        F = make_field(d)
        cg = class_group(F)
        for f in LIFT_CONDUCTORS:
            O = order_from_conductor(F, f)
            pool = [pl for prime in O.primes for pl in prime.places]
            pool += [pl for p in primes_below(20) if f % p for pl in splitting(F, p)]
            for _ in range(4):
                places = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
                places.append(places[0])
                exponents = [rng.randint(-3, 3) for _ in places]
                exponents[rng.randrange(len(places))] = 0
                cls = O.class_of(places, exponents)
                assert cls == cg.dlog(place_product(F, places, exponents)), (d, f, places)
                nontrivial += not cls.is_identity()
            assert O.class_of((), ()) == cg.group.identity()
    assert nontrivial > 100, nontrivial


@pytest.mark.parametrize("d, f", [(-47, 6), (-47, 119), (-3299, 30), (-3299, 35)])
def test_divisor_kernel_witness_exists(d, f):
    # split conductor primes give a nonzero kernel generator, so a witness
    # exists; a coefficient box of 1 used to miss all four
    O = order_from_conductor(make_field(d), f)
    w = divisor_kernel_witness(O, bound=1)
    assert w is not None
    assert div_over_order(O, w).is_zero()
    _, v, den = w.omega_coords()
    assert den != 1 or v % f != 0


def test_divisor_kernel_witness_none_means_none_exists():
    # 3 is inert in Q(sqrt(-7)): the kernel generators are zero and the
    # units are +-1, so no element has divisor 0 without being a unit of O
    O = order_from_conductor(make_field(-7), 3)
    assert all(g.is_zero() for g in kernel_generators(O))
    assert divisor_kernel_witness(O) is None


def test_conductor_factored_once(monkeypatch, capsys):
    # the order keeps v_p(f): Pic, phi(f) and |(O~/F)^*| read it instead of
    # factoring f again
    seen = []
    original = chowkit.ntheory.factorize

    def counting(n):
        seen.append(n)
        return original(n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("chowkit"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    assert main(["order-info", "--disc", "40", "--conductor", "12"]) == 0
    capsys.readouterr()
    assert seen.count(12) == 1, seen


def test_witness_yields_nontrivial_invertible_ideal():
    F = make_field(-7)
    O = order_from_conductor(F, 2)
    w = divisor_kernel_witness(O)
    # w*O is invertible (w is a unit times conductor-coprime structure) and != O
    assert not w.is_zero()
    assert div_over_order(O, w).is_zero()
