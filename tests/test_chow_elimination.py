"""``chow_group``, which eliminates the g_i = 1 primes, splits off Z/g_i
for the rest and sends one prime per distinct (g_i, qbar_i != 0) to the
Smith normal form, against the full (r + k)-column G/R presentation
(``util.chow_by_full_presentation``), and against the same order on the
other backend.  ``PROJECTION_DIGEST`` pins the invariant factors and the
coordinates of ``project`` on a seeded corpus."""

import hashlib
import json
import random
from math import gcd

import pytest

from chowkit.abgroup import element_order, subgroup_quotient
from chowkit.chow import chow_group, exact_sequence_data
from chowkit.declared import (
    DeclaredField,
    DeclaredPlace,
    declared_order,
    parse_declared,
    serialize_declared,
)
from chowkit.ntheory import primes_below
from chowkit.orders import LEVEL_ORDER, Divisor, NonInvertiblePrime, order_from_conductor
from chowkit.quadfield import make_field, splitting
from util import (
    check_class_step,
    chow_by_full_presentation,
    fabric_by_group_arithmetic,
    fabric_of,
    fundamental_discriminants,
    qbars_by_group_arithmetic,
    random_declared_field,
    transcribe_to_declared,
)

# (d, f) of both signs; 5 is inert in Q(sqrt(-23)), 3 in Q(sqrt(-4)) and in
# Q(sqrt(8)), 2 in Q(sqrt(5)) and Q(sqrt(-3)), so those primes have g = 2
QUADRATIC = ((-23, 10), (-23, 30), (-20, 6), (-7, 14), (-4, 3), (-84, 6),
             (-3, 10), (-71, 15), (8, 3), (40, 10), (5, 6), (13, 6),
             (21, 10), (-15, 4))


def _check_onto(pres):
    """``member`` takes exactly r + k entries and is onto: the images of the
    r + k generators generate the group."""
    G = pres.result
    n = len(pres.order.primes) + pres.cl_mod_n.rank
    for wrong in (n - 1, n + 1):
        with pytest.raises(ValueError):
            pres.member([0] * wrong)
    images = [pres.member([1 if t == i else 0 for t in range(n)]) for i in range(n)]
    assert subgroup_quotient(G, images).is_trivial()


def _check_against_reference(pres, rng, samples=30):
    """Same group as the unreduced quotient, and the same homomorphism from
    generator coordinates: every vector has the same order in both."""
    ref = chow_by_full_presentation(pres.order)
    G = pres.result
    assert G.invariant_factors == ref.invariant_factors
    n = ref.user_rank
    for _ in range(samples):
        v = [rng.randint(-6, 6) for _ in range(n)]
        assert element_order(G, pres.member(v)) == element_order(ref, ref.member(v))
    # the relation rows and the moduli of Cl/N map to 0
    r = len(pres.order.primes)
    for row in pres.relations.tolists():
        assert pres.member(row).is_identity()
    for j, d in enumerate(pres.cl_mod_n.invariant_factors):
        row = [0] * n
        row[r + j] = d
        assert pres.member(row).is_identity()


def _declared_cases():
    rng = random.Random(1018)
    out = []
    for n_primes in (1, 5, 40, 150):
        for chain, g_values, uniform in (
                ((2, 6, 12), (1, 2, 3), True),    # Cl/N = Cl, nontrivial
                ((2, 6, 12), (1, 2, 3), False),   # N from many classes
                ((3, 6), (1,), True),             # every g_i = 1
                ((2, 4), (1,), False),
                ((), (1, 2, 3), False)):          # trivial class group
            out.append(random_declared_field(rng, n_primes, chain, g_values, uniform))
    # the split paths: with one class image per record Cl/N = Cl, so most
    # qbar_i are nonzero; few classes and g_i in {2, 3, 4, 6} repeat the
    # pairs (g_i, qbar_i), and the class invariants share primes with g_i
    for n_primes in (12, 60):
        for chain, g_values, uniform in (
                ((2,), (2,), True),
                ((2, 6), (2, 3, 4, 6), True),
                ((4, 8), (1, 2, 4, 6), True),
                ((3, 9), (3, 6), True),
                ((6, 36), (2, 3, 4, 6), False)):
            out.append(random_declared_field(rng, n_primes, chain, g_values, uniform))
    return out


def test_declared_orders_match_full_presentation():
    rng = random.Random(7)
    seen = set()
    for decl in _declared_cases():
        order = declared_order(decl, decl.prime_labels)
        pres = chow_group(order)
        _check_onto(pres)
        _check_against_reference(pres, rng)
        seen.add((pres.cl_mod_n.is_trivial(),
                  all(p.g == 1 for p in order.primes)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_declared_cases_reach_every_split_path():
    """Some case repeats a pair (g_i, qbar_i != 0), has g_i = 4 and 6,
    sends a prime to the Smith normal form whose g_i shares a prime with
    the moduli of Cl/N, and splits off Z/g_i with qbar_i = 0."""
    repeated = shared = zero = False
    gs = set()
    for decl in _declared_cases():
        order = declared_order(decl, decl.prime_labels)
        pres = chow_group(order)
        pairs = [(p.g, qbar) for p, qbar in zip(order.primes, pres.qbars) if p.g > 1]
        gs.update(g for g, _ in pairs)
        sent = [(g, qbar) for g, qbar in pairs if any(qbar)]
        repeated |= len(set(sent)) < len(sent)
        zero |= len(sent) < len(pairs)
        moduli = pres.cl_mod_n.invariant_factors
        shared |= any(gcd(g, m) > 1 for g, _ in sent for m in moduli)
    assert repeated and shared and zero
    assert {2, 3, 4, 6} <= gs


def test_quadratic_orders_written_out_as_declared_files():
    """Differential oracle: a seeded sample of the orders Z + f*O~ with
    |d| < 700 and f = 2..39, each written out as a declared file (the class
    group's invariants, and ``dlog`` of each place as its class image) and
    parsed back, has the same Cl/N and Chow group on both backends."""
    grid = [(d, f) for d in fundamental_discriminants(699) for f in range(2, 40)]
    for d, f in random.Random(700).sample(grid, 1500):
        order = order_from_conductor(make_field(d), f)
        text = serialize_declared(transcribe_to_declared(order).declared)
        decl = parse_declared(text)
        declared = chow_group(declared_order(decl, decl.prime_labels))
        pres = chow_group(order)
        assert declared.result.invariant_factors == pres.result.invariant_factors, (d, f)
        assert declared.cl_mod_n.invariant_factors == pres.cl_mod_n.invariant_factors, (d, f)
        _check_onto(declared)


@pytest.mark.parametrize("d, f", QUADRATIC)
def test_quadratic_orders_match_full_presentation(d, f):
    order = order_from_conductor(make_field(d), f)
    pres = chow_group(order)
    _check_onto(pres)
    _check_against_reference(pres, random.Random(d * 1000 + f))


def test_quadratic_corpus_has_both_kinds_of_primes():
    gs = {p.g for d, f in QUADRATIC
          for p in order_from_conductor(make_field(d), f).primes}
    assert gs == {1, 2}


def test_projection_is_additive_and_kills_relations():
    rng = random.Random(31)
    for decl in _declared_cases()[5:15]:
        order = declared_order(decl, decl.prime_labels)
        pres = chow_group(order)
        labels = [p.label for p in order.primes]
        for _ in range(10):
            D1 = Divisor(LEVEL_ORDER, {l: rng.randint(-5, 5) for l in labels})
            D2 = Divisor(LEVEL_ORDER, {l: rng.randint(-5, 5) for l in labels})
            assert pres.project(D1 + D2) == pres.project(D1) + pres.project(D2)
        # g_i p_i is the class of [Q_i]: a multiple of g_i at one prime
        # projects to the image of its Cl/N part
        for i, prime in enumerate(order.primes):
            D = Divisor(LEVEL_ORDER, {prime.label: prime.g})
            vec = [0] * len(labels) + list(pres.qbars[i])
            assert pres.project(D) == pres.member(vec)


@pytest.mark.parametrize("d, f", QUADRATIC[:6])
def test_fabric_matches_group_arithmetic_quadratic(d, f):
    order = order_from_conductor(make_field(d), f)
    assert fabric_of(order) == fabric_by_group_arithmetic(order)
    assert chow_group(order).qbars == qbars_by_group_arithmetic(order)


def test_fabric_matches_group_arithmetic_declared():
    """On the declared cases and on the 150-prime files of the cost guards,
    per-place and uniform: [Q_i] and the kernel classes, through
    ``order.class_of``, and the images qbar_i of ``chow_group`` equal the
    group-arithmetic reference."""
    big = [random_declared_field(random.Random(150), 150, (2, 6, 12), uniform=uniform)
           for uniform in (False, True)]
    for decl in _declared_cases() + big:
        order = declared_order(decl, decl.prime_labels)
        assert fabric_of(order) == fabric_by_group_arithmetic(order)
        assert chow_group(order).qbars == qbars_by_group_arithmetic(order)


def test_exact_sequence_unchanged_by_elimination():
    """The local parts still list every g_i, trivial ones included, and the
    consistency check |Chow| = |Cl/N| * prod g_i holds."""
    for decl in _declared_cases()[:10]:
        order = declared_order(decl, decl.prime_labels)
        es = exact_sequence_data(order)
        assert es.local_orders == tuple(p.g for p in order.primes)
        assert es.consistent
        assert es.chow.invariant_factors == \
            chow_by_full_presentation(order).invariant_factors


def _class_step_divisors(order, rng, n=8):
    """D = 0, then divisors on up to three primes: multiples of g_i, one in
    four off by 1 at one prime (it fails step 1), and some multiples of
    g_i times the order of [Q_i], whose lift has class 0."""
    cl, q_classes, _ = fabric_by_group_arithmetic(order)
    out = [Divisor(LEVEL_ORDER, {})]
    for t in range(n):
        picked = rng.sample(range(len(order.primes)), min(3, len(order.primes)))
        support = {}
        for i in picked:
            prime = order.primes[i]
            scale = element_order(cl, q_classes[i]) if t % 3 == 2 else 1
            support[prime.label] = prime.g * scale * rng.randint(-3, 3)
        if t % 4 == 3:
            label = order.primes[picked[0]].label
            support[label] = support[label] + 1
        out.append(Divisor(LEVEL_ORDER, support))
    return out


def test_class_step_matches_solve_combination_declared():
    """Step 5 on the declared cases: membership in ``order.cl_mod_n`` and
    the verdict of ``principal_divisor_test`` agree with the
    ``solve_combination`` reference, and a class outside N occurs."""
    rng = random.Random(23)
    verdicts = set()
    for decl in _declared_cases():
        order = declared_order(decl, decl.prime_labels)
        for D in _class_step_divisors(order, rng):
            verdicts.add(check_class_step(order, D))
    assert verdicts == {None, True, False}


def _image_pair(rng, chain):
    """Two distinct class images in a class group with invariants ``chain``."""
    while True:
        c, c2 = (tuple(rng.randrange(d) for d in chain) for _ in range(2))
        if c != c2:
            return c, c2


def test_class_step_matches_solve_combination_uniform():
    """Step 5 on seeded ``uniform`` declared orders, where every N generator
    is 0 and Cl/N = Cl, and on the same orders with one record of two
    degree-1 places of distinct classes c, c' added, where N = <c - c'>:
    membership in ``order.cl_mod_n`` and the verdict of
    ``principal_divisor_test`` agree with the ``solve_combination``
    reference, and both verdicts occur with N = 0 and with 0 < N < Cl.  No
    ``declared-chow`` benchmark file has a nontrivial Cl/N, so the
    benchmark never takes the failing branch."""
    rng = random.Random(29)
    seen = {}
    for n_primes in (1, 3, 12, 40):
        for chain in ((2,), (2, 6, 12), (3, 9), (4, 8)):
            decl = random_declared_field(rng, n_primes, chain, (1, 2, 3, 4, 6),
                                         uniform=True)
            labels = rng.sample(decl.prime_labels, rng.randint(1, n_primes))
            extra = NonInvertiblePrime("r", 2, 2, tuple(
                DeclaredPlace(f"R{j}", 1, 1, c)
                for j, c in enumerate(_image_pair(rng, chain))))
            mixed = DeclaredField(decl.description, chain,
                                  decl.conductor_primes + (extra,))
            for order in (declared_order(decl, labels),
                          declared_order(mixed, labels + ["r"])):
                index = order.cl_mod_n.cardinality()   # [Cl : N]
                if index == order.class_group().cardinality():
                    kind = "N = 0"
                else:
                    kind = "0 < N < Cl" if index > 1 else "N = Cl"
                for D in _class_step_divisors(order, rng):
                    key = (kind, check_class_step(order, D))
                    seen[key] = seen.get(key, 0) + 1
    for kind in ("N = 0", "0 < N < Cl"):
        assert min(seen.get((kind, v), 0) for v in (None, True, False)) >= 10, seen


def projection_outputs():
    """What ``chow_group`` gives a reader, on a seeded corpus: the invariant
    factors and the coordinates of ``project`` of seeded divisors.  Declared
    files of 5 to 400 primes, with per-place and with uniform class images;
    quadratic orders of both signs, whose divisors name invertible places
    as well as the order's primes."""
    rng = random.Random(20261020)
    out = []

    def record(order, labels, n_divisors=12):
        pres = chow_group(order)
        out.append(list(pres.result.invariant_factors))
        for _ in range(n_divisors):
            support = {l: rng.randint(-7, 7)
                       for l in rng.sample(labels, min(len(labels), rng.randint(1, 6)))}
            out.append(list(pres.project(Divisor(LEVEL_ORDER, support)).coords))

    for n_primes in (5, 20, 60, 150, 400):
        for uniform in (False, True):
            decl = random_declared_field(rng, n_primes, (2, 6, 12), uniform=uniform)
            record(declared_order(decl, decl.prime_labels), list(decl.prime_labels))
    for d, f in QUADRATIC + ((-23, 2), (-199, 6), (-1003, 35), (229, 15), (1365, 4)):
        F = make_field(d)
        order = order_from_conductor(F, f)
        labels = [p.label for p in order.primes]
        labels += [pl.label for p in primes_below(40) if f % p
                   for pl in splitting(F, p)]
        record(order, labels)
    return out


# sha256 of the JSON of projection_outputs(), as computed when ``chow_group``
# built a dense coordinate matrix over all r + k generators; the group and
# the coordinates of ``project`` must not change
PROJECTION_DIGEST = "940b38a181cf3005ef1d4d02f1f7c932f03cb319430ca267c12d6b3723840d3e"


def test_projection_outputs_match_pinned_digest():
    data = json.dumps(projection_outputs()).encode()
    assert hashlib.sha256(data).hexdigest() == PROJECTION_DIGEST
