"""Deterministic guards on cost, by counting calls instead of timing.

The declared path: each test fails when a change brings back work that
grows quadratically with the number of conductor primes, work repeated
per place or per record on values that a file repeats, a check of a
parsed class image, a kernel class that nothing reads, or a copy of the
parsed records per order.  A quadratic order maps each place it reads to
its class by one ``dlog``.  Ideal powers and place-power products: the
exact number of products, none with the unit ideal.  A regression shows in
the test suite before it shows in the benchmark.

Divisors of elements are read off the normal form of their ideal, with no
ideal product, and the primes of a conductor, found by ``factorize``, are
not tested for primality again.

The principal lift and the kernel witness: each label is resolved once by
``order.resolve``, no label over the conductor is parsed, and no divisor
over the normalization is built.  A quadratic order splits each p once, its
conductor primes never, a warm ``order-info`` splits each conductor prime
once, when it builds the order, and ``order_from_ideal`` each p once, in
its Furtwaengler check, whose places the order it builds keeps.

The Chow layer: the G/R quotient gets one column per distinct pair
(g_i, qbar_i != 0) and one per modulus of Cl/N, ``relations`` is left
unbuilt until read, no generator lifts and no coordinate matrix with a row
per prime are built (``tracemalloc`` peaks at 2400 and 19200 primes), the
result keeps each qbar_i once per distinct value (what it holds at 19200),
``pres.member`` takes exactly r + k entries, ``find-trivial`` builds
the Chow group it found once, and its search maps each candidate by one
``member``, with no SNF solver, and maps nothing for an even |Cl|.  An
order's Cl/N is built once for the Chow group, the exact sequence, the
principal test and the Pic report together; the principal test's class
step calls no SNF solver, and a quadratic order prepares one, with one
SNF, when its first test reaches step 6, and none for later tests.

The class-group build reduces each candidate and each product once, since
its class keys are the forms it composes, and keeps one form per class.
What a process holds does not grow with the number of fields it has built,
and a field or order it holds never rebuilds its class group.
``order-info`` builds no group per conductor prime.
"""

import functools
import gc
import io
import json
import random
import tracemalloc
from collections import OrderedDict
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from chowkit import abgroup, chow, cli, declared, ntheory, orders, quadfield
from chowkit.abgroup import AbelianGroup
from chowkit.declared import DeclaredField, declared_order, parse_declared, serialize_declared
from chowkit.ntheory import primes_below
from chowkit.quadfield import (
    ClassGroupData,
    QElement,
    QIdeal,
    class_group,
    class_prime_bound,
    element_divisor,
    fundamental_unit,
    is_principal,
    make_field,
    splitting,
)
from chowkit.orders import (
    LEVEL_NORMALIZATION,
    LEVEL_ORDER,
    Divisor,
    OrderData,
    div_over_order,
    order_from_conductor,
    place_product,
    resolve_place,
)
from util import fabric_of, fundamental_discriminants, random_declared_field

N_PRIMES = 150


def _big_field(uniform):
    return random_declared_field(random.Random(150), N_PRIMES, (2, 6, 12),
                                 uniform=uniform)


def _check_member_takes(pres, n):
    """``pres.member`` takes exactly n entries, one per generator of G."""
    assert pres.member([0] * n).is_identity()
    for wrong in (n - 1, n + 1):
        with pytest.raises(ValueError):
            pres.member([0] * wrong)


@pytest.mark.parametrize("uniform", (True, False))
def test_chow_quotient_sees_only_primes_with_g_above_1(monkeypatch, uniform):
    decl = _big_field(uniform)
    order = declared_order(decl, decl.prime_labels)
    widths = []
    original = chow.quotient

    def counting(n, rows):
        widths.append(n)
        return original(n, rows)

    monkeypatch.setattr(chow, "quotient", counting)
    pres = chow.chow_group(order)
    wide = sum(1 for p in order.primes if p.g > 1)
    sent = {(p.g, qbar) for p, qbar in zip(order.primes, pres.qbars)
            if p.g > 1 and any(qbar)}
    assert widths == [len(sent) + pres.cl_mod_n.rank]
    assert 0 < wide < N_PRIMES
    _check_member_takes(pres, N_PRIMES + pres.cl_mod_n.rank)


def test_chow_quotient_of_2400_primes_is_no_wider_than_cl_mod_n(monkeypatch):
    """2400 primes with per-place class images: N = Cl, so Cl/N is trivial,
    every qbar_i is 0, and every prime with g_i > 1 splits off Z/g_i
    without reaching the Smith normal form, which a dense G/R quotient of
    several hundred columns would need."""
    decl = random_declared_field(random.Random(2400), 2400, (2, 6, 12))
    order = declared_order(decl, decl.prime_labels)
    widths = []
    original = chow.quotient

    def counting(n, rows):
        widths.append(n)
        return original(n, rows)

    monkeypatch.setattr(chow, "quotient", counting)
    pres = chow.chow_group(order)
    k = pres.cl_mod_n.rank
    assert k == 0 and not order.class_group().is_trivial()
    assert all(n <= k for n in widths)
    assert sum(1 for p in order.primes if p.g > 1) > 1000
    _check_member_takes(pres, 2400)


def test_declared_fabric_calls_no_member(monkeypatch):
    decl = _big_field(uniform=False)
    order = declared_order(decl, decl.prime_labels)
    calls = []
    original = AbelianGroup.member

    def counting(self, vector):
        calls.append(len(vector))
        return original(self, vector)

    monkeypatch.setattr(AbelianGroup, "member", counting)
    cl, q_classes, n_gens = fabric_of(order)
    assert calls == []
    assert len(q_classes) == N_PRIMES
    assert len(n_gens) == sum(len(p.places) for p in order.primes)


def test_n_quotient_sees_at_most_rank_cl_rows(monkeypatch):
    decl = _big_field(uniform=False)
    order = declared_order(decl, decl.prime_labels)
    cl, _, n_gens = fabric_of(order)
    shapes = []
    original = abgroup.quotient

    def counting(n, rows):
        shapes.append((n, len(rows)))
        return original(n, rows)

    # the quotient inside subgroup_quotient; chow_group's own is chow.quotient
    monkeypatch.setattr(abgroup, "quotient", counting)
    chow.chow_group(order)
    assert len(n_gens) > N_PRIMES > cl.rank == 3
    assert len(shapes) == 1
    assert shapes[0][0] == cl.rank and shapes[0][1] <= cl.rank


@pytest.mark.parametrize("uniform", (False, True))
def test_declared_chow_and_principal_call_no_element(monkeypatch, uniform):
    """A declared place's class is its parsed class image, used as it is:
    ``chow_group`` and a principal test on every prime of the 150-prime
    files call ``AbelianGroup.element`` zero times, where checking each
    distinct image once took one call per image."""
    decl = _big_field(uniform)
    order = declared_order(decl, decl.prime_labels)
    calls = []
    original = AbelianGroup.element

    def counting(self, coords):
        calls.append(tuple(coords))
        return original(self, coords)

    monkeypatch.setattr(AbelianGroup, "element", counting)
    chow.chow_group(order)
    for prime in order.primes:
        chow.principal_divisor_test(order, Divisor(LEVEL_ORDER, {prime.label: prime.g}))
    assert calls == []


def _count_class_of(monkeypatch):
    """Wrap ``OrderData.class_of``; returns the list that each call appends
    its places to."""
    calls = []
    original = OrderData.class_of

    def counting(self, places, exponents):
        calls.append(places)
        return original(self, places, exponents)

    monkeypatch.setattr(OrderData, "class_of", counting)
    return calls


def test_cl_mod_n_of_2400_primes_builds_5_kernel_classes(monkeypatch):
    """N = Cl on the 2400-prime file: ``subgroup_quotient`` stops advancing
    the kernel classes once it has them, so ``order.cl_mod_n`` builds 5
    classes of the 6029 kernel vectors, where one N generator per place
    was built before."""
    decl = random_declared_field(random.Random(2400), 2400, (2, 6, 12))
    order = declared_order(decl, decl.prime_labels)
    built = _count_class_of(monkeypatch)
    assert order.cl_mod_n.is_trivial() and not order.class_group().is_trivial()
    assert len(built) == 5
    assert all(any(places is prime.places for prime in order.primes) for places in built)
    assert sum(len(prime.places) for prime in order.primes) == 6029


@pytest.mark.parametrize("uniform", (False, True))
def test_declared_principal_test_builds_no_further_kernel_class(monkeypatch, uniform):
    """On the 150-prime files a declared principal test builds the kernel
    classes that ``cl_mod_n`` reads, on the first call (7 with N = Cl,
    all 395 with N = 0), and one class per test, that of its lift."""
    decl = _big_field(uniform)
    built = _count_class_of(monkeypatch)
    declared_order(decl, decl.prime_labels).cl_mod_n
    read = len(built)
    assert read == (395 if uniform else 7)
    order = declared_order(decl, decl.prime_labels)
    del built[:]
    rng = random.Random(5)
    divisors = [Divisor(LEVEL_ORDER, {p.label: p.g * rng.randint(-3, 3)
                                      for p in rng.sample(order.primes, 5)})
                for _ in range(20)]
    for D in divisors:
        assert chow.principal_divisor_test(order, D).failing_step != 1
    records = {id(prime.places) for prime in order.primes}
    assert sum(1 for places in built if id(places) in records) == read
    assert len(built) == read + len(divisors)


def test_quadratic_order_dlogs_each_place_once(monkeypatch):
    """Over Z + 30*O~ in Q(sqrt(-23)) (2 and 3 split, 5 inert): the Chow
    group, the exact sequence, principal tests, the Pic report and the
    kernel witness map each place they read, over the conductor or not, to
    its class by at most one ``dlog``, and the places over the conductor
    by exactly one among them."""
    F = make_field(-23)
    order = order_from_conductor(F, 30)
    ideals = []
    original = ClassGroupData.dlog

    def counting(self, ideal):
        ideals.append(ideal)
        return original(self, ideal)

    monkeypatch.setattr(ClassGroupData, "dlog", counting)
    chow.chow_group(order)
    chow.exact_sequence_data(order)
    for x, y in ((5, 1), (7, 3), (11, 1), (29, 5)):
        D = div_over_order(order, QElement(F, x, y, 1))
        assert chow.principal_divisor_test(order, D).status == "principal"
    chow.pic_chow_report(order)
    assert orders.divisor_kernel_witness(order) is not None
    places = [pl.ideal() for prime in order.primes for pl in prime.places]
    assert [sum(1 for I in ideals if I == P) for P in places] == [1, 1, 1, 1, 1]
    assert all(sum(1 for J in ideals if J == I) == 1 for I in ideals)
    assert len(ideals) > len(places)


def test_chow_group_maps_each_q_class_once(monkeypatch):
    decl = _big_field(uniform=False)
    order = declared_order(decl, decl.prime_labels)
    _, q_classes, _ = fabric_of(order)
    calls = []
    original = AbelianGroup.member

    def counting(self, vector):
        calls.append(tuple(vector))
        return original(self, vector)

    monkeypatch.setattr(AbelianGroup, "member", counting)
    chow.chow_group(order)
    distinct = {q.coords for q in q_classes}
    assert len(calls) == len(set(calls)) and set(calls) <= distinct
    assert len(distinct) < N_PRIMES


def test_chow_group_leaves_relations_unbuilt():
    """The unreduced rows (g_i p_i, -[Q_i]) are built on first read only,
    and then equal those of the (r + k)-column G/R presentation."""
    decl = _big_field(uniform=False)
    order = declared_order(decl, decl.prime_labels)
    pres = chow.chow_group(order)
    assert "relations" not in vars(pres)
    r = len(order.primes)
    expected = []
    for i, (prime, q) in enumerate(zip(order.primes, fabric_of(order)[1])):
        row = [0] * r + [-c for c in pres.cl_mod_n.member(q.coords).coords]
        row[i] = prime.g
        expected.append(row)
    assert pres.relations.tolists() == expected
    assert pres.relations.cols == r + pres.cl_mod_n.rank
    assert "relations" in vars(pres)


# odd class numbers 3, 5, 7 and 3 (a real field), then even ones 4, 2 and 2
ODD_H = (-23, -47, -71, 229)
EVEN_H = (-84, -20, 40)


def test_find_trivial_builds_each_chow_group_once(monkeypatch, capsys):
    """``cli.main(["find-trivial", ...])`` builds one Chow group per conductor
    found, the search's own verification, and none when nothing is found."""
    built = []
    original = chow.chow_group

    def counting(order):
        built.append(order.conductor)
        return original(order)

    monkeypatch.setattr(chow, "chow_group", counting)
    monkeypatch.setattr(cli, "chow_group", counting)
    found = []
    for d in ODD_H + EVEN_H:
        del built[:]
        code = cli.main(["find-trivial", "--disc", str(d), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == (0 if doc["found"] else 1), d
        assert built == ([doc["conductor"]] if doc["found"] else []), d
        found.append(doc["found"])
    assert found == [True] * len(ODD_H) + [False] * len(EVEN_H)


def test_find_trivial_search_calls_no_snf_solver(monkeypatch):
    """The search tests each candidate by one ``member`` in the Cl/N it
    holds, with no SNF solver (``combination_solver``, which
    ``solve_combination`` applies), and maps no class when |Cl| is even,
    since then no conductor can work."""
    solves = _count_calls(monkeypatch, "combination_solver", (abgroup, orders))
    dlogs = []
    original_dlog = ClassGroupData.dlog

    def counting_dlog(self, ideal):
        dlogs.append(self.d)
        return original_dlog(self, ideal)

    monkeypatch.setattr(ClassGroupData, "dlog", counting_dlog)
    for d in ODD_H:
        assert chow.find_trivial_chow_conductor(make_field(d), 100) is not None, d
    assert solves == [] and dlogs
    for d in EVEN_H:
        assert class_group(make_field(d)).cardinality() % 2 == 0, d
        del dlogs[:]
        assert chow.find_trivial_chow_conductor(make_field(d), 100) is None, d
        assert dlogs == [], d
    assert solves == []


def _count_calls(monkeypatch, name, modules):
    """Wrap ``abgroup.<name>`` in each module that binds it; returns the
    list that each call appends its first argument to."""
    calls = []
    original = getattr(abgroup, name)

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_one_cl_mod_n_per_order(monkeypatch):
    """``chow_group``, ``exact_sequence_data``, ``principal_divisor_test``
    and ``pic_chow_report`` on one order build its Cl/N once in all, and the
    Chow group's Cl/N is the order's."""
    calls = _count_calls(monkeypatch, "subgroup_quotient", (abgroup, chow, orders))
    built = [order_from_conductor(make_field(-84), 15)]
    built += [declared_order(decl, decl.prime_labels)
              for decl in map(_big_field, (False, True))]
    for order in built:
        del calls[:]
        pres = chow.chow_group(order)
        chow.exact_sequence_data(order)
        prime = order.primes[0]
        chow.principal_divisor_test(order, Divisor(LEVEL_ORDER, {prime.label: prime.g}))
        chow.pic_chow_report(order)
        assert len(calls) == 1
        assert pres.cl_mod_n is order.cl_mod_n


@pytest.mark.parametrize("uniform", (False, True))
def test_declared_principal_test_calls_no_snf_solver(monkeypatch, uniform):
    """On the 150-prime files, per-place (N = Cl) and uniform (N = 0), the
    class step is one membership test in Cl/N, with no SNF solver
    (``combination_solver``): every divisor below passes step 1, and 0
    passes step 5 too.  The one Smith normal form made is that of Cl/N, on
    the first call."""
    decl = _big_field(uniform)
    order = declared_order(decl, decl.prime_labels)
    solves = _count_calls(monkeypatch, "combination_solver", (abgroup, orders))
    snfs = _count_calls(monkeypatch, "_snf_inplace", (abgroup,))
    rng = random.Random(5)
    divisors = [Divisor(LEVEL_ORDER, {})] + [
        Divisor(LEVEL_ORDER, {p.label: p.g * rng.randint(-3, 3)
                              for p in rng.sample(order.primes, 5)})
        for _ in range(20)]
    statuses = set()
    for D in divisors:
        res = chow.principal_divisor_test(order, D)
        assert res.failing_step != 1
        statuses.add(res.status)
    assert solves == [] and len(snfs) == 1
    assert statuses == ({"not-principal", "principal-no-generator"} if uniform
                        else {"principal-no-generator"})


def test_quadratic_principal_test_prepares_one_solver_per_order(monkeypatch):
    """The kernel correction's solver is prepared once per order: the first
    test on an order that reaches step 6 makes its one Smith normal form
    (one ``combination_solver``, one ``_snf_inplace``), later tests on that
    order make none, and a lift that fails step 5 makes none and builds no
    kernel class.  Cl and Cl/N are built beforehand, so every SNF counted
    is the solver's."""
    F = make_field(-23)   # Cl = Z/3, so the solver's SNF is not empty
    order = order_from_conductor(F, 30)
    fresh = order_from_conductor(F, 7)
    assert order.cl_mod_n.is_trivial() and not fresh.cl_mod_n.is_trivial()
    solvers = _count_calls(monkeypatch, "combination_solver", (abgroup, orders))
    snfs = _count_calls(monkeypatch, "_snf_inplace", (abgroup,))
    for x, y in ((5, 1), (7, 3), (11, 1), (29, 5)):
        D = div_over_order(order, QElement(F, x, y, 1))
        assert chow.principal_divisor_test(order, D).status == "principal"
        assert (len(solvers), len(snfs)) == (1, 1)
    del solvers[:], snfs[:]
    res = chow.principal_divisor_test(fresh, Divisor(LEVEL_ORDER, {"2.0": 1}))
    assert res.failing_step == 5 and solvers == [] and snfs == []
    assert "kernel" not in vars(fresh) and "_kernel_solver" not in vars(fresh)


def test_parse_declared_tests_each_p_once(monkeypatch):
    text = serialize_declared(_big_field(uniform=False))
    calls = []
    original = declared.is_prime

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(declared, "is_prime", counting)
    decl = parse_declared(text)
    primes = {rec.p for rec in decl.conductor_primes}
    assert sorted(calls) == sorted(primes)
    assert len(primes) < N_PRIMES


def test_records_derive_g_once_and_orders_hold_them(monkeypatch):
    """Counts ``bezout_gcd`` calls: ``parse_declared`` makes one per record,
    when the record derives g and its lambdas, and ``declared_order`` makes
    none, since its primes are the parsed records themselves."""
    text = serialize_declared(_big_field(uniform=False))
    calls = []
    original = orders.bezout_gcd

    def counting(values):
        calls.append(len(values))
        return original(values)

    monkeypatch.setattr(orders, "bezout_gcd", counting)
    decl = parse_declared(text)
    assert len(calls) == N_PRIMES
    del calls[:]
    order = declared_order(decl, decl.prime_labels)
    assert calls == []
    assert all(prime is decl.prime(label)
               for prime, label in zip(order.primes, decl.prime_labels))
    assert len(order.primes) == N_PRIMES


class _CountingTuple(tuple):
    """A tuple that counts how often it is iterated or indexed."""

    touches = 0

    def __iter__(self):
        type(self).touches += 1
        return super().__iter__()

    def __getitem__(self, key):
        type(self).touches += 1
        return super().__getitem__(key)


def test_declared_order_never_scans_the_records(monkeypatch):
    base = _big_field(uniform=False)
    monkeypatch.setattr(_CountingTuple, "touches", 0)
    decl = DeclaredField(base.description, base.class_invariants,
                         _CountingTuple(base.conductor_primes))
    labels = base.prime_labels
    built = _CountingTuple.touches          # the label index, built once
    order = declared_order(decl, labels)
    assert _CountingTuple.touches == built
    assert [p.label for p in order.primes] == list(labels)
    assert decl.prime(labels[-1]) is base.conductor_primes[-1]
    assert _CountingTuple.touches == built


def _counting_products(monkeypatch):
    """Log (is a squaring, has a unit-ideal operand) for every QIdeal product."""
    log = []
    original = QIdeal.__mul__

    def is_unit(I):
        return I.a == 1 and I.content == 1

    def counting(self, other):
        log.append((self is other, is_unit(self) or is_unit(other)))
        return original(self, other)

    monkeypatch.setattr(QIdeal, "__mul__", counting)
    return log


def _cost(n):
    """(squarings, products) of left-to-right square-and-multiply for n >= 0."""
    n = abs(n)
    return (max(n.bit_length() - 1, 0), max(bin(n).count("1") - 1, 0))


def test_ideal_power_cost(monkeypatch):
    F = make_field(-23)
    P = splitting(F, 2)[0].ideal()
    powers = [QIdeal.unit_ideal(F)]
    for _ in range(70):
        powers.append(powers[-1] * P)
    log = _counting_products(monkeypatch)
    for n, expected in enumerate(powers):
        del log[:]
        assert P ** n == expected, n
        squarings = sum(1 for square, _ in log if square)
        assert (squarings, len(log) - squarings) == _cost(n), n
        assert not any(unit for _, unit in log), n


def test_place_product_cost(monkeypatch):
    F = make_field(-23)
    exponents = {"2.0": 5, "3.1": -3, "13.0": 1, "5": 0, "2.1": 12}
    places = [resolve_place(F, label) for label in exponents]
    log = _counting_products(monkeypatch)
    I = place_product(F, places, exponents.values())
    assert not any(unit for _, unit in log)
    # each power by square-and-multiply, then one product per further place
    nonzero = [k for k in exponents.values() if k]
    assert len(log) == sum(sum(_cost(k)) for k in nonzero) + len(nonzero) - 1
    del log[:]
    assert place_product(F, (), ()) == QIdeal.unit_ideal(F)
    assert log == []
    expected = QIdeal.unit_ideal(F)
    for label, k in exponents.items():
        place = resolve_place(F, label).ideal()
        for _ in range(abs(k)):
            expected = expected * (place if k > 0 else place.inverse())
    assert I == expected


def test_ideal_products_skip_the_checking_constructor(monkeypatch):
    """Products, powers, inverses and conjugates build their ideals from
    parts that composition leaves in normal form: ``QIdeal.__init__``, which
    checks the parts of an ideal given from outside, runs zero times."""
    F = make_field(-23)
    ideals = [pl.ideal() for p in (2, 3, 5, 13) for pl in splitting(F, p)]
    ideals.append(QIdeal(F, 1, 0, Fraction(1, 6)))
    calls = []
    original = QIdeal.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(QIdeal, "__init__", counting)
    rng = random.Random(27)
    for _ in range(100):
        I = rng.choice(ideals) * rng.choice(ideals).conj() ** rng.randint(-5, 5)
        assert I * I.inverse() == QIdeal.unit_ideal(F)
    assert calls == []


def test_element_divisor_makes_no_ideal_product(monkeypatch):
    """The generator of P^64, P over 11 in Q(sqrt(-7)), has its divisor read
    off its normal form, where dividing out powers of P took 64 products."""
    F = make_field(-7)
    place = splitting(F, 11)[0]
    alpha = is_principal(F, place.ideal() ** 64)
    log = _counting_products(monkeypatch)
    assert element_divisor(F, alpha) == {place.label: 64}
    assert log == []


def test_order_from_conductor_tests_no_prime(monkeypatch):
    """The primes of f = 210 come from ``factorize``; their places are not
    tested for primality again."""
    calls = []
    original = ntheory.is_prime

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(ntheory, "is_prime", counting)
    monkeypatch.setattr(quadfield, "is_prime", counting)
    order = order_from_conductor(make_field(-23), 210)
    assert [prime.p for prime in order.primes] == [2, 3, 5, 7]
    assert calls == []


def test_conductor_test_splits_each_prime_once(monkeypatch):
    """``conductor_test`` resolves its labels and reads the places over each
    p from one maximal order: one ``_splitting`` call per distinct p, where
    it split p once per label and once more per p."""
    F = make_field(-23)
    exponents = {"2.0": 1, "2.1": 1, "3.0": 2, "03.1": 2, "5": 1, "23": 2, "13.1": 1}
    calls = []
    original = orders._splitting

    def counting(field, p):
        calls.append(p)
        return original(field, p)

    monkeypatch.setattr(orders, "_splitting", counting)
    assert orders.conductor_test(F, exponents) == (False, "13.1")
    assert sorted(calls) == [2, 3, 5, 13, 23]
    del calls[:]
    del exponents["13.1"]
    assert orders.conductor_test(F, exponents) == (True, None)
    assert sorted(calls) == [2, 3, 5, 23]


def test_order_from_ideal_splits_each_prime_once(monkeypatch):
    """``order_from_ideal`` resolves its labels through the maximal order of
    the Furtwaengler check and builds the order on the places it split
    there: each p is split once, where ``order_from_conductor`` split each
    p of f a second time."""
    F = make_field(-7)
    calls = []
    original = orders._splitting

    def counting(field, p):
        calls.append(p)
        return original(field, p)

    monkeypatch.setattr(orders, "_splitting", counting)
    order = orders.order_from_ideal(F, {"2.0": 1, "2.1": 1, "3": 2, "5": 1})
    assert order.conductor == 90   # 3 is inert, so its exponent is v_3(f)
    assert sorted(calls) == [2, 3, 5]


def test_order_info_splits_each_conductor_prime_once(monkeypatch):
    """A warm ``order-info`` reads the residue unit count off the order's own
    places: one ``_splitting`` call per conductor prime, when the order is
    built, where the count split each p again on each of its two reads."""
    argv = ["order-info", "--disc", "-23", "--conductor", "30"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    calls = []
    original = quadfield._splitting

    def counting(field, p):
        calls.append(p)
        return original(field, p)

    for module in (quadfield, orders, chow):
        monkeypatch.setattr(module, "_splitting", counting)
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert sorted(calls) == [2, 3, 5]


def test_principal_lift_resolves_each_invertible_label_once(monkeypatch):
    """Over Z + 30*O~ in Q(sqrt(-23)) (2 and 3 split, 5 inert):
    ``principal_divisor_test`` resolves each label of D once through
    ``order.resolve``, parses each invertible label once and no label over
    the conductor, calls no field-level ``resolve_place``, and neither it
    nor ``divisor_kernel_witness`` builds a divisor over the
    normalization."""
    F = make_field(-23)
    order = order_from_conductor(F, 30)
    conductor_labels = {pl.label for prime in order.primes for pl in prime.places}
    conductor_labels |= {prime.label for prime in order.primes}
    divisors = [div_over_order(order, QElement(F, x, y, 1))
                for x, y in ((5, 1), (7, 3), (11, 1), (29, 5))]
    divisors += [Divisor(LEVEL_ORDER, {"2": 4, "7": 2, "7.0": -1, "13.1": 3})]
    resolved, parsed, by_field = [], [], []
    levels = []
    original_resolve = OrderData.resolve
    original_parse = orders.QuadraticOrder._resolve_other
    original_init = Divisor.__init__

    def counting_resolve(self, token):
        resolved.append(token)
        return original_resolve(self, token)

    def counting_parse(self, token):
        parsed.append(token)
        return original_parse(self, token)

    def counting_init(self, level, support=None):
        levels.append(level)
        original_init(self, level, support)

    monkeypatch.setattr(OrderData, "resolve", counting_resolve)
    monkeypatch.setattr(orders.QuadraticOrder, "_resolve_other", counting_parse)
    monkeypatch.setattr(orders, "resolve_place",
                        lambda field, label: by_field.append(label))
    monkeypatch.setattr(Divisor, "__init__", counting_init)
    reached = 0
    for D in divisors:
        del resolved[:], parsed[:]
        res = chow.principal_divisor_test(order, D)
        reached += res.status == "principal"
        invertible = [l for l in D.support if l not in {p.label for p in order.primes}]
        assert sorted(resolved) == sorted(D.support), D
        assert sorted(parsed) == sorted(invertible), D
        assert not conductor_labels & set(parsed), D
    assert reached >= 4
    del resolved[:], parsed[:]
    assert orders.divisor_kernel_witness(order) is not None
    assert resolved == parsed == by_field == []
    assert LEVEL_NORMALIZATION not in levels


def test_quadratic_order_splits_each_prime_once(monkeypatch):
    """Repeated principal tests on one quadratic order split each p once:
    one primality test and at most one square root mod p per p, however
    often and however spelled its places are named, and none for a
    conductor prime, whose places the order holds already."""
    F = make_field(-23)
    order = order_from_conductor(F, 30)
    class_group(F)
    labels = ["2", "3", "5"]
    for p in primes_below(60)[3:]:
        for place in splitting(F, p):
            labels += [place.label, "0" + place.label]
    tested, roots = [], []
    original_is_prime, original_sqrt = orders.is_prime, quadfield.sqrt_mod

    def counting_is_prime(n):
        tested.append(n)
        return original_is_prime(n)

    def counting_sqrt(a, p):
        roots.append(p)
        return original_sqrt(a, p)

    monkeypatch.setattr(orders, "is_prime", counting_is_prime)
    monkeypatch.setattr(quadfield, "is_prime", counting_is_prime)
    monkeypatch.setattr(quadfield, "sqrt_mod", counting_sqrt)
    rng = random.Random(26)
    for _ in range(200):
        support = {tok: rng.randint(-3, 3) for tok in rng.sample(labels, 4)}
        chow.principal_divisor_test(order, Divisor(LEVEL_ORDER, support))
    named = set(primes_below(60)[3:])
    assert sorted(tested) == sorted(named)
    assert len(roots) == len(set(roots)) and set(roots) <= named


# h = 1268, spanned by the classes of 1 + 64 candidate forms
BIG_IMAGINARY = -889151


def test_class_group_reduces_each_form_once(monkeypatch):
    """A fresh build reduces the unit form, each candidate and each product
    once; a build that reduced every product twice made 3306 calls."""
    F = make_field(BIG_IMAGINARY)
    candidates = sum(1 for p in primes_below(class_prime_bound(F.d) + 1)
                     if splitting(F, p)[0].kind != "inert")
    reductions = []
    compositions = []
    original_reduce, original_compose = quadfield._reduce_imag, quadfield._compose

    def counting_reduce(form):
        reductions.append(form)
        return original_reduce(form)

    def counting_compose(f1, f2, d):
        compositions.append(d)
        return original_compose(f1, f2, d)

    monkeypatch.setattr(quadfield, "_RECENT_CLASS_GROUPS", OrderedDict())
    monkeypatch.setattr(quadfield, "_reduce_imag", counting_reduce)
    monkeypatch.setattr(quadfield, "_compose", counting_compose)
    assert class_group(F).cardinality() == 1268
    assert candidates == 64
    assert len(reductions) <= len(compositions) + candidates + 1


def test_class_group_build_memory(monkeypatch):
    """One form per class: the build's tracemalloc peak stays below 320 KiB
    (287 KiB on CPython 3.11), where a table of representatives beside the
    keys took 571 KiB, measured the same way."""
    F = make_field(BIG_IMAGINARY)
    monkeypatch.setattr(quadfield, "_RECENT_CLASS_GROUPS", OrderedDict())
    gc.collect()  # also empties the free lists, whose reuse tracemalloc does not see
    tracemalloc.start()
    try:
        class_group(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * 1024


def test_class_groups_of_many_fields_hold_bounded_memory(monkeypatch):
    """The class groups and units of 2000 fields, |d| <= 3300 in a seeded
    order: the memory tracemalloc sees held after the last field is within
    64 KiB of what it was after the first 400, where a cache that kept
    every table grew by 3.7 MiB between the same readings.  A field and an
    order held through them never rebuild their class groups."""
    monkeypatch.setattr(quadfield, "_RECENT_CLASS_GROUPS", OrderedDict())
    monkeypatch.setattr(quadfield, "_RECENT_UNITS", OrderedDict())
    builds = []
    original = quadfield._span_classes

    def counting(d, sd, candidates, memo):
        builds.append(d)
        return original(d, sd, candidates, memo)

    monkeypatch.setattr(quadfield, "_span_classes", counting)
    held_field = make_field(-3299)
    held_order = order_from_conductor(make_field(3297), 5)
    class_group(held_field)
    eps = fundamental_unit(held_order.field)
    held_order.cl_mod_n
    discs = [d for d in fundamental_discriminants(3300) if d not in (-3299, 3297)]
    random.Random(31).shuffle(discs)
    discs = discs[:2000]

    def held():
        gc.collect()  # also empties the free lists, whose reuse tracemalloc does not see
        return tracemalloc.get_traced_memory()[0]

    gc.collect()
    tracemalloc.start()
    try:
        for i, d in enumerate(discs, 1):
            field = make_field(d)
            class_group(field)
            if d > 0:
                fundamental_unit(field)
            if i == 400:
                early = held()
        late = held()
    finally:
        tracemalloc.stop()
    assert late - early < 64 * 1024
    assert len(quadfield._RECENT_CLASS_GROUPS) == quadfield._RECENT_SIZE
    del builds[:]
    assert class_group(held_field).cardinality() == 27
    assert class_group(held_order.field) is class_group(held_order.field)
    assert fundamental_unit(held_order.field) is eps
    assert chow.chow_group(held_order).result is not None
    assert chow.pic_cardinality(held_order) is not None
    assert builds == []


@functools.lru_cache(maxsize=1)
def _chow_group_memory(n_primes):
    """``chow_group`` on the seeded n-prime file with every record
    selected, Cl/N built before the call: (result, tracemalloc current
    with the result alive, tracemalloc peak).  The last file's reading is
    kept, so the guards at 19200 primes build it once."""
    decl = random_declared_field(random.Random(n_primes), n_primes, (2, 6, 12))
    order = declared_order(decl, decl.prime_labels)
    order.cl_mod_n
    gc.collect()
    tracemalloc.start()
    try:
        pres = chow.chow_group(order)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return pres, held, peak


def _chow_group_peak(n_primes):
    """(result, tracemalloc peak) of ``_chow_group_memory``."""
    pres, _, peak = _chow_group_memory(n_primes)
    return pres, peak


def test_chow_group_build_memory():
    """2400 primes, 809 invariant factors: ``chow_group`` keeps each
    prime's route into its split and builds no coordinate matrix and no
    generator lifts, so its tracemalloc peak stays below 4 MiB (0.8 MiB on
    CPython 3.11), where a dense 2400 x 809 ``basis_change`` took it to
    20.6 MiB and a dense 809 x 2400 matrix of lifts beside it to 50.1 MiB,
    measured the same way."""
    pres, peak = _chow_group_peak(2400)
    assert pres.result.rank == 809
    assert pres.result.generator_lifts is None
    assert peak < 4 * 2**20


def test_chow_group_of_19200_primes_memory():
    """19200 primes, rank 6448: the tracemalloc peak stays below 32 MiB
    (6.6 MiB on CPython 3.11), where the dense 19200 x 6448
    ``basis_change`` took it to 1258.5 MiB, measured the same way."""
    pres, peak = _chow_group_peak(19200)
    assert pres.result.rank == 6448
    assert peak < 32 * 2**20


def test_chow_group_of_19200_primes_holds_one_qbar_per_value():
    """19200 primes: the memory ``chow_group`` still holds after it returns,
    with the result alive, stays below 4 MiB (3.2 MiB on CPython 3.11).
    The result keeps qbar_i, one tuple per distinct value, where a checked
    [Q_i] element per prime held 5.1 MiB, measured the same way."""
    try:
        pres, held, _ = _chow_group_memory(19200)
    finally:
        _chow_group_memory.cache_clear()
    assert len(set(map(id, pres.qbars))) == len(set(pres.qbars)) < 19200
    assert held < 4 * 2**20


def test_order_info_builds_no_group_per_prime(monkeypatch, tmp_path):
    """``order-info --order all`` prints each local Chow group Z/g from g,
    so the number of AbelianGroups it builds does not grow with the primes."""
    built = []
    original = AbelianGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(len(args[0]))
        original(self, *args, **kwargs)

    monkeypatch.setattr(AbelianGroup, "__init__", counting)
    counts = []
    for n in (N_PRIMES // 3, N_PRIMES):
        path = tmp_path / f"f{n}.decl"
        decl = random_declared_field(random.Random(150), n, (2, 6, 12))
        path.write_text(serialize_declared(decl))
        del built[:]
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["order-info", "--data", str(path), "--order", "all"]) == 0
        assert out.getvalue().count("local Chow: Z/") > 0
        counts.append(len(built))
    assert counts[0] == counts[1]
