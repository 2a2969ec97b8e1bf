"""Exact linear algebra and abelian-group constructions."""

import hashlib
import json
import random
from itertools import combinations, product
from math import gcd, prod

import pytest

from chowkit.abgroup import (
    AbelianGroup,
    IntMatrix,
    bezout_gcd,
    cyclic_sum,
    direct_sum_invariants,
    element_order,
    quotient,
    smith_normal_form,
    solve_combination,
    subgroup_quotient,
)
from util import (
    bezout_gcd_by_rescaling,
    enumerate_subgroup_order,
    subgroup_quotient_by_raw_rows,
)


def diag_of(D):
    return [D[i, i] for i in range(min(D.rows, D.cols))]


def minors_gcd(A, k):
    g = 0
    for rows in combinations(range(A.rows), k):
        for cols in combinations(range(A.cols), k):
            sub = IntMatrix([[A[i, j] for j in cols] for i in rows])
            g = gcd(g, abs(sub.det()))
    return g


def check_snf(A):
    D, U, V = smith_normal_form(A)
    assert U @ A @ V == D
    assert abs(U.det()) == 1
    assert abs(V.det()) == 1
    d = diag_of(D)
    for a, b in zip(d, d[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    # determinant-divisor oracle: d_1*...*d_k = gcd of all k x k minors
    acc = 1
    for k in range(1, min(A.rows, A.cols) + 1):
        acc *= d[k - 1]
        assert abs(acc) == minors_gcd(A, k)
    return d


def test_snf_worked_examples():
    assert diag_of(smith_normal_form([[2, 1], [0, 2]])[0]) == [1, 4]
    assert diag_of(smith_normal_form([[0]])[0]) == [0]
    eye = IntMatrix.identity(4)
    D, U, V = smith_normal_form(eye)
    assert D == eye


def test_snf_empty_matrices():
    D, U, V = smith_normal_form(IntMatrix([], cols=3))
    assert D.rows == 0 and D.cols == 3
    assert V == IntMatrix.identity(3)


def test_snf_random_oracle():
    rng = random.Random(20240811)
    for _ in range(250):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        check_snf(A)


def test_quotient_worked_examples():
    # generators (p, c), relations 2p + c = 0 and 2c = 0
    assert quotient(2, [[2, 1], [0, 2]]).invariant_factors == (4,)
    assert quotient(1, []).invariant_factors == (0,)
    G = quotient(2, [[2, 0], [0, 3]])
    assert G.invariant_factors == (6,)
    # CRT oracle: all six elements, exactly one of each order dividing 6
    orders = sorted(element_order(G, G.element((k,))) for k in range(6))
    assert orders == [1, 2, 3, 3, 6, 6]


def test_quotient_presentation_invariance():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        base = quotient(n, rows).invariant_factors
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert quotient(n, shuffled).invariant_factors == base
        if m >= 2:
            added = [r[:] for r in rows]
            i, j = rng.sample(range(m), 2)
            added[i] = [a + b for a, b in zip(added[i], added[j])]
            assert quotient(n, added).invariant_factors == base


def test_member_examples():
    z4 = quotient(1, [[4]])
    assert z4.member([6]).coords == (2,)
    z = quotient(1, [])
    assert z.member([-3]).coords == (-3,)
    crt = quotient(2, [[2, 0], [0, 3]])
    assert element_order(crt, crt.member([1, 1])) == 6
    with pytest.raises(ValueError):
        z4.member([1, 2])


def test_element_order_examples():
    z4 = quotient(1, [[4]])
    assert element_order(z4, z4.identity()) == 1
    assert element_order(z4, z4.element((1,))) == 4
    mixed = quotient(2, [[0, 2]])
    assert mixed.invariant_factors == (2, 0)
    free_elt = mixed.member([1, 0])
    assert element_order(mixed, free_elt) is None


def test_subgroup_quotient_examples():
    z2 = quotient(1, [[2]])
    assert subgroup_quotient(z2, [z2.element((1,))]).invariant_factors == ()
    assert subgroup_quotient(z2, [z2.identity()]).invariant_factors == (2,)
    G = quotient(2, [[4, 0], [0, 2]])
    assert sorted(G.invariant_factors) == [2, 4]
    # quotient of Z/4 x Z/2 by the order-2 subgroup <2a + b>
    q = subgroup_quotient(G, [G.member([2, 1])])
    assert q.invariant_factors == (4,)


def test_subgroup_order_product():
    rng = random.Random(99)
    for _ in range(40):
        factors = sorted(rng.choice([2, 2, 3, 4, 6, 8, 12]) for _ in range(rng.randint(1, 3)))
        # force a chain
        chain = []
        for d in factors:
            if chain and d % chain[-1]:
                d *= chain[-1]
            chain.append(d)
        G = AbelianGroup(chain)
        gens = [G.element(tuple(rng.randrange(d) for d in chain))
                for _ in range(rng.randint(1, 2))]
        h = enumerate_subgroup_order(G, gens)
        q = subgroup_quotient(G, gens).cardinality()
        assert h * q == G.cardinality()


def test_bezout_examples():
    assert bezout_gcd([2, 3]) == (1, [-1, 1])
    assert bezout_gcd([2, 2]) == (2, [1, 0])
    assert bezout_gcd([6]) == (6, [1])
    with pytest.raises(ValueError):
        bezout_gcd([0, 0])


def test_bezout_identity_random():
    rng = random.Random(4242)
    for _ in range(1000):
        vals = [rng.randint(-40, 40) for _ in range(rng.randint(1, 5))]
        if all(v == 0 for v in vals):
            vals[0] = 1
        g, lams = bezout_gcd(vals)
        assert g > 0
        assert sum(l * v for l, v in zip(lams, vals)) == g
        assert all(v % g == 0 for v in vals)


def test_bezout_matches_rescaling_fold():
    """Same g and lambdas as the fold that rescales in place, on every list
    of length 1 to 4 with entries in -6..6, not all zero: the lambdas fix
    the classes [Q_i], so they must not change."""
    n = 0
    for length in range(1, 5):
        for values in product(range(-6, 7), repeat=length):
            if any(values):
                assert bezout_gcd(list(values)) == bezout_gcd_by_rescaling(values), values
                n += 1
    assert n == sum(13 ** k for k in range(1, 5)) - 4


def test_solve_combination():
    G = quotient(2, [[4, 0], [0, 6]])
    a = G.member([1, 0])
    b = G.member([0, 2])
    target = G.member([2, 4])
    x = solve_combination(G, [a, b], target)
    assert x is not None
    got = G.identity()
    for c, e in zip(x, [a, b]):
        got = got + c * e
    assert got == target
    # (1, 1) is not in <(2, 0), (0, 2)> inside Z/4 x Z/6
    odd = G.member([1, 1])
    assert solve_combination(G, [2 * a, b], odd) is None


def test_direct_sum_invariants():
    assert direct_sum_invariants([2], [2]) == (2, 2)
    assert direct_sum_invariants([2], [3]) == (6,)
    assert direct_sum_invariants([], []) == ()


def test_direct_sum_invariants_against_quotient():
    """The coprime-base merge against the SNF of the diagonal
    (``quotient``), on random lists with 0 and 1 entries."""
    rng = random.Random(2026)
    for _ in range(400):
        lists = [[rng.choice((0, 1, 1, 2, 3, 4, 6, 8, 9, 12, 30, rng.randint(0, 300)))
                  for _ in range(rng.randint(0, 5))]
                 for _ in range(rng.randint(0, 3))]
        moduli = [d for factors in lists for d in factors]
        n = len(moduli)
        rows = [[d if j == i else 0 for j in range(n)]
                for i, d in enumerate(moduli) if d]
        assert direct_sum_invariants(*lists) == quotient(n, rows).invariant_factors, lists


def test_cyclic_sum_maps_are_inverse():
    """On random moduli, shared prime factors and large coprime ones among
    them: the factors are those of the diagonal's SNF, their product is
    that of the moduli, and the coordinate map (u) sends each summand's
    modulus to 0 and its generators onto the factors, so it is an
    isomorphism of the two forms."""
    rng = random.Random(20)
    for _ in range(300):
        moduli = [rng.choice((2, 3, 4, 6, 8, 9, 12, 36, 1009 * 2, 1009 * 1013,
                              rng.randint(2, 500)))
                  for _ in range(rng.randint(0, 7))]
        factors, slots = cyclic_sum(moduli)
        n = len(moduli)
        rows = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(moduli)]
        assert factors == quotient(n, rows).invariant_factors, moduli
        assert prod(factors) == prod(moduli)
        images = [[0] * len(factors) for _ in moduli]
        for j, (d, slot) in enumerate(zip(factors, slots)):
            for i, u in slot:
                assert u * moduli[i] % d == 0, (moduli, i, j)
                images[i][j] = u
        G = AbelianGroup(factors)
        assert subgroup_quotient(G, [G.element(x) for x in images]).is_trivial(), moduli


def test_basis_change_and_lifts_are_sections():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        G = quotient(n, rows)
        for j in range(G.rank):
            lifted = G.member(G.generator_lifts.row(j))
            expected = tuple(1 if t == j else 0 for t in range(G.rank))
            assert lifted.coords == G.reduce(expected)


def random_chain(rng, k):
    """A random invariant-factor chain of length k."""
    chain = []
    for _ in range(k):
        chain.append((chain[-1] if chain else 1) * rng.choice((2, 2, 3, 4, 6)))
    return chain


def declared_shaped(rng, r, k):
    """Relation rows shaped like the G/R presentation of a declared order
    (chow.chow_group): the moduli of a class group, then one row per
    conductor prime with g_i at the prime (mostly 1, so unit pivots) and
    reduced class coordinates."""
    chain = random_chain(rng, k)
    rows = [[0] * (r + k) for _ in chain]
    for j, d in enumerate(chain):
        rows[j][r + j] = d
    for i in range(r):
        row = [0] * (r + k)
        row[i] = rng.choice((1, 1, 1, 1, 2, 3))
        for j, d in enumerate(chain):
            row[r + j] = -rng.randrange(d)
        rows.append(row)
    return rows


def snf_contract_outputs():
    """Everything callers read from the SNF core, on a seeded corpus: small
    dense matrices (with D, U, V), declared-shaped presentations of up to
    about 120 primes, and wide k x 600 solve_combination systems."""
    rng = random.Random(20261018)
    out = []

    def record(G):
        out.append([G.invariant_factors, G.basis_change.tolists(),
                    G.generator_lifts.tolists()])

    for _ in range(200):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-12, 12) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(m)]
        D, U, V = smith_normal_form(IntMatrix(rows))
        out.append([D.tolists(), U.tolists(), V.tolists()])
        G = quotient(n, rows)
        record(G)
        if G.rank:
            elements = [G.element([rng.randint(-9, 9) for _ in range(G.rank)])
                        for _ in range(rng.randint(0, 5))]
            target = G.element([rng.randint(-9, 9) for _ in range(G.rank)])
            out.append(solve_combination(G, elements, target))
    for r, k in ((20, 3), (60, 6), (118, 2), (120, 5), (121, 6)):
        rows = declared_shaped(rng, r, k)
        record(quotient(r + k, rows))
        if r == 20:
            D, U, V = smith_normal_form(IntMatrix(rows))
            out.append([D.tolists(), U.tolists(), V.tolists()])
    for k in (1, 3, 6):
        G = AbelianGroup(random_chain(rng, k))
        elements = [G.element([rng.randrange(d) for d in G.invariant_factors])
                    for _ in range(600)]
        for scale in (1, 2):
            target = G.element([rng.randrange(d) for d in G.invariant_factors])
            out.append(solve_combination(G, [scale * e for e in elements], target))
    return out


# sha256 of the JSON of snf_contract_outputs(), as computed by the SNF
# implementation that kept every transform matrix in full; the transforms
# must not change
SNF_CONTRACT_DIGEST = "097a47db50efa86e2df67e0c686da9cbe7de89996513e5be76c35beabfc087c5"


def test_snf_outputs_match_pinned_digest():
    data = json.dumps(snf_contract_outputs()).encode()
    assert hashlib.sha256(data).hexdigest() == SNF_CONTRACT_DIGEST


def test_wide_solve_combination_oracle():
    """Either x solves sum(x_i e_i) = target, or None exactly when the target
    is nonzero in G modulo the span of the elements."""
    rng = random.Random(606)
    answers = set()
    for k in (2, 4, 6):
        G = AbelianGroup(random_chain(rng, k))
        for scale in (1, 2, 3):
            elements = [scale * G.element([rng.randrange(d) for d in G.invariant_factors])
                        for _ in range(600)]
            image = subgroup_quotient(G, elements)
            for _ in range(4):
                target = G.element([rng.randrange(d) for d in G.invariant_factors])
                x = solve_combination(G, elements, target)
                outside = not image.member(target.coords).is_identity()
                answers.add(outside)
                if x is None:
                    assert outside
                    continue
                assert not outside and len(x) == len(elements)
                got = G.identity()
                for c, e in zip(x, elements):
                    got = got + c * e
                assert got == target
    assert answers == {False, True}


def _subgroup_cases(rng):
    """Seeded (G, generators): chains with free factors, zero and repeated
    generators, and generating sets of all of G, where the early stop of the
    Hermite reduction fires."""
    for _ in range(400):
        G = AbelianGroup(random_chain(rng, rng.randint(0, 4)) + [0] * rng.randint(0, 2))

        def draw():
            return G.element([rng.randrange(d) if d else rng.randint(-6, 6)
                              for d in G.invariant_factors])

        gens = [draw() for _ in range(rng.randint(0, 6))]
        if gens and rng.random() < 0.3:
            gens.append(rng.choice(gens))
        if rng.random() < 0.3:
            gens.insert(rng.randint(0, len(gens)), G.identity())
        if rng.random() < 0.3:
            units = [G.element([int(t == j) for t in range(G.rank)]) for j in range(G.rank)]
            at = rng.randint(0, len(gens))
            gens[at:at] = rng.sample(units, len(units))
        yield G, gens


def test_subgroup_quotient_against_raw_rows():
    """The Hermite basis against one quotient of every raw row: the same
    invariant factors; basis_change kills each generator and each modulus,
    and generator_lifts sections it."""
    rng = random.Random(2405)
    trivial = 0
    for G, gens in _subgroup_cases(rng):
        Q = subgroup_quotient(G, gens)
        assert Q.invariant_factors == subgroup_quotient_by_raw_rows(G, gens).invariant_factors
        assert Q.user_rank == G.rank
        trivial += Q.is_trivial() and bool(G.rank)
        for g in gens:
            assert Q.member(g.coords).is_identity()
        for j, d in enumerate(G.invariant_factors):
            if d:
                assert Q.member([d if t == j else 0 for t in range(G.rank)]).is_identity()
        for j in range(Q.rank):
            unit = tuple(1 if t == j else 0 for t in range(Q.rank))
            assert Q.member(Q.generator_lifts.row(j)).coords == Q.reduce(unit)
    assert trivial > 50


class _Unread:
    """A stand-in generator that fails when its coordinates are read."""

    def __init__(self, G):
        self.group = G

    @property
    def coords(self):
        raise AssertionError("generator read after the subgroup became all of G")


def _recording(gens, advanced):
    """Iterate over gens, appending each one to ``advanced`` as it is taken."""
    for g in gens:
        advanced.append(g)
        yield g


def test_subgroup_quotient_stops_once_n_is_g():
    """Once N = G the next generator is checked to lie in G and unread, and
    an iterator of generators is not advanced past it."""
    C6 = AbelianGroup([6])
    assert subgroup_quotient(C6, [C6.element([2]), C6.element([3]), _Unread(C6)]).is_trivial()
    G = AbelianGroup([2, 4, 0])
    full = [G.element([0, 0, 1]), G.element([1, 2, 3]), G.element([0, 1, 4])]
    assert subgroup_quotient(G, full + [_Unread(G)] * 3).is_trivial()
    for group, gens in ((C6, [C6.element([2]), C6.element([3])]), (G, full)):
        rest = [_Unread(group)] * 3
        advanced = []
        assert subgroup_quotient(group, _recording(gens + rest, advanced)).is_trivial()
        assert advanced == gens + rest[:1]
    advanced = []
    Q = subgroup_quotient(G, _recording(full[1:], advanced))
    assert Q.describe() == "Z/2" and advanced == full[1:]
    with pytest.raises(ValueError):
        subgroup_quotient(C6, [C6.element([1]), AbelianGroup([6]).identity()])
