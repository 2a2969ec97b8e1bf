"""Exact linear algebra and abelian-group constructions."""

import hashlib
import json
import random
from itertools import combinations
from math import gcd, prod

import pytest

from chowkit.abgroup import (
    AbelianGroup,
    IntMatrix,
    bezout_gcd,
    direct_sum_invariants,
    element_order,
    quotient,
    smith_normal_form,
    solve_combination,
    subgroup_quotient,
)
from util import enumerate_subgroup_order


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
