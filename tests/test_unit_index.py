"""|Pic| of Z + f*O~ against form counts, and the unit index against its definition."""

import time

import pytest

from chowkit.chow import pic_cardinality
from chowkit.ntheory import factorize
from chowkit.orders import order_from_conductor
from chowkit.quadfield import fundamental_unit, make_field, reduced_form_count
from util import fundamental_discriminants, reduced_cycle_count, unit_index_by_powers


def test_imaginary_pic_matches_form_count():
    # |Pic(Z + f*O~)| is the number of classes of primitive forms of
    # discriminant f^2 d (Cox, Primes of the Form x^2 + ny^2, Thm 7.7)
    for d in fundamental_discriminants(200, sign=-1):
        F = make_field(d)
        for f in range(2, 31):
            rep = pic_cardinality(order_from_conductor(F, f))
            assert rep.pic_cardinality == reduced_form_count(f * f * d), (d, f)


def test_real_pic_matches_cycle_count():
    # the cycles count the narrow classes of discriminant f^2 d; the wide
    # group is half as big unless the order's fundamental unit eps^index
    # has norm -1
    for d in fundamental_discriminants(100, sign=1) + [409]:
        F = make_field(d)
        eps_norm = fundamental_unit(F).norm()
        for f in range(2, 21 if d < 409 else 8):
            rep = pic_cardinality(order_from_conductor(F, f))
            narrow = reduced_cycle_count(f * f * d)
            wide = narrow if eps_norm ** rep.unit_index == -1 else narrow // 2
            assert rep.pic_cardinality == wide, (d, f)


@pytest.mark.parametrize("d", [5, 13, 29, 40, 409, 1393, 3305])
def test_unit_index_matches_power_loop(d):
    F = make_field(d)
    for f in range(2, 120):
        rep = pic_cardinality(order_from_conductor(F, f))
        assert rep.unit_index == unit_index_by_powers(F, f), (d, f)


def _eps_order_by_matrix(F, f, k):
    """Whether eps^k lies in Z + f*O~, by powering the matrix of eps mod f.

    Multiplication by eps = u + v*w on the basis (1, w), w^2 = d*w - n, has
    the matrix [[u, -n*v], [v, u + d*v]]; eps^k = M^k (1, 0)^T.
    """
    u, v, _ = fundamental_unit(F).omega_coords()
    d, n = F.d, F.omega_norm
    M = ((u % f, -n * v % f), (v % f, (u + d * v) % f))
    R = ((1, 0), (0, 1))

    def mul(A, B):
        return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(2)) % f
                           for j in range(2)) for i in range(2))

    while k:
        if k & 1:
            R = mul(R, M)
        M = mul(M, M)
        k >>= 1
    return R[1][0] == 0


@pytest.mark.parametrize("f", [10007, 10**9 + 7, 2**61 - 1])
def test_unit_index_reach(f):
    # far beyond the reach of multiplying eps out: the index is checked
    # against its definition, as the exact order of eps modulo Z + f*O~
    F = make_field(409)
    start = time.perf_counter()
    rep = pic_cardinality(order_from_conductor(F, f))
    assert time.perf_counter() - start < 2.0
    idx = rep.unit_index
    assert _eps_order_by_matrix(F, f, idx)
    for q in factorize(idx):
        assert not _eps_order_by_matrix(F, f, idx // q), q
    assert rep.pic_cardinality * idx == rep.cl_cardinality * rep.relative_unit_quotient
