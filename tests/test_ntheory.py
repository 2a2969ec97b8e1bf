"""Integer factorization: trial division for small factors, Pollard-Brent beyond."""

from math import prod

import pytest

from chowkit import ntheory
from chowkit.ntheory import factorize, is_prime


def _trial_factorize(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _check(n, f):
    assert prod(p ** e for p, e in f.items()) == abs(n)
    assert all(is_prime(p) for p in f)
    assert list(f) == sorted(f)


def test_small_inputs_match_trial_division():
    assert factorize(0) == factorize(1) == factorize(-1) == {}
    for n in range(2, 10**5):
        f = factorize(n)
        assert f == _trial_factorize(n) and list(f) == sorted(f), n
    assert factorize(-360) == {2: 3, 3: 2, 5: 1}


@pytest.mark.parametrize("n,expected", [
    (2**61 - 1, {2**61 - 1: 1}),
    (10**18 + 3, {10**18 + 3: 1}),
    # semiprimes of two ~30-bit primes, and of two 32-bit primes
    (1073741789 * 1073741827, {1073741789: 1, 1073741827: 1}),
    (998244353 * 1000000007, {998244353: 1, 1000000007: 1}),
    (4294967279 * 4294967291, {4294967279: 1, 4294967291: 1}),
    # prime powers, with and without a small cofactor
    (4099**2, {4099: 2}),
    (2**7 * 4099**3 * 4111, {2: 7, 4099: 3, 4111: 1}),
    (8191**5, {8191: 5}),
    ((2**31 - 1)**2, {2**31 - 1: 2}),
    # Carmichael numbers; the last is 4261 * 8521 * 12781, all above the trial limit
    (561, {3: 1, 11: 1, 17: 1}),
    (1729, {7: 1, 13: 1, 19: 1}),
    (3215031751, {151: 1, 751: 1, 28351: 1}),
    (464052305161, {4261: 1, 8521: 1, 12781: 1}),
    (2**64 + 1, {274177: 1, 67280421310721: 1}),
])
def test_large_inputs(n, expected):
    f = factorize(n)
    _check(n, f)
    assert f == expected
    assert factorize(-n) == f


# psi_9, psi_12 and psi_13, the least strong pseudoprimes to the first 9, 12
# and 13 prime bases, with their factors
PSI_FACTORS = {
    3825123056546413051: {149491: 1, 747451: 1, 34233211: 1},
    318665857834031151167461: {399165290221: 1, 798330580441: 1},
    3317044064679887385961981: {1287836182261: 1, 2575672364521: 1},
}


@pytest.mark.parametrize("psi", sorted(PSI_FACTORS))
def test_strong_pseudoprimes_are_composite(psi):
    assert not is_prime(psi)
    f = factorize(psi)
    assert f == PSI_FACTORS[psi]
    _check(psi, f)


@pytest.mark.parametrize("below, above", [
    (318665857834031151167441, 318665857834031151167483),
    (3317044064679887385961813, 3317044064679887385962123),
])
def test_primes_next_to_psi_12_and_psi_13(below, above):
    assert [n for n in range(below, above + 1) if is_prime(n)] == [below, above]


def test_psi_table_is_composite_and_passes_its_bases():
    for t, psi in enumerate(ntheory._PSI, 1):
        assert (PSI_FACTORS.get(psi) or factorize(psi)) != {psi: 1}, t
        assert all(ntheory._strong_probable_prime(psi, a) for a in ntheory._MR_BASES[:t]), t


def test_is_prime_matches_trial_division():
    # below 2**24 factorize is trial division alone, with no primality test
    for n in range(-5, 10**5):
        assert is_prime(n) == (factorize(n) == {n: 1}), n


def test_strong_lucas_test():
    # the strong Lucas pseudoprimes below 30000 (OEIS A217255) pass it, and
    # so does every prime; every other odd n with no factor up to 41 fails
    pseudoprimes = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199}
    for n in range(43, 30000, 2):
        if any(n % p == 0 for p in ntheory._MR_BASES):
            continue
        expected = n in pseudoprimes or factorize(n) == {n: 1}
        assert ntheory._strong_lucas_probable_prime(n) == expected, n


@pytest.mark.parametrize("n, prime", [
    (2**83 - 1, False),              # 167 * 57912614113275649087721
    (2**89 - 1, True),               # Mersenne primes above psi_13
    (2**107 - 1, True),
    (2**127 - 1, True),
    ((2**61 - 1) * (2**31 - 1), False),
    ((2**89 - 1) ** 2, False),       # a square: no Selfridge parameter
    (3317044064679887385961981 * 1000003, False),
])
def test_primality_above_psi_13(n, prime):
    assert n >= ntheory._PSI[-1]
    assert is_prime(n) == prime
