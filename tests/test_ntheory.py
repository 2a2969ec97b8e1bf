"""Integer factorization: trial division for small factors, Pollard-Brent beyond."""

from math import prod

import pytest

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
