"""Elementary exact number theory at desk scale.

``factorize`` divides out 2, 3 and the 6k +- 1 wheel below ``_TRIAL_LIMIT``,
which factors every integer below ``_TRIAL_LIMIT**2`` (2**24) completely,
with no other work: conductors, discriminant cores and small norms stay on
this path.  A larger cofactor is either prime, by ``is_prime``, or split
by Pollard's rho with Brent's cycle search (R. P. Brent, BIT 20 (1980)
176-184), whose cost grows like the square root of the least prime factor
left.  So a prime near 2**61, a 60-bit discriminant core or the product of
two 30-bit primes factors in milliseconds, while a product of two primes
above 2**50 (some 2**25 rho steps) is out of reach.

``is_prime`` is exact below psi_13 = 3317044064679887385961981 (about
3.3*10^24, 82 bits): Miller-Rabin to the 13 prime bases 2, ..., 41 has no
strong pseudoprime there (Sorenson and Webster, Math. Comp. 86 (2017)
985-1003).  From psi_13 up it adds a strong Lucas test with Selfridge's
parameters, which with the base-2 test is the Baillie-PSW test (Baillie and
Wagstaff, Math. Comp. 35 (1980) 1391-1417): no composite is known to pass
it, but none is proven not to exist.
"""

from itertools import count
from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_t, the least strong pseudoprime to each of the first t bases (Jaeschke
# 1993; Jiang and Deng 2014; Sorenson and Webster 2017): an n below psi_t
# that passes them is prime
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)
_TRIAL_LIMIT = 1 << 12
_RHO_BATCH = 64              # rho steps per gcd


def is_prime(n: int) -> bool:
    """Primality, proven below psi_13 (about 3.3*10^24): Miller-Rabin to the
    prime bases up to 41, as many as n needs.  From psi_13 up, all 13 bases
    and a strong Lucas test, so the Baillie-PSW test and more: no known
    composite passes it, but none is proven not to exist."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    for a, psi in zip(_MR_BASES, _PSI):
        if not _strong_probable_prime(n, a):
            return False
        if n < psi:
            return True
    return _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a for an odd n > a."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for an odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for an odd n with no prime factor up to 41.

    Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with
    (D|n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = d * 2^s, d odd, n
    passes when U_d = 0 or V_(d * 2^r) = 0 for some 0 <= r < s, mod n.  No
    such D exists for a square, which is composite.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(|D|, n) > 1, and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q^1, with P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def factorize(n: int) -> dict:
    """Prime factorization of |n| as {p: e}, primes in ascending order."""
    n = abs(n)
    if n <= 1:
        return {}
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n and p < _TRIAL_LIMIT:  # the 6k +- 1 wheel: p and p + 2
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        q = p + 2
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        p += 6
    if p * p > n:
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out
    # n has no prime factor below p > _TRIAL_LIMIT
    rest = [n]
    while rest:
        m = rest.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            g = _rho_brent(m)
            rest += (g, m // g)
    return dict(sorted(out.items()))


def _rho_brent(n: int) -> int:
    """A proper factor of an odd composite n: Pollard rho, Brent's variant.

    Iterates y -> y^2 + c mod n from y = 2, comparing y with the value x it
    had at the last power of two; the differences are multiplied together
    and one gcd is taken per ``_RHO_BATCH`` steps.  A batch that overshoots
    to the gcd n is replayed one step at a time; a cycle with no proper
    factor moves on to the next c.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def primes_below(limit: int) -> list:
    """All primes < limit, by sieve."""
    if limit <= 2:
        return []
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, limit, p))
    return [i for i in range(limit) if sieve[i]]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int):
    """Square root of a modulo an odd prime p (Tonelli-Shanks).

    Returns the smaller of the two roots, or None if a is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def egcd(a: int, b: int):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t

