"""Quadratic number fields: maximal orders, splitting, ideals, class groups.

Fixed conventions used throughout:

  * a field is identified by its fundamental discriminant d; the maximal
    order is Z[w] with w = (d + sqrt(d))/2, so w^2 = d*w - (d*d - d)/4;
  * elements are stored as (x + y*sqrt(d)) / (2*den) with x = y*d (mod 2)
    and den > 0, in lowest terms;
  * an integral primitive ideal is a*Z + (b + w)*Z with a > 0, 0 <= b < a
    and a | N(b + w); a fractional ideal carries a positive rational
    content on top of a primitive part;
  * for a split prime p, branch 0 is the place whose normal-form b is the
    smaller representative in [0, p), which keeps conjugate places stable
    across runs.

Class groups are spanned by the prime ideals below the Minkowski bound,
computed entirely on their binary quadratic forms: every product is a
Dirichlet composition of two reduced forms (Cohen, GTM 138, Alg. 5.4.7),
reduced again, so intermediates keep O(log |d|) bits.  Reduced forms are
canonical class keys in the imaginary case; in the real case the key is the
least form of the reduction cycle (the narrow class), and each cycle is
walked once per build.  Real class groups are then taken modulo the class
of sqrt(d)*Z[w], which removes the narrow/wide distinction.  Generator
representatives are primitive ideals of reduced forms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .abgroup import quotient, subgroup_quotient
from .errors import FieldInputError, SearchBoundExceeded
from .ntheory import (
    egcd,
    factorize,
    is_prime,
    legendre,
    primes_below,
    sqrt_mod,
)

MAX_CLASS_DISC = 10**6

_CLASS_CACHE = {}
_UNIT_CACHE = {}
_CACHE_LOCK = threading.Lock()


@dataclass(frozen=True)
class QuadField:
    """Quadratic field of fundamental discriminant d."""

    d: int

    @property
    def is_imaginary(self):
        return self.d < 0

    @property
    def is_real(self):
        return self.d > 0

    @property
    def omega_norm(self):
        return (self.d * self.d - self.d) // 4

    @property
    def radicand(self):
        """Squarefree core m with Q(sqrt(d)) = Q(sqrt(m))."""
        return self.d if self.d % 4 else self.d // 4

    def omega(self):
        return QElement(self, self.d, 1, 1)

    def one(self):
        return QElement(self, 2, 0, 1)

    def sqrt_disc(self):
        return QElement(self, 0, 2, 1)

    def __str__(self):
        return f"Q(sqrt({self.radicand}))"


def make_field(D: int) -> QuadField:
    """Validated field from a fundamental discriminant."""
    D = int(D)
    if D in (0, 1):
        raise FieldInputError(f"degenerate discriminant {D}")
    if D % 4 == 1:
        core = D
    elif D % 4 == 0:
        core = D // 4
        if core % 4 in (0, 1):
            raise FieldInputError(f"{D} is not a fundamental discriminant")
    else:
        raise FieldInputError(f"{D} is not 0 or 1 mod 4")
    if core > 0 and isqrt(core) ** 2 == core:
        raise FieldInputError(f"{D} is a perfect-square discriminant")
    for p, e in factorize(core).items():
        if e > 1:
            raise FieldInputError(f"{D} is not fundamental: {p}^2 divides its core")
    return QuadField(D)


class QElement:
    """Field element (x + y*sqrt(d)) / (2*den), normalized."""

    __slots__ = ("field", "x", "y", "den")

    def __init__(self, field, x, y, den=1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            x, y, den = -x, -y, -den
        if x == 0 and y == 0:
            den = 1
        else:
            t = gcd(gcd(abs(x), abs(y)), den)
            x, y, den = x // t, y // t, den // t
            if (x - y * field.d) % 2:
                x, y, den = 2 * x, 2 * y, 2 * den
        self.field = field
        self.x = x
        self.y = y
        self.den = den

    @classmethod
    def from_int(cls, field, n):
        return cls(field, 2 * n, 0, 1)

    @classmethod
    def from_omega(cls, field, u, v, den=1):
        """Element (u + v*w)/den given in coordinates over (1, w)."""
        return cls(field, 2 * u + v * field.d, v, den)

    def omega_coords(self):
        """(u, v, den) with self = (u + v*w)/den."""
        return ((self.x - self.y * self.field.d) // 2, self.y, self.den)

    def is_zero(self):
        return self.x == 0 and self.y == 0

    def is_integral(self):
        return self.den == 1

    def is_rational(self):
        return self.y == 0

    def conj(self):
        return QElement(self.field, self.x, -self.y, self.den)

    def norm(self) -> Fraction:
        return Fraction(self.x * self.x - self.y * self.y * self.field.d,
                        4 * self.den * self.den)

    def trace(self) -> Fraction:
        return Fraction(self.x, self.den)

    def __add__(self, other):
        self._check(other)
        return QElement(self.field,
                        self.x * other.den + other.x * self.den,
                        self.y * other.den + other.y * self.den,
                        self.den * other.den)

    def __neg__(self):
        return QElement(self.field, -self.x, -self.y, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return QElement(self.field, self.x * other, self.y * other, self.den)
        self._check(other)
        d = self.field.d
        x = (self.x * other.x + self.y * other.y * d) // 2
        y = (self.x * other.y + self.y * other.x) // 2
        return QElement(self.field, x, y, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return QElement(self.field, self.x, self.y, self.den * other)
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero element")
        num = self * other.conj()
        n = other.norm()
        return QElement(self.field,
                        num.x * n.denominator, num.y * n.denominator,
                        num.den * n.numerator)

    def scaled(self, r: Fraction):
        r = Fraction(r)
        return QElement(self.field, self.x * r.numerator, self.y * r.numerator,
                        self.den * r.denominator)

    def _check(self, other):
        if not isinstance(other, QElement) or other.field.d != self.field.d:
            raise TypeError("elements of different fields")

    def __eq__(self, other):
        return (isinstance(other, QElement) and other.field.d == self.field.d
                and (self.x, self.y, self.den) == (other.x, other.y, other.den))

    def __hash__(self):
        return hash((self.field.d, self.x, self.y, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"QElement({self.x}, {self.y}, {self.den}; d={self.field.d})"

    def __str__(self):
        m0 = self.field.radicand
        f0 = 1 if self.field.d % 4 else 2
        a, b, c = self.x, self.y * f0, 2 * self.den
        g = gcd(gcd(abs(a), abs(b)), c)
        if g:
            a, b, c = a // g, b // g, c // g
        if b == 0:
            return f"{a}/{c}" if c != 1 else f"{a}"
        root = f"sqrt({m0})"
        if abs(b) != 1:
            root = f"{abs(b)}*{root}"
        if a == 0:
            num = root if b > 0 else f"-{root}"
        else:
            num = f"{a} + {root}" if b > 0 else f"{a} - {root}"
        if c == 1:
            return num
        return f"({num})/{c}"


@dataclass(frozen=True)
class PrimePlace:
    """Maximal ideal of the maximal order lying over a rational prime."""

    field: QuadField
    p: int
    kind: str  # 'split' | 'inert' | 'ramified'
    branch: int
    degree: int
    e: int
    b: int
    unique: bool

    @property
    def label(self):
        return f"{self.p}" if self.unique else f"{self.p}.{self.branch}"

    def ideal(self):
        return prime_to_ideal(self.field, self)

    def __str__(self):
        return self.label


def splitting(field: QuadField, p: int):
    """The places over p, deterministically labeled."""
    p = int(p)
    if not is_prime(p):
        raise FieldInputError(f"{p} is not prime")
    return _splitting(field, p)


def _splitting(field: QuadField, p: int):
    """``splitting`` for an int p already known to be prime (a sieve's)."""
    d = field.d
    if p == 2:
        if d % 2:
            if d % 8 == 1:
                return (
                    PrimePlace(field, 2, "split", 0, 1, 1, 0, False),
                    PrimePlace(field, 2, "split", 1, 1, 1, 1, False),
                )
            return (PrimePlace(field, 2, "inert", 0, 2, 1, 0, True),)
        b = 0 if (d // 4) % 2 == 0 else 1
        return (PrimePlace(field, 2, "ramified", 0, 1, 2, b, True),)
    if d % p == 0:
        return (PrimePlace(field, p, "ramified", 0, 1, 2, 0, True),)
    if legendre(d, p) == -1:
        return (PrimePlace(field, p, "inert", 0, 2, 1, 0, True),)
    r = sqrt_mod(d, p)
    inv2 = pow(2, -1, p)
    roots = ((d + r) * inv2 % p, (d - r) * inv2 % p)
    bs = sorted((-beta) % p for beta in roots)
    return (
        PrimePlace(field, p, "split", 0, 1, 1, bs[0], False),
        PrimePlace(field, p, "split", 1, 1, 1, bs[1], False),
    )


class QIdeal:
    """Fractional ideal content * (a*Z + (b + w)*Z) in normal form."""

    __slots__ = ("field", "a", "b", "content")

    def __init__(self, field, a, b, content=Fraction(1)):
        a = int(a)
        if a <= 0:
            raise ValueError("leading coefficient must be positive")
        b = int(b) % a
        nb = b * b + b * field.d + field.omega_norm
        if nb % a:
            raise ValueError(f"({a}, {b}) is not an ideal lattice: a does not divide N(b+w)")
        content = Fraction(content)
        if content <= 0:
            raise ValueError("content must be positive")
        self.field = field
        self.a = a
        self.b = b
        self.content = content

    @classmethod
    def unit_ideal(cls, field):
        return cls(field, 1, 0)

    @classmethod
    def from_lattice(cls, field, rows, denom=1):
        """Ideal from generating (u, v) coordinate rows over (1, w), scaled by 1/denom."""
        g = 0
        m = 0
        for u, v in rows:
            if v == 0:
                continue
            if g == 0:
                g, m = abs(v), u if v > 0 else -u
                continue
            g2, s, t = egcd(g, v)
            m = s * m + t * u
            g = g2
        if g == 0:
            raise ValueError("lattice has rank < 2")
        n = 0
        for u, v in rows:
            n = gcd(n, u - (v // g) * m)
        if n == 0:
            raise ValueError("lattice has rank < 2")
        if m % g or n % g:
            raise ValueError("lattice is not an ideal")
        return cls(field, n // g, (m // g) % (n // g), Fraction(g, denom))

    def norm(self) -> Fraction:
        return self.a * self.content * self.content

    def is_integral(self):
        return self.content.denominator == 1

    def primitive(self):
        return QIdeal(self.field, self.a, self.b)

    def conj(self):
        return QIdeal(self.field, self.a, (-self.b - self.field.d) % self.a, self.content)

    def inverse(self):
        prim = self.conj()
        return QIdeal(self.field, prim.a, prim.b, 1 / (self.content * self.a))

    def __mul__(self, other):
        if not isinstance(other, QIdeal) or other.field.d != self.field.d:
            raise TypeError("ideals of different fields")
        d = self.field.d
        nw = self.field.omega_norm
        a1, b1 = self.a, self.b
        a2, b2 = other.a, other.b
        rows = (
            (a1 * a2, 0),
            (a1 * b2, a1),
            (a2 * b1, a2),
            (b1 * b2 - nw, b1 + b2 + d),
        )
        out = QIdeal.from_lattice(self.field, rows)
        return QIdeal(self.field, out.a, out.b, out.content * self.content * other.content)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        out = QIdeal.unit_ideal(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def contains(self, elt: QElement) -> bool:
        if elt.field.d != self.field.d:
            raise TypeError("element of a different field")
        if elt.is_zero():
            return True
        u, v, den = elt.omega_coords()
        q = den * self.content  # elt in c*L0  <=>  (u + v*w) in (den*c)*L0
        qn, qd = q.numerator, q.denominator
        if (qd * v) % qn:
            return False
        t = qd * v // qn
        return (qd * u - t * qn * self.b) % (qn * self.a) == 0

    def form(self):
        """Binary quadratic form of the primitive part, discriminant d."""
        d = self.field.d
        nb = self.b * self.b + self.b * d + self.field.omega_norm
        return (self.a, 2 * self.b + d, nb // self.a)

    def __eq__(self, other):
        return (isinstance(other, QIdeal) and other.field.d == self.field.d
                and (self.a, self.b, self.content) == (other.a, other.b, other.content))

    def __hash__(self):
        return hash((self.field.d, self.a, self.b, self.content))

    def __repr__(self):
        return f"QIdeal({self.a}, {self.b}, content={self.content}; d={self.field.d})"


def principal_ideal(alpha: QElement) -> QIdeal:
    """The fractional ideal alpha * Z[w]."""
    if alpha.is_zero():
        raise ValueError("zero element has no ideal")
    field = alpha.field
    beta = alpha * field.omega()
    u1, v1, den1 = alpha.omega_coords()
    u2, v2, den2 = beta.omega_coords()
    lcm = den1 * den2 // gcd(den1, den2)
    rows = (
        (u1 * (lcm // den1), v1 * (lcm // den1)),
        (u2 * (lcm // den2), v2 * (lcm // den2)),
    )
    return QIdeal.from_lattice(field, rows, denom=lcm)


def prime_to_ideal(field: QuadField, place: PrimePlace) -> QIdeal:
    """Two-generator ideal of a place."""
    if place.kind == "inert":
        return QIdeal(field, 1, 0, Fraction(place.p))
    return QIdeal(field, place.p, place.b)


def ideal_mul(field: QuadField, I: QIdeal, J: QIdeal) -> QIdeal:
    return I * J


def ideal_norm(field: QuadField, I: QIdeal) -> Fraction:
    return I.norm()


def ord_at(field: QuadField, place: PrimePlace, a: QElement) -> int:
    """Exponent of the place in the factorization of a*Z[w]."""
    if a.is_zero():
        raise ValueError("ord of zero is undefined")
    num = QElement(field, a.x, a.y, 1)
    P = prime_to_ideal(field, place)
    k = 0
    power = P
    while power.contains(num):
        k += 1
        power = power * P
    vp = 0
    den = a.den
    while den % place.p == 0:
        vp += 1
        den //= place.p
    return k - vp * (2 if place.kind == "ramified" else 1)


def element_divisor(field: QuadField, a: QElement) -> dict:
    """Divisor of a over the maximal order, as {place label: ord}."""
    if a.is_zero():
        raise ValueError("zero element has no divisor")
    num_norm = (a.x * a.x - a.y * a.y * field.d) // 4
    support = set(factorize(num_norm)) | set(factorize(a.den))
    out = {}
    for p in sorted(support):
        for place in splitting(field, p):
            o = ord_at(field, place, a)
            if o:
                out[place.label] = o
    return out


# --- binary quadratic form machinery ---------------------------------------


def _reduce_imag(form):
    a, b, c = form
    r = (a - b) // (2 * a)
    b, c = b + 2 * r * a, a * r * r + b * r + c
    while not (-a < b <= a <= c and (a != c or b >= 0)):
        s = (c + b) // (2 * c)
        a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
    return (a, b, c)


def _is_reduced_real(d, sd, form):
    a, b, c = form
    if b < 1 or b > sd:
        return False
    aa = 2 * abs(a)
    if (aa + b) * (aa + b) <= d:
        return False
    return aa <= b or (aa - b) * (aa - b) < d


def _rho_real(d, sd, form):
    a, b, c = form
    ca = abs(c)
    if ca > sd:
        r = (-b) % (2 * ca)
        if r > ca:
            r -= 2 * ca
    else:
        r = sd - ((sd + b) % (2 * ca))
    return (c, r, (r * r - d) // (4 * c))


def _reduce_real(d, sd, form):
    guard = 0
    while not _is_reduced_real(d, sd, form):
        form = _rho_real(d, sd, form)
        guard += 1
        if guard > 100000:
            raise RuntimeError(f"form reduction failed to terminate: {form}")
    return form


def _reduced(d, sd, form):
    """Reduced form with a > 0 in the class of form.

    For d < 0 this is the unique reduced form; for d > 0 a form on the
    class's reduction cycle (reduced forms there have a*c < 0, so one rho
    step turns a < 0 into a > 0).
    """
    if d < 0:
        return _reduce_imag(form)
    form = _reduce_real(d, sd, form)
    return _rho_real(d, sd, form) if form[0] < 0 else form


def _compose(f1, f2, d):
    """Dirichlet composition of primitive forms of discriminant d with a > 0.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 5.4.7;
    the result lies in the product class and is not reduced.
    """
    (a1, b1, _), (a2, b2, c2) = sorted((f1, f2))
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, g = 0, a1
    else:
        g, y1, _ = egcd(a2, a1)
    if s % g == 0:
        x2, y2, g1 = 0, -1, g
    else:
        g1, x2, y2 = egcd(s, g)
        y2 = -y2
    v1, v2 = a1 // g1, a2 // g1
    r = (y1 * y2 * n - x2 * c2) % v1
    a3 = v1 * v2
    b3 = b2 + 2 * v2 * r
    return (a3, b3, (b3 * b3 - d) // (4 * a3))


def _unit_form(d, sd):
    return _reduced(d, sd, (1, d, (d * d - d) // 4))


def _form_pow(d, sd, form, e):
    """Reduced form**e (a > 0), by square-and-multiply on reduced forms."""
    if e < 0:
        a, b, c = form
        form, e = (a, -b, c), -e
    out = _unit_form(d, sd)
    while e:
        if e & 1:
            out = _reduced(d, sd, _compose(out, form, d))
        e >>= 1
        if e:
            form = _reduced(d, sd, _compose(form, form, d))
    return out


def _class_key(d, sd, form, memo=None):
    """Canonical key of the class of a primitive form of discriminant d.

    d < 0: the reduced form.  d > 0: the least form of the reduction cycle,
    which identifies the narrow class.  A memo dict, when given, maps every
    form of each cycle walked so far to its key, so that a cycle is walked
    once per memo.
    """
    if d < 0:
        return _reduce_imag(form)
    start = _reduce_real(d, sd, form)
    if memo is not None and start in memo:
        return memo[start]
    cycle = [start]
    f = _rho_real(d, sd, start)
    while f != start:
        cycle.append(f)
        if len(cycle) > 100001:
            raise RuntimeError("runaway reduction cycle")
        f = _rho_real(d, sd, f)
    best = min(cycle)
    if memo is not None:
        memo.update(dict.fromkeys(cycle, best))
    return best


def reduced_form_count(d: int) -> int:
    """Number of reduced primitive forms of imaginary discriminant d.

    Independent class-number oracle: counts (a, b, c) with b*b - 4*a*c = d,
    |b| <= a <= c, gcd(a, b, c) = 1 and the boundary conventions b >= 0 when
    |b| = a or a = c.
    """
    if d >= 0:
        raise ValueError("imaginary discriminant required")
    count = 0
    b = d & 1
    while b * b <= -d // 3:
        q = (b * b - d) // 4
        a = max(b, 1)
        while a * a <= q:
            if q % a == 0:
                c = q // a
                if gcd(gcd(a, b), c) == 1:
                    count += 1 if (b == 0 or a == b or a == c) else 2
            a += 1
        b += 2
    return count


# --- class group -------------------------------------------------------------


class ClassGroupData:
    """Ideal class group with per-generator ideal representatives."""

    def __init__(self, field, group, representatives, narrow, table, wide):
        self.field = field
        self.group = group
        self.representatives = representatives
        self._narrow = narrow
        self._table = table
        self._wide = wide

    @property
    def invariant_factors(self):
        return self.group.invariant_factors

    def cardinality(self):
        return self.group.cardinality()

    def dlog(self, ideal: QIdeal):
        """Class of a fractional ideal as a GroupElement of self.group."""
        if ideal.field.d != self.field.d:
            raise TypeError("ideal of a different field")
        d = self.field.d
        key = _class_key(d, isqrt(d) if d > 0 else 0, ideal.form())
        elt = self._narrow.member(self._table[key])
        if self._wide is None:
            return elt
        return self.group.member(elt.coords)


def _span_classes(d, sd, candidates, memo):
    """BFS span of the classes of candidate forms.

    Returns (table, gens, relation rows): table maps each class key to its
    coordinates over gens, the reduced candidates that enlarged the span.
    Every product is a composition of two reduced forms, reduced again.
    """
    one = _unit_form(d, sd)
    k1 = _class_key(d, sd, one, memo)
    table = {k1: ()}
    reps = {k1: one}
    gens = []
    rels = []
    for form in candidates:
        cand = _reduced(d, sd, form)
        if _class_key(d, sd, cand, memo) in table:
            continue
        idx = len(gens)
        chain = []
        power = cand
        while _class_key(d, sd, power, memo) not in table:
            chain.append(power)
            power = _reduced(d, sd, _compose(power, cand, d))
        r = len(chain) + 1
        base = table[_class_key(d, sd, power, memo)]
        new_entries = {}
        for k_old, coords in table.items():
            rep_old = reps[k_old]
            for t in range(1, r):
                prod = _reduced(d, sd, _compose(rep_old, chain[t - 1], d))
                kk = _class_key(d, sd, prod, memo)
                new_entries[kk] = tuple(coords) + (0,) * (idx - len(coords)) + (t,)
                reps[kk] = prod
        table.update(new_entries)
        gens.append(cand)
        rels.append((idx, r, base))
    n = len(gens)
    rows = []
    for idx, r, base in rels:
        row = [0] * n
        row[idx] = r
        for j, v in enumerate(base):
            row[j] -= v
        rows.append(row)
    table = {k: tuple(v) + (0,) * (n - len(v)) for k, v in table.items()}
    return table, gens, rows


def class_group(field: QuadField, max_disc: int = MAX_CLASS_DISC) -> ClassGroupData:
    """Class group of the maximal order, memoized per field."""
    d = field.d
    if abs(d) > max_disc:
        raise FieldInputError(f"|discriminant| {abs(d)} exceeds the bound {max_disc}")
    with _CACHE_LOCK:
        cached = _CLASS_CACHE.get(d)
    if cached is not None:
        return cached

    if d < 0:
        bound = isqrt(4 * (-d) // 9) + 1  # >= Minkowski (2/pi)*sqrt(|d|)
        sd = 0
    else:
        bound = isqrt(d) // 2 + 1
        sd = isqrt(d)
    candidates = []
    for p in primes_below(bound + 1):
        places = _splitting(field, p)
        if places[0].kind == "inert":
            continue
        candidates.append(places[0].ideal().form())
    if d > 0:
        sqrt_d_form = principal_ideal(field.sqrt_disc()).form()
        candidates.append(sqrt_d_form)

    memo = {}  # for this build only: cached with the group, it would hold every form
    table, gens, rows = _span_classes(d, sd, candidates, memo)
    narrow = quotient(len(gens), rows)

    wide = None
    group = narrow
    lift_total = narrow.generator_lifts
    if d > 0:
        t_elt = narrow.member(table[_class_key(d, sd, sqrt_d_form, memo)])
        wide = subgroup_quotient(narrow, [t_elt])
        group = wide
        lift_total = wide.generator_lifts @ narrow.generator_lifts

    reps = []
    for j in range(group.rank):
        acc = _unit_form(d, sd)
        for gen, e in zip(gens, lift_total.row(j)):
            if e:
                acc = _reduced(d, sd, _compose(acc, _form_pow(d, sd, gen, e), d))
        a, b, _ = acc
        reps.append(QIdeal(field, a, (b - d) // 2))

    data = ClassGroupData(field, group, tuple(reps), narrow, table, wide)
    with _CACHE_LOCK:
        _CLASS_CACHE.setdefault(d, data)
    return data


def ideal_class(field: QuadField, I: QIdeal):
    """Coordinates of [I] in the class group."""
    return class_group(field).dlog(I)


def fundamental_unit(field: QuadField) -> QElement:
    """Fundamental unit eps > 1 of a real field, via continued fractions."""
    if not field.is_real:
        raise FieldInputError("fundamental unit requires a real field")
    d = field.d
    with _CACHE_LOCK:
        cached = _UNIT_CACHE.get(d)
    if cached is not None:
        return cached
    sd = isqrt(d)
    if d % 4 == 0:
        m = d // 4
        a0 = isqrt(m)
        p_prev, p_cur = 1, a0
        q_prev, q_cur = 0, 1
        P, Q = a0, m - a0 * a0
        while True:
            a = (a0 + P) // Q
            if a == 2 * a0:
                break
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev
            P = a * Q - P
            Q = (m - P * P) // Q
        eps = QElement(field, 2 * p_cur, q_cur, 1)
    else:
        u = sd if sd % 2 else sd - 1
        P0, Q0 = u, 2
        p_prev, p_cur = 0, 1
        q_prev, q_cur = 1, 0
        P, Q = P0, Q0
        while True:
            a = (P + sd) // Q
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev
            P = a * Q - P
            Q = (d - P * P) // Q
            if (P, Q) == (P0, Q0):
                break
        eps = QElement(field, q_cur * u + 2 * q_prev, q_cur, 1)
    if abs(eps.norm()) != 1:
        raise RuntimeError(f"continued fraction produced a non-unit for d={d}")
    with _CACHE_LOCK:
        _UNIT_CACHE.setdefault(d, eps)
    return eps


def torsion_units(field: QuadField):
    """Units of finite order in the maximal order (without the real eps)."""
    one = field.one()
    units = [one, -one]
    if field.d == -4:
        i = QElement(field, 0, 1, 1)
        units += [i, -i]
    elif field.d == -3:
        z = QElement(field, 1, 1, 1)  # primitive sixth root of unity
        units += [z, -z, z * z, -(z * z)]
    return units


def unit_group_order(field: QuadField) -> int:
    """Order of the torsion unit group of the maximal order."""
    if field.d == -3:
        return 6
    if field.d == -4:
        return 4
    return 2


def is_principal(field: QuadField, I: QIdeal, max_steps=None):
    """Generator of I when principal, else None.

    Imaginary case: enumerates lattice points of norm equal to the ideal
    norm, which exist exactly when the ideal is principal.  Real case: a
    generator, if any, can be scaled by unit powers into an explicit box
    derived from the fundamental unit, so the search is also complete.
    Raises SearchBoundExceeded only when max_steps cuts the search short.
    """
    prim = I.primitive()
    a = prim.a
    d = field.d
    steps = 0

    def found(x, y):
        if x < 0 or (x == 0 and y < 0):
            x, y = -x, -y
        return QElement(field, x, y, 1).scaled(I.content)

    if d < 0:
        tmax = isqrt(4 * a // (-d))
        for t in range(tmax + 1):
            steps += 1
            if max_steps is not None and steps > max_steps:
                raise SearchBoundExceeded("principal-ideal search budget exhausted")
            rhs = 4 * a + t * t * d
            x = isqrt(rhs)
            if x * x != rhs:
                continue
            for cx in {x, -x}:
                z = QElement(field, cx, t, 1)
                if (cx - t * d) % 2 == 0 and prim.contains(z):
                    return found(cx, t)
        return None

    eps = fundamental_unit(field)
    sd = isqrt(d)
    ub = (eps.x + eps.y * (sd + 1)) // 2 + 2  # integer bound on eps + 1
    ymax = isqrt(ub * ub * a // d) + 1
    for t in range(ymax + 1):
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise SearchBoundExceeded("principal-ideal search budget exhausted")
        for rhs in (t * t * d + 4 * a, t * t * d - 4 * a):
            if rhs < 0:
                continue
            x = isqrt(rhs)
            if x * x != rhs:
                continue
            for cx in {x, -x}:
                z = QElement(field, cx, t, 1)
                if (cx - t * d) % 2 == 0 and not z.is_zero() and prim.contains(z):
                    if abs(z.norm()) == a:
                        return found(cx, t)
    return None


def residue_unit_cardinality(field: QuadField, f: int) -> int:
    """Order of (Z[w] / f*Z[w])^*, multiplicative over prime powers."""
    f = int(f)
    if f < 1:
        raise ValueError("positive conductor required")
    out = 1
    for p, k in factorize(f).items():
        kind = splitting(field, p)[0].kind
        if kind == "split":
            out *= (p ** (k - 1) * (p - 1)) ** 2
        elif kind == "inert":
            out *= p ** (2 * (k - 1)) * (p * p - 1)
        else:
            out *= p ** (2 * k - 1) * (p - 1)
    return out
