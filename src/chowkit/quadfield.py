"""Quadratic number fields: maximal orders, splitting, ideals, class groups.

Fixed conventions used throughout:

  * a field is identified by its fundamental discriminant d; the maximal
    order is Z[w] with w = (d + sqrt(d))/2, so w^2 = d*w - (d*d - d)/4;
  * elements are stored as (x + y*sqrt(d)) / (2*den) with x = y*d (mod 2)
    and den > 0, in lowest terms;
  * an integral primitive ideal is a*Z + (b + w)*Z with a > 0, 0 <= b < a
    and a | N(b + w); a fractional ideal carries a positive rational
    content on top of a primitive part, an int when it is integral and a
    Fraction otherwise;
  * for a split prime p, branch 0 is the place whose normal-form b is the
    smaller representative in [0, p), which keeps conjugate places stable
    across runs.

Class groups are spanned by the prime ideals below the Minkowski bound
(``class_prime_bound``), computed entirely on their binary quadratic forms:
each class is keyed by one reduced form with a > 0, which is also the form
composed: every product is a Dirichlet composition of two keys (Cohen, GTM
138, Alg. 5.4.7), keyed once, so intermediates keep O(log |d|) bits.  In
the imaginary case the key is the reduced form; in the real case it is the
least form with a > 0 on the reduction cycle (the narrow class), and each
cycle is walked once per build.  Real class groups are then taken modulo the class
of sqrt(d)*Z[w], which removes the narrow/wide distinction; both quotients'
transforms are composed once, so every class group is presented on the
span's generators and ``dlog`` maps a class in one step.

The same composition, unreduced, is the ideal product: the primitive parts
of two ideals multiply to gcd(a1, a2, (b1 + b2)/2) times the ideal of the
composed form.  A principal ideal alpha*Z[w] is read off alpha's norm and
coordinates, so one algorithm serves class groups, products and principal
ideals.  The divisor of alpha is read off that ideal's normal form.

Principal generators come from the same reduction, run on the form of an
ideal while it carries the relative generator of each step (Buchmann &
Vollmer, Binary Quadratic Forms; Cohen, GTM 138, Sec. 5.4 and 5.8): the
ideal is principal exactly when the walk reaches Z[w], in O(log N) steps
plus, for d > 0, one reduction cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .abgroup import AbelianGroup, quotient
from .errors import FieldInputError, SearchBoundExceeded
from .ntheory import (
    egcd,
    factorize,
    is_prime,
    primes_below,
    sqrt_mod,
)

MAX_CLASS_DISC = 10**6

_CLASS_CACHE = {}
_UNIT_CACHE = {}


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

    def is_rational(self):
        return self.y == 0

    def conj(self):
        return QElement(self.field, self.x, -self.y, self.den)

    def norm(self) -> Fraction:
        return Fraction(self.x * self.x - self.y * self.y * self.field.d,
                        4 * self.den * self.den)

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

    def scaled(self, r: int | Fraction):
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
    label: str  # 'p' when p has one place, else 'p.branch'

    def ideal(self):
        """The place as a QIdeal: p*Z[w] when inert, else p*Z + (b + w)*Z."""
        if self.kind == "inert":
            return QIdeal(self.field, 1, 0, self.p)
        return QIdeal(self.field, self.p, self.b)

    def __str__(self):
        return self.label


def splitting(field: QuadField, p: int):
    """The places over p, deterministically labeled."""
    p = int(p)
    if not is_prime(p):
        raise FieldInputError(f"{p} is not prime")
    return _splitting(field, p)


def _splitting(field: QuadField, p: int):
    """``splitting`` for an int p known to be prime (from a sieve or factorize)."""
    d = field.d
    if p == 2:
        if d % 2:
            if d % 8 == 1:
                return (
                    PrimePlace(field, 2, "split", 0, 1, 1, 0, "2.0"),
                    PrimePlace(field, 2, "split", 1, 1, 1, 1, "2.1"),
                )
            return (PrimePlace(field, 2, "inert", 0, 2, 1, 0, "2"),)
        b = 0 if (d // 4) % 2 == 0 else 1
        return (PrimePlace(field, 2, "ramified", 0, 1, 2, b, "2"),)
    if d % p == 0:
        return (PrimePlace(field, p, "ramified", 0, 1, 2, 0, str(p)),)
    r = sqrt_mod(d, p)
    if r is None:
        return (PrimePlace(field, p, "inert", 0, 2, 1, 0, str(p)),)
    inv2 = pow(2, -1, p)
    roots = ((d + r) * inv2 % p, (d - r) * inv2 % p)
    bs = sorted((-beta) % p for beta in roots)
    return (
        PrimePlace(field, p, "split", 0, 1, 1, bs[0], f"{p}.0"),
        PrimePlace(field, p, "split", 1, 1, 1, bs[1], f"{p}.1"),
    )


def _content(c):
    """A positive rational content as stored: an int when it is integral,
    else the Fraction, so products of integral ideals make no Fraction."""
    return c.numerator if c.denominator == 1 else c


class QIdeal:
    """Fractional ideal content * (a*Z + (b + w)*Z) in normal form."""

    __slots__ = ("field", "a", "b", "content")

    def __init__(self, field, a, b, content=1):
        a = int(a)
        if a <= 0:
            raise ValueError("leading coefficient must be positive")
        b = int(b) % a
        nb = b * b + b * field.d + field.omega_norm
        if nb % a:
            raise ValueError(f"({a}, {b}) is not an ideal lattice: a does not divide N(b+w)")
        if type(content) is not int:
            content = _content(Fraction(content))
        if content <= 0:
            raise ValueError("content must be positive")
        self.field = field
        self.a = a
        self.b = b
        self.content = content

    @classmethod
    def _normal(cls, field, a, b, content):
        """An ideal from parts already in normal form (0 <= b < a, a divides
        N(b + w), content stored by ``_content``), with no check."""
        out = object.__new__(cls)
        out.field = field
        out.a = a
        out.b = b
        out.content = content
        return out

    @classmethod
    def unit_ideal(cls, field):
        return cls._normal(field, 1, 0, 1)

    def norm(self) -> int | Fraction:
        return self.a * self.content * self.content

    def primitive(self):
        return QIdeal._normal(self.field, self.a, self.b, 1)

    def conj(self):
        return QIdeal._normal(self.field, self.a, (-self.b - self.field.d) % self.a,
                              self.content)

    def inverse(self):
        prim = self.conj()
        c = self.content * self.a
        return QIdeal._normal(self.field, prim.a, prim.b,
                              _content(Fraction(c.denominator, c.numerator)))

    def __mul__(self, other):
        """Product by Dirichlet composition of the forms of the primitive parts.

        With g = gcd(a1, a2, (b1 + b2)/2), the primitive parts multiply to g
        times the ideal of the composed form, whose leading coefficient is
        a1*a2/g^2.  In Q(sqrt(-5)) the place over 2 squares to 2*Z[w]:

        >>> F = make_field(-20)
        >>> P = splitting(F, 2)[0].ideal()
        >>> P * P
        QIdeal(1, 0, content=2; d=-20)
        >>> P * P == principal_ideal(QElement.from_int(F, 2))
        True
        """
        if not isinstance(other, QIdeal) or other.field.d != self.field.d:
            raise TypeError("ideals of different fields")
        d = self.field.d
        f1, f2 = self.form(), other.form()
        g = gcd(gcd(f1[0], f2[0]), (f1[1] + f2[1]) // 2)
        a, b, _ = _compose(f1, f2, d)
        return QIdeal._normal(self.field, a, (b - d) // 2 % a,
                              _content(self.content * other.content * g))

    def __pow__(self, n):
        """Left-to-right square-and-multiply: for n >= 1, bit_length(n) - 1
        squarings and popcount(n) - 1 products, none with the unit ideal."""
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return QIdeal.unit_ideal(self.field)
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

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
    """The fractional ideal alpha * Z[w].

    For alpha = g*(u + v*w)/den with gcd(u, v) = 1, (u + v*w)*Z[w] is the
    primitive ideal of norm a = |N(u + v*w)| with b = u/v mod a (v is a
    unit mod a, since a prime dividing v and a divides u).

    >>> F = make_field(-20)
    >>> principal_ideal(QElement.from_int(F, 2))
    QIdeal(1, 0, content=2; d=-20)
    >>> principal_ideal(F.sqrt_disc() / 2) == splitting(F, 5)[0].ideal()
    True
    """
    if alpha.is_zero():
        raise ValueError("zero element has no ideal")
    field = alpha.field
    u, v, den = alpha.omega_coords()
    g = gcd(u, v)
    u, v = u // g, v // g
    a = abs(u * u + field.d * u * v + field.omega_norm * v * v)
    return QIdeal._normal(field, a, u * pow(v, -1, a) % a, _content(Fraction(g, den)))


def element_divisor(field: QuadField, a: QElement) -> dict:
    """Divisor of a over the maximal order, as {place label: ord}.

    Read off the normal form c*(A*Z + (B + w)*Z) of a*Z[w]: the content c
    gives each place over p the exponent v_p(c)*e, and p^k || A gives k to
    the place over p with b = B (mod p), the one place over p that divides
    a primitive ideal of norm divisible by p (never an inert one).

    >>> F = make_field(-7)
    >>> alpha = QElement(F, 1, 1, 1)
    >>> element_divisor(F, alpha / alpha.conj())
    {'2.0': 1, '2.1': -1}
    """
    if a.is_zero():
        raise ValueError("zero element has no divisor")
    I = principal_ideal(a)
    v_content = factorize(I.content.numerator)
    v_content.update((p, -k) for p, k in factorize(I.content.denominator).items())
    v_norm = factorize(I.a)
    out = {}
    for p in sorted(v_content.keys() | v_norm.keys()):
        for place in _splitting(field, p):
            o = v_content.get(p, 0) * place.e
            if place.b == I.b % p:
                o += v_norm.get(p, 0)
            if o:
                out[place.label] = o
    return out


# --- binary quadratic form machinery ---------------------------------------


def _is_reduced_imag(form):
    a, b, c = form
    return -a < b <= a <= c and (a != c or b >= 0)


def _rho_imag(form):
    a, b, c = form
    s = (c + b) // (2 * c)
    return (c, -b + 2 * s * c, c * s * s - b * s + a)


def _reduce_imag(form):
    # _is_reduced_imag and _rho_imag inlined: the class-group build spends
    # most of its time in this loop, and the calls cost it 6-8%
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


def _class_key(d, sd, form, memo=None):
    """Canonical key of the class of a primitive form of discriminant d,
    itself a form with a > 0, so keys compose with ``_compose``.

    d < 0: the reduced form.  d > 0: the least form with a > 0 on the
    reduction cycle, which identifies the narrow class.  Reduced indefinite
    forms have a*c < 0 and rho maps (a, b, c) to (c, ...), so the sign of a
    alternates along the cycle and such a form exists.  A memo dict, when
    given, maps every form of each cycle walked so far to its key, so that a
    cycle is walked once per memo.
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
    best = min(f for f in cycle if f[0] > 0)
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
    """Ideal class group: ``group`` is presented on the span's generators,
    ``table`` maps each class key, the class's one reduced form with a > 0,
    to its coordinates over them, and ``dlog`` maps an ideal to its class.
    """

    def __init__(self, field, group, table):
        self.field = field
        self.group = group
        self._table = table

    def cardinality(self):
        # perfbench/tracing.py calls it for its class_group.h_max counter
        return self.group.cardinality()

    def dlog(self, ideal: QIdeal):
        """Class of a fractional ideal as a GroupElement of self.group: the
        span coordinates of its class key, mapped once by ``member``."""
        if ideal.field.d != self.field.d:
            raise TypeError("ideal of a different field")
        d = self.field.d
        coords = self._table[_class_key(d, isqrt(d) if d > 0 else 0, ideal.form())]
        return self.group.member(coords + (0,) * (self.group.user_rank - len(coords)))


def _span_classes(d, sd, candidates, memo):
    """BFS span of the classes of candidate forms.

    Returns (table, relation rows): table maps each class key to its
    coordinates over the candidates that enlarged the span, trailing zeros
    left off, and there is one row per such generator.  Every product is a
    composition of two keys, keyed once.
    """
    table = {_class_key(d, sd, (1, d, (d * d - d) // 4), memo): ()}
    rels = []
    for form in candidates:
        cand = _class_key(d, sd, form, memo)
        if cand in table:
            continue
        idx = len(rels)
        chain = []
        power = cand
        while power not in table:
            chain.append(power)
            power = _class_key(d, sd, _compose(power, cand, d), memo)
        r = len(chain) + 1
        base = table[power]
        for k_old in list(table):
            coords = table[k_old]
            for t in range(1, r):
                kk = _class_key(d, sd, _compose(k_old, chain[t - 1], d), memo)
                table[kk] = coords + (0,) * (idx - len(coords)) + (t,)
        rels.append((idx, r, base))
    n = len(rels)
    rows = []
    for idx, r, base in rels:
        row = [0] * n
        row[idx] = r
        for j, v in enumerate(base):
            row[j] -= v
        rows.append(row)
    return table, rows


def check_class_disc(d: int):
    """Refuse |d| > MAX_CLASS_DISC, the largest class group built.

    Cheap, so callers check it before ``make_field`` factors d.
    """
    if abs(d) > MAX_CLASS_DISC:
        raise FieldInputError(f"|discriminant| {abs(d)} exceeds the bound {MAX_CLASS_DISC}")


def class_prime_bound(d: int) -> int:
    """Bound on the primes whose classes span the class group: at least the
    Minkowski bound (2/pi)*sqrt(|d|) for d < 0, and sqrt(d)/2 for d > 0."""
    if d < 0:
        return isqrt(4 * (-d) // 9) + 1
    return isqrt(d) // 2 + 1


def class_group(field: QuadField) -> ClassGroupData:
    """Class group of the maximal order, memoized per field."""
    d = field.d
    check_class_disc(d)
    cached = _CLASS_CACHE.get(d)
    if cached is not None:
        return cached

    sd = isqrt(d) if d > 0 else 0
    candidates = []
    for p in primes_below(class_prime_bound(d) + 1):
        places = _splitting(field, p)
        if places[0].kind == "inert":
            continue
        candidates.append(places[0].ideal().form())
    if d > 0:
        sqrt_d_form = principal_ideal(field.sqrt_disc()).form()
        candidates.append(sqrt_d_form)

    memo = {}  # for this build only: cached with the group, it would hold every form
    table, rows = _span_classes(d, sd, candidates, memo)
    narrow = quotient(len(rows), rows)

    group = narrow
    if d > 0:
        # narrow modulo the class t of sqrt(d)*Z[w], by one quotient of the
        # moduli rows and t's row as they stand.  These rows set the class
        # coordinates, and with them the generators the CLI prints; the
        # Hermite basis of subgroup_quotient gives the same group in other
        # coordinates for some fields (d = 1365, 1740)
        t = table[_class_key(d, sd, sqrt_d_form, memo)]
        t = narrow.member(t + (0,) * (len(rows) - len(t))).coords
        k = narrow.rank
        moduli = [[m if i == j else 0 for i in range(k)]
                  for j, m in enumerate(narrow.invariant_factors)]
        wide = quotient(k, moduli + [list(t)])
        group = AbelianGroup(wide.invariant_factors,
                             basis_change=narrow.basis_change @ wide.basis_change)

    data = ClassGroupData(field, group, table)
    _CLASS_CACHE[d] = data
    return data


def fundamental_unit(field: QuadField) -> QElement:
    """Fundamental unit eps > 1 of a real field: one period of n partial
    quotients of the reduced theta = (u + sqrt(d))/2, u = d (mod 2), gives
    eps = q_(n-1)*theta + q_(n-2) in Z[theta] = Z[w] (Cohen, GTM 138, 5.7)."""
    if not field.is_real:
        raise FieldInputError("fundamental unit requires a real field")
    d = field.d
    cached = _UNIT_CACHE.get(d)
    if cached is not None:
        return cached
    sd = isqrt(d)
    u = sd - (sd - d) % 2
    P, Q = u, 2
    q_prev, q_cur = 1, 0
    while True:
        a = (P + sd) // Q
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        P = a * Q - P
        Q = (d - P * P) // Q
        if (P, Q) == (u, 2):
            break
    eps = QElement(field, q_cur * u + 2 * q_prev, q_cur, 1)
    if abs(eps.norm()) != 1:
        raise RuntimeError(f"continued fraction produced a non-unit for d={d}")
    _UNIT_CACHE[d] = eps
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


def is_principal(field: QuadField, I: QIdeal, max_steps=None):
    """Generator of I when principal, else None.

    Reduction that carries its relative generator (Buchmann & Vollmer,
    Binary Quadratic Forms, 2007; Cohen, GTM 138, Sec. 5.4 and 5.8): the
    form (a, b, c) stands for the lattice J = |a|*Z + ((b + sqrt(d))/2)*Z,
    and a reduction step replaces J by J/alpha_k, alpha_k = (b + sqrt(d))/(2c),
    so prim(I) = alpha*J for the product alpha of the steps so far.  |a| = 1
    means J = Z[w].  For d < 0 the reduced form decides; for d > 0 the
    reduced lattices of a class form one rho cycle, walked once.  The
    generator content*alpha is the associate with the least |y|, ties going
    to positive norm, then x > 0 (or x = 0 and y > 0), then, between the
    conjugates of a ramified ideal, y > 0.  SearchBoundExceeded is raised
    only when more than ``max_steps`` reduction and cycle steps are needed.
    """
    d = field.d
    sd = isqrt(d) if d > 0 else 0
    form, alpha, start, steps = I.form(), field.one(), None, 0
    while abs(form[0]) != 1:
        if _is_reduced_imag(form) if d < 0 else _is_reduced_real(d, sd, form):
            if d < 0 or form == start:
                return None
            start = start or form
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise SearchBoundExceeded("generator recovery step budget exhausted")
        alpha = alpha * QElement(field, form[1], 1, form[2])
        form = _rho_imag(form) if d < 0 else _rho_real(d, sd, form)
    walk = [alpha]
    if d > 0:
        # |y(alpha*eps^k)| falls, then rises along each class of k mod 2
        eps = fundamental_unit(field)
        eta = eps * eps
        for step in (eta, eta.conj()):
            for z in (alpha, alpha * eps):
                walk.append(z)
                while abs((nxt := z * step).y) <= abs(z.y):
                    z = nxt
                    walk.append(z)
    best = min((u * z for u in torsion_units(field) for z in walk),
               key=lambda z: (abs(z.y), z.x * z.x < z.y * z.y * d, -z.x, -z.y))
    return best.scaled(I.content)


def residue_unit_cardinality(field: QuadField, exponents: dict) -> int:
    """Order of (Z[w] / f*Z[w])^* from the factorization {p: v_p(f)} of f.

    Each place over p, of residue size q = p^degree, divides f*Z[w] to the
    power n = v_p(f)*e and contributes q^(n-1)*(q - 1).
    """
    out = 1
    for p, v in exponents.items():
        for place in _splitting(field, p):
            q, n = p ** place.degree, v * place.e
            out *= q ** (n - 1) * (q - 1)
    return out
