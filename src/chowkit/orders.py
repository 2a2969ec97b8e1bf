"""Orders in quadratic fields and orders built from declared splitting data.

An order is an ``OrderData`` from one of two backends:

  * ``QuadraticOrder`` (``order_from_conductor``): Z + f*Z[w] inside a
    quadratic field, identified by the conductor f >= 1 (every order of a
    quadratic field has this shape);
  * ``DeclaredOrder`` (``declared.declared_order``): carved out of a
    validated data file that lists, per non-invertible prime, the places
    above it with their degrees, ramification exponents and ideal-class
    images.

Both hold their non-invertible primes as ``NonInvertiblePrime`` records
over the backend's own places (``quadfield.PrimePlace`` or
``declared.DeclaredPlace``): each place carries its degree d_{i,j} and
exponent e_{i,j}, and the record derives the gcd g_i of the degrees and
deterministic Bezout coefficients lambda_{i,j} with sum(lambda * d) = g.
Both answer ``class_group()``, ``resolve``, ``conductor_exponent`` and
``residue_unit_order``, and give a place's reduced class coordinates (the
parsed class image, or one ``dlog`` per place and order), from which the
base class builds ``class_of(places, exponents)`` and the cached
``cl_mod_n``, the order's one Cl/N, building kernel classes only as far as
it reads them; that is all the Chow group and the class test need.
Ideal, element and unit arithmetic needs ``order.field``, which only a
quadratic order has: on a declared order it raises ``BackendError``.

``prime.lambdas`` is Q_i and ``kernel_vectors(prime)`` the kernel
generators, as exponent vectors over ``prime.places``; ``place_product``
turns such a vector into the ideal prod(place.ideal() ** k), with no label
parsed again, and ``class_of`` into its class.

Divisors live on two levels.  Over the normalization they are supported on
places (labels like ``2.0``, ``3`` or declared labels like ``P1``); over the
order they are supported on maximal ideals of the order, where invertible
primes keep the label of the unique place above them and each non-invertible
prime gets its own label (the rational prime for quadratic orders).
``order.resolve(token)`` is the one map from a token to both levels: the
place it names and the non-invertible prime below that place, if any.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from math import prod

from .abgroup import (
    AbelianGroup,
    GroupElement,
    bezout_gcd,
    element_order,
    subgroup_quotient,
)
from .errors import BackendError, NotConductorIdealError, PlaceResolutionError
from .ntheory import factorize, is_prime
from .quadfield import (
    QElement,
    QIdeal,
    QuadField,
    class_group,
    element_divisor,
    fundamental_unit,
    is_principal,
    _splitting,
    residue_unit_cardinality,
    torsion_units,
)

LEVEL_ORDER = "order"
LEVEL_NORMALIZATION = "normalization"


class Divisor:
    """Integer formal sum over labeled maximal ideals, finite support."""

    __slots__ = ("level", "support")

    def __init__(self, level, support=None):
        if level not in (LEVEL_ORDER, LEVEL_NORMALIZATION):
            raise ValueError(f"unknown divisor level {level!r}")
        self.level = level
        self.support = {
            label: int(c) for label, c in (support or {}).items() if int(c) != 0
        }

    def is_zero(self):
        return not self.support

    def coefficient(self, label):
        return self.support.get(label, 0)

    def __add__(self, other):
        if not isinstance(other, Divisor) or other.level != self.level:
            raise ValueError("divisors on different levels")
        out = dict(self.support)
        for label, c in other.support.items():
            out[label] = out.get(label, 0) + c
        return Divisor(self.level, out)

    def __rmul__(self, n):
        return Divisor(self.level, {l: int(n) * c for l, c in self.support.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        return (isinstance(other, Divisor) and other.level == self.level
                and other.support == self.support)

    def __hash__(self):
        return hash((self.level, tuple(sorted(self.support.items()))))

    def __repr__(self):
        return f"Divisor({self.level!r}, {self.support!r})"


@dataclass(frozen=True)
class NonInvertiblePrime:
    """A non-invertible prime with the backend's own places above it.

    Each place (a ``PrimePlace`` or a ``DeclaredPlace``) has a ``label``, a
    ``degree`` d_j and an exponent ``e``.  ``g`` = gcd_j d_j and the Bezout
    coefficients ``lambdas`` (sum(lambda_j * d_j) = g) are derived from the
    degrees once, when the prime is built.
    """

    label: str
    p: int
    residue_size: int
    places: tuple
    g: int = dataclass_field(init=False)
    lambdas: tuple = dataclass_field(init=False)

    def __post_init__(self):
        g, lambdas = bezout_gcd([pl.degree for pl in self.places])
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "lambdas", tuple(lambdas))


class OrderData:
    """An order with its non-invertible primes; a backend subclass supplies
    the class group, the class of each place and the field arithmetic."""

    def __init__(self, primes):
        self.primes = tuple(primes)
        self._over = {}  # (place, prime) by the label of each place and prime
        for prime in self.primes:
            for pl in prime.places:
                if pl.label in self._over:
                    raise PlaceResolutionError(
                        f"place {pl.label} appears under two selected primes")
                self._over[pl.label] = (pl, prime)
        for prime in self.primes:
            owner = self._over.setdefault(prime.label, (None, prime))[1]
            if owner is not prime:
                raise PlaceResolutionError(
                    f"{prime.label} names a selected prime and a place of {owner.label}")

    @property
    def is_maximal(self):
        return not self.primes

    def resolve(self, token):
        """(place, prime): the place of the normalization a token names and
        the non-invertible prime below it, None if invertible.  A prime's own
        label that names no single place (a split p, a declared record) gives
        (None, prime); anything else raises ``PlaceResolutionError``."""
        hit = self._over.get(token)
        return hit if hit is not None else self._resolve_other(token)

    def class_of(self, places, exponents) -> GroupElement:
        """Class of sum(k * place), the class-group twin of ``place_product``:
        the places' reduced class coordinates summed and reduced once."""
        cl = self.class_group()
        acc = [0] * cl.rank
        for place, k in zip(places, exponents):
            if k:
                acc = [a + k * c for a, c in zip(acc, self._class_coords(place))]
        return GroupElement(cl, acc)

    @cached_property
    def cl_mod_n(self) -> AbelianGroup:
        """Cl/N, N spanned by the classes of the kernel vectors, each built
        as ``subgroup_quotient`` reads it: the order's one Cl/N, read by the
        Chow group and the class test."""
        return subgroup_quotient(self.class_group(), (
            self.class_of(prime.places, gen)
            for prime in self.primes for gen in kernel_vectors(prime)))


class QuadraticOrder(OrderData):
    """Z + f*O~ in a quadratic field: every capability is available."""

    def __init__(self, field: QuadField, conductor: int, primes):
        super().__init__(primes)
        self.field = field
        self.conductor = conductor
        self._classes = {}    # class coordinates per place read, by label
        self._places = {prime.p: prime.places for prime in self.primes}  # by p
        self._exponents = {}  # v_p(f) per non-invertible prime, by division
        for prime in self.primes:
            v, f = 0, conductor
            while f % prime.p == 0:
                v, f = v + 1, f // prime.p
            self._exponents[prime.p] = v

    def class_group(self) -> AbelianGroup:
        """Class group of the normalization."""
        return class_group(self.field).group

    def _class_coords(self, place):
        """Reduced class coordinates of a place, one ``dlog`` per place."""
        if place.label not in self._classes:
            self._classes[place.label] = class_group(self.field).dlog(place.ideal()).coords
        return self._classes[place.label]

    def _resolve_other(self, token):
        """Any other spelling, parsed; the places over each p split once."""
        p, branch = _parse_quadratic_label(token)
        places = self._places.get(p)
        if places is None:
            if not is_prime(p):
                raise PlaceResolutionError(f"no place {token!r}: {p} is not prime")
            places = self._places[p] = _splitting(self.field, p)
        if branch is None and len(places) > 1:
            raise PlaceResolutionError(f"{p} is split; specify a branch {p}.0 or {p}.1")
        for place in places:
            if branch in (None, place.branch):
                return self._over.get(place.label, (place, None))
        raise PlaceResolutionError(f"no place {token} over {p}")

    def conductor_exponent(self, prime):
        """v_p(f): the conductor is the product of the places over p to v_p(f) * e."""
        return self._exponents[prime.p]

    def residue_unit_order(self):
        """|(O~/F)^*|, from the stored factorization of f."""
        return residue_unit_cardinality(self.field, self._exponents)


class DeclaredOrder(OrderData):
    """Order carved out of declared data: classes and degrees only.

    The data carries no field, so ideal, element and unit arithmetic raise
    BackendError, through ``field``.
    """

    def __init__(self, declared, selection, primes):
        super().__init__(primes)
        self.declared = declared
        self.selection = tuple(selection)
        self._class_group = AbelianGroup(declared.class_invariants)

    @property
    def field(self):
        raise BackendError("declared backend has no field arithmetic "
                           "(ideals, elements, units)")

    def class_group(self) -> AbelianGroup:
        """Class group of the normalization, as declared."""
        return self._class_group

    def _class_coords(self, place):
        """The parsed class image, reduced invariant coordinates already."""
        return place.class_image

    def _resolve_other(self, token):
        """Declared data knows no places but those of its records."""
        raise PlaceResolutionError(
            f"{token!r} is not a conductor prime of the selection")

    def conductor_exponent(self, prime):
        """1: the declared conductor is the product of its places to the power e."""
        return 1

    def residue_unit_order(self):
        """Unknown: the data carries no unit arithmetic."""
        return None


def _parse_quadratic_label(label):
    parts = str(label).split(".")
    try:
        p = int(parts[0])
        branch = int(parts[1]) if len(parts) > 1 else None
    except (ValueError, IndexError):
        raise PlaceResolutionError(f"malformed place label {label!r}")
    if len(parts) > 2 or p < 2:
        raise PlaceResolutionError(f"malformed place label {label!r}")
    return p, branch


def resolve_place(field: QuadField, label):
    """Place of the maximal order from a textual label like '2.0' or '3'."""
    return QuadraticOrder(field, 1, ()).resolve(label)[0]


def order_from_conductor(field: QuadField, f: int) -> QuadraticOrder:
    """The order Z + f*Z[w] with its non-invertible primes filled in."""
    f = int(f)
    if f < 1:
        raise ValueError("conductor must be >= 1")
    primes = [NonInvertiblePrime(str(p), p, p, _splitting(field, p))
              for p in sorted(factorize(f))]
    return QuadraticOrder(field, f, primes)


def pushforward(order: OrderData, D: Divisor) -> Divisor:
    """Degree-weighted transfer of a normalization divisor down to the order."""
    if D.level != LEVEL_NORMALIZATION:
        raise ValueError("pushforward expects a divisor over the normalization")
    out = {}
    for label, coeff in D.support.items():
        place, prime = order.resolve(label)
        if place is None:
            raise PlaceResolutionError(f"{label!r} names a prime, not a place")
        if prime is None:
            out[place.label] = out.get(place.label, 0) + coeff  # invertible: degree 1
        else:
            out[prime.label] = out.get(prime.label, 0) + coeff * place.degree
    return Divisor(LEVEL_ORDER, out)


def div_over_order(order: OrderData, a: QElement) -> Divisor:
    """Principal divisor of a field element over the order."""
    field = order.field
    if a.is_zero():
        raise ValueError("zero element has no divisor")
    over_max = Divisor(LEVEL_NORMALIZATION, element_divisor(field, a))
    return pushforward(order, over_max)


def kernel_vectors(prime: NonInvertiblePrime):
    """The kernel generators over ``prime.places``, one per place.

    With Q_i = sum_j lambda_{i,j} P_{i,j} (``prime.lambdas``), the generator
    of P_{i,j} is (d_{i,j}/g_i) * Q_i - P_{i,j}, which pushes forward to
    zero.  At the split prime 2 of Q(sqrt(-7)):

    >>> from chowkit.quadfield import make_field
    >>> (prime,) = order_from_conductor(make_field(-7), 2).primes
    >>> prime.lambdas, kernel_vectors(prime)
    ((1, 0), [[0, 0], [1, -1]])
    """
    gens = []
    for j, pl in enumerate(prime.places):
        m = pl.degree // prime.g
        gen = [m * lam for lam in prime.lambdas]
        gen[j] -= 1
        gens.append(gen)
    return gens


def place_product(field: QuadField, places, exponents) -> QIdeal:
    """prod(place.ideal() ** k) over paired places and exponents; a zero
    exponent is skipped, and the empty product is the unit ideal."""
    acc = None
    for place, k in zip(places, exponents):
        if k:
            term = place.ideal() ** k
            acc = term if acc is None else acc * term
    return QIdeal.unit_ideal(field) if acc is None else acc


def kernel_generators(order: OrderData):
    """Generators of ker(pushforward), one divisor per (prime, place) pair:
    the vectors of ``kernel_vectors`` over the normalization."""
    return [Divisor(LEVEL_NORMALIZATION, {
                pl.label: k for pl, k in zip(prime.places, gen)})
            for prime in order.primes for gen in kernel_vectors(prime)]


def _violator(places, k):
    """Label of the first place failing Furtwaengler's criterion, or None.

    ``places`` are the places over one prime and ``k`` their exponents in
    the ideal.  A place with residue field F_p (degree 1) whose exponent is
    1 + t*e fails unless some other place has an exponent above t times its
    own e.
    """
    for i, pl in enumerate(places):
        if pl.degree != 1 or (k[i] - 1) % pl.e:
            continue
        threshold = (k[i] - 1) // pl.e
        if not any(k[j] > threshold * other.e
                   for j, other in enumerate(places) if j != i):
            return pl.label
    return None


def conductor_test(field: QuadField, exponents):
    """Furtwaengler's criterion for a product of place powers.

    ``exponents`` maps place labels to integers k >= 0.  Returns
    (is_conductor, violating_label_or_None); the criterion is checked per
    rational prime and combined multiplicatively.  One maximal order
    resolves every label and keeps the places over each p, so each p is
    split once.
    """
    maximal = QuadraticOrder(field, 1, ())
    by_p = {}
    for label, k in exponents.items():
        k = int(k)
        if k < 0:
            raise ValueError("exponents must be >= 0")
        place = maximal.resolve(label)[0]
        kmap = by_p.setdefault(place.p, {})
        if place.label in kmap:
            raise PlaceResolutionError(f"place {place.label} given twice")
        kmap[place.label] = k
    for p in sorted(by_p):
        places = maximal._places[p]
        viol = _violator(places, [by_p[p].get(pl.label, 0) for pl in places])
        if viol is not None:
            return False, viol
    return True, None


def order_conductor_test(order: OrderData):
    """Furtwaengler verdict for the conductor of an order.

    The conductor is the product of the places over each non-invertible
    prime, each to ``conductor_exponent(prime) * e``.  A declared record's
    place list is taken as complete; a prime whose residue field is larger
    than F_p has no place with residue field F_p.
    """
    for prime in order.primes:
        if prime.residue_size != prime.p:
            continue
        v = order.conductor_exponent(prime)
        viol = _violator(prime.places, [v * pl.e for pl in prime.places])
        if viol is not None:
            return False, viol
    return True, None


def order_from_ideal(field: QuadField, exponents) -> QuadraticOrder:
    """Order Z + A for a conductor ideal A given by place exponents.

    Every ideal that passes Furtwaengler's criterion is f*O~, so the order
    is Z + f*O~: a split prime passes only with equal exponents on its two
    places, a ramified one only with an even exponent, and an inert one has
    no degree-1 place (its one place has e = 1).  So each exponent is
    v_p(f) * e.
    """
    ok, viol = conductor_test(field, exponents)
    if not ok:
        raise NotConductorIdealError(
            f"not a conductor ideal (violating place {viol})")
    v = {}
    for label, k in exponents.items():
        place = resolve_place(field, label)
        v[place.p] = int(k) // place.e
    return order_from_conductor(field, prod(p ** vp for p, vp in v.items()))


@dataclass
class FixReport:
    """Evaluation of the unit/Picard maximality conditions."""

    maximal: bool
    cond_squarefree: bool
    all_residue_f2: bool
    all_r_geq_2: bool
    equivalent_conditions_hold: bool
    residue_unit_order: int = None       # |(O~/F)^*|, None when unknown


def prop_fix_report(order: OrderData) -> FixReport:
    """Report on the equivalent conditions for O^* = O~^* and Pic = Cl."""
    n = order.residue_unit_order()
    if order.is_maximal:
        return FixReport(True, True, True, True, True, n)
    squarefree = True
    residue_f2 = True
    r_geq_2 = True
    for prime in order.primes:
        if len(prime.places) < 2:
            r_geq_2 = False
        if order.conductor_exponent(prime) > 1:
            squarefree = False
        for pl in prime.places:
            if pl.e != 1:
                squarefree = False
            if not (prime.residue_size == 2 and pl.degree == 1):
                residue_f2 = False
    hold = squarefree and residue_f2 and r_geq_2
    return FixReport(False, squarefree, residue_f2, r_geq_2, hold, n)


def divisor_kernel_witness(order: OrderData, bound: int = 3):
    """Element a with div_O(a) = 0 and a outside O^*, or None.

    Units of the normalization that escape the order are witnesses already.
    Otherwise a nonzero kernel generator g of class c gives one: m*g with
    m the order of c is the divisor of a principal ideal of the
    normalization, and its generator (``is_principal``, by reduction) has
    divisor 0 over the order without being a unit.  Of the generators the
    one whose class has the least order is taken, so the witness stays
    small.  ``None`` means that no witness exists: every kernel generator is
    zero and every unit lies in the order.  ``bound`` is accepted for
    compatibility and no longer read.
    """
    field = order.field
    if order.is_maximal:
        raise ValueError("the maximal order admits no witness")
    f = order.conductor

    def outside(u):
        _, v, den = u.omega_coords()
        return den != 1 or v % f != 0

    for u in torsion_units(field):
        if u.is_rational():
            continue  # +-1 lie in every order
        if outside(u):
            return u
    if field.is_real:
        eps = fundamental_unit(field)
        if outside(eps):
            return eps

    cl = order.class_group()
    pairs = [(element_order(cl, order.class_of(prime.places, gen)), prime.places, gen)
             for prime in order.primes for gen in kernel_vectors(prime) if any(gen)]
    if not pairs:
        return None
    m, places, gen = min(pairs, key=lambda pair: pair[0])
    return is_principal(field, place_product(field, places, [m * k for k in gen]))
