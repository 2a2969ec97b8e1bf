"""Chow groups of orders, the principal divisor test, and Picard reports.

The Chow group of an order is computed from a finite presentation: with
non-invertible primes p_1..p_r, degrees d_{i,j} of the places above them,
g_i = gcd_j(d_{i,j}) and Bezout combinations Q_i = prod_j P_{i,j}^lambda_{i,j},
take

    G = (free group on the p_i)  +  Cl/N,
    N = < classes of (d_{i,j}/g_i)*Q_i - P_{i,j} >,
    R = < (g_i * p_i, -[Q_i]) >,

and Chow(O) = G/R, each class ``order.class_of`` of an exponent vector,
``prime.lambdas`` for Q_i and ``kernel_vectors`` for N.  Cl/N comes from a
Hermite basis of N (Cohen, GTM 138, Sec. 2.4.2): the kernel classes, one
per place, are built and reduced into at most rank(Cl) rows as the
reduction reads them, and it stops once N = Cl, so the Smith normal form of
Cl/N never sees one row per place.  [Q_i] enters G/R only as its image
qbar_i in Cl/N, of few distinct values, each mapped once and kept.  G/R is
split along the exact sequence Cl/N -> Chow(O) -> sum Z/g_i: a prime with
g_i = 1 has the relation p_i = qbar_i and is eliminated, one with qbar_i = 0
splits off Z/g_i, and primes with equal (g_i, qbar_i) split off Z/g_i after
the first, so the Smith normal form sees only one prime per distinct pair
with qbar_i != 0 and the generators of Cl/N.  The parts are merged into
invariant factors over a coprime base of their orders, and each prime keeps
its route into them, which ``ChowPresentation.member`` follows: no map with
a row per prime is built, and the unreduced R is built only when read.  The
same data yields the exact-sequence decomposition (image of the push-forward,
local parts Z/g_i) and drives the principal divisor test: membership in the
push-forward image, an ideal lift, a class check that is one membership test
in the order's Cl/N (``cl_mod_n``, built once per order and shared with the
Chow group), and finally a principal-ideal generator of the corrected lift,
multiplied out from the order's own places; only then are all kernel classes
read, from ``order.kernel``, for the order's prepared ``combination_solver``
to pick the kernel correction: the classes, their orders and the solver's
Smith normal form are built once per order, by the first test that needs
them.
It also bounds the search for a trivial Chow group: N lies in 2*Cl, so only
an odd |Cl| admits one, and then the primes below the class group's own
prime bound suffice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import prod

from .abgroup import (
    AbelianGroup,
    GroupElement,
    IntMatrix,
    cyclic_sum,
    direct_sum_invariants,
    quotient,
    subgroup_quotient,
)
from .errors import BackendError, PlaceResolutionError
from .ntheory import factorize, primes_below
from .orders import (
    LEVEL_ORDER,
    Divisor,
    OrderData,
    order_from_conductor,
    place_product,
)
from .quadfield import (
    QuadField,
    class_group as field_class_group,
    class_prime_bound,
    fundamental_unit,
    is_principal,
    _splitting,
    torsion_units,
)


@dataclass
class ChowPresentation:
    """Chow group as a quotient G/R, with a divisor projection.

    ``result`` is the Chow group in invariant-factor form, given no
    presentation.  ``member`` maps a vector over the r + k generators of G,
    the primes p_i and then the generators of Cl/N, into it through the
    split that ``chow_group`` made: each prime's route (``routes``), the
    part ``rest`` of G/R that reached the Smith normal form, and the
    coordinate maps ``slots`` of ``cyclic_sum``.  The map is not the one of
    the unreduced G/R matrix's Smith normal form: the group, ``project`` up
    to that isomorphism, and every CLI output are the same.  ``cl_mod_n``
    is the order's own ``cl_mod_n``, the one Cl/N that the principal test
    reads too, and ``qbars`` holds per prime the reduced coordinates in it
    of qbar_i, the image of [Q_i], one tuple per distinct value (the class
    [Q_i] itself is ``order.class_of(prime.places, prime.lambdas)``).
    ``relations``, the unreduced R, is built only when read.
    """

    order: OrderData
    qbars: tuple                     # per prime: qbar_i, [Q_i] in Cl/N's coordinates
    cl_mod_n: AbelianGroup
    result: AbelianGroup
    rest: AbelianGroup               # on the t primes sent to it, then Cl/N's k
    routes: list                     # per prime: (pairs (j, c) over rest, summand or None)
    slots: list                      # cyclic_sum's map from the summands to result

    @cached_property
    def relations(self) -> IntMatrix:
        """The r rows (g_i p_i, -qbar_i) of R over the r + k generators."""
        r = len(self.order.primes)
        rows = []
        for i, (prime, qbar) in enumerate(zip(self.order.primes, self.qbars)):
            row = [0] * r + [-c for c in qbar]
            row[i] = prime.g
            rows.append(row)
        return IntMatrix(rows, cols=r + self.cl_mod_n.rank)

    def member(self, vector) -> GroupElement:
        """Element of the Chow group from a vector over the r + k generators:
        each prime's route, then ``rest``, then ``slots``."""
        vector = tuple(map(int, vector))
        r, k = len(self.routes), self.cl_mod_n.rank
        if len(vector) != r + k:
            raise ValueError(
                f"vector length {len(vector)} does not match generator count {r + k}")
        x = [0] * (self.rest.user_rank - k) + list(vector[r:])  # over rest
        summands = {}  # summand l of the cyclic sum: rest's factors, then the Z/g_i
        for a, (pairs, l) in zip(vector, self.routes):
            if a:
                for j, c in pairs:
                    x[j] += a * c
                if l is not None:
                    summands[l] = a
        summands.update(enumerate(self.rest.member(x).coords))
        return self.result.element(
            [sum(u * summands.get(l, 0) for l, u in slot) for slot in self.slots])

    def project(self, D: Divisor) -> GroupElement:
        """Class of a divisor over the order in the Chow group."""
        if D.level != LEVEL_ORDER:
            raise ValueError("expected a divisor over the order")
        order = self.order
        avec = [D.coefficient(prime.label) for prime in order.primes]
        s = order.class_of(*_invertible_part(order, D))
        return self.member(avec + list(self.cl_mod_n.member(s.coords).coords))


def _invertible_part(order: OrderData, D: Divisor):
    """(places, coefficients) of D off the order's primes, each label
    resolved once.  A place over the conductor is refused: over the order
    it is part of its prime."""
    places, coeffs = [], []
    for label, coeff in D.support.items():
        place, prime = order.resolve(label)
        if prime is None:
            places.append(place)
            coeffs.append(coeff)
        elif label != prime.label:
            raise PlaceResolutionError(
                f"place {label} lies over the conductor; name its prime {prime.label}")
    return places, coeffs


def chow_group(order: OrderData) -> ChowPresentation:
    """Chow group of the order via the G/R presentation, split along the
    exact sequence Cl/N -> Chow(O) -> sum Z/g_i.

    * A prime with g_i = 1 has the relation p_i = qbar_i, qbar_i the image
      of [Q_i] in Cl/N, so its generator and its relation are eliminated:
      its route is qbar_i.
    * A prime with g_i > 1 and qbar_i = 0 splits off Z/g_i on p_i.
    * Primes with the same (g, qbar), qbar != 0, have the same relation, so
      after the first of them, p_rep, each further p_j gives the unimodular
      change p_j - p_rep, which splits off Z/g.
    * The Smith normal form (``quotient``) sees the rest: the moduli of
      Cl/N and one row (g p_rep, -qbar) per distinct pair, #{distinct
      (g, qbar), qbar != 0} + rank(Cl/N) columns.  On a quadratic order
      every prime with g_i > 1 is inert, so qbar_i = 0 and only Cl/N is
      left.

    ``cyclic_sum`` merges the split-off parts and the factors of that
    quotient into one divisibility chain.  Each prime keeps its route into
    those summands: its image over ``rest``'s generators (its own position
    when it reached the Smith normal form, that of p_rep, or qbar_i when
    g_i = 1) and the summand it splits off, if any.  No map with a row per
    prime is built.
    """
    cl_mod_n = order.cl_mod_n
    k = cl_mod_n.rank
    image, qbars = {}, []   # [Q_i] takes few values: map each once, none if Cl/N = 0
    for prime in order.primes:
        c = order.class_of(prime.places, prime.lambdas).coords
        if c not in image:
            image[c] = cl_mod_n.member(c).coords if k else ()
        qbars.append(image[c])
    reps = {}    # (g, qbar) with qbar != 0 -> its first prime
    split = []   # (i, rep): Z/g_i on p_i (rep None) or on p_i - p_rep
    for i, prime in enumerate(order.primes):
        if prime.g == 1:
            continue
        if any(qbars[i]):
            rep = reps.setdefault((prime.g, qbars[i]), i)
            if rep != i:
                split.append((i, rep))
        else:
            split.append((i, None))
    sent = list(reps.values())
    t = len(sent)
    rows = [[0] * (t + j) + [dmod] + [0] * (k - j - 1)
            for j, dmod in enumerate(cl_mod_n.invariant_factors)]
    for pos, i in enumerate(sent):
        row = [0] * t + [-c for c in qbars[i]]
        row[pos] = order.primes[i].g
        rows.append(row)
    rest = quotient(t + k, rows)
    factors, slots = cyclic_sum(
        rest.invariant_factors + tuple(order.primes[i].g for i, _ in split))

    # one route per distinct qbar, shared by the primes with g_i = 1
    by_qbar = {qbar: (tuple((t + j, c) for j, c in enumerate(qbar) if c), None)
               for qbar in dict.fromkeys(qbars)}
    routes = [by_qbar[qbar] for qbar in qbars]
    for pos, i in enumerate(sent):
        routes[i] = (((pos, 1),), None)
    for l, (i, rep) in enumerate(split, rest.rank):
        routes[i] = (routes[rep][0] if rep is not None else (), l)
    return ChowPresentation(order, tuple(qbars), cl_mod_n, AbelianGroup(factors),
                            rest, routes, slots)


@dataclass
class ExactSequenceData:
    """Decomposition of Chow(O) as an extension of the push-forward image."""

    image_part: AbelianGroup
    local_orders: tuple              # all g_i, trivial ones included
    chow: AbelianGroup
    nonsplit: bool
    consistent: bool

    @property
    def local_invariants(self):
        return tuple(g for g in self.local_orders if g > 1)


def exact_sequence_data(order: OrderData) -> ExactSequenceData:
    """Image part Cl/N and local parts Z/g_i, with the split comparison."""
    pres = chow_group(order)
    local_orders = tuple(p.g for p in order.primes)
    ds = direct_sum_invariants(
        pres.cl_mod_n.invariant_factors,
        [g for g in local_orders if g > 1],
    )
    chow_card = pres.result.cardinality()
    consistent = chow_card == pres.cl_mod_n.cardinality() * prod(local_orders)
    nonsplit = pres.result.invariant_factors != ds
    return ExactSequenceData(
        image_part=pres.cl_mod_n,
        local_orders=local_orders,
        chow=pres.result,
        nonsplit=nonsplit,
        consistent=consistent,
    )


@dataclass
class PrincipalResult:
    status: str                      # 'principal' | 'principal-no-generator' | 'not-principal'
    generator: object = None         # QElement when available
    failing_step: int = None
    detail: str = ""

    @property
    def is_principal(self):
        return self.status != "not-principal"


def principal_divisor_test(order: OrderData, D: Divisor,
                           max_steps=None) -> PrincipalResult:
    """Decide principality of a divisor over the order; recover a generator.

    Steps: (1) membership in the push-forward image (g_i divides the
    coefficient at p_i); (2) lift to an ideal of the normalization, one
    exponent vector over the invertible places of D and then the places of
    each prime, carrying (a_i/g_i) Q_i; (3)-(4) class group and kernel
    vectors (``kernel_vectors``); (5) the lift's ``order.class_of`` must
    vanish in Cl/N, one ``member`` test in ``order.cl_mod_n``; (6) add to
    the vector the kernel vectors of ``order.kernel`` times the
    coefficients of the order's ``combination_solver`` over their classes,
    as balanced residues modulo the orders of those classes, and recover a
    generator of its ``place_product`` by reduction (``is_principal``),
    within ``max_steps`` reduction and cycle steps when given.  The kernel
    classes, their orders and the solver's Smith normal form are built once
    per order, by the first test that reaches step (6); a later test pays
    only one U*t and one V*s.  Declared orders stop after step (5).  Naming
    a place over the conductor instead of its prime raises
    ``PlaceResolutionError``.
    """
    if D.level != LEVEL_ORDER:
        raise ValueError("expected a divisor over the order")

    # step 1: image membership
    for prime in order.primes:
        a_i = D.coefficient(prime.label)
        if a_i % prime.g:
            return PrincipalResult(
                "not-principal", failing_step=1,
                detail=f"coefficient {a_i} at {prime.label} is not divisible by g = {prime.g}",
            )

    # step 2: a lift A with f_*(div A) = D as one exponent vector, the
    # invertible places of D, then (a_i/g_i) Q_i over the places of each prime
    places, exponents = _invertible_part(order, D)
    n_invertible = len(places)
    for prime in order.primes:
        a = D.coefficient(prime.label) // prime.g
        places += prime.places
        exponents += [a * lam for lam in prime.lambdas]

    # step 5: some kernel divisor cancels the class of the lift exactly when
    # that class vanishes in Cl/N
    cls_a = order.class_of(places, exponents)
    if not order.cl_mod_n.member(cls_a.coords).is_identity():
        return PrincipalResult(
            "not-principal", failing_step=5,
            detail="ideal class of the lift lies outside the kernel subgroup",
        )
    try:
        field = order.field
    except BackendError:
        return PrincipalResult("principal-no-generator",
                               detail="declared backend stops after the class test")

    # step 6: correct the lift by the kernel divisor B = sum x_k * gen_k, in
    # place, x from the order's prepared solver over the classes of
    # ``order.kernel``.  x_k matters only modulo the order m_k of the class
    # of gen_k (m_k * gen_k is principal and pushes forward to 0): its
    # balanced residue keeps the ideal small.
    x = order._kernel_solver(-cls_a)
    if x is None:
        raise RuntimeError("class in N without a kernel combination; bug")
    starts = list(accumulate((len(prime.places) for prime in order.primes),
                             initial=n_invertible))
    for coeff, (i, gen, _, m) in zip(x, order.kernel):
        coeff %= m
        if coeff:
            coeff = coeff - m if 2 * coeff > m else coeff
            for j, k in enumerate(gen, starts[i]):
                exponents[j] += coeff * k
    alpha = is_principal(field, place_product(field, places, exponents),
                         max_steps=max_steps)
    if alpha is None:
        raise RuntimeError("trivial ideal class without a generator; this is a bug")
    return PrincipalResult("principal", generator=alpha)


@dataclass
class PicReport:
    cl_cardinality: int
    unit_index: int
    relative_unit_quotient: int      # |(O~/F)^*| / |(O/F)^*|
    pic_cardinality: int


def pic_cardinality(order: OrderData) -> PicReport:
    """|Pic(O)| for O = Z + f*O~, from the unit/class exact sequence.

    The sequence 1 -> O~^*/O^* -> (O~/f)^*/(Z/f)^* -> Pic(O) -> Cl -> 1
    (Neukirch, Algebraic Number Theory, I Sec. 12) gives
    |Pic| = h * rel / [O~^* : O^*] with rel = |(O~/f)^*| / phi(f).  In a
    real field the unit index is the order of eps in the group
    (O~/f)^*/(Z/f)^* of order rel, since eps^k lies in O exactly when its
    omega-coordinate is divisible by f.  It is found from rel by order
    finding (Cohen, GTM 138, Sec. 1.4): for each prime q | rel, k is divided
    by q while eps^(k/q) still lies in O; each test is one square-and-
    multiply in Z[w]/f, with w^2 = d*w - (d^2 - d)/4.
    """
    field = order.field
    f = order.conductor
    h = field_class_group(field).group.cardinality()
    if f == 1:
        return PicReport(h, 1, 1, h)
    resid = order.residue_unit_order()
    phi = 1
    for prime in order.primes:
        phi *= prime.p ** (order.conductor_exponent(prime) - 1) * (prime.p - 1)
    if resid % phi:
        raise RuntimeError("residue unit count not divisible by phi(f); bug")
    rel = resid // phi
    if field.is_imaginary:
        idx = len(torsion_units(field)) // 2
    else:
        d, n = field.d, field.omega_norm
        u, v, _ = fundamental_unit(field).omega_coords()

        def in_order(k):
            """Whether eps^k lies in Z + f*O~."""
            ra, rb, a, b = 1, 0, u % f, v % f
            while k:
                if k & 1:
                    t = rb * b
                    ra, rb = (ra * a - n * t) % f, (ra * b + rb * a + d * t) % f
                t = b * b
                a, b = (a * a - n * t) % f, (2 * a * b + d * t) % f
                k >>= 1
            return rb == 0

        if not in_order(rel):
            raise RuntimeError("eps^rel is not in Z + f*O~; bug")
        idx = rel
        for q in factorize(rel):
            while idx % q == 0 and in_order(idx // q):
                idx //= q
    num = h * rel
    if num % idx:
        raise RuntimeError("Picard cardinality is not integral; bug")
    return PicReport(h, idx, rel, num // idx)


@dataclass
class PicChowReport:
    surjective: bool                 # every local Chow group Z/g_i is trivial
    injective: object                # True / False / None ("unknown")
    pic: PicReport = None            # None on the declared backend


def pic_chow_report(order: OrderData) -> PicChowReport:
    """Injectivity and surjectivity of the canonical map Pic -> Chow.

    The map is onto exactly when every g_i is 1.  It is not injective when
    the push-forward kernel has a nontrivial class, that is when
    |Cl/N| < |Cl|; otherwise it is injective exactly when |Pic| = |Cl|,
    unknown on the declared backend.
    The report carries the order's ``pic_cardinality``, computed once here,
    so a caller that prints both needs no second unit computation.
    """
    cl = order.class_group()
    try:
        pic = pic_cardinality(order)
    except BackendError:
        pic = None
    surjective = all(p.g == 1 for p in order.primes)
    if order.cl_mod_n.cardinality() < cl.cardinality():
        return PicChowReport(surjective, False, pic)
    if pic is None:
        return PicChowReport(surjective, None)
    return PicChowReport(surjective, pic.pic_cardinality == cl.cardinality(), pic)


def find_trivial_chow_conductor(field: QuadField, prime_budget: int = 100):
    """Search for a conductor f with Chow(Z + f*O~) trivial.

    Chow(Z + f*O~) is trivial exactly when no prime of f is inert (an inert
    prime has local Chow group Z/2) and N = Cl.  A split prime p adds the
    kernel classes 0 and [P] - [P'] = 2[P] to N, a ramified one adds 0, so
    N lies in 2*Cl: an even |Cl| admits no such f, and None comes back at
    once.  For odd |Cl|, 2*Cl = Cl, and Cl is spanned by the split primes up
    to ``class_prime_bound`` (a ramified class has order 2, so it is 0), so
    the scan stops there, or at the budget if that comes first.  Split
    primes are taken in increasing order; a prime is kept when 2[P] is not 0
    in the current Cl/N, which is then rebuilt.  Success is re-verified by
    an actual Chow computation.  Returns f, or None.

    >>> from chowkit.quadfield import make_field
    >>> find_trivial_chow_conductor(make_field(-23))
    2
    >>> find_trivial_chow_conductor(make_field(-84)) is None   # |Cl| = 4
    True
    """
    cg = field_class_group(field)
    cl = cg.group
    if cl.is_trivial():
        return 1
    if cl.cardinality() % 2 == 0:
        return None
    bound = class_prime_bound(field.d)
    cl_mod_n = subgroup_quotient(cl, ())
    n_sub = []
    chosen = []
    for p in primes_below(min(prime_budget, bound) + 1):
        places = _splitting(field, p)
        if places[0].kind != "split":
            continue  # inert primes block, ramified ones contribute nothing
        contrib = 2 * cg.dlog(places[0].ideal())
        if cl_mod_n.member(contrib.coords).is_identity():
            continue
        n_sub.append(contrib)
        chosen.append(p)
        cl_mod_n = subgroup_quotient(cl, n_sub)
        if cl_mod_n.is_trivial():
            f = prod(chosen)
            verify = chow_group(order_from_conductor(field, f))
            if not verify.result.is_trivial():
                raise RuntimeError("search verified false positive; bug")
            return f
    if prime_budget >= bound:
        raise RuntimeError("odd class group not spanned below its prime bound; bug")
    return None
