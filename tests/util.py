"""Shared helpers for the test suite: disc enumeration, oracles, transcription."""

from fractions import Fraction
from math import gcd, isqrt, prod

from chowkit import FieldInputError, make_field
from chowkit.abgroup import (
    AbelianGroup,
    element_order,
    quotient,
    solve_combination,
    subgroup_quotient,
)
from chowkit.chow import chow_group, principal_divisor_test
from chowkit.declared import DeclaredField, DeclaredPlace, declared_order
from chowkit.orders import (
    LEVEL_NORMALIZATION,
    DeclaredOrder,
    Divisor,
    NonInvertiblePrime,
    QuadraticOrder,
    kernel_vectors,
    order_from_conductor,
    resolve_place,
)
from chowkit.ntheory import egcd, factorize, primes_below
from chowkit.quadfield import (
    QElement,
    QIdeal,
    _compose,
    _reduce_imag,
    _reduce_real,
    _rho_real,
    class_group,
    class_prime_bound,
    fundamental_unit,
    principal_ideal,
    splitting,
)


def fundamental_discriminants(bound, sign=None):
    """All fundamental discriminants with |d| <= bound (sign: -1, +1 or None)."""
    out = []
    for mag in range(3, bound + 1):
        for d in (-mag, mag):
            if sign is not None and (d > 0) != (sign > 0):
                continue
            try:
                make_field(d)
            except FieldInputError:
                continue
            out.append(d)
    return out


def enumerate_subgroup_order(G, gens):
    """Order of <gens> in a finite group by closure enumeration."""
    seen = {G.identity()}
    frontier = [G.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x + g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def reduced_cycle_count(d):
    """Number of cycles of reduced indefinite forms of discriminant d > 0.

    Independent narrow class-number oracle, from the definitions only: the
    reduced primitive forms (a, b, c), |sqrt(d) - 2|a|| < b < sqrt(d), are
    enumerated, and each is linked to its right neighbour, the unique
    reduced form (c, b', c') with b + b' = 0 (mod 2c).  The links form a
    permutation whose cycles are counted.
    """
    sd = isqrt(d)
    forms = []
    for b in range(1, sd + 1):
        if (b * b - d) % 4:
            continue
        ac = (b * b - d) // 4            # a*c < 0
        for a in range(1, sd + 1):       # reduced forms have |a| < sqrt(d)
            if ac % a:
                continue
            for sa in (a, -a):
                c = ac // sa
                if (2 * a + b) ** 2 > d and (2 * a <= b or (2 * a - b) ** 2 < d) \
                        and gcd(gcd(a, b), abs(c)) == 1:
                    forms.append((sa, b, c))
    by_lead = {}
    for f in forms:
        by_lead.setdefault(f[0], []).append(f)

    def neighbour(f):
        _, b, c = f
        (g,) = [h for h in by_lead[c] if (b + h[1]) % (2 * c) == 0]
        return g

    seen = set()
    cycles = 0
    for f in forms:
        if f in seen:
            continue
        cycles += 1
        while f not in seen:
            seen.add(f)
            f = neighbour(f)
    return cycles


def unit_index_by_powers(field, f):
    """[O~^* : O^*] for O = Z + f*O~ in a real field, from the definition.

    The least k >= 1 with eps^k in Z + f*O~ (omega-coordinate divisible by
    f), found by multiplying the fundamental unit out at full precision.
    """
    eps = fundamental_unit(field)
    k, u = 1, eps
    while u.omega_coords()[1] % f:
        u = u * eps
        k += 1
    return k


def ideal_contains(I, elt):
    """Whether the field element elt lies in the fractional ideal I."""
    if elt.field.d != I.field.d:
        raise TypeError("element of a different field")
    if elt.is_zero():
        return True
    u, v, den = elt.omega_coords()
    q = den * I.content  # elt in c*L0  <=>  (u + v*w) in (den*c)*L0
    qn, qd = q.numerator, q.denominator
    if (qd * v) % qn:
        return False
    t = qd * v // qn
    return (qd * u - t * qn * I.b) % (qn * I.a) == 0


def ord_by_place_powers(field, place, a):
    """Exponent of the place in a*Z[w]: the numerator (x + y*sqrt(d))/2 lies
    in P^k for k = 0, 1, ... until it does not, one product per k, less
    v_p(den) * e.  The reference for ``quadfield.element_divisor``."""
    num = QElement(field, a.x, a.y, 1)
    P = place.ideal()
    k = 0
    power = P
    while ideal_contains(power, num):
        k += 1
        power = power * P
    vp = 0
    den = a.den
    while den % place.p == 0:
        vp += 1
        den //= place.p
    return k - vp * (2 if place.kind == "ramified" else 1)


def divisor_by_place_powers(field, a):
    """{place label: ord} over the primes of N(a) and of a's denominator,
    sorted by p and then by branch, by ``ord_by_place_powers``."""
    num_norm = (a.x * a.x - a.y * a.y * field.d) // 4
    out = {}
    for p in sorted(set(factorize(num_norm)) | set(factorize(a.den))):
        for place in splitting(field, p):
            o = ord_by_place_powers(field, place, a)
            if o:
                out[place.label] = o
    return out


def fundamental_unit_by_sqrt_m(field):
    """Fundamental unit eta > 1 of Z[sqrt(m)], m = d/4 for d = 0 (mod 4) and
    m = d otherwise, from one period of the continued fraction of sqrt(m),
    which ends at the partial quotient 2*floor(sqrt(m)).  For d = 0 (mod 4)
    Z[sqrt(m)] = Z[w] and eta is the fundamental unit; for d = 1 (mod 4)
    Z[sqrt(d)] has index 2 in Z[w] and eta is eps or eps^3."""
    d = field.d
    m = d // 4 if d % 4 == 0 else d
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
    return QElement(field, 2 * p_cur, q_cur if m != d else 2 * q_cur, 1)


def principal_generator_by_search(field, I):
    """Generator of I when principal, else None, by a complete box search.

    The reference for ``quadfield.is_principal``.  Lattice points
    (x + t*sqrt(d))/2 of the primitive part with |norm| = N(prim) are tried
    for t = 0, 1, ...: positive norm before negative, and x before -x in
    the iteration order of the set {x, -x}.  Imaginary case: t <= sqrt(4a/|d|).
    Real case: a generator can be scaled by unit powers into a box derived
    from the fundamental unit, so the search is also complete.  The hit is
    signed so that x > 0, or x = 0 and t > 0, and scaled by the content.
    """
    prim = I.primitive()
    a = prim.a
    d = field.d

    def found(x, y):
        if x < 0 or (x == 0 and y < 0):
            x, y = -x, -y
        return QElement(field, x, y, 1).scaled(I.content)

    if d < 0:
        tmax = isqrt(4 * a // (-d))
        for t in range(tmax + 1):
            rhs = 4 * a + t * t * d
            x = isqrt(rhs)
            if x * x != rhs:
                continue
            for cx in {x, -x}:
                z = QElement(field, cx, t, 1)
                if (cx - t * d) % 2 == 0 and ideal_contains(prim, z):
                    return found(cx, t)
        return None

    eps = fundamental_unit(field)
    sd = isqrt(d)
    ub = (eps.x + eps.y * (sd + 1)) // 2 + 2  # integer bound on eps + 1
    ymax = isqrt(ub * ub * a // d) + 1
    for t in range(ymax + 1):
        for rhs in (t * t * d + 4 * a, t * t * d - 4 * a):
            if rhs < 0:
                continue
            x = isqrt(rhs)
            if x * x != rhs:
                continue
            for cx in {x, -x}:
                z = QElement(field, cx, t, 1)
                if (cx - t * d) % 2 == 0 and not z.is_zero() and ideal_contains(prim, z):
                    return found(cx, t)
    return None


def ideal_from_lattice(field, rows, denom=1):
    """Ideal spanned by (u, v) coordinate rows over (1, w), scaled by 1/denom.

    Hermite normal form of the row lattice: g*Z + ... in the w-coordinate,
    then the gcd n of the w-free combinations.  The reference for ideal
    products and principal ideals, which ``quadfield`` computes on forms.
    """
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
    assert g, "lattice has rank < 2"
    n = 0
    for u, v in rows:
        n = gcd(n, u - (v // g) * m)
    assert n, "lattice has rank < 2"
    assert m % g == 0 and n % g == 0, "lattice is not an ideal"
    return QIdeal(field, n // g, (m // g) % (n // g), Fraction(g, denom))


def ideal_product_by_lattice(I, J):
    """I * J from the four products of the Z-bases of the primitive parts."""
    field = I.field
    d, nw = field.d, field.omega_norm
    a1, b1, a2, b2 = I.a, I.b, J.a, J.b
    rows = ((a1 * a2, 0), (a1 * b2, a1), (a2 * b1, a2),
            (b1 * b2 - nw, b1 + b2 + d))
    out = ideal_from_lattice(field, rows)
    return QIdeal(field, out.a, out.b, out.content * I.content * J.content)


def principal_ideal_by_lattice(alpha):
    """alpha * Z[w] from the lattice spanned by alpha and alpha * w."""
    field = alpha.field
    u1, v1, den1 = alpha.omega_coords()
    u2, v2, den2 = (alpha * field.omega()).omega_coords()
    lcm = den1 * den2 // gcd(den1, den2)
    rows = ((u1 * (lcm // den1), v1 * (lcm // den1)),
            (u2 * (lcm // den2), v2 * (lcm // den2)))
    return ideal_from_lattice(field, rows, denom=lcm)


def quotient_ring_kind_mod2(d):
    """Structure of Z[w]/2Z[w] by brute force on its four elements.

    Returns 'split' (F2 x F2), 'inert' (F4) or 'ramified' (F2[t]/t^2);
    used as an independent splitting oracle at p = 2.
    """
    n = ((d * d - d) // 4) % 2
    t = d % 2

    def mul(u, v):
        a, b = u
        c, e = v
        return ((a * c + b * e * n) % 2, (a * e + b * c + b * e * t) % 2)

    elems = [(a, b) for a in (0, 1) for b in (0, 1)]
    if any(u != (0, 0) and mul(u, u) == (0, 0) for u in elems):
        return "ramified"
    if any(u not in ((0, 0), (1, 0)) and mul(u, u) == u for u in elems):
        return "split"
    return "inert"


def transcribe_to_declared(order, reverse_places=False):
    """Hand-transcribe a quadratic order into declared data.

    Copies the class-group invariants and, per conductor prime, the places
    with their degrees, ramification exponents and class images; optionally
    reverses each place list to exercise a different Bezout/Q_i choice.
    """
    assert isinstance(order, QuadraticOrder)
    cg = class_group(order.field)
    invariants = list(cg.group.invariant_factors)
    recs = []
    for prime in order.primes:
        places = []
        for pl in prime.places:
            img = cg.dlog(pl.ideal()).coords
            places.append(DeclaredPlace(pl.label, pl.degree, pl.e, tuple(img)))
        if reverse_places:
            places = list(reversed(places))
        recs.append(NonInvertiblePrime(prime.label, prime.p, prime.residue_size,
                                       tuple(places)))
    decl = DeclaredField(
        f"transcribed from disc {order.field.d}, conductor {order.conductor}",
        tuple(invariants), tuple(recs))
    return declared_order(decl, decl.prime_labels)


def random_declared_field(rng, n_primes, chain, g_values=(1, 2, 3), uniform=False):
    """Seeded declared data with ``n_primes`` records over the class group
    with invariant factors ``chain``.

    Each record gets g_i drawn from ``g_values``: its first place has
    degree g_i, the others multiples of it.  With ``uniform`` every place of
    a record has degree g_i and one shared class image, so every N
    generator is 0 and Cl/N = Cl; otherwise the images are drawn per place.
    """
    records = []
    for i in range(n_primes):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        g = rng.choice(g_values)
        n_places = rng.randint(1, 4)
        image = [rng.randrange(d) for d in chain]
        places = []
        for j in range(n_places):
            degree = g if uniform or j == 0 else g * rng.choice((1, 2, 3, 5))
            if not uniform:
                image = [rng.randrange(d) for d in chain]
            places.append(DeclaredPlace(f"P{i}_{j}", degree, rng.randint(1, 2),
                                        tuple(image)))
        records.append(NonInvertiblePrime(f"q{i}", p, p, tuple(places)))
    return DeclaredField(f"{n_primes} random primes", tuple(chain), tuple(records))


def subgroup_quotient_by_raw_rows(G, subgen):
    """G modulo the subgroup generated by ``subgen``, by one ``quotient`` of
    the rows d_j*e_j of the finite factors and one raw row per generator:
    the reference for the Hermite ``abgroup.subgroup_quotient``."""
    k = G.rank
    rows = []
    for j, d in enumerate(G.invariant_factors):
        if d:
            row = [0] * k
            row[j] = d
            rows.append(row)
    rows += [list(g.coords) for g in subgen]
    return quotient(k, rows)


def fabric_by_group_arithmetic(order):
    """(Cl, [Q_i], N generators) by group-element arithmetic: the reference
    for ``order.class_group()``, the classes ``order.class_of`` gives
    ``prime.lambdas`` and the vectors of ``kernel_vectors``, and through
    ``qbars_by_group_arithmetic`` for ``chow_group(order).qbars``.  A
    declared class image is read as a vector in the class group's
    presentation coordinates (``member``), a quadratic place's class is its
    ``dlog``."""
    cl = order.class_group()
    declared = isinstance(order, DeclaredOrder)
    q_classes = []
    n_gens = []
    for prime in order.primes:
        classes = [cl.member(pl.class_image) if declared
                   else class_group(order.field).dlog(pl.ideal())
                   for pl in prime.places]
        q = cl.identity()
        for lam, c in zip(prime.lambdas, classes):
            q = q + lam * c
        q_classes.append(q)
        n_gens += [(pl.degree // prime.g) * q - c
                   for pl, c in zip(prime.places, classes)]
    return cl, tuple(q_classes), tuple(n_gens)


def qbars_by_group_arithmetic(order):
    """qbar_i per prime: the [Q_i] of ``fabric_by_group_arithmetic`` mapped
    into the order's Cl/N, in its reduced coordinates.  The reference for
    ``chow_group(order).qbars``."""
    _, q_classes, _ = fabric_by_group_arithmetic(order)
    return tuple(order.cl_mod_n.member(q.coords).coords for q in q_classes)


def fabric_of(order):
    """(Cl, [Q_i], kernel classes) through the order's own class map:
    ``order.class_of`` of ``prime.lambdas`` and of the vectors of
    ``kernel_vectors``, one Q_i per prime and one kernel class per (prime,
    place)."""
    return (order.class_group(),
            tuple(order.class_of(prime.places, prime.lambdas) for prime in order.primes),
            tuple(order.class_of(prime.places, gen)
                  for prime in order.primes for gen in kernel_vectors(prime)))


def chow_by_full_presentation(order):
    """Chow(O) = G/R by one ``quotient`` of the full (r + k)-column matrix:
    the moduli of Cl/N, then (g_i p_i, -[Q_i]) for every prime, none
    eliminated.  The reference for ``chow.chow_group``."""
    cl, q_classes, n_gens = fabric_by_group_arithmetic(order)
    cl_mod_n = subgroup_quotient_by_raw_rows(cl, n_gens)
    r, k = len(order.primes), cl_mod_n.rank
    rows = []
    for j, d in enumerate(cl_mod_n.invariant_factors):
        row = [0] * (r + k)
        row[r + j] = d
        rows.append(row)
    for i, (prime, q) in enumerate(zip(order.primes, q_classes)):
        row = [0] * (r + k)
        row[i] = prime.g
        for j, c in enumerate(cl_mod_n.member(q.coords).coords):
            row[r + j] = -c
        rows.append(row)
    return quotient(r + k, rows)


def bezout_gcd_by_rescaling(values):
    """The left fold of ``abgroup.bezout_gcd`` as first written: each fold
    step rescales every earlier lambda in place.  The reference for the
    fold that defers the rescaling."""
    values = [int(v) for v in values]
    if not any(values):
        raise ValueError("need at least one nonzero value")
    g = 0
    lambdas = [0] * len(values)
    for i, v in enumerate(values):
        if v == 0:
            continue
        if g == 0:
            g = abs(v)
            lambdas[i] = 1 if v > 0 else -1
            continue
        if v % g == 0:
            continue
        g2, s, t = egcd(g, v)
        for j in range(i):
            lambdas[j] *= s
        lambdas[i] = t
        g = g2
    return g, lambdas


def find_trivial_by_scan(field, prime_budget):
    """Conductor f with Chow(Z + f*O~) trivial by scanning every prime up to
    the budget, whatever |Cl|: a split prime is kept when 2[P] is outside
    the span of the kept classes (``solve_combination``), until they span
    Cl.  The reference for ``chow.find_trivial_chow_conductor``."""
    cg = class_group(field)
    cl = cg.group
    if cl.is_trivial():
        return 1
    n_sub = []
    chosen = []
    for p in primes_below(prime_budget + 1):
        place = splitting(field, p)[0]
        if place.kind != "split":
            continue
        contrib = 2 * cg.dlog(place.ideal())
        if contrib.is_identity() or solve_combination(cl, n_sub, contrib) is not None:
            continue
        n_sub.append(contrib)
        chosen.append(p)
        if subgroup_quotient(cl, n_sub).is_trivial():
            f = prod(chosen)
            assert chow_group(order_from_conductor(field, f)).result.is_trivial()
            return f
    return None


# imaginary and real fields, and conductors whose primes split, stay inert or
# ramify in them, prime powers among them: the sweep for the label-keyed
# references below
LIFT_FIELDS = (-23, -7, -20, -39, -47, -84, -95, 5, 40, 65, 229)
LIFT_CONDUCTORS = (2, 3, 4, 5, 6, 9, 10, 12, 15, 22, 25, 30)


def q_divisor_by_labels(prime):
    """Q_i = sum(lambda_{i,j} * P_{i,j}) as a divisor keyed by place labels."""
    return Divisor(LEVEL_NORMALIZATION, {
        pl.label: lam for pl, lam in zip(prime.places, prime.lambdas)})


def kernel_generators_by_labels(order):
    """(d_{i,j}/g_i) * Q_i - P_{i,j} per (prime, place), by divisor arithmetic."""
    return [(pl.degree // prime.g) * q_divisor_by_labels(prime)
            + Divisor(LEVEL_NORMALIZATION, {pl.label: -1})
            for prime in order.primes for pl in prime.places]


def ideal_by_labels(field, D):
    """Product of the place ideals of a normalization divisor, each place
    resolved again from its label, in sorted label order."""
    acc = QIdeal.unit_ideal(field)
    for label in sorted(D.support):
        acc = acc * resolve_place(field, label).ideal() ** D.support[label]
    return acc


def principal_lift_by_labels(order, D):
    """Ideal of the corrected lift of a divisor D over a quadratic order, or
    None when D fails step 1 or step 5 of the principal test.

    sum (a_i/g_i) Q_i plus the invertible part of D plus sum x_k gen_k,
    with x from ``solve_combination`` taken as balanced residues modulo the
    orders of the kernel classes, all as label-keyed divisors multiplied
    out through ``resolve_place``: the reference for step 6 of
    ``chow.principal_divisor_test``.
    """
    field = order.field
    cg = class_group(field)
    cl, q_classes, n_gens = fabric_by_group_arithmetic(order)
    prime_labels = {prime.label for prime in order.primes}
    invertible = {l: c for l, c in D.support.items() if l not in prime_labels}
    div = Divisor(LEVEL_NORMALIZATION, invertible)
    cls = cl.identity()
    for label, c in invertible.items():
        cls = cls + c * cg.dlog(resolve_place(field, label).ideal())
    for prime, q in zip(order.primes, q_classes):
        a = D.coefficient(prime.label)
        if a % prime.g:
            return None
        div = div + (a // prime.g) * q_divisor_by_labels(prime)
        cls = cls + (a // prime.g) * q
    x = solve_combination(cl, n_gens, -cls)
    if x is None:
        return None
    for coeff, gen, c in zip(x, kernel_generators_by_labels(order), n_gens):
        m = element_order(cl, c)
        coeff %= m
        div = div + (coeff - m if 2 * coeff > m else coeff) * gen
    return ideal_by_labels(field, div)


def lift_class_in_n_by_solve(order, D):
    """(class of the lift of D, whether it lies in N), or None when D fails
    step 1 of the principal test.  Whether the class lies in N is decided
    by ``solve_combination`` over the N generators, as step 5 of
    ``chow.principal_divisor_test`` decided it before it became one
    membership test in ``order.cl_mod_n``: the reference for that test."""
    cl, q_classes, n_gens = fabric_by_group_arithmetic(order)
    cls = cl.identity()
    for prime, q in zip(order.primes, q_classes):
        a = D.coefficient(prime.label)
        if a % prime.g:
            return None
        cls = cls + (a // prime.g) * q
    prime_labels = {prime.label for prime in order.primes}
    for label, c in D.support.items():
        if label not in prime_labels:
            cls = cls + c * class_group(order.field).dlog(
                resolve_place(order.field, label).ideal())
    return cls, solve_combination(cl, n_gens, -cls) is not None


def check_class_step(order, D):
    """Assert that membership in ``order.cl_mod_n`` and the status and
    ``failing_step`` of ``principal_divisor_test`` agree with
    ``lift_class_in_n_by_solve`` on D.  Returns its verdict: None when D
    fails step 1, else whether the lift's class lies in N."""
    ref = lift_class_in_n_by_solve(order, D)
    res = principal_divisor_test(order, D)
    if ref is None:
        assert (res.status, res.failing_step) == ("not-principal", 1), D
        return None
    cls, in_n = ref
    assert order.cl_mod_n.member(cls.coords).is_identity() == in_n, D
    if in_n:
        assert res.is_principal and res.failing_step is None, D
    else:
        assert (res.status, res.failing_step) == ("not-principal", 5), D
    return in_n


def witness_ideal_by_labels(order):
    """The principal ideal whose generator ``orders.divisor_kernel_witness``
    returns when no unit escapes the order: m*g for the nonzero kernel
    generator g whose class has the least order m (the first such), or None
    when every generator is zero."""
    cl, _, n_gens = fabric_by_group_arithmetic(order)
    pairs = [(element_order(cl, c), g)
             for g, c in zip(kernel_generators_by_labels(order), n_gens)
             if not g.is_zero()]
    if not pairs:
        return None
    m, g = min(pairs, key=lambda pair: pair[0])
    return ideal_by_labels(order.field, m * g)


def class_group_by_reps(field):
    """The class-group build that keyed each class by a reduced form (d < 0)
    or the least form of its rho cycle (d > 0) and kept, in a separate
    ``reps`` dict, a reduced form with a > 0 to compose with; every product
    was reduced, then keyed.  The reference for ``quadfield.class_group``.

    Returns (group, dlog): the class group on the span's generators and the
    map from an ideal to its class in it.
    """
    d = field.d
    sd = isqrt(d) if d > 0 else 0

    def reduced(form):
        if d < 0:
            return _reduce_imag(form)
        form = _reduce_real(d, sd, form)
        return _rho_real(d, sd, form) if form[0] < 0 else form

    def key(form):
        if d < 0:
            return _reduce_imag(form)
        start = _reduce_real(d, sd, form)
        cycle, f = [start], _rho_real(d, sd, start)
        while f != start:
            cycle.append(f)
            f = _rho_real(d, sd, f)
        return min(cycle)

    candidates = []
    for p in primes_below(class_prime_bound(d) + 1):
        place = splitting(field, p)[0]
        if place.kind != "inert":
            candidates.append(place.ideal().form())
    if d > 0:
        candidates.append(principal_ideal(field.sqrt_disc()).form())

    one = reduced((1, d, (d * d - d) // 4))
    table, reps, gens, rels = {key(one): ()}, {key(one): one}, [], []
    for form in candidates:
        cand = reduced(form)
        if key(cand) in table:
            continue
        idx, chain, power = len(gens), [], cand
        while key(power) not in table:
            chain.append(power)
            power = reduced(_compose(power, cand, d))
        r = len(chain) + 1
        base = table[key(power)]
        new_entries = {}
        for k_old, coords in table.items():
            for t in range(1, r):
                prod = reduced(_compose(reps[k_old], chain[t - 1], d))
                kk = key(prod)
                new_entries[kk] = coords + (0,) * (idx - len(coords)) + (t,)
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
    table = {k: v + (0,) * (n - len(v)) for k, v in table.items()}

    group = narrow = quotient(n, rows)
    if d > 0:
        t = narrow.member(table[key(candidates[-1])]).coords
        k = narrow.rank
        moduli = [[m if i == j else 0 for i in range(k)]
                  for j, m in enumerate(narrow.invariant_factors)]
        wide = quotient(k, moduli + [list(t)])
        group = AbelianGroup(wide.invariant_factors,
                             basis_change=narrow.basis_change @ wide.basis_change)
    return group, lambda ideal: group.member(table[key(ideal.form())])
