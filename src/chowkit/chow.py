"""Chow groups of orders, the principal divisor test, and Picard reports.

The Chow group of an order is computed from a finite presentation: with
non-invertible primes p_1..p_r, degrees d_{i,j} of the places above them,
g_i = gcd_j(d_{i,j}) and Bezout combinations Q_i = prod_j P_{i,j}^lambda_{i,j},
take

    G = (free group on the p_i)  +  Cl/N,
    N = < classes of (d_{i,j}/g_i)*Q_i - P_{i,j} >,
    R = < (g_i * p_i, -[Q_i]) >,

and Chow(O) = G/R.  The same data yields the exact-sequence decomposition
(image of the push-forward, local parts Z/g_i) and drives the principal
divisor test: membership in the push-forward image, an ideal lift, a class
check against the kernel subgroup, and finally a principal-ideal generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .abgroup import (
    AbelianGroup,
    GroupElement,
    IntMatrix,
    direct_sum_invariants,
    quotient,
    solve_combination,
    subgroup_quotient,
)
from .errors import BackendError
from .ntheory import factorize, primes_below
from .orders import (
    LEVEL_ORDER,
    Divisor,
    OrderData,
    divisor_to_ideal,
    kernel_generators,
    order_from_conductor,
)
from .quadfield import (
    QIdeal,
    QuadField,
    class_group as field_class_group,
    fundamental_unit,
    is_principal,
    _splitting,
    residue_unit_cardinality,
    unit_group_order,
)


@dataclass
class ChowPresentation:
    """Chow group as a quotient G/R, with a divisor projection."""

    order: OrderData
    generator_labels: tuple          # labels of the free part and of Cl/N
    n_generators: tuple              # classes generating N inside Cl
    q_classes: tuple                 # classes [Q_i], one per prime
    relations: IntMatrix             # the rows (g_i p_i, -[Q_i])
    cl_mod_n: AbelianGroup
    result: AbelianGroup

    @property
    def invariant_factors(self):
        return self.result.invariant_factors

    def cardinality(self):
        return self.result.cardinality()

    def project(self, D: Divisor) -> GroupElement:
        """Class of a divisor over the order in the Chow group."""
        if D.level != LEVEL_ORDER:
            raise ValueError("expected a divisor over the order")
        order = self.order
        cl = order.class_group()
        avec = []
        seen = set()
        for prime in order.primes:
            avec.append(D.coefficient(prime.label))
            seen.add(prime.label)
        s = cl.identity()
        for label, coeff in D.support.items():
            if label in seen:
                continue
            s = s + coeff * order.invertible_place_class(label)
        sbar = self.cl_mod_n.member(s.coords)
        return self.result.member(avec + list(sbar.coords))


def _prime_fabric(order: OrderData):
    """Per-prime data: place classes, [Q_i], and the N generators."""
    cl = order.class_group()
    q_classes = []
    n_gens = []
    for prime in order.primes:
        classes = [order.place_class(pl) for pl in prime.places]
        q = cl.identity()
        for lam, c in zip(prime.lambdas, classes):
            if lam:
                q = q + lam * c
        q_classes.append(q)
        for pl, c in zip(prime.places, classes):
            n_gens.append((pl.degree // prime.g) * q - c)
    return cl, q_classes, n_gens


def chow_group(order: OrderData) -> ChowPresentation:
    """Chow group of the order via the G/R presentation."""
    cl, q_classes, n_gens = _prime_fabric(order)
    cl_mod_n = subgroup_quotient(cl, n_gens)
    r = len(order.primes)
    k = cl_mod_n.rank
    rows = []
    for j, dmod in enumerate(cl_mod_n.invariant_factors):
        row = [0] * (r + k)
        row[r + j] = dmod
        rows.append(row)
    r_rows = []
    for i, prime in enumerate(order.primes):
        qbar = cl_mod_n.member(q_classes[i].coords)
        row = [0] * (r + k)
        row[i] = prime.g
        for j, c in enumerate(qbar.coords):
            row[r + j] = -c
        rows.append(row)
        r_rows.append(row)
    result = quotient(r + k, rows)
    labels = tuple(p.label for p in order.primes) + tuple(
        f"cl{j}" for j in range(k))
    return ChowPresentation(
        order=order,
        generator_labels=labels,
        n_generators=tuple(n_gens),
        q_classes=tuple(q_classes),
        relations=IntMatrix(r_rows, cols=r + k),
        cl_mod_n=cl_mod_n,
        result=result,
    )


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
    coefficient at p_i); (2) lift to an ideal of the normalization using the
    Bezout data; (3)-(4) class group and kernel generators; (5) test the
    lift's class against the kernel subgroup; (6) correct by a kernel ideal
    and extract a generator.  Declared orders stop after step (5).
    """
    if D.level != LEVEL_ORDER:
        raise ValueError("expected a divisor over the order")
    cl, q_classes, n_gens = _prime_fabric(order)

    # step 1: image membership
    for prime in order.primes:
        a_i = D.coefficient(prime.label)
        if a_i % prime.g:
            return PrincipalResult(
                "not-principal", failing_step=1,
                detail=f"coefficient {a_i} at {prime.label} is not divisible by g = {prime.g}",
            )

    prime_labels = {p.label for p in order.primes}
    invertible = {l: c for l, c in D.support.items() if l not in prime_labels}

    # step 2 at the level of classes: [A] for a lift A with f_*(div A) = D
    cls_a = cl.identity()
    for prime, q in zip(order.primes, q_classes):
        a_i = D.coefficient(prime.label)
        if a_i:
            cls_a = cls_a + (a_i // prime.g) * q
    for label, coeff in invertible.items():
        cls_a = cls_a + coeff * order.invertible_place_class(label)

    # step 5: does some kernel ideal cancel the class of the lift?
    x = solve_combination(cl, n_gens, -cls_a)
    if x is None:
        return PrincipalResult(
            "not-principal", failing_step=5,
            detail="ideal class of the lift lies outside the kernel subgroup",
        )
    if not order.is_quadratic:
        return PrincipalResult("principal-no-generator",
                               detail="declared backend stops after the class test")

    # step 6: assemble A * B and extract a generator
    field = order.field
    lift = QIdeal.unit_ideal(field)
    for prime, q in zip(order.primes, q_classes):
        a_i = D.coefficient(prime.label)
        if not a_i:
            continue
        q_ideal = QIdeal.unit_ideal(field)
        for pl, lam in zip(prime.places, prime.lambdas):
            if lam:
                q_ideal = q_ideal * pl.place.ideal() ** lam
        lift = lift * q_ideal ** (a_i // prime.g)
    for label, coeff in invertible.items():
        from .orders import resolve_place

        lift = lift * resolve_place(field, label).ideal() ** coeff
    correction = QIdeal.unit_ideal(field)
    for coeff, gen_div in zip(x, kernel_generators(order)):
        if coeff and not gen_div.is_zero():
            correction = correction * divisor_to_ideal(order, gen_div) ** coeff
    alpha = is_principal(field, lift * correction, max_steps=max_steps)
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
    """Picard group cardinality from the unit/class exact sequence."""
    if not order.is_quadratic:
        raise BackendError("Picard cardinality needs the quadratic backend")
    field = order.field
    f = order.conductor
    h = field_class_group(field).group.cardinality()
    if f == 1:
        return PicReport(h, 1, 1, h)
    resid = residue_unit_cardinality(field, f)
    phi = 1
    for p, e in factorize(f).items():
        phi *= p ** (e - 1) * (p - 1)
    if resid % phi:
        raise RuntimeError("residue unit count not divisible by phi(f); bug")
    rel = resid // phi
    if field.is_imaginary:
        idx = unit_group_order(field) // 2
    else:
        eps = fundamental_unit(field)
        idx = 1
        u = eps
        while u.omega_coords()[1] % f:
            u = u * eps
            idx += 1
            if idx > resid:
                raise RuntimeError("unit index exceeded the residue bound; bug")
    num = h * rel
    if num % idx:
        raise RuntimeError("Picard cardinality is not integral; bug")
    return PicReport(h, idx, rel, num // idx)


@dataclass
class PicChowReport:
    surjective: bool
    injective: object                # True / False / None ("unknown")
    reasons: tuple


def pic_chow_report(order: OrderData) -> PicChowReport:
    """Injectivity and surjectivity of the canonical map Pic -> Chow."""
    cl, _, n_gens = _prime_fabric(order)
    reasons = []
    surjective = all(p.g == 1 for p in order.primes)
    if surjective:
        reasons.append("all local Chow groups are trivial")
    else:
        bad = [p.label for p in order.primes if p.g > 1]
        reasons.append("nontrivial local Chow group at " + ", ".join(bad))
    kernel_trivial = all(g.is_identity() for g in n_gens)
    if not kernel_trivial:
        reasons.append("push-forward kernel has nontrivial classes")
        return PicChowReport(surjective, False, tuple(reasons))
    if not order.is_quadratic:
        reasons.append("unit data unavailable on the declared backend")
        return PicChowReport(surjective, None, tuple(reasons))
    pic = pic_cardinality(order).pic_cardinality
    h = cl.cardinality()
    injective = pic == h
    reasons.append(
        f"|Pic| = {pic} and |Cl| = {h} "
        + ("agree" if injective else "differ")
        + "; kernel classes trivial"
    )
    return PicChowReport(surjective, injective, tuple(reasons))


def find_trivial_chow_conductor(field: QuadField, prime_budget: int = 100):
    """Search for a conductor f with Chow(Z + f*O~) trivial.

    Split primes are scanned in increasing order; a prime is kept when the
    class of its kernel generator enlarges the subgroup N.  Success is
    re-verified by an actual Chow computation.  Returns f or None.
    """
    cg = field_class_group(field)
    cl = cg.group
    if cl.is_trivial():
        return 1
    n_sub = []
    chosen = []
    for p in primes_below(prime_budget + 1):
        places = _splitting(field, p)
        if places[0].kind != "split":
            continue  # inert primes block, ramified ones contribute nothing
        c = cg.dlog(places[0].ideal())
        contrib = 2 * c
        if contrib.is_identity():
            continue
        if solve_combination(cl, n_sub, contrib) is not None:
            continue
        n_sub.append(contrib)
        chosen.append(p)
        if subgroup_quotient(cl, n_sub).is_trivial():
            f = prod(chosen)
            verify = chow_group(order_from_conductor(field, f))
            if not verify.result.is_trivial():
                raise RuntimeError("search verified false positive; bug")
            return f
    return None
