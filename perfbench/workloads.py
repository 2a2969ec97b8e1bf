"""Seeded input generation for the three benchmark workloads.

Each generator returns a JSON-serialisable dict: the fixed set-up data (if
any) under ``"setup"`` and the op list under ``"ops"``.  The same seed always
gives the same inputs.  The parameters that drive cost are drawn from
low-discrepancy (Kronecker) sequences with a seeded start, so that every
prefix of the op list -- a run processes a prefix -- already covers the
stated ranges evenly and runs with different seeds see a similar mix.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

PRIMES_1000 = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
PRIMES_100 = [p for p in PRIMES_1000 if p < 100]
SMALL_PRIMES = [p for p in PRIMES_100 if p < 60]


def kronecker(rng, dims):
    """Endless low-discrepancy sequence in [0, 1)^dims with a seeded start:
    the additive recurrence by 1/g, ..., 1/g^dims, where g > 1 solves
    g^(dims+1) = g + 1 (Roberts 2018; g is the golden ratio for dims = 1)."""
    g = 2.0
    for _ in range(60):
        g = (1 + g) ** (1 / (dims + 1))
    steps = [g ** -(j + 1) for j in range(dims)]
    point = [rng.random() for _ in range(dims)]
    while True:
        yield tuple(point)
        point = [(x + a) % 1.0 for x, a in zip(point, steps)]


def log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


# --- table-cold ----------------------------------------------------------------


def _squarefree(n):
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def is_fundamental(d):
    """Fundamental discriminant test, independent of the library."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        core = d
    elif d % 4 == 0:
        core = d // 4
        if core % 4 in (0, 1):
            return False
    else:
        return False
    if core > 0 and math.isqrt(core) ** 2 == core:
        return False
    return _squarefree(abs(core))


CHI = {"split": 1, "inert": -1, "ramified": 0}


def place_kind(d, p):
    """'split', 'inert' or 'ramified' for the prime p in Q(sqrt(d))."""
    if p == 2:
        if d % 2 == 0:
            return "ramified"
        return "split" if d % 8 == 1 else "inert"
    if d % p == 0:
        return "ramified"
    return "split" if pow(d % p, (p - 1) // 2, p) == 1 else "inert"


def _ideal_literal(rng, d):
    """Seeded exponent literal place:k over 1-3 small primes."""
    parts = []
    for p in sorted(rng.sample(SMALL_PRIMES[:10], rng.randint(1, 3))):
        if place_kind(d, p) == "split":
            parts += [f"{p}.0:{rng.randint(0, 3)}", f"{p}.1:{rng.randint(0, 3)}"]
        else:
            parts.append(f"{p}:{rng.randint(0, 3)}")
    return ",".join(parts)


def conductors(k):
    """Every product of k distinct primes below 60 with exponents 1-2,
    one entry per (primes, exponents) choice, sorted by size."""
    return sorted(math.prod(p ** e for p, e in zip(ps, es))
                  for ps in itertools.combinations(SMALL_PRIMES, k)
                  for es in itertools.product((1, 2), repeat=k))


def _factor_small(n):
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


def fundamental_unit(d):
    """(s, t, bits) with eps = s + t*omega the fundamental unit of the real
    field of fundamental discriminant d (omega = (d mod 2 + sqrt d)/2) and
    bits the bit length of 2*eps's rational part; independent of the library.

    eps is the product of the complete quotients (P + sqrt d)/Q over one
    period of the purely periodic continued fraction of (b + sqrt d)/2.
    """
    delta, sd = d % 2, math.isqrt(d)
    P, Q = (sd if sd % 2 == delta else sd - 1), 2
    X, Y, den = 1, 0, 1  # eps = (X + Y sqrt d) / den
    while True:
        a = (P + sd) // Q
        X, Y, den = X * P + Y * d, X + Y * P, den * Q
        g = math.gcd(math.gcd(X, Y), den)
        X, Y, den = X // g, Y // g, den // g
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == 2:
            break
    x, y = 2 * X // den, 2 * Y // den  # eps = (x + y sqrt d) / 2
    assert abs(x * x - d * y * y) == 4, "not a unit"
    return (x - y * delta) // 2, y, x.bit_length()


def relative_units(d, f):
    """|(O~/f)^*| / |(Z/f)^*| = prod over p^e || f of p^(e-1) (p - (d/p))."""
    out = 1
    for p, e in _factor_small(f).items():
        out *= p ** (e - 1) * (p - CHI[place_kind(d, p)])
    return out


def _reduce_form(a, b, c):
    """Reduced representative of the positive definite form (a, b, c)."""
    while True:
        if not -a < b <= a:
            q, r = divmod(b, 2 * a)
            if r > a:
                q, r = q + 1, r - 2 * a
            c -= q * (b + r) // 2
            b = r
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _compose(f1, f2, d):
    """Reduced composition of two primitive forms of discriminant d < 0
    (Cohen, A Course in Computational Algebraic Number Theory, 5.4.7)."""
    (a1, b1, _), (a2, b2, c2) = sorted((f1, f2))
    s, n = (b1 + b2) // 2, b2 - (b1 + b2) // 2
    if a2 % a1 == 0:
        y1, g = 0, a1
    else:
        g, y1, _ = _xgcd(a2, a1)
    if s % g == 0:
        x2, y2, g1 = 0, -1, g
    else:
        g1, x2, y2 = _xgcd(s, g)
        y2 = -y2
    v1, v2 = a1 // g1, a2 // g1
    r = (y1 * y2 * n - x2 * c2) % v1
    a3, b3 = v1 * v2, b2 + 2 * v2 * r
    return _reduce_form(a3, b3, (b3 * b3 - d) // (4 * a3))


def first_class_order(d):
    """Order of the class of a prime ideal over the smallest non-inert
    prime of the imaginary field of discriminant d; independent of the
    library.

    That ideal is the first generator the library's class-group build
    tries; the build walks a chain of that many unreduced ideal powers, and
    its time grows about with the square of the chain's length.
    """
    p = next(p for p in PRIMES_1000 if place_kind(d, p) != "inert")
    b = next(b for b in range(2 * p) if (b * b - d) % (4 * p) == 0)
    gen = _reduce_form(p, b, (b * b - d) // (4 * p))
    one = _reduce_form(1, d % 2, (d % 2 - d) // 4)
    form, order = gen, 1
    while form != one:
        form, order = _compose(form, gen, d), order + 1
    return order


def _order_quantiles():
    """Sorted first_class_order(d) / sqrt(|d|) over a fixed sample of
    imaginary fundamental discriminants, |d| log-uniform in [1e4, 1e6]."""
    rng = random.Random(0)
    out = []
    while len(out) < 600:
        d = -int(log_uniform(rng.random(), 1e4, 1e6))
        if is_fundamental(d):
            out.append(first_class_order(d) / math.sqrt(-d))
    return sorted(out)


def unit_index_cost(d, f):
    """(unit index [O~^* : O^*], bits of eps) for the order of conductor f
    in the real field of discriminant d.

    The index is the order of eps modulo Z + f*O~, found from the group
    order prod p^(e-1) (p - (d/p)) of (O~/f)^* / (Z/f)^* by exponentiation
    modulo f.  The library finds it by multiplying out eps^k exactly, so its
    cost grows like bits * index^2.
    """
    s, t, bits = fundamental_unit(d)
    delta, c = d % 2, (d - d % 2) // 4  # omega^2 = delta*omega + c

    def mul(a, b):
        return ((a[0] * b[0] + c * a[1] * b[1]) % f,
                (a[0] * b[1] + a[1] * b[0] + delta * a[1] * b[1]) % f)

    def power(k):
        r, base = (1, 0), (s % f, t % f)
        while k:
            if k & 1:
                r = mul(r, base)
            base = mul(base, base)
            k >>= 1
        return r

    group = relative_units(d, f)
    index = group
    for q in _factor_small(group):
        while index % q == 0 and power(index // q)[1] == 0:
            index //= q
    return index, bits


# Largest bits * index^2 of a real non-maximal row (about 0.1 s of the
# unit-index loop on a 2-vCPU x86-64 VM).  The loop's cost has no ceiling:
# over [1e4, 1e6] and these conductors it reaches 1e14, hours for one row.
UNIT_COST_CAP = 1_000_000


NEIGHBOURS = 16


def table_cold(seed, n_ops):
    """Fresh (d, f) rows: |d| log-uniform in [1e4, 1e6], both signs, and f
    uniform over the products of 0-3 primes below 60 with exponents 1-2.

    Rows cycle through the eight strata (sign, number of conductor primes
    0..3).  Within a stratum, (|d|, f, w) follow a seeded three-dimensional
    low-discrepancy sequence, with f taken by quantile from the sorted list
    of all candidates, so any prefix holds a near-fixed mix of field and
    conductor sizes.  An imaginary row takes, of the NEIGHBOURS fundamental
    discriminants from |d| on, the one whose first_class_order r is nearest
    (in ratio) to sqrt(|d|) times the w-quantile of r / sqrt(|d|) over a
    fixed sample: the class-group build's cost grows about with r^2, and the
    few rows with the largest r set the latency tail, so their r must
    follow (u, w) and not the seed.  The chosen fields keep the natural
    distribution of r.
    Every d is distinct, so every row misses the class-group cache.  Real
    rows with f > 1 whose unit-index loop would cost more than UNIT_COST_CAP
    are skipped for the next point of the sequence.
    """
    rng = random.Random(seed)
    quantiles = _order_quantiles()
    strata = [(s, k) for s in (-1, 1) for k in range(4)]
    seqs = {st: kronecker(rng, 3) for st in strata}
    cands = [conductors(k) for k in range(4)]
    seen = set()
    ops = []
    while len(ops) < n_ops:
        block = strata[:]
        rng.shuffle(block)
        for sign, k in block:
            while True:
                u, v, w = next(seqs[(sign, k)])
                d = sign * int(log_uniform(u, 1e4, 1e6))
                near = []
                while len(near) < (NEIGHBOURS if sign < 0 else 1):
                    if is_fundamental(d) and d not in seen:
                        near.append(d)
                    d += sign
                d = near[0]
                if sign < 0:
                    target = math.sqrt(-d) * quantiles[int(w * len(quantiles))]
                    d = min(near, key=lambda x: abs(math.log(first_class_order(x) / target)))
                f = cands[k][int(v * len(cands[k]))]
                if sign < 0 or k == 0:
                    index = None
                    break
                index, bits = unit_index_cost(d, f)
                if bits * index * index <= UNIT_COST_CAP:
                    break
            seen.add(d)
            # expected values for the output checks, computed here independently
            ops.append({"d": d, "f": f, "ideal": _ideal_literal(rng, d),
                        "relative_units": relative_units(d, f), "unit_index": index})
    return {"setup": {}, "ops": ops[:n_ops]}


# --- principal-warm -----------------------------------------------------------

# (discriminant, conductor, largest coordinate bits of alpha).  Both signs,
# small and larger class groups, and Q(sqrt(94)) whose fundamental unit has
# 18-bit coordinates.  At the bit caps the box search often runs out of its
# step budget (worker.SEARCH_STEPS).  The large-h order (-837191, 3) is left
# out: there one box-search step costs milliseconds (100 steps took 0.3-1.5 s
# on a 2-vCPU x86-64 VM), so no step budget keeps its ops short.
PRINCIPAL_ORDERS = (
    (-23, 10, 22),
    (-3299, 10, 16),
    (1001, 6, 14),
    (376, 7, 28),
)
CYCLE = len(PRINCIPAL_ORDERS) + 1  # one op per order, then a witness op
# Imaginary fields for the kernel-witness ops: f is a product of 2-3 split
# primes below 60.  The witness's generator search has no step bound; it
# walks up to sqrt(4N/|d|) steps for a kernel ideal of norm N, and with the
# coefficient box worker.WITNESS_BOX = 1, N is at most (59*53*47)^2.  With
# larger primes, more of them or a wider box, one op can take seconds.
WITNESS_FIELDS = (-23, -47, -71, -3299)


def smooth_elements(d):
    """(u, v) with v > 0, |u|, v small and N(u + v*w) nonzero and 1000-smooth."""
    out = []
    for v in range(1, 4):
        for u in range(-400, 401):
            n = abs(u * u + u * v * d + v * v * (d * d - d) // 4)
            for p in PRIMES_1000:
                while n and n % p == 0:
                    n //= p
            if n == 1:
                out.append((u, v))
    return out


def principal_warm(seed, n_ops):
    """Divisors div_O(alpha) (principal) and div_O(alpha) + P (not principal).

    alpha is a product of random small elements of 1000-smooth norm, so its
    divisor is cheap to write down and to check; its omega-coordinate
    bits are log-uniform from 2 up to the order's cap.  P is a place whose
    Chow class is nonzero.  Ops cycle through the four orders and a
    kernel-witness op, alternating principal and non-principal divisors per
    order, so every run sees the same mix.
    """
    from chowkit import Divisor, chow_group, div_over_order, make_field, order_from_conductor
    from chowkit.quadfield import QElement

    rng = random.Random(seed)
    orders, bad_places, pools = [], [], []
    for d, f, _ in PRINCIPAL_ORDERS:
        order = order_from_conductor(make_field(d), f)
        pres = chow_group(order)
        cands = []
        for p in SMALL_PRIMES[:12]:
            # one order-level label per prime over the conductor
            split = place_kind(d, p) == "split" and f % p
            labels = [f"{p}.0", f"{p}.1"] if split else [str(p)]
            for label in labels:
                if not pres.project(Divisor("order", {label: 1})).is_identity():
                    cands.append(label)
        orders.append(order)
        bad_places.append(cands)
        pools.append(smooth_elements(d))
    witness_primes = {
        d: [p for p in SMALL_PRIMES if place_kind(d, p) == "split"]
        for d in WITNESS_FIELDS
    }
    bits_seq = [kronecker(rng, 1) for _ in PRINCIPAL_ORDERS]
    nsplit_seq = kronecker(rng, 1)
    ops = []
    for i in itertools.count():
        if len(ops) == n_ops:
            break
        j, turn = i % CYCLE, i // CYCLE
        if j == CYCLE - 1:
            d = WITNESS_FIELDS[turn % len(WITNESS_FIELDS)]
            n = 2 + int(next(nsplit_seq)[0] * 2)
            f = math.prod(rng.sample(witness_primes[d], n))
            ops.append({"kind": "witness", "d": d, "f": f})
            continue
        order = orders[j]
        target = int(log_uniform(next(bits_seq[j])[0], 2, PRINCIPAL_ORDERS[j][2]))
        alpha = QElement.from_int(order.field, 1)
        while max(abs(c) for c in alpha.omega_coords()[:2]).bit_length() < target:
            u, v = rng.choice(pools[j])
            sign = rng.choice((1, -1))
            alpha = alpha * QElement.from_omega(order.field, sign * u, sign * v)
        support = dict(div_over_order(order, alpha).support)
        principal = turn % 2 == 0
        if not principal:
            label = rng.choice(bad_places[j])
            support[label] = support.get(label, 0) + 1
        ops.append({"kind": "principal", "order": j, "divisor": support,
                    "principal": principal})
    return {"setup": {"orders": [[d, f] for d, f, _ in PRINCIPAL_ORDERS],
                      "fields": sorted({d for d, _, _ in PRINCIPAL_ORDERS} | set(WITNESS_FIELDS))},
            "ops": ops, "cyclic": True}


# --- declared-chow ------------------------------------------------------------

# A run visits each file two or three times, so the op mix (and the few
# largest files, which set the latency tail) averages over many files.
N_DECLARED_FILES = 192


def _declared_doc(rng, n_primes, rank):
    invariants = []
    for _ in range(rank):
        invariants.append((invariants[-1] if invariants else 1) * rng.choice((2, 2, 3, 4, 6)))
    # places per prime, 1-4, evenly spread, so the presentation's size is
    # set by the number of primes and not by the seed
    n_places = kronecker(rng, 1)
    records = []
    for i in range(n_primes):
        p = rng.choice(SMALL_PRIMES)
        places = [
            {"label": f"P{i}_{j}", "degree": rng.randint(1, 3),
             "ramification": rng.randint(1, 2),
             "class_image": [rng.randrange(m) for m in invariants]}
            for j in range(1 + int(4 * next(n_places)[0]))
        ]
        records.append({"label": f"q{i}", "p": p,
                        "residue_size_below": p ** rng.randint(1, 2), "places": places})
    return {"description": f"synthetic: {n_primes} conductor primes, class rank {rank}",
            "class_invariants": invariants, "conductor_primes": records}


def declared_chow(seed, n_ops, workdir):
    """Synthetic declared files, written to ``workdir`` before timing.

    File i has round(5 * 30**(i/191)) conductor primes, so sizes 5..150 are a
    fixed log-spaced ladder; the class rank runs 0..6 along the ladder.  The
    records themselves (primes, places, degrees, ramification, class images)
    are seeded.  Each op takes a file by a seeded low-discrepancy sequence
    over the ladder, so every prefix of the ops spreads evenly over the
    sizes, and a seeded divisor over its primes.
    """
    rng = random.Random(seed)
    files = []
    for i in range(N_DECLARED_FILES):
        n_primes = round(5 * 30 ** (i / (N_DECLARED_FILES - 1)))
        doc = _declared_doc(rng, n_primes, i % 7)
        path = os.path.join(workdir, f"decl{i:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        files.append((path, n_primes))
    pick = kronecker(rng, 1)
    ops = []
    for _ in range(n_ops):
        path, n_primes = files[int(next(pick)[0] * N_DECLARED_FILES)]
        chosen = rng.sample(range(n_primes), rng.randint(1, min(4, n_primes)))
        divisor = ",".join(f"q{c}:{rng.randint(-3, 3) or 1}" for c in sorted(chosen))
        ops.append({"file": path, "divisor": divisor})
    return {"setup": {}, "ops": ops}
