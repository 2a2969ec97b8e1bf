"""Finitely generated abelian groups in invariant-factor coordinates.

The computational core is an exact Smith normal form over the integers.  On
top of it sit the group constructions everything else reduces to: quotients
of free groups by relation lattices, quotients by finitely generated
subgroups, canonical coordinates, element orders, and deterministic Bezout
data for gcds of several integers.

Smith normal form (Cohen, GTM 138, Alg. 2.4.14): the pivot is the entry of
smallest nonzero absolute value in the trailing block, ties broken by (row,
col), so the transforms are reproducible.  The row-major pivot scan stops at
the first unit, which no later entry can displace, and a unit pivot skips
the divisibility scan.  The core logs its elementary row and column
operations instead of building U and V; each caller replays only what it
reads:
  * ``quotient``: the kept columns of V (``basis_change``) and the kept
    rows of V^-1 (``generator_lifts``), never U;
  * ``solve_combination``: U times the target and V times one vector;
  * ``smith_normal_form``: U and V in full, never V^-1.
``cyclic_sum`` needs no SNF: a direct sum of cyclic groups is put in
invariant-factor form over a coprime base of its moduli, built from gcds
only, with the CRT map from the summands' coordinates to the factors';
``direct_sum_invariants`` reads its factors.  ``subgroup_quotient`` first
reduces its generators into an upper-triangular (Hermite) basis, one at a
time, and stops once every pivot is 1 (Cohen, GTM 138, Sec. 2.4.2), so its
SNF sees at most rank(G) rows however many generators there are.

Conventions:
  * invariant factors are listed as d_1 | d_2 | ... with every d_i >= 2,
    followed by 0 entries for free summands; factors equal to 1 are dropped;
  * a group remembers the presentation it came from: ``basis_change`` maps
    row vectors in the original generator coordinates to invariant-factor
    coordinates, ``generator_lifts`` goes the other way (one row per
    factor).  A group given no presentation has None for both, and its
    ``member`` reads a vector as its coordinates; one given a
    ``basis_change`` and no lifts has ``generator_lifts`` None.

All arithmetic is on Python integers, so nothing overflows.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, prod
from operator import itemgetter

from .ntheory import egcd


class IntMatrix:
    """Immutable arbitrary-precision integer matrix, row-major.

    The rows are copied as tuples of the ints given, not converted entry by
    entry: ``ChowPresentation.relations`` of a few thousand primes, built
    when read, has millions of entries."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries, cols=None):
        data = tuple(map(tuple, entries))
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row length")
        else:
            width = 0 if cols is None else int(cols)
        self._data = data
        self.rows = len(data)
        self.cols = width

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def tolists(self):
        return [list(r) for r in self._data]

    def transpose(self):
        return IntMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose()._data
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self._data],
            cols=other.cols,
        )

    def mul_vec(self, vec):
        """Row vector times matrix: returns tuple of length self.cols."""
        vec = tuple(vec)
        if len(vec) != self.rows:
            raise ValueError("vector length mismatch")
        acc = [0] * self.cols
        for v, row in zip(vec, self._data):
            if v:
                acc = [a + v * b for a, b in zip(acc, row)]
        return tuple(acc)

    def det(self):
        """Exact determinant (fraction-free Bareiss)."""
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        n = self.rows
        if n == 0:
            return 1
        m = self.tolists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._data == other._data and self.cols == other.cols

    def __hash__(self):
        return hash((self._data, self.cols))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self._data]!r})"


def _as_rows(relations, n_cols):
    if isinstance(relations, IntMatrix):
        rows = relations.tolists()
        width = relations.cols
    else:
        rows = [list(map(int, r)) for r in relations]
        width = len(rows[0]) if rows else n_cols
    if rows and any(len(r) != width for r in rows):
        raise ValueError("ragged relation rows")
    if rows and n_cols is not None and width != n_cols:
        raise ValueError(f"relations have {width} columns, expected {n_cols}")
    return rows


def _snf_inplace(M, n_rows, n_cols):
    """Smith normal form of the row lists ``M`` (destroyed), as a log.

    Returns (diag, row_ops, col_ops).  The transforms are not built here:
    each elementary operation is logged as (dst, src, q), meaning "dst +=
    q * src" on rows or columns, with q = 0 for a swap of dst and src and
    (i, i, -2) for the final negation of row i.  U is the product of the
    row operations, V that of the column operations, and U*A*V is diagonal;
    ``_apply_row_ops`` and ``_apply_col_ops`` rebuild just the parts of U,
    V and V^-1 a caller reads.

    The pivot is the entry of smallest nonzero absolute value, ties broken
    by (row, col), which makes the transforms reproducible.  Two early exits
    keep that rule: the row-major scan stops at the first unit (nothing
    later can displace it), and a unit pivot skips the divisibility scan.
    """
    row_ops = []
    col_ops = []
    t = 0
    limit = min(n_rows, n_cols)
    while t < limit:
        best = 0
        pi = None
        for i in range(t, n_rows):
            v = min(map(abs, filter(None, M[i][t:])), default=0)
            if v and (not best or v < best):
                best, pi = v, i
                if v == 1:
                    break
        if pi is None:
            break
        pj = t + list(map(abs, M[pi][t:])).index(best)
        if pi != t:
            M[t], M[pi] = M[pi], M[t]
            row_ops.append((t, pi, 0))
        if pj != t:
            # rows above t are zero from column t on
            for row in M[t:]:
                row[t], row[pj] = row[pj], row[t]
            col_ops.append((t, pj, 0))
        prow = M[t]
        p = prow[t]
        # the rows with an entry in column t, the only ones a column
        # operation below changes
        live = [prow]
        at_t = itemgetter(t)
        for i in compress(range(t + 1, n_rows), map(at_t, M[t + 1:])):
            row = M[i]
            q = row[t] // p
            if q:
                M[i] = row = [a - q * b for a, b in zip(row, prow)]
                row_ops.append((i, t, -q))
            if row[t]:
                live.append(row)
        dirty = len(live) > 1
        for j in compress(range(t + 1, n_cols), prow[t + 1:]):
            q = prow[j] // p
            if q:
                for row in live:
                    row[j] -= q * row[t]
                col_ops.append((j, t, -q))
            if prow[j]:
                dirty = True
        if dirty:
            continue
        if p != 1 and p != -1:
            # pivot divides its row and column; force divisibility of the rest
            viol = next((i for i in range(t + 1, n_rows)
                         if any(v % p for v in M[i][t + 1:])), None)
            if viol is not None:
                M[t] = [a + b for a, b in zip(prow, M[viol])]
                row_ops.append((t, viol, 1))
                continue
        t += 1

    # M is diagonal now, so negating row i flips only its diagonal entry
    for i in range(limit):
        if M[i][i] < 0:
            M[i][i] = -M[i][i]
            row_ops.append((i, i, -2))
    return [M[i][i] for i in range(limit)], row_ops, col_ops


def _unit_rows(n, cols):
    """The n x len(cols) block of the identity matrix made of the given columns."""
    X = [[0] * len(cols) for _ in range(n)]
    for c, j in enumerate(cols):
        X[j][c] = 1
    return X


def _apply_row_ops(row_ops, X):
    """U*X in place, for X given by its rows."""
    for dst, src, q in row_ops:
        if q:
            X[dst] = [a + q * b for a, b in zip(X[dst], X[src])]
        else:
            X[dst], X[src] = X[src], X[dst]
    return X


def _apply_col_ops(col_ops, X, inverse=False):
    """V*X, or with ``inverse`` (V^-1)^T*X, in place, for X given by its rows.

    V is the product of the column operations in log order, so V*X replays
    them backwards: "col dst += q * col src" acts on X as "row src += q *
    row dst", and its inverse's transpose as "row dst -= q * row src".
    """
    for dst, src, q in reversed(col_ops):
        if not q:
            X[dst], X[src] = X[src], X[dst]
        elif inverse:
            X[dst] = [a - q * b for a, b in zip(X[dst], X[src])]
        else:
            X[src] = [a + q * b for a, b in zip(X[src], X[dst])]
    return X


def smith_normal_form(A):
    """Smith normal form of an integer matrix.

    Returns (D, U, V) with U*A*V = D, D diagonal with d_1 | d_2 | ... >= 0,
    and U, V unimodular.

    >>> D, U, V = smith_normal_form(IntMatrix([[2, 1], [0, 2]]))
    >>> [D[i, i] for i in range(2)]
    [1, 4]
    """
    if not isinstance(A, IntMatrix):
        A = IntMatrix(A)
    diag, row_ops, col_ops = _snf_inplace(A.tolists(), A.rows, A.cols)
    D = [[0] * A.cols for _ in range(A.rows)]
    for i, d in enumerate(diag):
        D[i][i] = d
    return (
        IntMatrix(D, cols=A.cols),
        IntMatrix(_apply_row_ops(row_ops, _unit_rows(A.rows, range(A.rows))), cols=A.rows),
        IntMatrix(_apply_col_ops(col_ops, _unit_rows(A.cols, range(A.cols))), cols=A.cols),
    )


def _canonical(coords, factors):
    """Reduced coordinates: each coordinate at a finite factor taken mod it."""
    return tuple([c % d if d else c for c, d in zip(coords, factors)])


class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    __slots__ = ("invariant_factors", "basis_change", "generator_lifts")

    def __init__(self, invariant_factors, basis_change=None, generator_lifts=None):
        factors = tuple(int(d) for d in invariant_factors)
        seen_zero = False
        for i, d in enumerate(factors):
            if d < 0 or d == 1:
                raise ValueError(f"invalid invariant factor {d}")
            if d == 0:
                seen_zero = True
            elif seen_zero:
                raise ValueError("free factors must come last")
            if i and factors[i - 1] != 0 and d % factors[i - 1]:
                raise ValueError(f"divisibility chain broken at {factors[i - 1]} | {d}")
        self.invariant_factors = factors
        k = len(factors)
        if (basis_change is not None and basis_change.cols != k
                or generator_lifts is not None and generator_lifts.rows != k):
            raise ValueError("transform shape mismatch")
        self.basis_change = basis_change
        self.generator_lifts = generator_lifts

    @property
    def rank(self):
        return len(self.invariant_factors)

    @property
    def user_rank(self):
        """Number of generators of the presentation this group came from."""
        return self.rank if self.basis_change is None else self.basis_change.rows

    def cardinality(self):
        """Group order, or None when there is a free summand."""
        if any(d == 0 for d in self.invariant_factors):
            return None
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def is_trivial(self):
        return not self.invariant_factors

    def reduce(self, coords):
        coords = tuple(map(int, coords))
        if len(coords) != len(self.invariant_factors):
            raise ValueError("coordinate length mismatch")
        return _canonical(coords, self.invariant_factors)

    def member(self, vector):
        """Canonical element from a vector in presentation-generator coordinates."""
        vector = tuple(map(int, vector))
        if len(vector) != self.user_rank:
            raise ValueError(
                f"vector length {len(vector)} does not match generator count {self.user_rank}"
            )
        if self.basis_change is not None:
            vector = self.basis_change.mul_vec(vector)
        return GroupElement(self, vector)

    def element(self, coords):
        """Element directly from invariant-factor coordinates."""
        return GroupElement(self, coords)

    def identity(self):
        return GroupElement(self, (0,) * self.rank)

    def describe(self):
        """Human-readable shape, e.g. 'Z/2 x Z/6' or 'trivial'."""
        if not self.invariant_factors:
            return "trivial"
        return " x ".join("Z" if d == 0 else f"Z/{d}" for d in self.invariant_factors)

    def __repr__(self):
        return f"AbelianGroup({list(self.invariant_factors)!r})"


class GroupElement:
    """Element of an AbelianGroup in reduced invariant-factor coordinates."""

    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        self.group = group
        self.coords = group.reduce(coords)

    def _like(self, coords):
        """Element of the same group from integer coordinates of the right
        length, as the arithmetic below makes them: reduced, not checked."""
        elt = object.__new__(GroupElement)
        elt.group = self.group
        elt.coords = _canonical(coords, self.group.invariant_factors)
        return elt

    def is_identity(self):
        return not any(self.coords)

    def __add__(self, other):
        if other.group is not self.group:
            raise ValueError("elements of different groups")
        return self._like([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self._like([-c for c in self.coords])

    def __sub__(self, other):
        if other.group is not self.group:
            raise ValueError("elements of different groups")
        return self._like([a - b for a, b in zip(self.coords, other.coords)])

    def __rmul__(self, n):
        n = int(n)
        return self._like([n * c for c in self.coords])

    __mul__ = __rmul__

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and other.group is self.group
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"GroupElement{self.coords!r}"


def quotient(n_generators, relations):
    """Cokernel of a relation matrix: Z^n modulo the row lattice.

    ``relations`` rows are relations among n free generators.  The returned
    group's basis_change maps generator coordinates to invariant-factor
    coordinates; generator_lifts sections it.

    >>> quotient(2, [[2, 1], [0, 2]]).invariant_factors
    (4,)
    """
    n = int(n_generators)
    rows = _as_rows(relations, n)
    m = len(rows)
    diag, _, col_ops = _snf_inplace(rows, m, n)
    moduli = diag + [0] * (n - len(diag))
    kept = [j for j in range(n) if moduli[j] != 1]
    factors = [moduli[j] for j in kept]
    # the kept columns of V, and the kept rows of V^-1 (built transposed)
    basis = IntMatrix(_apply_col_ops(col_ops, _unit_rows(n, kept)), cols=len(kept))
    lifts = IntMatrix(zip(*_apply_col_ops(col_ops, _unit_rows(n, kept), inverse=True)),
                      cols=n)
    return AbelianGroup(factors, basis_change=basis, generator_lifts=lifts)


def element_order(G, g):
    """Least n >= 1 with n*g = 0, or None when the order is infinite."""
    if g.group is not G:
        raise ValueError("element of a different group")
    n = 1
    for c, d in zip(g.coords, G.invariant_factors):
        if d == 0:
            if c:
                return None
            continue
        k = d // gcd(d, c) if c else 1
        n = n * k // gcd(n, k)
    return n


def subgroup_quotient(G, subgen):
    """G modulo the subgroup N generated by the given elements.

    N is kept as an upper-triangular (Hermite) basis of its lattice in Z^k,
    k = rank(G) (Cohen, GTM 138, Sec. 2.4.2).  The basis starts from the
    rows d_j*e_j of the finite factors (a free factor has none), and each
    generator is reduced into it as it arrives: at each nonzero column it
    either takes a free pivot slot, or is eliminated by the pivot row, or,
    when the pivot does not divide its entry, the two rows are replaced by
    their extended-gcd combination.  A zero generator costs nothing.  Once
    every pivot is 1, N = G: ``subgen`` is advanced once more, to check that
    generator's group, and then no further, so only the generators read are
    checked.  ``quotient`` sees at most k rows, however many generators.

    The result's basis_change projects invariant-factor coordinates of G to
    the quotient; its generator_lifts pick preimages in G.

    >>> G = AbelianGroup([2, 4, 0])
    >>> subgroup_quotient(G, [G.element([1, 2, 0])]).describe()
    'Z/4 x Z'
    >>> C6 = AbelianGroup([6])
    >>> subgroup_quotient(C6, [C6.element([2]), C6.element([3])]).is_trivial()
    True
    """
    factors = G.invariant_factors
    k = len(factors)
    # basis[j]: the row whose first nonzero entry, > 0, is at column j
    basis = [[0] * j + [d] + [0] * (k - j - 1) if d else None
             for j, d in enumerate(factors)]
    units = 0  # pivots equal to 1
    for g in subgen:
        if g.group is not G:
            raise ValueError("subgroup generator from a different group")
        if units == k:
            break
        v = g.coords
        for j in range(k):
            a = v[j]
            if not a:
                continue
            row = basis[j]
            if row is None:
                basis[j] = list(v) if a > 0 else [-x for x in v]
                units += a in (1, -1)
                break
            p = row[j]
            if a % p == 0:
                q = a // p
                v = [x - q * y for x, y in zip(v, row)]
                continue
            h, s, t = egcd(p, a)
            # [[s, t], [-a/h, p/h]] is unimodular: the lattice is unchanged,
            # and the new pivot h = gcd(p, a) divides the old one
            new = [s * y + t * x for x, y in zip(v, row)]
            v = [p // h * x - a // h * y for x, y in zip(v, row)]
            basis[j] = new[:j + 1] + list(_canonical(new[j + 1:], factors[j + 1:]))
            units += h == 1
    return quotient(k, [row for row in basis if row is not None])


def bezout_gcd(values):
    """gcd of several integers with deterministic Bezout coefficients.

    Left fold: lambdas are produced by folding the extended gcd over the
    list, with the shortcut that a value already divisible by the running
    gcd receives coefficient 0.  Returns (g, lambdas) with g > 0 and
    sum(lambdas[i] * values[i]) == g.  A fold step at index i scales every
    earlier lambda by its s; the scalings are applied in one backward pass
    at the end, as products over the later steps.

    >>> bezout_gcd([2, 3])
    (1, [-1, 1])
    >>> bezout_gcd([2, 2])
    (2, [1, 0])
    """
    lambdas = [0] * len(values)
    g = 0
    steps = []  # (i, s): every lambda before index i is scaled by s
    for i, v in enumerate(values):
        if v:
            if not g:
                g = v if v > 0 else -v
                lambdas[i] = 1 if v > 0 else -1
            elif v % g:
                g, s, lambdas[i] = egcd(g, v)
                steps.append((i, s))
    if not g:
        raise ValueError("need at least one nonzero value")
    if steps:
        scale, end = 1, len(values)
        for i, s in reversed(steps):
            if scale != 1:
                for j in range(i, end):
                    lambdas[j] *= scale
            scale, end = scale * s, i
        for j in range(end):
            lambdas[j] *= scale
    return g, lambdas


def solve_combination(G, elements, target):
    """Integer coefficients x with sum(x_i * elements_i) == target in G.

    Returns a list of ints, or None when target is outside the subgroup
    generated by the elements.
    """
    if target.group is not G or any(e.group is not G for e in elements):
        raise ValueError("elements of a different group")
    k = G.rank
    m = len(elements)
    # columns: the elements, then the relation moduli per finite factor
    cols = [list(e.coords) for e in elements]
    for j, d in enumerate(G.invariant_factors):
        if d:
            col = [0] * k
            col[j] = d
            cols.append(col)
    width = len(cols)
    if k == 0:
        return [0] * m
    rows = [[c[r] for c in cols] for r in range(k)]
    diag, row_ops, col_ops = _snf_inplace(rows, k, width)
    # U*target and V*s as one-column matrices
    w = [x for (x,) in _apply_row_ops(row_ops, [[c] for c in target.coords])]
    s = [[0] for _ in range(width)]
    for i in range(k):
        d = diag[i] if i < len(diag) else 0
        if d:
            if w[i] % d:
                return None
            s[i][0] = w[i] // d
        elif w[i]:
            return None
    return [x for (x,) in _apply_col_ops(col_ops, s)[:m]]


def _coprime_base(values):
    """Pairwise coprime integers >= 2 of which every value >= 1 is a product
    of powers, by factor refinement (Bach, Driscoll & Shallit, SIAM J.
    Comput. 22, 1993): a value sharing a gcd g > 1 with a base element b is
    replaced, with b, by b/g, g and itself over g.  The product of the
    pending values and the base falls by g at each such step, so the loop
    ends; no value is factored."""
    base = []
    todo = list(values)
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for idx, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                base[idx] = base[-1]
                base.pop()
                todo += (b // g, g, x // g)
                break
        else:
            base.append(x)
    return base


def cyclic_sum(moduli):
    """Invariant factors of Z/n_1 + ... + Z/n_m (every n_i >= 2), with the
    map from the summands' coordinates to those of the factors.

    Over a coprime base B of the moduli (``_coprime_base``), Z/n_i is the
    sum of its parts Z/b^e, b^e || n_i, by the Chinese remainder theorem.
    For each b in B the parts are sorted by exponent, largest first, and
    the t-th largest factor is the product of the t-th parts of all b, so
    the factors form a divisibility chain.  Returns (factors, slots), the
    factors ascending and slots[j] a list of (i, u) over the summands i
    with a part in factor j: coordinate j of an element is sum(u * x_i)
    mod d_j, x_i its coordinate in Z/n_i (u is 1 mod each part, 0 mod the
    rest of d_j).  The cost is one pass over the summands per base element,
    whatever the number of merges.

    >>> factors, slots = cyclic_sum([4, 6, 2])
    >>> factors
    (2, 2, 12)
    >>> slots[2]
    [(0, 9), (1, 4)]
    """
    distinct = list(dict.fromkeys(moduli))
    base = _coprime_base(distinct)
    parts = {}  # n -> [(b, b^e)] over the b in B with e = v_b(n) > 0
    for n in distinct:
        parts[n] = []
        for b in base:
            if n % b == 0:
                q = b
                while n % (q * b) == 0:
                    q *= b
                parts[n].append((b, q))
    columns = {b: [] for b in base}
    for i, n in enumerate(moduli):
        for b, q in parts[n]:
            columns[b].append((q, i))
    chain = [[] for _ in range(max(map(len, columns.values()), default=0))]
    for column in columns.values():
        column.sort(key=itemgetter(0), reverse=True)
        for slot, part in zip(chain, column):
            slot.append(part)
    factors, slots = [], []
    for slot in reversed(chain):
        d = prod(q for q, _ in slot)
        maps = {}
        for q, i in slot:
            rest = d // q
            maps[i] = maps.get(i, 0) + rest * pow(rest, -1, q)
        factors.append(d)
        slots.append([(i, u % d) for i, u in sorted(maps.items())])
    return tuple(factors), slots


def direct_sum_invariants(*factor_lists):
    """Invariant factors of a direct sum given by per-summand factor lists:
    ``cyclic_sum`` of the finite moduli, with the 1s dropped and one 0 per
    free summand last.

    >>> direct_sum_invariants([2, 4], [6, 0], [1])
    (2, 2, 12, 0)
    """
    finite = [abs(d) for factors in factor_lists for d in factors if abs(d) > 1]
    free = sum(1 for factors in factor_lists for d in factors if not d)
    return cyclic_sum(finite)[0] + (0,) * free
