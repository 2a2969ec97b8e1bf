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

Conventions:
  * invariant factors are listed as d_1 | d_2 | ... with every d_i >= 2,
    followed by 0 entries for free summands; factors equal to 1 are dropped;
  * a group remembers the presentation it came from: ``basis_change`` maps
    row vectors in the original generator coordinates to invariant-factor
    coordinates, ``generator_lifts`` goes the other way (one row per factor).

All arithmetic is on Python integers, so nothing overflows.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, prod
from operator import itemgetter

from .ntheory import egcd


class IntMatrix:
    """Immutable arbitrary-precision integer matrix, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries, cols=None):
        data = tuple(tuple(map(int, row)) for row in entries)
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

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def column(self, j):
        return tuple(r[j] for r in self._data)

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

    __slots__ = ("invariant_factors", "generator_labels", "basis_change", "generator_lifts")

    def __init__(self, invariant_factors, generator_labels=None, basis_change=None,
                 generator_lifts=None):
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
                if d != 0:
                    raise ValueError(f"divisibility chain broken at {factors[i - 1]} | {d}")
        self.invariant_factors = factors
        k = len(factors)
        if generator_labels is None:
            generator_labels = tuple(f"e{i + 1}" for i in range(k))
        else:
            generator_labels = tuple(generator_labels)
            if len(generator_labels) != k:
                raise ValueError("one label per invariant factor")
        self.generator_labels = generator_labels
        self.basis_change = IntMatrix.identity(k) if basis_change is None else basis_change
        self.generator_lifts = IntMatrix.identity(k) if generator_lifts is None else generator_lifts
        if self.basis_change.cols != k or self.generator_lifts.rows != k:
            raise ValueError("transform shape mismatch")

    @property
    def rank(self):
        return len(self.invariant_factors)

    @property
    def user_rank(self):
        """Number of generators of the presentation this group came from."""
        return self.basis_change.rows

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
        return GroupElement(self, self.basis_change.mul_vec(vector))

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


def quotient(n_generators, relations, labels=None):
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
    return AbelianGroup(factors, generator_labels=labels, basis_change=basis,
                        generator_lifts=lifts)


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
    """G modulo the subgroup generated by the given elements.

    The result's basis_change projects invariant-factor coordinates of G to
    the quotient; its generator_lifts pick preimages in G.
    """
    k = G.rank
    rows = []
    for j, d in enumerate(G.invariant_factors):
        if d:
            row = [0] * k
            row[j] = d
            rows.append(row)
    for g in subgen:
        if g.group is not G:
            raise ValueError("subgroup generator from a different group")
        rows.append(list(g.coords))
    return quotient(k, rows)


def bezout_gcd(values):
    """gcd of several integers with deterministic Bezout coefficients.

    Left fold: lambdas are produced by folding the extended gcd over the
    list, with the shortcut that a value already divisible by the running
    gcd receives coefficient 0.  Returns (g, lambdas) with g > 0 and
    sum(lambdas[i] * values[i]) == g.

    >>> bezout_gcd([2, 3])
    (1, [-1, 1])
    >>> bezout_gcd([2, 2])
    (2, [1, 0])
    """
    values = [int(v) for v in values]
    if not values or all(v == 0 for v in values):
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


def direct_sum_invariants(*factor_lists):
    """Invariant factors of a direct sum given by per-summand factor lists."""
    moduli = [d for factors in factor_lists for d in factors]
    n = len(moduli)
    rows = []
    for j, d in enumerate(moduli):
        if d:
            row = [0] * n
            row[j] = d
            rows.append(row)
    return quotient(n, rows).invariant_factors
