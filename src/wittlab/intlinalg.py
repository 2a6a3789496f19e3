"""Exact linear algebra over the integers.

Integer matrices are stored as sparse columns with an explicit shape:
one ``{row: value}`` dict per column, zero entries never stored, so
products, sums, scalar multiples, stacking and transposition cost
O(nonzeros).  Lattices are lists of such sparse columns: the column
Hermite form works on them directly, and one Hermite reducer tests
membership.  The Smith form (with U, U^-1 and V) and determinants work
on their own dense copies; on top of them sit integer kernels, returned
as sparse columns, and a canonical solver for A*x = b over Z.
Everything is deterministic: Smith pivot selection always takes the
smallest nonzero absolute value, breaking ties in row-major order.
"""

from __future__ import annotations

import heapq


def _sparse_add(out, col, k=1):
    # out += k * col, dropping entries that cancel
    for i, x in col.items():
        v = out.get(i, 0) + k * x
        if v:
            out[i] = v
        else:
            out.pop(i, None)


class IntMatrix:
    """An immutable-by-convention m x n integer matrix in sparse columns.

    Built from dense rows (``IntMatrix(rows)``; pass ``n`` to give a
    matrix with no rows its width), dense columns (``from_cols``) or
    sparse columns (``from_sparse_cols``).  ``rows`` rebuilds the dense
    row lists on every access and is meant for display and tests.

    >>> a = IntMatrix([[1, 2], [3, 4]])
    >>> (a * a).rows
    [[7, 10], [15, 22]]
    >>> IntMatrix.zeros(0, 3).n
    3
    """

    __slots__ = ("m", "n", "_cols")

    def __init__(self, rows, n=None):
        rows = [list(r) for r in rows]
        if n is None:
            n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
        self.m = len(rows)
        self.n = n
        self._cols = [{} for _ in range(n)]
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                if x:
                    self._cols[j][i] = x

    @classmethod
    def _make(cls, m, n, cols):
        # trusted constructor: cols are n zero-free dicts with rows < m
        out = cls.__new__(cls)
        out.m = m
        out.n = n
        out._cols = cols
        return out

    @classmethod
    def from_sparse_cols(cls, cols, m):
        """The m x len(cols) matrix whose column j has the entries cols[j].

        Each column is a dict {row: value}; zero values are dropped.

        >>> IntMatrix.from_sparse_cols([{1: 5}, {}], 2).rows
        [[0, 0], [5, 0]]
        """
        out = []
        for c in cols:
            if any(not 0 <= i < m for i in c):
                raise ValueError("row index out of range")
            out.append({i: x for i, x in c.items() if x})
        return cls._make(m, len(out), out)

    @classmethod
    def identity(cls, n):
        return cls._make(n, n, [{j: 1} for j in range(n)])

    @classmethod
    def zeros(cls, m, n):
        return cls._make(m, n, [{} for _ in range(n)])

    @classmethod
    def from_cols(cls, cols, m=None):
        """The matrix with the given dense columns of length m (m is
        only needed to give a matrix with no columns its height)."""
        if m is None:
            m = len(cols[0]) if cols else 0
        out = []
        for c in cols:
            if len(c) != m:
                raise ValueError("column length != row count")
            out.append({i: x for i, x in enumerate(c) if x})
        return cls._make(m, len(out), out)

    @property
    def rows(self):
        """A fresh dense list of row lists (O(m*n); not for hot paths)."""
        out = [[0] * self.n for _ in range(self.m)]
        for j, c in enumerate(self._cols):
            for i, x in c.items():
                out[i][j] = x
        return out

    def sparse_col(self, j):
        """Column j as a {row: value} dict of its nonzeros; do not mutate."""
        return self._cols[j]

    def col(self, j):
        out = [0] * self.m
        for i, x in self._cols[j].items():
            out[i] = x
        return out

    def cols(self):
        return [self.col(j) for j in range(self.n)]

    def transpose(self):
        out = [{} for _ in range(self.m)]
        for j, c in enumerate(self._cols):
            for i, x in c.items():
                out[i][j] = x
        return IntMatrix._make(self.n, self.m, out)

    def apply(self, vec):
        """Matrix times column vector, returned as a dense list."""
        if len(vec) != self.n:
            raise ValueError("dimension mismatch")
        out = [0] * self.m
        for c, x in zip(self._cols, vec):
            if x:
                for i, a in c.items():
                    out[i] += a * x
        return out

    def apply_sparse(self, vec):
        """Matrix times a sparse vector {index: value}, as a sparse dict."""
        out = {}
        for j, x in vec.items():
            if x:
                _sparse_add(out, self._cols[j], x)
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return IntMatrix.zeros(self.m, self.n)
            return IntMatrix._make(
                self.m, self.n,
                [{i: x * other for i, x in c.items()} for c in self._cols],
            )
        if self.n != other.m:
            raise ValueError("dimension mismatch")
        # column j of the product combines the columns of self picked
        # out by the nonzeros of column j of other (Gustavson)
        return IntMatrix._make(
            self.m, other.n, [self.apply_sparse(c) for c in other._cols]
        )

    __rmul__ = lambda self, k: self.__mul__(k)

    def _plus(self, other, k):
        # self + k * other
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("dimension mismatch")
        out = []
        for a, b in zip(self._cols, other._cols):
            c = dict(a)
            _sparse_add(c, b, k)
            out.append(c)
        return IntMatrix._make(self.m, self.n, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and (self.m, self.n) == (other.m, other.n)
            and self._cols == other._cols
        )

    def __hash__(self):
        return hash(
            (self.m, self.n, tuple(frozenset(c.items()) for c in self._cols))
        )

    def __repr__(self):
        return f"IntMatrix({self.rows!r}, n={self.n})"

    def is_zero(self):
        return not any(self._cols)

    def hstack(self, other):
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return IntMatrix._make(self.m, self.n + other.n, self._cols + other._cols)

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.m != self.n:
            raise ValueError("not square")
        n = self.n
        if n == 0:
            return 1
        a = self.rows
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


class SmithDecomposition:
    """Holds U, D, V with U*A*V = D, U and V unimodular, D diagonal
    with d_1 | d_2 | ... and nonnegative entries, and ``Uinv`` = U^-1.
    ``V`` may be None when the caller only asked for the row transform."""

    __slots__ = ("U", "Uinv", "D", "V", "diag", "rank")

    def __init__(self, U, Uinv, D, V):
        self.U = U
        self.Uinv = Uinv
        self.D = D
        self.V = V
        self.diag = [D.sparse_col(i).get(i, 0) for i in range(min(D.m, D.n))]
        self.rank = sum(1 for d in self.diag if d != 0)


def _find_pivot(b, t, m, n):
    # smallest nonzero |entry| in the trailing submatrix, row-major ties
    best = None
    bi = bj = -1
    for i in range(t, m):
        row = b[i]
        for j in range(t, n):
            v = row[j]
            if v != 0:
                a = v if v > 0 else -v
                if best is None or a < best:
                    best, bi, bj = a, i, j
                    if a == 1:
                        return bi, bj
    return (bi, bj) if best is not None else None


def smith_normal_form(a: IntMatrix, need_v: bool = True) -> SmithDecomposition:
    """Smith normal form with transforms.

    Every row operation applied to U is undone by the inverse column
    operation on ``Uinv``, so U^-1 comes without a solve.

    >>> d = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> d.diag
    [2, 4]
    >>> (d.U * IntMatrix([[2, 4], [6, 8]]) * d.V).rows == d.D.rows
    True
    >>> (d.U * d.Uinv).rows
    [[1, 0], [0, 1]]
    """
    m, n = a.m, a.n
    b = a.rows
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    uinv = [[1 if i == j else 0 for i in range(m)] for j in range(m)]  # columns
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if need_v else None

    def swap_rows(i, j):
        if i != j:
            b[i], b[j] = b[j], b[i]
            u[i], u[j] = u[j], u[i]
            uinv[i], uinv[j] = uinv[j], uinv[i]

    def swap_cols(i, j):
        if i != j:
            for row in b:
                row[i], row[j] = row[j], row[i]
            if v is not None:
                for row in v:
                    row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        bd, bs = b[dst], b[src]
        for k in range(n):
            bd[k] += q * bs[k]
        ud, us = u[dst], u[src]
        for k in range(m):
            ud[k] += q * us[k]
        # column src of U^-1 -= q * column dst
        vd, vs = uinv[dst], uinv[src]
        for k in range(m):
            vs[k] -= q * vd[k]

    def add_col(dst, src, q):
        for row in b:
            row[dst] += q * row[src]
        if v is not None:
            for row in v:
                row[dst] += q * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        loc = _find_pivot(b, t, m, n)
        if loc is None:
            break
        swap_rows(t, loc[0])
        swap_cols(t, loc[1])
        # clear row and column t; pivot magnitude strictly drops on each retry
        while True:
            for i in range(t + 1, m):
                if b[i][t] != 0:
                    q = b[i][t] // b[t][t]
                    add_row(i, t, -q)
            col_dirty = any(b[i][t] != 0 for i in range(t + 1, m))
            if col_dirty:
                loc = _find_pivot(b, t, m, n)
                swap_rows(t, loc[0])
                swap_cols(t, loc[1])
                continue
            for j in range(t + 1, n):
                if b[t][j] != 0:
                    q = b[t][j] // b[t][t]
                    add_col(j, t, -q)
            if any(b[t][j] != 0 for j in range(t + 1, n)):
                loc = _find_pivot(b, t, m, n)
                swap_rows(t, loc[0])
                swap_cols(t, loc[1])
                continue
            # pivot must divide every remaining entry
            piv = b[t][t]
            offender = None
            for i in range(t + 1, m):
                row = b[i]
                for j in range(t + 1, n):
                    if row[j] % piv != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if b[t][t] < 0:
            b[t] = [-x for x in b[t]]
            u[t] = [-x for x in u[t]]
            uinv[t] = [-x for x in uinv[t]]
        t += 1
    return SmithDecomposition(
        IntMatrix(u), IntMatrix.from_cols(uinv, m), IntMatrix(b, n),
        IntMatrix(v) if need_v else None,
    )


def kernel_basis(a: IntMatrix):
    """Basis of the integer kernel {x : A x = 0}, as sparse columns."""
    s = smith_normal_form(a)
    out = []
    for i in range(a.n):
        if i >= len(s.diag) or s.diag[i] == 0:
            out.append(s.V.sparse_col(i))
    return out


def solve_integer_linear(a: IntMatrix, b):
    """Canonical integer solution of A x = b, or None.

    The solution is expressed through the Smith basis of A with every
    free coordinate set to zero, so it is unique and deterministic.

    >>> solve_integer_linear(IntMatrix([[2, 0], [0, 3]]), [4, 9])
    [2, 3]
    >>> solve_integer_linear(IntMatrix([[2]]), [3]) is None
    True
    """
    s = smith_normal_form(a)
    c = s.U.apply(list(b))
    z = [0] * a.n
    for i in range(a.m):
        d = s.diag[i] if i < len(s.diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            z[i] = c[i] // d
    return s.V.apply(z)


def hermite_column_form(cols):
    """Canonical column Hermite form of the lattice spanned by ``cols``.

    Columns are sparse ``{row: value}`` dicts, and so is the result: a
    list of echelon columns whose pivots (each column's smallest row)
    are positive and strictly increasing, and every entry of a pivot row
    in the other columns is reduced into [0, pivot).  Two generating
    sets span the same lattice iff their forms are equal.

    >>> hermite_column_form([{0: 2, 1: 2}, {1: 4}, {0: 4}])
    [{0: 2, 1: 2}, {1: 4}]
    """
    # columns wait in buckets keyed by their leading row; a column that
    # a pivot empties is an empty dict and simply leaves the work
    buckets = {}
    for c in cols:
        c = {i: x for i, x in c.items() if x}
        if c:
            buckets.setdefault(min(c), []).append(c)
    heap = list(buckets)
    heapq.heapify(heap)
    done = []
    while heap:
        row = heapq.heappop(heap)
        live = buckets.pop(row)
        # gcd-combine all columns led by this row
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            base = live[0]
            for c in live[1:]:
                _sparse_add(c, base, -(c[row] // base[row]))
                if c and row not in c:
                    lead = min(c)
                    if lead not in buckets:
                        buckets[lead] = []
                        heapq.heappush(heap, lead)
                    buckets[lead].append(c)
            live = [base] + [c for c in live[1:] if row in c]
        pivot = live[0]
        if pivot[row] < 0:
            for i in pivot:
                pivot[i] = -pivot[i]
        for c in done:
            q = c.get(row, 0) // pivot[row]
            if q:
                _sparse_add(c, pivot, -q)
        done.append(pivot)
    return done


def hermite_reduce(vec, pivots):
    """The remainder of a sparse vector modulo a lattice in Hermite form.

    ``pivots`` maps each pivot row to its Hermite column.  Pivot-row
    entries are reduced into [0, pivot), smallest row first; the vector
    lies in the lattice iff the remainder is empty.

    >>> piv = {0: {0: 2, 1: 2}, 1: {1: 4}}
    >>> hermite_reduce({0: 4, 1: 4}, piv)
    {}
    >>> hermite_reduce({0: 3}, piv)
    {0: 1, 1: 2}
    """
    v = {i: x for i, x in vec.items() if x}
    heap = [i for i in v if i in pivots]
    heapq.heapify(heap)
    while heap:
        row = heapq.heappop(heap)
        col = pivots[row]
        q = v.get(row, 0) // col[row]
        if q:
            for i in col:
                if i not in v and i in pivots:
                    heapq.heappush(heap, i)
            _sparse_add(v, col, -q)
    return v


def lattice_eq(cols_a, cols_b):
    """Do two sets of sparse columns span the same lattice?"""
    return hermite_column_form(cols_a) == hermite_column_form(cols_b)
