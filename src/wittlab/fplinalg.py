"""Linear algebra over the prime field F_p.

Matrices are lists of row lists of ints; everything is reduced mod p.
Just enough here for rank/kernel/solve on the small matrices that show
up in exactness checks; the heavy integral work lives in intlinalg.
Products skip zero entries row by row, since the structure maps of the
tensor towers are mostly zeros.
"""

from __future__ import annotations

from .errors import ParameterMismatch


def _reduce(rows, p):
    return [[x % p for x in r] for r in rows]


def rref_fp(rows, p):
    """Row-reduced echelon form; returns (rref_rows, pivot_columns)."""
    a = _reduce(rows, p)
    if not a:
        return [], []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def rank_fp(rows, p):
    return len(rref_fp(rows, p)[1])


def nullspace_fp(rows, p):
    """Basis vectors (as tuples) of the right kernel.

    >>> nullspace_fp([[1, 1]], 2)
    [(1, 1)]
    """
    if not rows:
        raise ParameterMismatch("need explicit column count; pass a zero row")
    ncols = len(rows[0])
    a, pivots = rref_fp(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-a[r][fc]) % p
        basis.append(tuple(v))
    return basis


def solve_fp(rows, b, p):
    """One solution of A x = b over F_p, or None."""
    if not rows:
        return None
    aug = [list(r) + [bb] for r, bb in zip(rows, b)]
    a, pivots = rref_fp(aug, p)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][ncols] % p
    return tuple(x)


def mat_mul_fp(a, b, p):
    """A*B reduced mod p; zero entries of A and B cost nothing.

    >>> mat_mul_fp([[1, 0], [2, 3]], [[1, 1], [0, 1]], 2)
    [[1, 1], [0, 1]]
    """
    if not a or not b:
        return []
    if any(len(row) != len(b) for row in a):
        raise ParameterMismatch("dimension mismatch")
    width = len(b[0])
    b_rows = [[(j, y) for j, y in enumerate(row) if y % p] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b_rows):
            if x % p:
                for j, y in b_row:
                    acc[j] += x * y
        out.append([v % p for v in acc])
    return out


def is_zero_fp(rows, p):
    return all(x % p == 0 for r in rows for x in r)
