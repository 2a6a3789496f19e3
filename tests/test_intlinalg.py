import random

import pytest

from wittlab.errors import NotDivisible
from wittlab.intlinalg import (
    IntMatrix,
    hermite_column_form,
    hermite_reduce,
    kernel_basis,
    lattice_eq,
    smith_normal_form,
    solve_integer_linear,
)

rng = random.Random(90125)


def rand_matrix(m, n, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def test_matrix_basics():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a * b).rows == [[2, 1], [4, 3]]
    assert (a + b - b) == a
    assert (-a + a).is_zero()
    assert a.transpose().rows == [[1, 3], [2, 4]]
    assert a.apply([1, 0]) == [1, 3]
    assert a.apply([0, -2]) == [-4, -8]
    assert a.det() == -2
    assert IntMatrix.identity(3).det() == 1
    assert a.hstack(b).rows == [[1, 2, 0, 1], [3, 4, 1, 0]]
    assert IntMatrix.from_cols([[1, 2], [3, 4]]).rows == [[1, 3], [2, 4]]


def test_matrix_shape_errors():
    a = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        a.apply([1, 2, 3])
    with pytest.raises(ValueError):
        a * IntMatrix([[1], [2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_smith_normal_form_random():
    # UAV = D, U and V unimodular, diagonal divisibility chain
    for trial in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = rand_matrix(m, n)
        s = smith_normal_form(a)
        assert s.U * a * s.V == s.D
        assert abs(s.U.det()) == 1
        assert abs(s.V.det()) == 1
        ds = []
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s.D.rows[i][j] == 0
            if i < n:
                ds.append(s.D.rows[i][i])
        assert all(d >= 0 for d in ds)
        for x, y in zip(ds, ds[1:]):
            if y != 0:
                assert x != 0 and y % x == 0


def test_smith_fixed_values():
    a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    s = smith_normal_form(a)
    diag = [s.D.rows[i][i] for i in range(3)]
    assert diag == [2, 2, 156]


def test_kernel_basis():
    for trial in range(40):
        a = rand_matrix(rng.randint(1, 5), rng.randint(1, 5))
        for k in kernel_basis(a):
            assert any(k.values())
            assert not a.apply_sparse(k)
    # rank-1 projector style example with an obvious kernel
    a = IntMatrix([[1, 2, 3]])
    ks = kernel_basis(a)
    assert len(ks) == 2


def test_solve_integer_linear():
    for trial in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = rand_matrix(m, n)
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = a.apply(x)
        sol = solve_integer_linear(a, b)
        assert sol is not None
        assert a.apply(sol) == b
    assert solve_integer_linear(IntMatrix([[2]]), [1]) is None
    assert solve_integer_linear(IntMatrix([[2, 4], [1, 2]]), [2, 3]) is None


def pivots(cols):
    # the Hermite form of cols, indexed by pivot row
    return {min(c): c for c in hermite_column_form(cols)}


def test_hermite_form_spans_same_lattice():
    for trial in range(30):
        m = rng.randint(1, 5)
        cols = [{i: rng.randint(-6, 6) for i in range(m)}
                for _ in range(rng.randint(0, 6))]
        h = hermite_column_form(cols)
        assert lattice_eq(cols, h)
        for c in cols:
            assert not hermite_reduce(c, pivots(h))
        doubled = [{i: 2 * v for i, v in c.items()} for c in cols]
        assert all(not hermite_reduce(c, pivots(cols)) for c in doubled)


def test_hermite_detects_noncontainment():
    cols = [{0: 2}, {1: 2}]
    assert hermite_reduce({0: 1}, pivots(cols))
    assert not hermite_reduce({0: 4, 1: -2}, pivots(cols))
    assert not lattice_eq(cols, [{0: 1}, {1: 1}])
