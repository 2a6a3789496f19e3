"""The sparse-column IntMatrix against plain nested-list arithmetic.

Every operation is recomputed on dense row lists by the textbook
formula, on random small matrices with many zero entries, including
matrices with no rows, no columns, or neither.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wittlab.intlinalg import IntMatrix  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

DIM = st.integers(0, 4)
ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])


def dense(m, n):
    return st.lists(
        st.lists(ENTRY, min_size=n, max_size=n), min_size=m, max_size=m
    )


def ref_mul(a, b, inner, width):
    return [[sum(r[k] * b[k][j] for k in range(inner)) for j in range(width)]
            for r in a]


def ref_transpose(a, n):
    return [[r[j] for r in a] for j in range(n)]


def ref_det(a):
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * ref_det([r[:j] + r[j + 1:] for r in a[1:]])
        for j in range(len(a))
    )


def sparse_cols(a, n):
    return [{i: r[j] for i, r in enumerate(a) if r[j]} for j in range(n)]


@st.composite
def triple(draw):
    """Shapes m x k, k x n and dense matrices A (m x k), B (k x n), C (m x k)."""
    m, k, n = draw(DIM), draw(DIM), draw(DIM)
    return (m, k, n), draw(dense(m, k)), draw(dense(k, n)), draw(dense(m, k))


@PROPERTY
@given(triple(), st.integers(-2, 2), st.data())
def test_sparse_ops_match_nested_lists(shapes, k, data):
    (m, inner, n), a, b, c = shapes
    A, B, C = IntMatrix(a, inner), IntMatrix(b, n), IntMatrix(c, inner)

    # shape and the three constructors agree
    assert (A.m, A.n) == (m, inner)
    assert A.rows == a
    assert IntMatrix.from_cols(ref_transpose(a, inner), m) == A
    assert IntMatrix.from_sparse_cols(sparse_cols(a, inner), m) == A

    # columns
    assert A.cols() == ref_transpose(a, inner)
    for j in range(inner):
        assert A.col(j) == [r[j] for r in a]
        assert A.sparse_col(j) == sparse_cols(a, inner)[j]

    # products and application
    AB = A * B
    assert (AB.m, AB.n) == (m, n)
    assert AB.rows == ref_mul(a, b, inner, n)
    vec = data.draw(st.lists(ENTRY, min_size=inner, max_size=inner))
    want = [sum(x * y for x, y in zip(r, vec)) for r in a]
    assert A.apply(vec) == want
    assert A.apply_sparse({j: x for j, x in enumerate(vec) if x}) == {
        i: x for i, x in enumerate(want) if x
    }

    # ring operations
    assert (A + C).rows == [[x + y for x, y in zip(r, s)] for r, s in zip(a, c)]
    assert (A - C).rows == [[x - y for x, y in zip(r, s)] for r, s in zip(a, c)]
    assert (-A).rows == [[-x for x in r] for r in a]
    assert (A * k).rows == [[k * x for x in r] for r in a]
    assert (k * A) == A * k
    assert ((A * k).m, (A * k).n) == (m, inner)

    # equality, hashing, zero test
    assert A == IntMatrix(a, inner) and hash(A) == hash(IntMatrix(a, inner))
    assert (A == C) == (a == c)
    assert A - A == IntMatrix.zeros(m, inner)
    assert (A - A).is_zero()
    assert A.is_zero() == all(x == 0 for r in a for x in r)
    assert IntMatrix.zeros(m, inner + 1) != IntMatrix.zeros(m, inner)

    # stacking, transposition, identity, zeros
    H = A.hstack(C)
    assert (H.m, H.n) == (m, 2 * inner)
    assert H.rows == [r + s for r, s in zip(a, c)]
    T = A.transpose()
    assert (T.m, T.n) == (inner, m)
    assert T.rows == ref_transpose(a, inner)
    assert T.transpose() == A
    eye = IntMatrix.identity(m)
    assert (eye.m, eye.n) == (m, m)
    assert eye.rows == [[int(i == j) for j in range(m)] for i in range(m)]
    assert eye * A == A
    z = IntMatrix.zeros(m, n)
    assert (z.m, z.n, z.rows) == (m, n, [[0] * n for _ in range(m)])

    # the dense algorithms see the same entries
    s = min(m, inner)
    square = [r[:s] for r in a[:s]]
    assert IntMatrix(square, s).det() == ref_det(square)


def test_zero_size_shapes():
    assert IntMatrix.zeros(0, 3).n == 3
    assert IntMatrix.from_cols([[], []]).n == 2
    assert IntMatrix.from_cols([], 3).m == 3
    assert IntMatrix.identity(0).det() == 1
    # 2x0 times 0x3 is the 2x3 zero matrix
    assert IntMatrix.zeros(2, 0) * IntMatrix.zeros(0, 3) == IntMatrix.zeros(2, 3)


def test_shape_errors():
    a = IntMatrix([[1, 2], [3, 4]])
    for bad in (IntMatrix([[1, 2, 3]]), IntMatrix.zeros(2, 3)):
        with pytest.raises(ValueError):
            a + bad
        with pytest.raises(ValueError):
            a - bad
    with pytest.raises(ValueError):
        IntMatrix.from_cols([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_sparse_cols([{2: 1}], 2)
    with pytest.raises(ValueError):
        IntMatrix([], n=2).hstack(IntMatrix([[1]]))
