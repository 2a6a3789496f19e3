"""The group layer against an independent Smith-form oracle.

Invariant factors and orders of random presented groups are compared
with sympy's Smith normal form over ZZ.  Image orders taken as
|dst| / |coker| are compared with subgroup presentations and with a
brute-force count of the image.  The cached Smith transforms and the
canonical representatives built from them are checked directly.
"""

import math

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402

from wittlab.abgroup import (  # noqa: E402
    GroupMap,
    PresentedAbGroup,
    subgroup_presentation,
)
from wittlab.intlinalg import IntMatrix, smith_normal_form  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def relation_matrices(draw):
    # g x k, up to 5 x 6: one row per generator, one column per relation
    g = draw(st.integers(1, 5))
    k = draw(st.integers(0, 6))
    return g, k, [draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k))
                  for _ in range(g)]


def group_of(g, k, rows):
    return PresentedAbGroup(g, [{i: rows[i][j] for i in range(g)} for j in range(k)])


def oracle(g, k, rows):
    # (invariant factors, order) from sympy's diagonal
    diag = []
    if k:
        d = sympy_snf(Matrix(rows), domain=ZZ)
        diag = [abs(int(d[i, i])) for i in range(min(g, k))]
    diag += [0] * (g - len(diag))
    factors = tuple(sorted((x for x in diag if x != 1), key=lambda x: (x == 0, x)))
    return factors, (None if 0 in diag else math.prod(diag))


@PROPERTY
@given(relation_matrices())
def test_invariant_factors_and_order_match_sympy(mat):
    g = group_of(*mat)
    assert (g.invariant_factors, g.order()) == oracle(*mat)


@PROPERTY
@given(relation_matrices(), st.data())
def test_smith_transforms_and_canonical(mat, data):
    g, k, rows = mat
    s = smith_normal_form(IntMatrix(rows, k))
    assert s.U * s.Uinv == IntMatrix.identity(g)
    assert s.Uinv * s.U == IntMatrix.identity(g)
    assert s.U * IntMatrix(rows, k) * s.V == s.D
    group = group_of(*mat)
    for _ in range(3):
        v = data.draw(st.lists(st.integers(-30, 30), min_size=g, max_size=g))
        c = group.canonical(v)
        assert group.canonical(c) == c
        assert group.equal(v, c)


@st.composite
def finite_maps(draw):
    # src = sum of Z/m_j; dst contains N * Z^h in its relation lattice, so
    # column j may be any vector times N / gcd(N, m_j)
    moduli = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    h = draw(st.integers(1, 3))
    entries = st.integers(-5, 5)
    if draw(st.booleans()):
        dst_moduli = draw(st.lists(st.integers(1, 8), min_size=h, max_size=h))
        dst = PresentedAbGroup.from_moduli(dst_moduli)
        n = math.lcm(*dst_moduli)
    else:
        n = draw(st.integers(2, 6))
        extra = draw(st.lists(
            st.lists(entries, min_size=h, max_size=h), max_size=3))
        dst = PresentedAbGroup(
            h, [{i: n} for i in range(h)] + [dict(enumerate(c)) for c in extra])
    cols = []
    for m in moduli:
        scale = n // math.gcd(n, m)
        col = draw(st.lists(entries, min_size=h, max_size=h))
        cols.append({i: scale * x for i, x in enumerate(col)})
    src = PresentedAbGroup.from_moduli(moduli)
    return GroupMap(src, dst, IntMatrix.from_sparse_cols(cols, h))


@PROPERTY
@given(finite_maps())
def test_image_order_from_cokernel(f):
    image = f.dst.order() // f.cokernel().order()
    assert f.dst.order() % f.cokernel().order() == 0
    assert image == subgroup_presentation(f.image_cols(), f.dst).order()
    assert image == len({f.apply(x) for x in f.src.elements()})
