"""The ghost-space arithmetic against the universal polynomials.

The Witt vector operations over Z, Z/m and F_p[t]/(f) run in ghost
space, so the ghost identities elsewhere in the suite only check the
ghost map against itself.  Here every operation is compared with a
direct evaluation of the universal polynomials that define it.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wittlab.bigwitt import (  # noqa: E402
    BigWitt,
    big_ghost_table,
    gen_big_product_polys,
)
from wittlab.errors import NotDivisible  # noqa: E402
from wittlab.rings import GF, ZZ, MonicQuotientZ, Zmod  # noqa: E402
from wittlab.witt import (  # noqa: E402
    WittVector,
    gen_universal_polys,
    ghost_inverse,
    ghost_table,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def rings_for(p):
    out = [ZZ, Zmod(p ** 2), Zmod(p ** 3), Zmod(6), GF(p)]
    if p == 2:
        out.append(GF(4))
    if p == 3:
        out.append(GF(9))
    return out


def elements(ring):
    if ring is ZZ:
        return st.integers(-30, 30)
    if isinstance(ring, Zmod):
        return st.integers(0, ring.m - 1)
    return st.tuples(*[st.integers(0, ring.p - 1)] * ring.deg)


@st.composite
def operands(draw, p, n):
    ring = draw(st.sampled_from(rings_for(p)))
    u, v = (draw(st.lists(elements(ring), min_size=n, max_size=n)) for _ in "uv")
    return WittVector(p, ring, u), WittVector(p, ring, v)


def evaluate(kind, u, v=None):
    """The universal polynomials of `kind` evaluated at u (and v)."""
    values = {}
    for i, a in enumerate(u.comps):
        values[f"a{i}" if kind == "frobenius" else f"x{i}"] = a
    if v is not None:
        values.update((f"y{i}", b) for i, b in enumerate(v.comps))
    polys = gen_universal_polys(u.p, len(u), kind)
    return tuple(q.evaluate(u.ring, values) for q in polys)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_operations_match_universal_polys(p, n):
    @PROPERTY
    @given(operands(p, n))
    def check(pair):
        u, v = pair
        assert (u + v).comps == evaluate("sum", u, v)
        assert (u * v).comps == evaluate("product", u, v)
        neg_v = evaluate("negation", v)
        assert (-v).comps == neg_v
        assert (u - v).comps == evaluate("sum", u, WittVector(p, u.ring, neg_v))
        if n >= 2:
            assert u.frobenius().comps == evaluate("frobenius", u)

    check()


@pytest.mark.parametrize("ring", (ZZ, Zmod(8)), ids=repr)
@pytest.mark.parametrize("trunc", range(1, 9))
def test_big_product_matches_universal_polys(ring, trunc):
    comps = st.lists(elements(ring), min_size=trunc, max_size=trunc)

    @PROPERTY
    @given(comps, comps)
    def check(a, b):
        values = {f"x{i}": c for i, c in enumerate(a, 1)}
        values.update((f"y{i}", c) for i, c in enumerate(b, 1))
        want = tuple(q.evaluate(ring, values) for q in gen_big_product_polys(trunc))
        assert (BigWitt(ring, a) * BigWitt(ring, b)).comps == want

    check()


def test_ghost_inverse_rejects_non_ghosts():
    # w_1 = a_0^2 + 2 a_1 with a_0 = 0 cannot be odd
    with pytest.raises(NotDivisible):
        ghost_inverse(ZZ, ghost_table(2, 2), [0, 1])
    with pytest.raises(NotDivisible):
        ghost_inverse(MonicQuotientZ((1, 1, 1)), ghost_table(3, 2), [(0, 0), (1, 3)])
    # gh_2 = a_1^2 + 2 a_2
    with pytest.raises(NotDivisible):
        ghost_inverse(ZZ, big_ghost_table(2), [0, 1])
