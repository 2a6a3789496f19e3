import itertools
import os
import random

import pytest

from wittlab.abgroup import GroupMap, exact_at
from wittlab.errors import ParameterMismatch, ResourceLimit
from wittlab.fplinalg import is_zero_fp, mat_mul_fp, rank_fp
from wittlab.tate import (
    QSpace,
    build_Q,
    build_Qprime,
    corestrict_C,
    diagonal_power_class,
    duality_certificate,
    four_term_maps,
    frob_F,
    orbit_of_word,
    pairing,
    product_mu,
    qprime_projection,
    restrict_R,
    rotate,
    standard_map,
    tau_rot,
    teich_T,
    teich_T_lifted,
    trace_twist_tau,
    twist_coinvariants,
    ver_V,
    w_on_map,
)
from wittlab.witt import teichmuller_digit

rng = random.Random(4096)


def rand_cls(space):
    return space.cls(tuple(rng.randrange(space.modulus)
                           for _ in range(space.num_gens)))


# ---------------------------------------------------------------------------
# orbits and group structure


def test_rotate_and_orbits():
    assert rotate((0, 1, 2)) == (2, 0, 1)
    assert rotate((0, 1, 2), 2) == (1, 2, 0)
    assert orbit_of_word((0, 0)) == [(0, 0)]
    assert sorted(orbit_of_word((0, 1))) == [(0, 1), (1, 0)]
    assert len(orbit_of_word((0, 1, 0, 1))) == 2


def test_q_orders_rank_one():
    # one generator: the group is Z/p^n whenever p^n stays in range
    for p, n in [(2, 1), (2, 2), (2, 3), (2, 4),
                 (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        sp = build_Q(p, n, 1)
        assert sp.group.invariant_factors == (p ** n,), (p, n)


def test_w1_is_the_identity_functor():
    for p, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]:
        sp = build_Q(p, 1, d)
        assert sp.group.invariant_factors == (p,) * d, (p, d)


def test_level2_orders():
    sp = build_Q(2, 2, 2)
    assert sp.group.order() == 32
    fac = sp.group.invariant_factors
    assert max(fac) == 4 and all(f in (2, 4) for f in fac)
    for p, d in [(3, 2), (2, 3)]:
        fac = build_Q(p, 2, d).group.invariant_factors
        assert max(fac) == p ** 2 and all(f in (p, p ** 2) for f in fac)


def test_qprime_and_projection():
    spp = build_Qprime(2, 1, 2)
    assert spp.group.order() == 2 ** 5  # same order as the next level up
    sp = build_Q(2, 1, 2)
    pr = qprime_projection(spp, sp)
    assert pr.is_surjective()
    assert all(f == 2 for f in pr.kernel_group().invariant_factors)


# ---------------------------------------------------------------------------
# Teichmuller classes and functoriality


def test_teichmuller_basic():
    sp = build_Q(2, 1, 2)
    assert teich_T(sp, (0, 0)).is_zero()
    sp1 = build_Q(3, 2, 1)
    assert teich_T(sp1, (1,)).coords == (1,)


def test_teichmuller_lift_independent():
    sp = build_Q(2, 1, 2)
    assert teich_T_lifted(sp, [1, 2]) == teich_T_lifted(sp, [1, 0])
    for trial in range(20):
        m = [rng.randrange(2) for _ in range(2)]
        lift = [x + 2 * rng.randint(0, 3) for x in m]
        assert teich_T_lifted(sp, lift) == teich_T(sp, m)
    sp3 = build_Q(3, 1, 2)
    for trial in range(20):
        m = [rng.randrange(3) for _ in range(2)]
        lift = [x + 3 * rng.randint(0, 2) for x in m]
        assert teich_T_lifted(sp3, lift) == teich_T(sp3, m)


def test_w_on_map_functorial():
    sp = build_Q(2, 1, 2)
    assert w_on_map([[1, 0], [0, 1]], sp, sp) == GroupMap.identity(sp.group)
    for trial in range(15):
        f = [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
        g = [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
        # entries only matter mod p
        f_lift = [[x + 2 * rng.randint(0, 2) for x in row] for row in f]
        assert w_on_map(f, sp, sp) == w_on_map(f_lift, sp, sp)
        fg = [[sum(f[i][k] * g[k][j] for k in range(2)) for j in range(2)]
              for i in range(2)]
        assert w_on_map(fg, sp, sp) == \
            w_on_map(f, sp, sp).compose(w_on_map(g, sp, sp))


# ---------------------------------------------------------------------------
# the four structure maps


def test_v_and_f_rank_one():
    # one-letter module: V is multiplication by p, F is reduction
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        src = build_Q(p, n - 1, 1)
        dst = build_Q(p, n, 1)
        assert ver_V(src, dst).matrix.rows == [[p]]
        assert frob_F(dst, src).matrix.rows == [[1]]


def test_f_on_teichmuller_and_fv_vf():
    src = build_Q(2, 1, 4)
    dst = build_Q(2, 2, 2)
    f_map = frob_F(dst, src)
    v_map = ver_V(src, dst)
    # F sends T(m) to T of the encoded square word
    for m in itertools.product(range(2), repeat=2):
        tm = teich_T(dst, m)
        mm = [0] * 4
        for i in range(2):
            for j in range(2):
                mm[i * 2 + j] = (m[i] * m[j]) % 2
        assert src.cls(f_map.apply(tm.coords)) == teich_T(src, mm), m
    # FV is the norm of the block rotation, VF is p id
    rot = tau_rot(src, 2, 2)
    assert f_map.compose(v_map) == GroupMap.identity(src.group) + rot
    assert v_map.compose(f_map) == GroupMap.identity(dst.group).scaled(2)


def test_restriction_rank_one_and_teichmuller():
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        src = build_Q(p, n + 1, 1)
        dst = build_Q(p, n, 1)
        assert restrict_R(src, dst).matrix.rows == [[1]]
    src2 = build_Q(2, 2, 2)
    dst1 = build_Q(2, 1, 2)
    r = restrict_R(src2, dst1)
    for m in itertools.product(range(2), repeat=2):
        got = dst1.cls(r.apply(teich_T(src2, m).coords))
        assert got == teich_T(dst1, m), m


def test_standard_iso_and_projection_triangle():
    spp = build_Qprime(2, 1, 2)
    dst = build_Q(2, 2, 2)
    lower = build_Q(2, 1, 2)
    psi = standard_map(spp, dst)
    assert psi.is_isomorphism()
    r = restrict_R(dst, lower)
    assert r.compose(psi) == qprime_projection(spp, lower)
    for m in itertools.product(range(2), repeat=2):
        got = dst.cls(psi.apply(teich_T(spp, m).coords))
        assert got == teich_T(dst, m), m


def test_standard_iso_basis_independent():
    # recompute the letter images in the basis f0 = e0+e1, f1 = e1 and
    # check the induced map is unchanged
    spp = build_Qprime(2, 1, 2)
    dst = build_Q(2, 2, 2)
    psi = standard_map(spp, dst)

    def tensor_sq(vec):
        out = {}
        for i, a in enumerate(vec):
            for j, b in enumerate(vec):
                if a * b:
                    out[(i, j)] = out.get((i, j), 0) + a * b
        return out

    fb = [(1, 1), (0, 1)]        # f_j written in e coordinates
    e_in_f = [(1, 1), (0, 1)]    # e_k written in f coordinates
    c_images = []
    for k in range(2):
        acc = {}
        for j in range(2):
            if e_in_f[k][j]:
                for w, c in tensor_sq(fb[j]).items():
                    acc[w] = acc.get(w, 0) + c
        c_images.append({w: c for w, c in acc.items() if c})
    assert standard_map(spp, dst, c_images) == psi


def test_vr_sequence_with_twisted_coinvariants():
    # W_1(M tensor M) -> W_2(M) -> W_1(M) -> 0 at p = 2, dim M = 2
    src = build_Q(2, 1, 4)
    mid = build_Q(2, 2, 2)
    dst = build_Q(2, 1, 2)
    v_map = ver_V(src, mid)
    r_map = restrict_R(mid, dst)
    assert r_map.is_surjective()
    assert r_map.compose(v_map) == GroupMap.zero(src.group, dst.group)
    assert exact_at(v_map, r_map)
    # V kills the twist, descends to coinvariants, and is injective there
    rot = tau_rot(src, 2, 2)
    assert v_map.compose(rot) == v_map
    co, _proj = twist_coinvariants(src, rot)
    v_bar = GroupMap(co, mid.group, v_map.matrix)
    assert v_bar.is_injective()
    assert co.order() * dst.group.order() == mid.group.order()


# ---------------------------------------------------------------------------
# duality, corestriction, adjointness


@pytest.mark.parametrize(
    "p,n,d", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 2), (3, 2, 1), (2, 2, 2)]
)
def test_duality_perfect(p, n, d):
    sp = build_Q(p, n, d)
    cert, dual = duality_certificate(sp)
    assert cert.is_isomorphism()
    assert dual.order() == sp.group.order()


def test_pairing_values():
    sp = build_Q(2, 2, 1)
    assert pairing(sp, sp.cls((3,)), sp.cls((2,))) == (3 * 2) % 4
    # Teichmuller classes pair to the multiplicative digit of the evaluation
    sp2 = build_Q(2, 2, 2)
    for m in itertools.product(range(2), repeat=2):
        for lam in itertools.product(range(2), repeat=2):
            val = pairing(sp2, teich_T(sp2, m), teich_T(sp2, lam))
            ev = sum(a * b for a, b in zip(m, lam)) % 2
            assert val == teichmuller_digit(2, ev, 1) % 4, (m, lam)


def test_corestriction_rank_one_is_p():
    for p, n in [(2, 1), (3, 1), (2, 2)]:
        a = build_Q(p, n, 1)
        b = build_Q(p, n + 1, 1)
        assert corestrict_C(a, b).matrix.rows == [[p]]


def test_rc_cr_equal_p():
    lo = build_Q(2, 1, 2)
    hi = build_Q(2, 2, 2)
    r_map = restrict_R(hi, lo)
    c_map = corestrict_C(lo, hi, r_map)
    assert r_map.compose(c_map) == GroupMap.identity(lo.group).scaled(2)
    assert c_map.compose(r_map) == GroupMap.identity(hi.group).scaled(2)
    # defining property: <C x, y> = p <x, R y> (lifted)
    for trial in range(30):
        x = rand_cls(lo)
        y = rand_cls(hi)
        lhs = pairing(hi, hi.cls(c_map.apply(x.coords)), y)
        rhs = (2 * pairing(lo, x, lo.cls(r_map.apply(y.coords)))) % 4
        assert lhs == rhs


def test_v_f_adjoint():
    lo = build_Q(2, 1, 4)
    hi = build_Q(2, 2, 2)
    v_map = ver_V(lo, hi)
    f_map = frob_F(hi, lo)
    for trial in range(30):
        x = rand_cls(lo)
        y = rand_cls(hi)
        lhs = pairing(hi, hi.cls(v_map.apply(x.coords)), y)
        rhs = (2 * pairing(lo, x, lo.cls(f_map.apply(y.coords)))) % 4
        assert lhs == rhs


# ---------------------------------------------------------------------------
# external product


def test_mu_teichmuller_and_bilinear():
    a = build_Q(2, 1, 2)
    b = build_Q(2, 1, 2)
    ab = build_Q(2, 1, 4)
    for m0 in itertools.product(range(2), repeat=2):
        for m1 in itertools.product(range(2), repeat=2):
            got = product_mu(a, b, ab, teich_T(a, m0), teich_T(b, m1))
            mt = [0] * 4
            for i in range(2):
                for j in range(2):
                    mt[i * 2 + j] = m0[i] * m1[j] % 2
            assert got == teich_T(ab, mt)
    for trial in range(20):
        x1, x2, y = rand_cls(a), rand_cls(a), rand_cls(b)
        assert product_mu(a, b, ab, x1 + x2, y) == \
            product_mu(a, b, ab, x1, y) + product_mu(a, b, ab, x2, y)


def test_mu_unit_and_twist_commutativity():
    a = build_Q(2, 1, 2)
    one = build_Q(2, 1, 1)
    ax = build_Q(2, 1, 2)
    for trial in range(10):
        x = rand_cls(a)
        u = product_mu(a, one, ax, x, teich_T(one, (1,)))
        assert u.coords == x.coords
    b = build_Q(2, 1, 2)
    ab = build_Q(2, 1, 4)
    tw = trace_twist_tau(ab, ab, 2, 2)
    for trial in range(10):
        x, y = rand_cls(a), rand_cls(b)
        flipped = ab.cls(tw.apply(product_mu(a, b, ab, x, y).coords))
        assert flipped == product_mu(b, a, ab, y, x)


def _interleave_perm(inner_first):
    # 16-letter permutation between (M0 x M1)^(x2) and M0^(x2) x M1^(x2)
    perm = [[0] * 16 for _ in range(16)]
    for a0 in range(2):
        for b0 in range(2):
            for a1 in range(2):
                for b1 in range(2):
                    pairs = ((a0 * 2 + b0) * 4) + (a1 * 2 + b1)
                    split = ((a0 * 2 + a1) * 4) + (b0 * 2 + b1)
                    if inner_first:
                        perm[split][pairs] = 1
                    else:
                        perm[pairs][split] = 1
    return perm


def test_mu_commutes_with_r_f_v():
    a1 = build_Q(2, 1, 2)
    b1 = build_Q(2, 1, 2)
    ab1 = build_Q(2, 1, 4)
    a2 = build_Q(2, 2, 2)
    b2 = build_Q(2, 2, 2)
    ab2 = build_Q(2, 2, 4)
    # R
    r_a = restrict_R(a2, a1)
    r_b = restrict_R(b2, b1)
    r_ab = restrict_R(ab2, ab1)
    for trial in range(12):
        x, y = rand_cls(a2), rand_cls(b2)
        lhs = ab1.cls(r_ab.apply(product_mu(a2, b2, ab2, x, y).coords))
        rhs = product_mu(a1, b1, ab1,
                         a1.cls(r_a.apply(x.coords)),
                         b1.cls(r_b.apply(y.coords)))
        assert lhs == rhs
    # F, after reshuffling tensor factors
    down = build_Q(2, 1, 4)
    f_a = frob_F(a2, down)
    f_b = frob_F(b2, down)
    ab_down = build_Q(2, 1, 16)
    f_ab = frob_F(ab2, ab_down)
    mix = build_Q(2, 1, 16)
    iota = w_on_map(_interleave_perm(True), ab_down, mix)
    for trial in range(12):
        x, y = rand_cls(a2), rand_cls(b2)
        lhs = mix.cls(iota.apply(
            f_ab.apply(product_mu(a2, b2, ab2, x, y).coords)))
        rhs = product_mu(down, down, mix,
                         down.cls(f_a.apply(x.coords)),
                         down.cls(f_b.apply(y.coords)))
        assert lhs == rhs
    # V in the first slot: mu(V x, y) = V(mu(x, F y)) along the reshuffle
    src_a = build_Q(2, 1, 4)
    v_a = ver_V(src_a, a2)
    mix16 = build_Q(2, 1, 16)
    back = w_on_map(_interleave_perm(False), mix16, build_Q(2, 1, 16))
    pairs16 = build_Q(2, 1, 16)
    v_ab = ver_V(pairs16, ab2)
    for trial in range(12):
        x = rand_cls(src_a)
        y = rand_cls(b2)
        lhs = product_mu(a2, b2, ab2, a2.cls(v_a.apply(x.coords)), y)
        fy = down.cls(f_b.apply(y.coords))
        m1 = product_mu(src_a, down, mix16, x, fy)
        rhs = ab2.cls(v_ab.apply(back.apply(m1.coords)))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# twists


def test_trace_twist():
    m = build_Q(2, 1, 2)
    assert trace_twist_tau(m, m, 2, 1) == GroupMap.identity(m.group)
    ab = build_Q(2, 1, 4)
    tw = trace_twist_tau(ab, ab, 2, 2)
    assert tw.compose(tw) == GroupMap.identity(ab.group)
    ab22 = build_Q(2, 2, 4)
    tw22 = trace_twist_tau(ab22, ab22, 2, 2)
    assert tw22.compose(tw22) == GroupMap.identity(ab22.group)
    # triple product: three cyclic shifts compose to the identity
    t8 = build_Q(2, 1, 8)
    t1 = trace_twist_tau(t8, t8, 4, 2)
    assert t1.compose(t1).compose(t1) == GroupMap.identity(t8.group)


def test_tau_rot_orders():
    sp4 = build_Q(2, 1, 4)
    rot = tau_rot(sp4, 2, 2)
    assert rot.compose(rot) == GroupMap.identity(sp4.group)
    assert tau_rot(build_Q(2, 2, 2), 2, 1) == \
        GroupMap.identity(build_Q(2, 2, 2).group)
    sp8 = build_Q(2, 1, 8)
    rot3 = tau_rot(sp8, 2, 3)
    assert rot3.compose(rot3).compose(rot3) == GroupMap.identity(sp8.group)


# ---------------------------------------------------------------------------
# the level-1 four-term sequence over F_p


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_four_term_exact(p, d):
    psi, norm, phi, g = four_term_maps(p, d)
    assert is_zero_fp(mat_mul_fp(norm, psi, p), p)
    assert is_zero_fp(mat_mul_fp(phi, norm, p), p)
    assert rank_fp(psi, p) == d                      # injective
    assert g - rank_fp(norm, p) == d                 # ker norm = im psi
    assert g - rank_fp(phi, p) == rank_fp(norm, p)   # ker phi = im norm
    assert rank_fp(phi, p) == d                      # surjective


@pytest.mark.parametrize("p,d", ((2, 2), (3, 2), (2, 3)))
def test_diagonal_power_additive_mod_p(p, d):
    psi, _, _, g = four_term_maps(p, d)
    for trial in range(15):
        x = [rng.randrange(p) for _ in range(d)]
        y = [rng.randrange(p) for _ in range(d)]
        dxy = diagonal_power_class(p, d, [a + b for a, b in zip(x, y)])
        dx = diagonal_power_class(p, d, x)
        dy = diagonal_power_class(p, d, y)
        assert all((a - b - c) % p == 0 for a, b, c in zip(dxy, dx, dy))
    for e in range(d):
        v = [0] * d
        v[e] = 1
        assert list(diagonal_power_class(p, d, v)) == \
            [psi[i][e] % p for i in range(g)]


# ---------------------------------------------------------------------------
# resource bounds and guards


def test_resource_limit():
    with pytest.raises(ResourceLimit):
        build_Q(2, 4, 3)  # 3^16 ambient words
    sp = build_Q(2, 2, 3, limit=100)
    assert sp.num_gens > 0
    with pytest.raises(ResourceLimit):
        build_Q(2, 2, 3, limit=80)  # 81 words just over


def test_env_limit_override():
    os.environ["WITTLAB_LIMIT"] = "80"
    try:
        with pytest.raises(ResourceLimit):
            build_Q(2, 2, 3)
    finally:
        del os.environ["WITTLAB_LIMIT"]
    build_Q(2, 2, 3)


def test_map_shape_guards():
    lo = build_Q(2, 1, 2)
    hi = build_Q(2, 2, 2)
    with pytest.raises(ParameterMismatch):
        restrict_R(lo, hi)
    with pytest.raises(ParameterMismatch):
        ver_V(lo, hi)  # source must have d^p letters
    with pytest.raises(ParameterMismatch):
        frob_F(lo, hi)


def test_w_on_map_zero_dimensional_spaces():
    # M = 0 has no tensor words, so its group has no generators at all
    one, zero = build_Q(2, 1, 1), build_Q(2, 1, 0)
    assert zero.num_gens == 0
    out = w_on_map([], one, zero)
    assert (out.matrix.m, out.matrix.n) == (0, 1)
    assert out.kernel_group().order() == one.group.order() == 2
    into = w_on_map([[]], zero, one)
    assert (into.matrix.m, into.matrix.n) == (1, 0)
    assert into.kernel_group().order() == 1
    assert into.cokernel().order() == 2
