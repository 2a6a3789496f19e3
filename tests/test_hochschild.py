import itertools

import pytest

from wittlab import hochschild
from wittlab.abgroup import GroupMap
from wittlab.errors import InvalidAlgebra, ParameterMismatch
from wittlab.hochschild import (
    BUILTIN_ALGEBRAS,
    AlgebraSpec,
    SpecRing,
    build_A_natural,
    build_WnA_natural,
    builtin_algebra,
    classical_witt_group,
    connes_B_zero_on_homology,
    cyclic_identity_failures,
    fbv_stretch_check,
    hesselholt_seq_check,
    hochschild_homology,
    whh0,
    whh_R,
    whh_V,
    witt_chain_homology,
    witt_connes_B,
)
from wittlab.rings import GF, QuotientPolyRing, Zmod
from wittlab.tate import teich_T
from wittlab.witt import WittVector, witt_to_padic

NAMES = ["f2", "f3", "f4", "dual_numbers_f2", "upper_triangular_2x2_f2"]
ALGS = {name: builtin_algebra(name) for name in NAMES}
ORACLE_RINGS = {
    "f2": Zmod(2),
    "f3": Zmod(3),
    "f4": GF(4),
    "dual_numbers_f2": QuotientPolyRing(2, (0, 0, 1)),
}


# ---------------------------------------------------------------------------
# algebra validation


def test_builtin_algebras_validate():
    for name in NAMES:
        a = ALGS[name]
        assert a.dim == len(a.basis)
    assert sorted(BUILTIN_ALGEBRAS) == sorted(NAMES)


def test_commutativity_flags():
    assert ALGS["f4"].is_commutative()
    assert ALGS["dual_numbers_f2"].is_commutative()
    assert not ALGS["upper_triangular_2x2_f2"].is_commutative()


def test_nonassociative_rejected_with_triple():
    # basis (1, a, b): a*a = b, a*b = 1, b*a = 0, b*b = 0; then
    # (a*a)*a = 0 while a*(a*a) = 1
    mul = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(InvalidAlgebra) as info:
        AlgebraSpec(2, 3, ["1", "a", "b"], [1, 0, 0], mul)
    assert "associativity" in str(info.value)
    assert "a" in str(info.value)


def test_bad_unit_rejected():
    mul = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    with pytest.raises(InvalidAlgebra) as info:
        AlgebraSpec(2, 2, ["1", "x"], [0, 1], mul)
    assert "unit" in str(info.value)


def test_from_dict_missing_field():
    with pytest.raises(InvalidAlgebra):
        AlgebraSpec.from_dict({"p": 2, "dim": 2})


def test_load_missing_file(tmp_path):
    with pytest.raises(InvalidAlgebra):
        AlgebraSpec.load(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidAlgebra):
        AlgebraSpec.load(str(bad))


def test_algebra_files_match_builtins(tmp_path):
    import json
    from pathlib import Path

    adir = Path(__file__).resolve().parent.parent / "algebras"
    for name in NAMES:
        spec = AlgebraSpec.load(str(adir / f"{name}.json"))
        builtin = ALGS[name]
        assert spec.p == builtin.p
        assert spec.dim == builtin.dim
        assert spec.mul == builtin.mul


# ---------------------------------------------------------------------------
# the F_p tower: identities, homology, Connes B


@pytest.fixture(scope="module")
def slices():
    return {name: build_A_natural(ALGS[name], 3) for name in NAMES}


def test_cyclic_identities_all_builtins(slices):
    for name in NAMES:
        assert cyclic_identity_failures(slices[name]) == []


def test_hh_dims_prime_fields(slices):
    assert hochschild_homology(slices["f2"], 2) == [1, 0, 0]
    assert hochschild_homology(slices["f3"], 2) == [1, 0, 0]


def test_hh_dims_etale(slices):
    # separable extension: no higher Hochschild homology
    assert hochschild_homology(slices["f4"], 2) == [2, 0, 0]


def test_hh_dims_dual_numbers(slices):
    # F_2[x]/(x^2) keeps rank-2 homology in every degree
    assert hochschild_homology(slices["dual_numbers_f2"], 2) == [2, 2, 2]


def test_hh_dims_upper_triangular(slices):
    assert hochschild_homology(slices["upper_triangular_2x2_f2"], 2) == \
        [2, 0, 0]


def _assert_connes_b_identities(tw, name):
    # B B = 0, d B = 0 from degree 0, and d B + B d = 0
    b0 = witt_connes_B(tw, 0)
    b1 = witt_connes_B(tw, 1)
    g = tw.groups
    assert b1.compose(b0) == GroupMap.zero(g[1], g[3]), name
    d1 = tw.chain_differential(1)
    d2 = tw.chain_differential(2)
    assert d1.compose(b0) == GroupMap.zero(g[1], g[1]), name
    assert d2.compose(b1) + b0.compose(d1) == GroupMap.zero(g[2], g[2]), name


def test_connes_b_chain_identities(slices):
    # the F_p towers; the dual numbers over F_3 make the signs visible
    dual_f3 = AlgebraSpec(3, 2, ["1", "x"], [1, 0],
                          [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    for name in NAMES:
        _assert_connes_b_identities(slices[name], name)
    _assert_connes_b_identities(build_A_natural(dual_f3, 3),
                                "dual numbers over F_3")


def test_witt_connes_b_identities():
    _assert_connes_b_identities(build_WnA_natural(ALGS["f2"], 2, D=2),
                                "f2 n=2")


@pytest.mark.parametrize("face", ("first", "wrap"))
def test_identity_check_catches_a_wrong_face(monkeypatch, face):
    # a face multiplying its two slots in the opposite order breaks the
    # cyclic identities of the non-commutative algebra; the F_p tower
    # builds its wrap-around face on its own, the Witt tower from d_0
    real = hochschild.face_rows

    def flipped(A, m, i):
        if i != (0 if face == "first" else m - 1):
            return real(A, m, i)
        d = A.dim
        rows = [[0] * (d ** m) for _ in range(d ** (m - 1))]
        for w in itertools.product(range(d), repeat=m):
            if i == 0:
                prod, rest = A.mul[w[1]][w[0]], w[2:]
            else:
                prod, rest = A.mul[w[0]][w[m - 1]], w[1:m - 1]
            for k, c in enumerate(prod):
                if c:
                    rows[hochschild._windex((k,) + rest, d)][
                        hochschild._windex(w, d)] = c
        return rows

    monkeypatch.setattr(hochschild, "face_rows", flipped)
    ut = ALGS["upper_triangular_2x2_f2"]
    with pytest.raises(ParameterMismatch):
        build_A_natural(ut, 3)
    if face == "first":
        with pytest.raises(ParameterMismatch):
            build_WnA_natural(ut, 1, D=2)


def test_connes_b_vanishes_on_etale_homology(slices):
    for i in (0, 1):
        assert connes_B_zero_on_homology(slices["f4"], i)
        assert connes_B_zero_on_homology(slices["f2"], i)


def test_connes_b_on_non_etale_homology(slices):
    # B sends x to the nonzero class of 1 (x) x in HH_1 of the dual numbers
    assert not connes_B_zero_on_homology(slices["dual_numbers_f2"], 0)
    assert connes_B_zero_on_homology(slices["dual_numbers_f2"], 1)
    # zero on HH_1 of the upper-triangular algebra, though not on all of C_1
    assert connes_B_zero_on_homology(slices["upper_triangular_2x2_f2"], 1)


# ---------------------------------------------------------------------------
# the Witt-level tower


def test_rank_one_towers_are_cyclic_groups():
    for name, n in (("f2", 2), ("f3", 2), ("f2", 3)):
        a = ALGS[name]
        ws = build_WnA_natural(a, n, D=2)
        for sp in ws.spaces.values():
            assert sp.group.invariant_factors == (a.p ** n,)


def test_level_one_tower_reduces_to_linear_faces():
    # at n = 1 the fixed orbits (s, s, ..., s) play the role of the
    # letters; face entries between them agree with the linear tower
    # mod p (Fermat: the diagonal p-th power fixes scalars)
    for name in ("f4", "dual_numbers_f2", "upper_triangular_2x2_f2"):
        a = ALGS[name]
        ws = build_WnA_natural(a, 1, D=2)
        sl = build_A_natural(a, 2)
        p = a.p
        for m in (2, 3):
            src_sp, dst_sp = ws.spaces[m], ws.spaces[m - 1]
            length = src_sp.length
            src_fix = [src_sp.orbit_of[(s,) * length] for s in range(src_sp.d)]
            dst_fix = [dst_sp.orbit_of[(t,) * length] for t in range(dst_sp.d)]
            for i in range(m):
                mat = ws.faces[m][i].matrix
                for s in range(src_sp.d):
                    col = mat.col(src_fix[s])
                    for t in range(dst_sp.d):
                        assert col[dst_fix[t]] % p == \
                            sl.faces[m][i].matrix.col(s)[t] % p, \
                            (name, m, i, s, t)


# ---------------------------------------------------------------------------
# degree-zero groups against the classical construction


def padic_orders(ring, p, n):
    return classical_witt_group(ring, p, n).invariant_factors


@pytest.mark.parametrize("name", ("f2", "f3", "f4", "dual_numbers_f2"))
@pytest.mark.parametrize("n", (1, 2))
def test_whh0_matches_classical(name, n):
    a = ALGS[name]
    w = whh0(a, n)
    assert w.group.invariant_factors == padic_orders(ORACLE_RINGS[name], a.p, n)


def test_classical_oracle_values():
    # spot values for the oracle itself, so the comparison means something
    assert padic_orders(Zmod(2), 2, 2) == (4,)
    assert padic_orders(GF(4), 2, 1) == (2, 2)
    assert padic_orders(GF(4), 2, 2) == (4, 4)
    assert padic_orders(QuotientPolyRing(2, (0, 0, 1)), 2, 2) == (2, 2, 4)


def test_classical_witt_group_agrees_with_padic():
    # W_n(F_p) = Z/p^n via the digit bijection, and the Cayley-table
    # presentation sees the same group
    for p, n in ((2, 2), (3, 2), (2, 3)):
        ring = Zmod(p)
        assert padic_orders(ring, p, n) == (p ** n,)
        total = WittVector.zero(p, ring, n)
        one = WittVector.one(p, ring, n)
        for k in range(p ** n):
            if witt_to_padic(total) == 0 and k:
                break
            total = total + one
        assert k == p ** n - 1


def test_whh0_upper_triangular():
    # Morita-style collapse onto the diagonal: W_n(F_2 x F_2)
    ut = ALGS["upper_triangular_2x2_f2"]
    assert whh0(ut, 1).group.invariant_factors == (2, 2)
    assert whh0(ut, 2).group.invariant_factors == (4, 4)


def test_whh_restriction_descends():
    for name in ("f2", "f4", "dual_numbers_f2"):
        a = ALGS[name]
        hi, lo = whh0(a, 2), whh0(a, 1)
        r = whh_R(hi, lo)
        assert r.is_surjective()
        for vec in itertools.product(range(a.p), repeat=a.dim):
            t_hi = teich_T(hi.space, vec).coords
            t_lo = lo.group.canonical(teich_T(lo.space, vec).coords)
            assert lo.group.equal(r.apply(t_hi), t_lo), (name, vec)


def test_whh_verschiebung_descends():
    # GroupMap construction re-checks that relations land in relations
    for name in ("f2", "f4", "dual_numbers_f2"):
        a = ALGS[name]
        lo, hi = whh0(a, 1), whh0(a, 2)
        v = whh_V(lo, hi)
        assert v.matrix.m == hi.group.num_gens


@pytest.mark.parametrize("name", NAMES)
def test_hesselholt_sequence_level_one(name):
    rep = hesselholt_seq_check(ALGS[name], 1)
    assert rep["R_surjective"], name
    assert rep["middle_exact"], name
    # left-injectivity is reported, not asserted; record the observation
    assert rep["V_injective"] in (True, False)


def test_hesselholt_sequence_orders_consistent():
    # orders of the degree-zero groups at levels 1 and 2
    rep = hesselholt_seq_check(ALGS["f4"], 1)
    assert rep["orders"] == (4, 16)


# ---------------------------------------------------------------------------
# the F B V stretch identity and Witt-level homology


def test_fbv_stretch_f2_level2():
    rep = fbv_stretch_check(ALGS["f2"], 2)
    assert rep["holds"]
    # in this range the degree-1 homology is trivial, so the statement
    # is an honest 0 = 0; keep that visible
    assert rep["degree1_homology_order"] == 1


def test_witt_chain_homology_degree1():
    ws = build_WnA_natural(ALGS["f2"], 2, D=2)
    h1 = witt_chain_homology(ws, 1)
    assert h1.order() == 1


# ---------------------------------------------------------------------------
# the ring adapter


def test_spec_ring_roundtrip():
    a = ALGS["f4"]
    ring = SpecRing(a)
    els = list(ring.elements())
    assert len(els) == 4
    for u in els:
        assert ring.add(u, ring.neg(u)) == ring.zero
        assert ring.mul(u, ring.one) == u
    with pytest.raises(Exception):
        SpecRing(ALGS["upper_triangular_2x2_f2"])
