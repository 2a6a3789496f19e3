"""Runnable self-check suites: classical, big, tate, hh.

Each check is a small named callable returning True on success; the
runner records failures and exceptions without stopping.  These are
quick smoke-level properties, lighter than the test suite, meant for
a command-line sanity pass after an install.
"""

import random

from .abgroup import GroupMap, exact_at
from .bigwitt import BigWitt, eps_action, p_typical_decompose
from .errors import WittlabError
from .hochschild import (
    build_A_natural,
    builtin_algebra,
    classical_witt_group,
    connes_B_zero_on_homology,
    hesselholt_seq_check,
    hochschild_homology,
    SpecRing,
    whh0,
)
from .rings import GF, Zmod, ZZ
from .tate import (
    build_Q,
    build_Qprime,
    corestrict_C,
    four_term_maps,
    frob_F,
    pairing,
    qprime_projection,
    restrict_R,
    standard_map,
    ver_V,
)
from .witt import (
    WittVector,
    eval_universal_polys,
    padic_to_witt,
    poly_text_lines,
    witt_to_padic,
)
from .fplinalg import mat_mul_fp, rank_fp


def _random_witt(rng, p, n):
    return WittVector(p, ZZ, tuple(rng.randint(-9, 9) for _ in range(n)))


def check_ghost_homomorphism():
    rng = random.Random(20260814)
    for p in (2, 3):
        for n in (1, 2, 3):
            for _ in range(20):
                a, b = _random_witt(rng, p, n), _random_witt(rng, p, n)
                ga, gb = a.ghost(), b.ghost()
                if (a + b).ghost() != [x + y for x, y in zip(ga, gb)]:
                    return False
                if (a * b).ghost() != [x * y for x, y in zip(ga, gb)]:
                    return False
                if (-a).ghost() != [-x for x in ga]:
                    return False
            # + and * run in ghost space; compare with the polynomials
            if (a + b).comps != eval_universal_polys("sum", a, b):
                return False
            if (a * b).comps != eval_universal_polys("product", a, b):
                return False
    return True


def check_poly_spot_values():
    s = poly_text_lines(2, 2, "sum")
    pr = poly_text_lines(2, 2, "product")
    f = poly_text_lines(3, 2, "frobenius")
    return (
        s == ["S0 = x0 + y0", "S1 = x1 + y1 - x0*y0"]
        and pr[1] == "P1 = 2*x1*y1 + x0^2*y1 + x1*y0^2"
        and f == ["f1 = 3*a1 + a0^3"]
    )


def check_padic_iso():
    for p, n in ((2, 2), (3, 2), (2, 3)):
        for k in range(p ** n):
            v = padic_to_witt(p, k, n)
            if witt_to_padic(v) != k:
                return False
        for a in range(p ** n):
            for b in range(p ** n):
                va, vb = padic_to_witt(p, a, n), padic_to_witt(p, b, n)
                if witt_to_padic(va + vb) != (a + b) % p ** n:
                    return False
                if witt_to_padic(va * vb) != (a * b) % p ** n:
                    return False
    return True


def check_vf_identities():
    for p in (2, 3):
        ring = Zmod(p)
        vecs = [
            WittVector(p, ring, (a, b))
            for a in range(p)
            for b in range(p)
        ]
        for v in vecs:
            fv = v.frobenius().verschiebung()
            pv = sum((v for _ in range(p - 1)), v)
            if fv.comps != pv.comps:
                return False
    return True


def check_big_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        v = BigWitt(ZZ, tuple(rng.randint(-5, 5) for _ in range(5)))
        if BigWitt.from_series(v.to_series()).comps != v.comps:
            return False
    ring = Zmod(2)
    import itertools

    for comps in itertools.product(range(2), repeat=3):
        v = BigWitt(ring, comps)
        if BigWitt.from_series(v.to_series()).comps != v.comps:
            return False
    return True


def check_big_ghost_identity():
    rng = random.Random(7)
    for _ in range(10):
        v = BigWitt(ZZ, tuple(rng.randint(-4, 4) for _ in range(6)))
        w = BigWitt(ZZ, tuple(rng.randint(-4, 4) for _ in range(6)))
        gs = (v + w).ghost()
        gv, gw = v.ghost(), w.ghost()
        if gs != [x + y for x, y in zip(gv, gw)]:
            return False
        if (v * w).ghost() != [x * y for x, y in zip(gv, gw)]:
            return False
    return True


def check_eps_relations():
    import math

    N = 12
    for i in range(1, 5):
        for j in range(1, 5):
            lcm = i * j // math.gcd(i, j)
            lhs = BigWitt.eps(ZZ, N, i) * BigWitt.eps(ZZ, N, j)
            scale = (i * j) // lcm
            rhs = BigWitt.zero(ZZ, N)
            for _ in range(scale):
                rhs = rhs + BigWitt.eps(ZZ, N, lcm)
            if lhs.comps != rhs.comps:
                return False
    return True


def check_p_typical_split():
    # defining property: classical ghost j of the part at n is the big
    # ghost at index n * p^j
    ring = Zmod(8)
    v = BigWitt(ring, (1, 3, 2, 5))
    parts = p_typical_decompose(2, v)
    big_ghost = v.ghost()
    for n, w in parts.items():
        for j, g in enumerate(w.ghost()):
            if g != big_ghost[n * 2 ** j - 1]:
                return False
    return sum(len(w) for w in parts.values()) == v.trunc


def check_q_orders():
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 3), (5, 2)):
        if build_Q(p, n, 1).group.order() != p ** n:
            return False
    return build_Q(2, 2, 2).group.order() == 32


def check_standard_iso():
    spp = build_Qprime(2, 1, 2)
    dst = build_Q(2, 2, 2)
    iso = standard_map(spp, dst)
    if not iso.is_isomorphism():
        return False
    r = restrict_R(dst, build_Q(2, 1, 2))
    return r.compose(iso) == qprime_projection(spp, build_Q(2, 1, 2))


def check_rc_cr():
    lo, hi = build_Q(2, 1, 2), build_Q(2, 2, 2)
    r = restrict_R(hi, lo)
    c = corestrict_C(lo, hi)
    two_lo = GroupMap.identity(lo.group).scaled(2)
    two_hi = GroupMap.identity(hi.group).scaled(2)
    return r.compose(c) == two_lo and c.compose(r) == two_hi


def check_four_term():
    for p, d in ((2, 2), (3, 2)):
        psi, norm, phi, k = four_term_maps(p, d)
        if rank_fp(mat_mul_fp(norm, psi, p), p) != 0:
            return False
        if rank_fp(mat_mul_fp(phi, norm, p), p) != 0:
            return False
    return True


def check_duality():
    from .tate import duality_certificate

    cert, dual = duality_certificate(build_Q(2, 1, 2))
    return cert.is_isomorphism()


def check_rv_sequence():
    lo = build_Q(2, 1, 2 ** 2)
    hi = build_Q(2, 2, 2)
    v = ver_V(lo, hi)
    r = restrict_R(hi, build_Q(2, 1, 2))
    return exact_at(v, r) and r.is_surjective()


def check_algebras_validate():
    names = ["f2", "f3", "f4", "dual_numbers_f2", "upper_triangular_2x2_f2"]
    try:
        for name in names:
            builtin_algebra(name)
    except WittlabError:
        return False
    return True


def check_hh_etale():
    sl = build_A_natural(builtin_algebra("f4"), 3)
    if hochschild_homology(sl, 2) != [2, 0, 0]:
        return False
    return connes_B_zero_on_homology(sl, 0) and connes_B_zero_on_homology(sl, 1)


def check_whh_oracle():
    for name, ring_n in (("f2", 2), ("f4", 1), ("dual_numbers_f2", 1)):
        A = builtin_algebra(name)
        w = whh0(A, ring_n)
        cl = classical_witt_group(SpecRing(A), A.p, ring_n)
        if w.group.invariant_factors != cl.invariant_factors:
            return False
    return True


def check_he_seq():
    for name in ("f2", "f4"):
        rep = hesselholt_seq_check(builtin_algebra(name), 1)
        if not (rep["R_surjective"] and rep["middle_exact"]):
            return False
    return True


SUITES = {
    "classical": [
        ("ghost_homomorphism", check_ghost_homomorphism),
        ("poly_spot_values", check_poly_spot_values),
        ("padic_iso", check_padic_iso),
        ("vf_identities", check_vf_identities),
    ],
    "big": [
        ("series_round_trip", check_big_round_trip),
        ("ghost_identity", check_big_ghost_identity),
        ("eps_relations", check_eps_relations),
        ("p_typical_split", check_p_typical_split),
    ],
    "tate": [
        ("q_orders", check_q_orders),
        ("standard_iso", check_standard_iso),
        ("rc_cr", check_rc_cr),
        ("four_term", check_four_term),
        ("duality", check_duality),
        ("rv_sequence", check_rv_sequence),
    ],
    "hh": [
        ("algebras_validate", check_algebras_validate),
        ("hh_etale", check_hh_etale),
        ("whh_oracle", check_whh_oracle),
        ("he_seq", check_he_seq),
    ],
}


def suite_names():
    return list(SUITES) + ["all"]


def run_suite(name):
    """Run one suite (or all); list of dicts with check, pass, detail."""
    if name == "all":
        checks = [c for suite in SUITES.values() for c in suite]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise KeyError(name)
    results = []
    for check_name, fn in checks:
        try:
            ok = bool(fn())
            detail = ""
        except Exception as e:
            ok = False
            detail = f"{type(e).__name__}: {e}"
        results.append({"check": check_name, "pass": ok, "detail": detail})
    return results
