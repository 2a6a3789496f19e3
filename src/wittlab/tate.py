"""Witt vector groups of F_p-vector spaces via cyclic tensor powers.

For M = F_p^d the level-n group W_n(M) is presented as the cokernel of
the norm map

    id + sigma + ... + sigma^(p^n - 1)

from the coinvariants to the invariants of the p^n-th tensor power of
the free Z-module Z^d, where sigma rotates tensor slots (last slot
moves to the front).  In the bases used here (orbit sums of index
words on the invariant side, lexicographically least orbit
representatives on the coinvariant side) the norm matrix is diagonal,
with entry p^n / s on an orbit of size s, so the group is a direct sum
of cyclic p-groups read off orbit by orbit.

W'_n uses the same invariant lattice but divides by the longer norm
with p^(n+1) terms; it surjects onto W_n and is isomorphic to W_(n+1)
through a standard map assembled from a chosen basis (the isomorphism
itself is basis-independent, which is tested, not assumed).

All higher structure (Teichmuller classes, functoriality in M,
Verschiebung, Frobenius, restriction, corestriction, duality, external
products, twists) is realized by explicit integer matrices between
these presentations.
"""

from __future__ import annotations

import itertools
import os

from .abgroup import GroupMap, PresentedAbGroup
from .errors import ParameterMismatch, ResourceLimit
from .intlinalg import IntMatrix
from .witt import check_prime

DEFAULT_LIMIT = 20000


def get_limit():
    """Ambient basis size bound; override with WITTLAB_LIMIT."""
    raw = os.environ.get("WITTLAB_LIMIT")
    if raw is None:
        return DEFAULT_LIMIT
    try:
        v = int(raw)
    except ValueError:
        raise ParameterMismatch(f"WITTLAB_LIMIT is not an integer: {raw!r}")
    if v < 1:
        raise ParameterMismatch("WITTLAB_LIMIT must be positive")
    return v


def rotate(word, j=1):
    """Rotate a word j steps, last letter to the front each step."""
    if not word:
        return word
    j %= len(word)
    return word[-j:] + word[:-j]


def orbit_of_word(word):
    """The full rotation orbit, starting from word."""
    out = [word]
    w = rotate(word)
    while w != word:
        out.append(w)
        w = rotate(w)
    return out


class QSpace:
    """Orbit bookkeeping plus the presented group at one level.

    Attributes: p, n, d (alphabet size), length = p^n, reps (lex-least
    orbit representatives in enumeration order), sizes, orbit_of (word
    -> orbit index), moduli (cyclic order of each generator), group,
    modulus (exponent bound p^n, or p^(n+1) for the primed variant).
    """

    __slots__ = (
        "p",
        "n",
        "d",
        "length",
        "reps",
        "sizes",
        "orbit_of",
        "moduli",
        "group",
        "modulus",
        "primed",
    )

    def __init__(self, p, n, d, primed=False, limit=None):
        check_prime(p)
        if n < 1:
            raise ParameterMismatch("level must be >= 1")
        if d < 0:
            raise ParameterMismatch("dimension must be >= 0")
        self.p = p
        self.n = n
        self.d = d
        self.length = p ** n
        bound = limit if limit is not None else get_limit()
        if d ** self.length > bound:
            raise ResourceLimit(
                f"{d}^{self.length} ambient basis words exceed limit {bound}"
            )
        self.primed = primed
        reps, sizes, orbit_of = [], [], {}
        for w in itertools.product(range(d), repeat=self.length):
            if w in orbit_of:
                continue
            idx = len(reps)
            orb = orbit_of_word(w)
            for u in orb:
                orbit_of[u] = idx
            reps.append(w)
            sizes.append(len(orb))
        self.reps = reps
        self.sizes = sizes
        self.orbit_of = orbit_of
        self.modulus = p ** (n + 1) if primed else p ** n
        self.moduli = [self.modulus // s for s in sizes]
        self.group = PresentedAbGroup.from_moduli(self.moduli)

    @property
    def num_gens(self):
        return len(self.reps)

    def __repr__(self):
        tag = "Q'" if self.primed else "Q"
        return f"QSpace({tag}, p={self.p}, n={self.n}, d={self.d})"

    def zero(self):
        return QClass(self, (0,) * self.num_gens)

    def cls(self, coords):
        return QClass(self, coords)

    def to_orbit_coords(self, ambient):
        """Express a sigma-invariant ambient vector in the orbit basis.

        ambient is a dict word -> coefficient; raises if the vector is
        not actually constant on orbits.
        """
        out = [0] * self.num_gens
        for i, c in _full_orbit_coords(self, ambient).items():
            out[i] = c
        return out

    def ambient_of(self, coords):
        """The invariant vector (dict word -> coeff) of orbit coordinates."""
        out = {}
        for i, c in enumerate(coords):
            if c:
                for u in orbit_of_word(self.reps[i]):
                    out[u] = c
        return out


def _full_orbit_coords(space, ambient):
    # read coefficients per orbit, as a sparse {orbit: coefficient} column;
    # every member of an orbit must carry the same coefficient
    coords = {}
    hits = {}
    for w, c in ambient.items():
        i = space.orbit_of[w]
        if coords.setdefault(i, c) != c:
            raise ParameterMismatch("vector is not rotation-invariant")
        hits[i] = hits.get(i, 0) + 1
    out = {}
    for i, c in coords.items():
        if c != 0:
            if hits[i] != space.sizes[i]:
                raise ParameterMismatch("vector is not rotation-invariant")
            out[i] = c
    return out


class QClass:
    """An element of a QSpace, stored as canonical orbit coordinates.

    >>> sp = build_Q(2, 1, 1)
    >>> (sp.cls((1,)) + sp.cls((1,))).coords
    (0,)
    """

    __slots__ = ("space", "coords")

    def __init__(self, space, coords):
        self.space = space
        coords = tuple(coords)
        if len(coords) != space.num_gens:
            raise ParameterMismatch("coordinate length mismatch")
        self.coords = space.group.canonical(coords)

    def _match(self, other):
        if not isinstance(other, QClass) or other.space is not self.space:
            raise ParameterMismatch("classes live in different spaces")

    def __add__(self, other):
        self._match(other)
        return QClass(
            self.space, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return QClass(self.space, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, k):
        return QClass(self.space, tuple(k * a for a in self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, QClass)
            and other.space is self.space
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((id(self.space), self.coords))

    def is_zero(self):
        return all(a == 0 for a in self.coords)

    def __repr__(self):
        return f"QClass{self.coords!r}"


def build_Q(p, n, d, limit=None) -> QSpace:
    """The level-n Witt group of F_p^d: norm cokernel in orbit bases.

    >>> build_Q(2, 1, 2).group.invariant_factors
    (2, 2)
    >>> build_Q(3, 2, 1).group.invariant_factors
    (9,)
    """
    return QSpace(p, n, d, primed=False, limit=limit)


def build_Qprime(p, n, d, limit=None) -> QSpace:
    """The primed variant: same invariants, norm lengthened by a factor p."""
    return QSpace(p, n, d, primed=True, limit=limit)


def qprime_projection(src: QSpace, dst: QSpace) -> GroupMap:
    """The canonical surjection from the primed group, identity on bases."""
    if (src.p, src.n, src.d) != (dst.p, dst.n, dst.d) or not src.primed or dst.primed:
        raise ParameterMismatch("projection needs Q' and Q at equal parameters")
    return GroupMap(src.group, dst.group, IntMatrix.identity(src.num_gens))


def teich_T(space: QSpace, m) -> QClass:
    """The multiplicative Teichmuller class of a vector m over F_p.

    The class of the p^n-th tensor power of the entrywise lift of m to
    {0, ..., p-1}; independence of the choice of lift is a theorem
    (and a test), not used by the construction.
    """
    if len(m) != space.d:
        raise ParameterMismatch("vector length != dimension")
    lift = [int(x) % space.p for x in m]
    coords = []
    for rep in space.reps:
        c = 1
        for k in rep:
            c *= lift[k]
            if c == 0:
                break
        coords.append(c)
    return QClass(space, coords)


def teich_T_lifted(space: QSpace, lifted) -> QClass:
    """Teichmuller class from an explicit integer lift (for lift tests)."""
    coords = []
    for rep in space.reps:
        c = 1
        for k in rep:
            c *= lifted[k]
        coords.append(c)
    return QClass(space, coords)


# ---------------------------------------------------------------------------
# functoriality


def w_on_map(f_rows, src: QSpace, dst: QSpace) -> GroupMap:
    """The induced map on level-n groups of a linear map F_p^a -> F_p^b.

    f_rows is a b x a integer matrix (any lift of the mod-p map; the
    induced map only depends on the reduction, which is a test).  The
    matrix acts diagonally on tensor words and is then read off in the
    orbit bases; a word only reaches the words spelled by nonzero
    entries of its letters' columns.
    """
    if (src.p, src.n) != (dst.p, dst.n) or src.primed != dst.primed:
        raise ParameterMismatch("level mismatch")
    a, b = src.d, dst.d
    if f_rows and any(len(r) != a for r in f_rows):
        raise ParameterMismatch("matrix width != source dimension")
    if len(f_rows) != b:
        raise ParameterMismatch("matrix height != target dimension")
    support = [
        [(v, f_rows[v][k]) for v in range(b) if f_rows[v][k]] for k in range(a)
    ]
    cols = []
    for i in range(src.num_gens):
        ambient = {}
        for w in orbit_of_word(src.reps[i]):
            for choice in itertools.product(*(support[k] for k in w)):
                c = 1
                for _, x in choice:
                    c *= x
                v = tuple(vk for vk, _ in choice)
                ambient[v] = ambient.get(v, 0) + c
        cols.append(_full_orbit_coords(dst, {w: c for w, c in ambient.items() if c}))
    return GroupMap(
        src.group, dst.group, IntMatrix.from_sparse_cols(cols, dst.num_gens)
    )


def _decode_symbol(s, d, width):
    # big-endian base-d digits, first letter most significant
    out = []
    for _ in range(width):
        out.append(s % d)
        s //= d
    return tuple(reversed(out))


def _encode_block(block, d):
    s = 0
    for x in block:
        s = s * d + x
    return s


# ---------------------------------------------------------------------------
# Verschiebung, Frobenius, restriction, corestriction


def ver_V(src: QSpace, dst: QSpace) -> GroupMap:
    """V from level n-1 on the p-th tensor power down to level n.

    The source alphabet is d^p; each symbol spells a block of p letters
    (big-endian), blocks are concatenated in order, and V sums the
    first p rotations of the resulting word.
    """
    p, n, d = dst.p, dst.n, dst.d
    if (src.p, src.n, src.d) != (p, n - 1, d ** p) or src.primed or dst.primed:
        raise ParameterMismatch("V needs level n-1 at dimension d^p")
    cols = []
    for i in range(src.num_gens):
        ambient = {}
        for u in orbit_of_word(src.reps[i]):
            letters = ()
            for s in u:
                letters += _decode_symbol(s, d, p)
            for j in range(p):
                w = rotate(letters, j)
                ambient[w] = ambient.get(w, 0) + 1
        cols.append(_full_orbit_coords(dst, ambient))
    return GroupMap(
        src.group, dst.group, IntMatrix.from_sparse_cols(cols, dst.num_gens)
    )


def frob_F(src: QSpace, dst: QSpace) -> GroupMap:
    """F from level n to level n-1 on the p-th tensor power (n >= 2).

    A rotation-invariant word vector is in particular invariant under
    rotation by p letters, so regrouping letters into blocks of p
    reinterprets it on the coarser level; nothing else happens.
    """
    p, n, d = src.p, src.n, src.d
    if n < 2:
        raise ParameterMismatch("F needs level >= 2")
    if (dst.p, dst.n, dst.d) != (p, n - 1, d ** p) or src.primed or dst.primed:
        raise ParameterMismatch("F targets level n-1 at dimension d^p")
    cols = []
    for i in range(src.num_gens):
        ambient = {}
        for w in orbit_of_word(src.reps[i]):
            u = tuple(
                _encode_block(w[k * p : (k + 1) * p], d)
                for k in range(src.length // p)
            )
            ambient[u] = ambient.get(u, 0) + 1
        cols.append(_full_orbit_coords(dst, ambient))
    return GroupMap(
        src.group, dst.group, IntMatrix.from_sparse_cols(cols, dst.num_gens)
    )


def standard_map(src: QSpace, dst: QSpace, c_images=None) -> GroupMap:
    """The standard isomorphism from the primed level n to level n+1.

    c_images, when given, lists for each letter a dict {p-letter word:
    coefficient} describing a linear map into rotation-invariant
    vectors of the p-th tensor power; the default sends letter e to
    the constant word (e, ..., e).  The per-letter images are expanded
    along the word and redistributed so that blocks are interleaved
    (position j*p^n + k reads factor j of the image of letter k), which
    is what makes the result rotation-invariant again.
    """
    p, n, d = src.p, src.n, src.d
    if not src.primed or dst.primed or (dst.p, dst.n, dst.d) != (p, n + 1, d):
        raise ParameterMismatch("standard map goes from Q'_n to Q_(n+1)")
    if c_images is None:
        c_images = [{(e,) * p: 1} for e in range(d)]
    for img in c_images:
        for bw, c in img.items():
            if rotate(bw) not in img or img[rotate(bw)] != c:
                raise ParameterMismatch(
                    "letter image is not rotation-invariant"
                )
    l = src.length
    cols = []
    for i in range(src.num_gens):
        ambient = {}
        for w in orbit_of_word(src.reps[i]):
            items = [list(c_images[k].items()) for k in w]
            for choice in itertools.product(*items):
                coeff = 1
                for _, c in choice:
                    coeff *= c
                big = [0] * (l * p)
                for k, (bw, _) in enumerate(choice):
                    for j in range(p):
                        big[j * l + k] = bw[j]
                key = tuple(big)
                ambient[key] = ambient.get(key, 0) + coeff
        ambient = {w: c for w, c in ambient.items() if c}
        cols.append(_full_orbit_coords(dst, ambient))
    return GroupMap(
        src.group, dst.group, IntMatrix.from_sparse_cols(cols, dst.num_gens)
    )


def restrict_R(src: QSpace, dst: QSpace) -> GroupMap:
    """R from level n+1 to level n.

    Through the standard isomorphism, a level-(n+1) orbit contributes
    exactly when its words are p-periodic, in which case it maps to the
    orbit of the repeating core; all aperiodic orbits die (their
    summands in the group are already trivial).  Composed with the
    canonical projection from the primed group this is the restriction.
    """
    p, n, d = dst.p, dst.n, dst.d
    if (src.p, src.n, src.d) != (p, n + 1, d) or src.primed or dst.primed:
        raise ParameterMismatch("R needs levels n+1 -> n at equal dimension")
    cols = []
    for i in range(src.num_gens):
        w = src.reps[i]
        if rotate(w, dst.length) == w:
            cols.append({dst.orbit_of[w[: dst.length]]: 1})
        else:
            cols.append({})
    return GroupMap(
        src.group, dst.group, IntMatrix.from_sparse_cols(cols, dst.num_gens)
    )


# ---------------------------------------------------------------------------
# duality and corestriction


def pairing(space: QSpace, x: QClass, y: QClass) -> int:
    """The duality pairing against the dual space in the matching basis.

    Invariant vectors pair by the plain dot product of their ambient
    coefficients; on orbit coordinates that is sum x_i y_i s_i, reduced
    mod p^n.  y is a class of the dual space, which at fixed dimension
    has the same orbit combinatorics, so the same QSpace carries it.
    """
    if x.space is not space or y.space.num_gens != space.num_gens:
        raise ParameterMismatch("pairing operands live elsewhere")
    acc = 0
    for a, b, s in zip(x.coords, y.coords, space.sizes):
        acc += a * b * s
    return acc % space.modulus


def duality_certificate(space: QSpace):
    """The map x -> <x, -> into the dual group, plus the dual group.

    Returns (GroupMap, PresentedAbGroup); the map being an isomorphism
    is the perfectness of the pairing.  Well-definedness requires each
    <g_i, g_j> to be divisible by p^n / m_j, which is checked.
    """
    g = space.num_gens
    cols = []
    for i in range(g):
        # <g_i, g_j> vanishes off the diagonal
        q = space.modulus // space.moduli[i]
        if space.sizes[i] % q:
            raise ParameterMismatch("pairing does not respect relations")
        cols.append({i: space.sizes[i] // q})
    dual = PresentedAbGroup.from_moduli(space.moduli)
    return GroupMap(space.group, dual, IntMatrix.from_sparse_cols(cols, g)), dual


def corestrict_C(src: QSpace, dst: QSpace, r_map: GroupMap = None) -> GroupMap:
    """C from level n to level n+1, the dual of R under the pairing.

    Determined by <C x, y> at level n+1 being p times (a lift of)
    <x, R y> at level n; solved generator by generator against the
    diagonal Gram matrix.  RC = CR = p id follows and is tested.
    """
    p, n, d = src.p, src.n, src.d
    if (dst.p, dst.n, dst.d) != (p, n + 1, d) or src.primed or dst.primed:
        raise ParameterMismatch("C needs levels n -> n+1 at equal dimension")
    if r_map is None:
        r_map = restrict_R(dst, src)
    big = dst.modulus
    cols = [{} for _ in range(src.num_gens)]
    for j in range(dst.num_gens):
        # <g_i, R h_j> at level n, lifted to [0, p^n); zero unless R h_j
        # has a g_i coordinate
        for i, x in r_map.matrix.sparse_col(j).items():
            val = (src.sizes[i] * x) % src.modulus
            rhs = (p * val) % big
            s = dst.sizes[j]
            if rhs % s:
                raise ParameterMismatch("duality solve failed")
            cols[i][j] = (rhs // s) % (big // s)
    return GroupMap(
        src.group, dst.group, IntMatrix.from_sparse_cols(cols, dst.num_gens)
    )


# ---------------------------------------------------------------------------
# external product and twists


def product_mu(sp0: QSpace, sp1: QSpace, sp01: QSpace, x: QClass, y: QClass) -> QClass:
    """The external product W_n(M0) x W_n(M1) -> W_n(M0 tensor M1).

    Tensor words over the product alphabet interleave one word over
    each factor; the coefficient of a product word is the product of
    the factors' ambient coefficients.
    """
    if x.space is not sp0 or y.space is not sp1:
        raise ParameterMismatch("operands live elsewhere")
    if (sp0.p, sp0.n) != (sp1.p, sp1.n) or (sp01.p, sp01.n) != (sp0.p, sp0.n):
        raise ParameterMismatch("levels differ")
    if sp01.d != sp0.d * sp1.d or sp0.primed or sp1.primed or sp01.primed:
        raise ParameterMismatch("target dimension must be the product")
    d1 = sp1.d
    coords = []
    for rep in sp01.reps:
        wa = tuple(s // d1 for s in rep)
        wb = tuple(s % d1 for s in rep)
        coords.append(x.coords[sp0.orbit_of[wa]] * y.coords[sp1.orbit_of[wb]])
    return QClass(sp01, coords)


def trace_twist_tau(src: QSpace, dst: QSpace, d0, d1) -> GroupMap:
    """The twist from W_n(M0 tensor M1) to W_n(M1 tensor M0).

    On words of pairs it swaps the factors slotwise and then rotates
    the second-factor letters one slot: slot k of the image holds
    (b_(k-1), a_k), indices mod the length.
    """
    if src.d != d0 * d1 or dst.d != d1 * d0:
        raise ParameterMismatch("alphabet is not the stated product")
    if (src.p, src.n) != (dst.p, dst.n) or src.primed or dst.primed:
        raise ParameterMismatch("levels differ")
    l = src.length
    cols = []
    for i in range(src.num_gens):
        ambient = {}
        for w in orbit_of_word(src.reps[i]):
            aa = [s // d1 for s in w]
            bb = [s % d1 for s in w]
            v = tuple(bb[(k - 1) % l] * d0 + aa[k] for k in range(l))
            ambient[v] = ambient.get(v, 0) + 1
        cols.append(_full_orbit_coords(dst, ambient))
    return GroupMap(
        src.group, dst.group, IntMatrix.from_sparse_cols(cols, dst.num_gens)
    )


def tau_rot(space: QSpace, d, l) -> GroupMap:
    """The rotation operator on W_n(M^(tensor l)), alphabet size d^l.

    Block k of the image is (last letter of block k-1, first letters of
    block k); its l-th power is the ambient rotation, hence trivial on
    classes, and l = 1 gives the identity.
    """
    if space.d != d ** l:
        raise ParameterMismatch("alphabet is not a clean l-th power")
    cols = []
    L = space.length
    for i in range(space.num_gens):
        ambient = {}
        for w in orbit_of_word(space.reps[i]):
            blocks = [_decode_symbol(s, d, l) for s in w]
            new = tuple(
                _encode_block((blocks[(k - 1) % L][-1],) + blocks[k][:-1], d)
                for k in range(L)
            )
            ambient[new] = ambient.get(new, 0) + 1
        cols.append(_full_orbit_coords(space, ambient))
    return GroupMap(
        space.group, space.group, IntMatrix.from_sparse_cols(cols, space.num_gens)
    )


def twist_coinvariants(space: QSpace, rot: GroupMap):
    """The coinvariants of the rotation operator, with the projection.

    Returns (group, projection GroupMap) where the group is the
    quotient by the image of (rot - id).
    """
    delta = rot.matrix - IntMatrix.identity(space.num_gens)
    quot = space.group.quotient([delta.sparse_col(j) for j in range(delta.n)])
    return quot, GroupMap(space.group, quot, IntMatrix.identity(space.num_gens))


# ---------------------------------------------------------------------------
# the four-term sequence over F_p


def four_term_maps(p, d, limit=None):
    """Matrices over F_p of the sequence M -> coinv -> inv -> M at level 1.

    Returns (psi, norm, phi, num_orbits): psi linearizes m -> m^(tensor p)
    into the coinvariants (basis: orbit representatives), norm maps
    coinvariants to invariants (basis: orbit sums), phi reads off the
    diagonal coefficient.
    """
    check_prime(p)
    sp = QSpace(p, 1, d, limit=limit)
    g = sp.num_gens
    psi = [[0] * d for _ in range(g)]
    for e in range(d):
        psi[sp.orbit_of[(e,) * p]][e] = 1
    norm = [[0] * g for _ in range(g)]
    for i in range(g):
        norm[i][i] = p // sp.sizes[i]
    phi = [[0] * g for _ in range(d)]
    for i, rep in enumerate(sp.reps):
        if sp.sizes[i] == 1:
            phi[rep[0]][i] = 1
    return psi, norm, phi, g


def diagonal_power_class(p, d, vec, limit=None):
    """Coinvariant-class coordinates of (sum_i vec_i e_i)^(tensor p) mod p."""
    sp = QSpace(p, 1, d, limit=limit)
    coords = [0] * sp.num_gens
    for w in itertools.product(range(d), repeat=p):
        c = 1
        for k in w:
            c *= vec[k]
        coords[sp.orbit_of[w]] = (coords[sp.orbit_of[w]] + c) % p
    return tuple(coords)
