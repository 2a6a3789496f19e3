"""Cyclic tensor-power structures of a finite-dimensional algebra.

An AlgebraSpec holds structure constants over F_p.  The tensor powers
A, A (x) A, ... carry face maps that multiply adjacent slots (the last
one wrapping around to the front), unit-inserting degeneracy maps and
the slotwise rotation, each a mod-p matrix (``face_rows`` and its
neighbours).  A CyclicTower holds one group per tensor power and these
maps as GroupMaps.  In the F_p tower the group of A^(x m) is
(Z/p)^(d^m) and the maps are the matrices themselves; its homology is
Hochschild homology.  The Witt tower applies the level-n construction
W_n to the same matrices, with the wrap-around face through the trace
twist rotation; its degree-0 homology is the Hochschild-Witt group,
which carries restriction and Verschiebung operators.  The F_p tower
is the linear case, so one construction, one identity check, one chain
differential and one Connes operator B serve both, and homology orders
come from cokernel orders (Hermite forms).
"""

import itertools
import json

from .abgroup import GroupMap, PresentedAbGroup, exact_at, subgroup_presentation
from .errors import InvalidAlgebra, ParameterMismatch
from .intlinalg import IntMatrix
from .tate import build_Q, frob_F, restrict_R, tau_rot, teich_T, ver_V, w_on_map
from .witt import WittVector, check_prime


class AlgebraSpec:
    """Structure constants of an associative unital algebra over F_p.

    mul[i][j] is the coefficient vector of b_i * b_j in the basis; the
    unit is a coefficient vector.  Associativity and the two-sided unit
    law are checked at construction, reporting a failing triple.
    """

    __slots__ = ("p", "dim", "basis", "unit", "mul")

    def __init__(self, p, dim, basis, unit, mul):
        check_prime(p)
        self.p = p
        self.dim = dim
        basis = tuple(str(b) for b in basis)
        if len(basis) != dim or dim < 1:
            raise InvalidAlgebra("basis names do not match the dimension")
        self.basis = basis
        unit = tuple(int(x) % p for x in unit)
        if len(unit) != dim:
            raise InvalidAlgebra("unit vector has wrong length")
        self.unit = unit
        if len(mul) != dim or any(len(row) != dim for row in mul):
            raise InvalidAlgebra("mul tensor is not dim x dim")
        self.mul = tuple(
            tuple(self._vec(entry) for entry in row) for row in mul
        )
        self._validate()

    def _vec(self, entry):
        v = tuple(int(x) % self.p for x in entry)
        if len(v) != self.dim:
            raise InvalidAlgebra("mul entry has wrong length")
        return v

    def _validate(self):
        d, p = self.dim, self.p
        for i in range(d):
            left = self.mul_vec(self.unit, self._basis_vec(i))
            right = self.mul_vec(self._basis_vec(i), self.unit)
            if left != self._basis_vec(i) or right != self._basis_vec(i):
                raise InvalidAlgebra(f"unit fails on basis element {self.basis[i]}")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    lhs = self.mul_vec(self.mul[i][j], self._basis_vec(k))
                    rhs = self.mul_vec(self._basis_vec(i), self.mul[j][k])
                    if lhs != rhs:
                        raise InvalidAlgebra(
                            "associativity fails at triple "
                            f"({self.basis[i]}, {self.basis[j]}, {self.basis[k]})"
                        )

    def _basis_vec(self, i):
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def mul_vec(self, u, v):
        """Product of two coefficient vectors."""
        out = [0] * self.dim
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    if y:
                        c = x * y
                        for k, m in enumerate(self.mul[i][j]):
                            out[k] += c * m
        return tuple(c % self.p for c in out)

    def is_commutative(self):
        return all(
            self.mul[i][j] == self.mul[j][i]
            for i in range(self.dim)
            for j in range(self.dim)
        )

    @classmethod
    def from_dict(cls, data):
        try:
            return cls(
                data["p"], data["dim"], data["basis"], data["unit"], data["mul"]
            )
        except KeyError as e:
            raise InvalidAlgebra(f"missing field {e.args[0]!r}") from None
        except (TypeError, ValueError) as e:
            raise InvalidAlgebra(f"malformed algebra data: {e}") from None

    @classmethod
    def load(cls, path):
        """Read and validate an algebra from a JSON file."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as e:
            raise InvalidAlgebra(f"cannot read {path}: {e}") from None
        except json.JSONDecodeError as e:
            raise InvalidAlgebra(f"invalid JSON in {path}: {e}") from None
        if not isinstance(data, dict):
            raise InvalidAlgebra("algebra file must hold a JSON object")
        return cls.from_dict(data)

    def __repr__(self):
        return f"AlgebraSpec(p={self.p}, basis={list(self.basis)})"


BUILTIN_ALGEBRAS = {
    "f2": {
        "p": 2, "dim": 1, "basis": ["1"], "unit": [1], "mul": [[[1]]],
    },
    "f3": {
        "p": 3, "dim": 1, "basis": ["1"], "unit": [1], "mul": [[[1]]],
    },
    "f4": {
        "p": 2, "dim": 2, "basis": ["1", "w"], "unit": [1, 0],
        "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]],
    },
    "dual_numbers_f2": {
        "p": 2, "dim": 2, "basis": ["1", "x"], "unit": [1, 0],
        "mul": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    },
    "upper_triangular_2x2_f2": {
        "p": 2, "dim": 3, "basis": ["e11", "e12", "e22"], "unit": [1, 0, 1],
        "mul": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        ],
    },
}


def builtin_algebra(name) -> AlgebraSpec:
    """One of the bundled small algebras, by name."""
    if name not in BUILTIN_ALGEBRAS:
        raise InvalidAlgebra(f"unknown algebra {name!r}")
    return AlgebraSpec.from_dict(BUILTIN_ALGEBRAS[name])


# ---------------------------------------------------------------------------
# linear maps between tensor powers, as mod-p matrices


def _windex(word, d):
    idx = 0
    for ch in word:
        idx = idx * d + ch
    return idx


def face_rows(A: AlgebraSpec, m, i):
    """The i-th face A^(x m) -> A^(x m-1) as a matrix, 0 <= i < m.

    Faces below m-1 multiply slots i and i+1; the last face rotates the
    final slot to the front and multiplies there.
    """
    if not 0 <= i < m or m < 2:
        raise ParameterMismatch("face index out of range")
    d = A.dim
    rows = [[0] * (d ** m) for _ in range(d ** (m - 1))]
    for w in itertools.product(range(d), repeat=m):
        src = _windex(w, d)
        if i < m - 1:
            prod = A.mul[w[i]][w[i + 1]]
            head, tail = w[:i], w[i + 2:]
        else:
            prod = A.mul[w[m - 1]][w[0]]
            head, tail = (), w[1 : m - 1]
        for k, c in enumerate(prod):
            if c:
                rows[_windex(head + (k,) + tail, d)][src] = c
    return rows


def degen_rows(A: AlgebraSpec, m, i):
    """The degeneracy inserting the unit after slot i, 0 <= i < m."""
    if not 0 <= i < m:
        raise ParameterMismatch("degeneracy index out of range")
    d = A.dim
    rows = [[0] * (d ** m) for _ in range(d ** (m + 1))]
    for w in itertools.product(range(d), repeat=m):
        src = _windex(w, d)
        for k, c in enumerate(A.unit):
            if c:
                rows[_windex(w[: i + 1] + (k,) + w[i + 1 :], d)][src] = c
    return rows


def front_insert_rows(A: AlgebraSpec, m):
    """Insert the unit in front: A^(x m) -> A^(x m+1)."""
    d = A.dim
    rows = [[0] * (d ** m) for _ in range(d ** (m + 1))]
    for w in itertools.product(range(d), repeat=m):
        src = _windex(w, d)
        for k, c in enumerate(A.unit):
            if c:
                rows[_windex((k,) + w, d)][src] = c
    return rows


def rot_rows(d, m):
    """Last slot to the front on A^(x m), a permutation matrix."""
    rows = [[0] * (d ** m) for _ in range(d ** m)]
    for w in itertools.product(range(d), repeat=m):
        rows[_windex(w[-1:] + w[:-1], d)][_windex(w, d)] = 1
    return rows


# ---------------------------------------------------------------------------
# the cyclic tower, over F_p or at level n


class CyclicTower:
    """Tensor powers of an algebra as groups, with faces, degeneracies, rotations.

    Levels run from 1 to depth; level m is the group groups[m] standing
    for A^(x m): (Z/p)^(d^m) in the F_p tower (``spaces`` is None), the
    level-n group of the Q-space ``spaces[m]`` in the Witt tower.
    faces[m][i] are the m faces down to level m-1 (m >= 2), degens[m][i]
    the m degeneracies up to level m+1 (m < depth), rots[m] the
    rotation; all of them are GroupMaps.
    """

    __slots__ = ("algebra", "depth", "spaces", "groups", "faces", "degens", "rots")

    def __init__(self, algebra, depth, spaces, groups):
        self.algebra = algebra
        self.depth = depth
        self.spaces = spaces
        self.groups = groups
        self.faces = {}
        self.degens = {}
        self.rots = {}

    def induced(self, rows, m, k) -> GroupMap:
        """The map from level m to level k given by a mod-p matrix
        A^(x m) -> A^(x k): the matrix itself over F_p, its induced map
        (``w_on_map``) at level n."""
        if self.spaces is None:
            return GroupMap(self.groups[m], self.groups[k], IntMatrix(rows))
        return w_on_map(rows, self.spaces[m], self.spaces[k])

    def chain_differential(self, i) -> GroupMap:
        """The alternating face sum at chain degree i >= 1."""
        if not 1 <= i <= self.depth - 1:
            raise ParameterMismatch("chain degree out of the built range")
        out = self.faces[i + 1][0]
        sign = -1
        for f in self.faces[i + 1][1:]:
            out = out + f.scaled(sign)
            sign = -sign
        return out


def _build_tower(A: AlgebraSpec, D, spaces, groups) -> CyclicTower:
    # the structure maps of either tower, then every identity among them
    depth = D + 1
    d = A.dim
    out = CyclicTower(A, depth, spaces, groups)
    for m in range(1, depth + 1):
        if spaces is None:
            out.rots[m] = out.induced(rot_rows(d, m), m, m)
        else:
            out.rots[m] = tau_rot(spaces[m], d, m)
    for m in range(2, depth + 1):
        fs = [out.induced(face_rows(A, m, i), m, m - 1) for i in range(m - 1)]
        # the wrap-around face: its own matrix over F_p, so that d0 t =
        # wrap is checked; through the trace twist rotation at level n
        if spaces is None:
            wrap = out.induced(face_rows(A, m, m - 1), m, m - 1)
        else:
            wrap = fs[0].compose(out.rots[m])
        out.faces[m] = fs + [wrap]
    for m in range(1, depth):
        out.degens[m] = [
            out.induced(degen_rows(A, m, i), m, m + 1) for i in range(m)
        ]
    bad = cyclic_identity_failures(out)
    if bad:
        raise ParameterMismatch(f"structure maps violate identities: {bad[:3]}")
    return out


def build_A_natural(A: AlgebraSpec, D) -> CyclicTower:
    """The F_p tower of A up to D+1 tensor factors, identities checked.

    Level m is (Z/p)^(d^m); every structure map is its mod-p matrix.
    """
    if D < 1:
        raise ParameterMismatch("need depth bound >= 1")
    groups = {
        m: PresentedAbGroup.from_moduli([A.p] * A.dim ** m) for m in range(1, D + 2)
    }
    return _build_tower(A, D, None, groups)


def build_WnA_natural(A: AlgebraSpec, n, D=1, limit=None) -> CyclicTower:
    """Apply the level-n construction to the tensor tower, D levels up.

    Faces and degeneracies are the induced maps of the mod-p matrices;
    the wrap-around face goes through the trace twist rotation first.
    Identity checks run over the whole built range.
    """
    if not 1 <= D <= 2:
        raise ParameterMismatch("depth bound must be 1 or 2 at this level")
    if n < 1:
        raise ParameterMismatch("level must be >= 1")
    spaces = {m: build_Q(A.p, n, A.dim ** m, limit) for m in range(1, D + 2)}
    return _build_tower(A, D, spaces, {m: sp.group for m, sp in spaces.items()})


def cyclic_identity_failures(tower: CyclicTower):
    """Simplicial and rotation identities that fail, as tags."""
    depth, faces, degens, rots = tower.depth, tower.faces, tower.degens, tower.rots
    ident = {m: GroupMap.identity(g) for m, g in tower.groups.items()}
    bad = []

    def note(ok, tag):
        if not ok:
            bad.append(tag)

    for m in range(2, depth + 1):
        t = rots[m]
        power = ident[m]
        for _ in range(m):
            power = t.compose(power)
        note(power == ident[m], f"t^{m} != id at level {m}")
        d = faces[m]
        note(d[0].compose(t) == d[m - 1], f"d0 t != wrap at level {m}")
        for i in range(1, m):
            lhs = d[i].compose(t)
            rhs = rots[m - 1].compose(d[i - 1]) if m - 1 >= 2 else d[i - 1]
            note(lhs == rhs, f"t-face compat fails at ({m}, {i})")
    for m in range(3, depth + 1):
        d_hi, d_lo = faces[m], faces[m - 1]
        for j in range(m):
            for i in range(j):
                note(
                    d_lo[i].compose(d_hi[j]) == d_lo[j - 1].compose(d_hi[i]),
                    f"face identity fails at ({m}, {i}, {j})",
                )
    for m in range(1, depth):
        s = degens[m]
        d_up = faces[m + 1]
        for j in range(m):
            for i in range(m + 2):
                lhs = d_up[i].compose(s[j]) if i < m + 1 else None
                if i < j:
                    ok = lhs == degens[m - 1][j - 1].compose(faces[m][i]) \
                        if m >= 2 else True
                elif i in (j, j + 1):
                    ok = lhs == ident[m]
                elif i < m + 1:
                    ok = lhs == degens[m - 1][j].compose(faces[m][i - 1]) \
                        if m >= 2 else True
                else:
                    continue
                note(ok, f"face-degeneracy identity fails at ({m}, {i}, {j})")
        if m + 1 in degens:
            s_up = degens[m + 1]
            for j in range(m):
                for i in range(j + 1):
                    note(
                        s_up[i].compose(s[j]) == s_up[j + 1].compose(s[i]),
                        f"degeneracy identity fails at ({m}, {i}, {j})",
                    )
    return bad


def _log(order, p):
    # the exponent of a power of p
    k = 0
    while order > 1:
        order //= p
        k += 1
    return k


def hochschild_homology(tower: CyclicTower, through):
    """F_p-dimensions of HH_0 .. HH_through.

    Chain degree i sits at level i+1 of the tower, so the bound must
    leave one level of headroom for the incoming differential.  The
    orders come from cokernels alone (Hermite forms, no elimination
    mod p): |H_i| = |coker d_i| |coker d_(i+1)| / |C_(i-1)|, with
    |H_0| = |coker d_1|.  On a level-n tower the same numbers are the
    p-exponents of the homology orders.
    """
    if through + 2 > tower.depth:
        raise ParameterMismatch("tower too shallow for the requested degree")
    diffs = {i: tower.chain_differential(i) for i in range(1, through + 2)}
    for i in range(1, through + 1):
        dd = diffs[i].compose(diffs[i + 1])
        if dd != GroupMap.zero(dd.src, dd.dst):
            raise ParameterMismatch(f"differential square nonzero at {i}")
    coker = {i: f.cokernel().order() for i, f in diffs.items()}
    dims = []
    for i in range(through + 1):
        order = coker[i + 1]
        if i:
            order = order * coker[i] // tower.groups[i].order()
        dims.append(_log(order, tower.algebra.p))
    return dims


def witt_connes_B(tower: CyclicTower, i) -> GroupMap:
    """Connes' B at chain degree i, unnormalized complex, on either tower.

    (1 - signed t) after the front unit insertion after the norm; the
    signed rotation at chain degree i is (-1)^i times the rotation.
    """
    if i + 2 > tower.depth:
        raise ParameterMismatch("tower too shallow for B at this degree")
    m = i + 1
    sign = 1 if i % 2 == 0 else -1
    norm = GroupMap.identity(tower.groups[m])
    power = norm
    for _ in range(i):
        power = tower.rots[m].scaled(sign).compose(power)
        norm = norm + power
    front = tower.induced(front_insert_rows(tower.algebra, m), m, m + 1)
    sn = front.compose(norm)
    return sn - tower.rots[m + 1].scaled(-sign).compose(sn)


def connes_B_zero_on_homology(tower: CyclicTower, i):
    """Does B vanish on HH_i (image of cycles lies in boundaries)?"""
    b = witt_connes_B(tower, i).matrix
    if i == 0:
        cycles = IntMatrix.identity(b.n)
    else:
        cycles = IntMatrix.from_sparse_cols(
            tower.chain_differential(i).kernel_cols(), b.n
        )
    image = b * cycles
    boundaries = tower.chain_differential(i + 2).cokernel()
    return all(boundaries.is_zero(image.col(j)) for j in range(image.n))


def witt_chain_homology(tower: CyclicTower, i) -> PresentedAbGroup:
    """Homology of the tower at chain degree i >= 1."""
    b_i = tower.chain_differential(i)
    b_up = tower.chain_differential(i + 1)
    ambient = b_up.cokernel()
    return subgroup_presentation(b_i.kernel_cols(), ambient)


# ---------------------------------------------------------------------------
# degree-zero Hochschild-Witt groups

class WittHH0:
    """Degree-0 homology of the level-n tower: W_n(A) mod face images."""

    __slots__ = ("algebra", "n", "space", "pair_space", "difference", "group")

    def __init__(self, algebra, n, space, pair_space, difference, group):
        self.algebra = algebra
        self.n = n
        self.space = space
        self.pair_space = pair_space
        self.difference = difference
        self.group = group

    def teich(self, vec):
        """Coordinates of the Teichmuller class of an algebra vector."""
        return self.group.canonical(teich_T(self.space, vec).coords)


def whh0(A: AlgebraSpec, n, limit=None) -> WittHH0:
    """The degree-0 Hochschild-Witt group at level n.

    Cokernel of the two face maps' difference from W_n(A (x) A) to
    W_n(A); the second face wraps through the trace twist.
    """
    d = A.dim
    space = build_Q(A.p, n, d, limit)
    pair = build_Q(A.p, n, d * d, limit)
    mult = w_on_map(face_rows(A, 2, 0), pair, space)
    wrap = mult.compose(tau_rot(pair, d, 2))
    diff = mult - wrap
    group = diff.cokernel()
    return WittHH0(A, n, space, pair, diff, group)


def whh_R(hi: WittHH0, lo: WittHH0) -> GroupMap:
    """Restriction between consecutive degree-0 groups.

    The level-wise restriction descends to the face-image quotients;
    the construction itself verifies the descent.
    """
    if hi.n != lo.n + 1 or hi.algebra is not lo.algebra:
        raise ParameterMismatch("restriction needs consecutive levels")
    r = restrict_R(hi.space, lo.space)
    return GroupMap(hi.group, lo.group, r.matrix)


def iota_rows(A: AlgebraSpec):
    """a maps to a (x) unit (x) ... (x) unit, p factors total."""
    d, p = A.dim, A.p
    rows = [[0] * d for _ in range(d ** p)]
    for j in range(d):
        for tail in itertools.product(range(d), repeat=p - 1):
            c = 1
            for k in tail:
                c = c * A.unit[k] % p
            if c:
                rows[_windex((j,) + tail, d)][j] = c
    return rows


def whh_V(lo: WittHH0, hi: WittHH0, limit=None) -> GroupMap:
    """Verschiebung between degree-0 groups, one level up.

    Tensor with unit factors to reach the p-th power alphabet, then
    apply the level-raising V; the quotient descent is verified by the
    construction.
    """
    if hi.n != lo.n + 1 or hi.algebra is not lo.algebra:
        raise ParameterMismatch("verschiebung needs consecutive levels")
    A = lo.algebra
    mid = build_Q(A.p, lo.n, A.dim ** A.p, limit)
    v = ver_V(mid, hi.space).compose(w_on_map(iota_rows(A), lo.space, mid))
    return GroupMap(lo.group, hi.group, v.matrix)


class SpecRing:
    """Ring view of a commutative AlgebraSpec, elements as tuples.

    Lets the classical comparison run straight off the structure
    constants, without rebuilding the algebra as a quotient ring.
    """

    is_finite = True

    def __init__(self, A: AlgebraSpec):
        if not A.is_commutative():
            raise InvalidAlgebra("ring view needs a commutative algebra")
        self.spec = A
        self.characteristic = A.p
        self.zero = (0,) * A.dim
        self.one = A.unit

    def add(self, a, b):
        return tuple((x + y) % self.spec.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.spec.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.spec.p for x in a)

    def mul(self, a, b):
        return self.spec.mul_vec(a, b)

    def from_int(self, k):
        return tuple(k * x % self.spec.p for x in self.spec.unit)

    def inv_int(self, k):
        from .errors import NotPLocal

        if k % self.spec.p == 0:
            raise NotPLocal(f"{k} is not invertible in characteristic {self.spec.p}")
        return self.from_int(pow(k % self.spec.p, -1, self.spec.p))

    def elements(self):
        return itertools.product(range(self.spec.p), repeat=self.spec.dim)

    def __repr__(self):
        return f"SpecRing({self.spec!r})"


def classical_witt_group(ring, p, n) -> PresentedAbGroup:
    """The additive group of length-n vectors over a finite ring.

    Presented by its own addition table: one generator per element,
    one relation per pair.  Small and exact, used as the comparison
    oracle for the degree-0 groups of commutative algebras.
    """
    comps = list(itertools.product(list(ring.elements()), repeat=n))
    vecs = [WittVector(p, ring, c) for c in comps]
    index = {c: i for i, c in enumerate(comps)}
    g = len(vecs)
    cols = []
    for i in range(g):
        for j in range(i, g):
            s = index[(vecs[i] + vecs[j]).comps]
            col = {i: 1}
            col[j] = col.get(j, 0) + 1
            col[s] = col.get(s, 0) - 1
            cols.append(col)
    return PresentedAbGroup(g, cols)


def hesselholt_seq_check(A: AlgebraSpec, n, limit=None):
    """Exactness report for the degree-0 restriction sequence at level n.

    The composite Verschiebung from level 1 feeds the level-(n+1)
    group, restriction drops back to level n; surjectivity on the
    right and exactness in the middle are asserted facts to check,
    injectivity on the left is only reported.  The report also holds
    the degree-0 groups it built, as ``levels`` (level -> WittHH0).
    """
    levels = {k: whh0(A, k, limit) for k in range(1, n + 2)}
    vmaps = [
        whh_V(levels[k], levels[k + 1], limit) for k in range(1, n + 1)
    ]
    vn = vmaps[0]
    for v in vmaps[1:]:
        vn = v.compose(vn)
    r = whh_R(levels[n + 1], levels[n])
    return {
        "orders": tuple(levels[k].group.order() for k in range(1, n + 2)),
        "R_surjective": r.is_surjective(),
        "middle_exact": exact_at(vn, r),
        "V_injective": vn.is_injective(),
        "levels": levels,
    }


# ---------------------------------------------------------------------------
# the F B V stretch identity


def fbv_stretch_check(A: AlgebraSpec, n, limit=None):
    """Compare F B V with B from chain degree 0 to 1, level n-1.

    Both sides are evaluated on every generator of the degree-0 group
    at level n-1 and compared modulo boundaries and relations in chain
    degree 1.  Returns a dict with the outcome and the group orders.
    """
    if n < 2:
        raise ParameterMismatch("need level >= 2")
    ws_hi = build_WnA_natural(A, n, D=2, limit=limit)
    ws_lo = build_WnA_natural(A, n - 1, D=2, limit=limit)
    d, p = A.dim, A.p

    b_hi = witt_connes_B(ws_hi, 0)
    b_lo = witt_connes_B(ws_lo, 0)

    # V and F at fixed tensor level m: through the p-th power alphabet
    def v_at(m):
        mid = build_Q(p, n - 1, (d ** m) ** p, limit)
        return ver_V(mid, ws_hi.spaces[m]).compose(
            w_on_map(iota_rows_for(d ** m, A, m), ws_lo.spaces[m], mid)
        )

    def f_at(m):
        mid = build_Q(p, n - 1, (d ** m) ** p, limit)
        return w_on_map(mult_all_rows(A, m), mid, ws_lo.spaces[m]).compose(
            frob_F(ws_hi.spaces[m], mid)
        )

    lhs = f_at(2).compose(b_hi).compose(v_at(1))
    rhs = b_lo
    target = ws_lo.chain_differential(2).cokernel()
    ok = True
    g = ws_lo.spaces[1].num_gens
    for j in range(g):
        e = tuple(int(k == j) for k in range(g))
        delta = tuple(
            a - b for a, b in zip(lhs.matrix.apply(e), rhs.matrix.apply(e))
        )
        if not target.is_zero(delta):
            ok = False
    return {
        "holds": ok,
        "degree0_order": ws_lo.spaces[1].group.order(),
        "degree1_homology_order": witt_chain_homology(ws_lo, 1).order(),
    }


def iota_rows_for(dm, A: AlgebraSpec, m):
    """Tensor with unit factors of A^(x m): v to v (x) 1 (x) ... (x) 1."""
    p = A.p
    unit_m = [0] * dm
    for w in itertools.product(range(A.dim), repeat=m):
        c = 1
        for k in w:
            c = c * A.unit[k] % p
        if c:
            unit_m[_windex(w, A.dim)] = c
    rows = [[0] * dm for _ in range(dm ** p)]
    for j in range(dm):
        for tail in itertools.product(range(dm), repeat=p - 1):
            c = 1
            for s in tail:
                c = c * unit_m[s] % p
            if c:
                rows[_windex((j,) + tail, dm)][j] = c
    return rows


def mult_all_rows(A: AlgebraSpec, m):
    """Multiply p tensor copies of A^(x m) slotwise down to one copy."""
    d, p = A.dim, A.p
    dm = d ** m
    rows = [[0] * (dm ** p) for _ in range(dm)]
    for symbols in itertools.product(range(dm), repeat=p):
        words = [
            tuple((s // d ** (m - 1 - t)) % d for t in range(m))
            for s in symbols
        ]
        out = {(): 1}
        vecs = []
        for slot in range(m):
            v = tuple(int(k == words[0][slot]) for k in range(d))
            for w in words[1:]:
                v = A.mul_vec(v, tuple(int(k == w[slot]) for k in range(d)))
            vecs.append(v)
        src = _windex(symbols, dm)
        for combo in itertools.product(*(range(d) for _ in range(m))):
            c = 1
            for slot, k in enumerate(combo):
                c = c * vecs[slot][k] % A.p
                if not c:
                    break
            if c:
                rows[_windex(combo, d)][src] = (
                    rows[_windex(combo, d)][src] + c
                ) % A.p
    return rows
