"""Finitely presented abelian groups Z^g / L and maps between them.

A group is a free abelian group on g generators modulo the lattice L
spanned by integer relation columns.  Relation lattices are normalized
on construction: either to a per-coordinate diagonal (the common case
here, where every relation is a multiple of a standard basis vector,
e.g. cokernels of norm maps in orbit bases; ``from_moduli`` stores the
moduli as they are) or to a canonical column Hermite form.

A map carries its matrix as sparse integer columns, so composing,
adding and checking maps between large orbit bases costs O(nonzeros);
a map out of a diagonal group is checked one generator at a time,
d_j times column j against the target's relations.  Only invariant
factors, kernels, images and exactness go through the dense Hermite
and Smith forms of intlinalg.
"""

from __future__ import annotations

import itertools
import math

from .errors import ParameterMismatch, ResourceLimit
from .intlinalg import (
    IntMatrix,
    hermite_column_form,
    kernel_basis,
    smith_normal_form,
)


def _chain_factors(ds):
    # multiset of moduli -> invariant factor chain (each divides the next)
    ds = [d for d in ds]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                a, b = ds[i], ds[j]
                g = math.gcd(a, b)
                if a == 0 or b == 0:
                    l = 0
                else:
                    l = a * b // g
                if (g, l) != (a, b) and (g, l) != (b, a):
                    ds[i], ds[j] = g, l
                    changed = True
    return sorted((d for d in ds if d != 1), key=lambda d: (d == 0, d))


class PresentedAbGroup:
    """Z^num_gens modulo the span of integer relation columns.

    >>> G = PresentedAbGroup(2, [(2, 0), (0, 4)])
    >>> G.invariant_factors
    (2, 4)
    >>> G.order()
    8
    >>> G.equal((1, 5), (3, 1))
    True
    """

    __slots__ = ("num_gens", "_diag", "_hnf", "_smith", "_inv_factors")

    def __init__(self, num_gens, relation_cols):
        self.num_gens = num_gens
        cols = [tuple(c) for c in relation_cols]
        for c in cols:
            if len(c) != num_gens:
                raise ParameterMismatch("relation length != generator count")
        self._smith = None
        self._inv_factors = None
        diag = self._try_diagonal(cols, num_gens)
        if diag is not None:
            self._diag = diag
            self._hnf = None
        else:
            self._diag = None
            self._hnf = hermite_column_form(cols, num_gens)

    @staticmethod
    def _try_diagonal(cols, num_gens):
        # every relation a multiple of a basis vector -> per-row modulus
        diag = [0] * num_gens
        for c in cols:
            support = [i for i, x in enumerate(c) if x]
            if len(support) > 1:
                return None
            if support:
                i = support[0]
                diag[i] = math.gcd(diag[i], abs(c[i]))
        return tuple(diag)

    @classmethod
    def free(cls, num_gens):
        return cls(num_gens, [])

    @classmethod
    def from_moduli(cls, moduli):
        """Direct sum of Z/m_i (m_i = 0 giving a free Z factor)."""
        out = cls.__new__(cls)
        out._diag = tuple(abs(m) for m in moduli)
        out.num_gens = len(out._diag)
        out._hnf = None
        out._smith = None
        out._inv_factors = None
        return out

    # -- relation lattice ---------------------------------------------------

    def relation_cols(self):
        if self._diag is not None:
            out = []
            for i, d in enumerate(self._diag):
                if d:
                    out.append(
                        tuple(d if j == i else 0 for j in range(self.num_gens))
                    )
            return out
        return list(self._hnf)

    def contains(self, vec):
        """Is vec in the relation lattice (i.e. zero in the group)?"""
        vec = tuple(vec)
        if len(vec) != self.num_gens:
            raise ParameterMismatch("vector length != generator count")
        if self._diag is None:
            return _hnf_contains(self._hnf, vec)
        return self._diag_contains(enumerate(vec))

    def contains_sparse(self, vec):
        """contains() for a vector given as {index: value}, zero elsewhere."""
        if self._diag is None:
            dense = [0] * self.num_gens
            for i, x in vec.items():
                dense[i] = x
            return _hnf_contains(self._hnf, dense)
        return self._diag_contains(vec.items())

    def _diag_contains(self, entries):
        diag = self._diag
        return all(x % diag[i] == 0 if diag[i] else x == 0 for i, x in entries)

    def is_zero(self, vec):
        return self.contains(vec)

    def equal(self, u, v):
        return self.contains(tuple(a - b for a, b in zip(u, v)))

    # -- canonical forms and structure --------------------------------------

    def _ensure_smith(self):
        if self._smith is None:
            cols = self.relation_cols()
            a = (
                IntMatrix.from_cols(cols, self.num_gens)
                if cols
                else IntMatrix.zeros(self.num_gens, 1)
            )
            self._smith = smith_normal_form(a)
        return self._smith

    def canonical(self, vec):
        """A canonical representative; equal elements get equal tuples.

        In the diagonal case this is simply coordinatewise reduction.
        Otherwise coordinates are reduced in a Smith basis and mapped
        back, so the result is still a vector of generator coordinates.
        """
        vec = tuple(vec)
        if len(vec) != self.num_gens:
            raise ParameterMismatch("vector length != generator count")
        if self._diag is not None:
            return tuple(x % d if d else x for x, d in zip(vec, self._diag))
        sm = self._ensure_smith()
        y = list(sm.U.apply(vec))
        ds = sm.diag + [0] * (self.num_gens - len(sm.diag))
        y = [x % d if d else x for x, d in zip(y, ds)]
        uinv = _unimodular_inverse(sm.U)
        return tuple(uinv.apply(y))

    @property
    def invariant_factors(self):
        """Nontrivial invariant factors, 0 entries meaning free Z factors."""
        if self._inv_factors is None:
            if self._diag is not None:
                self._inv_factors = tuple(_chain_factors(self._diag))
            else:
                sm = self._ensure_smith()
                ds = sm.diag + [0] * (self.num_gens - len(sm.diag))
                self._inv_factors = tuple(
                    sorted((d for d in ds if d != 1), key=lambda d: (d == 0, d))
                )
        return self._inv_factors

    def order(self):
        """Group order, or None when infinite."""
        n = 1
        for d in self.invariant_factors:
            if d == 0:
                return None
            n *= d
        return n

    def is_trivial(self):
        return self.invariant_factors == ()

    def elements(self, limit=200000):
        """All elements, as canonical generator-coordinate vectors."""
        n = self.order()
        if n is None:
            raise ParameterMismatch("infinite group")
        if n > limit:
            raise ResourceLimit(f"group order {n} exceeds limit {limit}")
        if self._diag is not None:
            ranges = [range(d) if d else range(1) for d in self._diag]
            yield from itertools.product(*ranges)
            return
        sm = self._ensure_smith()
        ds = sm.diag + [0] * (self.num_gens - len(sm.diag))
        uinv = _unimodular_inverse(sm.U)
        for coords in itertools.product(*[range(d) for d in ds]):
            yield self.canonical(uinv.apply(coords))

    def quotient(self, extra_cols):
        """The quotient by additional relation columns."""
        return PresentedAbGroup(
            self.num_gens, self.relation_cols() + [tuple(c) for c in extra_cols]
        )

    def __repr__(self):
        return (
            f"PresentedAbGroup(gens={self.num_gens}, "
            f"factors={list(self.invariant_factors)!r})"
        )


def _hnf_contains(hnf_cols, vec):
    # columns are in Hermite form: strictly increasing pivot rows
    v = list(vec)
    for col in hnf_cols:
        i = next(j for j, x in enumerate(col) if x)
        if v[i] % col[i] != 0:
            return False
        q = v[i] // col[i]
        if q:
            for j in range(i, len(v)):
                v[j] -= q * col[j]
    return all(x == 0 for x in v)


def _unimodular_inverse(u: IntMatrix) -> IntMatrix:
    # inverse of a +-1 determinant matrix, exact over Z via adjugate rows
    n = u.m
    det = u.det()
    if det not in (1, -1):
        raise ParameterMismatch("matrix is not unimodular")
    cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        cols.append(_solve_unimodular(u, e))
    return IntMatrix.from_cols(cols, n)


def _solve_unimodular(u, b):
    # Cramer elimination specialized to square integer systems with det +-1
    from .intlinalg import solve_integer_linear

    x = solve_integer_linear(u, b)
    if x is None:
        raise ParameterMismatch("unimodular solve failed")
    return x


class GroupMap:
    """A homomorphism between presented groups, given on generators.

    The integer matrix must send every relation of the source into the
    relation lattice of the target; this is verified on construction
    (for a diagonal source, d_j times column j for every generator j).

    >>> G = PresentedAbGroup(1, [(4,)]); H = PresentedAbGroup(1, [(2,)])
    >>> f = GroupMap(G, H, IntMatrix([[1]]))
    >>> f.apply((3,))
    (1,)
    """

    __slots__ = ("src", "dst", "matrix")

    def __init__(self, src, dst, matrix: IntMatrix, check=True):
        if matrix.m != dst.num_gens or matrix.n != src.num_gens:
            raise ParameterMismatch("matrix shape does not match groups")
        self.src = src
        self.dst = dst
        self.matrix = matrix
        if check:
            if src._diag is not None:
                images = (
                    {i: d * x for i, x in matrix.sparse_col(j).items()}
                    for j, d in enumerate(src._diag)
                    if d
                )
            else:
                images = (
                    matrix.apply_sparse({i: x for i, x in enumerate(col) if x})
                    for col in src._hnf
                )
            if not all(dst.contains_sparse(v) for v in images):
                raise ParameterMismatch(
                    "matrix does not send source relations into target"
                )

    @classmethod
    def identity(cls, g):
        return cls(g, g, IntMatrix.identity(g.num_gens), check=False)

    @classmethod
    def zero(cls, src, dst):
        return cls(src, dst, IntMatrix.zeros(dst.num_gens, src.num_gens), check=False)

    def apply(self, vec):
        return self.dst.canonical(self.matrix.apply(vec))

    def __call__(self, vec):
        return self.apply(vec)

    def compose(self, other):
        """self after other."""
        if other.dst is not self.src and other.dst.num_gens != self.src.num_gens:
            raise ParameterMismatch("composition shape mismatch")
        return GroupMap(other.src, self.dst, self.matrix * other.matrix, check=False)

    def __add__(self, other):
        return GroupMap(self.src, self.dst, self.matrix + other.matrix, check=False)

    def __sub__(self, other):
        return GroupMap(self.src, self.dst, self.matrix - other.matrix, check=False)

    def __neg__(self):
        return GroupMap(self.src, self.dst, -self.matrix, check=False)

    def scaled(self, k):
        return GroupMap(self.src, self.dst, self.matrix * k, check=False)

    def __eq__(self, other):
        """Equality as maps on the quotients (columns agree mod target)."""
        if not isinstance(other, GroupMap):
            return NotImplemented
        a, b = self.matrix, other.matrix
        if a.n != b.n or a.m != b.m:
            return False
        diff = a - b
        return all(self.dst.contains_sparse(diff.sparse_col(j)) for j in range(a.n))

    def __hash__(self):
        raise TypeError("GroupMap is unhashable")

    # -- lattices and derived groups ----------------------------------------

    def image_cols(self):
        """Columns spanning the image lattice in Z^dst (incl. relations)."""
        return self.matrix.cols() + self.dst.relation_cols()

    def kernel_cols(self):
        """Columns spanning {x : f(x) = 0 in dst} (incl. src relations)."""
        m = self.matrix
        rel = self.dst.relation_cols()
        if rel:
            big = m.hstack(IntMatrix.from_cols(rel, self.dst.num_gens))
        else:
            big = m
        ker = kernel_basis(big)
        cols = [k[: self.src.num_gens] for k in ker]
        return hermite_column_form(cols + self.src.relation_cols(), self.src.num_gens)

    def cokernel(self):
        """dst modulo the image, as a PresentedAbGroup."""
        return PresentedAbGroup(self.dst.num_gens, self.image_cols())

    def kernel_group(self):
        """ker(f) as an abstract group (src restricted to the kernel)."""
        gens = [c for c in self.kernel_cols()]
        return subgroup_presentation(gens, self.src)

    def is_injective(self):
        from .intlinalg import lattice_eq

        return lattice_eq(self.kernel_cols(), self.src.relation_cols(), self.src.num_gens)

    def is_surjective(self):
        cols = hermite_column_form(self.image_cols(), self.dst.num_gens)
        return _is_full_unit_lattice(cols, self.dst.num_gens)

    def is_isomorphism(self):
        return self.is_injective() and self.is_surjective()


def _is_full_unit_lattice(hnf_cols, n):
    if len(hnf_cols) != n:
        return False
    for j, col in enumerate(hnf_cols):
        if col[j] != 1 or any(col[i] != 0 for i in range(n) if i != j):
            return False
    return True


def subgroup_presentation(gen_cols, ambient: PresentedAbGroup):
    """The subgroup of ambient generated by gen_cols, presented abstractly.

    Generators are the given columns; the relations are all integer
    combinations of them that die in the ambient group.
    """
    g = len(gen_cols)
    if g == 0:
        return PresentedAbGroup(0, [])
    n = ambient.num_gens
    m = IntMatrix.from_cols([tuple(c) for c in gen_cols], n)
    rel = ambient.relation_cols()
    big = m.hstack(IntMatrix.from_cols(rel, n)) if rel else m
    ker = kernel_basis(big)
    rels = [k[:g] for k in ker]
    return PresentedAbGroup(g, rels)


def exact_at(f: GroupMap, g: GroupMap):
    """Is im(f) = ker(g) where f: A -> B, g: B -> C (as lattices in B)?"""
    from .intlinalg import lattice_eq

    if f.dst.num_gens != g.src.num_gens:
        raise ParameterMismatch("maps not composable")
    return lattice_eq(f.image_cols(), g.kernel_cols(), f.dst.num_gens)
