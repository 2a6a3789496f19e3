"""Finitely presented abelian groups Z^g / L and maps between them.

A group is a free abelian group on g generators modulo the lattice L
spanned by integer relation columns.  Every lattice column, taken or
returned, is a sparse ``{row: value}`` dict (the format of
``IntMatrix.sparse_col``); element vectors are dense tuples.  Relation
lattices are normalized on construction: either to a per-coordinate
diagonal (the common case here, where every relation is a multiple of
a standard basis vector, e.g. cokernels of norm maps in orbit bases;
``from_moduli`` stores the moduli as they are) or to a canonical column
Hermite form.  A diagonal's columns d_i * e_i are already in Hermite
form, so membership is one Hermite reduction for both, and the order
is the index of L: the product of its Hermite pivots, with no Smith
form.

A map carries its matrix as sparse integer columns, so composing,
adding and checking maps between large orbit bases costs O(nonzeros);
maps are checked by sending each source relation into the target
(for a diagonal source, d_j times column j).  Invariant factors of
Hermite groups, canonical forms and kernels go through the Smith form
of intlinalg, whose cached U^-1 maps reduced coordinates back.
"""

from __future__ import annotations

import itertools
import math

from .errors import ParameterMismatch, ResourceLimit
from .intlinalg import (
    IntMatrix,
    hermite_column_form,
    hermite_reduce,
    kernel_basis,
    lattice_eq,
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
    """Z^num_gens modulo the span of sparse ``{row: value}`` relation columns.

    >>> G = PresentedAbGroup(2, [{0: 2}, {1: 4}])
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
        cols = list(relation_cols)
        if any(not 0 <= i < num_gens for c in cols for i in c):
            raise ParameterMismatch("relation row outside the generators")
        self._smith = None
        self._inv_factors = None
        self._diag = self._try_diagonal(cols, num_gens)
        self._hnf = None
        if self._diag is None:
            self._hnf = {min(c): c for c in hermite_column_form(cols)}

    @staticmethod
    def _try_diagonal(cols, num_gens):
        # every relation a multiple of a basis vector -> per-row modulus
        diag = [0] * num_gens
        for c in cols:
            support = [i for i, x in c.items() if x]
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

    def _lattice(self):
        # pivot row -> Hermite column; a diagonal group's are d_i * e_i
        if self._hnf is None:
            self._hnf = {i: {i: d} for i, d in enumerate(self._diag) if d}
        return self._hnf

    def relation_cols(self):
        """The relation lattice in Hermite form, as sparse columns
        (shared with the group: do not mutate)."""
        return list(self._lattice().values())

    def contains(self, vec):
        """Is vec in the relation lattice (i.e. zero in the group)?"""
        vec = tuple(vec)
        if len(vec) != self.num_gens:
            raise ParameterMismatch("vector length != generator count")
        return not hermite_reduce(dict(enumerate(vec)), self._lattice())

    def is_zero(self, vec):
        return self.contains(vec)

    def equal(self, u, v):
        return self.contains(tuple(a - b for a, b in zip(u, v)))

    # -- canonical forms and structure --------------------------------------

    def _ensure_smith(self):
        if self._smith is None:
            a = IntMatrix.from_sparse_cols(self.relation_cols(), self.num_gens)
            self._smith = smith_normal_form(a, need_v=False)
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
        return tuple(sm.Uinv.apply(y))

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
        """Group order, or None when infinite.

        The order is the index of the relation lattice: the product of
        its Hermite pivots when the lattice has full rank.
        """
        lattice = self._lattice()
        if len(lattice) < self.num_gens:
            return None
        n = 1
        for i, col in lattice.items():
            n *= col[i]
        return n

    def is_trivial(self):
        return self.order() == 1

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
        for coords in itertools.product(*[range(d) for d in ds]):
            yield self.canonical(sm.Uinv.apply(coords))

    def quotient(self, extra_cols):
        """The quotient by additional sparse relation columns."""
        return PresentedAbGroup(self.num_gens, self.relation_cols() + list(extra_cols))

    def __repr__(self):
        return (
            f"PresentedAbGroup(gens={self.num_gens}, "
            f"factors={list(self.invariant_factors)!r})"
        )


def _same_group(a, b):
    # the same object, or the same generators and relation lattice
    return a is b or (a.num_gens == b.num_gens and a._lattice() == b._lattice())


def _require_same(a, b):
    if not _same_group(a, b):
        raise ParameterMismatch("maps between different groups")


class GroupMap:
    """A homomorphism between presented groups, given on generators.

    The integer matrix must send every relation of the source into the
    relation lattice of the target; this is verified on construction
    (for a diagonal source, d_j times column j for every generator j).

    >>> G = PresentedAbGroup(1, [{0: 4}]); H = PresentedAbGroup(1, [{0: 2}])
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
            lattice = dst._lattice()
            for r in src.relation_cols():
                if hermite_reduce(matrix.apply_sparse(r), lattice):
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
        _require_same(other.dst, self.src)
        return GroupMap(other.src, self.dst, self.matrix * other.matrix, check=False)

    def __add__(self, other):
        _require_same(self.src, other.src)
        _require_same(self.dst, other.dst)
        return GroupMap(self.src, self.dst, self.matrix + other.matrix, check=False)

    def __sub__(self, other):
        _require_same(self.src, other.src)
        _require_same(self.dst, other.dst)
        return GroupMap(self.src, self.dst, self.matrix - other.matrix, check=False)

    def __neg__(self):
        return GroupMap(self.src, self.dst, -self.matrix, check=False)

    def scaled(self, k):
        return GroupMap(self.src, self.dst, self.matrix * k, check=False)

    def __eq__(self, other):
        """Equality as maps between the same groups (columns agree mod target)."""
        if not isinstance(other, GroupMap):
            return NotImplemented
        if not (_same_group(self.src, other.src) and _same_group(self.dst, other.dst)):
            return False
        diff = self.matrix - other.matrix
        lattice = self.dst._lattice()
        return not any(hermite_reduce(diff.sparse_col(j), lattice) for j in range(diff.n))

    def __hash__(self):
        raise TypeError("GroupMap is unhashable")

    # -- lattices and derived groups ----------------------------------------

    def image_cols(self):
        """Sparse columns spanning the image lattice in Z^dst (incl. relations)."""
        m = self.matrix
        return [m.sparse_col(j) for j in range(m.n)] + self.dst.relation_cols()

    def kernel_cols(self):
        """Hermite columns spanning {x : f(x) = 0 in dst} (incl. src relations)."""
        return hermite_column_form(
            _preimage_of_zero(self.matrix, self.dst) + self.src.relation_cols()
        )

    def cokernel(self):
        """dst modulo the image, as a PresentedAbGroup."""
        return PresentedAbGroup(self.dst.num_gens, self.image_cols())

    def kernel_group(self):
        """ker(f) as an abstract group (src restricted to the kernel)."""
        return subgroup_presentation(self.kernel_cols(), self.src)

    def is_injective(self):
        return lattice_eq(self.kernel_cols(), self.src.relation_cols())

    def is_surjective(self):
        return self.cokernel().order() == 1

    def is_isomorphism(self):
        return self.is_injective() and self.is_surjective()


def _preimage_of_zero(m: IntMatrix, dst: PresentedAbGroup):
    # a basis of {x : m x in the relation lattice of dst}: the integer
    # kernel of [m | relations], cut down to its first m.n rows
    rel = IntMatrix.from_sparse_cols(dst.relation_cols(), dst.num_gens)
    return [
        {i: x for i, x in k.items() if i < m.n} for k in kernel_basis(m.hstack(rel))
    ]


def subgroup_presentation(gen_cols, ambient: PresentedAbGroup):
    """The subgroup of ambient generated by sparse gen_cols, presented abstractly.

    Generators are the given columns; the relations are all integer
    combinations of them that die in the ambient group.
    """
    gens = IntMatrix.from_sparse_cols(gen_cols, ambient.num_gens)
    return PresentedAbGroup(gens.n, _preimage_of_zero(gens, ambient))


def exact_at(f: GroupMap, g: GroupMap):
    """Is im(f) = ker(g) where f: A -> B, g: B -> C (as lattices in B)?"""
    if f.dst.num_gens != g.src.num_gens:
        raise ParameterMismatch("maps not composable")
    return lattice_eq(f.image_cols(), g.kernel_cols())
