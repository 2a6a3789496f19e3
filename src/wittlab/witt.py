"""Classical p-typical Witt vectors over a commutative base ring.

A length-n vector is a tuple of base ring elements (a_0, ..., a_{n-1}).
Its ghost coordinates are

    w_m = a_0^(p^m) + p * a_1^(p^(m-1)) + ... + p^m * a_m.

Over a torsion-free ring the ghost map is injective, so +, -, *,
negation and Frobenius are computed in ghost space: lift the operands
to the torsion-free ring, combine ghost coordinates componentwise,
invert the ghost map (each step an exact division by p^m, checked) and
reduce.  Z lifts to itself, Z/m to Z and F_p[t]/(f) to Z[t]/(f~); see
:func:`wittlab.rings.torsion_free_lift`.  Any other base ring (such as
``hochschild.SpecRing``) evaluates the universal integer polynomials
obtained by inverting the ghost map over Z[x_i, y_i], which are also
what ``gen-polys`` prints.
"""

from __future__ import annotations

import functools

from .errors import ParameterMismatch
from .poly import MultiPoly, poly_exact_div
from .rings import ZZ, Zmod, ring_pow, torsion_free_lift


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p):
    if not _is_prime(p):
        raise ParameterMismatch(f"p must be prime, got {p}")


def _ghost_poly(p, m, gens):
    w = (p ** m) * gens[m]
    for i in range(m):
        w = w + (p ** i) * gens[i] ** (p ** (m - i))
    return w


@functools.lru_cache(maxsize=None)
def gen_universal_polys(p: int, n: int, kind: str):
    """Universal polynomials for length-n vectors, as a tuple.

    kind "sum", "product", "negation": polynomials S_0..S_{n-1} (resp.
    P, N) in x0..x_{n-1} (and y0..y_{n-1} for the binary kinds) whose
    ghost coordinates are the sum/product/negation of the inputs'.

    kind "frobenius": f_1..f_{n-1} in a0..a_{n-1}; the m-th satisfies
    sum_{i<=m} p^(i-1) f_i^(p^(m-i)) = w_m(a_0..a_m), so applying them
    shifts the ghost coordinates down by one slot.

    >>> [str(s) for s in gen_universal_polys(2, 2, "sum")]
    ['x0 + y0', 'x1 + y1 - x0*y0']
    """
    check_prime(p)
    if n < 1:
        raise ParameterMismatch("length must be >= 1")
    if kind == "frobenius":
        variables = tuple(f"a{i}" for i in range(n))
        gens = MultiPoly.gens(variables)
        fs = []
        for m in range(1, n):
            rhs = _ghost_poly(p, m, gens)
            for i, f in enumerate(fs, start=1):
                rhs = rhs - (p ** (i - 1)) * f ** (p ** (m - i))
            fs.append(poly_exact_div(rhs, p ** (m - 1)))
        return tuple(fs)
    variables = tuple(f"x{i}" for i in range(n))
    if kind in ("sum", "product"):
        variables = variables + tuple(f"y{i}" for i in range(n))
    gens = MultiPoly.gens(variables)
    xs, ys = gens[:n], gens[n:]
    out = []
    for m in range(n):
        if kind == "sum":
            rhs = _ghost_poly(p, m, xs) + _ghost_poly(p, m, ys)
        elif kind == "product":
            rhs = _ghost_poly(p, m, xs) * _ghost_poly(p, m, ys)
        elif kind == "negation":
            rhs = -_ghost_poly(p, m, xs)
        else:
            raise ParameterMismatch(f"unknown kind {kind!r}")
        for i, s in enumerate(out):
            rhs = rhs - (p ** i) * s ** (p ** (m - i))
        out.append(poly_exact_div(rhs, p ** m))
    return tuple(out)


def eval_universal_polys(kind, u, v=None):
    """Components of a `kind` operation on u (and v), by evaluating the
    universal polynomials in u's base ring."""
    name = "a" if kind == "frobenius" else "x"
    values = {f"{name}{i}": a for i, a in enumerate(u.comps)}
    if v is not None:
        values.update((f"y{i}", b) for i, b in enumerate(v.comps))
    polys = gen_universal_polys(u.p, len(u), kind)
    return tuple(q.evaluate(u.ring, values) for q in polys)


# ---------------------------------------------------------------------------
# ghost space, shared with bigwitt: a table row lists the terms
# (i, k, e) of one ghost coordinate, sum of k * a_i^e, and ends with the
# linear term (m, k_m, 1) of the component it determines


@functools.lru_cache(maxsize=None)
def ghost_table(p, n):
    """Rows (i, p^i, p^(m-i)) for i <= m of w_0..w_{n-1}."""
    return tuple(
        tuple((i, p ** i, p ** (m - i)) for i in range(m + 1)) for m in range(n)
    )


def _ghost_sum(ring, row, comps):
    acc = ring.zero
    for i, k, e in row:
        term = ring_pow(ring, comps[i], e)
        acc = ring.add(acc, term if k == 1 else ring.mul(ring.from_int(k), term))
    return acc


def ghost_coords(ring, table, comps):
    """Ghost coordinates of comps, computed in ring."""
    return [_ghost_sum(ring, row, comps) for row in table]


def ghost_inverse(ring, table, ghosts):
    """The components whose ghost coordinates are `ghosts`.

    The ring must be torsion-free and provide exact_div, which raises
    NotDivisible when ghosts is not in the image of the ghost map.

    >>> ghost_inverse(ZZ, ghost_table(2, 2), [3, 19])
    [3, 5]
    """
    comps = []
    for row, w in zip(table, ghosts):
        rest = _ghost_sum(ring, row[:-1], comps)
        comps.append(ring.exact_div(ring.sub(w, rest), row[-1][1]))
    return comps


POLY_PREFIX = {"sum": "S", "product": "P", "negation": "N", "frobenius": "f"}


def poly_text_lines(p, n, kind):
    """Canonical text lines for the golden files and the CLI."""
    polys = gen_universal_polys(p, n, kind)
    start = 1 if kind == "frobenius" else 0
    prefix = POLY_PREFIX[kind]
    return [f"{prefix}{i + start} = {q.text()}" for i, q in enumerate(polys)]


class WittVector:
    """A p-typical Witt vector over a fixed base ring.

    >>> u = WittVector(2, ZZ, (3, 5))
    >>> u.ghost()
    [3, 19]
    >>> (u + u).ghost()
    [6, 38]
    """

    __slots__ = ("p", "ring", "comps")

    def __init__(self, p, ring, comps):
        check_prime(p)
        self.p = p
        self.ring = ring
        self.comps = tuple(comps)
        if not self.comps:
            raise ParameterMismatch("length must be >= 1")

    def __len__(self):
        return len(self.comps)

    def __getitem__(self, i):
        return self.comps[i]

    def __eq__(self, other):
        return (
            isinstance(other, WittVector)
            and self.p == other.p
            and self.ring == other.ring
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.p, self.ring, self.comps))

    def __repr__(self):
        return f"WittVector(p={self.p}, {list(self.comps)!r})"

    def _match(self, other):
        if not isinstance(other, WittVector):
            raise ParameterMismatch("not a Witt vector")
        if self.p != other.p or self.ring != other.ring:
            raise ParameterMismatch("mixed p or base ring")
        if len(self) != len(other):
            raise ParameterMismatch("mixed lengths")

    @classmethod
    def zero(cls, p, ring, n):
        return cls.teichmuller(p, ring, ring.zero, n)

    @classmethod
    def one(cls, p, ring, n):
        return cls.teichmuller(p, ring, ring.one, n)

    @classmethod
    def teichmuller(cls, p, ring, a, n):
        """The multiplicative lift <a, 0, ..., 0>."""
        if n < 1:
            raise ParameterMismatch("length must be >= 1")
        return cls(p, ring, (a,) + (ring.zero,) * (n - 1))

    def _apply(self, kind, other=None):
        """The `kind` operation: in ghost space when the base ring has a
        torsion-free lift, else by the universal polynomials."""
        lift = torsion_free_lift(self.ring)
        if lift is None:
            if kind == "difference":
                return self + (-other)
            comps = eval_universal_polys(kind, self, other)
            return WittVector(self.p, self.ring, comps)
        L, reduce = lift
        table = ghost_table(self.p, len(self))
        g = ghost_coords(L, table, self.comps)
        if kind == "frobenius":
            table, w = table[:-1], g[1:]
        elif kind == "negation":
            w = [L.neg(x) for x in g]
        else:
            op = {"sum": L.add, "difference": L.sub, "product": L.mul}[kind]
            w = list(map(op, g, ghost_coords(L, table, other.comps)))
        return WittVector(
            self.p, self.ring, (reduce(a) for a in ghost_inverse(L, table, w))
        )

    def __add__(self, other):
        self._match(other)
        return self._apply("sum", other)

    def __mul__(self, other):
        self._match(other)
        return self._apply("product", other)

    def __sub__(self, other):
        self._match(other)
        return self._apply("difference", other)

    def __neg__(self):
        return self._apply("negation")

    def ghost(self):
        """Ghost coordinates [w_0, ..., w_{n-1}] in the base ring."""
        return ghost_coords(self.ring, ghost_table(self.p, len(self)), self.comps)

    def frobenius(self):
        """F: drops the ghost indexing by one; length n -> n-1."""
        if len(self) < 2:
            raise ParameterMismatch("frobenius needs length >= 2")
        return self._apply("frobenius")

    def verschiebung(self):
        """V: prepend a zero component; length n -> n+1."""
        return WittVector(self.p, self.ring, (self.ring.zero,) + self.comps)

    def restriction(self):
        """R: forget the last component; length n -> n-1."""
        if len(self) < 2:
            raise ParameterMismatch("restriction needs length >= 2")
        return WittVector(self.p, self.ring, self.comps[:-1])

    def map_components(self, fn, ring=None):
        """Apply a base ring map componentwise (functoriality)."""
        return WittVector(self.p, ring or self.ring, tuple(fn(a) for a in self.comps))


# ---------------------------------------------------------------------------
# W_n(F_p) = Z/p^n via Teichmuller digits


def teichmuller_digit(p, x, m):
    """The canonical multiplicative digit: x^(p^m) mod p^(m+1).

    The result r satisfies r == x (mod p) and r^p == r (mod p^(m+1)).

    >>> teichmuller_digit(3, 2, 1)
    8
    """
    return pow(x, p ** m, p ** (m + 1))


def witt_to_padic(v: WittVector) -> int:
    """Ring isomorphism W_n(F_p) -> Z/p^n, returned as 0 <= x < p^n.

    Component a_i contributes p^i times its digit at precision n-1-i,
    which is exactly enough for the sum to be well defined mod p^n.

    >>> witt_to_padic(WittVector(3, Zmod(3), (2, 0)))
    8
    """
    p = v.p
    if not isinstance(v.ring, Zmod) or v.ring.m != p:
        raise ParameterMismatch("padic conversion needs the prime field F_p")
    n = len(v)
    total = 0
    for i, a in enumerate(v.comps):
        total += p ** i * teichmuller_digit(p, int(a), n - 1 - i)
    return total % p ** n


def padic_to_witt(p, x, n) -> WittVector:
    """Inverse of :func:`witt_to_padic` on Z/p^n."""
    check_prime(p)
    field = Zmod(p)
    x = x % p ** n
    comps = []
    for i in range(n):
        a = x % p
        comps.append(a)
        x = (x - teichmuller_digit(p, a, n - 1 - i)) // p
        # remaining precision drops by one p-power per step
        x %= p ** (n - 1 - i)
    return WittVector(p, field, tuple(comps))
