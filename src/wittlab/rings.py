"""Small commutative rings with exact element arithmetic.

A ring object carries the operations; elements themselves are plain
hashable Python values (ints for Z and Z/m, coefficient tuples for
quotients of F_p[t]).  That keeps Witt vector components cheap to copy
and compare.

Z, Z/m and F_p[t]/(f) are quotients of a torsion-free ring (Z, Z and
Z[t]/(f~) respectively) in which their element representatives already
live; :func:`torsion_free_lift` returns that ring and the reduction.
"""

from __future__ import annotations

import itertools

from .errors import NotDivisible, NotPLocal


class IntegerRing:
    """The ring of integers."""

    characteristic = 0
    is_finite = False
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, k):
        return k

    def inv_int(self, k):
        if k in (1, -1):
            return k
        raise NotPLocal(f"{k} is not invertible in Z")

    def exact_div(self, a, k):
        q, r = divmod(a, k)
        if r:
            raise NotDivisible(f"{a} is not divisible by {k}")
        return q

    def __repr__(self):
        return "ZZ"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")


class Zmod:
    """Z/mZ with canonical representatives 0..m-1.

    >>> R = Zmod(8)
    >>> R.mul(3, 5)
    7
    >>> R.inv_int(3)
    3
    """

    is_finite = True

    def __init__(self, m):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.characteristic = m
        self.zero = 0
        self.one = 1 % m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def from_int(self, k):
        return k % self.m

    def inv_int(self, k):
        try:
            return pow(k, -1, self.m)
        except ValueError:
            raise NotPLocal(f"{k} is not invertible mod {self.m}") from None

    def elements(self):
        return range(self.m)

    def __repr__(self):
        return f"Zmod({self.m})"

    def __eq__(self, other):
        return isinstance(other, Zmod) and self.m == other.m

    def __hash__(self):
        return hash(("Zmod", self.m))


class QuotientPolyRing:
    """F_p[t]/(f), elements as coefficient tuples (low degree first).

    The modulus need not be irreducible, so this also covers rings like
    F_2[t]/(t^2) alongside the finite fields.

    >>> F4 = QuotientPolyRing(2, (1, 1, 1))   # t^2 + t + 1
    >>> w = (0, 1)
    >>> F4.mul(w, w)                          # w^2 = w + 1
    (1, 1)
    """

    is_finite = True

    def __init__(self, p, modulus):
        self.p = p
        self.characteristic = p
        mod = tuple(c % p for c in modulus)
        while mod and mod[-1] == 0:
            mod = mod[:-1]
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        self.modulus = mod
        self.deg = len(mod) - 1
        self.zero = (0,) * self.deg
        self.one = (1,) + (0,) * (self.deg - 1)
        self.lift = MonicQuotientZ(mod)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return self.reduce(self.lift.mul(a, b))

    def reduce(self, a):
        """The image of an element of Z[t]/(f~) under reduction mod p."""
        return tuple(x % self.p for x in a)

    def from_int(self, k):
        return (k % self.p,) + (0,) * (self.deg - 1)

    def inv_int(self, k):
        kk = k % self.p
        if kk == 0:
            raise NotPLocal(f"{k} is not invertible in characteristic {self.p}")
        return self.from_int(pow(kk, -1, self.p))

    def elements(self):
        return itertools.product(range(self.p), repeat=self.deg)

    def __repr__(self):
        return f"QuotientPolyRing({self.p}, {self.modulus})"

    def __eq__(self, other):
        return (
            isinstance(other, QuotientPolyRing)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash(("QPR", self.p, self.modulus))


class MonicQuotientZ:
    """Z[t]/(f) for a monic integer f, elements as coefficient tuples.

    A free Z-module of rank deg f, hence torsion-free; with f~ the
    lift of f in 0..p-1 it maps onto QuotientPolyRing(p, f).

    >>> R = MonicQuotientZ((1, 1, 1))
    >>> R.mul((0, 1), (0, 1))
    (-1, -1)
    """

    characteristic = 0
    is_finite = False

    def __init__(self, modulus):
        self.modulus = tuple(modulus)
        self.deg = len(self.modulus) - 1
        self.zero = (0,) * self.deg
        self.one = (1,) + (0,) * (self.deg - 1)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.deg
        raw = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    raw[i + j] += x * y
        # reduce degree >= d terms using t^d = -(lower part of modulus)
        for k in range(2 * d - 2, d - 1, -1):
            c = raw[k]
            if c:
                for j in range(d):
                    raw[k - d + j] -= c * self.modulus[j]
        return tuple(raw[:d])

    def from_int(self, k):
        return (k,) + (0,) * (self.deg - 1)

    def exact_div(self, a, k):
        return tuple(ZZ.exact_div(x, k) for x in a)

    def __repr__(self):
        return f"MonicQuotientZ({self.modulus})"


ZZ = IntegerRing()


def torsion_free_lift(ring):
    """(L, reduce) with L torsion-free and reduce a ring map L -> ring.

    Defined for Z, Z/m and F_p[t]/(f), whose element representatives
    are elements of L, so lifting an element is the identity.  Returns
    None for any other ring.

    >>> torsion_free_lift(Zmod(9))[1](-1)
    8
    """
    if isinstance(ring, (IntegerRing, Zmod)):
        return ZZ, ring.from_int
    if isinstance(ring, QuotientPolyRing):
        return ring.lift, ring.reduce
    return None


def ring_pow(ring, a, e):
    """a^e in ring by square-and-multiply, e >= 0.

    >>> ring_pow(Zmod(7), 3, 6)
    1
    """
    acc = ring.one
    while e:
        if e & 1:
            acc = ring.mul(acc, a)
        e >>= 1
        if e:
            a = ring.mul(a, a)
    return acc


def _is_irreducible(p, coeffs):
    # no roots and, for degree <= 3, that settles it; higher degrees
    # fall back to trial division by monic polynomials
    deg = len(coeffs) - 1

    def evalp(poly, x):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        return acc

    if any(evalp(coeffs, x) == 0 for x in range(p)):
        return False
    if deg <= 3:
        return True
    r = QuotientPolyRing(p, coeffs)
    # irreducible iff the Frobenius orbit of t closes after exactly deg
    # steps and after no proper divisor of deg
    t = tuple(1 if i == 1 else 0 for i in range(r.deg))
    x = t
    for _ in range(deg):
        x = ring_pow(r, x, p)
    if x != t:
        return False
    for q in _prime_divisors(deg):
        x = t
        for _ in range(deg // q):
            x = ring_pow(r, x, p)
        if x == t:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def GF(q):
    """The field with q elements, q a prime power.

    Uses the lexicographically first monic irreducible modulus, so the
    construction is deterministic.

    >>> GF(4).mul((0, 1), (0, 1))
    (1, 1)
    >>> GF(5).m
    5
    """
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # smallest divisor >= 2 is prime; q must then be one of its powers
    p = next(c for c in range(2, q + 1) if q % c == 0)
    deg = 0
    n = q
    while n % p == 0:
        n //= p
        deg += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    if deg == 1:
        return Zmod(p)
    for tail in itertools.product(range(p), repeat=deg):
        coeffs = tail + (1,)
        if _is_irreducible(p, coeffs):
            return QuotientPolyRing(p, coeffs)
    raise AssertionError("no irreducible polynomial found")
