"""Big Witt vectors truncated at N components, with components a_1..a_N.

The m-th ghost coordinate is the divisor sum

    gh_m = sum over d | m of d * a_d^(m/d),

and the additive group is presented through the series model: the
vector (a_1, ..., a_N) corresponds to the truncated power series
prod_{i<=N} (1 - a_i t^i), and adding vectors multiplies series.
Over Z, Z/m and F_p[t]/(f), multiplication runs in ghost space on the
torsion-free lift (the shared code in ``witt``; the division by m at
index m is exact and checked).  Any other base ring evaluates the
universal integer product polynomials, which the ``big`` command also
prints.

For a p-local base ring the whole thing splits into classical p-typical
pieces, one for each index n <= N prime to p; the splitting is computed
by universal polynomials with denominators prime to p.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import NotPLocal, ParameterMismatch
from .poly import MultiPoly, poly_exact_div
from .rings import torsion_free_lift
from .witt import WittVector, check_prime, ghost_coords, ghost_inverse


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@functools.lru_cache(maxsize=None)
def big_ghost_table(n):
    """Rows (d-1, d, m/d) for d | m of gh_1..gh_n, in ``witt.ghost_coords`` form."""
    return tuple(
        tuple((d - 1, d, m // d) for d in _divisors(m)) for m in range(1, n + 1)
    )


class TruncSeries:
    """1 + c_1 t + ... + c_N t^N over a base ring, multiplied mod t^(N+1).

    >>> from wittlab.rings import ZZ
    >>> s = TruncSeries(ZZ, [1, -1, 0, 0])
    >>> (s * s).coeffs
    (1, -2, 1, 0)
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)
        if not self.coeffs or self.coeffs[0] != ring.one:
            raise ParameterMismatch("constant term must be 1")

    @property
    def trunc(self):
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, ring, n):
        return cls(ring, (ring.one,) + (ring.zero,) * n)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)!r})"

    def __mul__(self, other):
        if self.ring != other.ring or self.trunc != other.trunc:
            raise ParameterMismatch("mixed series parameters")
        r = self.ring
        n = self.trunc
        out = [r.zero] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == r.zero:
                continue
            for j in range(0, n + 1 - i):
                b = other.coeffs[j]
                if b != r.zero:
                    out[i + j] = r.add(out[i + j], r.mul(a, b))
        return TruncSeries(r, out)

    def inverse(self):
        """The series u with self * u = 1 mod t^(N+1)."""
        r = self.ring
        n = self.trunc
        out = [r.one] + [r.zero] * n
        for m in range(1, n + 1):
            # coefficient of t^m in self*out must vanish
            acc = r.zero
            for i in range(1, m + 1):
                acc = r.add(acc, r.mul(self.coeffs[i], out[m - i]))
            out[m] = r.neg(acc)
        return TruncSeries(r, out)


class BigWitt:
    """A big Witt vector (a_1, ..., a_N) over a fixed base ring.

    >>> from wittlab.rings import ZZ
    >>> v = BigWitt(ZZ, (1, 1, 0, 0))
    >>> v.ghost()
    [1, 3, 1, 3]
    """

    __slots__ = ("ring", "comps")

    def __init__(self, ring, comps):
        self.ring = ring
        self.comps = tuple(comps)
        if not self.comps:
            raise ParameterMismatch("truncation must be >= 1")

    @property
    def trunc(self):
        return len(self.comps)

    def __len__(self):
        return len(self.comps)

    def component(self, m):
        """The component a_m, 1-indexed."""
        return self.comps[m - 1]

    def __eq__(self, other):
        return (
            isinstance(other, BigWitt)
            and self.ring == other.ring
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.ring, self.comps))

    def __repr__(self):
        return f"BigWitt({list(self.comps)!r})"

    @classmethod
    def zero(cls, ring, n):
        return cls(ring, (ring.zero,) * n)

    @classmethod
    def one(cls, ring, n):
        """The multiplicative identity: ghost coordinates all 1."""
        return cls(ring, (ring.one,) + (ring.zero,) * (n - 1))

    @classmethod
    def eps(cls, ring, n, i):
        """The vector with a_i = 1 and 0 elsewhere; series 1 - t^i."""
        if not 1 <= i <= n:
            raise ParameterMismatch("index out of range")
        comps = [ring.zero] * n
        comps[i - 1] = ring.one
        return cls(ring, comps)

    def _match(self, other):
        if not isinstance(other, BigWitt):
            raise ParameterMismatch("not a big Witt vector")
        if self.ring != other.ring or self.trunc != other.trunc:
            raise ParameterMismatch("mixed truncation or base ring")

    def ghost(self):
        """[gh_1, ..., gh_N] with gh_m the divisor-sum evaluation."""
        return ghost_coords(self.ring, big_ghost_table(self.trunc), self.comps)

    def to_series(self):
        r = self.ring
        n = self.trunc
        s = TruncSeries.one(r, n)
        for i, a in enumerate(self.comps, start=1):
            if a == r.zero:
                continue
            coeffs = [r.one] + [r.zero] * n
            coeffs[i] = r.neg(a)
            s = s * TruncSeries(r, coeffs)
        return s

    @classmethod
    def from_series(cls, s: TruncSeries):
        """Peel factors (1 - a_m t^m) off by ascending degree."""
        r = s.ring
        n = s.trunc
        comps = []
        cur = s
        for m in range(1, n + 1):
            a = r.neg(cur.coeffs[m])
            comps.append(a)
            if a != r.zero:
                coeffs = [r.one] + [r.zero] * n
                coeffs[m] = r.neg(a)
                cur = cur * TruncSeries(r, coeffs).inverse()
        return cls(r, comps)

    def __add__(self, other):
        self._match(other)
        return BigWitt.from_series(self.to_series() * other.to_series())

    def __neg__(self):
        return BigWitt.from_series(self.to_series().inverse())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._match(other)
        n = self.trunc
        lift = torsion_free_lift(self.ring)
        if lift is not None:
            L, reduce = lift
            table = big_ghost_table(n)
            g, h = (ghost_coords(L, table, v.comps) for v in (self, other))
            prod = ghost_inverse(L, table, list(map(L.mul, g, h)))
            return BigWitt(self.ring, (reduce(a) for a in prod))
        polys = gen_big_product_polys(n)
        values = {}
        for i in range(1, n + 1):
            values[f"x{i}"] = self.comps[i - 1]
            values[f"y{i}"] = other.comps[i - 1]
        return BigWitt(
            self.ring, (q.evaluate(self.ring, values) for q in polys)
        )


def _big_ghost_poly(m, gens_by_index):
    w = MultiPoly.zero(next(iter(gens_by_index.values())).variables)
    for d in _divisors(m):
        w = w + d * gens_by_index[d] ** (m // d)
    return w


@functools.lru_cache(maxsize=None)
def gen_big_product_polys(n: int):
    """Multiplication polynomials M_1..M_n; M_m gives component m.

    M_m is determined by gh_m(M(x,y)) = gh_m(x) * gh_m(y) and the lower
    polynomials; the division by m is exact over Z.

    >>> [str(q) for q in gen_big_product_polys(2)]
    ['x1*y1', '2*x2*y2 + x1^2*y2 + x2*y1^2']
    """
    if n < 1:
        raise ParameterMismatch("truncation must be >= 1")
    variables = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1)
    )
    gens = MultiPoly.gens(variables)
    xs = {i: gens[i - 1] for i in range(1, n + 1)}
    ys = {i: gens[n + i - 1] for i in range(1, n + 1)}
    out = {}
    for m in range(1, n + 1):
        rhs = _big_ghost_poly(m, xs) * _big_ghost_poly(m, ys)
        for d in _divisors(m):
            if d < m:
                rhs = rhs - d * out[d] ** (m // d)
        out[m] = poly_exact_div(rhs, m)
    return tuple(out[m] for m in range(1, n + 1))


def big_product_text_lines(n):
    """Canonical text lines 'M1 = ...' for the golden file and CLI."""
    return [f"M{m} = {q.text()}" for m, q in enumerate(gen_big_product_polys(n), 1)]


def eps_action(i, v: BigWitt) -> BigWitt:
    """Multiplication by eps_i; eps_i eps_j = (ij/lcm(i,j)) eps_lcm(i,j)."""
    return BigWitt.eps(v.ring, v.trunc, i) * v


# ---------------------------------------------------------------------------
# p-typical decomposition over p-local rings


def from_ghost_rational(ghost):
    """Solve (a_1, ..., a_N) over Q from prescribed ghost coordinates."""
    n = len(ghost)
    comps = []
    for m in range(1, n + 1):
        acc = Fraction(ghost[m - 1])
        for d in _divisors(m):
            if d < m:
                acc -= d * comps[d - 1] ** (m // d)
        comps.append(acc / m)
    return comps


@functools.lru_cache(maxsize=None)
def gamma_components(p: int, n: int, trunc: int):
    """Components over Q of the idempotent gamma_n, for n prime to p.

    gamma_n has ghost coordinate 1 exactly at the indices n*p^j <= N and
    0 elsewhere; the gamma_n for n <= N prime to p are orthogonal
    idempotents summing to the identity.  All denominators that appear
    are prime to p.
    """
    check_prime(p)
    if n % p == 0:
        raise ParameterMismatch("index must be prime to p")
    ghost = []
    for m in range(1, trunc + 1):
        q = m // n
        ghost.append(1 if m % n == 0 and q == p ** _ilog(q, p) else 0)
    comps = from_ghost_rational(ghost)
    for c in comps:
        if c.denominator % p == 0:
            raise NotPLocal(f"denominator {c.denominator} not prime to {p}")
    return tuple(comps)


def _ilog(q, p):
    # largest e with p^e <= q (q >= 1)
    e = 0
    while p ** (e + 1) <= q:
        e += 1
    return e


def _fraction_in(ring, c: Fraction):
    num = ring.from_int(c.numerator)
    if c.denominator == 1:
        return num
    return ring.mul(num, ring.inv_int(c.denominator))


def gamma_element(ring, p, n, trunc) -> BigWitt:
    """The idempotent gamma_n as a vector over a p-local base ring."""
    comps = gamma_components(p, n, trunc)
    return BigWitt(ring, tuple(_fraction_in(ring, c) for c in comps))


@functools.lru_cache(maxsize=None)
def p_typical_component_polys(p: int, n: int, trunc: int):
    """Polynomials u_0..u_{l-1} in a_1..a_N for the n-th p-typical piece.

    The classical ghost of (u_0, ..., u_{l-1}) equals the big ghost of
    the input at the indices n, n*p, ..., n*p^(l-1), where
    l = floor(log_p(N/n)) + 1.  Coefficients are rational with
    denominator prime to p, so they can be evaluated in any p-local
    ring; that the denominators stay prime to p is checked here.
    """
    check_prime(p)
    if n % p == 0 or not 1 <= n <= trunc:
        raise ParameterMismatch("index must be prime to p and <= N")
    variables = tuple(f"a{i}" for i in range(1, trunc + 1))
    gens = {i: g for i, g in enumerate(MultiPoly.gens(variables), 1)}
    length = _ilog(trunc // n, p) + 1
    out = []
    for j in range(length):
        rhs = _big_ghost_poly(n * p ** j, gens)
        for i, u in enumerate(out):
            rhs = rhs - (p ** i) * u ** (p ** (j - i))
        u = rhs * Fraction(1, p ** j)
        for c in u.terms.values():
            if Fraction(c).denominator % p == 0:
                raise NotPLocal(f"unexpected p in denominator of {c}")
        out.append(u)
    return tuple(out)


def p_typical_decompose(p, v: BigWitt):
    """Split v into classical p-typical vectors, one per n prime to p.

    Returns a dict {n: WittVector of length floor(log_p(N/n)) + 1}.
    The base ring must be p-local: every integer prime to p has to be
    invertible, otherwise NotPLocal is raised.  The total number of
    components over all n equals the truncation N.
    """
    out = {}
    values = {f"a{i}": v.comps[i - 1] for i in range(1, v.trunc + 1)}
    for n in range(1, v.trunc + 1):
        if n % p == 0:
            continue
        # the splitting is only an isomorphism when n is invertible
        v.ring.inv_int(n)
        polys = p_typical_component_polys(p, n, v.trunc)
        out[n] = WittVector(
            p, v.ring, tuple(q.evaluate(v.ring, values) for q in polys)
        )
    return out
