"""Univariate rational functions over Q in canonical form.

A RatFn stores a content p/q (coprime ints, q > 0) times N(w)/Dn(w): N and
Dn are primitive integer polynomials with positive leading coefficients and
gcd(N, Dn) = 1 over Q[w]; zero is 0/1 * 0/1.  The form is unique, so
structural equality is semantic equality, and the ring operations run on
Python ints: by Gauss's lemma a product of primitive polynomials is
primitive, and a polynomial gcd is a primitive pseudo-remainder sequence
over Z (Collins 1967; Brown 1971).  A product cancels by the cross gcds
gcd(N1, Dn2) and gcd(N2, Dn1); a sum over a shared denominator needs a
polynomial gcd only when its numerator has positive degree.

Polynomials are tuples of coefficients, ascending in the curve coordinate
w, with no trailing zeros.  There is one polynomial form: the kernel
computes on int coefficients only, and the helpers that divide (pgcd, plcm)
take only int polynomials.  The constructor splits Fraction coefficients
into a content and a primitive part; beyond that, Fractions appear only in
the views RatFn.num and RatFn.den (the canonical form over Q with a monic
denominator) and in the "p/q*w^k" text form written from them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PoleError

Poly = tuple  # tuple[int, ...], ascending, trimmed

P_ZERO: Poly = ()
P_ONE: Poly = (1,)  # the primitive constant


def ptrim(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(a: Poly) -> int:
    return len(a) - 1  # -1 for the zero polynomial


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ptrim(out)


def pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    out = [a[0] * 0] * (len(a) + len(b) - 1)  # 0 of the coefficient type
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return ptrim(out)


def pscale(a: Poly, c) -> Poly:
    if c == 0:
        return P_ZERO
    return tuple(x * c for x in a)


def pgcd(a: Poly, b: Poly) -> Poly:
    """gcd over Q[w] of two int polynomials: the primitive one with a
    positive leading coefficient."""
    if len(a) == 1 or len(b) == 1:
        return P_ONE  # a nonzero constant divides everything
    return _prs_gcd(a, b)


def plcm(a: Poly, b: Poly) -> Poly:
    """lcm over Q[w] of two primitive int polynomials with positive leading
    coefficients, in the same form."""
    if a == b:
        return a
    return pmul(a, _zdiv(b, pgcd(a, b)))


def pdiff(a: Poly) -> Poly:
    return ptrim(tuple(a[i] * i for i in range(1, len(a))))


def peval(a: Poly, x: int) -> int:
    """a(x) for an int polynomial and an int x."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


# -- integer polynomials: the kernel of RatFn ---------------------------

def _prim(a: Poly):
    """(content, primitive part) of a nonzero int polynomial; the content
    carries the sign that makes the leading coefficient positive."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return 1, a
    return g, tuple(c // g for c in a)


def _split(a: Poly):
    """(p, q, primitive int part) of a nonzero rational polynomial, whose
    value is p/q times the part."""
    den = lcm(*(c.denominator for c in a))
    c, part = _prim(tuple(c.numerator * (den // c.denominator) for c in a))
    return c, den, part


def _reduced(p: int, q: int):
    """p/q in lowest terms with q > 0."""
    if q < 0:
        p, q = -p, -q
    g = gcd(p, q)
    if g == 1:
        return p, q
    return p // g, q // g


def _prem(a: Poly, b: Poly) -> Poly:
    """A nonzero integer multiple of a mod b, for deg a >= deg b."""
    r = list(a)
    nb, lb = len(b), b[-1]
    while len(r) >= nb:
        c = r.pop()
        g = gcd(c, lb)
        s, c = lb // g, c // g
        if s != 1:
            r = [x * s for x in r]
        k = len(r) - nb + 1
        for i in range(nb - 1):
            r[k + i] -= c * b[i]
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _prs_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd of two int polynomials with a positive leading
    coefficient, by the primitive pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    if a:
        a = _prim(a)[1]
    while b:
        b = _prim(b)[1]
        if len(b) == 1:
            return P_ONE
        a, b = b, _prem(a, b)
    return a


def _zdiv(a: Poly, b: Poly) -> Poly:
    """a / b for int polynomials where b is primitive and divides a."""
    r = list(a)
    nb, lb = len(b), b[-1]
    q = [0] * (len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + nb - 1] // lb
        q[k] = c
        if c:
            for i in range(nb):
                r[k + i] -= c * b[i]
    return tuple(q)


def _canon(p: int, q: int, n: Poly, d: Poly):
    """The canonical parts of (p/q) * n/d for ints p, q != 0 and nonzero
    int polynomials n, d."""
    cn, n = _prim(n)
    cd, d = _prim(d)
    if len(n) > 1 and len(d) > 1:
        g = pgcd(n, d)
        if len(g) > 1:
            n, d = _zdiv(n, g), _zdiv(d, g)
    return (*_reduced(p * cn, q * cd), n, d)


def _homog(a: Poly, x: int, y: int) -> int:
    """y^deg(a) * a(x/y)."""
    acc, ypow = a[-1], y
    for c in a[-2::-1]:
        acc = acc * x + c * ypow
        ypow *= y
    return acc


def _zshift(a: Poly, x: int, y: int) -> Poly:
    """y^deg(a) * a(w + x/y), Horner in (x + y*w)."""
    acc, ypow = [a[-1]], y
    for c in a[-2::-1]:
        acc = (
            [acc[0] * x + c * ypow]
            + [acc[j] * x + acc[j - 1] * y for j in range(1, len(acc))]
            + [acc[-1] * y]
        )
        ypow *= y
    return tuple(acc)


def _zscale(a: Poly, x: int, y: int) -> Poly:
    """y^deg(a) * a(x/y * w)."""
    k = len(a) - 1
    return tuple(c * x**i * y ** (k - i) for i, c in enumerate(a))


def _new(p: int, q: int, n: Poly, d: Poly) -> "RatFn":
    r = RatFn.__new__(RatFn)
    r.p, r.q, r.n, r.d = p, q, n, d
    return r


class RatFn:
    """(p/q) * n(w)/d(w): p, q coprime ints with q > 0; n, d primitive int
    polynomials with positive leading coefficients and gcd 1 over Q[w]
    (zero: p = 0, n = (), d = (1,))."""

    __slots__ = ("p", "q", "n", "d")

    def __init__(self, num, den=P_ONE):
        """The reduced form of num/den, polynomials with int or Fraction
        coefficients."""
        num = ptrim(num)
        den = ptrim(den)
        if not den:
            raise ZeroDivisionError("RatFn with zero denominator")
        if not num:
            self.p, self.q, self.n, self.d = 0, 1, P_ZERO, P_ONE
            return
        pn, qn, n = _split(num)
        pd, qd, d = _split(den)
        self.p, self.q, self.n, self.d = _canon(pn * qd, qn * pd, n, d)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_fraction(c) -> "RatFn":
        c = Fraction(c)
        if not c:
            return RF_ZERO
        return _new(c.numerator, c.denominator, P_ONE, P_ONE)

    # -- views over Q -------------------------------------------------
    @property
    def num(self) -> Poly:
        """Numerator of the canonical form with a monic denominator."""
        s, t = self.p, self.q * self.d[-1]
        return tuple(Fraction(s * c, t) for c in self.n)

    @property
    def den(self) -> Poly:
        """The monic denominator."""
        lead = self.d[-1]
        return tuple(Fraction(c, lead) for c in self.d)

    # -- predicates ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.p

    def __bool__(self) -> bool:
        return self.p != 0

    @property
    def is_unit(self) -> bool:
        """Every nonzero element of the field is a unit.  Same as bool();
        spelled out so Elimination can ask RatFn and Scalar entries alike."""
        return self.p != 0

    # -- ring ops -----------------------------------------------------
    def __add__(self, other: "RatFn") -> "RatFn":
        if not self.p:
            return other
        if not other.p:
            return self
        sa, sb = self.p * other.q, other.p * self.q
        q = self.q * other.q
        if self.d == other.d:
            if len(self.n) == 1 and len(other.n) == 1:
                p = sa + sb
                if not p:
                    return RF_ZERO
                return _new(*_reduced(p, q), P_ONE, self.d)
            n = padd(pscale(self.n, sa), pscale(other.n, sb))
            d = self.d
        else:
            n = padd(
                pscale(pmul(self.n, other.d), sa), pscale(pmul(other.n, self.d), sb)
            )
            d = pmul(self.d, other.d)
        if not n:
            return RF_ZERO
        return _new(*_canon(1, q, n, d))

    def __neg__(self) -> "RatFn":
        return _new(-self.p, self.q, self.n, self.d)

    def __sub__(self, other: "RatFn") -> "RatFn":
        return self + (-other)

    def __mul__(self, other: "RatFn") -> "RatFn":
        if not self.p or not other.p:
            return RF_ZERO
        na, da, nb, db = self.n, self.d, other.n, other.d
        # gcd(na, da) = gcd(nb, db) = 1, so the cross gcds reduce fully
        if len(na) > 1 and len(db) > 1:
            g = pgcd(na, db)
            if len(g) > 1:
                na, db = _zdiv(na, g), _zdiv(db, g)
        if len(nb) > 1 and len(da) > 1:
            g = pgcd(nb, da)
            if len(g) > 1:
                nb, da = _zdiv(nb, g), _zdiv(da, g)
        return _new(
            *_reduced(self.p * other.p, self.q * other.q),
            na if len(nb) == 1 else nb if len(na) == 1 else pmul(na, nb),
            da if len(db) == 1 else db if len(da) == 1 else pmul(da, db),
        )

    def scale(self, c) -> "RatFn":
        c = Fraction(c)
        if c == 0 or not self.p:
            return RF_ZERO
        p, q = _reduced(self.p * c.numerator, self.q * c.denominator)
        return _new(p, q, self.n, self.d)

    def inv(self) -> "RatFn":
        if not self.p:
            raise ZeroDivisionError("inverse of zero rational function")
        if self.p < 0:
            return _new(-self.q, -self.p, self.d, self.n)
        return _new(self.q, self.p, self.d, self.n)

    def __truediv__(self, other: "RatFn") -> "RatFn":
        return self * other.inv()

    def diff(self) -> "RatFn":
        n, d = self.n, self.d
        if len(d) == 1:
            dn = pdiff(n)
            if not dn:
                return RF_ZERO
            c, dn = _prim(dn)
            return _new(*_reduced(self.p * c, self.q), dn, P_ONE)
        return _new(*_canon(
            self.p, self.q,
            psub(pmul(pdiff(n), d), pmul(n, pdiff(d))),
            pmul(d, d),
        ))

    # -- substitutions ------------------------------------------------
    def eval(self, x) -> Fraction:
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        dv = _homog(self.d, a, b)
        if dv == 0:
            raise PoleError(f"pole at w = {x}")
        if not self.p:
            return Fraction(0)
        # n(x) / d(x) = (nv / b^deg n) / (dv / b^deg d)
        nv, e = _homog(self.n, a, b), len(self.d) - len(self.n)
        if e >= 0:
            return Fraction(self.p * nv * b**e, self.q * dv)
        return Fraction(self.p * nv, self.q * dv * b**-e)

    def _substituted(self, n: Poly, d: Poly, y: int) -> "RatFn":
        """The RatFn whose parts became y^deg(n) * n' and y^deg(d) * d'
        under an automorphism of Q(w), which keeps them coprime: only the
        content and the signs change."""
        cn, n = _prim(n)
        cd, d = _prim(d)
        p, q = self.p * cn, self.q * cd
        e = len(self.d) - len(self.n)
        if e > 0:
            p *= y**e
        elif e < 0:
            q *= y**-e
        return _new(*_reduced(p, q), n, d)

    def shift_arg(self, c) -> "RatFn":
        """w -> w + c for rational c."""
        c = Fraction(c)
        if c == 0 or not self.p:
            return self
        x, y = c.numerator, c.denominator
        return self._substituted(_zshift(self.n, x, y), _zshift(self.d, x, y), y)

    def scale_arg(self, c) -> "RatFn":
        """w -> c*w for nonzero rational c."""
        c = Fraction(c)
        if c == 0:
            raise ZeroDivisionError("scale_arg by zero")
        if c == 1 or not self.p:
            return self
        x, y = c.numerator, c.denominator
        return self._substituted(_zscale(self.n, x, y), _zscale(self.d, x, y), y)

    def recip_arg(self) -> "RatFn":
        """w -> 1/w (group inverse in the multiplicative coordinate)."""
        if not self.p:
            return self
        # clear denominators with w^m, m = max degree; the lower-degree
        # polynomial picks up the leftover power of w at the low end
        m = max(len(self.n), len(self.d))
        n = ptrim((0,) * (m - len(self.n)) + self.n[::-1])
        d = ptrim((0,) * (m - len(self.d)) + self.d[::-1])
        return self._substituted(n, d, 1)

    # -- comparisons --------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFn)
            and self.p == other.p
            and self.q == other.q
            and self.n == other.n
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.p, self.q, self.n, self.d))

    def __repr__(self):
        return f"RatFn({ratfn_to_str(self)!r})"


RF_ZERO = _new(0, 1, P_ZERO, P_ONE)
RF_ONE = _new(1, 1, P_ONE, P_ONE)
RF_W = _new(1, 1, (0, 1), P_ONE)


# -- exact text round-trip (decimal-free) ------------------------------

def frac_to_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def str_to_frac(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s.strip()!r}") from None


def poly_to_str(a: Poly) -> str:
    if not a:
        return "0/1*w^0"
    return " + ".join(
        f"{frac_to_str(c)}*w^{k}" for k, c in enumerate(a) if c != 0
    )


def str_to_poly(s: str) -> Poly:
    out: dict = {}
    for term in s.split(" + "):
        coeff, _, power = term.partition("*w^")
        if not power:
            raise ValueError(f"bad polynomial term {term!r}")
        out[int(power)] = out.get(int(power), Fraction(0)) + str_to_frac(coeff)
    deg = max(out) if out else 0
    return ptrim([out.get(k, Fraction(0)) for k in range(deg + 1)])


def ratfn_to_str(r: RatFn) -> str:
    return f"{poly_to_str(r.num)} / {poly_to_str(r.den)}"


def str_to_ratfn(s: str) -> RatFn:
    num, sep, den = s.partition(" / ")
    if not sep:
        raise ValueError(f"bad rational function {s!r}")
    return RatFn(str_to_poly(num), str_to_poly(den))
