"""Univariate rational functions over Q in canonical form.

Polynomials are tuples of Fraction coefficients, ascending in the curve
coordinate w, with no trailing zeros.  A RatFn keeps gcd(num, den) = 1 and
a monic denominator, so structural equality is semantic equality.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleError

Poly = tuple  # tuple[Fraction, ...], ascending, trimmed

P_ZERO: Poly = ()
P_ONE: Poly = (Fraction(1),)
P_W: Poly = (Fraction(0), Fraction(1))


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
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return ptrim(out)


def pscale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return P_ZERO
    return tuple(x * c for x in a)


def pdivmod(a: Poly, b: Poly):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = r[-1] / lb
        q[k] = c
        for i, cb in enumerate(b):
            r[k + i] -= c * cb
        while r and r[-1] == 0:
            r.pop()
    return ptrim(q), ptrim(r)


def pmonic(a: Poly) -> Poly:
    if not a or a[-1] == 1:
        return a
    lead = a[-1]
    return tuple(c / lead for c in a)


def pgcd(a: Poly, b: Poly) -> Poly:
    if len(a) == 1 or len(b) == 1:
        return P_ONE  # a nonzero constant divides everything
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def plcm(a: Poly, b: Poly) -> Poly:
    """Least common multiple of two monic polynomials."""
    if a == b:
        return a
    return pmul(a, pdivmod(b, pgcd(a, b))[0])


def pdiff(a: Poly) -> Poly:
    return ptrim(tuple(a[i] * i for i in range(1, len(a))))


def peval(a: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pshift(a: Poly, c: Fraction) -> Poly:
    """Compose w -> w + c (Horner in (w + c))."""
    if c == 0:
        return a
    acc: Poly = P_ZERO
    base = (c, Fraction(1))
    for coeff in reversed(a):
        acc = padd(pmul(acc, base), (coeff,) if coeff else P_ZERO)
    return acc


def pcompose_scale(a: Poly, c: Fraction) -> Poly:
    """Compose w -> c*w."""
    pw = Fraction(1)
    out = []
    for coeff in a:
        out.append(coeff * pw)
        pw *= c
    return ptrim(out)


class RatFn:
    """Reduced fraction of two polynomials; denominator monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE, reduce: bool = True):
        num = ptrim(num)
        den = ptrim(den)
        if not den:
            raise ZeroDivisionError("RatFn with zero denominator")
        if not num:
            den = P_ONE
        elif reduce:
            g = pgcd(num, den)
            if len(g) > 1:
                num = pdivmod(num, g)[0]
                den = pdivmod(den, g)[0]
            if den[-1] != 1:
                lead = den[-1]
                num = tuple(c / lead for c in num)
                den = pmonic(den)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_fraction(c) -> "RatFn":
        c = Fraction(c)
        return RatFn((c,) if c else P_ZERO, P_ONE, reduce=False)

    # -- predicates ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_unit(self) -> bool:
        """Every nonzero element of the field is a unit.  Same as bool();
        spelled out so Elimination can ask RatFn and Scalar entries alike."""
        return bool(self.num)

    @property
    def is_poly(self) -> bool:
        return self.den == P_ONE

    def as_fraction(self) -> Fraction:
        """Return the value of a constant RatFn."""
        if self.den != P_ONE or len(self.num) > 1:
            raise ValueError("not a constant")
        return self.num[0] if self.num else Fraction(0)

    # -- ring ops -----------------------------------------------------
    def __add__(self, other: "RatFn") -> "RatFn":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return RatFn(padd(self.num, other.num), self.den)
        return RatFn(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den),
        )

    def __neg__(self) -> "RatFn":
        r = RatFn.__new__(RatFn)
        r.num = pneg(self.num)
        r.den = self.den
        return r

    def __sub__(self, other: "RatFn") -> "RatFn":
        return self + (-other)

    def __mul__(self, other: "RatFn") -> "RatFn":
        if self.is_zero or other.is_zero:
            return RF_ZERO
        if self.is_poly and other.is_poly:
            r = RatFn.__new__(RatFn)
            r.num = pmul(self.num, other.num)
            r.den = P_ONE
            return r
        return RatFn(pmul(self.num, other.num), pmul(self.den, other.den))

    def scale(self, c) -> "RatFn":
        c = Fraction(c)
        if c == 0 or self.is_zero:
            return RF_ZERO
        r = RatFn.__new__(RatFn)
        r.num = pscale(self.num, c)
        r.den = self.den
        return r

    def inv(self) -> "RatFn":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFn(self.den, self.num)

    def __truediv__(self, other: "RatFn") -> "RatFn":
        return self * other.inv()

    def diff(self) -> "RatFn":
        if self.is_poly:
            r = RatFn.__new__(RatFn)
            r.num = pdiff(self.num)
            r.den = P_ONE
            return r
        return RatFn(
            psub(pmul(pdiff(self.num), self.den), pmul(self.num, pdiff(self.den))),
            pmul(self.den, self.den),
        )

    # -- substitutions ------------------------------------------------
    def eval(self, x) -> Fraction:
        x = Fraction(x)
        d = peval(self.den, x)
        if d == 0:
            raise PoleError(f"pole at w = {x}")
        return peval(self.num, x) / d

    def shift_arg(self, c) -> "RatFn":
        """w -> w + c for rational c."""
        c = Fraction(c)
        if c == 0:
            return self
        return RatFn(pshift(self.num, c), pshift(self.den, c))

    def scale_arg(self, c) -> "RatFn":
        """w -> c*w for nonzero rational c."""
        c = Fraction(c)
        if c == 0:
            raise ZeroDivisionError("scale_arg by zero")
        if c == 1:
            return self
        return RatFn(pcompose_scale(self.num, c), pcompose_scale(self.den, c))

    def recip_arg(self) -> "RatFn":
        """w -> 1/w (group inverse in the multiplicative coordinate)."""
        if self.is_zero:
            return self
        # clear denominators with w^m, m = max degree; the lower-degree
        # polynomial picks up the leftover power of w at the low end
        m = max(len(self.num), len(self.den)) - 1
        num = (Fraction(0),) * (m + 1 - len(self.num)) + tuple(reversed(self.num))
        den = (Fraction(0),) * (m + 1 - len(self.den)) + tuple(reversed(self.den))
        return RatFn(ptrim(num), ptrim(den))

    # -- comparisons --------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFn({ratfn_to_str(self)!r})"


RF_ZERO = RatFn(P_ZERO, P_ONE, reduce=False)
RF_ONE = RatFn(P_ONE, P_ONE, reduce=False)
RF_W = RatFn(P_W, P_ONE, reduce=False)


# -- exact text round-trip (decimal-free) ------------------------------

def frac_to_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def str_to_frac(s: str) -> Fraction:
    return Fraction(s.strip())


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
