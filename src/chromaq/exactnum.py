"""Exact arithmetic in one indeterminate t.

Laurent polynomials and reduced rational functions over Q.  Nearly every
coefficient the package builds lies in Z[t], so a coefficient is stored as an
``int`` whenever it is integral and as a ``fractions.Fraction`` only for a true
quotient; every division goes through ``Fraction``.  A ``float`` coefficient
raises ``TypeError``: there is deliberately no floating-point anywhere.
Everything is immutable and canonical, so equality and hashing are structural.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _intgcd
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation hit a pole (t = 0 with negative exponents, or a root of a denominator)."""


class NonDivisibleError(ArithmeticError):
    """An exact Laurent division was requested but a nonzero remainder exists."""


def _frac(x: Rat) -> Rat:
    """x as a canonical coefficient: an int when integral, else a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"coefficient {x!r} is neither an int nor a Fraction")


def _div(x: Rat, y: Rat) -> Rat:
    """The exact quotient x / y as a canonical coefficient."""
    return _frac(Fraction(x, y))


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient tuples, index = exponent, low = 0)
# ---------------------------------------------------------------------------

def _ptrim(c: list[Rat]) -> list[Rat]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: tuple[Rat, ...], b: tuple[Rat, ...]) -> list[Rat]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _pdivmod(a: list[Rat], b: list[Rat]) -> tuple[list[Rat], list[Rat]]:
    """Long division over Q; returns (quotient, remainder)."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = _div(1, b[-1])
    while len(a) >= len(b):
        c = a[-1] * inv
        d = len(a) - len(b)
        if c:
            q[d] = c
            for i, bi in enumerate(b):
                a[d + i] -= c * bi
        a.pop()
    return q, _ptrim(a)


def _content(a: list[int]) -> int:
    g = 0
    for x in a:
        g = _intgcd(g, abs(x))
    return g or 1


def _poly_gcd(a: tuple[Rat, ...], b: tuple[Rat, ...]) -> tuple[Rat, ...]:
    """Monic gcd in Q[t] via the primitive pseudo-remainder sequence over Z."""
    if not a:
        return _monic(b)
    if not b:
        return _monic(a)

    def to_primitive(c: tuple[Rat, ...]) -> list[int]:
        den = 1
        for x in c:
            den = den * x.denominator // _intgcd(den, x.denominator)
        ints = [int(x * den) for x in c]
        g = _content(ints)
        ints = [x // g for x in ints]
        if ints[-1] < 0:
            ints = [-x for x in ints]
        return ints

    A, B = to_primitive(a), to_primitive(b)
    if len(A) < len(B):
        A, B = B, A
    while B:
        # pseudo-remainder of A by B, kept primitive each round
        R = list(A)
        lb = B[-1]
        while len(R) >= len(B):
            lr = R[-1]
            d = len(R) - len(B)
            R = [lb * x for x in R]
            for i, bi in enumerate(B):
                R[d + i] -= lr * bi
            while R and R[-1] == 0:
                R.pop()
        g = _content(R)
        R = [x // g for x in R]
        if R and R[-1] < 0:
            R = [-x for x in R]
        A, B = B, R
    return _monic(tuple(A))


def _monic(a: tuple[Rat, ...]) -> tuple[Rat, ...]:
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(_div(x, lead) for x in a)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial in t over Q, stored as (lowest exponent, coefficients).

    Canonical form: the stored coefficient tuple has nonzero first and last
    entries; the zero polynomial is the empty tuple with low = 0.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, coeffs: Iterable[Rat] = (), low: int = 0):
        cs = [c if type(c) is int else _frac(c) for c in coeffs]
        # trim trailing zeros, then leading zeros (adjusting low)
        while cs and cs[-1] == 0:
            cs.pop()
        k = 0
        while k < len(cs) and cs[k] == 0:
            k += 1
        object.__setattr__(self, "coeffs", tuple(cs[k:]))
        object.__setattr__(self, "low", low + k if cs[k:] else 0)

    def __setattr__(self, *args):  # immutable
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def const(c: Rat) -> "LaurentPoly":
        return LaurentPoly([c])

    @staticmethod
    def t(k: int = 1) -> "LaurentPoly":
        return LaurentPoly([1], low=k)

    @staticmethod
    def from_terms(terms: Mapping[int, Rat]) -> "LaurentPoly":
        if not terms:
            return LaurentPoly()
        lo = min(terms)
        hi = max(terms)
        cs = [0] * (hi - lo + 1)
        for k, v in terms.items():
            cs[k - lo] = v
        return LaurentPoly(cs, low=lo)

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Top exponent (raises on the zero polynomial)."""
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.low + len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Rat:
        i = k - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def terms(self) -> Iterable[tuple[int, Rat]]:
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.low + i, c

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.low == other.low and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.low, self.coeffs))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.low, other.low)
        hi = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        cs = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            cs[self.low - lo + i] += c
        for i, c in enumerate(other.coeffs):
            cs[other.low - lo + i] += c
        return LaurentPoly(cs, low=lo)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly([-c for c in self.coeffs], low=self.low)

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else LaurentPoly.const(-_frac(other)))

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return LaurentPoly()
            return LaurentPoly([a * c for a in self.coeffs], low=self.low)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        return LaurentPoly(_pmul(self.coeffs, other.coeffs), low=self.low + other.low)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("use RationalFunc for negative powers of general polynomials")
        out = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return LaurentPoly(self.coeffs, low=self.low + k)

    def subs_inv(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        if self.is_zero:
            return self
        return LaurentPoly(tuple(reversed(self.coeffs)), low=-(self.low + len(self.coeffs) - 1))

    def evaluate(self, q: Rat) -> Fraction:
        """Exact value at t = q; pole when q = 0 meets a negative exponent.

        q is taken as a Fraction, so q ** low stays exact for low < 0."""
        q = Fraction(_frac(q))
        if self.is_zero:
            return Fraction(0)
        if q == 0 and self.low < 0:
            raise PoleError("evaluation at t = 0 of a Laurent polynomial with negative exponents")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q + c
        if self.low:
            acc *= q ** self.low
        return acc

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in sorted(self.terms(), key=lambda kc: -kc[0]):
            sign = "-" if c < 0 else "+"
            a = -c if c < 0 else c
            if k == 0:
                body = str(a)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if a == 1 else f"{a}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += sign + body
        return out

    __repr__ = __str__


_L_ZERO = LaurentPoly()
_L_ONE = LaurentPoly.const(1)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunc:
    """Reduced rational function in t over Q.

    Canonical form: den is a monic honest polynomial (low = 0) with nonzero
    constant term, gcd(num, den) = 1 after pulling every power of t into the
    Laurent numerator.  This makes structural equality canonical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _L_ONE):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num)
        if not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if den.low == 0 and den.coeffs == (1,):  # already canonical
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", _L_ONE)
            return
        if num.is_zero:
            object.__setattr__(self, "num", _L_ZERO)
            object.__setattr__(self, "den", _L_ONE)
            return
        shift = num.low - den.low
        n, d = num.coeffs, den.coeffs
        if len(d) > 1:
            g = _poly_gcd(n, d)
            if len(g) > 1:
                qn, rn = _pdivmod(list(n), list(g))
                qd, rd = _pdivmod(list(d), list(g))
                if rn or rd:
                    raise AssertionError("gcd does not divide numerator and denominator")
                n, d = tuple(qn), tuple(qd)
        lead = d[-1]
        if lead != 1:
            n = tuple(_div(x, lead) for x in n)
            d = tuple(_div(x, lead) for x in d)
        object.__setattr__(self, "num", LaurentPoly(n, low=shift))
        object.__setattr__(self, "den", LaurentPoly(d))

    def __setattr__(self, *args):
        raise AttributeError("RationalFunc is immutable")

    @staticmethod
    def const(c: Rat) -> "RationalFunc":
        return RationalFunc(LaurentPoly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_laurent(self) -> bool:
        return self.den == _L_ONE

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # __init__ always reduces to canonical form, so equality is structural
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RationalFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == _L_ONE and other.den == _L_ONE:
            return RationalFunc(self.num + other.num)
        return RationalFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunc":
        return RationalFunc(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunc":
        return (-self) + other

    def __mul__(self, other) -> "RationalFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == _L_ONE and other.den == _L_ONE:
            return RationalFunc(self.num * other.num)
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunc":
        return _coerce(other) / self

    def subs_inv(self) -> "RationalFunc":
        """Substitute t -> 1/t."""
        return RationalFunc(self.num.subs_inv(), self.den.subs_inv())

    def evaluate(self, q: Rat) -> Fraction:
        d = self.den.evaluate(q)
        if d == 0:
            raise PoleError(f"pole of {self} at t = {q}")
        return self.num.evaluate(q) / d

    def __str__(self) -> str:
        if self.is_laurent:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _coerce(x) -> "RationalFunc":
    if isinstance(x, RationalFunc):
        return x
    if isinstance(x, LaurentPoly):
        return RationalFunc(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunc.const(x)
    return NotImplemented


def ratfunc_to_laurent(r: RationalFunc) -> LaurentPoly:
    """Assert that r is actually a Laurent polynomial and return it.

    Used as a correctness tripwire: callers invoke it exactly where theory
    promises the denominator clears.
    """
    if r.is_laurent:
        return r.num
    _, rem = _pdivmod(list(r.num.coeffs), list(r.den.coeffs))
    raise NonDivisibleError(
        f"{r.den} does not divide {r.num}: remainder {LaurentPoly(rem, low=r.num.low)}"
    )


def ratfunc_to_const(r: RationalFunc) -> Rat:
    """The value of r, which must not involve t; raises ArithmeticError otherwise.

    The tripwire for tables specialised from symbolic ones that theory says
    are free of t.
    """
    num = r.num
    if r.is_laurent and (num.is_zero or (num.low == 0 and len(num.coeffs) == 1)):
        return num[0]
    raise ArithmeticError(f"{r} is not a constant")


RF_ZERO = RationalFunc.const(0)
RF_ONE = RationalFunc.const(1)
T = LaurentPoly.t()
