"""Exact arithmetic in one indeterminate t.

Laurent polynomials over Q, the one coefficient type of the package, and
reduced rational functions over Q, which no other module constructs: the
tests keep them as the oracle for the old paths that divided by polynomials.
Nearly every coefficient the package builds lies in Z[t], so a coefficient is
stored as an ``int`` whenever it is integral and as a ``fractions.Fraction``
only for a true quotient.  Every division goes through `_div`, which keeps an
exact int quotient an int and loads `fractions` at the first true quotient.
`evaluate` returns a value in the same canonical form, an int when it is
integral, so a `chromaq verify` run that passes loads no `fractions` at all.
A Fraction is recognised through ``sys.modules``, since none exists before
its module is loaded.  A ``float`` coefficient raises ``TypeError``: there is
deliberately no floating-point anywhere.  Everything is immutable and
canonical, so equality and hashing are structural, and a constant hashes as
the number it equals.

The canonical form of a LaurentPoly: nonzero first and last coefficients,
each an int when integral; zero is () with low = 0.  The public constructor
normalises any input to it.  The ring operations rely on it to build their
results canonical in the first place, through the trusted `_canonical`: a
product of two canonical polynomials over Q, a nonzero multiple of one, its
negative, shift and t -> 1/t all keep nonzero ends, so nothing is trimmed;
a sum or difference trims only ends that cancel.  Only entries that are not
ints are normalised, so an integral Fraction still becomes an int.  Equality
and hashing are structural because of it, and `evaluate` at an int q runs in
int on every polynomial in Z[t], since its coefficients are stored as ints.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import gcd as _intgcd
from typing import TYPE_CHECKING, Iterable, Mapping, Union

if TYPE_CHECKING:
    from fractions import Fraction

Rat = Union[int, "Fraction"]


class PoleError(ZeroDivisionError):
    """Evaluation hit a pole (t = 0 with negative exponents, or a root of a denominator)."""


def _is_fraction(x) -> bool:
    """True iff x is a Fraction; no Fraction exists before `fractions` is loaded."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _is_number(x) -> bool:
    """True iff x is an int or a Fraction, the numbers a coefficient can be."""
    return isinstance(x, int) or _is_fraction(x)


def _frac(x: Rat) -> Rat:
    """x as a canonical coefficient: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if _is_fraction(x):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"coefficient {x!r} is neither an int nor a Fraction")


def _div(x: Rat, y: Rat) -> Rat:
    """The exact quotient x / y as a canonical coefficient.

    An int quotient of ints is taken as one; any other quotient is a Fraction,
    and the first one a process builds loads `fractions`.
    """
    if type(x) is int and type(y) is int and y and not x % y:
        return x // y
    from fractions import Fraction
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
    entries, each an int when integral; the zero polynomial is the empty
    tuple with low = 0.  The constructor brings any input to this form; the
    ring operations build their results in it (see `_canonical`).
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
        c = _frac(c)
        return _canonical((c,), 0) if c else ZERO

    @staticmethod
    def t(k: int = 1) -> "LaurentPoly":
        return _canonical((1,), k)

    @staticmethod
    def from_terms(terms: Mapping[int, Rat]) -> "LaurentPoly":
        if not terms:
            return ZERO
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
        if type(other) is LaurentPoly:
            return self.low == other.low and self.coeffs == other.coeffs
        if _is_number(other):
            c = _frac(other)
            return self.coeffs == ((c,) if c else ()) and self.low == 0
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its number (zero included), so it hashes as one
        if self.low == 0 and len(self.coeffs) <= 1:
            return hash(self[0])
        return hash((self.low, self.coeffs))

    # -- ring operations ---------------------------------------------------

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, sign = 1 or -1; only coinciding ends can cancel."""
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other if sign == 1 else -other
        lo = min(self.low, other.low)
        hi = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        cs = [0] * (hi - lo)
        i = self.low - lo
        cs[i:i + len(self.coeffs)] = self.coeffs
        i = other.low - lo
        if sign == 1:
            for c in other.coeffs:
                cs[i] += c
                i += 1
        else:
            for c in other.coeffs:
                cs[i] -= c
                i += 1
        k, j = 0, len(cs)
        while k < j and not cs[k]:
            k += 1
        while j > k and not cs[j - 1]:
            j -= 1
        return _canonical(cs[k:j], lo + k) if k < j else ZERO

    def __add__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            other = _as_poly(other)
            if other is NotImplemented:
                return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _canonical([-c for c in self.coeffs], self.low)

    def __sub__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            other = _as_poly(other)
            if other is NotImplemented:
                return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def _scaled(self, c: Rat, k: int) -> "LaurentPoly":
        """c * t^k * self for a nonzero canonical number c and a nonzero self."""
        if c == 1:
            return _canonical(self.coeffs, self.low + k) if k else self
        return _canonical([a * c for a in self.coeffs], self.low + k)

    def __mul__(self, other) -> "LaurentPoly":
        if type(other) is LaurentPoly:
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return ZERO
            if len(b) == 1:  # a constant or a monomial: the scalar path
                return self._scaled(b[0], other.low)
            if len(a) == 1:
                return other._scaled(a[0], self.low)
            return _canonical(_pmul(a, b), self.low + other.low)
        if _is_number(other):
            c = _frac(other)
            return self._scaled(c, 0) if c and self.coeffs else ZERO
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError(f"negative power {n}: a LaurentPoly has no inverse in general; "
                             "for t^k use LaurentPoly.t(k)")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return _canonical(self.coeffs, self.low + k)

    def subs_inv(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        if self.is_zero:
            return self
        return _canonical(self.coeffs[::-1], -(self.low + len(self.coeffs) - 1))

    def evaluate(self, q: Rat) -> Rat:
        """Exact value at t = q as a canonical coefficient: an int when it is
        integral, else a Fraction; pole when q = 0 meets a negative exponent.
        One Horner loop in the type of q and the coefficients, then q ** low,
        or one `_div` by q ** -low for low < 0.  So a polynomial in Z[t, 1/t]
        at an int q builds a Fraction only when its value is not an integer."""
        q = _frac(q)
        if q == 0 and self.low < 0:
            raise PoleError("evaluation at t = 0 of a Laurent polynomial with negative exponents")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        if self.low < 0:
            return _div(acc, q ** -self.low)
        return _frac(acc * q ** self.low)

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


def _all_int(cs) -> bool:
    """True iff every entry of cs (ints and Fractions) is an int: a sum of
    ints is an int, and one Fraction makes the sum a Fraction."""
    return type(sum(cs)) is int


def _canonical(cs, low: int) -> LaurentPoly:
    """The LaurentPoly t^low * sum_i cs[i] t^i, for cs whose ends are nonzero.

    The trusted constructor of the ring operations: cs must be empty with
    low = 0, or have nonzero first and last entries, each an int or a
    Fraction.  Nothing is trimmed; only entries that are not ints are
    normalised, so an integral Fraction still becomes an int.
    """
    if not _all_int(cs):
        cs = [c if type(c) is int else _frac(c) for c in cs]
    f = object.__new__(LaurentPoly)
    object.__setattr__(f, "coeffs", tuple(cs))
    object.__setattr__(f, "low", low)
    return f


def _as_poly(x) -> LaurentPoly:
    """A number x as a constant LaurentPoly; anything else is NotImplemented."""
    return LaurentPoly.const(x) if _is_number(x) else NotImplemented


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
T = LaurentPoly.t()


@lru_cache(maxsize=None)
def t_minus_one_power(k: int) -> LaurentPoly:
    """(t - 1)^k, built once per k: `coeffs` is the signed binomial row (-1)^{k-i} C(k, i)."""
    return (T - 1) ** k


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

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num)
        if not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if den.low == 0 and den.coeffs == (1,):  # already canonical
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", ONE)
            return
        if num.is_zero:
            object.__setattr__(self, "num", ZERO)
            object.__setattr__(self, "den", ONE)
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
        return self.den == ONE

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # __init__ always reduces to canonical form, so equality is structural
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # with den 1 it equals num, and so a constant equals its number
        return hash(self.num) if self.den == ONE else hash((self.num, self.den))

    def __add__(self, other) -> "RationalFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == ONE and other.den == ONE:
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
        if self.den == ONE and other.den == ONE:
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

    def evaluate(self, q: Rat) -> Rat:
        d = self.den.evaluate(q)
        if d == 0:
            raise PoleError(f"pole of {self} at t = {q}")
        return _div(self.num.evaluate(q), d)

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
    if _is_number(x):
        return RationalFunc.const(x)
    return NotImplemented


def ratfunc_to_const(f: LaurentPoly) -> Rat:
    """The value of f, which must not involve t; raises ArithmeticError otherwise.

    The tripwire for tables specialised from symbolic ones that theory says
    are free of t.
    """
    if f.is_zero or (f.low == 0 and len(f.coeffs) == 1):
        return f[0]
    raise ArithmeticError(f"{f} is not a constant")
