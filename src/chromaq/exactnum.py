"""Exact arithmetic in one indeterminate t.

Laurent polynomials over Z, the one coefficient type of the package, and
reduced rational functions over Q, kept as a quotient of integer
polynomials, which no other module constructs: the tests keep them as the
oracle for the old paths that divided by polynomials.  A LaurentPoly
coefficient is an int.  A Fraction or a ``float`` raises ``TypeError``, from
the constructor, `const`, `from_terms` and arithmetic with a number; an int
subclass is read as an int.  There is deliberately no floating-point
anywhere.  `fractions` is imported in two places only: `LaurentPoly.evaluate`
at a negative power of t whose value is no integer, and `RationalFunc`, for
its values and the hash of a non-integer constant.  So a `chromaq` run that
passes loads no `fractions` at all.  Everything is immutable and canonical,
so equality and hashing are structural, and a constant hashes as the number
it equals.

The canonical form of a LaurentPoly: nonzero first and last coefficients;
zero is () with low = 0.  The public constructor brings any input to it.
The ring operations rely on it to build their results canonical in the
first place, through the trusted `_canonical`: a product of two canonical
polynomials, a nonzero multiple of one, its negative, shift and t -> 1/t all
keep nonzero ends, so nothing is trimmed; a sum or difference trims only
ends that cancel.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as _intgcd
from typing import Iterable, Mapping


class PoleError(ZeroDivisionError):
    """Evaluation hit a pole (t = 0 with negative exponents, or a root of a denominator)."""


def _int(x) -> int:
    """x as a coefficient: an int, an int subclass read as one; anything else raises TypeError."""
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"coefficient {x!r} is not an int")


# ---------------------------------------------------------------------------
# dense polynomial helpers (int coefficient tuples, index = exponent, low = 0)
# ---------------------------------------------------------------------------

def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _pdiv(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The quotient a / b, exact over Z; a remainder raises ArithmeticError."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for d in reversed(range(len(q))):
        c, r = divmod(a[d + len(b) - 1], b[-1])
        if r:
            break
        q[d] = c
        for i, bi in enumerate(b):
            a[d + i] -= c * bi
    if any(a):
        raise ArithmeticError(f"{list(b)} does not divide {list(a)} over Z")
    return q


def _poly_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive gcd, with a positive leading coefficient, of two nonzero
    polynomials over Z, by the primitive pseudo-remainder sequence."""

    def primitive(c: list[int]) -> list[int]:
        g = _intgcd(*c)
        return [x // g for x in c] if c[-1] > 0 else [-x // g for x in c]

    A, B = primitive(list(a)), primitive(list(b))
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
        A, B = B, primitive(R) if R else R
    return tuple(A)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial in t over Z, stored as (lowest exponent, coefficients).

    Canonical form: the stored coefficient tuple of ints has nonzero first
    and last entries; the zero polynomial is the empty tuple with low = 0.
    The constructor brings any input to this form; the ring operations build
    their results in it (see `_canonical`).
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, coeffs: Iterable[int] = (), low: int = 0):
        cs = [c if type(c) is int else _int(c) for c in coeffs]
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
    def const(c: int) -> "LaurentPoly":
        c = c if type(c) is int else _int(c)
        return _canonical((c,), 0) if c else ZERO

    @staticmethod
    def t(k: int = 1) -> "LaurentPoly":
        return _canonical((1,), k)

    @staticmethod
    def from_terms(terms: Mapping[int, int]) -> "LaurentPoly":
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

    def __getitem__(self, k: int) -> int:
        i = k - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def terms(self) -> Iterable[tuple[int, int]]:
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.low + i, c

    def __eq__(self, other) -> bool:
        if type(other) is LaurentPoly:
            return self.low == other.low and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ()) and self.low == 0
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

    def _scaled(self, c: int, k: int) -> "LaurentPoly":
        """c * t^k * self for a nonzero int c and a nonzero self."""
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
        if isinstance(other, int):
            c = other if type(other) is int else int(other)
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

    def subs_inv(self, k: int = 0) -> "LaurentPoly":
        """Substitute t -> 1/t, then multiply by t^k."""
        if self.is_zero:
            return self
        return _canonical(self.coeffs[::-1], k - self.low - len(self.coeffs) + 1)

    def evaluate(self, q: int):
        """Exact value at an int t = q: an int whenever the value is one, else
        the exact quotient as a Fraction; a pole when q = 0 meets a negative
        exponent.  One Horner loop in int, then q ** low, or for low < 0 one
        division by q ** -low, which loads `fractions` only when it is inexact."""
        if not isinstance(q, int):
            raise TypeError(f"evaluation point {q!r} is not an int")
        if q == 0 and self.low < 0:
            raise PoleError("evaluation at t = 0 of a Laurent polynomial with negative exponents")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        if self.low >= 0:
            return acc * q ** self.low
        den = q ** -self.low
        if not acc % den:
            return acc // den
        from fractions import Fraction
        return Fraction(acc, den)

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


def _canonical(cs, low: int) -> LaurentPoly:
    """The LaurentPoly t^low * sum_i cs[i] t^i, for ints cs whose ends are nonzero.

    The trusted constructor of the ring operations: cs must be empty with
    low = 0, or have nonzero first and last entries.  Nothing is checked.
    """
    f = object.__new__(LaurentPoly)
    object.__setattr__(f, "coeffs", tuple(cs))
    object.__setattr__(f, "low", low)
    return f


def _as_poly(x) -> LaurentPoly:
    """An int x as a constant LaurentPoly; anything else is NotImplemented."""
    return LaurentPoly.const(x) if isinstance(x, int) else NotImplemented


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
    """Reduced rational function in t over Q, kept as a quotient over Z.

    Canonical form: num lies in Z[t, 1/t] and den in Z[t] (low = 0), with a
    nonzero constant term and a positive leading coefficient, and the two
    have gcd 1 over Z, content included, once every power of t is pulled
    into num.  The form is unique, so structural equality is equality.  A
    number argument, an int or a Fraction, is read through its numerator and
    denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num, a = _split(num)
        den, b = _split(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        num, den = num * b, den * a
        if num.is_zero:
            num, den = ZERO, ONE
        elif den != ONE:
            n, d = num.coeffs, den.coeffs
            if len(d) > 1:
                g = _poly_gcd(n, d)
                if len(g) > 1:
                    n, d = _pdiv(n, g), _pdiv(d, g)
            g = _intgcd(*n, *d) if d[-1] > 0 else -_intgcd(*n, *d)
            num = LaurentPoly([x // g for x in n], num.low - den.low)
            den = LaurentPoly([x // g for x in d])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RationalFunc is immutable")

    @staticmethod
    def const(c) -> "RationalFunc":
        return RationalFunc(c)

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
        # a constant equals its number, so it hashes as one
        if self.den == ONE:
            return hash(self.num)
        if len(self.den.coeffs) == 1 and self.num.low == 0 and len(self.num.coeffs) == 1:
            from fractions import Fraction
            return hash(Fraction(self.num.coeffs[0], self.den.coeffs[0]))
        return hash((self.num, self.den))

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

    def evaluate(self, q):
        """Exact value at t = q, an int or a Fraction: an int when it is integral,
        else a Fraction; PoleError at a root of den or at q = 0 against a
        negative power of t."""
        from fractions import Fraction
        x = Fraction(*_ratio(q))
        if not x and self.num.low < 0:
            raise PoleError(f"pole of {self} at t = 0")
        num, den = (sum(c * x ** k for k, c in f.terms()) for f in (self.num, self.den))
        if not den:
            raise PoleError(f"pole of {self} at t = {q}")
        v = Fraction(num, den)
        return v.numerator if v.denominator == 1 else v

    def __str__(self) -> str:
        if self.is_laurent:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _ratio(x) -> tuple[int, int]:
    """A number x, an int or a Fraction, as (numerator, denominator); anything else raises TypeError."""
    num, den = getattr(x, "numerator", None), getattr(x, "denominator", None)
    if not isinstance(num, int) or not isinstance(den, int):
        raise TypeError(f"{x!r} is not a rational number")
    return num, den


def _split(x) -> tuple[LaurentPoly, int]:
    """x as num / den, num a LaurentPoly over Z and den a positive int."""
    if isinstance(x, LaurentPoly):
        return x, 1
    num, den = _ratio(x)
    return LaurentPoly.const(num), den


def _coerce(x) -> "RationalFunc":
    if isinstance(x, RationalFunc):
        return x
    try:
        return RationalFunc(x)
    except TypeError:
        return NotImplemented
