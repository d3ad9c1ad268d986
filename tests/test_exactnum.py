from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaq.exactnum import (
    LaurentPoly,
    NonDivisibleError,
    PoleError,
    RationalFunc,
    _pdivmod,
    _poly_gcd,
    ratfunc_to_const,
    ratfunc_to_laurent,
)

T = LaurentPoly.t()


def L(terms):
    return LaurentPoly.from_terms(terms)


# -- LaurentPoly.evaluate ----------------------------------------------------

def test_eval_quadratic():
    f = T * T + 4 * T + 1
    assert f.evaluate(2) == 13


def test_eval_constant():
    assert LaurentPoly.const(1).evaluate(7) == 1


def test_eval_pole_at_zero():
    with pytest.raises(PoleError):
        LaurentPoly.t(-1).evaluate(0)


def test_eval_negative_exponents():
    f = L({-2: 3, 1: 1})  # 3t^-2 + t
    assert f.evaluate(Fraction(1, 2)) == 12 + Fraction(1, 2)


# -- ratfunc_to_laurent ------------------------------------------------------

def test_exact_division():
    r = RationalFunc(T * T - 1, T - 1)
    assert ratfunc_to_laurent(r) == T + 1


def test_monomial_division():
    r = RationalFunc(T ** 3 - T, T)
    assert ratfunc_to_laurent(r) == T * T - 1


def test_non_divisible_names_remainder():
    r = RationalFunc(T + 1, T - 1)
    with pytest.raises(NonDivisibleError) as e:
        ratfunc_to_laurent(r)
    assert "remainder" in str(e.value)


# -- ratfunc_to_const --------------------------------------------------------

def test_ratfunc_to_const_returns_canonical_numbers():
    assert type(ratfunc_to_const(RationalFunc.const(Fraction(6, 3)))) is int
    assert ratfunc_to_const(RationalFunc.const(Fraction(-3, 4))) == Fraction(-3, 4)
    assert ratfunc_to_const(RationalFunc.const(0)) == 0
    # a quotient that cancels to a constant is a constant
    assert ratfunc_to_const(RationalFunc(2 * T - 2, T - 1)) == 2


@pytest.mark.parametrize("r", [RationalFunc(T), RationalFunc(LaurentPoly.t(-1)),
                               RationalFunc(T + 1), RationalFunc(LaurentPoly.const(1), T + 1)])
def test_ratfunc_to_const_raises_on_t(r):
    with pytest.raises(ArithmeticError, match="not a constant"):
        ratfunc_to_const(r)


# -- canonical forms ---------------------------------------------------------

def test_zero_is_empty():
    z = T - T
    assert z.is_zero and z.low == 0 and z.coeffs == ()


def test_ratfunc_reduction_is_canonical():
    a = RationalFunc((T - 1) * (T + 2), (T - 1) * (T + 3))
    b = RationalFunc(T + 2, T + 3)
    assert a == b
    assert (a.num, a.den) == (b.num, b.den)
    assert hash(a) == hash(b)


def test_ratfunc_pulls_out_powers_of_t():
    r = RationalFunc(T ** 2, T ** 5 + T ** 3)
    # t^2/(t^5+t^3) = t^-1/(t^2+1)
    assert r.num == LaurentPoly.t(-1)
    assert r.den == T * T + 1


def test_ratfunc_monic_denominator():
    r = RationalFunc(LaurentPoly.const(1), 2 * T + 2)
    assert r.den == T + 1
    assert r.num == LaurentPoly.const(Fraction(1, 2))


def test_ratfunc_pole():
    r = RationalFunc(LaurentPoly.const(1), T - 2)
    assert r.evaluate(3) == 1
    with pytest.raises(PoleError):
        r.evaluate(2)


def test_subs_inv():
    f = L({2: 1, 0: 5, -1: 3})
    assert f.subs_inv() == L({-2: 1, 0: 5, 1: 3})
    r = RationalFunc(T - 1, T + 1)
    # (1/t - 1)/(1/t + 1) = (1-t)/(1+t)
    assert r.subs_inv() == RationalFunc(1 - T, 1 + T)


# -- integer coefficients: int when integral, Fraction only for quotients -----

def test_integral_fraction_is_stored_as_int():
    f = LaurentPoly([Fraction(4, 2)])
    assert type(f.coeffs[0]) is int
    assert f == LaurentPoly([2]) and hash(f) == hash(LaurentPoly([2]))
    assert all(type(c) is int for c in (T * T + 4 * T + 1).coeffs)


@pytest.mark.parametrize("make", [
    lambda: LaurentPoly([1, 0.5]),
    lambda: LaurentPoly.from_terms({2: 2.0}),
    lambda: RationalFunc.const(1.5),
    lambda: T.evaluate(0.5),
])
def test_float_coefficient_raises(make):
    with pytest.raises(TypeError):
        make()


def test_evaluate_int_q_negative_exponent_is_exact():
    v = L({-2: 3, 1: 1}).evaluate(2)
    assert type(v) is Fraction and v == 2 + Fraction(3, 4)
    assert LaurentPoly.t(-60).evaluate(2) == Fraction(1, 2 ** 60)


def test_ratfunc_integer_leading_coefficient_stays_exact():
    r = RationalFunc(LaurentPoly.const(1), 2 * T + 4)
    assert r.den == T + 2 and r.num == LaurentPoly.const(Fraction(1, 2))
    s = RationalFunc(2 * T + 2, 2 * T + 6)
    assert (s.num, s.den) == (T + 1, T + 3)
    assert all(type(c) is int for c in s.num.coeffs + s.den.coeffs)


def test_pdivmod_int_divisor_stays_exact():
    quo, rem = _pdivmod([1, 0, 1], [1, 2])  # t^2 + 1 = (t/2 - 1/4)(2t + 1) + 5/4
    assert quo == [Fraction(-1, 4), Fraction(1, 2)] and rem == [Fraction(5, 4)]
    quo, rem = _pdivmod([-1, 0, 1], [-1, 1])  # a monic divisor keeps ints
    assert quo == [1, 1] and rem == [] and all(type(c) is int for c in quo)


def test_monic_gcd_with_fraction_coefficients():
    assert _poly_gcd((1, 2), (2, 4)) == (Fraction(1, 2), 1)
    r = RationalFunc(2 * T + 1, (2 * T + 1) * (T + 1))
    assert (r.num, r.den) == (LaurentPoly.const(1), T + 1)


# -- printing ---------------------------------------------------------------

@pytest.mark.parametrize("f,s", [
    (T * T + 4 * T + 1, "t^2+4*t+1"),
    (LaurentPoly(), "0"),
    (LaurentPoly.t(-1), "t^-1"),
    (-T + 1, "-t+1"),
    (L({3: Fraction(1, 2), 0: -2}), "1/2*t^3-2"),
    (LaurentPoly.const(Fraction(-3, 7)), "-3/7"),
])
def test_str_format(f, s):
    assert str(f) == s


# -- ring axioms on random inputs ---------------------------------------------

fracs = st.fractions(min_value=-30, max_value=30, max_denominator=7)


@st.composite
def laurents(draw):
    lo = draw(st.integers(min_value=-3, max_value=3))
    cs = draw(st.lists(fracs, min_size=0, max_size=5))
    return LaurentPoly(cs, low=lo)


@st.composite
def ratfuncs(draw):
    num = draw(laurents())
    den = draw(laurents().filter(lambda f: not f.is_zero))
    return RationalFunc(num, den)


@settings(max_examples=60, deadline=None)
@given(laurents(), laurents(), laurents())
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ratfunc_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(laurents(), laurents(), st.sampled_from([2, 3, Fraction(1, 2), -1, 5]))
def test_eval_is_ring_hom(a, b, q):
    assert (a * b).evaluate(q) == a.evaluate(q) * b.evaluate(q)
    assert (a + b).evaluate(q) == a.evaluate(q) + b.evaluate(q)


@settings(max_examples=40, deadline=None)
@given(ratfuncs())
def test_ratfunc_eq_by_cross_multiplication(r):
    s = RationalFunc(r.num * (T ** 2 + 1), r.den * (T ** 2 + 1))
    assert r == s
    assert (r.num, r.den) == (s.num, s.den)
    assert hash(r) == hash(s)
