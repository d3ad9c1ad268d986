from fractions import Fraction

import ast
import inspect
import pathlib
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chromaq.bridge as bridge
import chromaq.exactnum as exactnum
import chromaq.symfunc as symfunc
from chromaq.exactnum import (
    ONE,
    LaurentPoly,
    PoleError,
    RationalFunc,
    _pdiv,
    _poly_gcd,
    t_minus_one_power,
)
from chromaq.symfunc import SymFunc
from ratfunc_oracle import NonDivisibleError, ratfunc_to_const, ratfunc_to_laurent

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
    assert f.evaluate(2) == 2 + Fraction(3, 4)
    # at a Fraction q, through the rational functions
    assert RationalFunc(f).evaluate(Fraction(1, 2)) == 12 + Fraction(1, 2)


# -- ratfunc_to_laurent (the test oracle's tripwire) --------------------------

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
    assert type(ratfunc_to_const(LaurentPoly.const(6))) is int
    assert ratfunc_to_const(LaurentPoly()) == 0
    # t-terms that cancel leave a constant
    assert ratfunc_to_const((T + 2) - T) == 2


@pytest.mark.parametrize("r", [T, LaurentPoly.t(-1), T + 1, 2 - LaurentPoly.t(-3)])
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


@pytest.mark.parametrize("c", [0, 3, -2, Fraction(1, 2)])
def test_a_constant_hashes_as_the_number_it_equals(c):
    # a LaurentPoly holds an int constant only; a RationalFunc any rational one
    for x in ((LaurentPoly.const(c),) if type(c) is int else ()) + (RationalFunc.const(c),):
        assert x == c and hash(x) == hash(c)
        assert c in {x} and x in {c}
    assert hash(RationalFunc(T + 2)) == hash(T + 2)


def test_ratfunc_pulls_out_powers_of_t():
    r = RationalFunc(T ** 2, T ** 5 + T ** 3)
    # t^2/(t^5+t^3) = t^-1/(t^2+1)
    assert r.num == LaurentPoly.t(-1)
    assert r.den == T * T + 1


def test_ratfunc_denominator_is_primitive_with_a_positive_lead():
    # numerator and denominator over Z with gcd 1, content included
    r = RationalFunc(LaurentPoly.const(1), 2 * T + 2)
    assert (r.num, r.den) == (LaurentPoly.const(1), 2 * T + 2)
    r = RationalFunc(-2 * T, -4 * T - 6)
    assert (r.num, r.den) == (T, 2 * T + 3)
    r = RationalFunc(2 * T + 2, 4 * T + 4)
    assert (r.num, r.den) == (LaurentPoly.const(1), LaurentPoly.const(2))
    assert RationalFunc(1, -2) == RationalFunc(-1, 2) == Fraction(-1, 2)
    r = RationalFunc(T, 2 * T)
    assert (r.num, r.den) == (LaurentPoly.const(1), LaurentPoly.const(2)) and r == Fraction(1, 2)


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


# -- integer coefficients: a LaurentPoly holds ints, a RationalFunc the quotients -----

def test_integral_fraction_is_stored_as_int():
    # a Fraction is refused even when integral; a RationalFunc stores it over Z
    with pytest.raises(TypeError, match=r"^coefficient Fraction\(2, 1\) is not an int$"):
        LaurentPoly([Fraction(4, 2)])
    r = RationalFunc.const(Fraction(4, 2))
    assert r.den == ONE and type(r.num.coeffs[0]) is int
    assert r == LaurentPoly([2]) and hash(r) == hash(LaurentPoly([2]))
    assert all(type(c) is int for c in (T * T + 4 * T + 1).coeffs)


class _Int(int):
    pass


# each way a number enters a coefficient
_INTO_A_COEFFICIENT = {
    "constructor": lambda x: LaurentPoly([1, x]),
    "const": LaurentPoly.const,
    "from_terms": lambda x: LaurentPoly.from_terms({2: x}),
    "mul": lambda x: T * x,
    "rmul": lambda x: x * T,
    "add": lambda x: T + x,
    "radd": lambda x: x + T,
    "sub": lambda x: T - x,
    "rsub": lambda x: x - T,
    "SymFunc": lambda x: SymFunc(1, "M", {(1,): x}),
    "SymFunc.scale": lambda x: SymFunc(1, "M", {(1,): T}).scale(x),
}


@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(3, 1), 0.5, 2.0], ids=repr)
@pytest.mark.parametrize("way", list(_INTO_A_COEFFICIENT.values()), ids=list(_INTO_A_COEFFICIENT))
def test_each_way_into_a_coefficient_refuses_a_fraction_and_a_float(way, x):
    with pytest.raises(TypeError):
        way(x)


def test_an_int_subclass_is_read_as_an_int():
    for f in (LaurentPoly([_Int(2), True]), LaurentPoly.const(_Int(2)) + T, T * _Int(2) + True,
              LaurentPoly.from_terms({0: _Int(2), 1: 1})):
        assert all(type(c) is int for c in f.coeffs), f
    assert LaurentPoly.const(_Int(2)) == 2 and LaurentPoly([True]) == 1


def test_equality_with_a_number_that_is_not_an_int_is_not_implemented():
    assert LaurentPoly.const(2).__eq__(Fraction(2)) is NotImplemented
    assert LaurentPoly.const(2).__eq__(2.0) is NotImplemented
    assert LaurentPoly.const(2).__eq__(_Int(2)) is True
    # a RationalFunc compares with any rational number, and a LaurentPoly through it
    assert RationalFunc.const(2) == Fraction(2) and RationalFunc(T) == T and T == RationalFunc(T)


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


def test_negative_power_raises_without_naming_the_test_oracle():
    assert (T - 1) ** 0 == LaurentPoly.const(1)
    with pytest.raises(ValueError, match="negative power -1") as e:
        (T - 1) ** -1
    assert "RationalFunc" not in str(e.value)


def test_powers_of_t_minus_one_are_the_signed_binomial_rows():
    power = LaurentPoly.const(1)
    for k in range(13):
        assert t_minus_one_power(k) == power and t_minus_one_power(k) is t_minus_one_power(k)
        assert all(type(c) is int for c in t_minus_one_power(k).coeffs)
        power = power * (T - 1)
    with pytest.raises(ValueError, match="negative power -1"):
        t_minus_one_power(-1)


def test_ratfunc_integer_leading_coefficient_stays_exact():
    r = RationalFunc(LaurentPoly.const(1), 2 * T + 4)
    assert r.den == 2 * T + 4 and r.num == 1
    assert r == RationalFunc(Fraction(1, 2), T + 2)
    s = RationalFunc(2 * T + 2, 2 * T + 6)
    assert (s.num, s.den) == (T + 1, T + 3)
    assert all(type(c) is int for c in s.num.coeffs + s.den.coeffs)


def test_pdiv_is_exact_over_z():
    assert _pdiv((-1, 0, 1), (-1, 1)) == [1, 1]  # t^2 - 1 = (t + 1)(t - 1)
    assert _pdiv((2, 7, 6), (1, 2)) == [2, 3]    # 6t^2 + 7t + 2 = (3t + 2)(2t + 1)
    # t^2 + 1 = (t/2 - 1/4)(2t + 1) + 5/4: a quotient outside Z or a remainder raises
    with pytest.raises(ArithmeticError, match="does not divide"):
        _pdiv((1, 0, 1), (1, 2))
    with pytest.raises(ArithmeticError, match="does not divide"):
        _pdiv((2, 0, 2), (1, 1))
    with pytest.raises(ArithmeticError, match="does not divide"):
        _pdiv((3,), (1, 1))


def test_primitive_gcd_over_z():
    assert _poly_gcd((1, 2), (2, 4)) == (1, 2)
    assert _poly_gcd((-2, -4), (6, 12, 0, 0)) == (1, 2)
    assert _poly_gcd((1, 1), (1, 2)) == (1,)
    assert _poly_gcd((-4, 0, 4), (-6, 6)) == (-1, 1)  # the gcd t - 1, with no content
    r = RationalFunc(2 * T + 1, (2 * T + 1) * (T + 1))
    assert (r.num, r.den) == (LaurentPoly.const(1), T + 1)


# -- printing ---------------------------------------------------------------

@pytest.mark.parametrize("f,s", [
    (T * T + 4 * T + 1, "t^2+4*t+1"),
    (LaurentPoly(), "0"),
    (LaurentPoly.t(-1), "t^-1"),
    (-T + 1, "-t+1"),
    (RationalFunc(L({3: 1, 0: -4}), 2), "(t^3-4)/(2)"),
    (RationalFunc.const(Fraction(-3, 7)), "(-3)/(7)"),
    (RationalFunc(T + 1, 1 - T), "(-t-1)/(t-1)"),
])
def test_str_format(f, s):
    assert str(f) == s


# -- ring axioms on random inputs ---------------------------------------------

ints = st.integers(min_value=-30, max_value=30)


@st.composite
def laurents(draw):
    lo = draw(st.integers(min_value=-3, max_value=3))
    cs = draw(st.lists(ints, min_size=0, max_size=5))
    return LaurentPoly(cs, low=lo)


@st.composite
def ratfuncs(draw):
    num = draw(laurents())
    den = draw(laurents().filter(lambda f: not f.is_zero))
    return RationalFunc(num, den)


@settings(max_examples=100, deadline=None)
@given(laurents(), laurents().filter(lambda f: not f.is_zero), st.integers(min_value=1, max_value=12))
def test_ratfunc_canonical_form_over_z(num, den, k):
    # den in Z[t] with a nonzero constant term and a positive lead, gcd 1 over Z
    # with num, content included; the same function written another way is stored the same
    r = RationalFunc(num, den)
    n, d = r.num.coeffs, r.den.coeffs
    assert r.den.low == 0 and d[0] != 0 and d[-1] > 0
    assert all(type(c) is int for c in n + d)
    if n:
        assert gcd(*n, *d) == 1 and _poly_gcd(n, d) == (1,)
    else:
        assert r.den == ONE
    s = RationalFunc(num * k * (T - 3), den * (-k) * (3 - T))
    assert (s.num, s.den) == (r.num, r.den) and hash(s) == hash(r)
    assert RationalFunc(num, Fraction(1, k)) * RationalFunc(1, den * k) == r


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
    # a LaurentPoly at an int q, and through RationalFunc at a Fraction q
    assume(q or (a.low >= 0 and b.low >= 0))
    ev = (lambda f: f.evaluate(q)) if type(q) is int else (lambda f: RationalFunc(f).evaluate(q))
    assert ev(a * b) == ev(a) * ev(b)
    assert ev(a + b) == ev(a) + ev(b)


@settings(max_examples=40, deadline=None)
@given(ratfuncs())
def test_ratfunc_eq_by_cross_multiplication(r):
    s = RationalFunc(r.num * (T ** 2 + 1), r.den * (T ** 2 + 1))
    assert r == s
    assert (r.num, r.den) == (s.num, s.den)
    assert hash(r) == hash(s)


# -- the canonical form of every ring operation, against the constructor --------

def _terms(f):
    return {f.low + i: c for i, c in enumerate(f.coeffs)}


def _ref_add(a, b, sign=1):
    out = _terms(a)
    for k, c in _terms(b).items():
        out[k] = out.get(k, 0) + sign * c
    return LaurentPoly.from_terms(out)


def _ref_mul(a, b):
    out = {}
    for i, x in _terms(a).items():
        for j, y in _terms(b).items():
            out[i + j] = out.get(i + j, 0) + x * y
    return LaurentPoly.from_terms(out)


def assert_canonical(r):
    """r is stored exactly as the normalising constructor would store it."""
    oracle = LaurentPoly(list(r.coeffs), r.low)
    assert (r.low, r.coeffs) == (oracle.low, oracle.coeffs)
    assert [type(c) for c in r.coeffs] == [type(c) for c in oracle.coeffs]
    assert hash(r) == hash(oracle)
    assert not r.coeffs or (r.coeffs[0] != 0 and r.coeffs[-1] != 0)
    assert r.coeffs or r.low == 0
    assert all(type(c) is int for c in r.coeffs)


@settings(max_examples=150, deadline=None)
@given(laurents(), laurents(), ints, st.integers(min_value=-4, max_value=4),
       st.integers(min_value=0, max_value=3))
def test_ring_operations_build_canonical_results(a, b, c, k, n):
    const = LaurentPoly.const(c)
    power = LaurentPoly.const(1)
    for _ in range(n):
        power = _ref_mul(power, a)
    cases = [
        (a + b, _ref_add(a, b)),
        (a - b, _ref_add(a, b, -1)),
        (a + c, _ref_add(a, const)),
        (c - a, _ref_add(const, a, -1)),
        (-a, _ref_add(LaurentPoly(), a, -1)),
        (a * b, _ref_mul(a, b)),
        (a * k, _ref_mul(a, LaurentPoly.const(k))),
        (k * a, _ref_mul(a, LaurentPoly.const(k))),
        (a * c, _ref_mul(a, const)),
        (const * a, _ref_mul(const, a)),
        (a * LaurentPoly.t(k), _ref_mul(a, LaurentPoly.t(k))),
        (a.shift(k), _ref_mul(a, LaurentPoly.t(k))),
        (a.subs_inv(), LaurentPoly.from_terms({-e: x for e, x in _terms(a).items()})),
        (a ** n, power),
    ]
    for r, want in cases:
        assert_canonical(r)
        assert r == want and hash(r) == hash(want)


def _q(cs, den=1, low=0):
    """sum_i cs[i] t^(low + i) / den as a RationalFunc."""
    return RationalFunc(LaurentPoly(cs, low), den)


@pytest.mark.parametrize("r, want", [
    (_q([1], 2) * 2, _q([1])),
    (2 * _q([1, 3], 2, low=-1), _q([1, 3], low=-1)),
    (_q([2], 3) * _q([3], 2), _q([1])),
    (_q([2, 3], 3) * Fraction(3, 2), _q([2, 3], 2)),
    (_q([2, 1], 3) * _q([3, 3], 2), _q([2, 3, 1], 2)),
    (_q([1, 2], 2) + _q([1, -2], 2), _q([1])),
    (_q([3, 1], 3) - Fraction(1, 3) * RationalFunc(T), _q([1])),
])
def test_integral_fraction_results_are_stored_as_int(r, want):
    # the ring operations over Q, now a RationalFunc's: an integral result keeps den 1
    assert_canonical(r.num)
    assert (r.num.low, r.num.coeffs, r.den) == (want.num.low, want.num.coeffs, want.den)


def test_cancelling_ends_and_zero_results_are_canonical():
    for r in (T - T, (T + 1) - (T + 1), (T ** 2 + T) - T ** 2, T * 0, LaurentPoly.t(-2) * False,
              LaurentPoly() * T, LaurentPoly().shift(3), (T - 1) ** 0 - 1):
        assert_canonical(r)
    assert ((T ** 2 + T) - T ** 2) == T


def test_numbers_compare_and_hash_as_constants():
    assert T - T == 0 and LaurentPoly.const(3) == 3 and LaurentPoly.const(3) != 3 * T
    assert RationalFunc.const(Fraction(1, 2)) == Fraction(1, 2) and LaurentPoly.t(0) == 1
    assert RationalFunc.const(Fraction(4, 2)) == 2 and T != 1 and LaurentPoly() != 1
    with pytest.raises(TypeError):
        LaurentPoly.const(0.5)
    with pytest.raises(TypeError):
        T + 0.5
    with pytest.raises(TypeError):
        T * 0.5


def test_mul_and_rmul_are_one_function():
    # the benchmark's tracer counts products by wrapping this one function
    assert "__mul__" in LaurentPoly.__dict__
    assert LaurentPoly.__dict__["__mul__"] is LaurentPoly.__dict__["__rmul__"]


def _tracer_counters():
    """perfbench/tracer.py's EXACTNUM_COUNTERS, read from its source."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["EXACTNUM_COUNTERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no EXACTNUM_COUNTERS")


def test_the_methods_the_tracer_counts_are_plain_functions_in_their_class():
    # `perfbench/run.py --trace 1` wraps each (class, method) of EXACTNUM_COUNTERS through
    # its class __dict__, and every name that shares the function, as __rmul__ does __mul__
    counters = _tracer_counters()
    assert [(c, m) for c, m, _ in counters] == [
        ("RationalFunc", "__init__"), ("RationalFunc", "__eq__"), ("LaurentPoly", "__mul__")]
    for cls_name, meth, _ in counters:
        fn = vars(getattr(exactnum, cls_name))[meth]
        assert inspect.isfunction(fn) and fn.__qualname__ == f"{cls_name}.{meth}", (cls_name, meth)
    assert vars(LaurentPoly)["__rmul__"] is vars(LaurentPoly)["__mul__"]


def test_one_object_per_constant():
    assert symfunc.ZERO is exactnum.ZERO and symfunc.ONE is exactnum.ONE
    assert symfunc._T is exactnum.T and bridge.ZERO is exactnum.ZERO
    # every LaurentPoly a module of the package holds is one of exactnum's three
    import chromaq.chromallt as chromallt
    import chromaq.fqoracle as fqoracle
    for mod in (bridge, chromallt, fqoracle, symfunc):
        for name, obj in vars(mod).items():
            if type(obj) is LaurentPoly:
                assert any(obj is c for c in (exactnum.ZERO, exactnum.ONE, exactnum.T)), name
    assert exactnum.ZERO == LaurentPoly() and exactnum.ONE == 1 and exactnum.T == LaurentPoly([1], 1)


# -- evaluate returns a canonical coefficient ------------------------------------

@pytest.mark.parametrize("f, q, want", [
    (T * T + 4 * T + 1, 2, 13),                        # Z[t], int q: int arithmetic
    (LaurentPoly([3, 0, 1], low=2), -3, 3 * 9 + 81),   # Z[t] with low > 0
    (LaurentPoly.const(5), 0, 5),
    (LaurentPoly(), 7, 0),
    (T - 1, 1, 0),
    (T * T + 1, Fraction(1, 2), Fraction(5, 4)),       # Fraction q
    (L({-2: 3, 1: 1}), 2, 2 + Fraction(3, 4)),         # negative exponents
    (RationalFunc(T * 2 + 1, 2), 3, 3 + Fraction(1, 2)),  # a constant denominator
    (4 * T * T, Fraction(1, 2), 1),                    # Fraction q, integral value
    (L({-2: 4, 0: 1}), 2, 2),                          # negative exponents, integral value
    (RationalFunc(T + 1, 2), 3, 2),                    # a constant denominator, integral value
])
def test_evaluate_always_returns_a_fraction(f, q, want):
    # an exact fraction in canonical form: an int exactly when the value is
    # integral, else a Fraction; a LaurentPoly at an int q, a RationalFunc at an
    # int or a Fraction q
    r = f if isinstance(f, RationalFunc) else RationalFunc(f)
    values = [r.evaluate(q), r.evaluate(Fraction(q))]
    if type(q) is int and r.is_laurent:
        values.append(f.evaluate(q))
    elif not isinstance(f, RationalFunc):
        with pytest.raises(TypeError, match="is not an int"):
            f.evaluate(q)
    for v in values:
        assert v == want and type(v) is (int if Fraction(want).denominator == 1 else Fraction)
    # the quotient of RationalFunc.evaluate stays exact
    v = (r / (T + 1)).evaluate(q)
    assert v == Fraction(want) / (q + 1)
    assert type(v) is (int if Fraction(v).denominator == 1 else Fraction)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), max_size=6),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-5, max_value=5))
def test_int_evaluation_matches_the_fraction_path(cs, low, q):
    f = LaurentPoly(cs, low=low)
    assume(q or f.low >= 0)
    v = f.evaluate(q)
    want = sum(Fraction(c) * Fraction(q) ** k for k, c in f.terms())
    assert v == RationalFunc(f).evaluate(Fraction(q)) == want
    assert type(v) is (int if want.denominator == 1 else Fraction)


def test_src_divides_with_a_slash_only_in_rtruediv():
    # every other quotient is exact: a divmod over Z, or a Fraction built from two numbers
    def divisions(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Div):
                yield ".".join(scope)
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            yield from divisions(child, scope + (child.name,) if named else scope)

    found = [f"{path.name}:{where}"
             for path in sorted(pathlib.Path(exactnum.__file__).parent.glob("*.py"))
             for where in divisions(ast.parse(path.read_text(), filename=str(path)), ())]
    assert found == ["exactnum.py:RationalFunc.__rtruediv__"]
