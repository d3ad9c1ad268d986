import itertools
from fractions import Fraction

import pytest

from chromaq.combinatorics import gen_partitions, transpose
from chromaq.exactnum import LaurentPoly, PoleError, RationalFunc, ratfunc_to_laurent
from chromaq.guards import SizeGuardError
from chromaq.symfunc import (
    BASES,
    SymFunc,
    SymPoly,
    basis_element,
    check_symmetric,
    eval_t,
    expand_in_basis,
    omega,
    plethysm_frac,
    symfunc_to_sympoly,
    _from_monomials,
)

T = LaurentPoly.t()
RF = RationalFunc.const


def brute_monomial_coords(poly_fn, degree, nvars):
    """Independent oracle: evaluate a function of x-variables monomial by monomial.

    poly_fn(exponents) returns the coefficient of x^exponents; we read off the
    coefficients at sorted exponent vectors.
    """
    out = {}
    for mu in gen_partitions(degree):
        if len(mu) <= nvars:
            c = poly_fn(mu + (0,) * (nvars - len(mu)))
            if c:
                out[mu] = RF(c)
    return out


def schur_by_ssyt(lam, nvars):
    """Brute-force Schur polynomial via semistandard tableaux enumeration."""
    if not lam:
        return {(): 1}
    rows = len(lam)
    cells = [(r, c) for r in range(rows) for c in range(lam[r])]

    counts = {}

    def fill(i, tab):
        if i == len(cells):
            key = [0] * nvars
            for v in tab.values():
                key[v - 1] += 1
            k = tuple(key)
            counts[k] = counts.get(k, 0) + 1
            return
        r, c = cells[i]
        lo = 1
        if c > 0:
            lo = max(lo, tab[(r, c - 1)])      # weakly increasing along rows
        if r > 0:
            lo = max(lo, tab[(r - 1, c)] + 1)  # strictly increasing down columns
        for v in range(lo, nvars + 1):
            tab[(r, c)] = v
            fill(i + 1, tab)
        tab.pop((r, c), None)

    fill(0, {})
    out = {}
    for e, n in counts.items():
        key = tuple(x for x in sorted(e, reverse=True) if x)
        if key + (0,) * (nvars - len(key)) == e:  # one representative per orbit
            out[key] = n
    return out


# -- basis elements ------------------------------------------------------------

def test_e_k_is_monomial_of_ones():
    for k in range(1, 5):
        el = basis_element("E", (k,), k)
        assert el.coeffs == {tuple([1] * k): RationalFunc.const(1)}


def test_hlp_column_is_elementary():
    for n in range(1, 7):
        lam = tuple([1] * n)
        assert basis_element("HLP", lam, n) == basis_element("E", (n,), n)


def test_schur_21_monomials():
    el = basis_element("S", (2, 1), 3)
    assert el.coeffs == {(2, 1): RF(1), (1, 1, 1): RF(2)}


def test_schur_matches_ssyt_oracle():
    for n in range(6):
        for lam in gen_partitions(n):
            want = schur_by_ssyt(lam, n)
            want = {mu: RF(c) for mu, c in want.items() if c}
            got = basis_element("S", lam, max(n, 1) if n else 1).coeffs
            if n == 0:
                got = basis_element("S", lam, 1).coeffs
            assert got == want, lam


def test_unknown_basis():
    with pytest.raises(ValueError):
        basis_element("Q", (1,), 1)


def test_nvars_guard():
    with pytest.raises(SizeGuardError):
        basis_element("M", (9,), 9)
    with pytest.raises(SizeGuardError):
        basis_element("M", (3,), 2)


# -- Hall-Littlewood anchors -----------------------------------------------------

def test_hl_specializes_to_schur_at_zero():
    for n in range(6):
        for lam in gen_partitions(n):
            hl = basis_element("HLP", lam, max(n, 1)).eval_t(0)
            s = basis_element("S", lam, max(n, 1))
            assert hl == s, lam


def test_hl_specializes_to_monomial_at_one():
    for n in range(6):
        for lam in gen_partitions(n):
            hl = basis_element("HLP", lam, max(n, 1)).eval_t(1)
            m = basis_element("M", lam, max(n, 1))
            assert hl == m, lam


def test_hl_two_row():
    # classical: P_(2) = m_2 + (1-t) m_11
    el = basis_element("HLP", (2,), 2)
    assert el.coeff((2,)) == RationalFunc(LaurentPoly.const(1))
    assert el.coeff((1, 1)) == RationalFunc(1 - T)


def test_pt_relation():
    # PT_lam = t^{-n(lam)} * (HLP_lam with t -> 1/t), coefficientwise
    from chromaq.combinatorics import nstat
    for n in range(6):
        for lam in gen_partitions(n):
            pt = basis_element("PT", lam, max(n, 1))
            hl = basis_element("HLP", lam, max(n, 1))
            shift = RationalFunc(LaurentPoly.t(-nstat(lam)))
            twisted = hl.map_coeffs(lambda c: c.subs_inv() * shift)
            assert pt == twisted, lam


def test_pt_coeffs_are_laurent():
    for lam in gen_partitions(5):
        for c in basis_element("PT", lam, 5).coeffs.values():
            assert c.is_laurent


# -- expansion round trips ---------------------------------------------------------

def test_roundtrip_all_bases():
    for n in range(6):
        for basis in BASES:
            for lam in gen_partitions(n):
                el = basis_element(basis, lam, max(n, 1))
                expanded = expand_in_basis(el, basis)
                assert expanded.coeffs == {lam: RF(1)}, (basis, lam)


def test_schur_in_e_basis():
    got = expand_in_basis(basis_element("S", (2, 1), 3), "E")
    assert got.coeffs == {(2, 1): RF(1), (3,): RF(-1)}


def test_p2_in_monomials():
    got = expand_in_basis(basis_element("P", (2,), 2), "M")
    assert got.coeffs == {(2,): RF(1)}


def test_expand_builds_each_change_of_basis_once():
    f = basis_element("H", (2, 1), 3).scale(RationalFunc(T + 1))
    expand_in_basis(f, "S")
    before = _from_monomials.cache_info()
    for _ in range(3):
        assert expand_in_basis(f, "S") == expand_in_basis(f, "S")
    after = _from_monomials.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 6


def test_symfunc_to_sympoly_roundtrip():
    F = SymFunc(3, "S", {(2, 1): RF(2), (1, 1, 1): RF(-1)})
    back = expand_in_basis(symfunc_to_sympoly(F), "S")
    assert back == F


# -- check_symmetric ------------------------------------------------------------

def test_check_symmetric_true():
    full = {(2, 1): RF(1), (1, 2): RF(1)}
    assert check_symmetric(full, 2)


def test_check_symmetric_false():
    assert not check_symmetric({(2, 1): RF(1)}, 2)
    assert not check_symmetric({(2, 1): RF(1), (1, 2): RF(2)}, 2)


# -- omega ------------------------------------------------------------------------

def test_omega_selfconjugate():
    F = SymFunc(3, "S", {(2, 1): RF(1)})
    assert omega(F) == F


def test_omega_e_to_h():
    for n in range(1, 6):
        F = SymFunc(n, "E", {(n,): RF(1)})
        w = omega(F)
        assert w.basis == "H" and w.coeffs == {(n,): RF(1)}
    # cross-check omega(e_lam) = h_lam through the p-basis sign rule
    for n in range(1, 6):
        for lam in gen_partitions(n):
            e_in_p = expand_in_basis(basis_element("E", lam, n), "P")
            h = symfunc_to_sympoly(omega(e_in_p))
            assert h == basis_element("H", lam, n), lam


def test_omega_involution_on_schur():
    for n in range(6):
        for lam in gen_partitions(n):
            F = SymFunc(n, "S", {lam: RF(1)})
            assert omega(omega(F)) == F
            assert omega(F).coeffs == {transpose(lam): RF(1)}


def test_omega_unsupported_basis():
    with pytest.raises(ValueError):
        omega(SymFunc(2, "M", {(2,): RF(1)}))


# -- plethysm ------------------------------------------------------------------------

def test_plethysm_p1():
    F = SymFunc(1, "P", {(1,): RF(1)})
    out = plethysm_frac(F)
    assert out.coeffs == {(1,): RationalFunc(LaurentPoly.const(1), T - 1)}


def test_plethysm_scaled_en_is_laurent():
    # (t-1)^n [n]_t! e_n[x/(t-1)] has Laurent coefficients (it is a unicellular
    # LLT polynomial of the complete graph); e_n alone does not clear.
    for n in range(1, 6):
        tfact = LaurentPoly.const(1)
        for i in range(1, n + 1):
            tfact = tfact * LaurentPoly([1] * i)  # 1 + t + ... + t^{i-1}
        F = expand_in_basis(basis_element("E", (n,), n).scale(RationalFunc(tfact)), "P")
        out = plethysm_frac(F).scale(RationalFunc((T - 1) ** n))
        poly = symfunc_to_sympoly(out)
        for c in poly.coeffs.values():
            ratfunc_to_laurent(c)  # raises if not Laurent


def test_plethysm_requires_p_basis():
    with pytest.raises(ValueError):
        plethysm_frac(SymFunc(1, "M", {(1,): RF(1)}))


# -- eval_t ---------------------------------------------------------------------

def test_eval_t_constant_unchanged():
    F = SymFunc(2, "M", {(2,): RF(5)})
    assert eval_t(F, 3) == F


def test_eval_t_pole():
    F = SymFunc(1, "M", {(1,): RationalFunc(LaurentPoly.const(1), T - 2)})
    with pytest.raises(PoleError):
        eval_t(F, 2)


def test_eval_t_specializes():
    F = SymFunc(1, "M", {(1,): RationalFunc(T ** 2 + 4 * T + 1)})
    assert eval_t(F, 2).coeffs == {(1,): RF(13)}
