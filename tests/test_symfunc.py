import itertools
from fractions import Fraction

import pytest

from chromaq.combinatorics import gen_partitions, transpose, zlam
from chromaq.exactnum import LaurentPoly, PoleError, RationalFunc, ratfunc_to_laurent
from chromaq.guards import SizeGuardError
from chromaq.symfunc import (
    BASES,
    SymFunc,
    basis_element,
    check_symmetric,
    eval_t,
    expand_in_basis,
    omega,
    plethysm_frac,
    _from_monomials,
    _hall_littlewood_coords,
    _omega_m,
)

T = LaurentPoly.t()
RF = RationalFunc.const


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
        el = basis_element("E", (k,))
        assert el.coeffs == {tuple([1] * k): RationalFunc.const(1)}


def test_hlp_column_is_elementary():
    for n in range(1, 8):
        lam = tuple([1] * n)
        assert basis_element("HLP", lam) == basis_element("E", (n,))


def test_schur_21_monomials():
    el = basis_element("S", (2, 1))
    assert el.coeffs == {(2, 1): RF(1), (1, 1, 1): RF(2)}


def test_schur_matches_ssyt_oracle():
    for n in range(6):
        for lam in gen_partitions(n):
            want = schur_by_ssyt(lam, n)
            want = {mu: RF(c) for mu, c in want.items() if c}
            assert basis_element("S", lam).coeffs == want, lam


def test_unknown_basis():
    with pytest.raises(ValueError):
        basis_element("Q", (1,))


def test_nvars_guard():
    with pytest.raises(SizeGuardError):
        basis_element("M", (9,))
    with pytest.raises(SizeGuardError):
        expand_in_basis(SymFunc(9, "M", {(9,): RF(1)}), "S")


# -- Hall-Littlewood anchors -----------------------------------------------------

def test_hl_specializes_to_schur_at_zero():
    for n in range(8):
        for lam in gen_partitions(n):
            hl = eval_t(basis_element("HLP", lam), 0)
            s = basis_element("S", lam)
            assert hl == s, lam


def test_hl_specializes_to_monomial_at_one():
    for n in range(8):
        for lam in gen_partitions(n):
            hl = eval_t(basis_element("HLP", lam), 1)
            m = basis_element("M", lam)
            assert hl == m, lam


def gram_schmidt_hl(d):
    """Independent oracle: Hall-Littlewood P by Gram-Schmidt over Q(t).

    Orthogonalizes the m_lam from the bottom of dominance order upward against
    the t-deformed power-sum inner product
    <p_lam, p_mu> = delta * z_lam * prod_i (1 - t^{lam_i})^{-1}.
    """
    parts = gen_partitions(d)
    weight = {}
    for nu in parts:
        den = LaurentPoly.const(1)
        for k in nu:
            den = den * (1 - T ** k)
        weight[nu] = RationalFunc(LaurentPoly.const(zlam(nu)), den)

    def inner(u, v):
        acc = RF(0)
        for nu, uc in u.items():
            if nu in v:
                acc = acc + uc * v[nu] * weight[nu]
        return acc

    done = []
    out = {}
    for lam in reversed(parts):
        v = dict(expand_in_basis(basis_element("M", lam), "P").coeffs)
        for w, nw in done:
            c = inner(v, w) / nw
            for nu, wc in w.items():
                v[nu] = v.get(nu, RF(0)) - c * wc
        v = {nu: c for nu, c in v.items() if not c.is_zero}
        done.append((v, inner(v, v)))
        out[lam] = expand_in_basis(SymFunc(d, "P", v), "M").coeffs
    return out


def test_hl_tableau_build_matches_gram_schmidt():
    for d in range(7):
        assert _hall_littlewood_coords(d) == gram_schmidt_hl(d), d


def test_hl_coefficients_are_integer_polynomials():
    for d in range(8):
        for lam, coords in _hall_littlewood_coords(d).items():
            for mu, c in coords.items():
                assert c.den == LaurentPoly.const(1), (lam, mu)
                assert c.num.low >= 0, (lam, mu)
                assert all(x.denominator == 1 for x in c.num.coeffs), (lam, mu)


def test_hl_two_row():
    # classical: P_(2) = m_2 + (1-t) m_11
    el = basis_element("HLP", (2,))
    assert el.coeff((2,)) == RationalFunc(LaurentPoly.const(1))
    assert el.coeff((1, 1)) == RationalFunc(1 - T)


def test_pt_relation():
    # PT_lam = t^{-n(lam)} * (HLP_lam with t -> 1/t), coefficientwise
    from chromaq.combinatorics import nstat
    for n in range(6):
        for lam in gen_partitions(n):
            pt = basis_element("PT", lam)
            hl = basis_element("HLP", lam)
            shift = RationalFunc(LaurentPoly.t(-nstat(lam)))
            twisted = hl.map_coeffs(lambda c: c.subs_inv() * shift)
            assert pt == twisted, lam


def test_pt_coeffs_are_laurent():
    for lam in gen_partitions(5):
        for c in basis_element("PT", lam).coeffs.values():
            assert c.is_laurent


# -- expansion round trips ---------------------------------------------------------

def test_roundtrip_all_bases():
    for n in range(6):
        for basis in BASES:
            for lam in gen_partitions(n):
                el = basis_element(basis, lam)
                expanded = expand_in_basis(el, basis)
                assert expanded.coeffs == {lam: RF(1)}, (basis, lam)


def test_schur_in_e_basis():
    got = expand_in_basis(basis_element("S", (2, 1)), "E")
    assert got.coeffs == {(2, 1): RF(1), (3,): RF(-1)}


def test_p2_in_monomials():
    got = expand_in_basis(basis_element("P", (2,)), "M")
    assert got.coeffs == {(2,): RF(1)}


def test_expand_builds_each_change_of_basis_once():
    f = basis_element("H", (2, 1)).scale(RationalFunc(T + 1))
    expand_in_basis(f, "S")
    before = _from_monomials.cache_info()
    for _ in range(3):
        assert expand_in_basis(f, "S") == expand_in_basis(f, "S")
    after = _from_monomials.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 6


def test_expand_in_basis_roundtrip_through_m():
    # every basis b: m_lam -> b -> M is the identity, for every lam with d <= 5
    for d in range(6):
        for lam in gen_partitions(d):
            F = basis_element("M", lam)
            for b in BASES:
                assert expand_in_basis(expand_in_basis(F, b), "M") == F, (b, lam)
    F = SymFunc(3, "S", {(2, 1): RF(2), (1, 1, 1): RF(-1)})
    assert expand_in_basis(expand_in_basis(F, "M"), "S") == F


def test_expand_in_basis_same_basis_is_identity():
    F = SymFunc(3, "HLP", {(2, 1): RationalFunc(T + 1)})
    assert expand_in_basis(F, "HLP") is F


# -- the SymFunc type -------------------------------------------------------------

@pytest.mark.parametrize("degree, key", [
    (3, (1, 2)),
    (3, (2,)),
    (2, (2, 0)),
    (2, (3, -1)),
])
def test_symfunc_rejects_non_partition_key(degree, key):
    with pytest.raises(ValueError, match="is not a partition of"):
        SymFunc(degree, "M", {key: RF(1)})


def test_symfunc_drops_zero_coefficients():
    F = SymFunc(2, "M", {(2,): RF(3), (1, 1): RF(0)})
    assert F.coeffs == {(2,): RF(3)}
    assert str(F.scale(RationalFunc(T))) == "(3*t)*m[2]"
    zero = F.scale(0)
    assert zero.is_zero and str(zero) == "0"


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
            e_in_p = expand_in_basis(basis_element("E", lam), "P")
            h = expand_in_basis(omega(e_in_p), "M")
            assert h == basis_element("H", lam), lam


def test_omega_involution_on_schur():
    for n in range(6):
        for lam in gen_partitions(n):
            F = SymFunc(n, "S", {lam: RF(1)})
            assert omega(omega(F)) == F
            assert omega(F).coeffs == {transpose(lam): RF(1)}


def test_omega_monomial_basis_involution_en_to_hn():
    # omega on an M-basis SymFunc goes through p and back to M
    for n in range(1, 6):
        e, h = basis_element("E", (n,)), basis_element("H", (n,))
        assert omega(e) == h and omega(h) == e
        for lam in gen_partitions(n):
            F = basis_element("M", lam).scale(RationalFunc(T + 2))
            assert omega(F).basis == "M"
            assert omega(omega(F)) == F, lam


def _omega_m_through_p(d, mu):
    """The old path for omega on M: m_mu -> P, the sign (-1)^{d - l(lam)}, back to M."""
    F = expand_in_basis(basis_element("M", mu), "P")
    F = SymFunc(d, "P", {lam: c * (-1) ** (d - len(lam)) for lam, c in F.coeffs.items()})
    return {nu: c for nu, c in expand_in_basis(F, "M").coeffs.items()}


def test_omega_m_table_is_an_integer_involution_equal_to_the_p_path():
    for d in range(7):
        table = _omega_m(d)
        assert list(table) == gen_partitions(d)
        for mu, row in table.items():
            assert all(type(v) is int for _, v in row), (d, mu)
            assert {nu: RF(v) for nu, v in row} == _omega_m_through_p(d, mu), (d, mu)
            twice = {}
            for nu, v in row:
                for kappa, w in table[nu]:
                    twice[kappa] = twice.get(kappa, 0) + v * w
            assert {k: v for k, v in twice.items() if v} == {mu: 1}, (d, mu)


def test_omega_unsupported_basis():
    # every basis in BASES goes through p and back; a basis outside BASES
    # is still rejected, whether at construction or on the way through p
    with pytest.raises(ValueError):
        omega(SymFunc(2, "X", {(2,): RF(1)}))
    F = SymFunc(2, "M", {(2,): RF(1)})
    F.basis = "X"
    with pytest.raises(ValueError):
        omega(F)


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
        F = expand_in_basis(basis_element("E", (n,)).scale(RationalFunc(tfact)), "P")
        out = plethysm_frac(F).scale(RationalFunc((T - 1) ** n))
        poly = expand_in_basis(out, "M")
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
