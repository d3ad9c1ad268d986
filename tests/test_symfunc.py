import itertools
import time
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from chromaq import symfunc
from chromaq.combinatorics import _partitions, gen_partitions, transpose
from chromaq.exactnum import LaurentPoly, PoleError, RationalFunc
from chromaq.guards import SizeGuardError
from chromaq.symfunc import (
    BASES,
    SymFunc,
    basis_element,
    eval_t,
    expand_in_basis,
    omega,
    plethysm_mul,
    _from_monomials,
    _hall_littlewood_coords,
    _m_coords,
    _m_to_p_integral,
    _invert,
    _omega_m,
    _placements,
    _require_partition,
    _strips,
)
from orbit_oracle import check_symmetric, coeff, placements, product_coords, zlam
from ratfunc_oracle import (
    gauss_jordan_from_monomials,
    gauss_jordan_m_to_p,
    plethysm_frac,
    ratfunc_to_laurent,
)

T = LaurentPoly.t()
RF = LaurentPoly.const


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
        assert el.coeffs == {tuple([1] * k): RF(1)}


def test_hlp_column_is_elementary():
    for n in range(1, 8):
        lam = tuple([1] * n)
        assert basis_element("HLP", lam) == basis_element("E", (n,))


def test_schur_21_monomials():
    el = basis_element("S", (2, 1))
    assert el.coeffs == {(2, 1): RF(1), (1, 1, 1): RF(2)}


def _ssyt_coords(lam):
    return {mu: RF(c) for mu, c in schur_by_ssyt(lam, sum(lam)).items() if c}


def test_schur_matches_ssyt_oracle():
    for n in range(7):
        for lam in gen_partitions(n):
            assert basis_element("S", lam).coeffs == _ssyt_coords(lam), lam


@pytest.mark.parametrize("basis", ["E", "H", "P"])
@pytest.mark.parametrize("d", range(7))
def test_products_match_the_orbit_product_oracle(basis, d):
    for lam in gen_partitions(d):
        assert dict(_m_coords(basis, lam)) == product_coords(basis, lam), lam


def test_memoised_placements_match_the_plain_count():
    for d in range(11):
        for lam in gen_partitions(d):
            for nu in gen_partitions(d):
                assert _placements(lam, nu) == placements(lam, nu), (lam, nu)
    # the memo is what keeps p_(1^14) cheap: unmemoised it took about 21 s
    assert dict(_m_coords("P", (1,) * 14))[(1,) * 14] == 87_178_291_200  # 14!


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("lam", [(1, 2), (0,), (2, 0, 1)])
def test_basis_element_takes_only_partitions(basis, lam):
    with pytest.raises(ValueError, match=f"is not a partition of {sum(lam)}"):
        basis_element(basis, lam)


def test_unknown_basis():
    with pytest.raises(ValueError):
        basis_element("Q", (1,))


def test_nvars_guard():
    # a change of basis inverts a p(d) x p(d) table: p(11)^3 = 175,616 steps, past MAX_SWEEP
    with pytest.raises(SizeGuardError, match="visits 175,616 elements, past the bound MAX_SWEEP"):
        expand_in_basis(SymFunc(11, "M", {(11,): RF(1)}), "S")
    # any basis but M fills a p(d) x p(d) table: p(17)^2 = 88,209 cells run,
    # p(18)^2 = 148,225 are refused before any basis element of degree 18 is built
    assert basis_element("M", (18,)).coeffs == {(18,): RF(1)}
    before = _hall_littlewood_coords.cache_info().currsize
    for basis in ("E", "H", "P", "S", "HLP", "PT"):
        with pytest.raises(SizeGuardError, match=f"sweeping the 385\\^2 cells of the degree-18 {basis} "
                                                 "table visits 148,225 elements, past the bound"):
            basis_element(basis, (1,) * 18)
    assert _hall_littlewood_coords.cache_info().currsize == before
    # a basis element is indexed by the partitions of its degree, refused past p(46)
    with pytest.raises(SizeGuardError, match="sweeping the partitions of 47 visits 124,754 elements"):
        basis_element("M", (47,))


# -- Hall-Littlewood anchors -----------------------------------------------------

def test_hl_specializes_to_schur_at_zero():
    for n in range(8):
        for lam in gen_partitions(n):
            hl = eval_t(basis_element("HLP", lam), 0)
            assert hl.coeffs == _ssyt_coords(lam), lam


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
        acc = RationalFunc.const(0)
        for nu, uc in u.items():
            if nu in v:
                acc = acc + uc * v[nu] * weight[nu]
        return acc

    done = []
    out = {}
    for lam in reversed(parts):
        v = {nu: RationalFunc(c) for nu, c in expand_in_basis(basis_element("M", lam), "P").coeffs.items()}
        for w, nw in done:
            c = inner(v, w) / nw
            for nu, wc in w.items():
                v[nu] = v.get(nu, RationalFunc.const(0)) - c * wc
        v = {nu: c for nu, c in v.items() if not c.is_zero}
        done.append((v, inner(v, v)))
        # P_lam has p-coordinates in Q[t], so the oracle's quotients must clear
        p_coords = {nu: ratfunc_to_laurent(c) for nu, c in v.items()}
        out[lam] = expand_in_basis(SymFunc(d, "P", p_coords), "M").coeffs
    return out


def test_hl_tableau_build_matches_gram_schmidt():
    for d in range(7):
        assert _hall_littlewood_coords(d) == gram_schmidt_hl(d), d


def horizontal_strips(nu, k):
    """Every lam with lam/nu a horizontal strip of k boxes (lam_{i+1} <= nu_i <= lam_i)."""
    nu_ext = nu + (0,)

    def rec(i, left, cap):
        if i == len(nu_ext):
            if left == 0:
                yield ()
            return
        for a in range(min(left, cap - nu_ext[i]), -1, -1):
            for rest in rec(i + 1, left - a, nu_ext[i]):
                yield (nu_ext[i] + a,) + rest

    for lam in rec(0, k, nu_ext[0] + k):
        yield tuple(x for x in lam if x)


def psi_exponents(lam, nu):
    """The exponents m of psi_{lam/nu}(t) = prod (1 - t^m), Macdonald III (5.8'), one
    m_j(nu) for each column j holding no box of the strip while column j + 1 holds one."""
    cols = {j for i, a in enumerate(lam) for j in range((nu[i] if i < len(nu) else 0) + 1, a + 1)}
    mult = Counter(nu)
    return tuple(mult[j] for j in range(1, max(cols, default=0)) if j not in cols and j + 1 in cols)


def hl_strip_by_strip(d):
    """The tableau build with no cache of strips: every step of every content
    enumerates its strips and multiplies by each factor (1 - t^m) of psi."""
    out = {lam: {} for lam in gen_partitions(d)}
    for mu in gen_partitions(d):
        states = {(): {0: 1}}
        for k in mu:
            grown = {}
            for nu, poly in states.items():
                for lam in horizontal_strips(nu, k):
                    step = poly
                    for m in psi_exponents(lam, nu):
                        times = dict(step)
                        for e, c in step.items():
                            times[e + m] = times.get(e + m, 0) - c
                        step = times
                    acc = grown.setdefault(lam, {})
                    for e, c in step.items():
                        acc[e] = acc.get(e, 0) + c
            states = grown
        for lam, poly in states.items():
            terms = {e: c for e, c in poly.items() if c}
            if terms:
                out[lam][mu] = LaurentPoly.from_terms(terms)
    return out


def test_hl_cached_strips_match_the_strip_by_strip_build():
    _hall_littlewood_coords.cache_clear()
    _strips.cache_clear()
    for d in range(8):
        assert _hall_littlewood_coords(d) == hl_strip_by_strip(d), d
    # the cache holds the same strips, in the same order, as the enumeration
    for (nu, k) in [((), 3), ((2, 1), 2), ((3, 1, 1), 3), ((2, 2), 4)]:
        assert [lam for lam, _ in _strips(nu, k)] == list(horizontal_strips(nu, k)), (nu, k)
    # each (nu, k) is built once, for every content and degree that grows nu by k
    info = _strips.cache_info()
    assert info.hits > info.misses


def test_hl_coefficients_are_integer_polynomials():
    for d in range(8):
        for lam, coords in _hall_littlewood_coords(d).items():
            for mu, c in coords.items():
                assert c.low >= 0, (lam, mu)
                assert all(type(x) is int for x in c.coeffs), (lam, mu)


def test_hl_two_row():
    # classical: P_(2) = m_2 + (1-t) m_11
    el = basis_element("HLP", (2,))
    assert coeff(el, (2,)) == LaurentPoly.const(1)
    assert coeff(el, (1, 1)) == 1 - T


def test_pt_relation():
    # PT_lam = t^{-n(lam)} * (HLP_lam with t -> 1/t), coefficientwise
    from chromaq.combinatorics import nstat
    for n in range(6):
        for lam in gen_partitions(n):
            pt = basis_element("PT", lam)
            hl = basis_element("HLP", lam)
            shift = LaurentPoly.t(-nstat(lam))
            twisted = hl.map_coeffs(lambda c: c.subs_inv() * shift)
            assert pt == twisted, lam


def test_pt_coeffs_are_laurent():
    # t^{-n(lam)} P_lam(x; 1/t) has coefficients in Z[t, 1/t]
    for lam in gen_partitions(5):
        for c in basis_element("PT", lam).coeffs.values():
            assert isinstance(c, LaurentPoly) and all(type(x) is int for x in c.coeffs)


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
    f = basis_element("H", (2, 1)).scale(T + 1)
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


def test_laurent_tables_equal_the_gauss_jordan_oracle():
    # the inversion over Q[t, 1/t] gives the same table as Gauss-Jordan over Q(t)
    for d in range(7):
        for b in BASES:
            want = gauss_jordan_from_monomials(b, d)
            got = _from_monomials(b, d)
            assert list(got) == list(want), (b, d)
            for mu, row in got.items():
                assert {nu: RationalFunc(c) for nu, c in row.items()} == want[mu], (b, d, mu)


def test_invert_over_the_laurent_ring():
    assert _invert([[2 * T]]) == [[LaurentPoly([Fraction(1, 2)], low=-1)]]
    a = [[RF(1), T], [RF(0), LaurentPoly.t(-2)]]
    inv = _invert(a)
    prod = [[sum((a[i][k] * inv[k][j] for k in range(2)), LaurentPoly()) for j in range(2)]
            for i in range(2)]
    assert prod == [[RF(1), RF(0)], [RF(0), RF(1)]]


@pytest.mark.parametrize("a", [
    [[1 + T]],
    [[RF(1), RF(1)], [RF(1), T]],  # the second pivot is t - 1
])
def test_invert_raises_on_a_non_unit_pivot(a):
    with pytest.raises(ArithmeticError, match="not a unit"):
        _invert(a)


def test_invert_raises_on_a_singular_matrix():
    with pytest.raises(ArithmeticError, match="singular"):
        _invert([[RF(1), T], [RF(1), T]])


def test_m_to_p_integral_is_d_factorial_times_the_gauss_jordan_table():
    # forward substitution over Z against the inversion over Q[t, 1/t]
    for d in range(9):
        want = gauss_jordan_m_to_p(d)
        got = _m_to_p_integral(d)
        assert list(got) == gen_partitions(d)
        for mu, row in got.items():
            assert all(type(v) is int for v in row.values()), (d, mu)
            assert row == {lam: factorial(d) * v for lam, v in want[mu].items()}, (d, mu)
        # P reads the same table, one exact division per entry, in the inversion's order
        table = _from_monomials("P", d)
        for mu, row in want.items():
            assert list(table[mu].items()) == [(lam, RF(v)) for lam, v in row.items()], (d, mu)


def test_m_to_p_integral_raises_on_a_wrong_pivot(monkeypatch):
    # R(1^4, 1^4) = 4! made 25 scales the last row by 24/25: its first entry,
    # 4! times the p_4-coordinate -1/4 of m_(1^4) = e_4, becomes -144/25
    ones = (1, 1, 1, 1)

    def mutant(parts, room):
        return _placements(parts, room) + (parts == room == ones)

    monkeypatch.setattr(symfunc, "_placements", mutant)
    with pytest.raises(ArithmeticError, match=r"24 \* m_\[1, 1, 1, 1\] has the non-integer "
                                              r"p_\[4\]-coordinate -144/25"):
        _m_to_p_integral.__wrapped__(4)


def test_omega_m_raises_when_its_division_by_d_factorial_is_not_exact(monkeypatch):
    # one entry of 3! (m -> p) off by one leaves a remainder mod 3! in omega(m_(2,1))
    table = {mu: dict(row) for mu, row in _m_to_p_integral(3).items()}
    table[(2, 1)][(3,)] += 1
    monkeypatch.setattr(symfunc, "_m_to_p_integral", lambda d: table)
    with pytest.raises(ArithmeticError, match=r"omega\(m_\[2, 1\]\) has a non-integer m-coordinate"):
        _omega_m.__wrapped__(3)


def test_expand_in_basis_same_basis_is_identity():
    F = SymFunc(3, "HLP", {(2, 1): T + 1})
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


def _outcome(make):
    try:
        make()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _keys_near(degree):
    """Partitions of degree and of its neighbours, plus keys that are no partition."""
    keys = [(), (0,), (degree,), (degree, 0), (1,) * max(degree, 0), (-1,), (degree + 1, -1),
            (1, 2), (Fraction(3, 2), Fraction(3, 2)), (2.0, 1.0), (True, True)]
    for d in (degree - 1, degree, degree + 1):
        if 0 <= d <= 7:
            keys += gen_partitions(d)
            keys += [lam[::-1] for lam in gen_partitions(d)]
    return keys


@pytest.mark.parametrize("degree", [-2, -1, 0, 1, 2, 3, 5, 7, 12, 13, 40, 100])
def test_symfunc_partition_lookup_agrees_with_the_plain_check(degree):
    # the lookup must accept and reject exactly what _require_partition does,
    # with the same exception and message, and never trip a size guard
    for key in _keys_near(degree):
        got = _outcome(lambda: SymFunc(degree, "M", {key: RF(1)}))
        assert got == _outcome(lambda: _require_partition(tuple(key), degree)), (degree, key)
        assert got is None or got[0] is ValueError, (degree, key, got)


def test_symfunc_partition_check_at_the_edges():
    assert SymFunc(0, "M", {(): 1}).coeffs == {(): RF(1)}
    for degree, key in [(0, (1,)), (0, (0,)), (-1, ()), (-1, (-1,)),
                        (13, (12,)), (100, (99,))]:
        with pytest.raises(ValueError) as e:
            SymFunc(degree, "M", {key: RF(1)})
        assert type(e.value) is ValueError
        assert str(e.value) == f"{key} is not a partition of {degree}"
    assert SymFunc(13, "M", {(13,): 1}).coeffs == {(13,): RF(1)}
    assert SymFunc(100, "M", {(60, 40): 1}).degree == 100


def test_symfunc_checks_its_keys_without_listing_their_degree():
    # each key is checked on its own: the table of the 105,558 partitions of 46
    # took 0.49 s to list when a key was looked up in it
    before = _partitions.cache_info()
    start = time.perf_counter()
    assert SymFunc(46, "M", {(46,): 1}).coeffs == {(46,): RF(1)}
    assert time.perf_counter() - start < 0.05
    with pytest.raises(ValueError) as e:
        SymFunc(46, "M", {(45,): 1})
    assert str(e.value) == "(45,) is not a partition of 46"
    assert _partitions.cache_info() == before


def test_symfunc_drops_zero_coefficients():
    F = SymFunc(2, "M", {(2,): RF(3), (1, 1): RF(0)})
    assert F.coeffs == {(2,): RF(3)}
    assert str(F.scale(T)) == "(3*t)*m[2]"
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
            F = basis_element("M", lam).scale(T + 2)
            assert omega(F).basis == "M"
            assert omega(omega(F)) == F, lam


def _omega_m_through_p(d, mu):
    """The old path for omega on M: m_mu -> P by the Gauss-Jordan table, the sign
    (-1)^{d - l(lam)}, back to M."""
    F = SymFunc(d, "P", {lam: c * (-1) ** (d - len(lam))
                         for lam, c in gauss_jordan_m_to_p(d)[mu].items()})
    return {nu: c for nu, c in expand_in_basis(F, "M").coeffs.items()}


def test_omega_m_table_is_an_integer_involution_equal_to_the_p_path():
    for d in range(9):
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


def test_omega_swaps_e_and_h_and_transposes_s_at_the_degree_guard():
    d = 10  # the last degree the guard admits: p(10)^3 = 74,088 Gauss-Jordan steps
    for b in BASES:
        assert list(_from_monomials(b, d)) == gen_partitions(d), b
    for lam in gen_partitions(d):
        assert omega(basis_element("E", lam)) == basis_element("H", lam), lam
        assert omega(basis_element("S", lam)) == basis_element("S", transpose(lam)), lam


def test_omega_unsupported_basis():
    # every basis in BASES goes through p and back; a basis outside BASES
    # is still rejected, whether at construction or on the way through p
    with pytest.raises(ValueError):
        omega(SymFunc(2, "X", {(2,): RF(1)}))
    F = SymFunc(2, "M", {(2,): RF(1)})
    object.__setattr__(F, "basis", "X")  # SymFunc is frozen; force the bad basis in
    with pytest.raises(ValueError):
        omega(F)


# -- plethysm ------------------------------------------------------------------------

def test_plethysm_p1():
    F = SymFunc(1, "P", {(1,): RF(1)})
    assert plethysm_frac(F) == {(1,): RationalFunc(LaurentPoly.const(1), T - 1)}
    assert plethysm_mul(F).coeffs == {(1,): T - 1}


def test_plethysm_scaled_en_is_laurent():
    # (t-1)^n [n]_t! e_n[x/(t-1)] has Laurent coefficients (it is a unicellular
    # LLT polynomial of the complete graph); e_n alone does not clear.  The
    # (t^k - 1) plethysm takes it back to (t-1)^n [n]_t! e_n.
    for n in range(1, 6):
        tfact = LaurentPoly.const(1)
        for i in range(1, n + 1):
            tfact = tfact * LaurentPoly([1] * i)  # 1 + t + ... + t^{i-1}
        F = expand_in_basis(basis_element("E", (n,)).scale(tfact), "P")
        scale = RationalFunc((T - 1) ** n)
        out = {lam: ratfunc_to_laurent(c * scale) for lam, c in plethysm_frac(F).items()}
        G = SymFunc(n, "P", out)
        assert plethysm_mul(G) == F.scale((T - 1) ** n), n


def test_plethysm_requires_p_basis():
    with pytest.raises(ValueError):
        plethysm_frac(SymFunc(1, "M", {(1,): RF(1)}))
    with pytest.raises(ValueError):
        plethysm_mul(SymFunc(1, "M", {(1,): RF(1)}))


# -- eval_t ---------------------------------------------------------------------

def test_eval_t_constant_unchanged():
    F = SymFunc(2, "M", {(2,): RF(5)})
    assert eval_t(F, 3) == F


def test_eval_t_pole():
    F = SymFunc(1, "M", {(1,): LaurentPoly.t(-1) + 1})
    assert eval_t(F, 2).coeffs == {(1,): RF(Fraction(3, 2))}
    with pytest.raises(PoleError):
        eval_t(F, 0)


def test_eval_t_specializes():
    F = SymFunc(1, "M", {(1,): T ** 2 + 4 * T + 1})
    assert eval_t(F, 2).coeffs == {(1,): RF(13)}
