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
    _diagonal,
    _peel,
    _placements,
    _require_partition,
    _rows,
    _strips,
)
from orbit_oracle import check_symmetric, placements, product_coords, zlam
from ratfunc_oracle import (
    _invert,
    gauss_jordan_m_to,
    hall_littlewood,
    inverted_from_monomials,
    m_coords,
    m_to_p,
    omega_m_through_s,
    p_to_m,
    plethysm_frac,
    ratfunc_to_const,
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
        assert hall_littlewood(n)[lam] == basis_element("E", (n,)).coeffs


def test_schur_21_monomials():
    # the constant terms of P_(2,1) are s_(2,1), the Kostka row the e rows read
    assert _hl_at(3, (2, 1), 0) == {(2, 1): 1, (1, 1, 1): 2}


def _ssyt_coords(lam):
    return {mu: c for mu, c in schur_by_ssyt(lam, sum(lam)).items() if c}


def test_schur_matches_ssyt_oracle():
    # the e rows read off the Kostka numbers of the tableau build at t = 0, against
    # e_lam = sum_nu K_nu,lam s_nu' with K counted tableau by tableau
    for n in range(7):
        schur = {nu: _ssyt_coords(nu) for nu in gen_partitions(n)}
        for lam in gen_partitions(n):
            want = Counter()
            for nu, row in schur.items():
                for mu, v in schur[transpose(nu)].items():
                    want[mu] += row.get(lam, 0) * v
            assert basis_element("E", lam).coeffs == {mu: RF(v) for mu, v in want.items() if v}, lam


@pytest.mark.parametrize("basis", ["E", "H", "P"])
@pytest.mark.parametrize("d", range(7))
def test_products_match_the_orbit_product_oracle(basis, d):
    # e from the package's rows, p from the rows `_diagonal` peels against, and h
    # from the Kostka numbers through the oracle's rows
    for lam in gen_partitions(d):
        rows = m_coords("H", lam) if basis == "H" else dict(_rows(basis, d)[lam])
        assert rows == product_coords(basis, lam), lam


def test_memoised_placements_match_the_plain_count():
    for d in range(11):
        for lam in gen_partitions(d):
            for nu in gen_partitions(d):
                assert _placements(lam, nu) == placements(lam, nu), (lam, nu)
    # the memo is what keeps p_(1^14) cheap: unmemoised it took about 21 s
    assert _placements((1,) * 14, (1,) * 14) == 87_178_291_200  # 14!


@pytest.mark.parametrize("basis", ["M", "E", "H", "P", "S", "HLP", "PT"])
@pytest.mark.parametrize("lam", [(1, 2), (0,), (2, 0, 1)])
def test_basis_element_takes_only_partitions(basis, lam):
    # the bases the package no longer holds are refused by name, before lam is read
    match = f"is not a partition of {sum(lam)}" if basis in BASES else f"unknown basis '{basis}'"
    with pytest.raises(ValueError, match=match):
        basis_element(basis, lam)


def test_unknown_basis():
    assert BASES == ("M", "E", "PT")
    for basis in ("Q", "H", "P", "S", "HLP"):
        with pytest.raises(ValueError, match=f"^unknown basis '{basis}'$"):
            basis_element(basis, (1,))
        with pytest.raises(ValueError, match=f"^unknown basis '{basis}'$"):
            expand_in_basis(basis_element("M", (1,)), basis)
        with pytest.raises(ValueError, match=f"^unknown basis '{basis}'$"):
            SymFunc(1, basis, {(1,): 1})


def _refuses_the_degree_18_table(basis, call):
    with pytest.raises(SizeGuardError, match=f"sweeping the 385\\^2 cells of the degree-18 {basis} "
                                             "table visits 148,225 elements, past the bound MAX_SWEEP"):
        call()


def test_nvars_guard(monkeypatch):
    # a change of basis peels against a p(d) x p(d) table: p(18)^2 = 148,225 cells, past
    # MAX_SWEEP, refused before any strip of the tableau build or placement of p is made
    def no_work(*args):
        raise AssertionError("a row of the degree-18 table was built")

    monkeypatch.setattr(symfunc, "_strips", no_work)
    monkeypatch.setattr(symfunc, "_placements", no_work)
    F = SymFunc(18, "M", {(18,): RF(1)})
    for basis, call in (("E", lambda: expand_in_basis(F, "E")), ("PT", lambda: expand_in_basis(F, "PT")),
                        ("P", lambda: omega(F)), ("P", lambda: plethysm_mul(F))):
        _refuses_the_degree_18_table(basis, call)
    # any basis but M, and the p rows, fill a p(d) x p(d) table: p(17)^2 = 88,209 cells
    # run, p(18)^2 = 148,225 are refused before any basis element of degree 18 is built
    assert basis_element("M", (18,)).coeffs == {(18,): RF(1)}
    before = _rows.cache_info().currsize
    for basis in ("E", "PT"):
        _refuses_the_degree_18_table(basis, lambda: basis_element(basis, (1,) * 18))
        _refuses_the_degree_18_table(basis, lambda: expand_in_basis(SymFunc(18, basis, {(18,): 1}), "M"))
    _refuses_the_degree_18_table("P", lambda: _rows("P", 18))
    assert _rows.cache_info().currsize == before
    # a basis element is indexed by the partitions of its degree, refused past p(46)
    with pytest.raises(SizeGuardError, match="sweeping the partitions of 47 visits 124,754 elements"):
        basis_element("M", (47,))


# -- Hall-Littlewood anchors -----------------------------------------------------

def _hl_at(d, lam, q):
    """P_lam(x; q) in monomial coordinates, reflected off the PT rows, zeros dropped."""
    return {mu: v for mu, c in hall_littlewood(d)[lam].items() if (v := c.evaluate(q))}


def test_hl_specializes_to_schur_at_zero():
    for n in range(8):
        for lam in gen_partitions(n):
            assert _hl_at(n, lam, 0) == _ssyt_coords(lam), lam


def test_hl_specializes_to_monomial_at_one():
    for n in range(8):
        for lam in gen_partitions(n):
            assert _hl_at(n, lam, 1) == {lam: 1}, lam


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
    to_p = gauss_jordan_m_to("P", d)
    for lam in reversed(parts):
        v = {nu: RationalFunc.const(c) for nu, c in to_p[lam].items()}
        for w, nw in done:
            c = inner(v, w) / nw
            for nu, wc in w.items():
                v[nu] = v.get(nu, RationalFunc.const(0)) - c * wc
        v = {nu: c for nu, c in v.items() if not c.is_zero}
        done.append((v, inner(v, v)))
        # P_lam has p-coordinates in Q[t] and m-coordinates in Z[t], so the oracle's quotients must clear
        out[lam] = {mu: ratfunc_to_laurent(c) for mu, c in p_to_m(v).items()}
    return out


def test_hl_tableau_build_matches_gram_schmidt():
    # the PT rows, reflected to P(x; t) by the oracle
    for d in range(7):
        assert hall_littlewood(d) == gram_schmidt_hl(d), d


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
    # the PT rows, built afresh and reflected to P(x; t) by the oracle
    for cached in (_rows, _strips, hall_littlewood):
        cached.cache_clear()
    for d in range(8):
        assert hall_littlewood(d) == hl_strip_by_strip(d), d
    # the cache holds the same strips, in the same order, as the enumeration
    for (nu, k) in [((), 3), ((2, 1), 2), ((3, 1, 1), 3), ((2, 2), 4)]:
        assert [lam for lam, _ in _strips(nu, k)] == list(horizontal_strips(nu, k)), (nu, k)
    # each (nu, k) is built once, for every content and degree that grows nu by k
    info = _strips.cache_info()
    assert info.hits > info.misses


def test_hl_coefficients_are_integer_polynomials():
    for d in range(8):
        for lam, coords in hall_littlewood(d).items():
            for mu, c in coords.items():
                assert c.low >= 0, (lam, mu)
                assert all(type(x) is int for x in c.coeffs), (lam, mu)


def test_hl_two_row():
    # classical: P_(2) = m_2 + (1-t) m_11
    assert hall_littlewood(2)[(2,)] == {(2,): LaurentPoly.const(1), (1, 1): 1 - T}


def test_pt_relation():
    # PT_lam = t^{-n(lam)} * (HLP_lam with t -> 1/t), coefficientwise, against the
    # tableau build with no cache of strips
    from chromaq.combinatorics import nstat
    for n in range(9):
        hl = hl_strip_by_strip(n)
        for lam in gen_partitions(n):
            pt = basis_element("PT", lam)
            shift = LaurentPoly.t(-nstat(lam))
            twisted = {mu: c.subs_inv() * shift for mu, c in hl[lam].items()}
            assert pt.coeffs == twisted, lam


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
    got = expand_in_basis(SymFunc(3, "M", _ssyt_coords((2, 1))), "E")
    assert got.coeffs == {(2, 1): RF(1), (3,): RF(-1)}


def test_p2_in_monomials():
    # the p rows in peel order, from the end of `gen_partitions`, each led by its pivot:
    # p_11 = 2 m_11 + m_2 and p_2 = m_2
    assert [(lam, list(row.items())) for lam, row in _rows("P", 2).items()] == [
        ((1, 1), [((1, 1), RF(2)), ((2,), RF(1))]), ((2,), [((2,), RF(1))])]


def test_expand_builds_each_change_of_basis_once():
    f = SymFunc(3, "M", m_coords("H", (2, 1))).scale(T + 1)
    expand_in_basis(f, "PT")
    before = _rows.cache_info()
    for _ in range(3):
        assert expand_in_basis(f, "PT") == expand_in_basis(f, "PT")
    after = _rows.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 6


def test_each_table_is_built_once_per_basis_and_degree():
    # basis elements, the expansion into the basis and back out of it, and omega
    # through the p rows all read one table per (basis, degree); the e rows read the
    # PT rows of their degree, so E holds two entries
    keys = gen_partitions(5)
    F = SymFunc(5, "M", {mu: T - i for i, mu in enumerate(keys)})
    for basis in ("E", "PT", "P"):
        _rows.cache_clear()
        if basis == "P":
            assert omega(omega(F)) == F
        else:
            for lam in keys:
                basis_element(basis, lam)
            assert expand_in_basis(expand_in_basis(F, basis), "M") == F
        info = _rows.cache_info()
        assert (info.misses, info.currsize) == ((2, 2) if basis == "E" else (1, 1)), basis
        assert info.hits > 0, basis
    # asking for E first builds the PT table of its degree exactly once, for the e rows
    # to read their Kostka numbers, and a later ask for PT is served from that entry
    _rows.cache_clear()
    _rows("E", 5)
    info = _rows.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
    _rows("PT", 5)
    info = _rows.cache_info()
    assert (info.misses, info.hits) == (2, 1)


def test_the_pt_rows_write_each_coordinate_once(monkeypatch):
    # the tableau build writes each term c t^e of P_lam[m_mu] straight to PT's
    # t^{-n(lam)-e}: one from_terms per nonzero coordinate, and no reflection
    counts = Counter()
    from_terms, subs_inv = LaurentPoly.from_terms, LaurentPoly.subs_inv

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(LaurentPoly, "from_terms", staticmethod(counted("from_terms", from_terms)))
    monkeypatch.setattr(LaurentPoly, "subs_inv", counted("subs_inv", subs_inv))
    for d in range(9):
        counts.clear()
        _rows.cache_clear()
        rows = _rows("PT", d)
        assert counts == Counter(from_terms=sum(map(len, rows.values()))), d


def test_every_change_of_basis_runs_at_degree_11():
    # p(11)^2 = 3,136 cells per table: the round trip through each basis returns F,
    # and omega twice, through the p rows; the values are checked against the oracles
    # up to degree 8
    keys = gen_partitions(11)
    F = SymFunc(11, "M", {mu: T - i for i, mu in enumerate(keys)})
    for b in ("E", "PT"):
        G = expand_in_basis(F, b)
        assert G.basis == b and expand_in_basis(G, "M") == F, b
    assert omega(omega(F)) == F


def test_expand_in_basis_roundtrip_through_m():
    # every basis b: m_lam -> b -> M is the identity, for every lam with d <= 5
    for d in range(6):
        for lam in gen_partitions(d):
            F = basis_element("M", lam)
            for b in BASES:
                assert expand_in_basis(expand_in_basis(F, b), "M") == F, (b, lam)
    F = SymFunc(3, "PT", {(2, 1): RF(2), (1, 1, 1): T - 1})
    assert expand_in_basis(expand_in_basis(F, "M"), "PT") == F


def _peel_misses(b, d):
    """The mu |- d whose m_mu, expanded in basis b, differs from the Gauss-Jordan oracle's row."""
    want = inverted_from_monomials(b, d)
    return [mu for mu in gen_partitions(d)
            if expand_in_basis(basis_element("M", mu), b).coeffs != want[mu]]


def test_solve_equals_the_inverted_table_for_every_basis():
    # the peel over Z[t, 1/t] against Gauss-Jordan over Q[t, 1/t]
    for d in range(9):
        for b in BASES:
            assert _peel_misses(b, d) == [], (b, d)


def _patched(monkeypatch, name, key, patch):
    """Make symfunc's `name`(*key) return patch(its value), and build every table afresh."""
    real = getattr(symfunc, name)
    monkeypatch.setattr(symfunc, name, lambda *args: patch(real(*args)) if args == key else real(*args))
    monkeypatch.setattr(symfunc, "_rows", _rows.__wrapped__)


def _pt_patched(monkeypatch, lam, patch):
    """Make the degree-3 PT rows give patch(PT_lam's m-coordinates) for PT_lam, and
    build every other table afresh, the e rows from these PT rows."""
    real = _rows("PT", 3)
    pt = {**real, lam: patch(real[lam])}
    monkeypatch.setattr(symfunc, "_rows",
                        lambda b, d: pt if (b, d) == ("PT", 3) else _rows.__wrapped__(b, d))


def test_the_oracle_comparison_fails_on_a_perturbed_forward_row(monkeypatch):
    # the Kostka number K_21,111 = 2 made 3 takes e_(2,1) = m_21 + 3 m_111 to
    # m_21 + 4 m_111 and e_(1,1,1) = m_3 + 3 m_21 + 6 m_111 to m_3 + 3 m_21 + 8 m_111,
    # which moves the e-coordinates of m_3 and m_21.  K_21,111 is the t^-n(21) = t^-1
    # coefficient of PT_(2,1)[m_111].  The peel inverts the rows it is given, so only
    # the oracle, which reads the real PT rows, sees the change
    _pt_patched(monkeypatch, (2, 1), lambda c: {**c, (1, 1, 1): c[(1, 1, 1)] + LaurentPoly.t(-1)})
    assert dict(symfunc._rows("E", 3)[(2, 1)]) == {(2, 1): RF(1), (1, 1, 1): RF(4)}
    assert _peel_misses("E", 3) == [(3,), (2, 1)]


def test_solve_refuses_a_pivot_that_is_not_a_unit(monkeypatch):
    # psi_{21/2} = 1 made 1 + t gives P_(2,1) the m_21-coordinate 1 + t: PT_(2,1) leads
    # with t^-1 (1 + 1/t)
    _patched(monkeypatch, "_strips", ((2,), 1),
             lambda strips: tuple((lam, ((0, 1), (1, 1)) if lam == (2, 1) else psi)
                                  for lam, psi in strips))
    with pytest.raises(ArithmeticError, match=r"pt_\[2, 1\] has the pivot t\^-1\+t\^-2 at "
                                              r"m_\[2, 1\], not c \* t\^k"):
        symfunc._rows("PT", 3)


def test_solve_refuses_an_entry_on_a_row_not_yet_solved(monkeypatch):
    # m_(3) comes before m_(2,1) in `gen_partitions` order, so it is peeled before it:
    # a Kostka number K_21,3 = 1, the t^-1 coefficient of PT_(2,1)[m_3], puts an m_3
    # into s_21, and so into e_(2,1)
    _pt_patched(monkeypatch, (2, 1), lambda c: {**c, (3,): LaurentPoly.t(-1)})
    with pytest.raises(ArithmeticError, match=r"e_\[2, 1\] has an m_\[3\]-coordinate, but m_\[3\] "
                                              r"is peeled before m_\[2, 1\]"):
        symfunc._rows("E", 3)


def test_solve_refuses_an_e_table_read_with_lam_leading(monkeypatch):
    # e_lam leads with m_lam'; with every transpose read as lam itself, the rows are
    # h_lam = sum_nu K_nu,lam s_nu, led by m_lam, and h_(2,1) has an m_(3)-coordinate
    monkeypatch.setattr(symfunc, "transpose", lambda lam: lam)
    with pytest.raises(ArithmeticError, match=r"e_\[2, 1\] has an m_\[3\]-coordinate, but m_\[3\] "
                                              r"is peeled before m_\[2, 1\]"):
        _rows.__wrapped__("E", 3)


def test_invert_over_the_laurent_ring():
    assert _invert([[2 * T]]) == [[RationalFunc(LaurentPoly.t(-1), 2)]]
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
    # the peel into P over Z against the inversion over Q[t, 1/t]
    for d in range(9):
        want = gauss_jordan_m_to("P", d)
        for mu in gen_partitions(d):
            row = _peel({mu: 1}, "P", d)
            assert all(c.low == 0 and [type(v) for v in c.coeffs] == [int]
                       for c in row.values()), (d, mu)
            assert {lam: c[0] for lam, c in row.items()} == {
                lam: factorial(d) * v for lam, v in want[mu].items()}, (d, mu)


def test_m_to_p_integral_raises_on_a_wrong_pivot(monkeypatch):
    # R(1^4, 1^4) = 4! made 25: the peel starts at m_(1^4), and 4! m_(1^4) over
    # the pivot 25 is the p_(1^4)-coordinate 24/25, no integer
    ones = (1, 1, 1, 1)
    _patched(monkeypatch, "_placements", (ones, ones), lambda c: 25)
    with pytest.raises(ArithmeticError, match=r"24 \* F has the non-integer "
                                              r"p_\[1, 1, 1, 1\]-coordinate 24/25"):
        _peel({ones: 1}, "P", 4)


def test_peel_and_the_diagonal_maps_refuse_a_rational_coefficient(monkeypatch):
    # one integral path: a coefficient is a LaurentPoly over Z, so a Fraction is refused
    # where it would become one, before any row is read; omega, the plethysm and
    # expand_in_basis read a SymFunc, which cannot hold one
    def no_rows(basis, d):
        raise AssertionError(f"the degree-{d} {basis} rows were read")

    monkeypatch.setattr(symfunc, "_rows", no_rows)
    coeffs = {(3,): 2, (2, 1): Fraction(1, 2)}
    for call in (lambda: _peel(coeffs, "P", 3), lambda: _peel(coeffs, "E", 3),
                 lambda: SymFunc(3, "M", coeffs),
                 lambda: basis_element("M", (1, 1, 1)).scale(Fraction(1, 2))):
        with pytest.raises(TypeError, match=r"^coefficient Fraction\(1, 2\) is not an int$"):
            call()


def test_expand_in_basis_same_basis_is_identity():
    F = SymFunc(3, "PT", {(2, 1): T + 1})
    assert expand_in_basis(F, "PT") is F


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

def _in_m(basis, lam):
    """The oracle's basis element of s, h, e, p, HLP or PT as a SymFunc in basis M."""
    return SymFunc(sum(lam), "M", m_coords(basis, lam))


def test_omega_selfconjugate():
    F = _in_m("S", (2, 1))
    assert omega(F) == F


def test_omega_e_to_h():
    # omega on M takes e_lam to h_lam, whose rows the oracle reads off the Kostka
    # numbers; and so does the sign rule on P through the Gauss-Jordan table over Q
    for n in range(1, 6):
        for lam in gen_partitions(n):
            h = _in_m("H", lam)
            assert omega(basis_element("E", lam)) == h, lam
            e_in_p = m_to_p(basis_element("E", lam).coeffs, n)
            assert p_to_m({nu: c * (-1) ** (n - len(nu)) for nu, c in e_in_p.items()}) == h.coeffs, lam


def test_omega_on_h_gives_e_and_is_an_involution():
    # omega(h_lam) = e_lam in M for |lam| <= 5, and omega twice is the identity
    for n in range(6):
        for lam in gen_partitions(n):
            w = omega(_in_m("H", lam))
            assert w == basis_element("E", lam) and omega(w) == _in_m("H", lam), lam


def test_omega_involution_on_schur():
    for n in range(6):
        for lam in gen_partitions(n):
            F = _in_m("S", lam)
            assert omega(omega(F)) == F
            assert omega(F) == _in_m("S", transpose(lam))


def test_omega_monomial_basis_involution_en_to_hn():
    # omega on an M-basis SymFunc pulls its signs back from P, one vector at a time, and stays in M
    for n in range(1, 6):
        e, h = basis_element("E", (n,)), _in_m("H", (n,))
        assert omega(e) == h and omega(h) == e
        for lam in gen_partitions(n):
            F = basis_element("M", lam).scale(T + 2)
            assert omega(F).basis == "M"
            assert omega(omega(F)) == F, lam


def _omega_m_through_p(d, mu):
    """The old path for omega on M: m_mu -> P by the Gauss-Jordan table, the sign
    (-1)^{d - l(lam)}, back to M."""
    return p_to_m({lam: c * (-1) ** (d - len(lam)) for lam, c in gauss_jordan_m_to("P", d)[mu].items()})


def test_omega_m_table_is_an_integer_involution_equal_to_the_p_path():
    # the package pulls omega's sign back from P, one vector at a time; the oracle
    # reads it off S with no division, and for d <= 8 the Gauss-Jordan p path agrees too
    for d in range(11):
        images = {mu: omega(basis_element("M", mu)) for mu in gen_partitions(d)}
        assert all(F.basis == "M" for F in images.values()), d
        ints = {mu: {nu: ratfunc_to_const(c) for nu, c in F.coeffs.items()}
                for mu, F in images.items()}
        assert ints == {mu: dict(row) for mu, row in omega_m_through_s(d).items()}, d
        for mu, row in ints.items():
            assert all(type(v) is int for v in row.values()), (d, mu)
            if d < 9:
                assert row == _omega_m_through_p(d, mu), (d, mu)
            twice = {}
            for nu, v in row.items():
                for kappa, w in ints[nu].items():
                    twice[kappa] = twice.get(kappa, 0) + v * w
            assert {k: v for k, v in twice.items() if v} == {mu: 1}, (d, mu)


def test_omega_on_hall_littlewood_goes_through_m_and_equals_the_p_route(monkeypatch):
    # omega of a Hall-Littlewood element in M divides d! out exactly; the old route
    # through P reads entries 1/z_lam over Q, and both give the same values
    for d in range(7):
        for b in ("HLP", "PT"):
            for lam in gen_partitions(d):
                F = _in_m(b, lam).scale(T + 2)
                in_p = m_to_p(F.coeffs, d)
                want = p_to_m({nu: c * (-1) ** (d - len(nu)) for nu, c in in_p.items()})
                assert omega(F).coeffs == want, (b, lam)
    asked = []
    monkeypatch.setattr(symfunc, "_peel", lambda F, b, d: asked.append(b) or _peel(F, b, d))
    omega(_in_m("HLP", (2, 1, 1)).scale(T))
    assert asked == ["P"]


def test_omega_and_the_plethysm_on_m_peel_the_one_vector_into_p(monkeypatch):
    # a map diagonal on p takes a vector in M into P by one `_peel` of that vector,
    # never by the images of the unit vectors m_mu
    F = SymFunc(6, "M", {(3, 2, 1): T + 2, (2, 2, 1, 1): 3 * T ** 2, (1,) * 6: LaurentPoly.t(-1) - 5,
                         (6,): 7})
    want = {fn: fn(F) for fn in (omega, plethysm_mul)}
    asked = []
    monkeypatch.setattr(symfunc, "_peel",
                        lambda coeffs, b, d: asked.append((dict(coeffs), b, d)) or _peel(coeffs, b, d))
    for fn in (omega, plethysm_mul):
        asked.clear()
        assert fn(F) == want[fn], fn
        assert asked == [(dict(F.coeffs), "P", 6)], fn


def test_omega_swaps_e_and_h_and_transposes_s_at_the_degree_guard():
    # omega on M peels each e_lam, h_lam and s_lam of degree 10 into P; at degree 17,
    # the last the guard admits, one full vector takes under a second (README's guard table)
    d = 10
    for lam in gen_partitions(d):
        assert omega(basis_element("E", lam)) == _in_m("H", lam), lam
        assert omega(_in_m("S", lam)) == _in_m("S", transpose(lam)), lam


def test_omega_unsupported_basis():
    # omega reads the monomial basis only: E and PT are refused on the way in, and a
    # basis outside BASES at construction or, forced in, on the way in too
    with pytest.raises(ValueError):
        omega(SymFunc(2, "X", {(2,): RF(1)}))
    for basis in ("E", "PT"):
        with pytest.raises(ValueError, match=f"reads the monomial basis, not {basis}$"):
            omega(SymFunc(2, basis, {(2,): RF(1)}))
    F = SymFunc(2, "M", {(2,): RF(1)})
    object.__setattr__(F, "basis", "X")  # SymFunc is frozen; force the bad basis in
    with pytest.raises(ValueError):
        omega(F)


# -- plethysm ------------------------------------------------------------------------

def test_plethysm_p1():
    assert plethysm_frac({(1,): RF(1)}) == {(1,): RationalFunc(LaurentPoly.const(1), T - 1)}
    assert plethysm_mul(SymFunc(1, "M", {(1,): RF(1)})).coeffs == {(1,): T - 1}


def test_plethysm_scaled_en_is_laurent():
    # (t-1)^n [n]_t! e_n[x/(t-1)] has Laurent coefficients (it is a unicellular
    # LLT polynomial of the complete graph); e_n alone does not clear.  The
    # (t^k - 1) plethysm takes it back to (t-1)^n [n]_t! e_n.
    for n in range(1, 6):
        tfact = LaurentPoly.const(1)
        for i in range(1, n + 1):
            tfact = tfact * LaurentPoly([1] * i)  # 1 + t + ... + t^{i-1}
        F = basis_element("E", (n,)).scale(tfact)
        in_p = m_to_p(F.coeffs, n)
        scale = RationalFunc((T - 1) ** n)
        G = p_to_m({lam: c * scale for lam, c in plethysm_frac(in_p).items()})
        G = {mu: ratfunc_to_laurent(c) for mu, c in G.items()}
        assert plethysm_mul(SymFunc(n, "M", G)) == F.scale((T - 1) ** n), n


def test_plethysm_requires_p_basis():
    # the plethysm reads M, the basis it peels into P from; every other basis is refused
    assert plethysm_mul(SymFunc(1, "M", {(1,): RF(1)})).coeffs == {(1,): T - 1}
    for basis in BASES:
        if basis != "M":
            with pytest.raises(ValueError, match="reads the monomial basis"):
                plethysm_mul(SymFunc(1, basis, {(1,): RF(1)}))


def _plethysm_through_p(d, mu):
    """d! m_mu[(t-1)x] by the per-vector route: d! m_mu peeled into P, each p_lam
    times prod (t^{lam_i} - 1), back to m by the part placements."""
    return p_to_m({lam: c * symfunc._plethysm_factor(lam)
                   for lam, c in _peel({mu: RF(1)}, "P", d).items()})


def test_plethysm_m_table_is_integral_and_equal_to_the_p_route():
    for d in range(8):
        to_p = gauss_jordan_m_to("P", d)
        for mu in gen_partitions(d):
            F = plethysm_mul(basis_element("M", mu))
            assert F.basis == "M"
            assert all(c.low >= 0 and all(type(a) is int for a in c.coeffs)
                       for c in F.coeffs.values()), (d, mu)
            assert F.scale(factorial(d)).coeffs == _plethysm_through_p(d, mu), (d, mu)
            # the x/(t-1) plethysm over Q(t) takes it back to m_mu
            back = plethysm_frac(m_to_p(F.coeffs, d))
            assert back == {lam: RationalFunc.const(c) for lam, c in to_p[mu].items()}, (d, mu)


def test_plethysm_m_raises_on_a_remainder_of_d_factorial():
    # one more p_(1^3) in d! m_111[(t-1)x], or in d! omega(m_111): d! e_3 has the
    # p_(1^3)-coordinate 1, and p_(1^3) has the m_21-coordinate 3, which 3! does not
    # divide
    m111 = basis_element("M", (1, 1, 1))
    for factor, left in ((symfunc._plethysm_factor, r"\(-6\*t\^2\+12\*t-3\)"),
                         (symfunc._omega_sign, r"\(9\)")):
        def one_more(lam, factor=factor):
            return factor(lam) + 1 if lam == (1, 1, 1) else factor(lam)

        with pytest.raises(ArithmeticError,
                           match=r"p_lam -> one_more\(lam\) p_lam takes F to the "
                                 rf"non-integer m_\[2, 1\]-coordinate {left}/6$"):
            _diagonal(m111, one_more)


# -- eval_t ---------------------------------------------------------------------

def test_eval_t_constant_unchanged():
    F = SymFunc(2, "M", {(2,): RF(5)})
    assert eval_t(F, 3) == F


def test_eval_t_pole():
    # 1/t + 1 is 3/2 at t = 2, which no coefficient over Z holds
    F = SymFunc(1, "M", {(1,): LaurentPoly.t(-1) + 1})
    assert eval_t(F.scale(2), 2).coeffs == {(1,): RF(3)}
    with pytest.raises(TypeError, match=r"^coefficient Fraction\(3, 2\) is not an int$"):
        eval_t(F, 2)
    with pytest.raises(PoleError):
        eval_t(F, 0)


def test_eval_t_specializes():
    F = SymFunc(1, "M", {(1,): T ** 2 + 4 * T + 1})
    assert eval_t(F, 2).coeffs == {(1,): RF(13)}
