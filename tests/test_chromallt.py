from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod

import pytest

from chromaq.bridge import check_palindromic
from chromaq.chromallt import (
    _color_sum,
    _h_vector,
    as_expansion,
    csf,
    d_coeffs,
    e_expansion_X,
    is_nonneg_int_poly,
    llt_vertical,
)
from chromaq.combinatorics import (
    DyckPath,
    SchroderPath,
    area,
    diag,
    gen_dyck,
    gen_partitions,
    gen_tall_schroder,
    mesa,
    path_of_graph,
)
from chromaq.exactnum import LaurentPoly
from chromaq.guards import SizeGuardError
from chromaq.symfunc import SymFunc, eval_t, expand_in_basis
from coloring_oracle import asc, color_by_vertex, color_sum, words
from orbit_oracle import check_symmetric, coeff, multiset_perms, orbit_monomials
from orientation_oracle import Orientation, as_expansion_powers, as_expansion_walk, hrv, type_of

T = LaurentPoly.t()
RF = LaurentPoly.const


def path3():
    return path_of_graph(3, frozenset({(1, 2), (2, 3)}))


# -- ascent statistic -----------------------------------------------------------

def test_asc_worked_example():
    g = path_of_graph(4, frozenset({(1, 2), (2, 3), (1, 3), (3, 4)}))
    assert asc(g, (2, 5, 1, 5)) == 2


def test_asc_edgeless():
    g = path_of_graph(5, frozenset())
    assert asc(g, (1, 2, 3, 4, 5)) == 0


def test_asc_complete_increasing():
    n = 4
    g = path_of_graph(n, frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1)))
    assert asc(g, tuple(range(1, n + 1))) == n * (n - 1) // 2


# -- chromatic quasisymmetric function ---------------------------------------------

def test_csf_path3_worked_example():
    X = csf(path3())
    assert coeff(X, (2, 1)) == T
    assert coeff(X, (1, 1, 1)) == T * T + 4 * T + 1
    assert coeff(X, (3,)) == RF(0)


def test_csf_prints_as_the_failure_witness_format():
    X = csf(DyckPath("EESESS"))
    assert X.basis == "M"
    assert str(X) == "(t)*m[2, 1] + (t^2+4*t+1)*m[1, 1, 1]"


def test_csf_single_vertex():
    X = csf(path_of_graph(1, frozenset()))
    assert X.coeffs == {(1,): LaurentPoly.const(1)}


def test_csf_single_edge():
    X = csf(path_of_graph(2, frozenset({(1, 2)})))
    assert X.coeffs == {(1, 1): 1 + T}


def test_csf_empty_graph_is_one():
    X = csf(path_of_graph(0, frozenset()))
    assert X.coeffs == {(): LaurentPoly.const(1)}


def test_llt_empty_path_is_one():
    G = llt_vertical(SchroderPath(""))
    assert G.coeffs == {(): LaurentPoly.const(1)}


def test_csf_guard():
    # the kernel's 3^n color classes: 3^10 = 59,049 run, 3^11 = 177,147 are past MAX_SWEEP
    with pytest.raises(SizeGuardError, match="the color classes of \\[11\\] visits 177,147 elements"):
        csf(path_of_graph(11, frozenset()))
    assert csf(path_of_graph(10, frozenset())).degree == 10


def test_csf_complete_graph_is_t_factorial_en_at_the_guard_edge():
    # X_{K_n} = [n]_t! e_n (Shareshian-Wachs), and e_n = m_{1^n}, to the last n the guard admits
    for n in range(11):
        g = path_of_graph(n, frozenset(combinations(range(1, n + 1), 2)))
        t_factorial = prod((LaurentPoly.from_terms(dict.fromkeys(range(i), 1))
                            for i in range(1, n + 1)), start=RF(1))
        assert csf(g).coeffs == {(1,) * n: t_factorial}, n


def test_csf_eval_at_two():
    X = eval_t(csf(path3()), 2)
    assert coeff(X, (2, 1)) == RF(2)
    assert coeff(X, (1, 1, 1)) == RF(13)


# -- vertical strip LLT ------------------------------------------------------------

def test_llt_eedss_worked_example():
    G = llt_vertical(SchroderPath("EEDSS"))
    assert coeff(G, (2, 1)) == T
    assert coeff(G, (1, 1, 1)) == T * T + 2 * T
    assert coeff(G, (3,)) == RF(0)


def test_llt_dyck_case_unrestricted():
    # with empty Diag every coloring contributes; total count is n^n
    G = llt_vertical(DyckPath("EESS"))
    total = sum(c.evaluate(1) * len(orbit_monomials(mu, 2)) for mu, c in G.coeffs.items())
    assert total == 4


def test_llt_staircase_of_diags_is_en():
    for n in range(1, 9):
        sigma = SchroderPath("E" + "D" * (n - 1) + "S")
        G = llt_vertical(sigma)
        assert G.coeffs == {tuple([1] * n): RF(1)}


def test_llt_rejects_non_tall():
    with pytest.raises(ValueError):
        llt_vertical(SchroderPath("DD"))


# -- orientation e-expansion ----------------------------------------------------

def test_as_expansion_single_vertex():
    F = as_expansion(SchroderPath("ES"))
    assert F.coeffs == {(1,): RF(1)}


def test_as_expansion_single_diag():
    F = as_expansion(SchroderPath("EDS"))
    assert F.coeffs == {(2,): RF(1)}


def test_as_expansion_matches_llt_ts3():
    for sigma in gen_tall_schroder(3):
        lhs = expand_in_basis(as_expansion(sigma), "M")
        assert lhs == llt_vertical(sigma), sigma


# -- palindromicity ---------------------------------------------------------------

def test_palindromicity_path3():
    # IG_3 contains the path 1-2-3
    assert check_palindromic(3) is None


def test_palindromicity_edgeless():
    # with |E| = 0 the identity says every coefficient of X is free of t
    X = csf(path_of_graph(4, frozenset()))
    assert all(c.subs_inv() == c for c in X.coeffs.values())


def test_palindromicity_ig4():
    assert check_palindromic(4) is None


# -- d-coefficients -------------------------------------------------------------

def test_d_coeffs_reconstruct():
    for n in (3, 4):
        for g in gen_dyck(n):
            d = d_coeffs(g)
            F = SymFunc(n, "PT", d)
            assert expand_in_basis(F, "M") == csf(g)


def test_d_coeffs_scaled_positive_ig4():
    for g in gen_dyck(4):
        shift = len(area(g))
        for lam, c in d_coeffs(g).items():
            assert is_nonneg_int_poly(c.shift(-shift)), (g, lam)


def test_d_coeffs_known_values_degree2():
    # edgeless on [2]: X = m_2 + 2 m_11 = PT_(2) + (t+1) PT_(1,1)
    g = path_of_graph(2, frozenset())
    d = d_coeffs(g)
    assert d[(2,)] == LaurentPoly.const(1)
    assert d[(1, 1)] == T + 1


# -- e-expansion -----------------------------------------------------------------

def test_e_expansion_path3_positive():
    F, bad = e_expansion_X(path3())
    assert bad == []


def test_e_expansion_complete_triangle():
    g = path_of_graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    F, bad = e_expansion_X(g)
    assert bad == []
    tfact = (1 + T) * (1 + T + T * T)
    assert F.coeffs == {(3,): tfact}


def test_e_expansion_edgeless_constant():
    g = path_of_graph(3, frozenset())
    F, bad = e_expansion_X(g)
    assert bad == []
    for c in F.coeffs.values():
        assert c.is_zero or (c.low == 0 and len(c.coeffs) == 1)


# -- the n^n oracle ---------------------------------------------------------------

def brute_force_table(n, asc_graph, differ=(), rise=()):
    """Full {exponent vector: coefficient} table over all n^n colorings of [n].

    Colorings must differ on `differ` and strictly increase on `rise`; each is
    scored with `asc` on `asc_graph`.
    """
    colors = range(1, n + 1)
    table = {}
    for kappa in product(colors, repeat=n):
        if any(kappa[i - 1] == kappa[j - 1] for i, j in differ) or \
                any(kappa[i - 1] >= kappa[j - 1] for i, j in rise):
            continue
        row = table.setdefault(tuple(map(kappa.count, colors)), Counter())
        row[asc(asc_graph, kappa)] += 1
    return {e: LaurentPoly.from_terms(row) for e, row in table.items()}


def orbit_representatives(n, table):
    return SymFunc(n, "M", {tuple(x for x in e if x): c for e, c in table.items()
                            if list(e) == sorted(e, reverse=True)})


def test_partition_content_kernel_matches_brute_force_tables():
    # csf/llt_vertical read only colorings of partition content, which is
    # exact because both are symmetric; the full tables must be symmetric and
    # agree with them on every orbit representative
    for n in range(6):
        for g in gen_dyck(n):
            table = brute_force_table(n, g, differ=area(g))
            assert check_symmetric(table, n), g
            assert orbit_representatives(n, table) == csf(g), g
        for sigma in gen_tall_schroder(n):
            table = brute_force_table(n, path_of_graph(n, area(sigma)), rise=diag(sigma))
            assert check_symmetric(table, n), sigma
            assert orbit_representatives(n, table) == llt_vertical(sigma), sigma


def test_cached_words_are_the_partition_content_words():
    for n in range(7):
        for mu in gen_partitions(n):
            word = tuple(c for c, m in enumerate(mu) for _ in range(m))
            assert set(words(mu)) == set(multiset_perms(word)), mu
            assert len(set(words(mu))) == len(words(mu)), mu


def test_coloring_in_place_matches_the_words_kernel():
    # the package colors vertex by vertex; the oracle lists every word of content mu
    for n in range(7):
        for g in gen_dyck(n):
            assert csf(g) == color_sum(n, area(g), differ=area(g)), g
    for n in range(6):
        for sigma in gen_tall_schroder(n):
            assert llt_vertical(sigma) == color_sum(n, area(sigma), rise=diag(sigma)), sigma


def test_color_classes_match_the_vertex_kernel():
    # the package counts by color classes; the oracle walks every coloring vertex by vertex
    for n in range(7):
        for g in gen_dyck(n):
            assert csf(g) == color_by_vertex(n, area(g), differ=area(g)), g
    for n in range(6):
        for sigma in gen_tall_schroder(n):
            assert llt_vertical(sigma) == color_by_vertex(n, area(sigma), rise=diag(sigma)), sigma
    for pi in gen_dyck(6):  # the unicellular paths, which no Diag edge prunes
        assert llt_vertical(pi) == color_by_vertex(6, area(pi)), pi


def test_edgeless_closed_form_at_the_guard_edge():
    # no enumerating oracle fits the test budget at n = 8, and the guard admits
    # n = 10: the edgeless graph counts every word of content mu, and (ES)^n has
    # no area and no diag, so its LLT polynomial is the edgeless X (K_n is checked above)
    for n in range(11):
        edgeless = csf(path_of_graph(n, frozenset()))
        assert edgeless.coeffs == {mu: RF(factorial(n) // prod(map(factorial, mu)))
                                   for mu in gen_partitions(n)}, n
        assert llt_vertical(SchroderPath("ES" * n)) == edgeless, n


def test_a_slot_overflow_trips_the_tripwire(monkeypatch):
    # 4 bits per power of t hold counts up to 15; the edgeless graph on [4]
    # has 24 colorings of content 1111, so the kernel raises instead of carrying
    import chromaq.chromallt as chromallt
    assert _color_sum(4, []) == csf(path_of_graph(4, frozenset()))
    monkeypatch.setattr(chromallt, "_slot_bits", lambda n: 4)
    with pytest.raises(ArithmeticError, match="content \\(1, 1, 1, 1\\) do not fit 4-bit slots"):
        _color_sum(4, [])


def orientation_of(sigma, mask):
    # bit k of mask set: the k-th sorted area edge points up; Diag edges always do
    arcs = set(diag(sigma))
    arcs.update((i, j) if mask >> k & 1 else (j, i) for k, (i, j) in enumerate(sorted(area(sigma))))
    return Orientation(path_of_graph(sigma.size, area(sigma) | diag(sigma)), frozenset(arcs))


def test_one_pass_hrv_matches_the_graph_search():
    for n in range(6):
        for sigma in gen_tall_schroder(n):
            a_edges, d_edges = sorted(area(sigma)), sorted(diag(sigma))
            up = [[] for _ in range(n)]
            for k, (i, j) in enumerate(a_edges + d_edges):
                up[i - 1].append((1 << k, j - 1))
            diag_up = (1 << (len(a_edges) + len(d_edges))) - (1 << len(a_edges))
            for mask in range(2 ** len(a_edges)):
                theta = orientation_of(sigma, mask)
                h = _h_vector(up, mask | diag_up)
                assert h == [hrv(theta, i) for i in range(1, n + 1)], (sigma, mask)
                assert tuple(sorted(Counter(h).values(), reverse=True)) == type_of(theta)


def test_as_expansion_matches_the_orientation_walk():
    for n in range(6):
        for sigma in gen_tall_schroder(n):
            assert as_expansion(sigma) == as_expansion_walk(sigma), sigma


def test_as_expansion_matches_the_sum_of_powers_of_t_minus_one():
    # the binomial rows added into integer lists, against m (t-1)^k added as polynomials
    for n in range(6):
        for sigma in gen_tall_schroder(n):
            assert as_expansion(sigma) == as_expansion_powers(sigma), sigma


def test_every_dyck_llt_matches_mesa_union():
    # Area(mesa) u Diag(mesa) = Area(pi) so both sides color the same graph
    for pi in gen_dyck(4):
        m = mesa(pi)
        assert area(m) | diag(m) == area(pi)
