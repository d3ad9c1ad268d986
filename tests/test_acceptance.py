"""Acceptance suite: every criterion is exact (rational/Laurent arithmetic,
tolerance zero) and prints one PASS line when it completes.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from fractions import Fraction

import pytest

from chromaq.bridge import (
    check_as,
    check_cm,
    check_cor66,
    check_cqs,
    check_gg,
    check_hess,
    check_llt,
    check_mesa,
    check_palindromic,
    check_permtoind,
    check_poincare,
    check_prop56,
    check_psi_decomp,
    check_st_en,
)
from chromaq.chromallt import csf, e_expansion_X, llt_vertical
from chromaq.combinatorics import (
    DyckPath,
    SchroderPath,
    area,
    diag,
    gen_dyck,
    gen_tall_schroder,
    mesa,
    path_of_graph,
)
from chromaq.exactnum import LaurentPoly
from chromaq.fqoracle import (
    chi_bar,
    chi_super,
    chi_bar as _chi_bar,
    induce_to_GL,
    psi_pseudo,
    superclass_sizes,
    ut_order,
)
from classfn_oracle import fn_scale, fn_sum, inner_product_UT
from coloring_oracle import asc
from orientation_oracle import Orientation, hrv, type_of
from test_bridge import three_step_p_one
from test_combinatorics import area_inverse

T = LaurentPoly.t()


def _report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_worked_examples():
    """Paper worked examples reproduce verbatim in under a second."""
    t0 = time.time()

    X = csf(path_of_graph(3, frozenset({(1, 2), (2, 3)})))
    assert X.coeffs == {(2, 1): T, (1, 1, 1): T * T + 4 * T + 1}

    G = llt_vertical(SchroderPath("EEDSS"))
    assert G.coeffs == {(2, 1): T, (1, 1, 1): T * T + 2 * T}

    assert area(SchroderPath("EESESS")) == frozenset({(1, 2), (2, 3)})
    assert diag(SchroderPath("EESESS")) == frozenset()
    assert area(SchroderPath("EEDSS")) == frozenset({(1, 2), (2, 3)})
    assert diag(SchroderPath("EEDSS")) == frozenset({(1, 3)})

    g4 = path_of_graph(4, frozenset({(1, 2), (2, 3), (1, 3), (3, 4)}))
    assert asc(g4, (2, 5, 1, 5)) == 2

    theta = Orientation(g4, frozenset({(2, 1), (1, 3), (3, 2), (3, 4)}))
    assert [hrv(theta, i) for i in range(1, 5)] == [4, 2, 4, 4]
    assert type_of(theta) == (3, 1)

    assert mesa(DyckPath("EESESSES")) == SchroderPath("EDDSES")

    sigma = SchroderPath("EDESS")
    q = 2
    psi = psi_pseudo(sigma, q)
    path3 = path_of_graph(3, frozenset({(1, 2), (2, 3)}))
    edge23 = path_of_graph(3, frozenset({(2, 3)}))
    edge12 = path_of_graph(3, frozenset({(1, 2)}))
    assert psi == fn_sum(chi_bar(path3, q), fn_scale(chi_bar(edge23, q), -1))
    assert psi == fn_sum(chi_super(edge12, q), chi_super(path3, q))

    elapsed = time.time() - t0
    assert elapsed < 1.0, f"worked examples took {elapsed:.2f}s"
    _report(f"1 worked-examples: PASS ({elapsed * 1000:.0f} ms)")


def test_criterion_2_cqs():
    """Theorem: induced permutation characters realize (q-1)^n X_gamma(x;q)."""
    for q in (2, 3):
        for n in (1, 2, 3):
            assert check_cqs(n, q) is None
    assert check_cqs(4, 2) is None
    _report("2 check_cqs (n<=3, q in {2,3}; n=4, q=2): PASS")


def test_criterion_3_hessenberg():
    """Induced values count Hessenberg points; counts match d-coefficients."""
    for q in (2, 3):
        for n in (1, 2, 3):
            assert check_hess(n, q) is None
            assert check_poincare(n, q) is None
    _report("3 check_hess + check_poincare (n<=3, q in {2,3}): PASS")


def test_criterion_4_llt():
    """Pseudosupercharacters induce to (q-1)^{|Diag|} omega G_sigma(x;q)."""
    for q in (2, 3):
        for n in (1, 2, 3):
            assert check_llt(n, q) is None
    _report("4 check_llt (n<=3, q in {2,3}): PASS")


def test_criterion_5_superclass_identities():
    """psi decomposition, mesa supercharacters, and the permutation-character formula."""
    for q in (2, 3):
        for n in (1, 2, 3, 4):
            assert check_psi_decomp(n, q) is None
            assert check_mesa(n, q) is None
            assert check_permtoind(n, q) is None
    _report("5 check_psi_decomp + check_mesa + check_permtoind (n<=4, q in {2,3}): PASS")


def test_criterion_6_transformations():
    """LLT transformation identities and the plethysm bridge, symbolically in t."""
    for n in (1, 2, 3, 4):
        assert check_prop56(n) is None
        assert check_cm(n) is None
    _report("6 check_prop56 + check_cm (n<=4, symbolic): PASS")


def test_criterion_7_orientation_expansion():
    """Orientation e-expansion equals the coloring LLT polynomial, symbolically."""
    for n in (1, 2, 3, 4):
        assert check_as(n) is None
    _report("7 check_as (n<=4, symbolic): PASS")


def test_criterion_8_structural_facts():
    """e_n = q^{binom(n,2)} PT_{(1^n)}; Gelfand-Graev image; orientation corollary."""
    for n in range(1, 7):
        assert check_st_en(n) is None
    for q in (2, 3):
        for n in (1, 2, 3):
            assert check_gg(n, q) is None
        assert check_cor66(3, q) is None
    _report("8 check_st_en (n<=6) + check_gg (n<=3) + check_cor66 (n=3): PASS")


def test_criterion_9_property_suites():
    """Counting, bijection, orthogonality, size, symmetry, palindromicity,
    and positivity observations."""
    # path counts
    assert [len(gen_dyck(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [len(gen_tall_schroder(n)) for n in range(5)] == [1, 1, 3, 11, 45]

    # bijection round trips
    for n in range(6):
        for pi in gen_dyck(n):
            assert area_inverse(area(pi), n) == pi

    # supercharacter orthogonality
    for q in (2, 3):
        chis = {g: chi_super(g, q) for g in gen_dyck(3)}
        for g1, c1 in chis.items():
            for g2, c2 in chis.items():
                ip = inner_product_UT(c1, c2)
                assert (ip == 0) == (g1 != g2)

    # superclass sizes partition the group
    for q in (2, 3):
        for n in (1, 2, 3, 4):
            assert sum(superclass_sizes(n, q).values()) == ut_order(n, q)

    # symmetry of every X and G coefficient table (construction asserts it)
    for n in range(6):
        for g in gen_dyck(n):
            csf(g)
        for sigma in gen_tall_schroder(n):
            llt_vertical(sigma)

    # palindromicity across IG_5
    assert check_palindromic(5) is None

    # observed Schur positivity of induced pseudosupercharacter images, in the
    # paper's form omega (p_brace1)[x/(q-1)], through the oracle over Q
    for q in (2, 3):
        for sigma in gen_tall_schroder(3):
            F = three_step_p_one(induce_to_GL(psi_pseudo(sigma, q)))
            assert all(c.denominator == 1 and c >= 0 for c in F.values())

    # e-positivity of X_gamma: open conjecture, observations reported only
    violations = []
    for n in range(1, 6):
        for g in gen_dyck(n):
            _, bad = e_expansion_X(g)
            if bad:
                violations.append((g, bad))
    msg = "none" if not violations else f"{len(violations)} instances: {violations}"
    _report(f"9 property-suites: PASS (e-positivity violations observed: {msg})")
