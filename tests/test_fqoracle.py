from fractions import Fraction

import pytest

from chromaq.bridge import check_mesa
from chromaq.combinatorics import (
    IndiffGraph,
    SchroderPath,
    gen_dyck,
    gen_partitions,
    gen_tall_schroder,
    graph_of,
    indifference_graphs,
)
from chromaq.fqoracle import (
    PRIMES,
    ClassFnUT,
    UnipClassFn,
    MatrixFq,
    canonical_flag,
    centralizer_order,
    chi_bar,
    chi_super,
    delta_bar,
    delta_fn,
    flag_count,
    flag_reps,
    gl_matrices,
    gl_order,
    hessenberg_count,
    induce_to_GL,
    induce_trivial_from_subgroup,
    induction_table,
    inner_product_UT,
    jordan,
    mat_identity,
    mat_inv,
    mat_minus_identity,
    mat_mul,
    permutation_character_oracle,
    psi_pseudo,
    superclass_label,
    superclass_rep,
    superclass_sizes,
    ut_elements,
    ut_order,
    _centralizer_order,
    _conjugate_zero_masks,
    _hessenberg_masks,
    _jordan_type,
)
from chromaq.guards import SizeGuardError


def IG(n, *edges):
    return IndiffGraph(n, frozenset(edges))


# -- matrices --------------------------------------------------------------------

def test_matrix_roundtrip_digits():
    m = MatrixFq.from_digits("110010001", 3, 2)
    assert m.rows == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert MatrixFq.from_digits("".join(str(x) for r in m.rows for x in r), 3, 2) == m


def test_mat_inv():
    import itertools
    for q in (2, 3):
        for x in itertools.islice(gl_matrices(3, q), 0, 200, 7):
            xi = mat_inv(x, q)
            assert mat_mul(x, xi, q) == mat_identity(3)


def test_gl_order_matches_enumeration():
    assert sum(1 for _ in gl_matrices(2, 2)) == gl_order(2, 2) == 6
    assert sum(1 for _ in gl_matrices(2, 3)) == gl_order(2, 3) == 48
    assert sum(1 for _ in gl_matrices(3, 2)) == gl_order(3, 2) == 168


def test_ut_enumeration():
    assert sum(1 for _ in ut_elements(3, 2)) == ut_order(3, 2) == 8
    assert sum(1 for _ in ut_elements(4, 3)) == ut_order(4, 3) == 729


# -- jordan ----------------------------------------------------------------------

def test_jordan_identity():
    assert jordan((1, 1, 1), 2).rows == mat_identity(3)


def test_jordan_regular_block():
    j = jordan((3,), 5)
    assert j.rows == ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def test_jordan_nilpotency():
    n = mat_minus_identity(jordan((2,), 2).rows, 2)
    assert n == ((0, 1), (0, 0))
    assert mat_mul(n, n, 2) == ((0, 0), (0, 0))


def test_jordan_type_reads_back_jordan_matrices():
    for n in range(5):
        for lam in gen_partitions(n):
            for q in PRIMES:
                assert _jordan_type(jordan(lam, q).rows, q) == lam


# -- superclasses -------------------------------------------------------------------

def test_label_identity_is_complete():
    u = MatrixFq(2, mat_identity(4))
    assert superclass_label(u).edges == frozenset(
        (i, j) for i in range(1, 4) for j in range(i + 1, 5))


def test_label_full_superdiagonal_is_edgeless():
    rows = ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    assert superclass_label(MatrixFq(2, rows)).edges == frozenset()


def test_label_rejects_non_unipotent():
    with pytest.raises(ValueError):
        superclass_label(MatrixFq(3, ((2, 0), (0, 1))))


def test_regular_superclass_size_formula():
    # |UT^o_{edgeless}| = (q-1)^{n-1} |UT_n| / q^{n-1}
    for n, q in [(3, 2), (3, 3), (4, 2)]:
        sizes = superclass_sizes(n, q)
        edgeless = IG(n)
        assert sizes[edgeless] == (q - 1) ** (n - 1) * ut_order(n, q) // q ** (n - 1)


def test_superclass_sizes_partition_group():
    for n in (1, 2, 3, 4):
        for q in (2, 3):
            assert sum(superclass_sizes(n, q).values()) == ut_order(n, q)


def test_subgroup_order_from_sizes():
    # |UT_gamma| = sum of |UT_sigma^o| over sigma >= gamma
    for q in (2, 3):
        sizes = superclass_sizes(4, q)
        for gamma in indifference_graphs(4):
            total = sum(c for g, c in sizes.items() if gamma.edges <= g.edges)
            assert total == ut_order(4, q) // q ** len(gamma.edges)


def test_superclass_rep_labels():
    for n in (1, 2, 3, 4):
        for g in indifference_graphs(n):
            assert superclass_label(superclass_rep(g, 3)) == g


# -- class function basics -----------------------------------------------------------

def test_delta_bar_edgeless_is_constant_one():
    f = delta_bar(IG(3), 2)
    assert all(v == 1 for v in f.values)


def test_classfn_evaluation_at_element():
    # delta_bar(gamma) at u is the UT_gamma membership indicator
    q = 2
    gamma = IG(3, (1, 2))
    f = delta_bar(gamma, q)
    for u in ut_elements(3, q):
        m = MatrixFq(q, u)
        assert f.at(m) == (1 if u[0][1] == 0 else 0)
    with pytest.raises(ValueError):
        f.at(MatrixFq(3, mat_identity(3)))


def test_chi_bar_degree():
    # value at the identity superclass (complete graph) is q^{|E|}
    for q in (2, 3):
        for gamma in indifference_graphs(3):
            f = chi_bar(gamma, q)
            complete = IG(3, (1, 2), (2, 3), (1, 3))
            assert f(complete) == q ** len(gamma.edges)


def test_permtoind_against_coset_oracle():
    for q in (2, 3):
        for gamma in indifference_graphs(3):
            assert chi_bar(gamma, q) == permutation_character_oracle(gamma, q)


def test_coset_oracle_sweeps_ut_once_per_n_q():
    gammas = indifference_graphs(3)
    permutation_character_oracle(gammas[0], 3)
    before = _conjugate_zero_masks.cache_info()
    for gamma in gammas[1:]:
        permutation_character_oracle(gamma, 3)
    after = _conjugate_zero_masks.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + len(gammas) - 1
    # each representative is conjugated by every x in UT_3(F_3) exactly once
    assert all(sum(masks.values()) == ut_order(3, 3) for masks in _conjugate_zero_masks(3, 3).values())


def test_chi_super_mobius_roundtrip():
    q = 2
    for gamma in indifference_graphs(4):
        total = ClassFnUT.from_dict(4, q, {})
        for sigma in indifference_graphs(4):
            if sigma.edges <= gamma.edges:
                total = total + chi_super(sigma, q)
        assert total == chi_bar(gamma, q)


def test_supercharacter_orthogonality():
    for q in (2, 3):
        graphs = indifference_graphs(3)
        chis = {g: chi_super(g, q) for g in graphs}
        for g1 in graphs:
            for g2 in graphs:
                ip = inner_product_UT(chis[g1], chis[g2])
                if g1 != g2:
                    assert ip == 0
                else:
                    assert ip > 0


def test_inner_product_examples():
    q = 2
    n = 3
    e = IG(n)
    assert inner_product_UT(delta_fn(e, q), delta_fn(IG(n, (1, 2)), q)) == 0
    lhs = inner_product_UT(delta_bar(e, q), delta_fn(e, q)) * ut_order(n, q)
    assert lhs == superclass_sizes(n, q)[e]


def test_inner_product_mismatched():
    with pytest.raises(ValueError):
        inner_product_UT(delta_fn(IG(2), 2), delta_fn(IG(2), 3))


# -- pseudosupercharacters ------------------------------------------------------------

def test_psi_worked_example_signed_sum():
    # EDESS: Area = {{2,3}}, Diag = {{1,2}}
    sigma = SchroderPath("EDESS")
    q = 2
    psi = psi_pseudo(sigma, q)
    want = chi_bar(IG(3, (1, 2), (2, 3)), q) - chi_bar(IG(3, (2, 3)), q)
    assert psi == want


def test_psi_worked_example_supercharacter_sum():
    sigma = SchroderPath("EDESS")
    for q in (2, 3):
        psi = psi_pseudo(sigma, q)
        want = chi_super(IG(3, (1, 2)), q) + chi_super(IG(3, (1, 2), (2, 3)), q)
        assert psi == want


def test_psi_of_dyck_path_is_chi_bar():
    for q in (2, 3):
        for pi in gen_dyck(3):
            assert psi_pseudo(pi.as_schroder(), q) == chi_bar(graph_of(pi), q)


def test_psi_mesa_all_d3():
    for q in (2, 3):
        assert check_mesa(3, q).ok


def test_psi_mesa_extremes():
    # every Dyck path of size n, the edgeless and complete graphs among them
    for n in (2, 3, 4):
        assert check_mesa(n, 2).ok


# -- induction -------------------------------------------------------------------------

def test_induce_degree():
    # value at the identity class is |GL_n : UT_gamma|
    q = 2
    for gamma in indifference_graphs(3):
        ind = induce_to_GL(chi_bar(gamma, q))
        expected = Fraction(gl_order(3, q) * q ** len(gamma.edges), ut_order(3, q))
        assert ind((1, 1, 1)) == expected


def test_induce_trivial_small_case():
    # n = 2, q = 2, edgeless gamma: J_(2) has 2 conjugators into UT_2, |UT_2| = 2
    ind = induce_to_GL(chi_bar(IG(2), 2))
    assert ind((2,)) == 1
    assert ind((1, 1)) == Fraction(gl_order(2, 2), ut_order(2, 2)) == 3


def test_induce_zero():
    z = ClassFnUT.from_dict(2, 2, {})
    assert dict(induce_to_GL(z).items()) == {(2,): 0, (1, 1): 0}


def test_induce_linearity():
    q = 2
    f = chi_bar(IG(3, (1, 2)), q)
    g = chi_bar(IG(3, (2, 3)), q)
    combo = f.scale(Fraction(2, 3)) + g.scale(-5)
    lhs = induce_to_GL(combo)
    rhs = induce_to_GL(f).scale(Fraction(2, 3)) + induce_to_GL(g).scale(-5)
    assert lhs == rhs


def test_induce_transitivity_against_one_step_oracle():
    # the chi_bar span every superclass function, so agreeing on each of them
    # pins the whole UT_n-sweep table against the GL_n sweep
    points = [(1, q) for q in PRIMES] + [(2, q) for q in PRIMES] + [(3, 2)]
    for n, q in points:
        for gamma in indifference_graphs(n):
            assert induce_to_GL(chi_bar(gamma, q)) == induce_trivial_from_subgroup(gamma, q)
    # one sweep of |GL_3(F_3)| = 11232 elements per gamma
    edgeless, complete = IG(3), IG(3, (1, 2), (1, 3), (2, 3))
    for gamma in (edgeless, complete):
        assert induce_to_GL(chi_bar(gamma, 3)) == induce_trivial_from_subgroup(gamma, 3)


def test_induced_characters_have_integer_values():
    # chi_bar and psi_pseudo are genuine characters, so induction gives
    # algebraic integers; over Q that means plain integers
    for q in (2, 3):
        for gamma in indifference_graphs(3):
            for v in induce_to_GL(chi_bar(gamma, q)).values:
                assert v.denominator == 1
        for sigma in gen_tall_schroder(3):
            for v in induce_to_GL(psi_pseudo(sigma, q)).values:
                assert v.denominator == 1


def test_class_function_values_are_plain_numbers():
    # chi_bar, chi and psi are integer-valued, so they hold ints (never a
    # Fraction or a float); only induction divides, by |UT_n|
    for q in (2, 3):
        for n in (1, 2, 3):
            fns = [chi_bar(g, q) for g in indifference_graphs(n)]
            fns += [chi_super(g, q) for g in indifference_graphs(n)]
            fns += [psi_pseudo(s, q) for s in gen_tall_schroder(n)]
            for f in fns:
                assert all(type(v) is int for v in f.values), f
                assert all(type(v) in (int, Fraction) for v in induce_to_GL(f).values), f
    third = induce_to_GL(chi_bar(IG(2), 2).scale(Fraction(1, 3)))
    assert third.values == (Fraction(1, 3), 1) and type(third.values[1]) is int


def test_class_functions_take_a_tuple_or_from_dict():
    gamma = IG(2, (1, 2))
    f = ClassFnUT.from_dict(2, 2, {gamma: 5})
    assert f(gamma) == 5 and f(IG(2)) == 0
    assert dict(f.items()) == {IG(2): 0, gamma: 5}
    with pytest.raises(ValueError, match="from_dict"):
        ClassFnUT(2, 2, {gamma: 5})
    with pytest.raises(ValueError, match="from_dict"):
        UnipClassFn(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        UnipClassFn.from_dict(2, 2, {(3,): 1})


def test_induce_guard():
    # induction obeys the class-function bound n <= 4 for every q
    with pytest.raises(SizeGuardError):
        induce_to_GL(ClassFnUT.from_dict(5, 2, {}))


def test_regular_class_size():
    # |O_(n)| = |GL_n| / (q^{n-1}(q-1)) via centralizer enumeration
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        c = centralizer_order(jordan((n,), q))
        assert gl_order(n, q) // c == gl_order(n, q) // (q ** (n - 1) * (q - 1))
        assert c == q ** (n - 1) * (q - 1)


def test_centralizer_order_closed_form():
    for n in (1, 2, 3):
        for q in (2, 3):
            for lam in gen_partitions(n):
                assert _centralizer_order(lam, q) == centralizer_order(jordan(lam, q))


def test_induction_table_total_counts():
    # sanity: the identity class sees all of GL_n, labeled complete
    tbl = induction_table(2, 3)
    complete = IG(2, (1, 2))
    assert tbl[(1, 1)] == {complete: gl_order(2, 3)}


# -- flags and Hessenberg counts --------------------------------------------------------

def test_flag_counts():
    for n in (0, 1, 2, 3, 4):
        for q in (2, 3):
            assert sum(1 for _ in flag_reps(n, q)) == flag_count(n, q)


def test_flag_reps_are_canonical_and_coset_invariant():
    import random
    rnd = random.Random(7)
    q = 3
    n = 3
    reps = list(flag_reps(n, q))
    assert len(set(reps)) == len(reps)
    for rows in reps[:50]:
        m = MatrixFq(q, rows)
        assert canonical_flag(m).rows == rows
        # multiply by a random invertible upper-triangular on the right
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            b[i][i] = rnd.randrange(1, q)
            for j in range(i + 1, n):
                b[i][j] = rnd.randrange(q)
        mb = m * MatrixFq(q, tuple(tuple(r) for r in b))
        assert canonical_flag(mb).rows == rows


def brute_hessenberg_count(gamma, a):
    """Hessenberg point count by testing every flag gB on its own."""
    n, q = gamma.n, a.q
    edges0 = [(i - 1, j - 1) for i, j in gamma.sorted_edges()]
    count = 0
    for g in flag_reps(n, q):
        m = mat_mul(mat_mul(mat_inv(g, q), a.rows, q), g, q)
        if any(m[i][j] for i in range(n) for j in range(i + 1)):
            continue
        if any(m[i][j] for i, j in edges0):
            continue
        count += 1
    return count


def _nilpotent(lam, q):
    return MatrixFq(q, mat_minus_identity(jordan(lam, q).rows, q))


def test_hessenberg_sweep_matches_per_flag_oracle():
    for n in range(1, 4):
        for q in (2, 3):
            for lam in gen_partitions(n):
                a = _nilpotent(lam, q)
                for g in indifference_graphs(n):
                    assert hessenberg_count(g, a) == brute_hessenberg_count(g, a), (g, lam, q)
    a = _nilpotent((4,), 2)
    for g in indifference_graphs(4):
        assert hessenberg_count(g, a) == brute_hessenberg_count(g, a), g


def test_hessenberg_sweeps_once_per_matrix():
    a = _nilpotent((2, 1), 3)
    hessenberg_count(IG(3), a)
    misses = _hessenberg_masks.cache_info().misses
    for g in indifference_graphs(3):
        hessenberg_count(g, a)
    assert _hessenberg_masks.cache_info().misses == misses


def test_hessenberg_zero_matrix_counts_all_flags():
    z = MatrixFq(2, ((0, 0), (0, 0)))
    assert hessenberg_count(IG(2), z) == 3
    z3 = MatrixFq(3, tuple(tuple(0 for _ in range(3)) for _ in range(3)))
    assert hessenberg_count(IG(3), z3) == flag_count(3, 3)


def test_hessenberg_regular_nilpotent_edgeless():
    # the full flag fixed by a regular nilpotent is unique
    for n, q in [(2, 2), (3, 2), (3, 3)]:
        nilp = MatrixFq(q, mat_minus_identity(jordan((n,), q).rows, q))
        assert hessenberg_count(IG(n), nilp) == 1


def test_hessenberg_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        hessenberg_count(IG(2), MatrixFq(2, ((1, 0), (0, 1))))


def test_hessenberg_guard():
    with pytest.raises(SizeGuardError):
        hessenberg_count(IG(5), MatrixFq(2, tuple(tuple(0 for _ in range(5)) for _ in range(5))))
