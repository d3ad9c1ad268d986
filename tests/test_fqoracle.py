import re
from collections import Counter
from itertools import chain, combinations, product
from operator import mul
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaq.bridge import check_mesa
from chromaq.combinatorics import (
    SchroderPath,
    _between,
    area,
    diag,
    gen_dyck,
    gen_partitions,
    gen_tall_schroder,
    path_of_graph,
)
from chromaq.fqoracle import (
    PRIMES,
    ClassFnUT,
    UnipClassFn,
    chi_super,
    hessenberg_count,
    induce_to_GL,
    induction_table,
    nilpotent_type,
    permutation_character_oracle,
    psi_pseudo,
    superclass_sizes,
    ut_elements,
    ut_order,
    _centralizer_order,
    _column_ranks,
    _hessenberg_counts,
    _label,
    _lattice,
    _Packed,
    _strip_counts,
    _upset_sum,
    _zero_mask,
    require_restrictions,
)
from chromaq.guards import MAX_SWEEP, SizeGuardError
from classfn_oracle import class_fn, delta_bar, fn_scale, fn_sum, inner_product_UT, upset_sum_by_scan
import matrix_oracle
from mobius_oracle import mobius_subgraph
from matrix_oracle import (
    _conjugate_masks,
    _conjugation_terms,
    _jordan_nilpotents,
    _superclass_nilpotents,
    canonical_flag,
    centralizer_orders,
    column_ranks_by_elimination,
    coset_permutation_character,
    eliminate,
    fibre_size,
    flag_count,
    flag_reps,
    flag_rows,
    gl_elements,
    gl_matrices,
    gl_order,
    hessenberg_sweep,
    induce_by_the_walk,
    induce_trivial_from_subgroup,
    inverse_columns,
    jordan,
    jordan_nilpotent,
    jordan_type,
    label_edges,
    mat_identity,
    mat_inv,
    mat_minus_identity,
    mat_mul,
    pack,
    require_fibres,
    springer_fibre,
    springer_tally,
    unpack,
    ut_rows,
)


def IG(n, *edges):
    return path_of_graph(n, frozenset(edges))


def label_graph(zeros, n):
    """The graph on [n] whose Hessenberg function `_label` reads off a zero mask."""
    return gen_dyck(n)[_lattice(n)[1][_label(zeros, n)]]


def digits(rows):
    """The --matrix string of a matrix: its entries, row by row."""
    return "".join(map(str, chain.from_iterable(rows)))


# -- matrices --------------------------------------------------------------------

def test_matrix_roundtrip_digits():
    # --matrix lists the entries row by row: a matrix that is not nilpotent comes
    # back in the error row for row, and each J_lam - 1 reads back lam
    for q, rows in [(2, ((1, 1, 0), (0, 1, 0), (0, 0, 1))), (5, ((0, 4, 1), (0, 0, 3), (2, 0, 0)))]:
        with pytest.raises(ValueError, match=re.escape(f"got {rows}")):
            nilpotent_type(digits(rows), 3, q)
    assert digits(((1, 1, 0), (0, 1, 0), (0, 0, 1))) == "110010001"
    for n in range(1, 5):
        for lam in gen_partitions(n):
            for q in (2, 3):
                assert nilpotent_type(digits(mat_minus_identity(jordan(lam), q)), n, q) == lam


def test_mat_inv():
    import itertools
    for q in (2, 3):
        for x in itertools.islice(gl_matrices(3, q), 0, 200, 7):
            xi = mat_inv(x, q)
            assert mat_mul(x, xi, q) == mat_identity(3)
            cols = inverse_columns(_Packed(3, q), pack(x))
            assert sum(c << 8 * k for k, c in enumerate(cols)) == pack(xi)


# -- the packed kernel against the tuple oracle --------------------------------------

@st.composite
def matrices(draw, n=None, q=None):
    """An n x n matrix over F_q, n <= 7; small entries and the extremes 0 and q - 1 are likely."""
    q = draw(st.sampled_from(PRIMES)) if q is None else q
    n = draw(st.integers(min_value=0, max_value=7)) if n is None else n
    entry = st.one_of(st.integers(0, q - 1), st.sampled_from((0, q - 1)))
    return q, tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_kernel_matches_the_tuple_oracle(data):
    q, a = data.draw(matrices())
    n = len(a)
    _, b = data.draw(matrices(n, q))
    k = _Packed(n, q)
    assert k.unpack(pack(a)) == unpack(pack(a), n) == a
    assert k.mul(pack(a), pack(b)) == pack(mat_mul(a, b, q))
    assert k.rank(pack(a)) == matrix_oracle.rank(a, q)
    if matrix_oracle.rank(a, q) == n:
        cols = inverse_columns(k, pack(a))
        assert sum(c << 8 * j for j, c in enumerate(cols)) == pack(mat_inv(a, q))
        # a unipotent conjugate that is not upper triangular reads every rank
        lam = data.draw(st.sampled_from(gen_partitions(n)))
        v = mat_mul(mat_mul(mat_inv(a, q), jordan(lam), q), a, q)
        assert k.jordan_type(pack(v)) == lam
    else:
        with pytest.raises(ValueError, match="singular"):
            inverse_columns(k, pack(a))
    # 1 + a is unipotent iff a is nilpotent, the test nilpotent_type makes
    power = mat_identity(n)
    for _ in range(n):
        power = mat_mul(power, a, q)
    one_plus_a = k.reduce(pack(a) + k.one, n * n)
    if k.rank(pack(power)) == 0:
        assert k.jordan_type(one_plus_a) == matrix_oracle.jordan_type(k.unpack(one_plus_a), q)
    else:
        with pytest.raises(ValueError, match="not unipotent"):
            k.jordan_type(one_plus_a)
    # the unipotent upper triangular matrix with a's entries above the diagonal
    u = tuple(tuple(1 if i == j else a[i][j] if j > i else 0 for j in range(n)) for i in range(n))
    assert k.jordan_type(pack(u)) == matrix_oracle.jordan_type(u, q)


def test_no_carry_bound_is_exact_and_no_admitted_sweep_reaches_it():
    for q in PRIMES:
        # at the bound, (a row of q - 1s) times (a column of q - 1s) is n(q-1)^2 <= 255
        n = 255 // (q - 1) ** 2
        row = pack(tuple(tuple(q - 1 if i == 0 else 0 for _ in range(n)) for i in range(n)))
        col = pack(tuple(tuple(q - 1 if j == 0 else 0 for j in range(n)) for _ in range(n)))
        assert _Packed(n, q).mul(row, col) == n * (q - 1) ** 2 % q
        # one past it the kernel refuses; it is a raised error, not an assert
        with pytest.raises(OverflowError, match="would carry"):
            _Packed(n + 1, q)
        # every sweep the guard admits stays below the bound, and the conjugates
        # of its targets (each J_lam - 1 and superclass u - 1) are sums that cannot carry
        for size in (ut_order, gl_order, flag_count):
            m = 0
            while size(m + 1, q) <= MAX_SWEEP:
                m += 1
            assert m < n, (size.__name__, q)
            _Packed(m, q)
            for a in _superclass_nilpotents(m) + _jordan_nilpotents(m):
                terms = _conjugation_terms(_Packed(m, q), a)
                assert len(terms) * (q - 1) ** 2 <= 255, (size.__name__, q, a)


def eliminate_against_the_oracle(a, q):
    """Reduce the rows of a by the walk's tagged elimination, row i tagged with e_i
    in byte n + i, and check the steps against the tuple rank and the package's
    pivots-only rank: the pivots count the rank, the first k steps are the rank
    of the last k rows, and each None step's tag v has v.a = 0."""
    n = len(a)
    k = _Packed(n, q)
    steps = eliminate(k, [pack((r,)) | 1 << 8 * (n + i) for i, r in enumerate(a)], 2 * n)
    pivots = [sh is not None for sh, _ in steps]
    assert sum(pivots) == k.rank(pack(a)), a
    for length in range(n + 1):  # the whole of a at length n
        assert sum(pivots[:length]) == matrix_oracle.rank(a[n - length:], q), (a, length)
    for sh, p in steps:
        if sh is None:
            v = tuple((p >> 8 * n).to_bytes(n, "little"))
            assert any(v) and mat_mul((v,), a, q) == ((0,) * n,), (a, v)


def test_eliminate_matches_the_tuple_rank():
    import random
    from itertools import product
    for q in (2, 3):
        for n in range(4):
            for entries in product(range(q), repeat=n * n):
                eliminate_against_the_oracle(tuple(zip(*[iter(entries)] * n)) if n else (), q)
    # over F_5 and F_7 a random matrix is almost always invertible, so half the
    # samples are x.d with d zero past a random row, of rank at most that row
    rnd = random.Random(28)
    for n, q in ((5, 5), (7, 7)):
        for trial in range(200):
            a = tuple(tuple(rnd.randrange(q) for _ in range(n)) for _ in range(n))
            if trial % 2:
                r = rnd.randrange(n)
                d = tuple(row if i < r else (0,) * n for i, row in enumerate(a))
                a = mat_mul(tuple(tuple(rnd.randrange(q) for _ in range(n)) for _ in range(n)), d, q)
            eliminate_against_the_oracle(a, q)


def test_column_count_calls_no_packed_kernel(monkeypatch):
    # the ranks are read off Hessenberg functions: check_permtoind runs with the
    # packed kernel gone, from a table built afresh
    import chromaq.fqoracle as fq
    from chromaq.bridge import check_permtoind

    def no_kernel(*args):
        raise AssertionError("the column count built a packed kernel")

    monkeypatch.setattr(fq, "_Packed", no_kernel)
    _column_ranks.cache_clear()
    assert check_permtoind(5, 3) is None
    assert _column_ranks.cache_info().misses == 1


def test_column_ranks_do_not_depend_on_q():
    # the elimination of each column system over F_q, the oracle, against the
    # ranks read off the heights of the columns: the systems are interval
    # matrices, so their ranks and solvability do not depend on q
    for n in range(8):
        for q in PRIMES:
            assert column_ranks_by_elimination(n, q) == _column_ranks(n), (n, q)


def widened(tallies):
    """Zero patterns with bit i*n + j moved to bit 8(i*n + j), the packed layout."""
    return tuple(Counter({sum(1 << 8 * b for b in range(mask.bit_length()) if mask >> b & 1): c
                          for mask, c in masks.items()}) for masks in tallies)


def test_conjugate_masks_match_the_tuple_oracle():
    # the package's packed sweep on one side, the oracle's row tuples on the other
    points = [(packed, rows, n, q) for packed, rows in ((flag_reps, flag_rows), (ut_elements, ut_rows))
              for n, q in [(n, q) for n in range(4) for q in PRIMES] + [(4, 2), (4, 3)]]
    points += [(gl_elements, gl_matrices, n, q)
               for n, q in [(2, q) for q in PRIMES] + [(3, 2), (3, 3)]]
    for packed, rows, n, q in points:
        targets = _superclass_nilpotents(n) if packed is ut_elements else _jordan_nilpotents(n)
        want = matrix_oracle.conjugate_masks(rows, n, q, tuple(unpack(a, n) for a in targets))
        assert _conjugate_masks(packed, n, q, targets) == widened(want), (packed.__name__, n, q)


def test_packed_sweeps_equal_the_oracle_rows():
    # element for element and in order: every point with n <= 4 that the guard
    # admits (all but the 182,400 flags of F_7^4), and (5,2)
    points = [(n, q) for n in range(5) for q in PRIMES] + [(5, 2)]
    for packed, rows, size in ((ut_elements, ut_rows, ut_order), (flag_reps, flag_rows, flag_count)):
        for n, q in points:
            if size(n, q) <= MAX_SWEEP:
                assert list(packed(n, q)) == [pack(x) for x in rows(n, q)], (packed.__name__, n, q)


def test_conjugate_masks_of_targets_that_could_carry():
    # over F_7 the first target is 18 terms of up to (q-1)^2 = 36 each, which could
    # carry: the kernel refuses it with a raised error, not an assert.  The other
    # two are sums of terms with entries past 1.  All three reach hessenberg_count
    # only through their Jordan types.
    carry = ((0, 6, 6), (0, 0, 6), (0, 0, 0))
    with pytest.raises(OverflowError, match=re.escape(f"would carry between bytes: {carry}")):
        _conjugation_terms(_Packed(3, 7), pack(carry))
    sums = [(5, ((0, 4, 4), (0, 0, 0), (0, 0, 0))), (7, ((0, 6, 0), (0, 0, 0), (0, 0, 0)))]
    for q, a in sums:
        targets = (pack(a), jordan_nilpotent((2, 1)))
        for packed, rows in ((flag_reps, flag_rows), (ut_elements, ut_rows)):
            want = matrix_oracle.conjugate_masks(rows, 3, q, (a, unpack(targets[1], 3)))
            assert _conjugate_masks(packed, 3, q, targets) == widened(want), (packed.__name__, q, a)
    for q, a in [(7, carry), *sums]:
        graphs = gen_dyck(3)
        got = [hessenberg_count(g, nilpotent_type(digits(a), 3, q), q) for g in graphs]
        assert got == brute_hessenberg_counts(a, q, graphs), (q, a)


def test_induction_table_matches_the_tuple_oracle():
    for n, q in [(3, q) for q in PRIMES] + [(4, 2), (4, 3), (5, 2)]:
        assert induction_table(n, q) == matrix_oracle.induction_table(n, q), (n, q)


def test_gl_order_matches_enumeration():
    assert sum(1 for _ in gl_matrices(2, 2)) == gl_order(2, 2) == 6
    assert sum(1 for _ in gl_matrices(2, 3)) == gl_order(2, 3) == 48
    assert sum(1 for _ in gl_matrices(3, 2)) == gl_order(3, 2) == 168


def test_ut_enumeration():
    assert sum(1 for _ in ut_elements(3, 2)) == ut_order(3, 2) == 8
    assert sum(1 for _ in ut_elements(4, 3)) == ut_order(4, 3) == 729


# -- jordan ----------------------------------------------------------------------

def test_jordan_identity():
    assert jordan((1, 1, 1)) == mat_identity(3)
    assert unpack(jordan_nilpotent((1, 1, 1)), 3) == ((0,) * 3,) * 3


def test_jordan_regular_block():
    j = jordan((3,))
    assert j == ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    assert unpack(jordan_nilpotent((3,)), 3) == ((0, 1, 0), (0, 0, 1), (0, 0, 0))


def test_jordan_nilpotency():
    n = mat_minus_identity(jordan((2,)), 2)
    assert n == ((0, 1), (0, 0)) == unpack(jordan_nilpotent((2,)), 2)
    assert mat_mul(n, n, 2) == ((0, 0), (0, 0))
    # J_lam - 1, written down directly, is the Jordan matrix less the identity over every F_q
    for m in range(7):
        for lam in gen_partitions(m):
            for q in PRIMES:
                assert jordan_nilpotent(lam) == pack(mat_minus_identity(jordan(lam), q))
    assert jordan_nilpotent((2, 1, 3)) == pack(mat_minus_identity(jordan((2, 1, 3)), 3))


def test_jordan_type_reads_back_jordan_matrices():
    for n in range(5):
        for lam in gen_partitions(n):
            for q in PRIMES:
                assert _Packed(n, q).jordan_type(pack(jordan(lam))) == lam


def test_jordan_type_rejects_non_unipotent_after_n_plus_one_ranks():
    # u - 1 = 1 and u - 1 = diag(1, 0): the ranks of (u-1)^k stall at 2 and at 1
    for u in (((2, 0), (0, 2)), ((2, 0), (0, 1))):
        with pytest.raises(ValueError, match=re.escape(str(u))):
            _Packed(2, 3).jordan_type(pack(u))
    assert _Packed(3, 3).jordan_type(pack(((1, 1, 0), (0, 1, 1), (0, 0, 1)))) == (3,)


# -- superclasses -------------------------------------------------------------------

def test_label_identity_is_complete():
    u = mat_identity(4)
    complete = frozenset((i, j) for i in range(1, 4) for j in range(i + 1, 5))
    assert _label(_zero_mask(pack(u), 16, 2), 4) == (0, 0, 0, 0)
    assert area(label_graph(_zero_mask(pack(u), 16, 2), 4)) == label_edges(u, 4) == complete


def test_label_full_superdiagonal_is_edgeless():
    rows = ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    assert _label(_zero_mask(pack(rows), 9, 2), 3) == (0, 1, 2)
    assert area(label_graph(_zero_mask(pack(rows), 9, 2), 3)) == label_edges(rows, 3) == frozenset()


def test_label_matches_the_tuple_oracle_on_every_zero_mask():
    # every zero pattern above the diagonal for n <= 5: 1,024 masks at n = 5
    for n in range(6):
        places = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for ones in range(1 << len(places)):
            u = [list(r) for r in mat_identity(n)]
            for k, (i, j) in enumerate(places):
                u[i][j] = ones >> k & 1
            u = tuple(map(tuple, u))
            assert area(label_graph(_zero_mask(pack(u), n * n, 2), n)) == label_edges(u, n), u


def test_label_rejects_non_unipotent(monkeypatch):
    # the label of each superclass representative is read back, and a wrong one
    # raises (not an assert, which python -O would drop)
    monkeypatch.setattr(matrix_oracle, "label_edges", lambda u, n: frozenset())
    with pytest.raises(AssertionError, match="has another label"):
        _superclass_nilpotents.__wrapped__(3)


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
        for gamma in gen_dyck(4):
            total = sum(c for g, c in sizes.items() if area(gamma) <= area(g))
            assert total == ut_order(4, q) // q ** len(area(gamma))


def test_superclass_rep_labels():
    # each u - 1 written down is the nilpotent part of a u whose oracle label is
    # its graph, and whose label in the package is the graph's Hessenberg function
    for n in (1, 2, 3, 4):
        for g, a in zip(gen_dyck(n), _superclass_nilpotents(n), strict=True):
            u = pack(mat_identity(n)) + a
            assert path_of_graph(n, label_edges(unpack(u, n), n)) == g
            assert _label(_zero_mask(u, n * n, 3), n) == g.h


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
        label = label_graph(_zero_mask(u, 9, q), 3)
        assert f(label) == (1 if u >> 8 & 255 == 0 else 0)


def test_chi_bar_degree():
    # value at the identity superclass (complete graph) is q^{|E|}
    for q in (2, 3):
        for gamma in gen_dyck(3):
            f = psi_pseudo(gamma, q)
            complete = IG(3, (1, 2), (2, 3), (1, 3))
            assert f(complete) == q ** len(area(gamma))


def test_permtoind_against_coset_oracle():
    # every gamma wherever the UT_n sweep is cheap; the 15,625 elements of
    # UT_4(F_5) would add about 0.6 s
    points = [(n, q) for n in range(4) for q in PRIMES] + [(4, 2), (4, 3), (5, 2)]
    for n, q in points:
        for gamma in gen_dyck(n):
            assert psi_pseudo(gamma, q) == permutation_character_oracle(gamma, q) \
                == coset_permutation_character(gamma, q), (gamma, q)


def test_column_count_reads_its_ranks_once_per_n_q_and_sweeps_nothing(monkeypatch):
    import chromaq.fqoracle as fq

    def no_sweep(*args):
        raise AssertionError("the column count swept UT_n")

    monkeypatch.setattr(fq, "ut_elements", no_sweep)
    gammas = gen_dyck(5)
    _column_ranks.cache_clear()
    for q in PRIMES:
        for gamma in gammas:
            # |UT_5(F_3)| = 59,049: the sweep would conjugate each of 42 representatives by each
            assert permutation_character_oracle(gamma, q) == psi_pseudo(gamma, q), (gamma, q)
    # one table at n = 5 serves all four q
    info = _column_ranks.cache_info()
    assert (info.misses, info.hits) == (1, len(PRIMES) * len(gammas) - 1)
    # one tuple per superclass, with one entry per column j and m < j
    assert [len(ranks) for ranks in _column_ranks(5)] == [15] * len(gammas)


def test_coset_oracle_sweeps_ut_once_per_n_q():
    gammas = gen_dyck(3)
    coset_permutation_character(gammas[0], 3)
    before = _conjugate_masks.cache_info()
    for gamma in gammas[1:]:
        coset_permutation_character(gamma, 3)
    after = _conjugate_masks.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + len(gammas) - 1
    # each u - 1 is conjugated by every x in UT_3(F_3) exactly once
    tallies = _conjugate_masks(ut_elements, 3, 3, _superclass_nilpotents(3))
    assert _conjugate_masks.cache_info().misses == before.misses
    assert all(sum(masks.values()) == ut_order(3, 3) for masks in tallies)


def test_coset_oracles_refuse_a_count_that_is_no_union_of_cosets(monkeypatch):
    # one tallied conjugate in every pattern: 1 is no multiple of |UT_gamma|
    def one_everywhere(sweep, n, q, targets):
        return tuple(Counter({-1: 1}) for _ in targets)

    monkeypatch.setattr(matrix_oracle, "_conjugate_masks", one_everywhere)
    for oracle in (coset_permutation_character, induce_trivial_from_subgroup):
        with pytest.raises(AssertionError, match="not a union of UT_gamma cosets"):
            oracle(IG(3), 3)


def test_chi_super_mobius_roundtrip():
    q = 2
    k6 = IG(6, *[(i, j) for i in range(1, 7) for j in range(i + 1, 7)])  # 15 edges
    for gamma in gen_dyck(4) + (k6,):
        n = gamma.size
        total = fn_sum(*(chi_super(sigma, q) for sigma in gen_dyck(n)
                         if area(sigma) <= area(gamma)))
        assert total == psi_pseudo(gamma, q)



def psi_graph_terms(sigma, q):
    """The terms of psi^sigma as graphs: Area u S for each S in Diag, built from
    frozensets, with (-1)^{|Diag - S|} q^{|Area u S|}."""
    a, d = area(sigma), sorted(diag(sigma))
    return [(g, (-1) ** (len(d) - k) * q ** len(area(g))) for k in range(len(d) + 1)
            for g in (path_of_graph(sigma.size, a | set(s)) for s in combinations(d, k))]


def graph_term_lists(n, q):
    """(package value, its terms as graphs) for every chi_super and psi_pseudo at n: psi
    of a Dyck path is chi_bar, its one term the graph."""
    for g in gen_dyck(n):
        yield chi_super(g, q), [(s, mu * q ** len(area(s))) for s, mu in mobius_subgraph(g).items()]
    for sigma in gen_tall_schroder(n):
        yield psi_pseudo(sigma, q), psi_graph_terms(sigma, q)


def h_terms(terms):
    return sorted((g.h, c) for g, c in terms)


def captured_terms(monkeypatch):
    """Make _upset_sum record the terms it is given, sorted, instead of summing them."""
    import chromaq.fqoracle as fq

    seen = []
    monkeypatch.setattr(fq, "_upset_sum", lambda n, q, terms: seen.append(sorted(terms)))
    return seen


def test_lattice_upsets_match_the_scan():
    # each upset lists by position exactly the graphs that the frozenset scan finds
    for n in range(8):
        hs, pos, upsets = _lattice(n)
        graphs = gen_dyck(n)
        assert hs == tuple(path_of_graph(n, area(g)).h for g in graphs)
        assert pos == {h: i for i, h in enumerate(hs)}
        for g, up in zip(graphs, upsets, strict=True):
            scan = upset_sum_by_scan(n, 2, [(g, 1)]).values
            assert sorted(up) == [i for i, v in enumerate(scan) if v], g


def test_lattice_lists_the_walk_of_hessenberg_functions():
    # the graphs on [n], in the order of gen_dyck, are the h of the walk in its order
    for n in range(1, 9):
        assert _lattice(n)[0] == tuple(_between((0,) * n, tuple(range(n)))), n


def test_upset_sum_matches_the_scan_on_every_term_list():
    # the oracle's graph terms, summed by the lists and by the scan, give the package's value
    for n in range(7):
        for q in (2, 7):
            for value, terms in graph_term_lists(n, q):
                assert _upset_sum(n, q, h_terms(terms)) == upset_sum_by_scan(n, q, terms) == value


def test_chi_super_terms_are_the_mobius_terms(monkeypatch):
    seen = captured_terms(monkeypatch)
    for n in range(7):
        for gamma in gen_dyck(n):
            chi_super(gamma, 3)
            mob = [(s, mu * 3 ** len(area(s))) for s, mu in mobius_subgraph(gamma).items()]
            assert seen.pop() == h_terms(mob), gamma


def test_psi_pseudo_terms_are_the_frozenset_terms(monkeypatch):
    seen = captured_terms(monkeypatch)
    for n in range(7):
        for sigma in gen_tall_schroder(n):
            psi_pseudo(sigma, 3)
            assert seen.pop() == h_terms(psi_graph_terms(sigma, 3)), sigma


def test_psi_pseudo_refuses_a_term_outside_the_lattice():
    # a Diag cell {1, 3} over Area {{2, 3}}, without {1, 2}: h(Area u Diag) = (0, 1, 0)
    # is no Hessenberg function, and the error names the path
    sigma = object.__new__(SchroderPath)
    sigma._set("EDESS", size=3, h=(0, 1, 0), D=(2,))
    with pytest.raises(AssertionError, match="interval closure for EDESS"):
        psi_pseudo(sigma, 2)


def test_a_wrong_corner_rule_is_caught(monkeypatch):
    # negative controls for the index arithmetic of chi_super
    import chromaq.fqoracle as fq

    assert check_mesa(4, 2) is None
    # every column with an edge taken for a corner: a column j that is no corner
    # has h_{j+1} = h_j, so lifting it alone leaves the lattice (K_4 first)
    monkeypatch.setattr(fq, "_corners", lambda h: [j for j, x in enumerate(h) if x < j])
    with pytest.raises(KeyError):
        check_mesa(4, 2)
    # the last column never taken: every term is a graph, but too few of them
    monkeypatch.setattr(fq, "_corners", lambda h: [j for j, (x, y) in enumerate(zip(h, h[1:]))
                                                   if x < j and x < y])
    assert check_mesa(4, 2) is not None


def test_check_mesa_fails_when_the_last_corner_is_dropped_everywhere(monkeypatch):
    # mesa finds the tall peaks on its own walk of the steps: with the last corner
    # of each h dropped in every module that reads _corners, chi_super loses terms
    # that the mesa side keeps.  Were mesa to read _corners, both would lose them
    import chromaq.combinatorics as comb
    import chromaq.fqoracle as fq

    corners = comb._corners
    for module in (comb, fq):
        monkeypatch.setattr(module, "_corners", lambda h: corners(h)[:-1])
    assert check_mesa(4, 2) is not None


def test_supercharacter_orthogonality():
    for q in (2, 3):
        graphs = gen_dyck(3)
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
    delta_e = class_fn(ClassFnUT, n, q, {e: 1})
    assert inner_product_UT(delta_e, class_fn(ClassFnUT, n, q, {IG(n, (1, 2)): 1})) == 0
    lhs = inner_product_UT(delta_bar(e, q), delta_e) * ut_order(n, q)
    assert lhs == superclass_sizes(n, q)[e]


def test_inner_product_mismatched():
    with pytest.raises(ValueError):
        inner_product_UT(class_fn(ClassFnUT, 2, 2, {IG(2): 1}),
                         class_fn(ClassFnUT, 2, 3, {IG(2): 1}))


# -- pseudosupercharacters ------------------------------------------------------------

def test_psi_worked_example_signed_sum():
    # EDESS: Area = {{2,3}}, Diag = {{1,2}}
    sigma = SchroderPath("EDESS")
    q = 2
    psi = psi_pseudo(sigma, q)
    want = fn_sum(psi_pseudo(IG(3, (1, 2), (2, 3)), q),
                  fn_scale(psi_pseudo(IG(3, (2, 3)), q), -1))
    assert psi == want


def test_psi_worked_example_supercharacter_sum():
    sigma = SchroderPath("EDESS")
    for q in (2, 3):
        psi = psi_pseudo(sigma, q)
        want = fn_sum(chi_super(IG(3, (1, 2)), q), chi_super(IG(3, (1, 2), (2, 3)), q))
        assert psi == want


def test_psi_mesa_all_d3():
    for q in (2, 3):
        assert check_mesa(3, q) is None


def test_psi_mesa_extremes():
    # every Dyck path of size n, the edgeless and complete graphs among them
    for n in (2, 3, 4):
        assert check_mesa(n, 2) is None


# -- induction -------------------------------------------------------------------------

def test_induce_degree():
    # value at the identity class is |GL_n : UT_gamma|
    q = 2
    for gamma in gen_dyck(3):
        ind = induce_to_GL(gamma, q)
        expected = Fraction(gl_order(3, q) * q ** len(area(gamma)), ut_order(3, q))
        assert ind((1, 1, 1)) == expected


def test_induce_trivial_small_case():
    # n = 2, q = 2, edgeless gamma: J_(2) has 2 conjugators into UT_2, |UT_2| = 2
    ind = induce_to_GL(IG(2), 2)
    assert ind((2,)) == 1
    assert ind((1, 1)) == Fraction(gl_order(2, 2), ut_order(2, 2)) == 3


def test_induce_zero():
    # the general map of the oracle, which the package specialises to psi^sigma
    z = class_fn(ClassFnUT, 2, 2, {})
    assert dict(induce_by_the_walk(z).items()) == {(2,): 0, (1, 1): 0}


def test_induce_linearity():
    # the oracle's general map is linear, and agrees with the package on each psi
    q = 2
    f = psi_pseudo(IG(3, (1, 2)), q)
    g = psi_pseudo(IG(3, (2, 3)), q)
    combo = fn_sum(fn_scale(f, 2), fn_scale(g, -5))
    lhs = induce_by_the_walk(combo)
    rhs = fn_sum(fn_scale(induce_to_GL(IG(3, (1, 2)), q), 2),
                 fn_scale(induce_to_GL(IG(3, (2, 3)), q), -5))
    assert lhs == rhs


def test_induce_transitivity_against_one_step_oracle():
    # the chi_bar span every superclass function, so agreeing on each of them
    # pins the whole UT_n-sweep table against the GL_n sweep; all gamma of one
    # (n, q) share a single sweep, |GL_3(F_3)| = 11232 elements at (3,3)
    points = [(1, q) for q in PRIMES] + [(2, q) for q in PRIMES] + [(3, 2), (3, 3)]
    for n, q in points:
        for gamma in gen_dyck(n):
            assert induce_to_GL(gamma, q) == induce_trivial_from_subgroup(gamma, q)


def test_induced_characters_have_integer_values():
    # chi_bar and psi_pseudo are genuine characters, so induction gives
    # algebraic integers; over Q that means plain integers
    for q in (2, 3):
        for gamma in gen_dyck(3):
            for v in induce_to_GL(gamma, q).values:
                assert v.denominator == 1
        for sigma in gen_tall_schroder(3):
            for v in induce_to_GL(sigma, q).values:
                assert v.denominator == 1


def test_class_function_values_are_plain_numbers():
    # chi_bar, chi and psi are integer-valued, so they hold ints (never a
    # Fraction or a float), and so do their inductions, the package's of each psi
    # and the oracle's of each chi; a class function refuses any other value
    for q in (2, 3):
        for n in (1, 2, 3):
            for f in [chi_super(g, q) for g in gen_dyck(n)]:
                assert all(type(v) is int for v in f.values), f
                assert all(type(v) is int for v in induce_by_the_walk(f).values), f
            for path in gen_dyck(n) + gen_tall_schroder(n):
                assert all(type(v) is int for v in psi_pseudo(path, q).values), path
                assert all(type(v) is int for v in induce_to_GL(path, q).values), path
    for value in (Fraction(1, 3), Fraction(2, 1), 1.0, True):
        for cls in (ClassFnUT, UnipClassFn):
            with pytest.raises(TypeError, match=rf"^{cls.__name__} values must be ints, got "):
                cls(2, 2, (value, 1))


def test_class_functions_take_a_tuple():
    gamma = IG(2, (1, 2))
    f = ClassFnUT(2, 2, (5, 0))  # gen_dyck(2) lists the edge first
    assert f(gamma) == 5 and f(IG(2)) == 0
    assert dict(f.items()) == {IG(2): 0, gamma: 5}
    one_per_index = "values must be a tuple with one entry per index at n = 2$"
    with pytest.raises(ValueError, match="ClassFnUT " + one_per_index):
        ClassFnUT(2, 2, {gamma: 5})
    with pytest.raises(ValueError, match="UnipClassFn " + one_per_index):
        UnipClassFn(2, 2, (1, 2, 3))


def test_induce_guard():
    # induction reads the Hessenberg counts, whose recursion restricts 431,059
    # pairs (h, S) of sizes up to 8: past MAX_SWEEP
    with pytest.raises(SizeGuardError, match="the restricted pairs \\(h, S\\) of sizes up to 8 "
                                             "visits 431,059 elements"):
        induce_to_GL(IG(8), 3)


def test_regular_class_size():
    # |O_(n)| = |GL_n| / (q^{n-1}(q-1)) via centralizer enumeration
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        c = centralizer_orders(n, q)[(n,)]
        assert gl_order(n, q) // c == gl_order(n, q) // (q ** (n - 1) * (q - 1))
        assert c == q ** (n - 1) * (q - 1)


def test_centralizer_order_closed_form():
    for n in (1, 2, 3):
        for q in (2, 3):
            for lam in gen_partitions(n):
                assert _centralizer_order(lam, q) == centralizer_orders(n, q)[lam]


def test_induction_table_total_counts():
    # the identity is the one element of type 1^n, labeled complete
    complete = gen_dyck(2).index(IG(2, (1, 2)))
    assert induction_table(2, 3)[(1, 1)] == tuple(int(i == complete) for i in range(2))
    # each row sums to the number of elements of UT_n of its type, counted by the
    # tuple kernel, and all rows to |UT_n|
    for n, q in [(n, q) for n in range(1, 4) for q in PRIMES] + [(4, 2), (4, 3)]:
        types = Counter(matrix_oracle.jordan_type(u, q) for u in ut_rows(n, q))
        table = induction_table(n, q)
        assert {lam: sum(row) for lam, row in table.items()} == {
            lam: types[lam] for lam in gen_partitions(n)}, (n, q)
        assert sum(map(sum, table.values())) == ut_order(n, q), (n, q)


def test_induce_and_superclass_sizes_match_the_tuple_oracle():
    # |C_GL(J_lam)| times the oracle's row of lam dotted with phi, over |UT_n|; and
    # the size of each superclass, its column of the oracle's table summed
    for n, q in [(n, q) for n in range(1, 4) for q in PRIMES] + [(4, 2), (4, 3)]:
        table = matrix_oracle.induction_table(n, q)

        def induced(phi):
            return tuple(Fraction(_centralizer_order(lam, q) * sum(map(mul, row, phi.values)),
                                  ut_order(n, q)) for lam, row in table.items())

        for path in gen_dyck(n) + gen_tall_schroder(n):
            assert induce_to_GL(path, q).values == induced(psi_pseudo(path, q)), (n, q, path)
        assert superclass_sizes(n, q) == dict(zip(gen_dyck(n),
                                                  map(sum, zip(*table.values())))), (n, q)


_KERNEL_POINTS = [(n, q) for n in range(1, 4) for q in PRIMES] + [(4, 2), (4, 3), (5, 2), (6, 2)]


def induced_by_the_sweep(phi):
    """check_hess's left side over |UT_n|: |C_GL(J_lam)| times the sweep's row of lam
    dotted with phi, divided by |UT_n| over Q."""
    n, q = phi.n, phi.q
    return tuple(Fraction(_centralizer_order(lam, q) * sum(map(mul, row, phi.values)), ut_order(n, q))
                 for lam, row in induction_table(n, q).items())


def test_induction_from_the_walk_equals_the_sweep():
    # the pairs (a, F) counted with F fixed (the UT_n sweep) and with a fixed (the
    # Hessenberg counts, which the recursion builds where the walk did); the chi_bar
    # span every superclass function, so agreeing on each pins the count of every
    # (h, lam).  About 2 s, most of it the 2^15 elements of UT_6(F_2)
    for n, q in _KERNEL_POINTS:
        for path in gen_dyck(n) + (gen_tall_schroder(n) if n < 6 else ()):
            got = induce_to_GL(path, q)
            assert got.values == induced_by_the_sweep(psi_pseudo(path, q)), (n, q, path)
            assert all(type(v) is int for v in got.values), (n, q, path)


def test_superclass_sizes_equal_the_tuple_sweep_of_labels():
    for n, q in _KERNEL_POINTS:
        labels = Counter(label_edges(u, n) for u in ut_rows(n, q))
        assert superclass_sizes(n, q) == {g: labels[area(g)] for g in gen_dyck(n)}, (n, q)


def test_a_miscounted_tally_fails_every_check_that_reads_the_walk(monkeypatch):
    # one more flag in the count of (2, 1, 1) over F_3^4 at the complete graph,
    # which the walk tallied and the recursion solves now: the inductions of
    # check_cqs and check_llt and the counts of check_hess and check_poincare read
    # it.  The cached table is copied, not changed
    import chromaq.fqoracle as fq
    from chromaq.bridge import run_check
    original, hook, complete = fq._hessenberg_counts, (2, 1, 1), (0, 0, 0, 0)

    def miscounted(n, q):
        sizes = list(original(n, q))
        sizes[n] = {h: {**row, hook: row[hook] + (h == complete)} for h, row in sizes[n].items()}
        return sizes

    monkeypatch.setattr(fq, "_hessenberg_counts", miscounted)
    for name in ("check_cqs", "check_hess", "check_llt", "check_poincare"):
        assert run_check(name, 4, 3).status == "fail", name
    monkeypatch.undo()
    assert all(run_check(name, 4, 3).ok for name in ("check_cqs", "check_hess", "check_llt"))


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
    for m in reps[:50]:
        rows = unpack(m, n)
        assert canonical_flag(rows, q) == rows
        # multiply by a random invertible upper-triangular on the right
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            b[i][i] = rnd.randrange(1, q)
            for j in range(i + 1, n):
                b[i][j] = rnd.randrange(q)
        mb = mat_mul(rows, tuple(tuple(r) for r in b), q)
        assert canonical_flag(mb, q) == rows


def brute_hessenberg_counts(a, q, graphs):
    """Hessenberg point counts of a over F_q for each graph, by testing every flag gB on its own."""
    n = len(a)
    counts = [0] * len(graphs)
    for g in flag_rows(n, q):
        m = mat_mul(mat_mul(mat_inv(g, q), a, q), g, q)
        if any(m[i][j] for i in range(n) for j in range(i + 1)):
            continue
        for k, gamma in enumerate(graphs):
            counts[k] += not any(m[i - 1][j - 1] for i, j in area(gamma))
    return counts


def brute_hessenberg_count(gamma, a, q):
    return brute_hessenberg_counts(a, q, [gamma])[0]


def test_hessenberg_sweep_matches_per_flag_oracle():
    # the recursion against the packed flag sweep for every (gamma, lam) wherever the
    # [n]_q! flags are cheap, and against the per-flag tuple oracle on a few
    points = [(0, 2), (1, 2), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (3, 7), (4, 5), (5, 2)]
    for n, q in points:
        for g in gen_dyck(n):
            for lam in gen_partitions(n):
                assert hessenberg_count(g, lam, q) == hessenberg_sweep(g, lam, q), (g, lam, q)
    for n in range(1, 4):
        for q in (2, 3):
            for lam in gen_partitions(n):
                a = mat_minus_identity(jordan(lam), q)
                for g in gen_dyck(n):
                    assert hessenberg_count(g, lam, q) == brute_hessenberg_count(g, a, q), (g, lam, q)
    a = mat_minus_identity(jordan((4,)), 2)
    for g in gen_dyck(4):
        assert hessenberg_count(g, (4,), 2) == brute_hessenberg_count(g, a, 2), g


def test_hessenberg_sweeps_once_per_matrix():
    # one table of counts per (n, q) serves every gamma and lam; lam = 1^n, a = 0,
    # counts every flag at every size of the recursion
    _hessenberg_counts.cache_clear()
    for g in gen_dyck(3):
        for lam in gen_partitions(3):
            hessenberg_count(g, lam, 3)
    assert _hessenberg_counts.cache_info().misses == 1
    for k, table in enumerate(_hessenberg_counts(3, 3)):
        assert {row[(1,) * k] for row in table.values()} == {flag_count(k, 3)}
    # a nilpotent that is no Jordan matrix reads the same counts, at its Jordan type
    a = mat_minus_identity(jordan((2, 1)), 3)
    at = tuple(zip(*a))
    assert nilpotent_type(digits(at), 3, 3) == (2, 1)
    for g in gen_dyck(3):
        assert hessenberg_count(g, nilpotent_type(digits(at), 3, 3), 3) \
            == brute_hessenberg_count(g, at, 3) == brute_hessenberg_count(g, a, 3), g
    assert _hessenberg_counts.cache_info().misses == 1


def test_fibre_sizes_count_the_leaves_of_the_walk():
    # Spaltenstein's recursion, the walk's guard, against the walk that it bounds
    for n, q, total in [(3, 7, 16), (4, 7, 1_439), (5, 3, 8_508), (6, 2, 50_908)]:
        ones = (1,) * n
        leaves = {lam: sum(springer_fibre(lam, q).values()) for lam in gen_partitions(n) if lam != ones}
        assert leaves == {lam: fibre_size(lam, q) for lam in leaves}
        assert sum(leaves.values()) == total
        # at a = 0 the recursion counts every flag
        assert fibre_size(ones, q) == flag_count(n, q)
        require_fibres(n, q)


def test_the_fibre_of_zero_is_every_flag():
    # a = 0 is every flag: [n]_q!, the oracle's product, in the walk's tally, in
    # Spaltenstein's recursion, and at 1^n in the Hessenberg counts of every h
    for q in PRIMES:
        for n in range(8):
            ones = (1,) * n
            assert fibre_size(ones, q) == flag_count(n, q), (n, q)
            assert springer_fibre(ones, q) == {(0,) * n: flag_count(n, q)}, (n, q)
        for n, table in enumerate(_hessenberg_counts(6, q)):
            assert {row[(1,) * n] for row in table.values()} == {flag_count(n, q)}, (n, q)


def test_hook_fibre_sizes_follow_the_recursion():
    # |B_(2,1^m)| = f(m) = [m+1]_q! + q [m]_q f(m-1), f(0) = 1, grows with m: the
    # lower bounds that require_fibres reads before it lists any partition of n
    for q in PRIMES:
        f = [1]
        for m in range(1, 12):
            f.append(flag_count(m + 1, q) + q * (q ** m - 1) // (q - 1) * f[-1])
        assert f == [fibre_size((2,) + (1,) * m, q) for m in range(12)], q
        assert f == sorted(f)
    # f(5) = 3,134,565 over F_2 is past the bound for every n >= 8
    with pytest.raises(SizeGuardError, match="the Springer fibres of F_2\\^8 visits at least 3,134,565"):
        require_fibres(8, 2)


def walk_agrees(n, q):
    """The recursion's counts against the walk's tally summed below h, for every h
    and lam, and the induction of every tall path against the walk's tally dotted
    with its psi; tests/slow_oracles.py runs it past the walk's guard."""
    tally, pos = springer_tally(n, q), {pi.h: i for i, pi in enumerate(gen_dyck(n))}
    below = {h: {lam: sum(row[pos[x]] for x in _between((0,) * n, h)) for lam, row in tally.items()}
             for h in pos}
    assert _hessenberg_counts(n, q)[n] == below, (n, q)
    for sigma in gen_tall_schroder(n):
        assert induce_to_GL(sigma, q) == induce_by_the_walk(psi_pseudo(sigma, q)), (n, q, sigma)


def test_the_recursion_equals_the_walk(monkeypatch):
    # each n <= 5 at every q, and (6, 2).  (5, 7) walks 718,584 flags, past the
    # walk's guard, in about 9 s; tests/slow_oracles.py walks (6, 3) and (7, 2)
    monkeypatch.setattr("chromaq.guards.MAX_SWEEP", 1_000_000)
    for n, q in [(n, q) for n in range(6) for q in PRIMES] + [(6, 2)]:
        walk_agrees(n, q)


def test_strip_counts_match_a_sweep_of_the_blocks():
    # how many X make [[J_mu, X], [0, 1_m]] each Jordan type, by the tuple kernel,
    # against the Hall polynomial count, zeros included: every lam != 1^n of each
    # n <= 5 over F_2 and F_3, and n = 6 over F_2
    for n, q in [(n, q) for n in range(1, 6) for q in (2, 3)] + [(6, 2)]:
        for lam, mu, counts in _strip_counts(n, q):
            a = sum(mu)
            m = n - a
            assert lam == max(counts) and m == lam.count(lam[0]), (n, q, lam)
            block = [list(r) + [0] * m for r in jordan(mu)] + [
                [0] * a + [int(i == j) for j in range(m)] for i in range(m)]
            types = Counter()
            for xs in product(range(q), repeat=a * m):
                for k, x in enumerate(xs):
                    block[k // m][a + k % m] = x
                types[jordan_type(tuple(map(tuple, block)), q)] += 1
            assert types == {nu: c for nu, c in counts.items() if c}, (n, q, lam)


def test_the_regular_class_counts_one_flag_at_the_edgeless_graph():
    # J_(n) - 1 fixes one flag, of label (0, 1, ..., n - 1), the edgeless graph: the
    # count that the recursion solves last, from the most equations, is 1 there
    # and 0 at every other h
    for n in range(1, 8):
        for q in (2, 3):
            for pi in gen_dyck(n):
                assert hessenberg_count(pi, (n,), q) == (pi.h == tuple(range(n))), (pi, q)


def random_gl(rnd, n, q):
    while True:
        h = tuple(tuple(rnd.randrange(q) for _ in range(n)) for _ in range(n))
        if matrix_oracle.rank(h, q) == n:
            return h


def test_hessenberg_count_is_constant_on_a_conjugacy_class():
    # h^{-1} (J_lam - 1) h for random h: every count equals the brute count,
    # and all the matrices of one (n, q) share one tally
    import random
    rnd = random.Random(19)
    points = [(n, q) for n in range(1, 4) for q in PRIMES] + [(4, 2), (4, 3)]
    for n, q in points:
        graphs = gen_dyck(n)
        misses = _hessenberg_counts.cache_info().misses
        for lam in gen_partitions(n):
            for _ in range(2 if n < 4 else 1):
                h = random_gl(rnd, n, q)
                a = mat_mul(mat_mul(mat_inv(h, q), mat_minus_identity(jordan(lam), q), q), h, q)
                got = [hessenberg_count(g, nilpotent_type(digits(a), n, q), q) for g in graphs]
                assert got == brute_hessenberg_counts(a, q, graphs), (n, q, lam, a)
        assert _hessenberg_counts.cache_info().misses <= misses + 1, (n, q)


def test_hessenberg_zero_matrix_counts_all_flags():
    assert hessenberg_count(IG(2), nilpotent_type("0000", 2, 2), 2) == 3
    assert hessenberg_count(IG(3), nilpotent_type("0" * 9, 3, 3), 3) == flag_count(3, 3)


def test_hessenberg_regular_nilpotent_edgeless():
    # the full flag fixed by a regular nilpotent is unique
    for n, q in [(2, 2), (3, 2), (3, 3)]:
        assert nilpotent_type(digits(unpack(jordan_nilpotent((n,)), n)), n, q) == (n,)
        assert hessenberg_count(IG(n), (n,), q) == 1


def test_hessenberg_rejects_non_nilpotent():
    for q, rows in [(2, ((1, 0), (0, 1))), (3, ((0, 1), (1, 0))),
                    (5, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))]:
        with pytest.raises(ValueError, match="expects a nilpotent matrix"):
            nilpotent_type(digits(rows), len(rows), q)


def test_hessenberg_count_takes_a_partition_of_n():
    for lam in ((2,), (1, 2), (4,), (2, 1, 0)):
        with pytest.raises(ValueError, match="Jordan type .* is not a partition of n = 3"):
            hessenberg_count(IG(3), lam, 2)


def test_hessenberg_guard():
    # the recursion at n = 8 restricts 431,059 pairs (h, S), past MAX_SWEEP; at
    # n = 7 it restricts 64,979, though [7]_7! flags count at a = 0
    with pytest.raises(SizeGuardError, match="the restricted pairs \\(h, S\\) of sizes up to 8 "
                                             "visits 431,059 elements"):
        hessenberg_count(IG(8), (1,) * 8, 2)
    assert hessenberg_count(IG(7), (1,) * 7, 7) == flag_count(7, 7) == 1_375_009_641_495_014_400
