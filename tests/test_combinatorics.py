import re
from functools import lru_cache
from itertools import combinations

import pytest

import chromaq.combinatorics as combinatorics
from chromaq.combinatorics import (
    DyckPath,
    SchroderPath,
    _tall_path,
    area,
    diag,
    gen_dyck,
    gen_partitions,
    gen_tall_schroder,
    mesa,
    nstat,
    path_of_graph,
    transpose,
)
from chromaq.guards import SizeGuardError
from mobius_oracle import mobius_dense, mobius_subgraph
from orbit_oracle import zlam
from orientation_oracle import Orientation, hrv, orientations, type_of


def catalan_oracle(n):
    # convolution recurrence, independent of the path generator
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def recursive_dyck_oracle(n):
    """The step strings of the Dyck paths of size n, by the recursion on the
    next step and a sort: the generator that the walk of Hessenberg functions replaced."""
    out = []

    def rec(prefix, x, y):
        if x == n and y == -n:
            out.append(prefix)
            return
        if x < n:
            rec(prefix + "E", x + 1, y)
        if y - 1 >= -x:
            rec(prefix + "S", x, y - 1)

    rec("", 0, 0)
    return sorted(out)


def recursive_schroder_oracle(n, tall=True):
    """The step strings of the Schroeder paths of size n, tall ones only by
    default, by the recursion on the next step and a sort: the generator that
    the walk of (h, D) replaced."""
    out = []

    def rec(prefix, x, y):
        if x == n and y == -n:
            out.append(prefix)
            return
        if x < n and (y > -x or not tall):  # tall: no D step may start on the diagonal
            rec(prefix + "D", x + 1, y - 1)
        if x < n:
            rec(prefix + "E", x + 1, y)
        if y - 1 >= -x:
            rec(prefix + "S", x, y - 1)

    rec("", 0, 0)
    return sorted(out)


def cell_walk_oracle(steps):
    """Tallness, (h, D), Area and Diag of a Schroeder path, read cell by cell: the
    walk that the package replaced by reading (h, D) off the steps.  h is the least
    row of each column of Area u Diag, less 1, and D the columns, from 0, of Diag."""
    tall, cells, rises = True, set(), set()
    x = y = 0
    for s in steps:
        j = x + 1
        if s == "E":
            cells.update((i, j) for i in range(1 - y, j))  # rows strictly below the path
            x += 1
        elif s == "D":
            tall = tall and y != -x
            rises.add((1 - y, j))
            cells.update((i, j) for i in range(2 - y, j))  # row 1-y is crossed by the D step
            x, y = x + 1, y - 1
        else:
            y -= 1
    h = tuple(min([i - 1 for i, k in cells | rises if k == j], default=j - 1) for j in range(1, x + 1))
    return tall, h, tuple(sorted(j - 1 for _, j in rises)), frozenset(cells), frozenset(rises)


def area_inverse(edges, n):
    """The Dyck path of size n whose area is the given edge set, each edge a pair
    in either order: the inverse of area, read off gen_dyck(n) and not off h.
    ValueError on an edge set that is the area of no Dyck path of size n."""
    pi = _dyck_by_area(n).get(frozenset(tuple(sorted(e)) for e in edges))
    if pi is None:
        raise ValueError(f"{sorted(edges)} is the area of no Dyck path of size {n}")
    return pi


@lru_cache(maxsize=None)
def _dyck_by_area(n):
    return {area(pi): pi for pi in gen_dyck(n)}


def little_schroder_oracle(n):
    # (n+1) a(n) = (6n-3) a(n-1) - (n-2) a(n-2)
    a = [1, 1]
    for m in range(2, n + 1):
        num = (6 * m - 3) * a[m - 1] - (m - 2) * a[m - 2]
        assert num % (m + 1) == 0
        a.append(num // (m + 1))
    return a[n]


def all_pairs_is_indifference(edges, n):
    """Interval closure checked on every pair: {i,l} forces all {j,k} with i <= j < k <= l."""
    es = {tuple(sorted(e)) for e in edges}
    for i, l in es:
        if not (1 <= i < l <= n):
            return False
    return all((j, k) in es for i, l in es for j in range(i, l + 1) for k in range(j + 1, l + 1))


# -- partitions ----------------------------------------------------------------

def test_partitions_of_zero():
    assert gen_partitions(0) == [()]


def test_partitions_of_three_order():
    assert gen_partitions(3) == [(3,), (2, 1), (1, 1, 1)]


def test_partition_count_five():
    assert len(gen_partitions(5)) == 7


def test_partitions_guard():
    # p(46) = 105,558 partitions are built; p(47) = 124,754 is past MAX_SWEEP, and a
    # larger n is refused on the first p(k) past it, named as a lower bound
    counts = list(zip(range(48), combinatorics._partition_counts()))
    assert [p for _, p in counts[:9]] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert all(len(gen_partitions(n)) == p for n, p in counts[:21])
    assert counts[46][1] == 105_558 and counts[47][1] == 124_754
    with pytest.raises(SizeGuardError, match="sweeping the partitions of 47 visits 124,754 elements"):
        gen_partitions(47)
    for n in (48, 10 ** 9):
        with pytest.raises(SizeGuardError, match=f"sweeping the partitions of {n} visits at least 124,754"):
            gen_partitions(n)


@pytest.mark.parametrize("lam,expected", [((3, 1), (2, 1, 1)), ((1, 1, 1), (3,)), ((), ())])
def test_transpose(lam, expected):
    assert transpose(lam) == expected


def test_transpose_involution():
    for n in range(7):
        for lam in gen_partitions(n):
            assert transpose(transpose(lam)) == lam


@pytest.mark.parametrize("lam,expected", [((1, 1, 1), 3), ((6,), 0), ((2, 1), 1)])
def test_nstat(lam, expected):
    assert nstat(lam) == expected


def test_nstat_column():
    for n in range(1, 9):
        assert nstat(tuple([1] * n)) == n * (n - 1) // 2


def test_zlam():
    assert zlam((1, 1, 1)) == 6
    assert zlam((3,)) == 3
    assert zlam((2, 2, 1)) == 8


# -- path generation -----------------------------------------------------------

def test_dyck_counts():
    for n in range(8):
        assert len(gen_dyck(n)) == catalan_oracle(n)


def test_dyck_paths_equal_the_recursion_in_order():
    for n in range(9):
        assert [p.steps for p in gen_dyck(n)] == recursive_dyck_oracle(n), n


def test_dyck_of_zero():
    assert [p.steps for p in gen_dyck(0)] == [""]


def test_tall_paths_equal_the_recursion_in_order():
    for n in range(9):
        paths = gen_tall_schroder(n)
        assert all(type(p) is SchroderPath for p in paths)
        assert [p.steps for p in paths] == recursive_schroder_oracle(n), n


def test_tall_paths_read_h_and_d_as_the_cell_walk_does():
    # every Dyck and tall path of size <= 8: (h, D) read off the walk, and area and
    # diag derived from it, are the cell walk's, and (h, D) writes the steps back
    for n in range(9):
        for p in gen_dyck(n) + gen_tall_schroder(n):
            tall, h, d, a, dg = cell_walk_oracle(p.steps)
            assert tall
            assert (p.h, p.D, area(p), diag(p)) == (h, d, a, dg), p
            assert _tall_path(p.h, p.D) == p.steps


def test_tall_schroder_counts():
    for n in range(6):
        assert len(gen_tall_schroder(n)) == little_schroder_oracle(n)


def test_paths_duplicate_free():
    for n in range(6):
        ps = [p.steps for p in gen_tall_schroder(n)]
        assert len(set(ps)) == len(ps)


def test_path_guard():
    with pytest.raises(SizeGuardError):
        gen_dyck(9)


@pytest.mark.parametrize("gen", [gen_partitions, gen_dyck, gen_tall_schroder])
def test_negative_size_is_not_reported_as_too_large(gen):
    with pytest.raises(ValueError, match="n = -1 must be >= 0") as e:
        gen(-1)
    assert not isinstance(e.value, SizeGuardError)


def test_invalid_paths_rejected():
    with pytest.raises(ValueError):
        DyckPath("SE")
    with pytest.raises(ValueError):
        DyckPath("EESS ")
    with pytest.raises(ValueError):
        SchroderPath("DSS")
    for steps in ("EDS", "SD"):  # named before the walk finds SD below the diagonal
        with pytest.raises(ValueError, match="^Dyck path steps must be E/S, got 'D'$"):
            DyckPath(steps)


def test_tall_flag():
    # tallness is no flag: a path is tall, or it is refused as it is read
    assert SchroderPath("EEDSS").D == (2,)
    with pytest.raises(ValueError, match="^'DD' is not a tall path$"):
        SchroderPath("DD")  # D steps along the diagonal


def test_a_dyck_path_is_the_tall_path_with_no_d_step():
    # one path type: DyckPath reads E/S steps into it, and path_of_graph reads
    # the graph with one edge into the same path
    pi = DyckPath("EESS")
    assert type(pi) is SchroderPath and pi == SchroderPath("EESS") and pi.D == ()
    assert path_of_graph(2, {(1, 2)}) == pi


def test_each_path_is_walked_once(monkeypatch):
    walks = []
    walk = combinatorics._walk

    def counted(steps):
        walks.append(steps)
        return walk(steps)

    monkeypatch.setattr(combinatorics, "_walk", counted)
    pi, sigma = DyckPath("EESESS"), SchroderPath("EEEDSSS")
    assert walks == ["EESESS", "EEEDSSS"]
    for p in (pi, sigma):
        assert area(p) == area(p) and diag(p) == diag(p)
    assert area(sigma) == {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)} and diag(sigma) == {(1, 4)}
    assert walks == ["EESESS", "EEEDSSS"]
    assert pi == SchroderPath("EESESS")
    assert area(pi) == {(1, 2), (2, 3)} and diag(pi) == frozenset()


def test_a_path_is_read_exactly_when_it_is_tall():
    # every Schroeder step string of size <= 6 is read into a path exactly when the
    # cell walk finds it tall, and is refused with one error otherwise
    for n in range(7):
        for steps in recursive_schroder_oracle(n, tall=False):
            if cell_walk_oracle(steps)[0]:
                assert SchroderPath(steps).steps == steps
                continue
            with pytest.raises(ValueError, match=f"^{re.escape(repr(steps))} is not a tall path$"):
                SchroderPath(steps)


def test_partitions_are_a_fresh_list_each_call():
    first = gen_partitions(4)
    first.append((9,))
    first[0] = (0,)
    assert gen_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


# -- area / diag ---------------------------------------------------------------

def test_area_diag_worked_examples():
    s = SchroderPath("EESESS")
    assert area(s) == frozenset({(1, 2), (2, 3)})
    assert diag(s) == frozenset()
    s = SchroderPath("EEDSS")
    assert area(s) == frozenset({(1, 2), (2, 3)})
    assert diag(s) == frozenset({(1, 3)})
    s = SchroderPath("ES")
    assert area(s) == frozenset()
    assert diag(s) == frozenset()


def test_dyck_paths_have_empty_diag():
    for n in range(6):
        for p in gen_dyck(n):
            assert p.D == () and diag(p) == frozenset()


# -- graph bijection -----------------------------------------------------------

def test_graphs_record_the_hessenberg_function_of_their_edges():
    # the area of every Dyck path of size <= 7 is closed under intervals, checked
    # on every pair, and path_of_graph reads the path, and so its h, back off it,
    # its edges in either order
    for n in range(8):
        for pi in gen_dyck(n):
            edges = area(pi)
            assert all_pairs_is_indifference(edges, n), pi
            assert path_of_graph(n, edges) == pi
            assert path_of_graph(n, [(j, i) for i, j in edges]) == pi
    assert path_of_graph(2, [[2, 1]]) == path_of_graph(2, [(1, 2)]) == DyckPath("EESS")


def test_graph_of_example():
    assert path_of_graph(3, frozenset({(1, 2), (2, 3)})) == DyckPath("EESESS")


def test_area_inverse_staircase():
    for n in range(6):
        assert area_inverse(frozenset(), n) == DyckPath("ES" * n)


def test_bijection_roundtrip():
    for n in range(7):
        for p in gen_dyck(n):
            assert area_inverse(area(p), n) == p


def test_area_inverse_rejects_non_indifference():
    for read in (area_inverse, lambda edges, n: path_of_graph(n, edges)):
        with pytest.raises(ValueError):
            read({(1, 2), (1, 4)}, 4)


# -- mesa ------------------------------------------------------------------------

def test_mesa_worked_example():
    assert mesa(DyckPath("EESESSES")) == SchroderPath("EDDSES")


def test_mesa_staircase_fixed():
    for n in range(5):
        assert mesa(DyckPath("ES" * n)) == SchroderPath("ES" * n)


def test_mesa_single_tall_peak():
    assert mesa(DyckPath("EESS")) == SchroderPath("EDS")


def test_mesa_area_diag_union():
    for n in range(7):
        for p in gen_dyck(n):
            m = mesa(p)  # refused were it not tall
            assert area(m) | diag(m) == area(p)
            assert not (area(m) & diag(m))


# -- indifference predicates ------------------------------------------------------

def is_indifference(edges, n):
    """Interval closure as the package decides it: path_of_graph reads the edges,
    or refuses them."""
    try:
        path_of_graph(n, edges)
    except ValueError:
        return False
    return True


def test_graph_names_a_loop_or_an_end_outside_n_before_closure():
    for n, edges, message in [(2, {(1, 1)}, "edge (1, 1) is a loop"),
                              (2, {(3, 1)}, "edge (1, 3) has an end outside [2]"),
                              (2, {(0, 1)}, "edge (0, 1) has an end outside [2]"),
                              (3, {(1, 2), (2, 2), (0, 4)}, "edge (0, 4) has an end outside [3]"),
                              (3, {(1, 3)}, "edge set [(1, 3)] on [3] is not interval-closed")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            path_of_graph(n, edges)


def test_is_indifference_examples():
    assert is_indifference({(1, 2), (2, 3), (1, 3), (3, 4)}, 4)
    assert not is_indifference({(1, 2), (2, 3), (1, 3), (1, 4)}, 4)


def test_local_closure_matches_the_all_pairs_oracle():
    for n in range(6):
        pairs = list(combinations(range(1, n + 1), 2))
        subsets = [s for k in range(len(pairs) + 1) for s in combinations(pairs, k)]
        assert len(subsets) == 2 ** len(pairs)  # 1,024 at n = 5
        for es in subsets:
            assert is_indifference(es, n) == all_pairs_is_indifference(es, n), (n, es)
            flipped = [(j, i) for i, j in es]
            assert is_indifference(flipped, n) == all_pairs_is_indifference(flipped, n), (n, es)
    for es, n in [({(0, 1)}, 3), ({(1, 4)}, 3), ({(2, 2)}, 3), ({(3, 1), (2, 1), (3, 2)}, 3),
                  ({(3, 1), (2, 1)}, 3), ({(1, 3), (1, 2), (2, 3), (3, 5)}, 4), (set(), 0)]:
        assert is_indifference(es, n) == all_pairs_is_indifference(es, n), (n, es)


def test_indifference_graph_count():
    # the edge sets on [n] that the all-pairs oracle finds closed, among all
    # 2^binom(n,2) of them, are exactly the areas of the Dyck paths, Catalan many
    for n in range(6):
        pairs = list(combinations(range(1, n + 1), 2))
        closed = {frozenset(s) for k in range(len(pairs) + 1) for s in combinations(pairs, k)
                  if all_pairs_is_indifference(s, n)}
        assert closed == {area(pi) for pi in gen_dyck(n)} and len(closed) == catalan_oracle(n)


# -- Moebius --------------------------------------------------------------------

def test_mobius_edgeless():
    g = path_of_graph(3, frozenset())
    assert mobius_subgraph(g) == {g: 1}


def test_mobius_single_edge():
    g = path_of_graph(2, frozenset({(1, 2)}))
    e = path_of_graph(2, frozenset())
    assert mobius_subgraph(g) == {g: 1, e: -1}


def test_mobius_defining_identity_ig4():
    for gamma in gen_dyck(4):
        mob = mobius_subgraph(gamma)
        subs = [g for g in gen_dyck(4) if area(g) <= area(gamma)]
        for sigma in subs:
            total = sum(mu for tau, mu in mob.items() if area(sigma) <= area(tau))
            assert total == (1 if sigma == gamma else 0)


def test_mobius_defining_identity_to_n6():
    # past the 12 edges that the dense inversion was once bounded by: K_6 has 15
    for n in range(7):
        edges = {g: area(g) for g in gen_dyck(n)}
        for gamma in edges:
            mob = mobius_subgraph(gamma)
            assert all(edges[sigma] <= edges[gamma] for sigma in mob)
            for sigma in edges:
                if edges[sigma] <= edges[gamma]:
                    total = sum(mu for tau, mu in mob.items() if edges[sigma] <= edges[tau])
                    assert total == (1 if sigma == gamma else 0), (gamma, sigma)


def test_mobius_matches_the_dense_inversion():
    # every gamma with n <= 6; the closed form lists exactly the nonzero values
    for n in range(7):
        for gamma in gen_dyck(n):
            dense = mobius_dense(gamma)
            assert mobius_subgraph(gamma) == {s: mu for s, mu in dense.items() if mu}, gamma


def test_mobius_of_a_complete_graph_has_one_corner():
    # K_n has the single corner {1, n}, whatever its number of edges
    for n in range(2, 9):
        k = path_of_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
        assert mobius_subgraph(k) == {k: 1, path_of_graph(n, area(k) - {(1, n)}): -1}


# -- orientations ------------------------------------------------------------------

def hrv_example_graph():
    return path_of_graph(4, frozenset({(1, 2), (2, 3), (1, 3), (3, 4)}))


def test_hrv_type_worked_example():
    g = hrv_example_graph()
    theta = Orientation(g, frozenset({(2, 1), (1, 3), (3, 2), (3, 4)}))
    assert [hrv(theta, i) for i in range(1, 5)] == [4, 2, 4, 4]
    assert type_of(theta) == (3, 1)


def test_orientations_edgeless():
    g = path_of_graph(3, frozenset())
    os = orientations(g)
    assert len(os) == 1
    assert type_of(os[0]) == (1, 1, 1)


def test_orientation_count():
    for g in gen_dyck(4):
        assert len(orientations(g)) == 2 ** len(area(g))


def test_orientation_type_is_partition():
    for g in gen_dyck(4):
        for theta in orientations(g):
            t = type_of(theta)
            assert sum(t) == 4 and all(a >= b for a, b in zip(t, t[1:]))
