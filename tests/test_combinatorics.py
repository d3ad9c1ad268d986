import pytest

from chromaq.combinatorics import (
    DyckPath,
    IndiffGraph,
    Orientation,
    SchroderPath,
    area,
    area_inverse,
    diag,
    gen_dyck,
    gen_partitions,
    gen_tall_schroder,
    graph_of,
    hrv,
    indifference_graphs,
    is_indifference,
    mesa,
    mobius_subgraph,
    nstat,
    orientations,
    transpose,
    type_of,
    zlam,
)
from chromaq.guards import SizeGuardError


def catalan_oracle(n):
    # convolution recurrence, independent of the path generator
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def little_schroder_oracle(n):
    # (n+1) a(n) = (6n-3) a(n-1) - (n-2) a(n-2)
    a = [1, 1]
    for m in range(2, n + 1):
        num = (6 * m - 3) * a[m - 1] - (m - 2) * a[m - 2]
        assert num % (m + 1) == 0
        a.append(num // (m + 1))
    return a[n]


# -- partitions ----------------------------------------------------------------

def test_partitions_of_zero():
    assert gen_partitions(0) == [()]


def test_partitions_of_three_order():
    assert gen_partitions(3) == [(3,), (2, 1), (1, 1, 1)]


def test_partition_count_five():
    assert len(gen_partitions(5)) == 7


def test_partitions_guard():
    with pytest.raises(SizeGuardError):
        gen_partitions(13)


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


def test_dyck_of_zero():
    assert [p.steps for p in gen_dyck(0)] == [""]


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


def test_tall_flag():
    assert SchroderPath("EEDSS").is_tall
    assert not SchroderPath("DD").is_tall  # D steps along the diagonal


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
            assert diag(p.as_schroder()) == frozenset()


# -- graph bijection -----------------------------------------------------------

def test_graph_of_example():
    g = graph_of(DyckPath("EESESS"))
    assert g == IndiffGraph(3, frozenset({(1, 2), (2, 3)}))


def test_area_inverse_staircase():
    for n in range(6):
        assert area_inverse(frozenset(), n) == DyckPath("ES" * n)


def test_bijection_roundtrip():
    for n in range(7):
        for p in gen_dyck(n):
            g = graph_of(p)
            assert area_inverse(g.edges, n) == p
    for g in indifference_graphs(4):
        assert graph_of(area_inverse(g.edges, 4)) == g


def test_area_inverse_rejects_non_indifference():
    with pytest.raises(ValueError):
        area_inverse({(1, 2), (1, 4)}, 4)


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
            m = mesa(p)
            assert m.is_tall
            assert area(m) | diag(m) == area(p)
            assert not (area(m) & diag(m))


# -- indifference predicates ------------------------------------------------------

def test_is_indifference_examples():
    assert is_indifference({(1, 2), (2, 3), (1, 3), (3, 4)}, 4)
    assert not is_indifference({(1, 2), (2, 3), (1, 3), (1, 4)}, 4)


def test_indifference_graph_count():
    for n in range(7):
        assert len(indifference_graphs(n)) == catalan_oracle(n)


# -- Moebius --------------------------------------------------------------------

def test_mobius_edgeless():
    g = IndiffGraph(3, frozenset())
    assert mobius_subgraph(g) == {g: 1}


def test_mobius_single_edge():
    g = IndiffGraph(2, frozenset({(1, 2)}))
    e = IndiffGraph(2, frozenset())
    assert mobius_subgraph(g) == {g: 1, e: -1}


def test_mobius_defining_identity_ig4():
    for gamma in indifference_graphs(4):
        mob = mobius_subgraph(gamma)
        subs = [g for g in indifference_graphs(4) if g.edges <= gamma.edges]
        for sigma in subs:
            total = sum(mu for tau, mu in mob.items() if sigma.edges <= tau.edges)
            assert total == (1 if sigma == gamma else 0)


# -- orientations ------------------------------------------------------------------

def hrv_example_graph():
    return IndiffGraph(4, frozenset({(1, 2), (2, 3), (1, 3), (3, 4)}))


def test_hrv_type_worked_example():
    g = hrv_example_graph()
    theta = Orientation(g, frozenset({(2, 1), (1, 3), (3, 2), (3, 4)}))
    assert [hrv(theta, i) for i in range(1, 5)] == [4, 2, 4, 4]
    assert type_of(theta) == (3, 1)


def test_orientations_edgeless():
    g = IndiffGraph(3, frozenset())
    os = orientations(g)
    assert len(os) == 1
    assert type_of(os[0]) == (1, 1, 1)


def test_orientation_count():
    for g in indifference_graphs(4):
        assert len(orientations(g)) == 2 ** len(g.edges)


def test_orientation_type_is_partition():
    for g in indifference_graphs(4):
        for theta in orientations(g):
            t = type_of(theta)
            assert sum(t) == 4 and all(a >= b for a, b in zip(t, t[1:]))
