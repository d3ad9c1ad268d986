"""The subgraph Moebius function, by its closed form and by inverting the zeta
matrix of the poset.

`mobius_subgraph` reads mu(sigma, gamma) off the corners of gamma, as
frozensets of edges. `fqoracle.chi_super` reads the same corners off the
Hessenberg function of gamma, and the tests compare its terms with these.
`mobius_dense` knows nothing of corners: it lists every indifference graph
below gamma, orders them by edge count and solves zeta . mu = e_gamma by back
substitution over Z, so it returns every sigma <= gamma, zeros included.
"""

from __future__ import annotations

from itertools import combinations

from chromaq.combinatorics import SchroderPath, area, gen_dyck, path_of_graph

# every chromaq name this oracle imports, with its reason; a kernel that the
# package's own path also runs on names, as (reason, test), the test that checks it alone
CHROMAQ_IMPORTS = {
    "combinatorics.SchroderPath": "a value type",
    "combinatorics.area": ("the edges of the graph of a Dyck path, which the package's "
                           "class functions never read",
                           "tests/test_combinatorics.py::test_tall_paths_read_h_and_d_as_the_cell_walk_does"),
    "combinatorics.gen_dyck": "the graphs on [n], a listing of their Dyck paths",
    "combinatorics.path_of_graph": ("the Dyck path of each graph below gamma",
                                    "tests/test_combinatorics.py::test_graphs_record_the_hessenberg_function_of_their_edges"),
}


def mobius_subgraph(gamma: SchroderPath) -> dict[SchroderPath, int]:
    """Moebius function mu(sigma, gamma) at the indifference graphs sigma <= gamma
    where it is nonzero.

    The indifference graphs on [n] are the order ideals of the intervals (i, j)
    under containment, a distributive lattice.  So mu(sigma, gamma) = (-1)^{|S|}
    when sigma is gamma less a set S of its corners, the edges (i, j) with
    neither (i-1, j) nor (i, j+1) an edge, and 0 otherwise (Stanley, EC1 3.9).
    """
    e = area(gamma)
    corners = [(i, j) for i, j in e if (i - 1, j) not in e and (i, j + 1) not in e]
    return {path_of_graph(gamma.size, e.difference(s)): (-1) ** k
            for k in range(len(corners) + 1) for s in combinations(corners, k)}


def mobius_dense(gamma: SchroderPath) -> dict[SchroderPath, int]:
    """mu(sigma, gamma) for every indifference graph sigma <= gamma."""
    edges = {g: area(g) for g in gen_dyck(gamma.size)}
    elems = [g for g, e in edges.items() if e <= edges[gamma]]
    elems.sort(key=lambda g: (len(edges[g]), sorted(edges[g])))
    if elems[-1] != gamma:
        raise AssertionError(f"{gamma} is not the top of its interval")
    # zeta[i][k] = 1 iff elems[i] <= elems[k] is unitriangular in this order, so
    # the last column of its inverse is mu(., gamma), solved from the top down
    mu = [0] * len(elems)
    mu[-1] = 1
    for i in range(len(elems) - 2, -1, -1):
        e = edges[elems[i]]
        mu[i] = -sum(mu[k] for k in range(i + 1, len(elems)) if e <= edges[elems[k]])
    return dict(zip(elems, mu))
