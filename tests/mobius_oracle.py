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

from chromaq.combinatorics import IndiffGraph, indifference_graphs

# every chromaq name this oracle imports, with its reason; a kernel that the
# package's own path also runs on names, as (reason, test), the test that checks it alone
CHROMAQ_IMPORTS = {
    "combinatorics.IndiffGraph": "a value type",
    "combinatorics.indifference_graphs": "the graphs on [n], a listing",
}


def mobius_subgraph(gamma: IndiffGraph) -> dict[IndiffGraph, int]:
    """Moebius function mu(sigma, gamma) at the indifference graphs sigma <= gamma
    where it is nonzero.

    The indifference graphs on [n] are the order ideals of the intervals (i, j)
    under containment, a distributive lattice.  So mu(sigma, gamma) = (-1)^{|S|}
    when sigma is gamma less a set S of its corners, the edges (i, j) with
    neither (i-1, j) nor (i, j+1) an edge, and 0 otherwise (Stanley, EC1 3.9).
    """
    e = gamma.edges
    corners = [(i, j) for i, j in e if (i - 1, j) not in e and (i, j + 1) not in e]
    return {IndiffGraph(gamma.n, e.difference(s)): (-1) ** k
            for k in range(len(corners) + 1) for s in combinations(corners, k)}


def mobius_dense(gamma: IndiffGraph) -> dict[IndiffGraph, int]:
    """mu(sigma, gamma) for every indifference graph sigma <= gamma."""
    elems = [g for g in indifference_graphs(gamma.n) if g.edges <= gamma.edges]
    elems.sort(key=lambda g: (len(g.edges), g.sorted_edges()))
    if elems[-1] != gamma:
        raise AssertionError(f"{gamma} is not the top of its interval")
    # zeta[i][k] = 1 iff elems[i] <= elems[k] is unitriangular in this order, so
    # the last column of its inverse is mu(., gamma), solved from the top down
    mu = [0] * len(elems)
    mu[-1] = 1
    for i in range(len(elems) - 2, -1, -1):
        e = elems[i].edges
        mu[i] = -sum(mu[k] for k in range(i + 1, len(elems)) if e <= elems[k].edges)
    return dict(zip(elems, mu))
