"""The subgraph Moebius function by inverting the zeta matrix of the poset.

`combinatorics.mobius_subgraph` reads mu(sigma, gamma) off the corners of
gamma. This oracle knows nothing of corners: it lists every indifference graph
below gamma, orders them by edge count and solves zeta . mu = e_gamma by back
substitution over Z, so it returns every sigma <= gamma, zeros included.
"""

from __future__ import annotations

from chromaq.combinatorics import IndiffGraph, indifference_graphs


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
