"""Superclass-function helpers that only the tests read.

`upset_sum_by_scan` sums indicators of upsets by testing every graph on [n]
for containment, edge set by edge set: the scan that the package's upset lists
replaced.  `delta_bar` is the indicator of a pattern subgroup UT_gamma, by that
scan, and `inner_product_UT` the standard inner product of UT_n(F_q) class
functions, weighted by the package's superclass sizes, a product over the columns of h.
"""

from __future__ import annotations

from fractions import Fraction

from typing import Iterable

from chromaq.combinatorics import IndiffGraph, indifference_graphs
from chromaq.fqoracle import ClassFnUT, _check_q, superclass_sizes, ut_order


def upset_sum_by_scan(n: int, q: int, terms: Iterable[tuple[IndiffGraph, int]]) -> ClassFnUT:
    """sum of c * (indicator of the graphs containing gamma) over (gamma, c) in terms."""
    graphs = indifference_graphs(n)
    acc = [0] * len(graphs)
    for gamma, c in terms:
        e = gamma.edges
        for i, g in enumerate(graphs):
            if e <= g.edges:
                acc[i] += c
    return ClassFnUT(n, q, tuple(acc))


def delta_bar(gamma: IndiffGraph, q: int) -> ClassFnUT:
    """Indicator of UT_gamma: 1 on superclasses sigma with E(sigma) >= E(gamma)."""
    _check_q(q)
    return upset_sum_by_scan(gamma.n, q, [(gamma, 1)])


def inner_product_UT(phi: ClassFnUT, psi: ClassFnUT) -> Fraction:
    """Standard inner product, computed from enumerated superclass sizes."""
    if (phi.n, phi.q) != (psi.n, psi.q):
        raise ValueError("inner_product_UT needs matching (n, q)")
    sizes = superclass_sizes(phi.n, phi.q)
    total = sum(sizes[g] * v * w for (g, v), w in zip(phi.items(), psi.values))
    return Fraction(total, ut_order(phi.n, phi.q))
