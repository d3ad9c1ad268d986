"""Superclass-function helpers that only the tests read.

`delta_bar` is the indicator of a pattern subgroup UT_gamma, and
`inner_product_UT` the standard inner product of UT_n(F_q) class functions,
weighted by the superclass sizes that the package's UT_n sweep counts.
"""

from __future__ import annotations

from fractions import Fraction

from chromaq.combinatorics import IndiffGraph
from chromaq.fqoracle import ClassFnUT, _check_q, _upset_sum, superclass_sizes, ut_order


def delta_bar(gamma: IndiffGraph, q: int) -> ClassFnUT:
    """Indicator of UT_gamma: 1 on superclasses sigma with E(sigma) >= E(gamma)."""
    _check_q(q)
    return _upset_sum(gamma.n, q, [(gamma, 1)])


def inner_product_UT(phi: ClassFnUT, psi: ClassFnUT) -> Fraction:
    """Standard inner product, computed from enumerated superclass sizes."""
    if (phi.n, phi.q) != (psi.n, psi.q):
        raise ValueError("inner_product_UT needs matching (n, q)")
    sizes = superclass_sizes(phi.n, phi.q)
    total = sum(sizes[g] * v * w for (g, v), w in zip(phi.items(), psi.values))
    return Fraction(total, ut_order(phi.n, phi.q))
