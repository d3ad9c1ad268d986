"""Superclass-function helpers that only the tests read.

`upset_sum_by_scan` sums indicators of upsets by testing every graph on [n]
for containment, edge set by edge set: the scan that the package's upset lists
replaced.  `delta_bar` is the indicator of a pattern subgroup UT_gamma, by that
scan, and `inner_product_UT` the standard inner product of UT_n(F_q) class
functions, weighted by the package's superclass sizes, a product over the columns of h.

The package builds a class function from its tuple of values and never adds
two.  `class_fn` reads a mapping into that tuple, and `fn_sum` and `fn_scale`
are the sums and multiples, value by value, that the tests of linearity and
the perturbed sides need.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from chromaq.combinatorics import IndiffGraph, indifference_graphs
from chromaq.fqoracle import ClassFnUT, _check_q, superclass_sizes, ut_order

# every chromaq name this oracle imports, with its reason; a kernel that the
# package's own path also runs on names, as (reason, test), the test that checks it alone
CHROMAQ_IMPORTS = {
    "combinatorics.IndiffGraph": "a value type",
    "combinatorics.indifference_graphs": "the graphs on [n], a listing",
    "fqoracle.ClassFnUT": "the value type of a class function",
    "fqoracle._check_q": "the field-size guard",
    "fqoracle.superclass_sizes": ("the weights of the inner product; the package's compute "
                                  "verb reads them too",
                                  "tests/test_fqoracle.py::test_superclass_sizes_equal_the_tuple_sweep_of_labels"),
    "fqoracle.ut_order": "|UT_n(F_q)|, a count",
}


def class_fn(cls: type, n: int, q: int, vals: Mapping):
    """The class function of type cls (ClassFnUT or UnipClassFn) with the given
    values, zero on every key not named."""
    keys = cls._keys(n)
    out = [0] * len(keys)
    for key, v in vals.items():
        out[keys.index(key)] = v
    return cls(n, q, tuple(out))


def fn_sum(*fs):
    """The sum of class functions of one type and one (n, q), value by value."""
    f = fs[0]
    if any(type(g) is not type(f) or (g.n, g.q) != (f.n, f.q) for g in fs):
        raise ValueError("cannot add class functions of different groups")
    return type(f)(f.n, f.q, tuple(map(sum, zip(*(g.values for g in fs)))))


def fn_scale(f, c):
    """c times the class function f, value by value."""
    return type(f)(f.n, f.q, tuple(v * c for v in f.values))


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
