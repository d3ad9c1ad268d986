"""The words kernel: the coloring sum that `chromallt._color_sum` replaced.

For each partition mu it lists every distinct word with mu_c copies of color
c, then drops the words that break a `differ` or `rise` edge and counts the
ascents of the rest. The package colors vertex by vertex instead and never
builds a word that an earlier vertex already rules out; the tests compare the
two exactly. `asc` scores one coloring, for the brute-force tables.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable

from chromaq.combinatorics import Edge, IndiffGraph, Partition, gen_partitions
from chromaq.exactnum import LaurentPoly
from chromaq.symfunc import SymFunc
from orbit_oracle import multiset_perms


def asc(gamma: IndiffGraph, kappa: tuple[int, ...]) -> int:
    """Number of edges {i,j}, i < j, with kappa(i) < kappa(j)."""
    return sum(1 for i, j in gamma.edges if kappa[i - 1] < kappa[j - 1])


@lru_cache(maxsize=None)
def words(mu: Partition) -> tuple[tuple[int, ...], ...]:
    """The distinct words with mu_c copies of color c, for each part c of mu."""
    return tuple(multiset_perms(tuple(c for c, m in enumerate(mu) for _ in range(m))))


def color_sum(n: int, asc_edges: Iterable[Edge], differ: Iterable[Edge] = (),
              rise: Iterable[Edge] = ()) -> SymFunc:
    """Sum of t^{# ascending asc_edges} x^kappa over colorings kappa of [n], in basis M.

    kappa must differ on the ends of every `differ` edge and strictly increase
    along every `rise` edge. Only words of partition content are enumerated.
    """
    asc_edges, differ, rise = ([(i - 1, j - 1) for i, j in es] for es in (asc_edges, differ, rise))
    coeffs = {}
    for mu in gen_partitions(n):
        counts: Counter[int] = Counter()
        for kappa in words(mu):
            if any(kappa[i] == kappa[j] for i, j in differ) or \
                    any(kappa[i] >= kappa[j] for i, j in rise):
                continue
            counts[sum(1 for i, j in asc_edges if kappa[i] < kappa[j])] += 1
        coeffs[mu] = LaurentPoly.from_terms(counts)
    return SymFunc(n, "M", coeffs)
