"""The two coloring sums that `chromallt._color_sum` replaced, as its oracles.

For each partition mu, the words kernel (`color_sum`) lists every distinct
word with mu_c copies of color c, then drops the words that break a
`differ` or `rise` edge and counts the ascents of the rest.  The vertex
kernel (`color_by_vertex`) colors the vertices 1..n in turn and never builds
a word that an earlier vertex already rules out.  The package counts by
color classes instead; the tests compare all three exactly.  `asc` scores
one coloring, for the brute-force tables.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable

from chromaq.combinatorics import Edge, Partition, SchroderPath, area, gen_partitions
from chromaq.exactnum import LaurentPoly
from chromaq.symfunc import SymFunc
from orbit_oracle import multiset_perms

# every chromaq name this oracle imports, with its reason; a kernel that the
# package's own path also runs on names, as (reason, test), the test that checks it alone
CHROMAQ_IMPORTS = {
    "combinatorics.Edge": "a type name",
    "combinatorics.Partition": "a type name",
    "combinatorics.SchroderPath": "a value type",
    "combinatorics.area": ("the edges of the graph of a Dyck path, which csf colors too",
                           "tests/test_combinatorics.py::test_tall_paths_read_h_and_d_as_the_cell_walk_does"),
    "combinatorics.gen_partitions": "the contents mu, a listing",
    "exactnum.LaurentPoly": "the value type of the coefficients",
    "symfunc.SymFunc": "the value type of the result",
}


def asc(gamma: SchroderPath, kappa: tuple[int, ...]) -> int:
    """Number of edges {i,j}, i < j, with kappa(i) < kappa(j)."""
    return sum(1 for i, j in area(gamma) if kappa[i - 1] < kappa[j - 1])


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


def color_by_vertex(n: int, asc_edges: Iterable[Edge], differ: Iterable[Edge] = (),
                    rise: Iterable[Edge] = ()) -> SymFunc:
    """The same sum, walking every coloring of content mu one vertex at a time.

    For each partition mu the vertices are colored 1..n in turn, each with a
    color c that still has room for one of its mu_c copies, so only colorings
    of content mu are reached. A prefix is dropped at the first edge back to
    an earlier vertex that it breaks, and the ascents are added as the edges
    close.
    """
    if n == 0:
        return SymFunc(0, "M", {(): 1})
    back = [([], [], []) for _ in range(n)]  # per vertex j: the i < j of each kind of edge
    for kind, es in enumerate((asc_edges, differ, rise)):
        for i, j in es:
            back[j - 1][kind].append(i - 1)
    # csf's differ edges are its asc edges: then one list of colors serves both
    back = [(ups, ups if apart == ups else apart, below) for ups, apart, below in back]
    kappa = [0] * n
    coeffs = {}
    for mu in gen_partitions(n):
        room = list(mu)
        counts: Counter[int] = Counter()

        def place(v: int, ascents: int) -> None:
            ups, apart, below = back[v]
            up_colors = [kappa[i] for i in ups]
            taken = up_colors if apart is ups else [kappa[i] for i in apart]
            lowest = max([kappa[i] for i in below]) + 1 if below else 0
            last = v == n - 1  # then one copy of one color is left
            for c in (room.index(1),) if last else range(lowest, len(room)):
                if c < lowest or not room[c] or c in taken:
                    continue
                a = ascents
                for x in up_colors:
                    if x < c:
                        a += 1
                if last:
                    counts[a] += 1
                    continue
                room[c] -= 1
                kappa[v] = c
                place(v + 1, a)
                room[c] += 1

        place(0, 0)
        coeffs[mu] = LaurentPoly.from_terms(counts)
    return SymFunc(n, "M", coeffs)
