"""The orientation walk that `chromallt.as_expansion` replaced.

`orientations` builds every orientation of a graph as an `Orientation`
object, `hrv` finds each highest reachable vertex by a graph search, and
`type_of` reads the fibre sizes off it. `as_expansion_walk` is the old
`as_expansion` on top of them. The package reads the same h-vector off a bit
mask in one pass from n down to 1; the tests compare the two exactly.
`as_expansion_powers` is the bit-mask `as_expansion` before it added the
binomial rows of (t-1)^k into integer lists: it sums m (t-1)^k as Laurent
polynomials, one power of t - 1 built per k.
"""

from __future__ import annotations

import itertools
from collections import Counter

from chromaq.chromallt import _h_vector
from chromaq.combinatorics import (
    Edge,
    Frozen,
    Partition,
    SchroderPath,
    area,
    diag,
    path_of_graph,
)
from chromaq.exactnum import LaurentPoly
from chromaq.guards import require_sweep
from chromaq.symfunc import SymFunc

# every chromaq name this oracle imports, with its reason; a kernel that the
# package's own path also runs on names, as (reason, test), the test that checks it alone
CHROMAQ_IMPORTS = {
    "chromallt._h_vector": ("the one-pass h-vector, the inner step of as_expansion, which "
                            "as_expansion_powers runs on too",
                            "tests/test_chromallt.py::test_one_pass_hrv_matches_the_graph_search"),
    "combinatorics.Edge": "a type name",
    "combinatorics.Frozen": "the immutable base of Orientation",
    "combinatorics.Partition": "a type name",
    "combinatorics.SchroderPath": "a value type",
    "combinatorics.area": ("the edges a tall path orients, which as_expansion reads too",
                           "tests/test_combinatorics.py::test_tall_paths_read_h_and_d_as_the_cell_walk_does"),
    "combinatorics.diag": ("the edges that point up, which as_expansion reads too",
                           "tests/test_combinatorics.py::test_tall_paths_read_h_and_d_as_the_cell_walk_does"),
    "exactnum.LaurentPoly": "the value type of the coefficients",
    "guards.require_sweep": "the size guard of the oracle's enumeration",
    "combinatorics.path_of_graph": ("the Dyck path of Area u Diag, the base of each orientation",
                                    "tests/test_combinatorics.py::test_graphs_record_the_hessenberg_function_of_their_edges"),
    "symfunc.SymFunc": "the value type of the result",
}


class Orientation(Frozen):
    __slots__ = _fields = ("base", "arcs")
    base: SchroderPath
    arcs: frozenset[Edge]

    def __init__(self, base: SchroderPath, arcs: frozenset[Edge]):
        undirected, edges = frozenset(tuple(sorted(a)) for a in arcs), area(base)
        if undirected != edges or len(arcs) != len(edges):
            raise ValueError("arcs do not orient the base edge set exactly")
        self._set(base, arcs)


def orientations(gamma: SchroderPath) -> list[Orientation]:
    """All 2^|E| orientations of gamma."""
    require_sweep(f"the orientations of {len(area(gamma))} edges", 2 ** len(area(gamma)))
    es = sorted(area(gamma))
    out = []
    for choice in itertools.product((0, 1), repeat=len(es)):
        arcs = frozenset((i, j) if c == 0 else (j, i) for (i, j), c in zip(es, choice))
        out.append(Orientation(gamma, arcs))
    return out


def hrv(theta: Orientation, i: int) -> int:
    """Highest vertex reachable from i along a strictly increasing directed path."""
    seen = {i}
    stack = [i]
    succ: dict[int, list[int]] = {}
    for a, b in theta.arcs:
        if b > a:
            succ.setdefault(a, []).append(b)
    while stack:
        v = stack.pop()
        for w in succ.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return max(seen)


def type_of(theta: Orientation) -> Partition:
    """Partition of n recording the fiber sizes of the hrv map."""
    n = theta.base.size
    fibers: dict[int, int] = {}
    for i in range(1, n + 1):
        v = hrv(theta, i)
        fibers[v] = fibers.get(v, 0) + 1
    return tuple(sorted(fibers.values(), reverse=True))


def as_expansion_walk(sigma: SchroderPath) -> SymFunc:
    """Sum of (t-1)^{# ascending area edges} e_{type(theta)}, one `Orientation` at a time."""
    n = sigma.size
    a_edges = sorted(area(sigma))
    d_edges = sorted(diag(sigma))
    require_sweep(f"the orientations of the {len(a_edges)} area edges of {sigma}",
                  2 ** len(a_edges))
    gamma = path_of_graph(n, frozenset(a_edges) | frozenset(d_edges))
    counts: Counter[tuple[Partition, int]] = Counter()
    for choice in itertools.product((0, 1), repeat=len(a_edges)):
        arcs = set(d_edges)
        arcs.update((j, i) if c else (i, j) for (i, j), c in zip(a_edges, choice))
        counts[type_of(Orientation(gamma, frozenset(arcs))), choice.count(0)] += 1
    coeffs: dict[Partition, LaurentPoly] = {}
    for (ty, k), m in counts.items():
        coeffs[ty] = coeffs.get(ty, LaurentPoly()) + m * (LaurentPoly.t() - 1) ** k
    return SymFunc(n, "E", coeffs)


def as_expansion_powers(sigma: SchroderPath) -> SymFunc:
    """The orientation counts of `as_expansion`, summed as m * (t-1)^k in Q[t]."""
    n = sigma.size
    a_edges = sorted(area(sigma))
    d_edges = sorted(diag(sigma))
    up: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (i, j) in enumerate(a_edges + d_edges):
        up[i - 1].append((1 << k, j - 1))
    diag_up = (1 << (len(a_edges) + len(d_edges))) - (1 << len(a_edges))
    counts: Counter[tuple[Partition, int]] = Counter()
    for mask in range(2 ** len(a_edges)):
        fibres = Counter(_h_vector(up, mask | diag_up)).values()
        counts[tuple(sorted(fibres, reverse=True)), mask.bit_count()] += 1
    powers = [LaurentPoly.const(1)]
    for _ in a_edges:
        powers.append(powers[-1] * (LaurentPoly.t() - 1))
    coeffs: dict[Partition, LaurentPoly] = {}
    for (ty, k), m in counts.items():
        coeffs[ty] = coeffs.get(ty, LaurentPoly()) + powers[k] * m
    return SymFunc(n, "E", coeffs)
