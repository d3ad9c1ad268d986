"""Chromatic quasisymmetric functions, vertical-strip LLT polynomials, and
their expansions, all built directly from coloring enumerations.

Colorings use the color set [n]: a degree-n monomial in n variables never
needs more than n distinct colors, so this finite truncation is faithful.
Both X_gamma (Shareshian-Wachs, Adv. Math. 2016) and the vertical-strip LLT
polynomial (Haglund-Haiman-Loehr, JAMS 2005) are symmetric, so the
coefficient of m_mu equals the coefficient of the single monomial x^mu.  Only
colorings whose content is a partition mu are therefore counted: those with
mu_1 copies of color 1, mu_2 of color 2, and so on.

`csf`, `llt_vertical` and `as_expansion` are built once per process for each
graph or path (both are immutable and hash by value, so they key an
`lru_cache`); the cached SymFunc is immutable, so every caller may share it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable

from .combinatorics import (
    Edge,
    IndiffGraph,
    Partition,
    SchroderPath,
    _partitions,
    area,
    diag,
)
from .exactnum import ONE, ZERO, LaurentPoly, T
from .guards import require, require_sweep
from .symfunc import SymFunc, expand_in_basis

MAX_COLORING_N = 8

def _color_sum(n: int, asc_edges: Iterable[Edge], differ: Iterable[Edge] = (),
               rise: Iterable[Edge] = ()) -> SymFunc:
    """Sum of t^{# ascending asc_edges} x^kappa over colorings kappa of [n], in basis M.

    kappa must differ on the ends of every `differ` edge and strictly increase
    along every `rise` edge; every edge is (i, j) with i < j. For each
    partition mu the vertices are colored 1..n in turn, each with a color c
    that still has room for one of its mu_c copies, so only colorings of
    content mu are reached. A prefix is dropped at the first edge back to an
    earlier vertex that it breaks, and the ascents are added as the edges close.
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
    for mu in _partitions(n):
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


@lru_cache(maxsize=None)
def csf(gamma: IndiffGraph) -> SymFunc:
    """Chromatic quasisymmetric function: sum over proper colorings of t^asc x^kappa."""
    require(gamma.n <= MAX_COLORING_N, f"csf: n = {gamma.n} exceeds guard {MAX_COLORING_N}")
    return _color_sum(gamma.n, gamma.edges, differ=gamma.edges)


@lru_cache(maxsize=None)
def llt_vertical(sigma: SchroderPath) -> SymFunc:
    """Vertical-strip LLT polynomial of a tall Schroeder path.

    Colorings must strictly increase along Diag edges; the ascent statistic is
    taken on the graph ([n], Area(sigma)).
    """
    if not sigma.is_tall:
        raise ValueError("llt_vertical needs a tall path")
    n = sigma.size
    require(n <= MAX_COLORING_N, f"llt_vertical: n = {n} exceeds guard {MAX_COLORING_N}")
    return _color_sum(n, area(sigma), rise=diag(sigma))


def _h_vector(up: list[list[tuple[int, int]]], mask: int) -> list[int]:
    """The highest vertex reachable from each i in [n] along increasing arcs.

    up[i - 1] lists (bit, j - 1) for each edge {i, j}, i < j: the arc i -> j is
    present when `mask & bit`, so h(i) = max(i, h(j) over those arcs), from n down.
    """
    h = list(range(1, len(up) + 1))
    for i in range(len(up) - 1, -1, -1):
        top = h[i]
        for bit, j in up[i]:
            if mask & bit and h[j] > top:
                top = h[j]
        h[i] = top
    return h


@lru_cache(maxsize=None)
def as_expansion(sigma: SchroderPath) -> SymFunc:
    """Orientation-sum e-expansion of the vertical-strip LLT polynomial.

    Sums (t-1)^{# ascending area edges} e_{type(theta)} over orientations of
    ([n], Area u Diag) whose Diag edges all point ascending. An orientation is
    a bit mask over the sorted area edges, a set bit for an edge that points up;
    its type is the sorted fibre sizes of `_h_vector`.
    """
    if not sigma.is_tall:
        raise ValueError("as_expansion needs a tall path")
    n = sigma.size
    a_edges = sorted(area(sigma))
    d_edges = sorted(diag(sigma))
    require_sweep(f"the orientations of the {len(a_edges)} area edges of {sigma}",
                  2 ** len(a_edges))
    up: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (i, j) in enumerate(a_edges + d_edges):
        up[i - 1].append((1 << k, j - 1))
    diag_up = (1 << (len(a_edges) + len(d_edges))) - (1 << len(a_edges))
    counts: Counter[tuple[Partition, int]] = Counter()
    for mask in range(2 ** len(a_edges)):
        fibres = Counter(_h_vector(up, mask | diag_up)).values()
        counts[tuple(sorted(fibres, reverse=True)), mask.bit_count()] += 1
    powers = [ONE]  # (t - 1)^k for k = 0..|Area|, each built once
    for _ in a_edges:
        powers.append(powers[-1] * (T - 1))
    coeffs: dict[Partition, LaurentPoly] = {}
    for (ty, k), m in counts.items():
        coeffs[ty] = coeffs.get(ty, ZERO) + powers[k] * m
    return SymFunc(n, "E", coeffs)


def d_coeffs(gamma: IndiffGraph) -> dict[Partition, LaurentPoly]:
    """Expansion of X_gamma in the symbolic modified Hall-Littlewood basis."""
    return dict(expand_in_basis(csf(gamma), "PT").coeffs)


def is_nonneg_int_poly(f: LaurentPoly) -> bool:
    """True iff f lies in Z_{>=0}[t] (no negative exponents, coefficients in Z_{>=0})."""
    if f.is_zero:
        return True
    return f.low >= 0 and all(c.denominator == 1 and c >= 0 for _, c in f.terms())


def e_expansion_X(gamma: IndiffGraph) -> tuple[SymFunc, list[Partition]]:
    """e-basis coefficients of X_gamma plus the list of any outside Z_{>=0}[t].

    The positivity half is an experiment harness (the statement is an open
    conjecture), so violations are reported, never raised.
    """
    F = expand_in_basis(csf(gamma), "E")
    violations = []
    for lam, c in sorted(F.coeffs.items()):
        if not is_nonneg_int_poly(c):
            violations.append(lam)
    return F, violations
