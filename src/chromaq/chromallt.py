"""Chromatic quasisymmetric functions, vertical-strip LLT polynomials, and
their expansions, all built directly from coloring enumerations.

Colorings use the color set [n]: a degree-n monomial in n variables never
needs more than n distinct colors, so this finite truncation is faithful.
Both X_gamma (Shareshian-Wachs, Adv. Math. 2016) and the vertical-strip LLT
polynomial (Haglund-Haiman-Loehr, JAMS 2005) are symmetric, so the
coefficient of m_mu equals the coefficient of the single monomial x^mu.  Only
colorings whose content is a partition mu are therefore enumerated: the
distinct words with mu_1 copies of color 1, mu_2 of color 2, and so on.

`csf`, `llt_vertical` and `as_expansion` are built once per process for each
graph or path (both are immutable and hash by value, so they key an
`lru_cache`); the cached SymFunc is immutable, so every caller may share it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Iterable

from .combinatorics import (
    Edge,
    IndiffGraph,
    Orientation,
    Partition,
    SchroderPath,
    area,
    diag,
    gen_partitions,
    multiset_perms,
    type_of,
)
from .exactnum import LaurentPoly
from .guards import require, require_sweep
from .symfunc import SymFunc, expand_in_basis

MAX_COLORING_N = 8

Coloring = tuple[int, ...]


def asc(gamma: IndiffGraph, kappa: Coloring) -> int:
    """Number of edges {i,j}, i < j, with kappa(i) < kappa(j)."""
    return sum(1 for i, j in gamma.edges if kappa[i - 1] < kappa[j - 1])


@lru_cache(maxsize=None)
def _words(mu: Partition) -> tuple[tuple[int, ...], ...]:
    """The distinct words with mu_c copies of color c, for each part c of mu."""
    return tuple(multiset_perms(tuple(c for c, m in enumerate(mu) for _ in range(m))))


def _color_sum(n: int, asc_edges: Iterable[Edge], differ: Iterable[Edge] = (),
               rise: Iterable[Edge] = ()) -> SymFunc:
    """Sum of t^{# ascending asc_edges} x^kappa over colorings kappa of [n], in basis M.

    kappa must differ on the ends of every `differ` edge and strictly increase
    along every `rise` edge. Only words of partition content are enumerated.
    """
    asc_edges, differ, rise = ([(i - 1, j - 1) for i, j in es] for es in (asc_edges, differ, rise))
    coeffs = {}
    for mu in gen_partitions(n):
        counts: Counter[int] = Counter()
        for kappa in _words(mu):
            if any(kappa[i] == kappa[j] for i, j in differ) or \
                    any(kappa[i] >= kappa[j] for i, j in rise):
                continue
            counts[sum(1 for i, j in asc_edges if kappa[i] < kappa[j])] += 1
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


@lru_cache(maxsize=None)
def as_expansion(sigma: SchroderPath) -> SymFunc:
    """Orientation-sum e-expansion of the vertical-strip LLT polynomial.

    Sums (t-1)^{# ascending area edges} e_{type(theta)} over orientations of
    ([n], Area u Diag) whose Diag edges all point ascending.
    """
    if not sigma.is_tall:
        raise ValueError("as_expansion needs a tall path")
    n = sigma.size
    a_edges = sorted(area(sigma))
    d_edges = sorted(diag(sigma))
    require_sweep(f"the orientations of the {len(a_edges)} area edges of {sigma}",
                  2 ** len(a_edges))
    gamma = IndiffGraph(n, frozenset(a_edges) | frozenset(d_edges))
    counts: Counter[tuple[Partition, int]] = Counter()
    for choice in product((0, 1), repeat=len(a_edges)):
        arcs = set(d_edges)
        arcs.update((j, i) if c else (i, j) for (i, j), c in zip(a_edges, choice))
        counts[type_of(Orientation(gamma, frozenset(arcs))), choice.count(0)] += 1
    powers = [LaurentPoly.const(1)]  # (t-1)^k for k <= |Area|
    for _ in a_edges:
        powers.append(powers[-1] * (LaurentPoly.t() - 1))
    coeffs: dict[Partition, LaurentPoly] = {}
    for (ty, k), m in counts.items():
        coeffs[ty] = coeffs.get(ty, LaurentPoly()) + m * powers[k]
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
