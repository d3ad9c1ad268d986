"""Chromatic quasisymmetric functions, vertical-strip LLT polynomials, and
their expansions, all built directly from coloring enumerations.

Colorings use the color set [n]: a degree-n monomial in n variables never
needs more than n distinct colors, so this finite truncation is faithful.
"""

from __future__ import annotations

from itertools import product

from .combinatorics import (
    MAX_ORIENT_EDGES,
    IndiffGraph,
    Orientation,
    Partition,
    SchroderPath,
    area,
    diag,
    type_of,
)
from .exactnum import LaurentPoly, RationalFunc, ratfunc_to_laurent
from .guards import require
from .symfunc import SymFunc, SymPoly, check_symmetric, expand_in_basis

MAX_COLORING_N = 8
MAX_EXPANSION_N = 6

Coloring = tuple[int, ...]


def asc(gamma: IndiffGraph, kappa: Coloring) -> int:
    """Number of edges {i,j}, i < j, with kappa(i) < kappa(j)."""
    return sum(1 for i, j in gamma.edges if kappa[i - 1] < kappa[j - 1])


def _collect(n: int, table: dict[tuple[int, ...], dict[int, int]]) -> SymPoly:
    """Turn {exponent vector: {t-power: count}} into an orbit-form SymPoly."""
    full = {e: RationalFunc(LaurentPoly.from_terms(powers)) for e, powers in table.items()}
    if not check_symmetric(full, n):
        raise AssertionError("coloring table is not symmetric")
    coeffs = {}
    for e, c in full.items():
        mu = tuple(x for x in e if x)
        if tuple(sorted(e, reverse=True)) == e:
            coeffs[mu] = c
    return SymPoly(n, n, coeffs)


def _exponent(kappa: Coloring, n: int) -> tuple[int, ...]:
    e = [0] * n
    for c in kappa:
        e[c - 1] += 1
    return tuple(e)


def csf(gamma: IndiffGraph) -> SymPoly:
    """Chromatic quasisymmetric function: sum over proper colorings of t^asc x^kappa."""
    n = gamma.n
    require(n <= MAX_COLORING_N, f"csf: n = {n} exceeds guard {MAX_COLORING_N}")
    edges = [(i - 1, j - 1) for i, j in gamma.sorted_edges()]
    table: dict[tuple[int, ...], dict[int, int]] = {}
    for kappa in product(range(1, n + 1), repeat=n):
        if any(kappa[i] == kappa[j] for i, j in edges):
            continue
        a = sum(1 for i, j in edges if kappa[i] < kappa[j])
        row = table.setdefault(_exponent(kappa, n), {})
        row[a] = row.get(a, 0) + 1
    return _collect(n, table)


def llt_vertical(sigma: SchroderPath) -> SymPoly:
    """Vertical-strip LLT polynomial of a tall Schroeder path.

    Colorings must strictly increase along Diag edges; the ascent statistic is
    taken on the graph ([n], Area(sigma)).
    """
    if not sigma.is_tall:
        raise ValueError("llt_vertical needs a tall path")
    n = sigma.size
    require(n <= MAX_COLORING_N, f"llt_vertical: n = {n} exceeds guard {MAX_COLORING_N}")
    area_edges = [(i - 1, j - 1) for i, j in sorted(area(sigma))]
    diag_edges = [(i - 1, j - 1) for i, j in sorted(diag(sigma))]
    table: dict[tuple[int, ...], dict[int, int]] = {}
    for kappa in product(range(1, n + 1), repeat=n):
        if any(kappa[i] >= kappa[j] for i, j in diag_edges):
            continue
        a = sum(1 for i, j in area_edges if kappa[i] < kappa[j])
        row = table.setdefault(_exponent(kappa, n), {})
        row[a] = row.get(a, 0) + 1
    return _collect(n, table)


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
    require(len(a_edges) + len(d_edges) <= MAX_ORIENT_EDGES,
            f"as_expansion: |E| exceeds guard {MAX_ORIENT_EDGES}")
    gamma = IndiffGraph(n, frozenset(a_edges) | frozenset(d_edges))
    tm1 = LaurentPoly.t() - 1
    coeffs: dict[Partition, RationalFunc] = {}
    for choice in product((0, 1), repeat=len(a_edges)):
        arcs = set((i, j) for i, j in d_edges)
        asc_count = 0
        for (i, j), c in zip(a_edges, choice):
            if c == 0:
                arcs.add((i, j))
                asc_count += 1
            else:
                arcs.add((j, i))
        theta = Orientation(gamma, frozenset(arcs))
        ty = type_of(theta)
        w = RationalFunc(tm1 ** asc_count)
        coeffs[ty] = coeffs.get(ty, RationalFunc.const(0)) + w
    return SymFunc(n, "E", coeffs)


def d_coeffs(gamma: IndiffGraph) -> dict[Partition, LaurentPoly]:
    """Expansion of X_gamma in the symbolic modified Hall-Littlewood basis.

    Coefficients are coerced to Laurent polynomials; failure to clear is a bug
    tripwire, not an expected runtime condition.
    """
    require(gamma.n <= MAX_EXPANSION_N,
            f"d_coeffs: n = {gamma.n} exceeds guard {MAX_EXPANSION_N}")
    F = expand_in_basis(csf(gamma), "PT")
    out = {lam: ratfunc_to_laurent(F.coeff(lam)) for lam in F.coeffs}
    return out


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
    require(gamma.n <= MAX_EXPANSION_N,
            f"e_expansion_X: n = {gamma.n} exceeds guard {MAX_EXPANSION_N}")
    F = expand_in_basis(csf(gamma), "E")
    violations = []
    for lam, c in sorted(F.coeffs.items()):
        if not (c.is_laurent and is_nonneg_int_poly(c.num)):
            violations.append(lam)
    return F, violations
