"""Symmetric functions of degree n with coefficients in Z[t, 1/t].

One type, `SymFunc`, holds the coefficients of a homogeneous symmetric
function in one named basis.  In basis M they are the orbit-sum coordinates of
its restriction to n variables, which is faithful in degree n, and every
change of basis goes through them.  The bases are the ones the verbs and
checks read: M (monomial), E (elementary) and PT, the modified Hall-Littlewood
t^{-n(lambda)} P(x; 1/t).  Hall-Littlewood P is read off semistandard
tableaux, P_lam = sum_T psi_T(t) x^T (Macdonald, Symmetric Functions and Hall
Polynomials, III (5.11') and (5.8')), in Z[t] with no division; each
horizontal strip lam/nu of k boxes, with its psi_{lam/nu}, is built once per
(nu, k).  Its constant terms are the Kostka numbers, which the e rows are read
off (Macdonald I.6); m_nu in p_lam counts the ways to drop the parts of lam
into the parts of nu.  Each (basis, degree) has one table of rows, `_rows`,
refused on its p(d)^2 cells past MAX_SWEEP (from degree 18): every basis is
triangular in `gen_partitions` order, so `_peel` takes a vector out of M
against the rows over Z[t, 1/t], in int, and an inexact quotient raises
ArithmeticError.  omega and the plethysm F[(t-1)x] are ring maps diagonal on
p, p_lam -> factor(lam) p_lam, so on m both peel d! F into P, scale each p_lam
and go back by the p rows (`_diagonal`); P is no basis of a SymFunc.  A
SymFunc is immutable: the caches in chromallt hand one object to every caller.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .combinatorics import (
    Frozen,
    Partition,
    _partition_count,
    _partitions,
    nstat,
    transpose,
)
from .exactnum import ONE, ZERO, LaurentPoly
from .exactnum import T as _T
from .guards import require_sweep

BASES = ("M", "E", "PT")

Coeff = LaurentPoly
V = TypeVar("V")


def _coeff(x) -> LaurentPoly:
    """x as a coefficient: a LaurentPoly, or a number made constant."""
    return x if isinstance(x, LaurentPoly) else LaurentPoly.const(x)


# ---------------------------------------------------------------------------
# SymFunc: coefficients in a named basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _require_partition(mu: tuple[int, ...], degree: int) -> None:
    """ValueError unless mu is a partition of degree; checked once per key."""
    if sum(mu) != degree or any(a < b for a, b in zip(mu, mu[1:])) or mu and mu[-1] < 1:
        raise ValueError(f"{mu} is not a partition of {degree}")


class SymFunc(Frozen):
    """A homogeneous symmetric function sum_lam c_lam * b_lam in one named basis.

    Basis M (monomial) holds the orbit-sum coordinates of the symmetric
    polynomial in `degree` variables; `expand_in_basis` converts between bases.
    Immutable: assignment raises and `coeffs` is a read-only mapping.
    Unhashable, since a read-only mapping is.
    """

    __slots__ = _fields = ("degree", "basis", "coeffs")
    degree: int
    basis: str
    coeffs: Mapping[Partition, Coeff]

    def __init__(self, degree: int, basis: str, coeffs: Mapping[Partition, Coeff]):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        cleaned: dict[Partition, Coeff] = {}
        for mu, c in coeffs.items():
            if type(c) is not LaurentPoly:
                c = _coeff(c)
            if not c.coeffs:
                continue
            mu = tuple(mu)
            _require_partition(mu, degree)
            cleaned[mu] = c
        self._set(degree, basis, MappingProxyType(cleaned))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def map_coeffs(self, fn: Callable[[Coeff], Coeff]) -> "SymFunc":
        return SymFunc(self.degree, self.basis, {mu: fn(c) for mu, c in self.coeffs.items()})

    def scale(self, c) -> "SymFunc":
        c = _coeff(c)
        return self.map_coeffs(lambda v: v * c)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        b = self.basis.lower()
        return " + ".join(f"({self.coeffs[mu]})*{b}{list(mu)}"
                          for mu in _partitions(self.degree) if mu in self.coeffs)

    def to_json(self) -> dict:
        items = [{"partition": list(mu), "value": str(self.coeffs[mu])}
                 for mu in _partitions(self.degree) if mu in self.coeffs]
        return {"degree": self.degree, "basis": self.basis, "coeffs": items}


# ---------------------------------------------------------------------------
# basis elements in monomial coordinates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _placements(parts: Partition, room: tuple[int, ...]) -> int:
    """Ways to drop each part into a slot of `room` so that every slot is filled exactly.

    The coefficient of m_nu in p_lam is _placements(lam, nu) (Macdonald I.6).
    The count depends on the slots' room as a multiset, so `room` is kept in
    decreasing order, each value is tried once and equal multisets share one
    entry of the memo.
    """
    if not parts:
        return 1
    k, rest = parts[0], parts[1:]
    total = 0
    for j, r in enumerate(room):
        if r >= k and (j == 0 or room[j - 1] != r):
            left = room[:j] + room[j + 1:] + ((r - k,) if r > k else ())
            total += room.count(r) * _placements(rest, tuple(sorted(left, reverse=True)))
    return total


@lru_cache(maxsize=None)
def _strips(nu: Partition, k: int) -> tuple[tuple[Partition, tuple[tuple[int, int], ...]], ...]:
    """Each lam with lam/nu a horizontal strip of k boxes (lam_{i+1} <= nu_i <= lam_i),
    with the terms (e, c) of psi_{lam/nu}(t), built once per (nu, k) for every content
    and degree.  Macdonald III (5.8'): psi_{lam/nu} has one factor (1 - t^{m_j(nu)})
    for each column j holding no box of the strip while column j + 1 holds one.
    """
    nu_ext, mult, out = nu + (0,), Counter(nu), []

    def rec(i: int, left: int, cap: int) -> Iterator[tuple[int, ...]]:
        if i == len(nu_ext):
            if left == 0:
                yield ()
            return
        for a in range(min(left, cap - nu_ext[i]), -1, -1):
            for rest in rec(i + 1, left - a, nu_ext[i]):
                yield (nu_ext[i] + a,) + rest

    for lam in rec(0, k, nu_ext[0] + k):
        cols = {j for b, a in zip(nu_ext, lam) for j in range(b + 1, a + 1)}
        psi = {0: 1}
        for j in range(1, max(cols, default=0)):
            if j not in cols and j + 1 in cols:
                for e, c in list(psi.items()):
                    psi[e + mult[j]] = psi.get(e + mult[j], 0) - c
        out.append((tuple(x for x in lam if x), tuple((e, c) for e, c in psi.items() if c)))
    return tuple(out)


@lru_cache(maxsize=None)
def _hall_littlewood_coords(d: int) -> dict[Partition, dict[Partition, Coeff]]:
    """Monomial coordinates of all P_lam(x;t), lam a partition of d.

    Macdonald III (5.11'): P_lam = sum_T psi_T(t) x^T over semistandard tableaux
    T of shape lam.  The coefficient of m_mu sums over tableaux of content mu,
    grown one horizontal strip (mu_1 ones, then mu_2 twos, ...) at a time, each
    step weighted by psi_{lam/nu} (`_strips`); the polynomials stay in Z[t].
    """
    out: dict[Partition, dict[Partition, Coeff]] = {lam: {} for lam in _partitions(d)}
    for mu in _partitions(d):
        states: dict[Partition, dict[int, int]] = {(): {0: 1}}
        for k in mu:
            grown: dict[Partition, dict[int, int]] = {}
            for nu, poly in states.items():
                for lam, psi in _strips(nu, k):
                    acc = grown.setdefault(lam, {})
                    for f, b in psi:
                        for e, c in poly.items():
                            acc[e + f] = acc.get(e + f, 0) + b * c
            states = grown
        for lam, poly in states.items():
            if any(poly.values()):
                out[lam][mu] = LaurentPoly.from_terms(poly)
    return out


def _change(coeffs: Mapping[Partition, V],
            row: Callable[[Partition], Iterable[tuple[Partition, V]]]) -> dict[Partition, V]:
    """sum_lam c_lam * row(lam): one sparse change of coordinates.  Each entry
    starts from its first product, so a table over Z keeps int coordinates."""
    out: dict[Partition, V] = {}
    for lam, c in coeffs.items():
        for mu, v in row(lam):
            x = c * v
            out[mu] = out[mu] + x if mu in out else x
    return out


@lru_cache(maxsize=None)
def _rows(basis: str, d: int) -> Mapping[Partition, Mapping[Partition, Coeff]]:
    """Each degree-d row b_lam (p_lam for P) as its nonzero monomial coordinates
    {mu: c}, keyed by lam in peel order: first its pivot rho: c t^k, then the
    rest in increasing order of mu.

    The one table of a (basis, degree) that every change of basis reads; M has
    none.  m_nu in p_lam counts the ways to drop the parts of lam into the parts
    of nu, PT_lam = t^{-n(lam)} P_lam(x; 1/t), and e_lam = sum_nu K_nu,lam s_nu'
    is read off the Kostka numbers, the constant terms of P_nu(x; 0) = s_nu
    (Macdonald I.6, III.2).  b_lam leads with m_rho, rho = lam' for E and lam
    otherwise, and its other m_mu come after rho in `gen_partitions` order,
    before it for P, so rho runs from the start, from the end for P.  The pivot
    is c t^k, with c = 1 but for P, c = prod m_i(lam)!.  A pivot not c t^k or an
    entry on the peeled side of rho raises ArithmeticError.  The p(d)^2 cells
    are refused past MAX_SWEEP (from degree 18) before any row is built.
    """
    p = _partition_count(d)
    require_sweep(f"the {p}^2 cells of the degree-{d} {basis} table", p ** 2)
    keys = _partitions(d)
    if basis == "P":
        table = {lam: {nu: _placements(lam, nu) for nu in keys} for lam in keys}
    elif basis == "PT":
        table = {lam: {mu: c.subs_inv(k) for mu, c in row.items()}
                 for lam, row in _hall_littlewood_coords(d).items() for k in [-nstat(lam)]}
    elif basis == "E":
        kostka = {nu: {mu: c[0] for mu, c in row.items() if c[0]}
                  for nu, row in _hall_littlewood_coords(d).items()}
        table = {lam: Counter() for lam in keys}
        for nu, row in kostka.items():
            for lam, c in row.items():
                for mu, v in kostka[transpose(nu)].items():
                    table[lam][mu] += c * v
    else:
        raise ValueError(f"unknown basis {basis!r}")
    peeled, out = set(), {}
    for rho in (reversed(keys) if basis == "P" else keys):
        lam = transpose(rho) if basis == "E" else rho
        name = f"{basis.lower()}_{list(lam)}"
        coords = {mu: _coeff(c) for mu, c in sorted(table[lam].items()) if c}
        pivot = coords.pop(rho, ZERO)
        if len(pivot.coeffs) != 1:
            raise ArithmeticError(f"{name} has the pivot {pivot} at m_{list(rho)}, not c * t^k")
        early = next((mu for mu in coords if mu in peeled), None)
        if early is not None:
            raise ArithmeticError(f"{name} has an m_{list(early)}-coordinate, but m_{list(early)} "
                                  f"is peeled before m_{list(rho)}")
        peeled.add(rho)
        out[lam] = MappingProxyType({rho: pivot, **coords})
    return MappingProxyType(out)


def _peel(coeffs: Mapping[Partition, Coeff], basis: str, d: int) -> dict[Partition, Coeff]:
    """s F in the named basis, F of degree d given by its m-coordinates over
    Z[t, 1/t], s = d! for P and 1 otherwise: at each rho of `_rows`, the
    m_rho-coordinate left of s F over the pivot is the b_lam-coordinate, and
    that multiple of b_lam is subtracted.  s m_mu has integral coordinates in
    every basis, so an inexact quotient raises ArithmeticError.  A number
    coefficient is made constant, so a Fraction or a float raises TypeError
    before any row is read.
    """
    left = {mu: _coeff(c) for mu, c in coeffs.items()}
    s = factorial(d) if basis == "P" else 1
    left = {mu: c * s for mu, c in left.items()} if s != 1 else left
    out = {}
    for lam, row in _rows(basis, d).items():
        entries = iter(row.items())
        rho, pivot = next(entries)
        v, c = left.pop(rho, ZERO), pivot.coeffs[0]
        if not v.coeffs:
            continue
        if c != 1:
            if any(a % c for a in v.coeffs):
                raise ArithmeticError(f"{s} * F has the non-integer {basis.lower()}_{list(lam)}"
                                      f"-coordinate {v}/{pivot}")
            v = LaurentPoly([a // c for a in v.coeffs], v.low)
        out[lam] = x = v.shift(-pivot.low) if pivot.low else v
        for mu, a in entries:
            left[mu] = left[mu] - x * a if mu in left else -(x * a)
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def basis_element(basis: str, lam: Partition) -> SymFunc:
    """The named basis element in monomial coordinates."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    lam = tuple(lam)
    d = sum(lam)
    _partition_count(d)  # refused on p(d) past MAX_SWEEP, before any partition is listed
    _require_partition(lam, d)
    return SymFunc(d, "M", {lam: 1} if basis == "M" else dict(_rows(basis, d)[lam]))


def expand_in_basis(F: SymFunc, basis: str) -> SymFunc:
    """F rewritten in the named basis through M, by one `_peel`."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if F.basis == basis:
        return F
    d, b = F.degree, F.basis
    coeffs = F.coeffs if b == "M" else _change(F.coeffs, lambda lam: _rows(b, d)[lam].items())
    return SymFunc(d, basis, coeffs if basis == "M" else _peel(coeffs, basis, d))


def _diagonal(F: SymFunc, factor: Callable[[Partition], Coeff | int]) -> SymFunc:
    """F under the ring map p_lam -> factor(lam) p_lam, for F in basis M over
    Z[t, 1/t]: d! F is peeled into P, each p_lam scaled, taken back by the p
    rows and divided by d! exactly; a remainder raises ArithmeticError."""
    if F.basis != "M":
        raise ValueError(f"a map diagonal on p reads the monomial basis, not {F.basis}")
    d = F.degree
    s = factorial(d)
    scaled = {lam: c * factor(lam) for lam, c in _peel(F.coeffs, "P", d).items()}
    row = _change(scaled, lambda lam: _rows("P", d)[lam].items())
    bad = next((nu for nu, c in row.items() if any(a % s for a in c.coeffs)), None)
    if bad is not None:
        raise ArithmeticError(f"p_lam -> {factor.__name__}(lam) p_lam takes F to the "
                              f"non-integer m_{list(bad)}-coordinate ({row[bad]})/{s}")
    return SymFunc(d, "M", {nu: LaurentPoly([a // s for a in c.coeffs], c.low)
                            for nu, c in row.items()})


def _omega_sign(lam: Partition) -> int:
    """(-1)^{|lam| - l(lam)}, the factor of p_lam in omega (Macdonald I (2.13))."""
    return (-1) ** (sum(lam) - len(lam))


def omega(F: SymFunc) -> SymFunc:
    """The involution omega on M: p_lam -> (-1)^{|lam| - l(lam)} p_lam (`_diagonal`)."""
    return _diagonal(F, _omega_sign)


def plethysm_mul(F: SymFunc) -> SymFunc:
    """The plethysm F[(t-1)x] on M: p_k -> (t^k - 1) p_k (`_diagonal`).

    It inverts F -> F[x/(t-1)] (p_k -> p_k / (t^k - 1)); both are ring maps
    that leave the coefficients alone, and this one divides by nothing.
    """
    return _diagonal(F, _plethysm_factor)


@lru_cache(maxsize=None)
def _plethysm_factor(lam: Partition) -> LaurentPoly:
    """prod (t^{lam_i} - 1), the factor of p_lam in plethysm_mul, built once per lam."""
    return prod((_T ** k - 1 for k in lam), start=ONE)


def eval_t(F: SymFunc, q) -> SymFunc:
    """Specialize t = q, an int, in every coefficient (PoleError on poles, and
    TypeError on a value that is no integer, which no coefficient holds)."""
    return F.map_coeffs(lambda c: c.evaluate(q))
