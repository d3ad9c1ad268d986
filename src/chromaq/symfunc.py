"""Symmetric functions of degree n with Laurent-polynomial coefficients.

One type, `SymFunc`, holds the coefficients of a homogeneous symmetric
function in one named basis.  In basis M they are the orbit-sum coordinates
of its restriction to n variables, which is faithful in degree n, and every
change of basis goes through them.  The supported bases are

  M   monomial                     E   elementary
  H   complete homogeneous         P   power sum
  S   Schur                        HLP Hall-Littlewood P(x; t)
  PT  modified Hall-Littlewood t^{-n(lambda)} P(x; 1/t)

Hall-Littlewood P is read off semistandard tableaux, P_lam = sum_T psi_T(t) x^T
(Macdonald, Symmetric Functions and Hall Polynomials, III (5.11') and (5.8')),
so its monomial coordinates are built in Z[t] with no division; each
horizontal strip lam/nu of k boxes, with its psi_{lam/nu}, is built once per
(nu, k) and shared by every content and degree.  Its constant
terms are the Kostka numbers, s_lam = sum_mu K_lam,mu m_mu, and the rows of h
and e are sums of Schur rows weighted by them (Macdonald I.6); the coefficient
of m_nu in p_lam counts the ways to drop the parts of lam into the parts of
nu.  No basis element is built by multiplying exponent vectors.  Every
change-of-basis table is unitriangular up to a power of t (M, S, HLP, PT) or
constant (E, H, P), so the Laurent ring Q[t, 1/t] holds every coefficient and
no basis change divides by a polynomial.  The table of p in m is lower
triangular, so d! times m -> p is built over Z by forward substitution; P,
the table of omega on m and `bridge` read it with one exact division each.
The other bases share one inversion.  Both take p(d)^3 steps and are refused
on that count past MAX_SWEEP (from degree 11) before any work.  A SymFunc is
immutable: the caches in chromallt hand one object to every caller.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .combinatorics import (
    Frozen,
    Partition,
    _partition_count,
    _partitions,
    nstat,
    transpose,
)
from .exactnum import ONE, ZERO, LaurentPoly, _div
from .exactnum import T as _T
from .guards import require_sweep

BASES = ("M", "E", "H", "P", "S", "HLP", "PT")

Coeff = LaurentPoly


def _coeff(x) -> LaurentPoly:
    """x as a coefficient: a LaurentPoly, or an int or Fraction made constant."""
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

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if (self.degree, self.basis) != (other.degree, other.basis):
            raise AssertionError("cannot add SymFuncs of different degree or basis")
        out = dict(self.coeffs)
        for mu, c in other.coeffs.items():
            out[mu] = out.get(mu, ZERO) + c
        return SymFunc(self.degree, self.basis, out)

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
def _m_coords(basis: str, lam: Partition) -> tuple[tuple[Partition, Coeff], ...]:
    """Monomial coordinates of the basis element indexed by lam.

    s, h and e are read off one Kostka table (Macdonald I.6): s_lam is its row,
    h_lam = sum_nu K_nu,lam s_nu and e_lam = sum_nu K_nu,lam s_nu'.  Any basis
    but M fills a p(d) x p(d) table, refused on its cells past MAX_SWEEP
    (from degree 18) before any of it is built.
    """
    d = sum(lam)
    if basis != "M":
        p = _partition_count(d)
        require_sweep(f"the {p}^2 cells of the degree-{d} {basis} table", p ** 2)
    if basis == "M":
        coords = {lam: 1}
    elif basis == "P":
        coords = {nu: _placements(lam, nu) for nu in _partitions(d)}
    elif basis in ("S", "H", "E"):
        kostka = _kostka(d)
        if basis == "S":
            rows = [(1, lam)]
        else:
            rows = [(row[lam], transpose(nu) if basis == "E" else nu)
                    for nu, row in kostka.items() if lam in row]
        coords = Counter()
        for k, nu in rows:
            for mu, v in kostka[nu].items():
                coords[mu] += k * v
    elif basis == "HLP":
        coords = _hall_littlewood_coords(d)[lam]
    elif basis == "PT":
        shift = -nstat(lam)
        coords = {mu: c.subs_inv().shift(shift) for mu, c in _hall_littlewood_coords(d)[lam].items()}
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return tuple(sorted((mu, _coeff(c)) for mu, c in coords.items() if c))


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


@lru_cache(maxsize=None)
def _kostka(d: int) -> dict[Partition, dict[Partition, int]]:
    """The Kostka numbers K_lam,mu of degree d, s_lam = sum_mu K_lam,mu m_mu.

    The constant terms of the tableau build, since P_lam(x; 0) = s_lam
    (Macdonald III.2); each row keeps its nonzero entries.
    """
    return {lam: {mu: c[0] for mu, c in row.items() if c[0]}
            for lam, row in _hall_littlewood_coords(d).items()}


def _invert(a: list[list[Coeff]]) -> list[list[Coeff]]:
    """The inverse of a square matrix over the Laurent ring Q[t, 1/t], by Gauss-Jordan.

    Each pivot, the first nonzero entry on or below the diagonal, must be a
    unit c * t^k of the ring; any other pivot raises ArithmeticError.
    """
    n = len(a)
    aug = [list(row) + [ONE if i == k else ZERO for k in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero), None)
        if piv is None:
            raise ArithmeticError("singular basis system: not a genuine basis")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        if len(p.coeffs) != 1:
            raise ArithmeticError(f"pivot {p} is not a unit of Q[t, 1/t]")
        inv = LaurentPoly([_div(1, p.coeffs[0])], low=-p.low)
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and not f.is_zero:
                aug[r] = [x if y.is_zero else x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _m_to_p_integral(d: int) -> dict[Partition, dict[Partition, int]]:
    """d! times each m_mu, mu a partition of d, in the power-sum basis, over Z.

    p_lam = sum_mu R(lam, mu) m_mu with R(lam, mu) = _placements(lam, mu) is
    lower triangular in `gen_partitions` order, with R(lam, lam) = prod m_i(lam)!
    on the diagonal, so forward substitution gives d! m_mu = (d! p_mu - sum over
    nu before mu of R(mu, nu) d! m_nu) / R(mu, mu).  Each entry of m -> p is an
    integer over z_lam, and d!/z_lam is a class size, so every quotient is
    exact; one that is not raises ArithmeticError.  Its p(d)^3 steps are
    refused past MAX_SWEEP, as the inversion's are.
    """
    p = _partition_count(d)
    require_sweep(f"the {p}^3 steps substituting the degree-{d} m -> p table", p ** 3)
    keys = _partitions(d)
    scale = factorial(d)
    out: dict[Partition, dict[Partition, int]] = {}
    for i, mu in enumerate(keys):
        acc = {mu: scale}
        for nu in keys[:i]:
            r = _placements(mu, nu)
            if r:
                for lam, y in out[nu].items():
                    acc[lam] = acc.get(lam, 0) - r * y
        pivot = _placements(mu, mu)
        row = {}
        for lam in keys[:i + 1]:
            v = acc.get(lam, 0)
            if v:
                if v % pivot:
                    raise ArithmeticError(f"{scale} * m_{list(mu)} has the non-integer "
                                          f"p_{list(lam)}-coordinate {v}/{pivot}")
                row[lam] = v // pivot
        out[mu] = row
    return out


@lru_cache(maxsize=None)
def _from_monomials(basis: str, d: int) -> dict[Partition, dict[Partition, Coeff]]:
    """Each m_mu, mu a partition of d, expanded in the named basis.

    P is read off `_m_to_p_integral`, one exact division by d! per entry.
    Every other basis runs the only matrix inversion of the module, once per
    (basis, d): the basis elements in m-coordinates are the columns of A, and
    the columns of A^{-1} are the m_mu in that basis.  In `gen_partitions`
    order every pivot is a unit of Q[t, 1/t], so A^{-1} stays in the Laurent
    ring.
    """
    if basis == "P":
        scale = factorial(d)
        return {mu: {lam: LaurentPoly.const(_div(y, scale)) for lam, y in row.items()}
                for mu, row in _m_to_p_integral(d).items()}
    p = _partition_count(d)
    require_sweep(f"the {p}^3 steps inverting the degree-{d} {basis} table", p ** 3)
    keys = _partitions(d)
    idx = {k: i for i, k in enumerate(keys)}
    a = [[ZERO] * len(keys) for _ in keys]
    for j, lam in enumerate(keys):
        for mu, c in _m_coords(basis, lam):
            a[idx[mu]][j] = c
    inv = _invert(a)
    return {mu: {keys[j]: row[k] for j, row in enumerate(inv) if not row[k].is_zero}
            for k, mu in enumerate(keys)}


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def basis_element(basis: str, lam: Partition) -> SymFunc:
    """The named basis element in monomial coordinates."""
    lam = tuple(lam)
    d = sum(lam)
    _partition_count(d)  # refused on p(d) past MAX_SWEEP, before any partition is listed
    _require_partition(lam, d)
    return SymFunc(d, "M", dict(_m_coords(basis, lam)))


def _change(coeffs: dict[Partition, Coeff],
            row: Callable[[Partition], Iterable[tuple[Partition, Coeff]]]) -> dict[Partition, Coeff]:
    """sum_lam c_lam * row(lam): one sparse change of coordinates."""
    out: dict[Partition, Coeff] = {}
    for lam, c in coeffs.items():
        for mu, v in row(lam):
            out[mu] = out.get(mu, ZERO) + c * v
    return out


def expand_in_basis(F: SymFunc, basis: str) -> SymFunc:
    """F rewritten in the named basis, through its monomial coordinates."""
    if F.basis == basis:
        return F
    coeffs = F.coeffs
    if F.basis != "M":
        coeffs = _change(coeffs, lambda lam: _m_coords(F.basis, lam))
    if basis != "M":
        table = _from_monomials(basis, F.degree)
        coeffs = _change(coeffs, lambda mu: table[mu].items())
    return SymFunc(F.degree, basis, coeffs)


@lru_cache(maxsize=None)
def _omega_m(d: int) -> dict[Partition, tuple[tuple[Partition, int], ...]]:
    """omega(m_mu) in monomial coordinates, for every partition mu of d.

    Built once per degree over Z: omega(m_mu) = (1/d!) sum_lam X[mu][lam]
    (-1)^{d - l(lam)} p_lam with X = `_m_to_p_integral(d)`, and each p_lam
    taken back to m by _placements.  omega is a ring automorphism of
    Lambda_Z, so the one division by d! is exact (Macdonald I.2); a
    non-integer raises ArithmeticError.
    """
    keys = _partitions(d)
    to_p, scale = _m_to_p_integral(d), factorial(d)
    p_in_m = {lam: [(nu, r) for nu in keys if (r := _placements(lam, nu))] for lam in keys}
    out = {}
    for mu in keys:
        acc: dict[Partition, int] = {}
        for lam, y in to_p[mu].items():
            if (d - len(lam)) % 2:
                y = -y
            for nu, r in p_in_m[lam]:
                acc[nu] = acc.get(nu, 0) + r * y
        if any(v % scale for v in acc.values()):
            raise ArithmeticError(f"omega(m_{list(mu)}) has a non-integer m-coordinate")
        out[mu] = tuple((nu, acc[nu] // scale) for nu in keys if acc.get(nu))
    return out


def omega(F: SymFunc) -> SymFunc:
    """The involution omega: sign rule on p, transpose on s, e <-> h swap,
    one cached integer table on m.

    Any other basis goes through p and back.
    """
    if F.basis == "P":
        return SymFunc(F.degree, "P",
                       {lam: c * ((-1) ** (sum(lam) - len(lam))) for lam, c in F.coeffs.items()})
    if F.basis == "S":
        return SymFunc(F.degree, "S", {transpose(lam): c for lam, c in F.coeffs.items()})
    if F.basis == "E":
        return SymFunc(F.degree, "H", dict(F.coeffs))
    if F.basis == "H":
        return SymFunc(F.degree, "E", dict(F.coeffs))
    if F.basis == "M":
        table = _omega_m(F.degree)
        return SymFunc(F.degree, "M", _change(F.coeffs, table.__getitem__))
    return expand_in_basis(omega(expand_in_basis(F, "P")), F.basis)


def plethysm_mul(F: SymFunc) -> SymFunc:
    """Substitute p_k -> (t^k - 1) p_k, the plethysm F[(t-1)x] on power sums.

    It inverts F -> F[x/(t-1)] (p_k -> p_k / (t^k - 1)); both are ring maps
    that leave the coefficients alone, and this one divides by nothing.
    """
    if F.basis != "P":
        raise ValueError("plethysm_mul expects the power-sum basis")
    return SymFunc(F.degree, "P", {lam: c * _plethysm_factor(lam) for lam, c in F.coeffs.items()})


@lru_cache(maxsize=None)
def _plethysm_factor(lam: Partition) -> LaurentPoly:
    """prod (t^{lam_i} - 1), the factor of p_lam in plethysm_mul, built once per lam."""
    return prod((_T ** k - 1 for k in lam), start=ONE)


def eval_t(F: SymFunc, q) -> SymFunc:
    """Specialize t = q in every coefficient (PoleError on poles)."""
    return F.map_coeffs(lambda c: c.evaluate(q))
