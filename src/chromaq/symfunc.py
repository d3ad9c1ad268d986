"""Symmetric functions of degree n in n variables with rational-function coefficients.

A homogeneous symmetric function of degree n is faithfully represented by its
restriction to n variables, stored in orbit-sum (monomial) coordinates.  The
supported bases are

  M   monomial                     E   elementary
  H   complete homogeneous         P   power sum
  S   Schur                        HLP Hall-Littlewood P(x; t)
  PT  modified Hall-Littlewood t^{-n(lambda)} P(x; 1/t)

Hall-Littlewood P is read off semistandard tableaux, P_lam = sum_T psi_T(t) x^T
(Macdonald, Symmetric Functions and Hall Polynomials, III (5.11') and (5.8')),
so its monomial coordinates are built in Z[t] with no division.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Mapping

from .combinatorics import Partition, gen_partitions, nstat, transpose
from .exactnum import (
    LaurentPoly,
    RF_ONE,
    RF_ZERO,
    RationalFunc,
    parse_ratfunc,
)
from .guards import require

MAX_DEGREE = 8
BASES = ("M", "E", "H", "P", "S", "HLP", "PT")

Coeff = RationalFunc


def _rf(x) -> RationalFunc:
    if isinstance(x, RationalFunc):
        return x
    if isinstance(x, LaurentPoly):
        return RationalFunc(x)
    return RationalFunc.const(x)


# ---------------------------------------------------------------------------
# monomial orbits
# ---------------------------------------------------------------------------

def _multiset_perms(items: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if not items:
        yield ()
        return
    seen = set()
    for i, x in enumerate(items):
        if x in seen:
            continue
        seen.add(x)
        for rest in _multiset_perms(items[:i] + items[i + 1:]):
            yield (x,) + rest


@lru_cache(maxsize=None)
def _orbit_monomials(mu: Partition, nvars: int) -> tuple[tuple[int, ...], ...]:
    """All distinct exponent vectors in the S_n-orbit of mu, padded to nvars."""
    padded = mu + (0,) * (nvars - len(mu))
    return tuple(_multiset_perms(padded))


def check_symmetric(full: Mapping[tuple[int, ...], Coeff], nvars: int) -> bool:
    """True iff a full exponent-vector table is constant on S_n-orbits."""
    cleaned = {e: c for e, c in full.items() if not _rf(c).is_zero}
    reps: dict[tuple[int, ...], Coeff] = {}
    for e, c in cleaned.items():
        r = tuple(sorted(e, reverse=True))
        if r in reps:
            if _rf(reps[r]) != _rf(c):
                return False
        else:
            reps[r] = c
    for r, c in reps.items():
        mu = tuple(x for x in r if x)
        for e in _orbit_monomials(mu, nvars):
            if _rf(cleaned.get(e, RF_ZERO)) != _rf(c):
                return False
    return True


# ---------------------------------------------------------------------------
# SymPoly: orbit-sum coordinates
# ---------------------------------------------------------------------------

class SymPoly:
    """Homogeneous symmetric polynomial in monomial-orbit coordinates."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs: Mapping[Partition, Coeff]):
        cleaned: dict[Partition, Coeff] = {}
        for mu, c in coeffs.items():
            c = _rf(c)
            if c.is_zero:
                continue
            if sum(mu) != degree or len(mu) > nvars or any(a < b for a, b in zip(mu, mu[1:])):
                raise ValueError(f"{mu} is not a partition of {degree} with at most {nvars} parts")
            cleaned[tuple(mu)] = c
        self.nvars = nvars
        self.degree = degree
        self.coeffs = cleaned

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymPoly):
            return NotImplemented
        return (self.nvars, self.degree, self.coeffs) == (other.nvars, other.degree, other.coeffs)

    def __add__(self, other: "SymPoly") -> "SymPoly":
        if (self.nvars, self.degree) != (other.nvars, other.degree):
            raise AssertionError("cannot add SymPolys of different shape")
        out = dict(self.coeffs)
        for mu, c in other.coeffs.items():
            out[mu] = out.get(mu, RF_ZERO) + c
        return SymPoly(self.nvars, self.degree, out)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "SymPoly":
        c = _rf(c)
        return SymPoly(self.nvars, self.degree, {mu: v * c for mu, v in self.coeffs.items()})

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        """Orbit-aware product; exact as long as degrees stay within nvars."""
        if self.nvars != other.nvars:
            raise AssertionError("cannot multiply SymPolys in different variable counts")
        nv = self.nvars
        deg = self.degree + other.degree
        fb: dict[tuple[int, ...], Coeff] = {}
        for mu, c in other.coeffs.items():
            for e in _orbit_monomials(mu, nv):
                fb[e] = c
        fa: list[tuple[tuple[int, ...], Coeff]] = []
        for mu, c in self.coeffs.items():
            for e in _orbit_monomials(mu, nv):
                fa.append((e, c))
        out: dict[Partition, Coeff] = {}
        for nu in gen_partitions(deg):
            if len(nu) > nv:
                continue
            target = nu + (0,) * (nv - len(nu))
            acc = RF_ZERO
            for e, c in fa:
                e2 = tuple(t - x for t, x in zip(target, e))
                if all(x >= 0 for x in e2):
                    c2 = fb.get(e2)
                    if c2 is not None:
                        acc = acc + c * c2
            if not acc.is_zero:
                out[nu] = acc
        return SymPoly(nv, deg, out)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, mu: Partition) -> Coeff:
        return self.coeffs.get(tuple(mu), RF_ZERO)

    def map_coeffs(self, fn: Callable[[Coeff], Coeff]) -> "SymPoly":
        return SymPoly(self.nvars, self.degree, {mu: fn(c) for mu, c in self.coeffs.items()})

    def eval_t(self, q) -> "SymPoly":
        """Specialize t = q in every coefficient (PoleError on a pole)."""
        return self.map_coeffs(lambda c: RationalFunc.const(c.evaluate(q)))

    def full_table(self) -> dict[tuple[int, ...], Coeff]:
        """Expand to the complete exponent-vector table."""
        out: dict[tuple[int, ...], Coeff] = {}
        for mu, c in self.coeffs.items():
            for e in _orbit_monomials(mu, self.nvars):
                out[e] = c
        return out

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for mu in gen_partitions(self.degree):
            if mu in self.coeffs:
                bits.append(f"({self.coeffs[mu]})*m{list(mu)}")
        return " + ".join(bits)

    __repr__ = __str__


def sympoly_zero(nvars: int, degree: int) -> SymPoly:
    return SymPoly(nvars, degree, {})


# ---------------------------------------------------------------------------
# SymFunc: coefficients in a named basis
# ---------------------------------------------------------------------------

@dataclass
class SymFunc:
    degree: int
    basis: str
    coeffs: dict[Partition, Coeff]

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        self.coeffs = {tuple(mu): _rf(c) for mu, c in self.coeffs.items() if not _rf(c).is_zero}
        for mu in self.coeffs:
            if sum(mu) != self.degree:
                raise ValueError(f"partition {mu} has wrong size for degree {self.degree}")

    def coeff(self, mu: Partition) -> Coeff:
        return self.coeffs.get(tuple(mu), RF_ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return (self.degree, self.basis, self.coeffs) == (other.degree, other.basis, other.coeffs)

    def map_coeffs(self, fn: Callable[[Coeff], Coeff]) -> "SymFunc":
        return SymFunc(self.degree, self.basis, {mu: fn(c) for mu, c in self.coeffs.items()})

    def scale(self, c) -> "SymFunc":
        c = _rf(c)
        return self.map_coeffs(lambda v: v * c)

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if (self.degree, self.basis) != (other.degree, other.basis):
            raise AssertionError("cannot add SymFuncs of different degree or basis")
        out = dict(self.coeffs)
        for mu, c in other.coeffs.items():
            out[mu] = out.get(mu, RF_ZERO) + c
        return SymFunc(self.degree, self.basis, out)

    def to_json(self) -> dict:
        items = [{"partition": list(mu), "value": str(self.coeffs[mu])}
                 for mu in gen_partitions(self.degree) if mu in self.coeffs]
        return {"degree": self.degree, "basis": self.basis, "coeffs": items}

    @staticmethod
    def from_json(obj: dict) -> "SymFunc":
        coeffs = {tuple(item["partition"]): parse_ratfunc(item["value"]) for item in obj["coeffs"]}
        return SymFunc(obj["degree"], obj["basis"], coeffs)


# ---------------------------------------------------------------------------
# basis elements in monomial coordinates
# ---------------------------------------------------------------------------

def _mono(mu: Partition, coeff=1) -> dict[Partition, Coeff]:
    return {mu: _rf(coeff)}


def _product_coords(parts: Partition, unit: Callable[[int], dict[Partition, Coeff]]) -> dict[Partition, Coeff]:
    deg = sum(parts)
    if deg == 0:
        return {(): RF_ONE}
    acc = SymPoly(deg, 0, {(): RF_ONE})
    for k in parts:
        acc = acc * SymPoly(deg, k, unit(k))
    return acc.coeffs


@lru_cache(maxsize=None)
def _m_coords(basis: str, lam: Partition) -> tuple[tuple[Partition, Coeff], ...]:
    """Monomial coordinates of the basis element indexed by lam (nvars = degree)."""
    d = sum(lam)
    if basis == "M":
        coords = _mono(lam)
    elif basis == "P":
        coords = _product_coords(lam, lambda k: _mono((k,)))
    elif basis == "E":
        coords = _product_coords(lam, lambda k: _mono(tuple([1] * k)))
    elif basis == "H":
        coords = _product_coords(lam, lambda k: {mu: RF_ONE for mu in gen_partitions(k)})
    elif basis == "S":
        coords = _schur_coords(lam)
    elif basis == "HLP":
        coords = _hall_littlewood_coords(d)[lam]
    elif basis == "PT":
        shift = RationalFunc(LaurentPoly.t(-nstat(lam)))
        coords = {mu: c.subs_inv() * shift for mu, c in _hall_littlewood_coords(d)[lam].items()}
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return tuple(sorted(coords.items()))


def _schur_coords(lam: Partition) -> dict[Partition, Coeff]:
    """Dual Jacobi-Trudi: s_lam = det(e_{lam'_i - i + j}), expanded over the e basis."""
    if not lam:
        return {(): RF_ONE}
    lamt = transpose(lam)
    m = lam[0]

    e_combo: dict[Partition, int] = {}

    def leibniz(i: int, used: int, sign: int, idx: list[int]) -> None:
        if i == m:
            key = tuple(sorted((x for x in idx if x), reverse=True))
            e_combo[key] = e_combo.get(key, 0) + sign
            return
        li = lamt[i] if i < len(lamt) else 0
        for j in range(m):
            if used >> j & 1:
                continue
            k = li - (i + 1) + (j + 1)
            if k < 0:
                continue
            # new inversions: previously used columns larger than j
            s = -sign if bin(used >> (j + 1)).count("1") % 2 else sign
            idx.append(k)
            leibniz(i + 1, used | (1 << j), s, idx)
            idx.pop()

    leibniz(0, 0, 1, [])
    out: dict[Partition, Coeff] = {}
    for e_idx, c in e_combo.items():
        if c == 0:
            continue
        for mu, v in _m_coords("E", e_idx):
            out[mu] = out.get(mu, RF_ZERO) + v * c
    return {mu: c for mu, c in out.items() if not c.is_zero}


def _horizontal_strips(nu: Partition, k: int) -> Iterator[Partition]:
    """Every lam with lam/nu a horizontal strip of k boxes (lam_{i+1} <= nu_i <= lam_i)."""
    nu_ext = nu + (0,)

    def rec(i: int, left: int, cap: int) -> Iterator[tuple[int, ...]]:
        if i == len(nu_ext):
            if left == 0:
                yield ()
            return
        for a in range(min(left, cap - nu_ext[i]), -1, -1):
            for rest in rec(i + 1, left - a, nu_ext[i]):
                yield (nu_ext[i] + a,) + rest

    for lam in rec(0, k, nu_ext[0] + k):
        yield tuple(x for x in lam if x)


def _psi_strip(lam: Partition, nu: Partition) -> tuple[int, ...]:
    """Exponents m with psi_{lam/nu}(t) = prod (1 - t^m), Macdonald III (5.8').

    One factor (1 - t^{m_j(nu)}) for each column j holding no box of the strip
    while column j + 1 holds one.
    """
    cols = {j for i, a in enumerate(lam) for j in range((nu[i] if i < len(nu) else 0) + 1, a + 1)}
    mult = Counter(nu)
    return tuple(mult[j] for j in range(1, max(cols, default=0)) if j not in cols and j + 1 in cols)


def _times_one_minus_t(poly: dict[int, int], m: int) -> dict[int, int]:
    out = dict(poly)
    for e, c in poly.items():
        out[e + m] = out.get(e + m, 0) - c
    return out


@lru_cache(maxsize=None)
def _hall_littlewood_coords(d: int) -> dict[Partition, dict[Partition, Coeff]]:
    """Monomial coordinates of all P_lam(x;t), lam a partition of d.

    Macdonald III (5.11'): P_lam = sum_T psi_T(t) x^T over semistandard tableaux
    T of shape lam.  The coefficient of m_mu sums over tableaux of content mu,
    grown one horizontal strip (mu_1 ones, then mu_2 twos, ...) at a time, each
    step weighted by psi_{lam/nu}; the polynomials stay in Z[t] as {exponent: int}.
    """
    out: dict[Partition, dict[Partition, Coeff]] = {lam: {} for lam in gen_partitions(d)}
    for mu in gen_partitions(d):
        states: dict[Partition, dict[int, int]] = {(): {0: 1}}
        for k in mu:
            grown: dict[Partition, dict[int, int]] = {}
            for nu, poly in states.items():
                for lam in _horizontal_strips(nu, k):
                    step = poly
                    for m in _psi_strip(lam, nu):
                        step = _times_one_minus_t(step, m)
                    acc = grown.setdefault(lam, {})
                    for e, c in step.items():
                        acc[e] = acc.get(e, 0) + c
            states = grown
        for lam, poly in states.items():
            terms = {e: c for e, c in poly.items() if c}
            if terms:
                out[lam][mu] = RationalFunc(LaurentPoly.from_terms(terms))
    return out


def _lprod(factors) -> LaurentPoly:
    acc = LaurentPoly.const(1)
    for f in factors:
        acc = acc * f
    return acc


@lru_cache(maxsize=None)
def _from_monomials(basis: str, d: int) -> dict[Partition, dict[Partition, Coeff]]:
    """Each m_mu, mu a partition of d, expanded in the named basis.

    The only Gauss-Jordan elimination of the module, run once per (basis, d):
    the basis elements in m-coordinates are the columns of A, and the columns
    of A^{-1} are the m_mu in that basis.
    """
    keys = gen_partitions(d)
    n = len(keys)
    idx = {k: i for i, k in enumerate(keys)}
    aug = [[RF_ZERO] * n + [RF_ONE if i == k else RF_ZERO for k in range(n)] for i in range(n)]
    for j, lam in enumerate(keys):
        for mu, c in _m_coords(basis, lam):
            aug[idx[mu]][j] = c
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero), None)
        if piv is None:
            raise ArithmeticError("singular basis system: not a genuine basis")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = RF_ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return {keys[k]: {keys[j]: aug[j][n + k] for j in range(n) if not aug[j][n + k].is_zero}
            for k in range(n)}


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def basis_element(basis: str, lam: Partition, nvars: int) -> SymPoly:
    """The named basis element as a symmetric polynomial in nvars variables."""
    lam = tuple(lam)
    d = sum(lam)
    require(d <= nvars <= MAX_DEGREE,
            f"basis_element: need |lam| = {d} <= nvars <= {MAX_DEGREE}, got nvars = {nvars}")
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    coords = {mu: c for mu, c in _m_coords(basis, lam) if len(mu) <= nvars}
    return SymPoly(nvars, d, coords)


def expand_in_basis(f: SymPoly, basis: str) -> SymFunc:
    """Coefficients c with sum_lam c_lam * basis_element(basis, lam) = f."""
    if f.nvars < f.degree:
        raise ValueError("need nvars >= degree for a faithful expansion")
    table = _from_monomials(basis, f.degree)
    out: dict[Partition, Coeff] = {}
    for mu, c in f.coeffs.items():
        for lam, v in table[mu].items():
            out[lam] = out.get(lam, RF_ZERO) + c * v
    return SymFunc(f.degree, basis, out)


def symfunc_to_sympoly(F: SymFunc, nvars: int | None = None) -> SymPoly:
    """Assemble the symmetric polynomial sum_lam c_lam * basis_element."""
    nv = F.degree if nvars is None else nvars
    acc = sympoly_zero(nv, F.degree)
    for lam, c in F.coeffs.items():
        acc = acc + basis_element(F.basis, lam, nv).scale(c)
    return acc


def omega(F: SymFunc) -> SymFunc:
    """The involution omega: sign rule on p, transpose on s, e <-> h swap."""
    if F.basis == "P":
        return SymFunc(F.degree, "P",
                       {lam: c * ((-1) ** (sum(lam) - len(lam))) for lam, c in F.coeffs.items()})
    if F.basis == "S":
        return SymFunc(F.degree, "S", {transpose(lam): c for lam, c in F.coeffs.items()})
    if F.basis == "E":
        return SymFunc(F.degree, "H", dict(F.coeffs))
    if F.basis == "H":
        return SymFunc(F.degree, "E", dict(F.coeffs))
    raise ValueError(f"omega unsupported on basis {F.basis!r}; convert first")


def plethysm_frac(F: SymFunc) -> SymFunc:
    """Substitute p_k -> p_k / (t^k - 1), i.e. the x/(t-1) plethysm on power sums."""
    if F.basis != "P":
        raise ValueError("plethysm_frac expects the power-sum basis")
    t = LaurentPoly.t()
    out = {}
    for lam, c in F.coeffs.items():
        den = _lprod(t ** k - 1 for k in lam)
        out[lam] = c / RationalFunc(den)
    return SymFunc(F.degree, "P", out)


def eval_t(F: SymFunc, q) -> SymFunc:
    """Specialize t = q in every coefficient (PoleError on poles)."""
    return F.map_coeffs(lambda c: RationalFunc.const(c.evaluate(q)))
