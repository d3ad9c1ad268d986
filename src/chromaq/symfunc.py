"""Symmetric functions of degree n with rational-function coefficients.

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
so its monomial coordinates are built in Z[t] with no division.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

from .combinatorics import Partition, gen_partitions, multiset_perms, nstat, transpose
from .exactnum import (
    LaurentPoly,
    RF_ONE,
    RF_ZERO,
    RationalFunc,
    ratfunc_to_const,
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

@lru_cache(maxsize=None)
def _orbit_monomials(mu: Partition, nvars: int) -> tuple[tuple[int, ...], ...]:
    """All distinct exponent vectors in the S_n-orbit of mu, padded to nvars."""
    padded = mu + (0,) * (nvars - len(mu))
    return tuple(multiset_perms(padded))


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
# SymFunc: coefficients in a named basis
# ---------------------------------------------------------------------------

@dataclass
class SymFunc:
    """A homogeneous symmetric function sum_lam c_lam * b_lam in one named basis.

    Basis M (monomial) holds the orbit-sum coordinates of the symmetric
    polynomial in `degree` variables; `expand_in_basis` converts between bases.
    """

    degree: int
    basis: str
    coeffs: dict[Partition, Coeff]

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        cleaned: dict[Partition, Coeff] = {}
        for mu, c in self.coeffs.items():
            c = _rf(c)
            if c.is_zero:
                continue
            mu = tuple(mu)
            if sum(mu) != self.degree or any(a < b for a, b in zip(mu, mu[1:])) or mu and mu[-1] < 1:
                raise ValueError(f"{mu} is not a partition of {self.degree}")
            cleaned[mu] = c
        self.coeffs = cleaned

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        b = self.basis.lower()
        return " + ".join(f"({self.coeffs[mu]})*{b}{list(mu)}"
                          for mu in gen_partitions(self.degree) if mu in self.coeffs)

    def to_json(self) -> dict:
        items = [{"partition": list(mu), "value": str(self.coeffs[mu])}
                 for mu in gen_partitions(self.degree) if mu in self.coeffs]
        return {"degree": self.degree, "basis": self.basis, "coeffs": items}


# ---------------------------------------------------------------------------
# basis elements in monomial coordinates
# ---------------------------------------------------------------------------

def _mono(mu: Partition, coeff=1) -> dict[Partition, Coeff]:
    return {mu: _rf(coeff)}


def _orbit_product(a: dict[Partition, Coeff], b: dict[Partition, Coeff],
                   degree: int, n: int) -> dict[Partition, Coeff]:
    """Product of two monomial-coordinate dicts of total degree `degree` <= n.

    Read in n variables: the coefficient of m_nu sums a_e * b_{nu - e} over the
    exponent vectors e in the orbits of the keys of a.
    """
    fb = {e: c for mu, c in b.items() for e in _orbit_monomials(mu, n)}
    fa = [(e, c) for mu, c in a.items() for e in _orbit_monomials(mu, n)]
    out: dict[Partition, Coeff] = {}
    for nu in gen_partitions(degree):
        target = nu + (0,) * (n - len(nu))
        acc = RF_ZERO
        for e, c in fa:
            c2 = fb.get(tuple(x - y for x, y in zip(target, e)))
            if c2 is not None:
                acc = acc + c * c2
        if not acc.is_zero:
            out[nu] = acc
    return out


def _product_coords(parts: Partition, unit: Callable[[int], dict[Partition, Coeff]]) -> dict[Partition, Coeff]:
    n = sum(parts)
    acc, deg = {(): RF_ONE}, 0
    for k in parts:
        deg += k
        acc = _orbit_product(acc, unit(k), deg, n)
    return acc


@lru_cache(maxsize=None)
def _m_coords(basis: str, lam: Partition) -> tuple[tuple[Partition, Coeff], ...]:
    """Monomial coordinates of the basis element indexed by lam."""
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

def basis_element(basis: str, lam: Partition) -> SymFunc:
    """The named basis element in monomial coordinates."""
    lam = tuple(lam)
    d = sum(lam)
    require(d <= MAX_DEGREE, f"basis_element: degree {d} exceeds guard {MAX_DEGREE}")
    return SymFunc(d, "M", dict(_m_coords(basis, lam)))


def _change(coeffs: dict[Partition, Coeff],
            row: Callable[[Partition], Iterable[tuple[Partition, Coeff]]]) -> dict[Partition, Coeff]:
    """sum_lam c_lam * row(lam): one sparse change of coordinates."""
    out: dict[Partition, Coeff] = {}
    for lam, c in coeffs.items():
        for mu, v in row(lam):
            out[mu] = out.get(mu, RF_ZERO) + c * v
    return out


def expand_in_basis(F: SymFunc, basis: str) -> SymFunc:
    """F rewritten in the named basis, through its monomial coordinates."""
    require(F.degree <= MAX_DEGREE,
            f"expand_in_basis: degree {F.degree} exceeds guard {MAX_DEGREE}")
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

    Built once per degree through P.  omega is a ring automorphism of
    Lambda_Z, so every entry is an integer (Macdonald I.2); a non-integer
    raises ArithmeticError.
    """
    out = {}
    for mu in gen_partitions(d):
        F = omega(expand_in_basis(SymFunc(d, "M", {mu: RF_ONE}), "P"))
        row = tuple((nu, ratfunc_to_const(c)) for nu, c in expand_in_basis(F, "M").coeffs.items())
        if any(type(v) is not int for _, v in row):
            raise ArithmeticError(f"omega(m_{list(mu)}) has a non-integer m-coordinate")
        out[mu] = row
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
