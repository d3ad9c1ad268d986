"""The symmetric-function realization maps and the theorem checkers.

p_brace1 sends a unipotently supported class function to the modified
Hall-Littlewood combination sum phi(J_lam) * PT_lam(x; q); p_one composes
with the plethystic twist f -> omega f[x/(t-1)]|_{t=q} and lands in the
Schur basis, recording irreducible unipotent constituents.

Every check_* verifies one identity exactly (tolerance zero) over every
index in range and reports the first witness on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Callable, Iterable

from .chromallt import as_expansion, csf, d_coeffs, llt_vertical
from .combinatorics import (
    Partition,
    SchroderPath,
    area,
    area_inverse,
    diag,
    gen_dyck,
    gen_partitions,
    gen_tall_schroder,
    graph_of,
    indifference_graphs,
    mesa,
)
from .exactnum import LaurentPoly, Rat, RationalFunc, _frac, ratfunc_to_const
from .fqoracle import (
    ClassFnUT,
    MatrixFq,
    UnipClassFn,
    chi_bar,
    chi_super,
    hessenberg_count,
    induce_to_GL,
    jordan,
    mat_minus_identity,
    psi_pseudo,
)
from .symfunc import (
    SymFunc,
    _from_monomials,
    _m_coords,
    basis_element,
    eval_t,
    expand_in_basis,
    omega,
    plethysm_frac,
)

T = LaurentPoly.t()


# ---------------------------------------------------------------------------
# realization maps
# ---------------------------------------------------------------------------

def _consts(row: Iterable[tuple[Partition, RationalFunc]]) -> dict[Partition, Rat]:
    """A table row of constants, as plain numbers (ArithmeticError if one involves t)."""
    return {mu: ratfunc_to_const(c) for mu, c in row}


@lru_cache(maxsize=None)
def _pt_at_q(d: int, q: int) -> dict[Partition, dict[Partition, Rat]]:
    """Each PT_lam(x; q), lam a partition of d, in monomial coordinates."""
    return {lam: {mu: _frac(c.evaluate(q)) for mu, c in _m_coords("PT", lam)}
            for lam in gen_partitions(d)}


@lru_cache(maxsize=None)
def _m_to_p(d: int) -> dict[Partition, dict[Partition, Rat]]:
    """Each m_mu, mu a partition of d, in the power-sum basis."""
    return {mu: _consts(row.items()) for mu, row in _from_monomials("P", d).items()}


@lru_cache(maxsize=None)
def _omega_p_to_s(d: int) -> dict[Partition, dict[Partition, Rat]]:
    """Each omega(p_lam) = (-1)^{d - l(lam)} p_lam, lam a partition of d, in the Schur basis."""
    out = {}
    for lam in gen_partitions(d):
        sign = (-1) ** (d - len(lam))
        row = _consts(expand_in_basis(SymFunc(d, "P", {lam: 1}), "S").coeffs.items())
        out[lam] = {nu: sign * c for nu, c in row.items()}
    return out


def _apply(coeffs: dict[Partition, Rat], table: dict[Partition, dict[Partition, Rat]]) -> dict[Partition, Rat]:
    """sum_lam c_lam * table[lam], over Q."""
    out: dict[Partition, Rat] = {}
    for lam, c in coeffs.items():
        for mu, v in table[lam].items():
            out[mu] = out.get(mu, 0) + c * v
    return out


def _brace1_coords(phi: UnipClassFn) -> dict[Partition, Rat]:
    return _apply({lam: v for lam, v in phi.items() if v}, _pt_at_q(phi.n, phi.q))


def p_brace1(phi: UnipClassFn) -> SymFunc:
    """sum over lam of phi(J_lam) * PT_lam(x; q), with t specialized at q, in basis M."""
    return SymFunc(phi.n, "M", _brace1_coords(phi))


def p_one(phi: UnipClassFn) -> SymFunc:
    """Unipotent-constituent image: omega (p_brace1(phi))[x/(t-1)]|_{t=q}, in Schur basis.

    Runs over Q: p_brace1 in P, each p_lam divided by prod (q^{lam_i} - 1),
    then omega and the change to S as one table.
    """
    q = phi.q
    F = _apply(_brace1_coords(phi), _m_to_p(phi.n))
    F = {lam: Fraction(c, prod(q ** k - 1 for k in lam)) for lam, c in F.items()}
    return SymFunc(phi.n, "S", _apply(F, _omega_p_to_s(phi.n)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    check: str
    n: int
    q: int | None
    status: str
    witness: dict | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise AssertionError(f"unknown status {self.status!r}")
        if self.witness is None and self.status == "fail":
            raise AssertionError("a failing report needs a witness")

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"check": self.check, "n": self.n, "q": self.q,
                "status": self.status, "witness": self.witness}


# check_cor66 is implied by these two; recorded for reporting purposes
DEPENDENCIES = {"check_cor66": ("check_llt", "check_as")}


def _scan(name: str, n: int, q: int | None, items: Iterable,
          test: Callable[[object], tuple[bool, object, object]]) -> CheckReport:
    for item in items:
        ok, lhs, rhs = test(item)
        if not ok:
            witness = {"index": str(item), "lhs": str(lhs), "rhs": str(rhs)}
            return CheckReport(name, n, q, "fail", witness)
    return CheckReport(name, n, q, "pass")


# ---------------------------------------------------------------------------
# the checkers
# ---------------------------------------------------------------------------

def check_cqs(n: int, q: int) -> CheckReport:
    """Induced permutation characters realize (q-1)^n X_gamma(x; q)."""
    scale = RationalFunc.const((q - 1) ** n)

    def test(gamma):
        lhs = p_brace1(induce_to_GL(chi_bar(gamma, q)))
        rhs = eval_t(csf(gamma), q).scale(scale)
        return lhs == rhs, lhs, rhs

    return _scan("check_cqs", n, q, indifference_graphs(n), test)


def check_hess(n: int, q: int) -> CheckReport:
    """Induced character values count Hessenberg points: (q-1)^n q^{|E|} |B|."""
    items = [(g, lam) for g in indifference_graphs(n) for lam in gen_partitions(n)]

    def test(item):
        gamma, lam = item
        ind = induce_to_GL(chi_bar(gamma, q))
        cnt = hessenberg_count(gamma, MatrixFq(q, mat_minus_identity(jordan(lam, q).rows, q)))
        lhs = ind(lam)
        rhs = (q - 1) ** n * q ** len(gamma.edges) * cnt
        return lhs == rhs, lhs, rhs

    return _scan("check_hess", n, q, items, test)


def check_poincare(n: int, q: int) -> CheckReport:
    """Hessenberg point counts equal q^{-|E|} d_lam^gamma(q)."""
    items = [(g, lam) for g in indifference_graphs(n) for lam in gen_partitions(n)]
    dcache = {g: d_coeffs(g) for g in indifference_graphs(n)}

    def test(item):
        gamma, lam = item
        cnt = hessenberg_count(gamma, MatrixFq(q, mat_minus_identity(jordan(lam, q).rows, q)))
        dval = dcache[gamma].get(lam, LaurentPoly()).evaluate(q)
        rhs = dval / q ** len(gamma.edges)
        return cnt == rhs, cnt, rhs

    return _scan("check_poincare", n, q, items, test)


def check_llt(n: int, q: int) -> CheckReport:
    """Pseudosupercharacters induce to (q-1)^{|Diag|} omega G_sigma(x; q)."""

    def test(sigma):
        lhs = p_one(induce_to_GL(psi_pseudo(sigma, q)))
        G = eval_t(llt_vertical(sigma), q)
        scale = RationalFunc.const((q - 1) ** len(diag(sigma)))
        rhs = expand_in_basis(omega(G).scale(scale), "S")
        return lhs == rhs, lhs.to_json(), rhs.to_json()

    return _scan("check_llt", n, q, gen_tall_schroder(n), test)


def check_mesa(n: int, q: int) -> CheckReport:
    """psi of the mesa path equals the supercharacter of the graph."""

    def test(pi):
        lhs = psi_pseudo(mesa(pi), q)
        rhs = chi_super(graph_of(pi), q)
        return lhs == rhs, {str(g): str(v) for g, v in lhs.items() if v}, \
            {str(g): str(v) for g, v in rhs.items() if v}

    return _scan("check_mesa", n, q, gen_dyck(n), test)


def check_psi_decomp(n: int, q: int) -> CheckReport:
    """psi^sigma equals the sum of chi^gamma over Diag <= E(gamma) <= Area u Diag."""
    graphs = indifference_graphs(n)

    def test(sigma):
        lhs = psi_pseudo(sigma, q)
        a, d = area(sigma), diag(sigma)
        rhs = ClassFnUT.from_dict(n, q, {})
        for gamma in graphs:
            if d <= gamma.edges <= (a | d):
                rhs = rhs + chi_super(gamma, q)
        return lhs == rhs, {str(g): str(v) for g, v in lhs.items() if v}, \
            {str(g): str(v) for g, v in rhs.items() if v}

    return _scan("check_psi_decomp", n, q, gen_tall_schroder(n), test)


def check_permtoind(n: int, q: int) -> CheckReport:
    """chi_bar agrees with the directly-counted permutation character."""
    from .fqoracle import permutation_character_oracle

    def test(gamma):
        lhs = chi_bar(gamma, q)
        rhs = permutation_character_oracle(gamma, q)
        return lhs == rhs, {str(g): str(v) for g, v in lhs.items()}, \
            {str(g): str(v) for g, v in rhs.items()}

    return _scan("check_permtoind", n, q, indifference_graphs(n), test)


def check_as(n: int) -> CheckReport:
    """Orientation e-expansion equals the coloring LLT polynomial, symbolically."""

    def test(sigma):
        lhs = expand_in_basis(as_expansion(sigma), "M")
        rhs = llt_vertical(sigma)
        return lhs == rhs, lhs, rhs

    return _scan("check_as", n, None, gen_tall_schroder(n), test)


def check_cm(n: int) -> CheckReport:
    """(t-1)^n X_{Graph(pi)}[x/(t-1)] = G_pi, symbolically in t."""
    scale = RationalFunc((T - 1) ** n)

    def test(pi):
        F = expand_in_basis(csf(graph_of(pi)), "P")
        F = plethysm_frac(F).scale(scale)
        lhs = expand_in_basis(F, "M")
        rhs = llt_vertical(pi.as_schroder())
        return lhs == rhs, lhs, rhs

    return _scan("check_cm", n, None, gen_dyck(n), test)


def check_palindromic(n: int) -> CheckReport:
    """t^{|E|} X(x; 1/t) = X(x; t) for every indifference graph."""

    def test(gamma):
        X = csf(gamma)
        shift = RationalFunc(LaurentPoly.t(len(gamma.edges)))
        lhs = X.map_coeffs(lambda c: c.subs_inv() * shift)
        return lhs == X, lhs, X

    return _scan("check_palindromic", n, None, indifference_graphs(n), test)


def check_prop56(n: int) -> CheckReport:
    """Both LLT transformation identities, symbolically in t.

    (i)  t^{|Area(pi)|} G_pi(x; 1/t) = omega G_pi(x; t) for Dyck pi;
    (ii) (t-1)^{|Diag|} G_sigma = signed sum of unicellular G over Diag subsets.
    """
    from itertools import product as iproduct

    gcache: dict[str, SymFunc] = {}

    def G(path: SchroderPath) -> SymFunc:
        if path.steps not in gcache:
            gcache[path.steps] = llt_vertical(path)
        return gcache[path.steps]

    def test_i(pi):
        g = G(pi.as_schroder())
        shift = RationalFunc(LaurentPoly.t(len(area(pi))))
        lhs = g.map_coeffs(lambda c: c.subs_inv() * shift)
        rhs = omega(g)
        return lhs == rhs, lhs, rhs

    for pi in gen_dyck(n):
        ok, lhs, rhs = test_i(pi)
        if not ok:
            return CheckReport("check_prop56", n, None, "fail",
                               {"part": "i", "index": str(pi), "lhs": str(lhs), "rhs": str(rhs)})

    for sigma in gen_tall_schroder(n):
        d = sorted(diag(sigma))
        a = area(sigma)
        lhs = G(sigma).scale(RationalFunc((T - 1) ** len(d)))
        rhs = SymFunc(n, "M", {})
        for mask in iproduct((0, 1), repeat=len(d)):
            s = frozenset(e for e, m in zip(d, mask) if m)
            sign = (-1) ** (len(d) - len(s))
            rhs = rhs + G(area_inverse(a | s, n).as_schroder()).scale(RationalFunc.const(sign))
        if lhs != rhs:
            return CheckReport("check_prop56", n, None, "fail",
                               {"part": "ii", "index": str(sigma), "lhs": str(lhs), "rhs": str(rhs)})

    return CheckReport("check_prop56", n, None, "pass")


def check_gg(n: int, q: int) -> CheckReport:
    """The normalized staircase induction maps to e_n under omega o p_one."""
    if n < 1:
        raise ValueError(f"check_gg needs n >= 1, got n = {n}")
    sigma = SchroderPath("E" + "D" * (n - 1) + "S")
    ind = induce_to_GL(psi_pseudo(sigma, q))
    denom = (q - 1) ** (n - 1)
    for lam, v in ind.items():
        if v % denom:
            return CheckReport("check_gg", n, q, "fail",
                               {"index": str(lam), "lhs": str(v),
                                "rhs": f"multiple of {denom}"})
    gamma_n = UnipClassFn(n, q, tuple(v // denom for v in ind.values))
    lhs = omega(p_one(gamma_n))
    e_n = {tuple([1] * n): RationalFunc.const(1)}
    ok = lhs.coeffs == e_n
    if ok:
        return CheckReport("check_gg", n, q, "pass")
    return CheckReport("check_gg", n, q, "fail",
                       {"index": "omega p_one(Gamma_n)", "lhs": str(lhs.to_json()),
                        "rhs": "e_n"})


def check_st_en(n: int) -> CheckReport:
    """t^{binom(n,2)} PT_{(1^n)}(x; t) = e_n, symbolically."""
    lam = tuple([1] * n)
    shift = RationalFunc(LaurentPoly.t(n * (n - 1) // 2))
    lhs = basis_element("PT", lam).scale(shift)
    rhs = basis_element("E", (n,) if n else ())
    if lhs == rhs:
        return CheckReport("check_st_en", n, None, "pass")
    return CheckReport("check_st_en", n, None, "fail",
                       {"index": str(lam), "lhs": str(lhs), "rhs": str(rhs)})


def check_cor66(n: int, q: int) -> CheckReport:
    """Induced pseudosupercharacters decompose over orientation types at t = q.

    Verified on symmetric-function images; passes precisely when check_llt
    and check_as both do (see DEPENDENCIES).
    """

    def test(sigma):
        lhs = expand_in_basis(omega(p_one(induce_to_GL(psi_pseudo(sigma, q)))), "M")
        scale = RationalFunc.const((q - 1) ** len(diag(sigma)))
        rhs = expand_in_basis(eval_t(as_expansion(sigma), q), "M").scale(scale)
        return lhs == rhs, lhs, rhs

    return _scan("check_cor66", n, q, gen_tall_schroder(n), test)


ALL_CHECKS: dict[str, Callable[..., CheckReport]] = {
    "check_cqs": check_cqs,
    "check_hess": check_hess,
    "check_poincare": check_poincare,
    "check_llt": check_llt,
    "check_mesa": check_mesa,
    "check_psi_decomp": check_psi_decomp,
    "check_permtoind": check_permtoind,
    "check_as": check_as,
    "check_cm": check_cm,
    "check_palindromic": check_palindromic,
    "check_prop56": check_prop56,
    "check_gg": check_gg,
    "check_st_en": check_st_en,
    "check_cor66": check_cor66,
}

SYMBOLIC_CHECKS = ("check_as", "check_cm", "check_palindromic", "check_prop56", "check_st_en")


def run_check(name: str, n: int, q: int | None) -> CheckReport:
    """Dispatch a single named check at the given size."""
    if name not in ALL_CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {sorted(ALL_CHECKS)}")
    fn = ALL_CHECKS[name]
    if name in SYMBOLIC_CHECKS:
        return fn(n)
    if q is None:
        raise ValueError(f"{name} needs a field size q")
    return fn(n, q)
