"""The symmetric-function realization maps and the theorem checkers.

p_brace1 sends a unipotently supported class function to the modified
Hall-Littlewood combination sum phi(J_lam) * PT_lam(x; q); p_one composes
with the plethystic twist f -> omega f[x/(t-1)]|_{t=q} and lands in the
Schur basis, recording irreducible unipotent constituents.  p_one is cached
by the value of its class function, so equal functions share one image.

Both maps read tables over Z, built once per (n, q), and divide each
coordinate once, exactly, through `exactnum._div`: p_brace1 by q^N, where
q^N PT_lam(x; q) clears every power of 1/q, and p_one by n! q^N times the lcm
of the prod (q^{mu_i} - 1).  On a genuine character the images have integer
coordinates, so a check that passes builds no Fraction; one that fails still
reports its exact witness.

Every check_* verifies one identity exactly (tolerance zero) over every
index in range and reports the first witness on failure.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import factorial, lcm, prod
from typing import Callable, Iterable

from .chromallt import as_expansion, csf, d_coeffs, llt_vertical, require_orientations
from .combinatorics import (
    Frozen,
    Partition,
    SchroderPath,
    _hessenberg_function,
    _partitions,
    area,
    area_inverse,
    diag,
    gen_dyck,
    gen_tall_schroder,
    graph_of,
    indifference_graphs,
    mesa,
)
from .exactnum import ONE, ZERO, LaurentPoly, Rat, _div, ratfunc_to_const, t_minus_one_power
from .fqoracle import (
    ClassFnUT,
    UnipClassFn,
    _between,
    chi_bar,
    chi_super,
    hessenberg_count,
    induce_to_GL,
    permutation_character_oracle,
    psi_pseudo,
    require_fibres,
)
from .symfunc import (
    SymFunc,
    _m_coords,
    _m_to_p_integral,
    basis_element,
    eval_t,
    expand_in_basis,
    omega,
    plethysm_mul,
)


# ---------------------------------------------------------------------------
# realization maps
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pt_at_q(d: int, q: int) -> tuple[int, dict[Partition, dict[Partition, int]]]:
    """N and each q^N PT_lam(x; q), lam a partition of d, in monomial coordinates over Z.

    N is the largest -low of the degree-d PT coordinates (0 when none is
    negative), so q^N clears every power of 1/q.
    """
    rows = {lam: _m_coords("PT", lam) for lam in _partitions(d)}
    N = max([0] + [-c.low for row in rows.values() for _, c in row])
    return N, {lam: {mu: c.shift(N).evaluate(q) for mu, c in row} for lam, row in rows.items()}


@lru_cache(maxsize=None)
def _omega_p_to_s(d: int) -> dict[Partition, dict[Partition, int]]:
    """Each omega(p_lam) = (-1)^{d - l(lam)} p_lam, lam a partition of d, in the Schur basis."""
    out = {}
    for lam in _partitions(d):
        sign = (-1) ** (d - len(lam))
        row = expand_in_basis(SymFunc(d, "P", {lam: 1}), "S").coeffs
        out[lam] = {nu: sign * ratfunc_to_const(c) for nu, c in row.items()}
    return out


def _apply(coeffs: dict[Partition, Rat], table: dict[Partition, dict[Partition, Rat]]) -> dict[Partition, Rat]:
    """sum_lam c_lam * table[lam]."""
    out: dict[Partition, Rat] = {}
    for lam, c in coeffs.items():
        for mu, v in table[lam].items():
            out[mu] = out.get(mu, 0) + c * v
    return out


def _brace1_coords(phi: UnipClassFn) -> dict[Partition, Rat]:
    N, table = _pt_at_q(phi.n, phi.q)
    scale = phi.q ** N
    coords = _apply({lam: v for lam, v in phi.items() if v}, table)
    return {mu: _div(c, scale) for mu, c in coords.items()}


def p_brace1(phi: UnipClassFn) -> SymFunc:
    """sum over lam of phi(J_lam) * PT_lam(x; q), with t specialized at q, in basis M."""
    return SymFunc(phi.n, "M", _brace1_coords(phi))


@lru_cache(maxsize=None)
def _p_one_table(n: int, q: int) -> tuple[int, dict[Partition, dict[Partition, int]]]:
    """D and D times p_one of the indicator of each Jordan type lam |- n, in the
    Schur basis, over Z.

    Built once per (n, q): q^N PT_lam(x; q) in M (`_pt_at_q`), to P through
    n! (m -> p), each p_mu multiplied by L / prod (q^{mu_i} - 1) with L the lcm
    of those products, then omega and the change to S.  So D = n! q^N L.
    """
    N, pt = _pt_at_q(n, q)
    dens = {mu: prod(q ** k - 1 for k in mu) for mu in _partitions(n)}
    L = lcm(*dens.values())
    to_p, to_s = _m_to_p_integral(n), _omega_p_to_s(n)
    out = {}
    for lam, row in pt.items():
        F = {mu: c * (L // dens[mu]) for mu, c in _apply(row, to_p).items()}
        out[lam] = {nu: c for nu, c in _apply(F, to_s).items() if c}
    return factorial(n) * q ** N * L, out


@lru_cache(maxsize=None)
def p_one(phi: UnipClassFn) -> SymFunc:
    """Unipotent-constituent image: omega (p_brace1(phi))[x/(t-1)]|_{t=q}, in Schur basis,
    read off the table of Jordan-type indicators of (n, q) with one exact division
    per coordinate, once per value of phi."""
    D, table = _p_one_table(phi.n, phi.q)
    coords = _apply({lam: v for lam, v in phi.items() if v}, table)
    return SymFunc(phi.n, "S", {nu: _div(c, D) for nu, c in coords.items()})


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class CheckReport(Frozen):
    __slots__ = _fields = ("check", "n", "q", "status", "witness")
    check: str
    n: int
    q: int | None
    status: str
    witness: dict | None

    def __init__(self, check: str, n: int, q: int | None, status: str,
                 witness: dict | None = None):
        if status not in ("pass", "fail"):
            raise AssertionError(f"unknown status {status!r}")
        if witness is None and status == "fail":
            raise AssertionError("a failing report needs a witness")
        self._set(check, n, q, status, witness)

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
    """The first failing item as the witness; only its two sides are rendered with str."""
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

    def test(gamma):
        lhs = p_brace1(induce_to_GL(chi_bar(gamma, q)))
        rhs = eval_t(csf(gamma), q).scale((q - 1) ** n)
        return lhs == rhs, lhs, rhs

    return _scan("check_cqs", n, q, indifference_graphs(n), test)


def check_hess(n: int, q: int) -> CheckReport:
    """Induced character values count Hessenberg points: (q-1)^n q^{|E|} |B|."""
    require_fibres(n, q)
    graphs = indifference_graphs(n)
    items = [(g, lam) for g in graphs for lam in _partitions(n)]
    induced = {g: induce_to_GL(chi_bar(g, q)) for g in graphs}

    def test(item):
        gamma, lam = item
        cnt = hessenberg_count(gamma, lam, q)
        lhs = induced[gamma](lam)
        rhs = (q - 1) ** n * q ** len(gamma.edges) * cnt
        return lhs == rhs, lhs, rhs

    return _scan("check_hess", n, q, items, test)


def check_poincare(n: int, q: int) -> CheckReport:
    """Hessenberg point counts equal q^{-|E|} d_lam^gamma(q)."""
    require_fibres(n, q)
    items = [(g, lam) for g in indifference_graphs(n) for lam in _partitions(n)]
    dcache = {g: d_coeffs(g) for g in indifference_graphs(n)}

    def test(item):
        gamma, lam = item
        cnt = hessenberg_count(gamma, lam, q)
        dval = dcache[gamma].get(lam, ZERO).evaluate(q)
        rhs = _div(dval, q ** len(gamma.edges))
        return cnt == rhs, cnt, rhs

    return _scan("check_poincare", n, q, items, test)


def check_llt(n: int, q: int) -> CheckReport:
    """Pseudosupercharacters induce to (q-1)^{|Diag|} omega G_sigma(x; q)."""

    def test(sigma):
        lhs = p_one(induce_to_GL(psi_pseudo(sigma, q)))
        G = eval_t(llt_vertical(sigma), q)
        rhs = expand_in_basis(omega(G).scale((q - 1) ** len(diag(sigma))), "S")
        return lhs == rhs, lhs, rhs

    return _scan("check_llt", n, q, gen_tall_schroder(n), test)


def check_mesa(n: int, q: int) -> CheckReport:
    """psi of the mesa path equals the supercharacter of the graph."""

    def test(pi):
        lhs = psi_pseudo(mesa(pi), q)
        rhs = chi_super(graph_of(pi), q)
        return lhs == rhs, lhs, rhs

    return _scan("check_mesa", n, q, gen_dyck(n), test)


def check_psi_decomp(n: int, q: int) -> CheckReport:
    """psi^sigma equals the sum of chi^gamma over Diag <= E(gamma) <= Area u Diag."""
    supers = {_hessenberg_function(n, g.edges): chi_super(g, q).values for g in indifference_graphs(n)}

    def test(sigma):
        lhs = psi_pseudo(sigma, q)
        # the interval is h(Area u Diag) <= h <= h(Diag), and always holds Area u Diag
        a, d = area(sigma), diag(sigma)
        interval = _between(_hessenberg_function(n, a | d), _hessenberg_function(n, d))
        rhs = ClassFnUT(n, q, tuple(map(sum, zip(*[supers[h] for h in interval]))))
        return lhs == rhs, lhs, rhs

    return _scan("check_psi_decomp", n, q, gen_tall_schroder(n), test)


def check_permtoind(n: int, q: int) -> CheckReport:
    """chi_bar agrees with the directly-counted permutation character."""

    def test(gamma):
        lhs = chi_bar(gamma, q)
        rhs = permutation_character_oracle(gamma, q)
        return lhs == rhs, lhs, rhs

    return _scan("check_permtoind", n, q, indifference_graphs(n), test)


def check_as(n: int) -> CheckReport:
    """Orientation e-expansion equals the coloring LLT polynomial, symbolically."""
    paths = gen_tall_schroder(n)
    require_orientations(f"the tall paths of size {n}",
                         max((len(area(sigma)) for sigma in paths), default=0))

    def test(sigma):
        lhs = expand_in_basis(as_expansion(sigma), "M")
        rhs = llt_vertical(sigma)
        return lhs == rhs, lhs, rhs

    return _scan("check_as", n, None, paths, test)


def check_cm(n: int) -> CheckReport:
    """(t-1)^n X_{Graph(pi)} = G_pi[(t-1)x], symbolically in t.

    This is Carlsson-Mellit's (t-1)^n X_{Graph(pi)}[x/(t-1)] = G_pi with the
    plethysm moved to the other side: p_k -> p_k / (t^k - 1) and
    p_k -> (t^k - 1) p_k are mutually inverse ring maps that leave the
    coefficients alone, so applying the second to both sides gives this
    form, here scaled by n!.  The left side is n! (t-1)^n X in basis M; the
    right side takes n! G to P through an integer table, multiplies each
    p_lam by prod (t^{lam_i} - 1) and returns to M.  Nothing is divided:
    the two sides share no change of basis, and every product stays in Z[t].
    """
    scale = t_minus_one_power(n) * factorial(n)
    paths = gen_dyck(n)  # refused past MAX_PATH_N before the degree-n table is built
    to_p = _m_to_p_integral(n)

    def test(pi):
        lhs = csf(graph_of(pi)).scale(scale)
        G = SymFunc(n, "P", _apply(llt_vertical(pi.as_schroder()).coeffs, to_p))
        rhs = expand_in_basis(plethysm_mul(G), "M")
        return lhs == rhs, lhs, rhs

    return _scan("check_cm", n, None, paths, test)


def check_palindromic(n: int) -> CheckReport:
    """t^{|E|} X(x; 1/t) = X(x; t) for every indifference graph."""

    def test(gamma):
        X = csf(gamma)
        lhs = X.map_coeffs(lambda c: c.subs_inv().shift(len(gamma.edges)))
        return lhs == X, lhs, X

    return _scan("check_palindromic", n, None, indifference_graphs(n), test)


def _unicellular_sum(sigma: SchroderPath) -> SymFunc:
    """sum over S <= Diag(sigma) of (-1)^{|Diag - S|} G_{Area u S}, added into one dict."""
    n, a, d = sigma.size, area(sigma), sorted(diag(sigma))
    out: dict[Partition, LaurentPoly] = {}
    for mask in iproduct((0, 1), repeat=len(d)):
        s = frozenset(e for e, m in zip(d, mask) if m)
        for mu, c in llt_vertical(area_inverse(a | s, n).as_schroder()).coeffs.items():
            out[mu] = out.get(mu, ZERO) + (-c if (len(d) - len(s)) % 2 else c)
    return SymFunc(n, "M", out)


def check_prop56(n: int) -> CheckReport:
    """Both LLT transformation identities, symbolically in t.

    (i)  t^{|Area(pi)|} G_pi(x; 1/t) = omega G_pi(x; t) for Dyck pi;
    (ii) (t-1)^{|Diag|} G_sigma = signed sum of unicellular G over Diag subsets.
    """

    def test_i(pi):
        g = llt_vertical(pi.as_schroder())
        lhs = g.map_coeffs(lambda c: c.subs_inv().shift(len(area(pi))))
        rhs = omega(g)
        return lhs == rhs, lhs, rhs

    def test_ii(sigma):
        lhs = llt_vertical(sigma).scale(t_minus_one_power(len(diag(sigma))))
        rhs = _unicellular_sum(sigma)
        return lhs == rhs, lhs, rhs

    for part, items, test in (("i", gen_dyck(n), test_i), ("ii", gen_tall_schroder(n), test_ii)):
        rep = _scan("check_prop56", n, None, items, test)
        if not rep.ok:
            return CheckReport("check_prop56", n, None, "fail", {"part": part, **rep.witness})
    return rep


def check_gg(n: int, q: int) -> CheckReport:
    """The normalized staircase induction maps to e_n under omega o p_one."""
    if n < 1:
        raise ValueError(f"check_gg needs n >= 1, got n = {n}")
    sigma = SchroderPath("E" + "D" * (n - 1) + "S")
    ind = induce_to_GL(psi_pseudo(sigma, q))
    denom = (q - 1) ** (n - 1)
    rep = _scan("check_gg", n, q, _partitions(n),
                lambda lam: (ind(lam) % denom == 0, ind(lam), f"multiple of {denom}"))
    if not rep.ok:
        return rep

    def test(label):
        lhs = omega(p_one(UnipClassFn(n, q, tuple(v // denom for v in ind.values))))
        return lhs.coeffs == {tuple([1] * n): ONE}, lhs, "e_n"

    return _scan("check_gg", n, q, ["omega p_one(Gamma_n)"], test)


def check_st_en(n: int) -> CheckReport:
    """t^{binom(n,2)} PT_{(1^n)}(x; t) = e_n, symbolically."""

    def test(lam):
        lhs = basis_element("PT", lam).scale(LaurentPoly.t(n * (n - 1) // 2))
        rhs = basis_element("E", (n,) if n else ())
        return lhs == rhs, lhs, rhs

    return _scan("check_st_en", n, None, [tuple([1] * n)], test)


def check_cor66(n: int, q: int) -> CheckReport:
    """Induced pseudosupercharacters decompose over orientation types at t = q.

    Verified on symmetric-function images; passes precisely when check_llt
    and check_as both do (see DEPENDENCIES).
    """

    def test(sigma):
        lhs = expand_in_basis(omega(p_one(induce_to_GL(psi_pseudo(sigma, q)))), "M")
        rhs = expand_in_basis(eval_t(as_expansion(sigma), q), "M").scale((q - 1) ** len(diag(sigma)))
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
