"""The symmetric-function realization map and the theorem checkers.

p_brace1 sends a unipotently supported class function to the modified
Hall-Littlewood combination sum phi(J_lam) * PT_lam(x; q) in basis M.  No PT
coordinate of degree n reaches below t^{-binom(n,2)}, so `scaled_p_brace1`
reads q^{binom(n,2)} PT_lam(x; q) over Z, once per (n, q), and every GL check
compares both of its sides times q^{binom(n,2)}, each side taking the power
itself.  check_hess and check_poincare cross-multiply too: no check divides,
and a witness holds integers.

The paper states its GL theorems through p_one = omega (p_brace1(phi))[x/(q-1)].
omega and p_k -> (q^k - 1) p_k are invertible ring maps for q >= 2, so
p_one(phi) = (q-1)^k omega F exactly when p_brace1(phi) = (q-1)^k F(x; q)[(q-1)x],
the form check_llt, check_cor66 and check_gg compare in basis M (`_twist`), as
check_cm does for Carlsson-Mellit: no check divides by a polynomial in q.

Every check_* verifies one identity exactly (tolerance zero) over every
index in range and returns its first witness, or None when it passes; `run_check`
alone writes the `CheckReport`.  A check hands its items and its two sides to
`_scan`, which compares lhs(item) == rhs(item) and returns the first witness;
each side reaches every table it reads from inside itself, through a cached
function or a memo that only that side holds, so each side can be run alone.
Before the scan a check runs its guards, then lists its items, nothing else:
a check that induces to GL_n bounds the Springer fibres first.
tests/test_sides.py declares what the two sides of each check still share,
and fails on anything else they share.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

from .chromallt import as_expansion, csf, d_coeffs, llt_vertical, require_orientations
from .combinatorics import (
    Frozen,
    Partition,
    SchroderPath,
    _between,
    _partition_count,
    _partitions,
    area,
    gen_dyck,
    gen_tall_schroder,
    mesa,
)
from .exactnum import ONE, ZERO, LaurentPoly, t_minus_one_power
from .fqoracle import (
    ClassFnUT,
    UnipClassFn,
    _centralizer_order,
    _lattice,
    _lowered,
    chi_bar,
    chi_super,
    hessenberg_count,
    induce_to_GL,
    induction_table,
    permutation_character_oracle,
    psi_pseudo,
    require_fibres,
    ut_order,
)
from .symfunc import (
    SymFunc,
    _change,
    _rows,
    basis_element,
    eval_t,
    expand_in_basis,
    omega,
    plethysm_mul,
)


# ---------------------------------------------------------------------------
# the realization map
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pt_at_q(d: int, q: int) -> dict[Partition, dict[Partition, int]]:
    """Each q^{binom(d,2)} PT_lam(x; q), lam a partition of d, in monomial coordinates over Z.

    t^{-binom(d,2)} is the lowest power of t in the degree-d PT coordinates,
    that of PT_(1^d) = t^{-binom(d,2)} e_d; a coordinate below it raises
    ArithmeticError.
    """
    N, rows = d * (d - 1) // 2, _rows("PT", d)
    low = next(((lam, mu, c) for lam in rows for mu, c in rows[lam].items() if c.low < -N), None)
    if low:
        lam, mu, c = low
        raise ArithmeticError(f"PT_{list(lam)} has the m_{list(mu)}-coordinate {c}, below t^-{N}")
    return {lam: {mu: c.shift(N).evaluate(q) for mu, c in row.items()} for lam, row in rows.items()}


def scaled_p_brace1(phi: UnipClassFn) -> SymFunc:
    """q^{binom(n,2)} times sum over lam of phi(J_lam) * PT_lam(x; q), in basis M over Z."""
    table = _pt_at_q(phi.n, phi.q)
    return SymFunc(phi.n, "M", _change({lam: v for lam, v in phi.items() if v},
                                       lambda lam: table[lam].items()))


@lru_cache(maxsize=None)
def _plethysm_at_q(n: int, q: int) -> dict[Partition, dict[Partition, int]]:
    """Each m_mu[(q-1)x], mu a partition of n, in monomial coordinates over Z:
    `plethysm_mul` of each m_mu over Z[t], evaluated once per (n, q)."""
    rows = {mu: plethysm_mul(basis_element("M", mu)).coeffs for mu in _partitions(n)}
    return {mu: {nu: c.evaluate(q) for nu, c in row.items()} for mu, row in rows.items()}


def _twist(F: SymFunc, q: int, k: int) -> SymFunc:
    """q^{binom(n,2)} (q-1)^k F(x; q)[(q-1)x] in basis M, for F in basis M of
    degree n with coefficients in Z[t]."""
    n = F.degree
    table, scale = _plethysm_at_q(n, q), q ** (n * (n - 1) // 2) * (q - 1) ** k
    return SymFunc(n, "M", _change({mu: c.evaluate(q) * scale for mu, c in F.coeffs.items()},
                                   lambda mu: table[mu].items()))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class CheckReport(Frozen):
    """The report of one check at one size: it passes iff it has no witness."""

    __slots__ = _fields = ("check", "n", "q", "witness")
    check: str
    n: int
    q: int | None
    witness: dict | None

    def __init__(self, check: str, n: int, q: int | None, witness: dict | None = None):
        self._set(check, n, q, witness)

    @property
    def ok(self) -> bool:
        return self.witness is None

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def to_json(self) -> dict:
        return {"check": self.check, "n": self.n, "q": self.q,
                "status": self.status, "witness": self.witness}


# check_cor66 is implied by these two; recorded for reporting purposes
DEPENDENCIES = {"check_cor66": ("check_llt", "check_as")}


def _scan(items: Iterable, lhs: Callable[[object], object],
          rhs: Callable[[object], object]) -> dict | None:
    """The witness of the first item whose sides differ, or None when every item
    passes; str renders only the two sides of that item."""
    for item in items:
        left, right = lhs(item), rhs(item)
        if not left == right:
            return {"index": str(item), "lhs": str(left), "rhs": str(right)}
    return None


# ---------------------------------------------------------------------------
# the checkers
# ---------------------------------------------------------------------------

def check_cqs(n: int, q: int) -> dict | None:
    """Induced permutation characters realize (q-1)^n X_gamma(x; q)."""
    require_fibres(n, q)
    return _scan(gen_dyck(n),
                 lambda pi: scaled_p_brace1(induce_to_GL(chi_bar(pi, q))),
                 lambda pi: eval_t(csf(pi), q).scale((q - 1) ** n * q ** (n * (n - 1) // 2)))


def check_hess(n: int, q: int) -> dict | None:
    """Induced character values count Hessenberg points: (q-1)^n q^{|E|} |B|, both
    sides times |UT_n|.  The left side induces by the UT_n sweep, so it tests the
    Springer walk that induce_to_GL reads."""
    require_fibres(n, q)
    items = [(pi, lam) for pi in gen_dyck(n) for lam in _partitions(n)]

    def lhs(item):  # each u of type lam is J_lam's conjugate by |C_GL(J_lam)| elements
        pi, lam = item
        dot = sum(c * v for c, v in zip(induction_table(n, q)[lam], chi_bar(pi, q).values))
        return _centralizer_order(lam, q) * dot

    return _scan(items, lhs, lambda item: ut_order(n, q) * (q - 1) ** n
                 * q ** len(area(item[0])) * hessenberg_count(*item, q))


def check_poincare(n: int, q: int) -> dict | None:
    """Hessenberg point counts equal q^{-|E|} d_lam^gamma(q), compared as
    q^{|E|} |B| = d_lam^gamma(q)."""
    require_fibres(n, q)
    items = [(pi, lam) for pi in gen_dyck(n) for lam in _partitions(n)]
    d = lru_cache(maxsize=None)(d_coeffs)  # one expansion per graph, held by the right side
    return _scan(items,
                 lambda item: q ** len(area(item[0])) * hessenberg_count(*item, q),
                 lambda item: d(item[0]).get(item[1], ZERO).evaluate(q))


def check_llt(n: int, q: int) -> dict | None:
    """p_one(Ind psi^sigma) = (q-1)^{|Diag|} omega G_sigma(x; q), compared as
    p_brace1(Ind psi^sigma) = (q-1)^{|Diag|} G_sigma(x; q)[(q-1)x] in basis M: the
    two are equivalent since omega and p_k -> (q^k - 1) p_k are invertible."""
    require_fibres(n, q)
    return _scan(gen_tall_schroder(n),
                 lambda sigma: scaled_p_brace1(induce_to_GL(psi_pseudo(sigma, q))),
                 lambda sigma: _twist(llt_vertical(sigma), q, len(sigma.D)))


def check_mesa(n: int, q: int) -> dict | None:
    """psi of the mesa path equals the supercharacter of the graph.

    The two sides share no corner rule: `mesa` finds the tall peaks on its own
    walk of the steps, never through `_corners`, which `chi_super` lifts."""
    return _scan(gen_dyck(n), lambda pi: psi_pseudo(mesa(pi), q), lambda pi: chi_super(pi, q))


def check_psi_decomp(n: int, q: int) -> dict | None:
    """psi^sigma equals the sum of chi^gamma over Diag <= E(gamma) <= Area u Diag."""

    @lru_cache(maxsize=None)
    def supers() -> dict[tuple[int, ...], tuple[int, ...]]:
        """Each chi^gamma by its h, built once, on the right side's first call."""
        return {pi.h: chi_super(pi, q).values for pi in gen_dyck(n)}

    def rhs(sigma):
        # h(Area u Diag) <= x <= h(Diag), which is h_j in each Diag column j and j elsewhere
        interval = _between(sigma.h, tuple(x if j in sigma.D else j for j, x in enumerate(sigma.h)))
        return ClassFnUT(n, q, tuple(map(sum, zip(*map(supers().__getitem__, interval)))))

    return _scan(gen_tall_schroder(n), lambda sigma: psi_pseudo(sigma, q), rhs)


def check_permtoind(n: int, q: int) -> dict | None:
    """chi_bar agrees with the directly-counted permutation character."""
    return _scan(gen_dyck(n), lambda pi: chi_bar(pi, q),
                 lambda pi: permutation_character_oracle(pi, q))


def check_as(n: int) -> dict | None:
    """Orientation e-expansion equals the coloring LLT polynomial, symbolically."""
    paths = gen_tall_schroder(n)
    require_orientations(f"the tall paths of size {n}",
                         max((len(area(sigma)) for sigma in paths), default=0))
    return _scan(paths, lambda sigma: expand_in_basis(as_expansion(sigma), "M"), llt_vertical)


def check_cm(n: int) -> dict | None:
    """(t-1)^n X_{Graph(pi)} = G_pi[(t-1)x] in basis M, symbolically in t.

    This is Carlsson-Mellit's (t-1)^n X_{Graph(pi)}[x/(t-1)] = G_pi with the
    plethysm moved to the other side, since p_k -> (t^k - 1) p_k is invertible.
    The right side is `plethysm_mul` of G_pi: n! G_pi peeled into P, each p_lam
    times prod (t^{lam_i} - 1), back by the p rows and divided by n! exactly, so
    the sides share no change of basis and no polynomial in t is divided.
    """
    return _scan(gen_dyck(n), lambda pi: csf(pi).scale(t_minus_one_power(n)),
                 lambda pi: plethysm_mul(llt_vertical(pi)))


def check_palindromic(n: int) -> dict | None:
    """t^{|E|} X(x; 1/t) = X(x; t) for every indifference graph, E the area of its Dyck path."""
    return _scan(gen_dyck(n),
                 lambda pi: csf(pi).map_coeffs(lambda c, k=len(area(pi)): c.subs_inv(k)),
                 csf)


def _unicellular_sum(sigma: SchroderPath) -> SymFunc:
    """sum over S <= Diag(sigma) of (-1)^{|Diag - S|} G_{Area u S}, one sparse change.

    Area u S is h moved up by 1 in the columns of D - S (`_lowered` at q = 1 gives
    the sign), and its Dyck path is read, already built, at its `_lattice` position."""
    dyck, pos = gen_dyck(sigma.size), _lattice(sigma.size)[1]
    return SymFunc(sigma.size, "M", _change(dict(_lowered(sigma.h, sigma.D, 1)),
                                            lambda h: llt_vertical(dyck[pos[h]]).coeffs.items()))


def check_prop56(n: int) -> dict | None:
    """Both LLT transformation identities, symbolically in t.

    (i)  t^{|Area(pi)|} G_pi(x; 1/t) = omega G_pi(x; t) for Dyck pi;
    (ii) (t-1)^{|Diag|} G_sigma = signed sum of unicellular G over Diag subsets.
    """

    def reflected(pi):  # |Area(pi)| read once per path, not once per coefficient
        k = len(area(pi))
        return llt_vertical(pi).map_coeffs(lambda c: c.subs_inv(k))

    parts = (
        ("i", gen_dyck(n), reflected, lambda pi: omega(llt_vertical(pi))),
        ("ii", gen_tall_schroder(n),
         lambda sigma: llt_vertical(sigma).scale(t_minus_one_power(len(sigma.D))),
         _unicellular_sum),
    )
    for part, items, lhs, rhs in parts:
        witness = _scan(items, lhs, rhs)
        if witness:
            return {"part": part, **witness}
    return None


def check_gg(n: int, q: int) -> dict | None:
    """The staircase induction Gamma_n is a multiple of (q-1)^{n-1}, and omega p_one of
    the quotient is e_n, compared as p_brace1(Gamma_n) = (q-1)^{n-1} m_{1^n}[(q-1)x]
    in basis M: the two are equivalent since omega and p_k -> (q^k - 1) p_k are
    invertible, and p_brace1 is linear.  The scan for a value that is no multiple
    runs first, and nothing is divided."""
    if n < 1:
        raise ValueError(f"check_gg needs n >= 1, got n = {n}")
    require_fibres(n, q)
    denom = (q - 1) ** (n - 1)
    multiple = f"multiple of {denom}"

    def staircase() -> UnipClassFn:
        return induce_to_GL(psi_pseudo(SchroderPath("E" + "D" * (n - 1) + "S"), q))

    def divided(lam):  # the value itself is the witness when it is no multiple
        v = staircase()(lam)
        return v if v % denom else multiple

    return (_scan(_partitions(n), divided, lambda lam: multiple)
            or _scan(["p_brace1(Gamma_n)"], lambda label: scaled_p_brace1(staircase()),
                     lambda label: _twist(SymFunc(n, "M", {(1,) * n: ONE}), q, n - 1)))


def check_st_en(n: int) -> dict | None:
    """t^{binom(n,2)} PT_{(1^n)}(x; t) = e_n, symbolically."""
    _partition_count(n)  # refused on p(n) past MAX_SWEEP, before the item is built
    return _scan([tuple([1] * n)],
                 lambda lam: basis_element("PT", lam).scale(LaurentPoly.t(n * (n - 1) // 2)),
                 lambda lam: SymFunc(n, "M", {lam: ONE}))  # e_n = m_{1^n}


def check_cor66(n: int, q: int) -> dict | None:
    """Induced pseudosupercharacters decompose over orientation types at t = q.

    omega p_one(Ind psi^sigma) = (q-1)^{|Diag|} AS_sigma(x; q), AS_sigma the orientation
    e-expansion, compared as p_brace1(Ind psi^sigma) = (q-1)^{|Diag|} AS_sigma(x; q)[(q-1)x]
    in basis M: the two are equivalent since p_k -> (q^k - 1) p_k is invertible.
    Passes precisely when check_llt and check_as both do (see DEPENDENCIES).
    """
    require_fibres(n, q)
    return _scan(gen_tall_schroder(n),
                 lambda sigma: scaled_p_brace1(induce_to_GL(psi_pseudo(sigma, q))),
                 lambda sigma: _twist(expand_in_basis(as_expansion(sigma), "M"), q,
                                      len(sigma.D)))


ALL_CHECKS: dict[str, Callable[..., dict | None]] = {fn.__name__: fn for fn in (
    check_cqs, check_hess, check_poincare, check_llt, check_mesa, check_psi_decomp,
    check_permtoind, check_as, check_cm, check_palindromic, check_prop56, check_gg,
    check_st_en, check_cor66)}

SYMBOLIC_CHECKS = ("check_as", "check_cm", "check_palindromic", "check_prop56", "check_st_en")


def run_check(name: str, n: int, q: int | None) -> CheckReport:
    """Run the named check at size n and write its report, the one writer of a
    `CheckReport`: a symbolic check takes no q, and its report has q = None."""
    if name not in ALL_CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {sorted(ALL_CHECKS)}")
    if name in SYMBOLIC_CHECKS:
        return CheckReport(name, n, None, ALL_CHECKS[name](n))
    if q is None:
        raise ValueError(f"{name} needs a field size q")
    return CheckReport(name, n, q, ALL_CHECKS[name](n, q))
