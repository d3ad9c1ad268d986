"""Rational-function oracles for the paths that used to divide by polynomials.

The package keeps every coefficient in the Laurent ring Q[t, 1/t]. These
helpers redo the old computations over `RationalFunc`: the Gauss-Jordan
change of basis over Q(t), the plethysm p_k -> p_k / (t^k - 1), and
Carlsson-Mellit in its original form (t-1)^n X[x/(t-1)] = G. The tests compare
them with the Laurent paths that replaced them. `_invert` is the Gauss-Jordan
inversion over Q[t, 1/t] that built every change-of-basis table before the
triangular solve against the forward rows (`symfunc._peel`) replaced it;
`inverted_from_monomials` is that build, and `gauss_jordan_m_to_p` reads the
m -> p table over Q off it.  `omega_m_through_s` is the table of omega on m
that the package built through the Schur basis before omega and the plethysm
became one map diagonal on p (`symfunc._diagonal`).
"""

from __future__ import annotations

from chromaq.combinatorics import Partition, SchroderPath, gen_partitions, graph_of, transpose
from chromaq.chromallt import csf
from chromaq.exactnum import (
    ONE,
    ZERO,
    LaurentPoly,
    Rat,
    RationalFunc,
    _div,
    _pdivmod,
)
from chromaq.symfunc import Coeff, SymFunc, _change, _kostka, _m_coords, _peel, _peel_rows

T = LaurentPoly.t()
RF_ZERO = RationalFunc.const(0)
RF_ONE = RationalFunc.const(1)


class NonDivisibleError(ArithmeticError):
    """An exact Laurent division was requested but a nonzero remainder exists."""


def ratfunc_to_laurent(r: RationalFunc) -> LaurentPoly:
    """r as a Laurent polynomial; NonDivisibleError (naming the remainder) if it is not one."""
    if r.is_laurent:
        return r.num
    _, rem = _pdivmod(list(r.num.coeffs), list(r.den.coeffs))
    raise NonDivisibleError(
        f"{r.den} does not divide {r.num}: remainder {LaurentPoly(rem, low=r.num.low)}"
    )


def ratfunc_to_const(f: LaurentPoly) -> Rat:
    """The value of f, which must not involve t; raises ArithmeticError otherwise.

    The tripwire for tables specialised from symbolic ones that theory says
    are free of t.
    """
    if f.is_zero or (f.low == 0 and len(f.coeffs) == 1):
        return f[0]
    raise ArithmeticError(f"{f} is not a constant")


def omega_m_through_s(d: int) -> dict[Partition, tuple[tuple[Partition, int], ...]]:
    """omega(m_mu) in monomial coordinates over Z, for every partition mu of d,
    with no division (Macdonald I (3.8)): m_mu peeled into S, each s_lam to
    s_lam', and back to m by the Kostka rows.  An S coordinate that involves t
    raises ArithmeticError."""
    to_s = {mu: _peel({mu: ONE}, "S", d) for mu, *_ in _peel_rows("S", d)}
    kostka, out = _kostka(d), {}
    for mu, row in to_s.items():
        flipped = {transpose(lam): ratfunc_to_const(c) for lam, c in row.items()}
        acc = _change(flipped, lambda lam: kostka[lam].items())
        out[mu] = tuple((nu, acc[nu]) for nu in to_s if acc.get(nu))
    return out


def gauss_jordan_from_monomials(basis: str, d: int) -> dict[Partition, dict[Partition, RationalFunc]]:
    """Each m_mu expanded in the named basis, by Gauss-Jordan over Q(t)."""
    keys = gen_partitions(d)
    n = len(keys)
    idx = {k: i for i, k in enumerate(keys)}
    aug = [[RF_ZERO] * n + [RF_ONE if i == k else RF_ZERO for k in range(n)] for i in range(n)]
    for j, lam in enumerate(keys):
        for mu, c in _m_coords(basis, lam):
            aug[idx[mu]][j] = RationalFunc(c)
    for col in range(n):
        piv = next(r for r in range(col, n) if not aug[r][col].is_zero)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = RF_ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return {keys[k]: {keys[j]: aug[j][n + k] for j in range(n) if not aug[j][n + k].is_zero}
            for k in range(n)}


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


def inverted_from_monomials(basis: str, d: int) -> dict[Partition, dict[Partition, LaurentPoly]]:
    """Each m_mu, mu a partition of d, in the named basis: the columns of the
    inverse, by `_invert`, of the matrix whose columns are the basis elements
    in m-coordinates."""
    keys = gen_partitions(d)
    idx = {k: i for i, k in enumerate(keys)}
    a = [[ZERO] * len(keys) for _ in keys]
    for j, lam in enumerate(keys):
        for mu, c in _m_coords(basis, lam):
            a[idx[mu]][j] = c
    inv = _invert(a)
    return {mu: {keys[j]: row[k] for j, row in enumerate(inv) if not row[k].is_zero}
            for k, mu in enumerate(keys)}


def gauss_jordan_m_to_p(d: int) -> dict[Partition, dict[Partition, Rat]]:
    """Each m_mu, mu a partition of d, in the power-sum basis over Q, by `_invert`."""
    return {mu: {lam: ratfunc_to_const(c) for lam, c in row.items()}
            for mu, row in inverted_from_monomials("P", d).items()}


def plethysm_frac(F: SymFunc) -> dict[Partition, RationalFunc]:
    """Substitute p_k -> p_k / (t^k - 1), i.e. the x/(t-1) plethysm on power sums."""
    if F.basis != "P":
        raise ValueError("plethysm_frac expects the power-sum basis")
    out = {}
    for lam, c in F.coeffs.items():
        den = LaurentPoly.const(1)
        for k in lam:
            den = den * (T ** k - 1)
        out[lam] = RationalFunc(c) / RationalFunc(den)
    return out


def _change(coeffs, table) -> dict[Partition, RationalFunc]:
    out: dict[Partition, RationalFunc] = {}
    for lam, c in coeffs.items():
        for mu, v in table(lam):
            out[mu] = out.get(mu, RF_ZERO) + c * v
    return {mu: c for mu, c in out.items() if not c.is_zero}


def cm_lhs(pi: SchroderPath) -> dict[Partition, LaurentPoly]:
    """(t-1)^n X_{Graph(pi)}[x/(t-1)] in basis M, the left side of Carlsson-Mellit.

    X goes to P through the Q(t) Gauss-Jordan table, the plethysm divides,
    and the result must clear to Laurent coefficients (NonDivisibleError if not).
    """
    n = pi.size
    to_p = gauss_jordan_from_monomials("P", n)
    F = _change(csf(graph_of(pi)).coeffs, lambda mu: to_p[mu].items())
    F = plethysm_frac(SymFunc(n, "P", {lam: ratfunc_to_laurent(c) for lam, c in F.items()}))
    scale = RationalFunc((T - 1) ** n)
    F = _change({lam: c * scale for lam, c in F.items()},
                lambda lam: ((mu, RationalFunc(v)) for mu, v in _m_coords("P", lam)))
    return {mu: ratfunc_to_laurent(c) for mu, c in F.items()}
