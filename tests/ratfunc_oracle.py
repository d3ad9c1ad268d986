"""Rational-function oracles for the paths that used to divide by polynomials.

The package keeps every coefficient in the Laurent ring Q[t, 1/t]. These
helpers redo the old computations over `RationalFunc`: the Gauss-Jordan
change of basis over Q(t), the plethysm p_k -> p_k / (t^k - 1), and
Carlsson-Mellit in its original form (t-1)^n X[x/(t-1)] = G. The tests compare
them with the Laurent paths that replaced them. `gauss_jordan_m_to_p` keeps the
m -> p table over Q that the package built by inversion before it took d! times
that table over Z by forward substitution.
"""

from __future__ import annotations

from chromaq.combinatorics import DyckPath, Partition, gen_partitions, graph_of
from chromaq.chromallt import csf
from chromaq.exactnum import ZERO, LaurentPoly, Rat, RationalFunc, _pdivmod, ratfunc_to_const
from chromaq.symfunc import SymFunc, _invert, _m_coords

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


def gauss_jordan_m_to_p(d: int) -> dict[Partition, dict[Partition, Rat]]:
    """Each m_mu, mu a partition of d, in the power-sum basis over Q: the columns
    of the inverse, by Gauss-Jordan over Q[t, 1/t], of the matrix of p in m."""
    keys = gen_partitions(d)
    idx = {k: i for i, k in enumerate(keys)}
    a = [[ZERO] * len(keys) for _ in keys]
    for j, lam in enumerate(keys):
        for mu, c in _m_coords("P", lam):
            a[idx[mu]][j] = c
    inv = _invert(a)
    return {mu: {keys[j]: ratfunc_to_const(row[k]) for j, row in enumerate(inv) if not row[k].is_zero}
            for k, mu in enumerate(keys)}


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


def cm_lhs(pi: DyckPath) -> dict[Partition, LaurentPoly]:
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
