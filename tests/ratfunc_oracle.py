"""Rational oracles for the paths that used to divide, and the bases the package no longer holds.

The package keeps every coefficient in Z[t, 1/t] and holds the bases M, E and
PT. These helpers redo the old computations with arithmetic of their own:
the Gauss-Jordan change of basis over `RationalFunc`, with the units of the
Laurent ring Q[t, 1/t] as its only pivots (`_invert`); the plethysm
p_k -> p_k / (t^k - 1); and Carlsson-Mellit in its original form
(t-1)^n X[x/(t-1)] = G. The tests compare them with the Laurent paths that
replaced them.

`m_coords` gives the monomial coordinates of s, h, e, p, P(x; t) and PT in
the old seven bases. PT is the package's own table, which `test_pt_relation`
checks against an independent tableau build. P(x; t) is reflected off it
(`hall_littlewood`), and s, h and e are read off its constant terms, the Kostka
numbers (`kostka`); p comes from the unmemoised part placements of
`orbit_oracle`. The tests read S, H, HLP and P through it.
`change` is the one sparse change of coordinates of the oracles, in whatever
exact arithmetic its values carry. `omega_m_through_s` is the table of omega
on m that the package built through the Schur basis before omega and the
plethysm became one map diagonal on p (`symfunc._diagonal`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from chromaq.chromallt import csf
from chromaq.combinatorics import (
    Partition,
    SchroderPath,
    gen_partitions,
    nstat,
    transpose,
)
from chromaq.exactnum import ONE, ZERO, LaurentPoly, RationalFunc
from chromaq.symfunc import _rows
from orbit_oracle import placements

# every chromaq name this oracle imports, with its reason; a kernel that the
# package's own path also runs on names, as (reason, test), the test that checks it alone
CHROMAQ_IMPORTS = {
    "chromallt.csf": ("X_gamma, the input of Carlsson-Mellit's old left side, which the "
                      "package's check_cm also reads",
                      "tests/test_chromallt.py::test_color_classes_match_the_vertex_kernel"),
    "combinatorics.Partition": "a type name",
    "combinatorics.SchroderPath": "a type name: a Dyck path indexes X_gamma and G_pi",
    "combinatorics.gen_partitions": "the keys of every table, a listing",
    "combinatorics.nstat": "n(lam), the power of t between P(x; 1/t) and PT",
    "combinatorics.transpose": "the conjugate partition of the s and e rows",
    "exactnum.ONE": "a value",
    "exactnum.ZERO": "a value",
    "exactnum.LaurentPoly": "the value type of the coefficients",
    "exactnum.RationalFunc": "the value type of the Gauss-Jordan oracle",
    "symfunc._rows": ("the PT rows, reflected to P(x; t), whose constant terms are the Kostka "
                      "numbers that the package's e rows read too",
                      "tests/test_symfunc.py::test_hl_tableau_build_matches_gram_schmidt"),
}

T = LaurentPoly.t()
RF_ZERO = RationalFunc.const(0)
RF_ONE = RationalFunc.const(1)


class NonDivisibleError(ArithmeticError):
    """An exact Laurent division was requested but a nonzero remainder exists."""


def ratfunc_to_laurent(r: RationalFunc) -> LaurentPoly:
    """r as a Laurent polynomial over Z; NonDivisibleError if it is not one,
    naming the remainder over Q of its numerator by a denominator that involves t."""
    if r.is_laurent:
        return r.num
    if len(r.den.coeffs) == 1:
        raise NonDivisibleError(f"{r} has a coefficient outside Z")
    rem, den = [Fraction(c) for c in r.num.coeffs], r.den.coeffs
    while len(rem) >= len(den):
        c = rem[-1] / den[-1]
        for i, b in enumerate(den, len(rem) - len(den)):
            rem[i] -= c * b
        rem.pop()
    terms = " + ".join(f"({c})*t^{r.num.low + k}" for k, c in enumerate(rem) if c)
    raise NonDivisibleError(f"{r.den} does not divide {r.num}: remainder {terms}")


def ratfunc_to_const(f: LaurentPoly | RationalFunc) -> int | Fraction:
    """The value of f, which must not involve t; raises ArithmeticError otherwise.

    The tripwire for tables specialised from symbolic ones that theory says
    are free of t.
    """
    num, den = (f.num, f.den) if isinstance(f, RationalFunc) else (f, ONE)
    if len(den.coeffs) == 1 and (num.is_zero or (num.low == 0 and len(num.coeffs) == 1)):
        v = Fraction(num[0], den[0])
        return v.numerator if v.denominator == 1 else v
    raise ArithmeticError(f"{f} is not a constant")


def change(coeffs: Mapping[Partition, object],
           rows: Callable[[Partition], Iterable[tuple[Partition, object]]]) -> dict:
    """sum_lam c_lam * rows(lam), zeros dropped, in the arithmetic of the values given."""
    out: dict = {}
    for lam, c in coeffs.items():
        for mu, v in rows(lam):
            out[mu] = out.get(mu, 0) + c * v
    return {mu: c for mu, c in out.items() if not c == 0}


@lru_cache(maxsize=None)
def hall_littlewood(d: int) -> dict[Partition, dict[Partition, LaurentPoly]]:
    """The monomial coordinates of every P_lam(x; t) of degree d, reflected off the
    package's PT rows: PT_lam = t^{-n(lam)} P_lam(x; 1/t), so P_lam[m_mu] is
    t^{-n(lam)} PT_lam[m_mu](1/t)."""
    return {lam: {mu: c.subs_inv(-nstat(lam)) for mu, c in row.items()}
            for lam, row in _rows("PT", d).items()}


@lru_cache(maxsize=None)
def kostka(d: int) -> dict[Partition, dict[Partition, int]]:
    """The Kostka numbers K_lam,mu of degree d, s_lam = sum_mu K_lam,mu m_mu: the
    constant terms of P(x; t), since P_lam(x; 0) = s_lam (Macdonald III.2)."""
    return {lam: {mu: c[0] for mu, c in row.items() if c[0]}
            for lam, row in hall_littlewood(d).items()}


@lru_cache(maxsize=None)
def m_coords(basis: str, lam: Partition) -> dict[Partition, LaurentPoly]:
    """Monomial coordinates of m, s, h, e, p, P(x; t) or PT indexed by lam
    (bases M, S, H, E, P, HLP, PT): s_lam is a Kostka row, h_lam and e_lam are
    sum_nu K_nu,lam s_nu and s_nu' (Macdonald I.6), and p_lam counts the
    placements of its parts."""
    d = sum(lam)
    if basis == "M":
        return {lam: ONE}
    if basis == "P":
        return {nu: LaurentPoly.const(c) for nu in gen_partitions(d) if (c := placements(lam, nu))}
    if basis == "HLP":
        return dict(hall_littlewood(d)[lam])
    if basis == "PT":
        return dict(_rows("PT", d)[lam])
    k = kostka(d)
    schur = {lam: 1} if basis == "S" else {transpose(nu) if basis == "E" else nu: row[lam]
                                           for nu, row in k.items() if lam in row}
    return change(schur, lambda nu: ((mu, LaurentPoly.const(v)) for mu, v in k[nu].items()))


def p_to_m(coeffs: Mapping[Partition, object]) -> dict:
    """sum_lam c_lam p_lam in monomial coordinates, by the part placements."""
    return change(coeffs, lambda lam: ((nu, placements(lam, nu))
                                       for nu in gen_partitions(sum(lam))))


def _invert(a: list[list[LaurentPoly]]) -> list[list[RationalFunc]]:
    """The inverse of a square matrix over the Laurent ring Q[t, 1/t], by Gauss-Jordan
    over `RationalFunc`.

    Each pivot, the first nonzero entry on or below the diagonal, must be a
    unit c * t^k of the ring, c rational; any other pivot raises ArithmeticError.
    """
    n = len(a)
    aug = [[RationalFunc(x) for x in row] + [RF_ONE if i == k else RF_ZERO for k in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero), None)
        if piv is None:
            raise ArithmeticError("singular basis system: not a genuine basis")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        if len(p.num.coeffs) != 1 or len(p.den.coeffs) != 1:
            raise ArithmeticError(f"pivot {p} is not a unit of Q[t, 1/t]")
        inv = RF_ONE / p
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and not f.is_zero:
                aug[r] = [x if y.is_zero else x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def inverted_from_monomials(basis: str, d: int) -> dict[Partition, dict[Partition, RationalFunc]]:
    """Each m_mu, mu a partition of d, in the named basis: the columns of the
    inverse, by `_invert`, of the matrix whose columns are the basis elements
    in m-coordinates."""
    keys = gen_partitions(d)
    idx = {k: i for i, k in enumerate(keys)}
    a = [[ZERO] * len(keys) for _ in keys]
    for j, lam in enumerate(keys):
        for mu, c in m_coords(basis, lam).items():
            a[idx[mu]][j] = c
    inv = _invert(a)
    return {mu: {keys[j]: row[k] for j, row in enumerate(inv) if not row[k].is_zero}
            for k, mu in enumerate(keys)}


@lru_cache(maxsize=None)
def gauss_jordan_m_to(basis: str, d: int) -> dict[Partition, dict[Partition, int | Fraction]]:
    """Each m_mu, mu a partition of d, in a basis with constant rows (S, H, E or P) over Q,
    by `_invert`."""
    return {mu: {lam: ratfunc_to_const(c) for lam, c in row.items()}
            for mu, row in inverted_from_monomials(basis, d).items()}


def m_to_p(coeffs: Mapping[Partition, LaurentPoly], d: int) -> dict[Partition, RationalFunc]:
    """sum_mu c_mu m_mu, of degree d, in power-sum coordinates over Q(t), by the
    Gauss-Jordan m -> p table."""
    to_p = gauss_jordan_m_to("P", d)
    return change({mu: RationalFunc(c) for mu, c in coeffs.items()}, lambda mu: to_p[mu].items())


def plethysm_frac(coeffs: Mapping[Partition, object]) -> dict[Partition, RationalFunc]:
    """Substitute p_k -> p_k / (t^k - 1), i.e. the x/(t-1) plethysm, on power-sum coordinates."""
    out = {}
    for lam, c in coeffs.items():
        den = ONE
        for k in lam:
            den = den * (T ** k - 1)
        out[lam] = RF_ONE * c / den
    return out


def omega_m_through_s(d: int) -> dict[Partition, tuple[tuple[Partition, int], ...]]:
    """omega(m_mu) in monomial coordinates over Z, for every partition mu of d
    (Macdonald I (3.8)): m_mu in S by the Gauss-Jordan inverse of the Kostka
    matrix, each s_lam to s_lam', and back to m by the Kostka rows.  An S
    coordinate that involves t raises ArithmeticError."""
    k, out = kostka(d), {}
    for mu, row in inverted_from_monomials("S", d).items():
        flipped = {transpose(lam): ratfunc_to_const(c) for lam, c in row.items()}
        acc = change(flipped, lambda lam: k[lam].items())
        out[mu] = tuple((nu, acc[nu]) for nu in gen_partitions(d) if nu in acc)
    return out


def cm_lhs(pi: SchroderPath) -> dict[Partition, LaurentPoly]:
    """(t-1)^n X_{Graph(pi)}[x/(t-1)] in basis M, the left side of Carlsson-Mellit.

    X goes to P through the Gauss-Jordan table, the plethysm divides,
    and the result must clear to Laurent coefficients (NonDivisibleError if not).
    """
    n = pi.size
    to_p = inverted_from_monomials("P", n)
    F = change(csf(pi).coeffs, lambda mu: to_p[mu].items())
    F = plethysm_frac(F)
    scale = RationalFunc((T - 1) ** n)
    F = change({lam: c * scale for lam, c in F.items()},
               lambda lam: ((mu, RationalFunc(v)) for mu, v in m_coords("P", lam).items()))
    return {mu: ratfunc_to_laurent(c) for mu, c in F.items()}
