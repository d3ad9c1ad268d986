"""Exponent-vector oracles for the monomial coordinates of e, h and p.

The package reads s, h and e off one Kostka table and p off part placements.
These helpers redo the old computation instead: each product of one-part
basis elements is multiplied out over the exponent vectors of its monomial
orbits, read in n variables.  `check_symmetric` tests a full exponent-vector
table for constancy on orbits.  `placements` is the package's part count
before it was memoised on the multiset of room left.  The tests compare them
with the package.  Three helpers that only the tests need sit here too:
`coeff`, `zlam` and `sym_sum`, the sum that the package's SymFunc does not
define.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, Mapping

from chromaq.combinatorics import Partition, gen_partitions
from chromaq.exactnum import LaurentPoly
from chromaq.symfunc import ONE, ZERO, SymFunc, _coeff

# every chromaq name this oracle imports, with its reason; a kernel that the
# package's own path also runs on names, as (reason, test), the test that checks it alone
CHROMAQ_IMPORTS = {
    "combinatorics.Partition": "a type name",
    "combinatorics.gen_partitions": "the keys of every table, a listing",
    "exactnum.LaurentPoly": "the value type of the coefficients",
    "symfunc.ONE": "a value",
    "symfunc.ZERO": "a value",
    "symfunc.SymFunc": "the value type of the sums",
    "symfunc._coeff": "SymFunc's coefficient coercion, which makes a number a constant",
}


def coeff(F: SymFunc, mu: Partition) -> LaurentPoly:
    """The coefficient of the basis element mu in F (zero when absent)."""
    return F.coeffs.get(tuple(mu), ZERO)


def sym_sum(*Fs: SymFunc) -> SymFunc:
    """The sum of SymFuncs of one degree and one basis, coefficient by coefficient."""
    d, b = Fs[0].degree, Fs[0].basis
    if any((F.degree, F.basis) != (d, b) for F in Fs):
        raise ValueError("cannot add SymFuncs of different degree or basis")
    out: dict[Partition, LaurentPoly] = {}
    for F in Fs:
        for mu, c in F.coeffs.items():
            out[mu] = out.get(mu, ZERO) + c
    return SymFunc(d, b, out)


def zlam(lam: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type lambda."""
    z = 1
    for k in set(lam):
        m = lam.count(k)
        z *= k ** m
        for i in range(1, m + 1):
            z *= i
    return z


def multiset_perms(items: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Distinct orderings of a tuple with repeated entries, each yielded once."""
    if not items:
        yield ()
        return
    seen = set()
    for i, x in enumerate(items):
        if x in seen:
            continue
        seen.add(x)
        for rest in multiset_perms(items[:i] + items[i + 1:]):
            yield (x,) + rest


@lru_cache(maxsize=None)
def orbit_monomials(mu: Partition, nvars: int) -> tuple[tuple[int, ...], ...]:
    """All distinct exponent vectors in the S_n-orbit of mu, padded to nvars."""
    padded = mu + (0,) * (nvars - len(mu))
    return tuple(multiset_perms(padded))


def check_symmetric(full: Mapping[tuple[int, ...], LaurentPoly], nvars: int) -> bool:
    """True iff a full exponent-vector table is constant on S_n-orbits."""
    cleaned = {e: c for e, c in full.items() if not _coeff(c).is_zero}
    reps: dict[tuple[int, ...], LaurentPoly] = {}
    for e, c in cleaned.items():
        r = tuple(sorted(e, reverse=True))
        if r in reps:
            if _coeff(reps[r]) != _coeff(c):
                return False
        else:
            reps[r] = c
    for r, c in reps.items():
        mu = tuple(x for x in r if x)
        for e in orbit_monomials(mu, nvars):
            if _coeff(cleaned.get(e, ZERO)) != _coeff(c):
                return False
    return True


def orbit_product(a: dict[Partition, LaurentPoly], b: dict[Partition, LaurentPoly],
                  degree: int, n: int) -> dict[Partition, LaurentPoly]:
    """Product of two monomial-coordinate dicts of total degree `degree` <= n.

    Read in n variables: the coefficient of m_nu sums a_e * b_{nu - e} over the
    exponent vectors e in the orbits of the keys of a.
    """
    fb = {e: c for mu, c in b.items() for e in orbit_monomials(mu, n)}
    fa = [(e, c) for mu, c in a.items() for e in orbit_monomials(mu, n)]
    out: dict[Partition, LaurentPoly] = {}
    for nu in gen_partitions(degree):
        target = nu + (0,) * (n - len(nu))
        acc = ZERO
        for e, c in fa:
            c2 = fb.get(tuple(x - y for x, y in zip(target, e)))
            if c2 is not None:
                acc = acc + c * c2
        if not acc.is_zero:
            out[nu] = acc
    return out


_ONE_PART = {
    "E": lambda k: {(1,) * k: ONE},
    "H": lambda k: {mu: ONE for mu in gen_partitions(k)},
    "P": lambda k: {(k,): ONE},
}


def product_coords(basis: str, parts: Partition) -> dict[Partition, LaurentPoly]:
    """e, h or p of `parts` in monomial coordinates, one orbit product per part."""
    n = sum(parts)
    acc, deg = {(): ONE}, 0
    for k in parts:
        deg += k
        acc = orbit_product(acc, _ONE_PART[basis](k), deg, n)
    return acc


def placements(parts: Partition, room: tuple[int, ...]) -> int:
    """Ways to drop each part into a slot of `room` so that every slot is filled
    exactly, with no memo: slots with equal room left give equal counts, so
    each value is tried once."""
    if not parts:
        return 1
    k, rest = parts[0], parts[1:]
    total = 0
    for r, mult in Counter(room).items():
        if r >= k:
            j = room.index(r)
            total += mult * placements(rest, room[:j] + room[j + 1:] + ((r - k,) if r > k else ()))
    return total
