"""Chromatic quasisymmetric functions, vertical-strip LLT polynomials, and
their expansions, all built directly from coloring counts.

Colorings use the color set [n]: a degree-n monomial in n variables never
needs more than n distinct colors, so this finite truncation is faithful.
Both X_gamma (Shareshian-Wachs, Adv. Math. 2016) and the vertical-strip LLT
polynomial (Haglund-Haiman-Loehr, JAMS 2005) are symmetric, so the
coefficient of m_mu equals the coefficient of the single monomial x^mu.  Only
colorings whose content is a partition mu are therefore counted: those with
mu_1 copies of color 1, mu_2 of color 2, and so on.

Such a coloring is an ordered sequence of color classes, the vertices of
color 1, then of color 2, and so on (Stanley, Adv. Math. 1995).  So the
kernel counts by classes rather than by vertices: it takes the class of
each color in turn from the vertices not yet colored, and memoises on that
set and the parts of mu still to place.  That is about 3^n work where a
walk over the colorings is about n!, and every mu with the same tail of
parts shares the memo.  The 3^n count is known from n, so it is the
kernel's guard, `require_colorings`: `_color_sum` refuses past MAX_SWEEP
(n >= 11) on the call, and the CLI before it reads a JSON graph.

Every function here is indexed by a path: X_gamma by the Dyck path of gamma,
whose area is gamma's edge set.  `csf`, `llt_vertical` and `as_expansion` are
built once per process for each path (immutable and hashed by its steps, so it
keys an `lru_cache`); the cached SymFunc is immutable, so every caller may share it.
`as_expansion` adds the binomial rows of (t-1)^k into one integer list per
e-coefficient and wraps each list once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, prod
from typing import Iterable

from .combinatorics import Edge, Partition, SchroderPath, _partitions, area, diag
from .exactnum import LaurentPoly, t_minus_one_power
from .guards import require_power
from .symfunc import SymFunc, expand_in_basis


def _slot_bits(n: int) -> int:
    """Bits per power of t in a packed count: one more than n! needs, and no
    count of colorings of [n] exceeds n!."""
    return factorial(n).bit_length() + 1


def _color_sum(n: int, asc_edges: Iterable[Edge], differ: Iterable[Edge] = (),
               rise: Iterable[Edge] = ()) -> SymFunc:
    """Sum of t^{# ascending asc_edges} x^kappa over colorings kappa of [n], in basis M.

    kappa must differ on the ends of every `differ` edge and strictly increase
    along every `rise` edge; every edge is (i, j) with i < j.  Vertices are
    bits.  A class B may take the next color when it holds no `differ` or
    `rise` edge and, for each rise edge (i, j) with j in B, i is colored
    already.  Taking B from the uncolored set R adds the asc edges (i, j) with
    i in B and j in R - B: those are the edges that ascend from B, and each
    ascent is counted once, when its lower color is placed.  So

        f(R, parts) = sum over such B in R, |B| = parts[0], of t^a f(R - B, parts[1:]),

    memoised on (R, parts), and the coefficient of m_mu is f([n], mu).

    A count in Z_{>=0}[t] is one int with W = _slot_bits(n) bits per power of
    t: t^a times it is a shift by a W, and a sum of counts is an int sum.
    Slots never carry: a coefficient of f(R, parts) counts colorings of R
    with content parts, at most the multinomial |R|! / prod parts_i!, which
    is at most that of any mu the state is reached from, and at most n! <
    2^W.  The tripwire raises if a mu's multinomial does not fit in a slot,
    or if its unpacked coefficients sum past it (a carry would only lower
    that sum, so the two halves catch different faults).
    """
    require_colorings(n)
    up, apart, need = [0] * n, [0] * n, [0] * n
    for i, j in asc_edges:
        up[i - 1] |= 1 << j - 1
    for i, j in differ:
        apart[i - 1] |= 1 << j - 1
    for i, j in rise:
        need[j - 1] |= 1 << i - 1
    # admissible[B] = (the vertices colored before B, the up masks of B's vertices),
    # grown from B less its lowest vertex v, which no edge joins to a lower one
    admissible = {0: (0, ())}
    by_size: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for _ in range(n + 1)]
    for b in range(1, 1 << n):
        low = b & -b
        v = low.bit_length() - 1
        smaller = admissible.get(b ^ low)
        if smaller is None or apart[v] & b:
            continue
        before = smaller[0] | need[v]
        if before & b:
            continue
        ups = smaller[1] + (up[v],) if up[v] else smaller[1]
        admissible[b] = (before, ups)
        by_size[b.bit_count()].append((b, before, ups))
    w = _slot_bits(n)
    memo: dict[tuple[int, Partition], int] = {}

    def f(r: int, parts: Partition) -> int:
        rest = parts[1:]
        last = len(rest) == 1  # then R - B must itself be an admissible class
        total = 0
        for b, before, ups in by_size[parts[0]]:
            if b & r != b or before & r:
                continue
            left = r ^ b
            if last:
                if left not in admissible:
                    continue
                count = 1
            else:
                count = memo.get((left, rest))
                if count is None:
                    count = f(left, rest)
                if not count:
                    continue
            a = 0
            for u in ups:
                a += (u & left).bit_count()
            total += count << a * w
        memo[r, parts] = total
        return total

    everything, slot = (1 << n) - 1, (1 << w) - 1
    coeffs = {}
    for mu in _partitions(n):
        packed = f(everything, mu) if len(mu) > 1 else int(everything in admissible)
        counts = []  # the coefficient of t^e is slot e
        while packed:
            counts.append(packed & slot)
            packed >>= w
        words = factorial(n) // prod(map(factorial, mu))
        if words >> w or sum(counts) > words:
            raise ArithmeticError(f"the colorings of content {mu} do not fit {w}-bit slots: "
                                  f"{sum(counts)} counted, {words} words")
        coeffs[mu] = LaurentPoly(counts)
    return SymFunc(n, "M", coeffs)


def require_colorings(n: int) -> None:
    """Refuse, before any work, a sweep of the 3^n color classes of [n] past MAX_SWEEP."""
    require_power(f"the color classes of [{n}]", 3, n)


@lru_cache(maxsize=None)
def csf(pi: SchroderPath) -> SymFunc:
    """Chromatic quasisymmetric function of the graph of a Dyck path, its edges the
    path's area: sum over proper colorings of t^asc x^kappa."""
    edges = area(pi)
    return _color_sum(pi.size, edges, differ=edges)


@lru_cache(maxsize=None)
def llt_vertical(sigma: SchroderPath) -> SymFunc:
    """Vertical-strip LLT polynomial of a tall Schroeder path.

    Colorings must strictly increase along Diag edges; the ascent statistic is
    taken on the graph ([n], Area(sigma)).
    """
    return _color_sum(sigma.size, area(sigma), rise=diag(sigma))


def _h_vector(up: list[list[tuple[int, int]]], mask: int) -> list[int]:
    """The highest vertex reachable from each i in [n] along increasing arcs.

    up[i - 1] lists (bit, j - 1) for each edge {i, j}, i < j: the arc i -> j is
    present when `mask & bit`, so h(i) = max(i, h(j) over those arcs), from n down.
    """
    h = list(range(1, len(up) + 1))
    for i in range(len(up) - 1, -1, -1):
        top = h[i]
        for bit, j in up[i]:
            if mask & bit and h[j] > top:
                top = h[j]
        h[i] = top
    return h


def require_orientations(what: str, edges: int) -> None:
    """Refuse, before any work, a sweep of the 2^edges orientations of `what` past MAX_SWEEP."""
    require_power(f"the orientations of {what}", 2, edges)


@lru_cache(maxsize=None)
def as_expansion(sigma: SchroderPath) -> SymFunc:
    """Orientation-sum e-expansion of the vertical-strip LLT polynomial.

    Sums (t-1)^{# ascending area edges} e_{type(theta)} over orientations of
    ([n], Area u Diag) whose Diag edges all point ascending. An orientation is
    a bit mask over the sorted area edges, a set bit for an edge that points up;
    its type is the sorted fibre sizes of `_h_vector`.
    """
    n = sigma.size
    a_edges = sorted(area(sigma))
    d_edges = sorted(diag(sigma))
    require_orientations(f"the {len(a_edges)} area edges of {sigma}", len(a_edges))
    up: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (i, j) in enumerate(a_edges + d_edges):
        up[i - 1].append((1 << k, j - 1))
    diag_up = (1 << (len(a_edges) + len(d_edges))) - (1 << len(a_edges))
    counts: Counter[tuple[Partition, int]] = Counter()
    for mask in range(2 ** len(a_edges)):
        fibres = Counter(_h_vector(up, mask | diag_up)).values()
        counts[tuple(sorted(fibres, reverse=True)), mask.bit_count()] += 1
    # m (t - 1)^k added into one integer list per type, read off the binomial row
    coeffs: dict[Partition, list[int]] = {}
    for (ty, k), m in counts.items():
        acc = coeffs.setdefault(ty, [0] * (len(a_edges) + 1))
        for i, c in enumerate(t_minus_one_power(k).coeffs):
            acc[i] += m * c
    return SymFunc(n, "E", {ty: LaurentPoly(acc) for ty, acc in coeffs.items()})


def d_coeffs(pi: SchroderPath) -> dict[Partition, LaurentPoly]:
    """Expansion of X_gamma, gamma the graph of a Dyck path, in the symbolic
    modified Hall-Littlewood basis."""
    return dict(expand_in_basis(csf(pi), "PT").coeffs)


def is_nonneg_int_poly(f: LaurentPoly) -> bool:
    """True iff f, over Z, lies in Z_{>=0}[t]: no negative exponent or coefficient."""
    if f.is_zero:
        return True
    return f.low >= 0 and all(c >= 0 for _, c in f.terms())


def e_expansion_X(pi: SchroderPath) -> tuple[SymFunc, list[Partition]]:
    """e-basis coefficients of X_gamma, gamma the graph of a Dyck path, plus the
    list of any outside Z_{>=0}[t].

    The positivity half is an experiment harness (the statement is an open
    conjecture), so violations are reported, never raised.
    """
    F = expand_in_basis(csf(pi), "E")
    violations = []
    for lam, c in sorted(F.coeffs.items()):
        if not is_nonneg_int_poly(c):
            violations.append(lam)
    return F, violations
