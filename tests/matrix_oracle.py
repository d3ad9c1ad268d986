"""The tuple matrix kernel that `fqoracle._Packed` replaced, and the GL_n oracles.

The package packs an n x n matrix over F_q into one int, a byte per entry,
and multiplies, inverts and row-reduces those ints. These helpers redo the
same work on tuples of row tuples, entry by entry: products, Gauss-Jordan
inverses, ranks and the Jordan-type ladder. The unipotent Jordan matrix
J_lam and the subtraction u - 1 build the J_lam - 1 that the package writes
down directly. On top of them sit the old conjugation sweep (zero patterns
as bit i*n + j), the old induction table and the centralizer order by
enumeration of GL_n. The tests compare the package with them exactly.

The enumerations of UT_n and of the flag representatives as row tuples live
here too, independent of the package's packed sweeps, and `pack`/`unpack`
move between the two layouts. The package never sweeps GL_n. The enumeration
of GL_n lives here, with the one-step induction of the trivial character of
UT_gamma over it and the canonical representative of a flag, so that
induction and the flag sweep have independent checks.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, permutations, product
from typing import Iterator

from chromaq.combinatorics import IndiffGraph, Partition, gen_partitions
from chromaq.fqoracle import (
    UnipClassFn,
    _centralizer_order,
    _check_q,
    _conjugate_masks,
    _cosets,
    _jordan_nilpotents,
    flag_count,
    gl_order,
    ut_order,
)
from chromaq.guards import require_sweep

Rows = tuple[tuple[int, ...], ...]


def pack(rows: Rows) -> int:
    """A matrix with entries in 0..255 as one int, entry (i, j) in byte i*n + j."""
    return int.from_bytes(bytes(chain.from_iterable(rows)), "little")


def unpack(m: int, n: int) -> Rows:
    """The rows of the packed n x n matrix m."""
    b = m.to_bytes(n * n, "little")
    return tuple(tuple(b[i * n:(i + 1) * n]) for i in range(n))


def mat_identity(n: int) -> Rows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def ut_rows(n: int, q: int) -> Iterator[Rows]:
    """All elements of UT_n(F_q) as row tuples."""
    require_sweep(f"UT_{n}(F_{q})", ut_order(n, q))
    pos = [(i, j) for i in range(n) for j in range(i + 1, n)]
    base = [list(r) for r in mat_identity(n)]
    for vals in product(range(q), repeat=len(pos)):
        for (i, j), v in zip(pos, vals):
            base[i][j] = v
        yield tuple(tuple(r) for r in base)


def flag_rows(n: int, q: int) -> Iterator[Rows]:
    """Canonical coset representatives of GL_n/B_n as row tuples, one per complete flag.

    Column j has its lowest nonzero entry normalized to 1 in pivot row w(j);
    entries at earlier pivot rows are cleared.  Remaining entries are free.
    """
    _check_q(q)
    require_sweep(f"the flags of F_{q}^{n}", flag_count(n, q))
    for w in permutations(range(n)):
        free = [(i, j) for j in range(n) for i in range(w[j]) if i not in w[:j]]
        base = [[0] * n for _ in range(n)]
        for j in range(n):
            base[w[j]][j] = 1
        for vals in product(range(q), repeat=len(free)):
            for (i, j), v in zip(free, vals):
                base[i][j] = v
            yield tuple(tuple(r) for r in base)


def _inv_table(q: int) -> tuple[int, ...]:
    return tuple(pow(a, q - 2, q) if a else 0 for a in range(q))


def mat_mul(a: Rows, b: Rows, q: int) -> Rows:
    n = len(a)
    bt = tuple(zip(*b)) if n else ()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % q for col in bt) for row in a)


def mat_inv(rows: Rows, q: int) -> Rows:
    n = len(rows)
    inv_t = _inv_table(q)
    A = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        A[col], A[piv] = A[piv], A[col]
        f = inv_t[A[col][col]]
        if f != 1:
            A[col] = [(x * f) % q for x in A[col]]
        ac = A[col]
        for r in range(n):
            if r != col and A[r][col]:
                c = A[r][col]
                ar = A[r]
                for k in range(col, 2 * n):
                    ar[k] = (ar[k] - c * ac[k]) % q
    return tuple(tuple(r[n:]) for r in A)


def jordan(lam: Partition) -> Rows:
    """Unipotent Jordan matrix with one block per part (1s on the superdiagonal)."""
    n = sum(lam)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for k in lam:
        for i in range(k):
            rows[off + i][off + i] = 1
            if i + 1 < k:
                rows[off + i][off + i + 1] = 1
        off += k
    return tuple(tuple(r) for r in rows)


def mat_minus_identity(rows: Rows, q: int) -> Rows:
    """rows - identity over F_q; for J_lam this is its nilpotent part."""
    return tuple(tuple((x - (1 if i == j else 0)) % q for j, x in enumerate(r))
                 for i, r in enumerate(rows))


def rank(rows: Rows, q: int) -> int:
    """Rank over F_q by row reduction."""
    inv_t = _inv_table(q)
    m = [list(r) for r in rows]
    out = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(out, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[out], m[piv] = m[piv], m[out]
        pr = m[out]
        f = inv_t[pr[col]]
        for r in range(out + 1, len(m)):
            c = m[r][col] * f % q
            if c:
                m[r] = [(x - c * y) % q for x, y in zip(m[r], pr)]
        out += 1
    return out


def jordan_type(u: Rows, q: int) -> Partition:
    """Jordan type of a unipotent u from the ranks of (u-1)^k; ValueError if u is not unipotent."""
    n = len(u)
    nil = power = mat_minus_identity(u, q)
    ranks = [n]
    while ranks[-1] and len(ranks) <= n:
        ranks.append(rank(power, q))
        if ranks[-1]:
            power = mat_mul(power, nil, q)
    conj = [a - b for a, b in zip(ranks, ranks[1:])]
    if ranks[-1] or any(a < b for a, b in zip(conj, conj[1:])) or conj and conj[-1] < 1:
        raise ValueError(f"{u} is not unipotent over F_{q}: ranks of (u-1)^k are {ranks}")
    return tuple(sum(1 for c in conj if c >= i) for i in range(1, conj[0] + 1)) if conj else ()


def gl_matrices(n: int, q: int) -> Iterator[Rows]:
    """Stream all of GL_n(F_q), built row by row from independent vectors.
    Refused past MAX_SWEEP on the call, as the package's sweeps are."""
    require_sweep(f"GL_{n}(F_{q})", gl_order(n, q))
    vectors = list(product(range(q), repeat=n))
    zero = tuple([0] * n)

    def rec(rows: list, span: set) -> Iterator[Rows]:
        if len(rows) == n:
            yield tuple(rows)
            return
        for v in vectors:
            if v in span:
                continue
            new_span = set(span)
            for c in range(1, q):
                cv = tuple(c * x % q for x in v)
                for s in span:
                    new_span.add(tuple((a + b) % q for a, b in zip(s, cv)))
            rows.append(v)
            yield from rec(rows, new_span)
            rows.pop()

    return rec([], {zero})


def gl_elements(n: int, q: int) -> Iterator[int]:
    """GL_n(F_q), packed, for the package's conjugation kernel."""
    return map(pack, gl_matrices(n, q))


def induce_trivial_from_subgroup(gamma: IndiffGraph, q: int) -> UnipClassFn:
    """One-step induction of the trivial character of UT_gamma straight to GL_n.

    Independent oracle for transitivity of induction: sweeps GL_n and counts
    the x with x^{-1} J_lam x in UT_gamma by direct membership tests, with no
    superclass machinery involved.
    """
    n = gamma.n
    _check_q(q)
    tallies = _conjugate_masks(gl_elements, n, q, _jordan_nilpotents(n))
    return UnipClassFn(n, q, _cosets(tallies, gamma, q))


def canonical_flag(g: Rows, q: int) -> Rows:
    """The canonical representative of the coset g B_n."""
    n = len(g)
    inv_t = _inv_table(q)
    cols = [list(col) for col in zip(*g)] if n else []
    for j in range(n):
        col = cols[j]
        r = max(i for i in range(n) if col[i])
        f = inv_t[col[r]]
        if f != 1:
            cols[j] = col = [x * f % q for x in col]
        for j2 in range(j + 1, n):
            c = cols[j2][r]
            if c:
                cols[j2] = [(x - c * y) % q for x, y in zip(cols[j2], col)]
    return tuple(zip(*[tuple(c) for c in cols]))


def centralizer_order(g: Rows, q: int) -> int:
    """|C_{GL_n}(g)| by exhaustive enumeration of GL_n."""
    return sum(1 for x in gl_matrices(len(g), q) if mat_mul(x, g, q) == mat_mul(g, x, q))


def zero_mask(m: Rows) -> int:
    """Zero pattern of m: bit i*n + j set iff entry (i, j) is 0."""
    return sum(1 << k for k, x in enumerate(chain.from_iterable(m)) if not x)


def conjugate_masks(sweep, n: int, q: int, targets: tuple[Rows, ...]) -> tuple[Counter, ...]:
    """For each target a, how many x of sweep(n, q) give x^{-1} a x each zero pattern."""
    out = tuple(Counter() for _ in targets)
    for x in sweep(n, q):
        xi = mat_inv(x, q)
        for a, masks in zip(targets, out):
            masks[zero_mask(mat_mul(mat_mul(xi, a, q), x, q))] += 1
    return out


def label_edges(u: Rows, n: int) -> frozenset[tuple[int, int]]:
    """Finest indifference label: {i,l} iff u[j,k] = 0 on the whole interval block."""
    return frozenset((i, l) for i in range(1, n + 1) for l in range(i + 1, n + 1)
                     if all(u[j - 1][k - 1] == 0
                            for j in range(i, l + 1) for k in range(j + 1, l + 1)))


def induction_table(n: int, q: int) -> dict[Partition, dict[IndiffGraph, int]]:
    """The induction table from one sweep of UT_n, through the tuple kernels."""
    raw: dict[Partition, Counter] = {lam: Counter() for lam in gen_partitions(n)}
    for u in ut_rows(n, q):
        raw[jordan_type(u, q)][label_edges(u, n)] += 1
    return {lam: {IndiffGraph(n, lab): c * _centralizer_order(lam, q) for lab, c in labs.items()}
            for lam, labs in raw.items()}
