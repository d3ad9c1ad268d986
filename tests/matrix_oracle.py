"""The tuple matrix kernel that `fqoracle._Packed` replaced, and the GL_n oracles.

The package packs an n x n matrix over F_q into one int, a byte per entry,
and multiplies, inverts and row-reduces those ints. These helpers redo the
same work on tuples of row tuples, entry by entry: products, Gauss-Jordan
inverses, ranks and the Jordan-type ladder. The unipotent Jordan matrix
J_lam and the subtraction u - 1 build the J_lam - 1 that the package writes
down directly. On top of them sit the old conjugation sweep (zero patterns
as bit i*n + j), the old induction table and the centralizer order by
enumeration of GL_n. The tests compare the package with them exactly.

The package never sweeps GL_n. The enumeration of GL_n lives here, with the
one-step induction of the trivial character of UT_gamma over it and the
canonical representative of a flag, so that induction and the flag sweep
have independent checks.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, product
from typing import Iterator

from chromaq.combinatorics import IndiffGraph, Partition, gen_partitions
from chromaq.fqoracle import (
    MatrixFq,
    Rows,
    UnipClassFn,
    _centralizer_order,
    _check_q,
    _conjugate_masks,
    _cosets,
    _jordan_nilpotents,
    gl_order,
    ut_elements,
)
from chromaq.guards import require_sweep


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


def jordan(lam: Partition, q: int) -> MatrixFq:
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
    return MatrixFq(q, tuple(tuple(r) for r in rows))


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
    """Stream all of GL_n(F_q), built row by row from independent vectors."""
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

    yield from rec([], {zero})


def induce_trivial_from_subgroup(gamma: IndiffGraph, q: int) -> UnipClassFn:
    """One-step induction of the trivial character of UT_gamma straight to GL_n.

    Independent oracle for transitivity of induction: sweeps GL_n and counts
    the x with x^{-1} J_lam x in UT_gamma by direct membership tests, with no
    superclass machinery involved.
    """
    n = gamma.n
    _check_q(q)
    tallies = _conjugate_masks(gl_matrices, n, q, _jordan_nilpotents(n, q))
    return UnipClassFn(n, q, _cosets(tallies, gamma, q))


def canonical_flag(g: MatrixFq) -> MatrixFq:
    """The canonical representative of the coset g B_n."""
    q = g.q
    n = g.n
    inv_t = _inv_table(q)
    cols = [list(col) for col in zip(*g.rows)] if n else []
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
    return MatrixFq(q, tuple(zip(*[tuple(c) for c in cols])))


def centralizer_order(g: MatrixFq) -> int:
    """|C_{GL_n}(g)| by exhaustive enumeration of GL_n."""
    q = g.q
    return sum(1 for x in gl_matrices(g.n, q) if mat_mul(x, g.rows, q) == mat_mul(g.rows, x, q))


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
    for u in ut_elements(n, q):
        raw[jordan_type(u, q)][label_edges(u, n)] += 1
    return {lam: {IndiffGraph(n, lab): c * _centralizer_order(lam, q) for lab, c in labs.items()}
            for lam, labs in raw.items()}
