"""The tuple matrix kernel that `fqoracle._Packed` replaced, the brute-force
conjugation sweeps that the package's counts by linear algebra replaced, and
the GL_n oracles.

The package packs an n x n matrix over F_q into one int, a byte per entry,
and multiplies and row-reduces those ints. These helpers redo the same work
on tuples of row tuples, entry by entry: products, Gauss-Jordan inverses,
ranks and the Jordan-type ladder. The unipotent Jordan matrix J_lam and the
subtraction u - 1 build the J_lam - 1 that the package writes down directly.
On top of them sit the old conjugation sweep (zero patterns as bit i*n + j),
the old induction table and the centralizer orders by one enumeration of GL_n.
The tests compare the package with them exactly.

The packed conjugation sweep lives here too: `_conjugate_masks` inverts each
x of a sweep once (`inverse_columns`) and tallies the zero patterns of
x^-1 a x for every target a. Over `ut_elements` and the superclass
representatives it counts the cosets of UT_gamma fixed by each superclass
(`coset_permutation_character`), the oracle of the package's count by column
ranks; over the flag representatives `flag_reps` and each J_lam - 1 it counts
Hessenberg points (`hessenberg_sweep`), the oracle of the package's walk of
the Springer fibre; over GL_n it induces the trivial character of UT_gamma
in one step (`induce_trivial_from_subgroup`). The enumerations of UT_n and of
the flags as row tuples are independent of the packed sweeps, and
`pack`/`unpack` move between the two layouts. The package never sweeps GL_n
or the flags, and never counts them by the product [n]_q! (`flag_count`),
which bounds the flag sweeps here and checks its count of the fibre of 0.

The superclass representatives, which the coset sweep conjugates, live here
too, and so does the packed elimination of their column systems
(`column_ranks_by_elimination`), the oracle of the ranks that the package
reads off Hessenberg functions.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, permutations, product
from typing import Callable, Iterable, Iterator

from chromaq.combinatorics import (
    Partition,
    SchroderPath,
    area,
    gen_dyck,
    gen_partitions,
    path_of_graph,
)
from chromaq.fqoracle import (
    ClassFnUT,
    UnipClassFn,
    _check_q,
    _field,
    _Packed,
    jordan_nilpotent,
    ut_elements,
    ut_order,
)
from chromaq.guards import require_sweep

# every chromaq name this oracle imports, with its reason; a kernel that the
# package's own path also runs on names, as (reason, test), the test that checks it alone
CHROMAQ_IMPORTS = {
    "combinatorics.Partition": "a type name",
    "combinatorics.SchroderPath": "a value type",
    "combinatorics.area": ("the edges of the graph of a Dyck path, whose pattern algebra "
                           "the sweeps test; the package's Hessenberg side reads its h",
                           "tests/test_combinatorics.py::test_tall_paths_read_h_and_d_as_the_cell_walk_does"),
    "combinatorics.gen_dyck": "the graphs on [n], a listing of their Dyck paths",
    "combinatorics.gen_partitions": "the Jordan types, a listing",
    "combinatorics.path_of_graph": ("the Dyck path of a label's edge set, a key of the table",
                                    "tests/test_combinatorics.py::test_graphs_record_the_hessenberg_function_of_their_edges"),
    "fqoracle.ClassFnUT": "the value type of a class function",
    "fqoracle.UnipClassFn": "the value type of an induced class function",
    "fqoracle._check_q": "the field-size guard",
    "fqoracle._field": ("the byte tables mod q of the packed sweeps, which the Springer walk "
                        "reduces with too",
                        "tests/test_fqoracle.py::test_packed_kernel_matches_the_tuple_oracle"),
    "fqoracle._Packed": ("the packed kernel of the conjugation sweeps, whose elimination the "
                         "Springer walk runs on too",
                         "tests/test_fqoracle.py::test_eliminate_matches_the_tuple_rank"),
    "fqoracle.jordan_nilpotent": ("J_lam - 1, the target of the Hessenberg sweep and the start "
                                  "of the Springer walk",
                                  "tests/test_fqoracle.py::test_jordan_nilpotency"),
    "fqoracle.ut_elements": ("the enumeration of UT_n, which the coset sweep and check_hess's "
                             "sweep both run over",
                             "tests/test_fqoracle.py::test_ut_enumeration"),
    "fqoracle.ut_order": "|UT_n(F_q)|, a count",
    "guards.require_sweep": "the size guard of the oracle's sweeps",
}

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


def flag_count(n: int, q: int) -> int:
    """Number of complete flags of F_q^n: the q-factorial [n]_q!, a product, the
    oracle of the package's |B_(1^n)| by Spaltenstein's recursion."""
    out = 1
    for i in range(1, n + 1):
        out *= (q ** i - 1) // (q - 1)
    return out


def require_flags(n: int, q: int) -> None:
    """Refuse, before any work, a sweep of the [n]_q! flags of F_q^n past MAX_SWEEP."""
    _check_q(q)
    require_sweep(f"the flags of F_{q}^{n}", flag_count(n, q))


def flag_reps(n: int, q: int) -> Iterator[int]:
    """Canonical coset representatives of GL_n/B_n, one per complete flag, packed,
    in the order of flag_rows.  Refused past MAX_SWEEP on the call."""
    require_flags(n, q)
    cells = ((sum(1 << 8 * (w[j] * n + j) for j in range(n)),
              [[v << 8 * (i * n + j) for v in range(q)]
               for j in range(n) for i in range(w[j]) if i not in w[:j]])
             for w in permutations(range(n)))
    return (pivots + sum(vals) for pivots, places in cells for vals in product(*places))


def flag_rows(n: int, q: int) -> Iterator[Rows]:
    """Canonical coset representatives of GL_n/B_n as row tuples, one per complete flag.

    Column j has its lowest nonzero entry normalized to 1 in pivot row w(j);
    entries at earlier pivot rows are cleared.  Remaining entries are free:
    for each w in turn, each choice of them, in the order of itertools.product.
    """
    require_flags(n, q)
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


def gl_order(n: int, q: int) -> int:
    qn = q ** n
    out = 1
    for i in range(n):
        out *= qn - q ** i
    return out


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
    """GL_n(F_q), packed, for the packed conjugation sweep."""
    return map(pack, gl_matrices(n, q))


# ---------------------------------------------------------------------------
# the packed conjugation sweep
# ---------------------------------------------------------------------------

def inverse_columns(k: _Packed, x: int) -> list[int]:
    """Column j of x^{-1} at bytes i*n, for each j: Gauss-Jordan on the
    columns of x (the rows of x^T, entry i in byte i*n) beside an identity
    whose entry i sits in byte i*n + 1.

    Row j of x^T pivots on its last nonzero entry.  In a unipotent upper
    triangular x or a flag representative that is a 1 which the earlier
    rows leave in place, so those rows need no scaling."""
    n, q, inv, col, mod = k.n, k.q, k.inv, k.col, k.mod
    size = n * n + 1
    rows = [x >> 8 * j & col | 1 << 8 * (j * n + 1) for j in range(n)]
    pivots = []
    for i in range(n):
        p, rows[i] = rows[i], 0
        if not p & col:
            raise ValueError("matrix is singular")
        sh = (p & col).bit_length() - 1 & ~7
        if (v := p >> sh & 255) != 1:
            p = k.reduce(p * inv[v], size)
        rows = [int.from_bytes((r + (q - v) * p).to_bytes(size, "little").translate(mod),
                               "little") if (v := r >> sh & 255) else r for r in rows]
        rows[i] = p
        pivots.append(sh // (8 * n))
    out = [0] * n
    for j, r in zip(pivots, rows):
        out[j] = r >> 8 & col
    return out


def _conjugation_terms(k: _Packed, a: int) -> tuple[tuple[int, int], ...]:
    """x^{-1} a x as a sum of a[r][c] copies of (column r of x^{-1}) (row c of
    x): the (r, c) of each copy.  OverflowError if that sum could carry between
    bytes; no target of a sweep that MAX_SWEEP admits comes near it."""
    n, q = k.n, k.q
    terms = tuple(divmod(i, n) for i, v in enumerate(a.to_bytes(n * n, "little"))
                  for _ in range(v))
    if len(terms) * (q - 1) ** 2 > 255:
        raise OverflowError(f"x^-1 a x over F_{q} as a sum of {len(terms)} products "
                            f"would carry between bytes: {k.unpack(a)}")
    return terms


@lru_cache(maxsize=None)
def _conjugate_masks(sweep: Callable[[int, int], Iterator[int]], n: int, q: int,
                     targets: tuple[int, ...]) -> tuple[Counter, ...]:
    """For each target a, how many x of sweep(n, q) give x^{-1} a x each zero
    pattern (bit 8(i*n + j) set iff entry (i, j) is 0).

    Each x is inverted once.  The conjugate of a is the sum of its terms, so
    every product of a column of x^{-1} by a row of x is made once per x and
    shared by all the targets; a J_lam - 1 has at most n - 1 terms.
    """
    out = tuple(Counter() for _ in targets)
    xs = sweep(n, q)  # its guard runs first, before the kernel's carry bound
    k = _Packed(n, q)
    size, zero, from_bytes = n * n, _field(q)[2], int.from_bytes
    terms = [_conjugation_terms(k, a) for a in targets]
    slot = {t: i for i, t in enumerate(sorted(set(chain.from_iterable(terms))))}
    plans = [([slot[t] for t in ts], masks) for ts, masks in zip(terms, out)]
    for x in xs:
        cols = inverse_columns(k, x)
        rows = [x >> 8 * j * n & k.row for j in range(n)]
        prods = [cols[r] * rows[c] for r, c in slot]
        for slots, masks in plans:
            conj = sum([prods[i] for i in slots])
            masks[from_bytes(conj.to_bytes(size, "little").translate(zero), "little")] += 1
    return out


def _pattern_counts(tallies: Iterable[Counter], gamma: SchroderPath) -> list[int]:
    """For each tally, how many conjugates lie in the pattern algebra of gamma:
    zero on and below the diagonal and at every edge of gamma."""
    n = gamma.size
    e = sum(1 << 8 * (i * n + j) for i in range(n) for j in range(i + 1))
    e |= sum(1 << 8 * ((i - 1) * n + j - 1) for i, j in area(gamma))
    return [sum(c for mask, c in masks.items() if mask & e == e) for masks in tallies]


def _cosets(tallies: Iterable[Counter], gamma: SchroderPath, q: int) -> tuple[int, ...]:
    """The pattern counts divided by |UT_gamma|: the x counted form UT_gamma cosets."""
    sub_order = ut_order(gamma.size, q) // q ** len(area(gamma))
    out = []
    for count in _pattern_counts(tallies, gamma):
        if count % sub_order:
            raise AssertionError(f"{count} elements are not a union of UT_gamma cosets "
                                 f"(|UT_gamma| = {sub_order})")
        out.append(count // sub_order)
    return tuple(out)


@lru_cache(maxsize=None)
def _jordan_nilpotents(n: int) -> tuple[int, ...]:
    """The J_lam - 1 for lam |- n, in the order of gen_partitions(n)."""
    return tuple(jordan_nilpotent(lam) for lam in gen_partitions(n))


@lru_cache(maxsize=None)
def _superclass_nilpotents(n: int) -> tuple[int, ...]:
    """u - 1 for a canonical u of each superclass, in the order of
    gen_dyck(n): a 1 at every non-edge above the diagonal.  The
    label of u is read back by label_edges; another label raises."""
    one, out = pack(mat_identity(n)), []
    for g in gen_dyck(n):
        a = sum(1 << 8 * (i * n + j) for i in range(n) for j in range(i + 1, n)
                if (i + 1, j + 1) not in area(g))
        if label_edges(unpack(one + a, n), n) != area(g):
            raise AssertionError(f"the superclass representative of {g} has another label")
        out.append(a)
    return tuple(out)


def column_ranks_by_elimination(n: int, q: int) -> tuple[tuple[int | None, ...], ...]:
    """The package's column ranks by row reduction over F_q: for each superclass
    representative a and each column j and m < j in turn, the rank of rows
    m+1..j-1 of the first j-1 columns of a, or None when column j's rows
    m+1..j-1 are not in their span.  Column 1 and row n of a are zero, so each j
    reduces rows 1..j-1 of the (n-1)-square block that drops them (admitted at
    (8,7)) once: j-1-m steps reduce rows m+1..j-1; a pivot on column j: no solution."""
    reps = _superclass_nilpotents(n)
    w = max(n - 1, 0)
    k = _Packed(w, q)
    out = []
    for a in reps:
        raw = a.to_bytes(n * n, "little")
        rows = [int.from_bytes(raw[i * n + 1:(i + 1) * n], "little") for i in range(w)]
        ranks = []
        for j in range(1, n + 1):
            # block column c is column c + 2 of a: column j is c = j - 2, the right-hand side
            rank, run = 0, [0]
            for sh, _ in k.eliminate([r & (1 << 8 * (j - 1)) - 1 for r in rows[:j - 1]], w):
                if rank is not None and sh is not None:
                    rank = None if sh == 8 * (j - 2) else rank + 1
                run.append(rank)
            ranks += reversed(run)
        out.append(tuple(ranks))
    return tuple(out)


def coset_permutation_character(gamma: SchroderPath, q: int) -> ClassFnUT:
    """The character of UT_n on UT_n/UT_gamma by direct coset counting: x UT_gamma
    is fixed by u iff x^{-1} (u - 1) x lies in the pattern algebra of gamma.
    Refused past MAX_SWEEP before any representative is built."""
    n = gamma.size
    _check_q(q)
    require_sweep(f"UT_{n}(F_{q})", ut_order(n, q))
    tallies = _conjugate_masks(ut_elements, n, q, _superclass_nilpotents(n))
    return ClassFnUT(n, q, _cosets(tallies, gamma, q))


def hessenberg_sweep(gamma: SchroderPath, lam: Partition, q: int) -> int:
    """The Hessenberg count of J_lam - 1 by a sweep of every flag: how many
    flags gB put g^{-1} (J_lam - 1) g in the pattern algebra of gamma."""
    n = gamma.size
    require_flags(n, q)
    tallies = _conjugate_masks(flag_reps, n, q, _jordan_nilpotents(n))
    return _pattern_counts([tallies[gen_partitions(n).index(lam)]], gamma)[0]


def induce_trivial_from_subgroup(gamma: SchroderPath, q: int) -> UnipClassFn:
    """One-step induction of the trivial character of UT_gamma straight to GL_n.

    Independent oracle for transitivity of induction: sweeps GL_n and counts
    the x with x^{-1} J_lam x in UT_gamma by direct membership tests, with no
    superclass machinery involved.
    """
    n = gamma.size
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


@lru_cache(maxsize=None)
def centralizer_orders(n: int, q: int) -> dict[Partition, int]:
    """|C_{GL_n}(J_lam)| for every lam |- n, by one exhaustive enumeration of GL_n."""
    targets = {lam: jordan(lam) for lam in gen_partitions(n)}
    out = dict.fromkeys(targets, 0)
    for x in gl_matrices(n, q):
        for lam, g in targets.items():
            if mat_mul(x, g, q) == mat_mul(g, x, q):
                out[lam] += 1
    return out


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


def induction_table(n: int, q: int) -> dict[Partition, tuple[int, ...]]:
    """The induction table from one sweep of UT_n, through the tuple kernels: for
    each Jordan type, how many u have it, per graph of gen_dyck(n)."""
    raw: dict[Partition, Counter] = {lam: Counter() for lam in gen_partitions(n)}
    for u in ut_rows(n, q):
        raw[jordan_type(u, q)][path_of_graph(n, label_edges(u, n))] += 1
    graphs = gen_dyck(n)
    return {lam: tuple(labs[g] for g in graphs) for lam, labs in raw.items()}
