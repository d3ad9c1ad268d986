"""Brute-force engine over F_q: UT_n and GL_n enumeration, superclass
functions, pseudosupercharacters, induction to GL_n, flags, and Hessenberg
point counts.

q is restricted to primes <= 7; enumeration sizes are deliberately desk-scale.
Matrices are tuples of row tuples with entries reduced mod q.

Induction to GL_n needs only a sweep of UT_n: each element contributes the
centralizer order of its Jordan type (Frobenius formula).  The GL_n sweeps
left here are independent oracles for tests and checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Mapping

from .combinatorics import (
    IndiffGraph,
    Partition,
    SchroderPath,
    area,
    diag,
    gen_partitions,
    indifference_graphs,
    mobius_subgraph,
)
from .exactnum import Rat, _div
from .guards import require

PRIMES = (2, 3, 5, 7)
MAX_CLASSFN_N = 4
MAX_GL_ORDER = 30_000_000

Rows = tuple[tuple[int, ...], ...]


def _check_q(q: int) -> None:
    require(q in PRIMES, f"q = {q} must be a prime in {PRIMES}")


# ---------------------------------------------------------------------------
# matrices over F_q
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _inv_table(q: int) -> tuple[int, ...]:
    return tuple(pow(a, q - 2, q) if a else 0 for a in range(q))


def mat_identity(n: int) -> Rows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


@dataclass(frozen=True)
class MatrixFq:
    """Immutable matrix over F_q (q prime <= 7)."""

    q: int
    rows: Rows

    def __post_init__(self):
        _check_q(self.q)
        n = len(self.rows)
        object.__setattr__(self, "rows",
                           tuple(tuple(x % self.q for x in r) for r in self.rows))
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "MatrixFq") -> "MatrixFq":
        if self.q != other.q:
            raise AssertionError(f"cannot multiply matrices over F_{self.q} and F_{other.q}")
        return MatrixFq(self.q, mat_mul(self.rows, other.rows, self.q))

    def is_upper_unipotent(self) -> bool:
        return all(self.rows[i][j] == (1 if i == j else 0)
                   for i in range(self.n) for j in range(i + 1))

    @staticmethod
    def from_digits(s: str, n: int, q: int) -> "MatrixFq":
        if len(s) != n * n:
            raise ValueError(f"need {n * n} digits, got {len(s)}")
        vals = [int(c) for c in s]
        if any(v >= q for v in vals):
            raise ValueError(f"digits of {s!r} must be below q = {q}")
        return MatrixFq(q, tuple(tuple(vals[i * n:(i + 1) * n]) for i in range(n)))


def jordan(lam: Partition, q: int) -> MatrixFq:
    """Unipotent Jordan matrix with one block per part (1s on the superdiagonal)."""
    _check_q(q)
    if any(k <= 0 for k in lam):
        raise ValueError(f"Jordan type {lam} has a part <= 0")
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


def _jordan_pairs(lam: Partition) -> tuple[tuple[int, int], ...]:
    """0-indexed positions of the 1s of J_lam - identity."""
    out = []
    off = 0
    for k in lam:
        out.extend((off + i, off + i + 1) for i in range(k - 1))
        off += k
    return tuple(out)


# ---------------------------------------------------------------------------
# group orders and enumeration
# ---------------------------------------------------------------------------

def ut_order(n: int, q: int) -> int:
    return q ** (n * (n - 1) // 2)


def gl_order(n: int, q: int) -> int:
    qn = q ** n
    out = 1
    for i in range(n):
        out *= qn - q ** i
    return out


def flag_count(n: int, q: int) -> int:
    """Number of complete flags: the q-factorial [n]_q!."""
    out = 1
    for i in range(1, n + 1):
        out *= (q ** i - 1) // (q - 1)
    return out


def ut_elements(n: int, q: int) -> Iterator[Rows]:
    """All elements of UT_n(F_q) as row tuples."""
    pos = [(i, j) for i in range(n) for j in range(i + 1, n)]
    base = [list(r) for r in mat_identity(n)]
    for vals in product(range(q), repeat=len(pos)):
        for (i, j), v in zip(pos, vals):
            base[i][j] = v
        yield tuple(tuple(r) for r in base)


def gl_matrices(n: int, q: int) -> Iterator[Rows]:
    """Stream all of GL_n(F_q), built row by row from independent vectors."""
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


# ---------------------------------------------------------------------------
# superclasses
# ---------------------------------------------------------------------------

def _label_edges(u: Rows, n: int) -> frozenset[tuple[int, int]]:
    """Finest indifference label: {i,l} iff u[j,k] = 0 on the whole interval block."""
    allz: dict[tuple[int, int], bool] = {}
    for span in range(1, n):
        for i in range(1, n - span + 1):
            l = i + span
            ok = u[i - 1][l - 1] == 0
            if span > 1:
                ok = ok and allz[(i + 1, l)] and allz[(i, l - 1)]
            allz[(i, l)] = ok
    return frozenset(e for e, ok in allz.items() if ok)


def superclass_label(u: MatrixFq) -> IndiffGraph:
    """The superclass of a unipotent upper-triangular element."""
    if not u.is_upper_unipotent():
        raise ValueError("superclass_label needs an upper unipotent matrix")
    return IndiffGraph(u.n, _label_edges(u.rows, u.n))


def superclass_rep(gamma: IndiffGraph, q: int) -> MatrixFq:
    """A canonical element whose superclass is gamma: 1s at all non-edges above the diagonal."""
    n = gamma.n
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in gamma.edges:
                rows[i - 1][j - 1] = 1
    m = MatrixFq(q, tuple(tuple(r) for r in rows))
    if superclass_label(m).edges != gamma.edges:
        raise AssertionError(f"superclass_rep: representative of {gamma} has another label")
    return m


@lru_cache(maxsize=None)
def superclass_sizes(n: int, q: int) -> dict[IndiffGraph, int]:
    """|UT_gamma^o| for every gamma in IG_n, from the UT_n sweep of induction_table."""
    out = {g: 0 for g in indifference_graphs(n)}
    for lam, labs in induction_table(n, q).items():
        c_order = _centralizer_order(lam, q)
        for g, c in labs.items():
            out[g] += c // c_order
    return out


# ---------------------------------------------------------------------------
# class functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _graph_index(n: int) -> dict[IndiffGraph, int]:
    """Position of each indifference graph on [n] in the order of indifference_graphs(n)."""
    return {g: i for i, g in enumerate(indifference_graphs(n))}


@lru_cache(maxsize=None)
def _partition_index(n: int) -> dict[Partition, int]:
    """Position of each partition of n in the order of gen_partitions(n)."""
    return {lam: i for i, lam in enumerate(gen_partitions(n))}


@dataclass(frozen=True)
class _ClassFn:
    """A class function as a tuple of plain numbers, one per key of the
    subclass's `_index(n)`, in that order; calling it looks a key up."""

    n: int
    q: int
    values: tuple[Rat, ...]

    def __post_init__(self):
        if type(self.values) is not tuple or len(self.values) != len(self._index(self.n)):
            raise ValueError(f"{type(self).__name__} values must be a tuple with one entry "
                             f"per index at n = {self.n}; build from a mapping with from_dict")

    @classmethod
    def from_dict(cls, n: int, q: int, vals: Mapping) -> "_ClassFn":
        """The function with the given values, zero on every key not named."""
        index = cls._index(n)
        out = [0] * len(index)
        for key, v in vals.items():
            if key not in index:
                raise ValueError(f"{key} is not an index of {cls.__name__} at n = {n}")
            out[index[key]] = v
        return cls(n, q, tuple(out))

    def __call__(self, key) -> Rat:
        return self.values[self._index(self.n)[key]]

    def items(self) -> Iterator[tuple]:
        return zip(self._index(self.n), self.values)

    def __add__(self, other: "_ClassFn") -> "_ClassFn":
        if type(other) is not type(self) or (self.n, self.q) != (other.n, other.q):
            raise AssertionError("cannot add class functions of different groups")
        return type(self)(self.n, self.q, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "_ClassFn") -> "_ClassFn":
        return self + other.scale(-1)

    def scale(self, c: Rat) -> "_ClassFn":
        return type(self)(self.n, self.q, tuple(v * c for v in self.values))


class ClassFnUT(_ClassFn):
    """Superclass function of UT_n(F_q): one value per indifference graph, in
    the order of indifference_graphs(n).  The characters here hold ints."""

    _index = staticmethod(_graph_index)

    def at(self, u: MatrixFq) -> Rat:
        """Value at a group element, through its superclass label."""
        if u.q != self.q or u.n != self.n:
            raise ValueError("element lives in a different group")
        return self(superclass_label(u))


class UnipClassFn(_ClassFn):
    """Unipotently supported class function of GL_n(F_q): one value per Jordan
    type, in the order of gen_partitions(n)."""

    _index = staticmethod(_partition_index)


def _guard_classfn(n: int, q: int) -> None:
    _check_q(q)
    require(n <= MAX_CLASSFN_N, f"class functions are guarded at n <= {MAX_CLASSFN_N}, got {n}")


def _upset_sum(n: int, q: int, terms: Iterable[tuple[IndiffGraph, int]]) -> ClassFnUT:
    """sum of c * (indicator of the graphs containing gamma) over (gamma, c) in terms."""
    graphs = _graph_index(n)
    acc = [0] * len(graphs)
    for gamma, c in terms:
        e = gamma.edges
        for i, g in enumerate(graphs):
            if e <= g.edges:
                acc[i] += c
    return ClassFnUT(n, q, tuple(acc))


def delta_fn(gamma: IndiffGraph, q: int) -> ClassFnUT:
    """Indicator of the single superclass gamma."""
    _guard_classfn(gamma.n, q)
    return ClassFnUT.from_dict(gamma.n, q, {gamma: 1})


def delta_bar(gamma: IndiffGraph, q: int) -> ClassFnUT:
    """Indicator of UT_gamma: 1 on superclasses sigma with E(sigma) >= E(gamma)."""
    _guard_classfn(gamma.n, q)
    return _upset_sum(gamma.n, q, [(gamma, 1)])


def chi_bar(gamma: IndiffGraph, q: int) -> ClassFnUT:
    """Permutation character of UT_n on UT_n/UT_gamma: q^{|E|} times delta_bar."""
    _guard_classfn(gamma.n, q)
    return _upset_sum(gamma.n, q, [(gamma, q ** len(gamma.edges))])


def chi_super(gamma: IndiffGraph, q: int) -> ClassFnUT:
    """Supercharacter attached to gamma, via Moebius inversion of chi_bar."""
    _guard_classfn(gamma.n, q)
    return _upset_sum(gamma.n, q, [(sigma, mu * q ** len(sigma.edges))
                                   for sigma, mu in mobius_subgraph(gamma).items() if mu])


def psi_pseudo(sigma: SchroderPath, q: int) -> ClassFnUT:
    """Pseudosupercharacter: signed inclusion-exclusion of chi_bar over Diag subsets."""
    if not sigma.is_tall:
        raise ValueError("psi_pseudo needs a tall path")
    n = sigma.size
    _guard_classfn(n, q)
    a = area(sigma)
    d = sorted(diag(sigma))
    terms = []
    for mask in product((0, 1), repeat=len(d)):
        s = frozenset(e for e, m in zip(d, mask) if m)
        try:
            g = IndiffGraph(n, a | s)
        except ValueError as exc:  # cannot happen for genuine tall paths
            raise AssertionError(f"Area u S failed interval closure for {sigma}") from exc
        terms.append((g, (-1) ** (len(d) - len(s)) * q ** len(g.edges)))
    return _upset_sum(n, q, terms)


def inner_product_UT(phi: ClassFnUT, psi: ClassFnUT) -> Fraction:
    """Standard inner product, computed from enumerated superclass sizes."""
    if (phi.n, phi.q) != (psi.n, psi.q):
        raise ValueError("inner_product_UT needs matching (n, q)")
    sizes = superclass_sizes(phi.n, phi.q)
    total = sum(sizes[g] * v * w for (g, v), w in zip(phi.items(), psi.values))
    return Fraction(total, ut_order(phi.n, phi.q))


# ---------------------------------------------------------------------------
# induction to GL_n
# ---------------------------------------------------------------------------

def _rank(rows: Rows, q: int) -> int:
    """Rank over F_q by row reduction."""
    inv_t = _inv_table(q)
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m)):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        f = inv_t[pr[col]]
        for r in range(rank + 1, len(m)):
            c = m[r][col] * f % q
            if c:
                m[r] = [(x - c * y) % q for x, y in zip(m[r], pr)]
        rank += 1
    return rank


def _jordan_type(u: Rows, q: int) -> Partition:
    """Jordan type of a unipotent u: rank (u-1)^{k-1} - rank (u-1)^k parts have size >= k."""
    nil = mat_minus_identity(u, q)
    ranks = [len(u)]
    power = nil
    while ranks[-1]:
        ranks.append(_rank(power, q))
        power = mat_mul(power, nil, q)
    conj = [a - b for a, b in zip(ranks, ranks[1:])]
    return tuple(sum(1 for c in conj if c >= i) for i in range(1, conj[0] + 1)) if conj else ()


def _centralizer_order(lam: Partition, q: int) -> int:
    """|C_GL(J_lam)| = q^{|lam| + 2n(lam)} prod_i phi_{m_i(lam)}(1/q)."""
    out = q ** (sum(lam) + 2 * sum(i * k for i, k in enumerate(lam)))
    for m in Counter(lam).values():
        for k in range(1, m + 1):
            out = out * (q ** k - 1) // q ** k
    return out


@lru_cache(maxsize=None)
def induction_table(n: int, q: int) -> dict[Partition, dict[IndiffGraph, int]]:
    """For each Jordan type lam, how many x in GL_n put x^{-1} J_lam x into UT_n,
    split by the superclass label of the conjugate.

    Each u in UT_n of type lam is such a conjugate for exactly |C_GL(J_lam)|
    elements x, so one sweep of UT_n fills the table.
    """
    _guard_classfn(n, q)
    raw: dict[Partition, dict[frozenset, int]] = {lam: {} for lam in gen_partitions(n)}
    for u in ut_elements(n, q):
        d = raw[_jordan_type(u, q)]
        lab = _label_edges(u, n)
        d[lab] = d.get(lab, 0) + 1
    return {lam: {IndiffGraph(n, lab): c * _centralizer_order(lam, q) for lab, c in labs.items()}
            for lam, labs in raw.items()}


def induce_to_GL(phi: ClassFnUT) -> UnipClassFn:
    """Induction from UT_n to GL_n, recorded on unipotent classes only:
    value at J_lam is (1/|UT_n|) sum over x in GL_n with x^{-1} J_lam x in UT_n
    of phi at the superclass of the conjugate.
    """
    n, q = phi.n, phi.q
    index, vals = _graph_index(n), phi.values
    # induction_table is keyed in gen_partitions(n) order, the order of UnipClassFn
    order = ut_order(n, q)
    return UnipClassFn(n, q, tuple(
        _div(sum(cnt * vals[index[g]] for g, cnt in labs.items()), order)
        for labs in induction_table(n, q).values()))


def induce_trivial_from_subgroup(gamma: IndiffGraph, q: int) -> UnipClassFn:
    """One-step induction of the trivial character of UT_gamma straight to GL_n.

    Independent oracle for transitivity of induction: sweeps GL_n and counts
    cosets by direct membership tests, with no superclass machinery involved.
    """
    n = gamma.n
    _check_q(q)
    require(gl_order(n, q) <= MAX_GL_ORDER,
            f"induce_trivial_from_subgroup: |GL_{n}(F_{q})| exceeds guard {MAX_GL_ORDER}")
    # x^{-1} (J_lam - 1) x must vanish on and below the diagonal and at the edges
    zeros = [(i, j) for i in range(n) for j in range(i + 1)]
    zeros += [(i - 1, j - 1) for i, j in gamma.sorted_edges()]
    sub_order = ut_order(n, q) // q ** len(gamma.edges)
    pairs = {lam: _jordan_pairs(lam) for lam in gen_partitions(n)}
    counts = dict.fromkeys(pairs, 0)
    for x in gl_matrices(n, q):
        xi = mat_inv(x, q)
        for lam, lam_pairs in pairs.items():
            if not any(sum(xi[i][a] * x[b][j] for a, b in lam_pairs) % q for i, j in zeros):
                counts[lam] += 1
    for count in counts.values():
        if count % sub_order:
            raise AssertionError(f"{count} conjugates are not a union of UT_gamma cosets")
    return UnipClassFn.from_dict(n, q, {lam: c // sub_order for lam, c in counts.items()})


@lru_cache(maxsize=None)
def _conjugate_zero_masks(n: int, q: int) -> dict[IndiffGraph, Counter]:
    """For each superclass representative u, how many x in UT_n give x^{-1} u x
    each zero pattern above the diagonal (bit i*n + j set iff entry (i, j) is 0)."""
    reps = {g: superclass_rep(g, q).rows for g in indifference_graphs(n)}
    out = {g: Counter() for g in reps}
    for x in ut_elements(n, q):
        xi = mat_inv(x, q)
        for g, u in reps.items():
            v = mat_mul(mat_mul(xi, u, q), x, q)
            mask = sum(1 << (i * n + j) for i in range(n) for j in range(i + 1, n) if not v[i][j])
            out[g][mask] += 1
    return out


def permutation_character_oracle(gamma: IndiffGraph, q: int) -> ClassFnUT:
    """Character of UT_n acting on UT_n/UT_gamma by direct coset counting.

    Independent of the chi_bar formula; used to verify it.  x UT_gamma is fixed
    by u iff x^{-1} u x vanishes at every edge of gamma.
    """
    n = gamma.n
    _guard_classfn(n, q)
    edge_mask = sum(1 << ((i - 1) * n + j - 1) for i, j in gamma.edges)
    sub_order = ut_order(n, q) // q ** len(gamma.edges)
    vals = {}
    for g, masks in _conjugate_zero_masks(n, q).items():
        count = sum(c for mask, c in masks.items() if mask & edge_mask == edge_mask)
        if count % sub_order:
            raise AssertionError(f"{count} fixed cosets is not a multiple of {sub_order}")
        vals[g] = count // sub_order
    return ClassFnUT.from_dict(n, q, vals)


def centralizer_order(g: MatrixFq) -> int:
    """|C_{GL_n}(g)| by exhaustive enumeration (n <= 3)."""
    require(g.n <= 3, "centralizer_order is guarded at n <= 3")
    q = g.q
    count = 0
    for x in gl_matrices(g.n, q):
        if mat_mul(x, g.rows, q) == mat_mul(g.rows, x, q):
            count += 1
    return count


# ---------------------------------------------------------------------------
# flags and Hessenberg point counts
# ---------------------------------------------------------------------------

MAX_FLAG_N = 4
MAX_FLAG_Q = 3


def flag_reps(n: int, q: int) -> Iterator[Rows]:
    """Canonical coset representatives of GL_n/B_n, one per complete flag.

    Column j has its lowest nonzero entry normalized to 1 in pivot row w(j);
    entries at earlier pivot rows are cleared.  Remaining entries are free.
    """
    _check_q(q)
    for w in permutations(range(n)):
        free = [(i, j) for j in range(n) for i in range(w[j]) if i not in w[:j]]
        base = [[0] * n for _ in range(n)]
        for j in range(n):
            base[w[j]][j] = 1
        for vals in product(range(q), repeat=len(free)):
            for (i, j), v in zip(free, vals):
                base[i][j] = v
            yield tuple(tuple(r) for r in base)


def canonical_flag(g: MatrixFq) -> MatrixFq:
    """The canonical representative of the coset g B_n."""
    q = g.q
    n = g.n
    inv_t = _inv_table(q)
    cols = [list(col) for col in zip(*g.rows)] if n else []
    pivots = []
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
        pivots.append(r)
    return MatrixFq(q, tuple(zip(*[tuple(c) for c in cols])))


def is_nilpotent(a: MatrixFq) -> bool:
    p = a.rows
    for _ in range(a.n):
        p = mat_mul(p, a.rows, a.q)
    return all(x == 0 for row in p for x in row)


@lru_cache(maxsize=None)
def _hessenberg_masks(a: MatrixFq) -> Counter:
    """For the flags gB with g^{-1} a g strictly upper triangular, how many give
    each nonzero pattern above the diagonal (bit i*n + j set iff entry (i, j) is nonzero)."""
    n, q = a.n, a.q
    masks = Counter()
    for g in flag_reps(n, q):
        m = mat_mul(mat_mul(mat_inv(g, q), a.rows, q), g, q)
        if any(m[i][j] for i in range(n) for j in range(i + 1)):
            continue
        masks[sum(1 << (i * n + j) for i in range(n) for j in range(i + 1, n) if m[i][j])] += 1
    return masks


def hessenberg_count(gamma: IndiffGraph, a: MatrixFq) -> int:
    """Number of flags gB with g^{-1} a g strictly upper and zero at the edges of gamma."""
    n, q = gamma.n, a.q
    require(n <= MAX_FLAG_N and q <= MAX_FLAG_Q,
            f"hessenberg_count is guarded at n <= {MAX_FLAG_N}, q <= {MAX_FLAG_Q}")
    if a.n != n:
        raise ValueError("matrix size does not match the graph")
    if not is_nilpotent(a):
        raise ValueError("hessenberg_count expects a nilpotent matrix")
    edge_mask = sum(1 << ((i - 1) * n + j - 1) for i, j in gamma.edges)
    return sum(c for mask, c in _hessenberg_masks(a).items() if not mask & edge_mask)
