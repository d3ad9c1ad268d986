"""Engine over F_q: UT_n enumeration, superclass functions, pseudosupercharacters,
induction to GL_n, and counts of UT_gamma cosets and of Hessenberg points.

q is restricted to primes <= 7.  An n x n matrix over F_q is one int with
entry (i, j) in byte i*n + j, and one packed kernel, `_Packed`, computes on
them.  A product is n big-int multiplies of a column by a row, and
bytes.translate reduces the result mod q or reads off its zero pattern.  No
byte carries while n(q-1)^2 < 256; past that the kernel raises, and nothing
that the guards admit comes near it.

Superclasses are indifference graphs, each indexed by its Dyck path and read as
the path's Hessenberg function h ({i, l} an edge iff h_l < i < l): element
labels, fixed cosets and class functions are all read off h, the last as signed
sums of upsets in one table per n, `_lattice`.  A tall path carries (h, D), h
that of Area u Diag and D its Diag columns, a Dyck path with D empty; the class
functions read them there and build no edge set.

One kernel counts on GL_n, and builds no flag: `_hessenberg_counts` solves for
the Hessenberg counts of every Dyck path of size n from those at smaller sizes,
a triangular system by Harish-Chandra restriction, once per (n, q), refused past
guards.MAX_SWEEP restricted pairs (h, S).  A Hessenberg count is one entry of
that table.  psi^sigma is a signed sum of 2^|D| indicators of pattern groups
UT_h, and its induction to GL_n is (q-1)^n times the same sum of the counts at
h: no class function of UT_n is built for it.
`induction_table`, the elements of UT_n by Jordan type and label, is the one
brute-force sweep, check_hess's left side.  The cosets of UT_gamma fixed by a
superclass are a product over columns of q to the corank of a system whose
columns are prefixes of the rows, so its ranks are counts of distinct h_c,
once per n for every q.  The sweeps, eliminations and the Springer walk that
these counts replaced are the oracles of the tests, and so is the induction of
any class function, the walk's tally dotted with it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, product, zip_longest
from math import comb, prod
from operator import itemgetter
from typing import Iterable, Iterator

from .combinatorics import (
    Frozen,
    Partition,
    SchroderPath,
    _between,
    _corners,
    _partitions,
    gen_dyck,
    nstat,
    transpose,
)
from .guards import require, require_power, require_sweep

PRIMES = (2, 3, 5, 7)


def _check_q(q: int) -> None:
    require(q in PRIMES, f"q = {q} must be a prime in {PRIMES}")


# ---------------------------------------------------------------------------
# matrices over F_q
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _field(q: int) -> tuple[tuple[int, ...], bytes, bytes]:
    """Inverses mod q, and the byte tables v -> v % q and v -> (v % q == 0)."""
    return (tuple(pow(a, q - 2, q) if a else 0 for a in range(q)),
            bytes(v % q for v in range(256)), bytes(v % q == 0 for v in range(256)))


def _zero_mask(m: int, size: int, q: int) -> int:
    """Zero pattern of a packed matrix with `size` entries over F_q: bit 8(i*n + j)
    set iff entry (i, j) is 0 mod q."""
    return int.from_bytes(m.to_bytes(size, "little").translate(_field(q)[2]), "little")


class _Packed:
    """n x n matrices over F_q packed into ints, entry (i, j) in byte i*n + j.

    Row k of a matrix m is m >> 8kn & row (bytes 0..n-1); column k is
    m >> 8k & col (bytes i*n).  So a.b is the sum over k of column k of a times
    row k of b: no two of these products share a byte, and each byte of the
    sum is an integer entry of a.b, at most n(q-1)^2.  While that is below 256
    no byte carries into the next, and one bytes.translate reduces every entry
    mod q, or marks the zero ones.  A row operation r + c.p over F_q reaches
    only q(q-1) in a byte and is reduced the same way.
    """

    __slots__ = ("n", "q", "inv", "mod", "row", "col", "one", "lower")

    def __init__(self, n: int, q: int):
        if n * (q - 1) ** 2 > 255:
            raise OverflowError(f"packed products of {n} x {n} matrices over F_{q} would carry "
                                f"between bytes: n(q-1)^2 = {n * (q - 1) ** 2} > 255")
        self.n, self.q = n, q
        self.inv, self.mod, _ = _field(q)
        self.row = (1 << 8 * n) - 1
        self.col = sum(255 << 8 * i * n for i in range(n))
        self.one = sum(1 << 8 * i * (n + 1) for i in range(n))
        self.lower = sum(255 << 8 * (i * n + j) for i in range(n) for j in range(i + 1))

    def reduce(self, m: int, size: int) -> int:
        """m with each of its `size` bytes reduced mod q."""
        return int.from_bytes(m.to_bytes(size, "little").translate(self.mod), "little")

    def unpack(self, m: int) -> tuple[tuple[int, ...], ...]:
        """The rows of m, for error messages."""
        n = self.n
        b = m.to_bytes(n * n, "little")
        return tuple(tuple(b[i * n:(i + 1) * n]) for i in range(n))

    def mul(self, a: int, b: int) -> int:
        n, row, col = self.n, self.row, self.col
        return self.reduce(sum((a >> 8 * k & col) * (b >> 8 * k * n & row) for k in range(n)),
                           n * n)

    def rank(self, m: int) -> int:
        """Rank of m: the pivots of its row reduction, the last row first.  Each
        nonzero row pivots on its lowest nonzero byte and clears that byte from
        the rows before it."""
        q, inv, mod, n = self.q, self.inv, self.mod, self.n
        rows, rank = [r for k in range(n) if (r := m >> 8 * k * n & self.row)], 0
        while rows:
            p = rows.pop()
            if p:
                sh = (p & -p).bit_length() - 1 & ~7
                f = q - inv[p >> sh & 255]
                rows = [int.from_bytes((r + (v * f % q) * p).to_bytes(n, "little").translate(mod),
                                       "little") if (v := r >> sh & 255) else r for r in rows]
                rank += 1
        return rank

    def jordan_type(self, u: int) -> Partition:
        """Jordan type of a unipotent u: rank (u-1)^{k-1} - rank (u-1)^k parts have size >= k.

        (u-1)^n = 0 for unipotent u, so at most n + 1 ranks are read; ValueError
        if they do not reach 0 or their differences are no partition of n.  When
        u - 1 is strictly upper triangular it is nilpotent, and once a rank is 1
        or one below the last, the ranks after it fall by 1 to 0 unread.
        """
        n, q = self.n, self.q
        nil = power = self.reduce(u + (q - 1) * self.one, n * n)
        upper = not nil & self.lower
        ranks = [n]
        while ranks[-1] and len(ranks) <= n:
            ranks.append(self.rank(power))
            if upper and (ranks[-1] == 1 or ranks[-2] - ranks[-1] == 1):
                ranks += range(ranks[-1] - 1, -1, -1)
            elif ranks[-1]:
                power = self.mul(power, nil)
        conj = [a - b for a, b in zip(ranks, ranks[1:])]
        if ranks[-1] or any(a < b for a, b in zip(conj, conj[1:])) or conj and conj[-1] < 1:
            raise ValueError(f"{self.unpack(u)} is not unipotent over F_{q}: "
                             f"ranks of (u-1)^k are {ranks}")
        return tuple(sum(1 for c in conj if c >= i) for i in range(1, conj[0] + 1)) if conj else ()


# ---------------------------------------------------------------------------
# group orders and enumeration
# ---------------------------------------------------------------------------

def ut_order(n: int, q: int) -> int:
    return q ** (n * (n - 1) // 2)


def ut_elements(n: int, q: int) -> Iterator[int]:
    """All elements of UT_n(F_q), packed: the identity plus each choice of the
    entries above the diagonal, row by row, in the order of itertools.product.
    Refused past MAX_SWEEP on the call, before the generator is made."""
    _check_q(q)
    require_power(f"UT_{n}(F_{q})", q, n * (n - 1) // 2)
    one = sum(1 << 8 * i * (n + 1) for i in range(n))
    places = [[v << 8 * (i * n + j) for v in range(q)] for i in range(n) for j in range(i + 1, n)]
    return (one + sum(vals) for vals in product(*places))


# ---------------------------------------------------------------------------
# superclasses
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lattice(n: int) -> tuple[tuple[tuple[int, ...], ...], dict, tuple[tuple[int, ...], ...]]:
    """The h of each Dyck path of size n in the order of gen_dyck(n), the
    position of each h, and the upset of each position: the positions of the
    graphs that contain its graph, every nondecreasing x <= h (Stanley, EC1 3.9)."""
    hs = tuple(pi.h for pi in gen_dyck(n))  # refused past MAX_PATH_N
    pos = {h: i for i, h in enumerate(hs)}
    return hs, pos, tuple(tuple(pos[x] for x in _between((0,) * n, h)) for h in hs)


def _label(zeros: int, n: int) -> tuple[int, ...]:
    """The Hessenberg function h of the finest label of u, from its zero mask (bit
    8(i*n + j) set iff u[i, j] = 0).  {i, l} is in the label iff u[j, k] = 0 for
    i <= j < k <= l, that is iff i > h_l: h_1 = 0, and h_l is the larger of
    h_{l-1} and the last row i < l with u[i, l] != 0."""
    h, out = 0, []
    for l in range(n):
        for i in range(l - 1, h - 1, -1):  # rows h+1..l-1 of column l, 1-based
            if not zeros >> 8 * (i * n + l) & 1:
                h = i + 1
                break
        out.append(h)
    return tuple(out)


def superclass_sizes(n: int, q: int) -> dict[SchroderPath, int]:
    """|UT_gamma^o| for the graph gamma of every Dyck path of size n, the u labeled h:
    by `_label`'s recurrence, column j is 0 below row h_j, free above it, and
    nonzero at h_j if h_j > h_{j-1}."""
    _check_q(q)
    return {pi: prod((q - 1) * q ** (x - 1) if x > y else q ** x for x, y in zip(pi.h, (0,) + pi.h))
            for pi in gen_dyck(n)}  # refused past MAX_PATH_N


# ---------------------------------------------------------------------------
# class functions
# ---------------------------------------------------------------------------

class _ClassFn(Frozen):
    """A class function as a tuple of ints, one per key of the subclass's
    listing `_keys(n)`, in that order; calling it finds the key's position
    there.  It is a value, built from its tuple: the checks compare class
    functions and never add them."""

    __slots__ = _fields = ("n", "q", "values")
    n: int
    q: int
    values: tuple[int, ...]

    def __init__(self, n: int, q: int, values: tuple[int, ...]):
        if type(values) is not tuple or len(values) != len(self._keys(n)):
            raise ValueError(f"{type(self).__name__} values must be a tuple with one entry "
                             f"per index at n = {n}")
        if not all(type(v) is int for v in values):
            raise TypeError(f"{type(self).__name__} values must be ints, got {values}")
        self._set(n, q, values)

    def __call__(self, key) -> int:
        return self.values[self._keys(self.n).index(key)]

    def items(self) -> Iterator[tuple]:
        return zip(self._keys(self.n), self.values)

    def __str__(self) -> str:
        """The nonzero values, as a dict from each key's text to the value's."""
        return str({str(key): str(v) for key, v in self.items() if v})


class ClassFnUT(_ClassFn):
    """Superclass function of UT_n(F_q): one value per indifference graph, keyed by
    its Dyck path, in the order of gen_dyck(n)."""

    __slots__ = ()
    _keys = staticmethod(gen_dyck)


class UnipClassFn(_ClassFn):
    """Unipotently supported class function of GL_n(F_q): one value per Jordan
    type, in the order of gen_partitions(n)."""

    __slots__ = ()
    _keys = staticmethod(_partitions)


def _upset_sum(n: int, q: int, terms: Iterable[tuple[tuple[int, ...], int]]) -> ClassFnUT:
    """sum of c * (indicator of the graphs containing the graph of h) over (h, c) in terms."""
    _, pos, upsets = _lattice(n)
    acc = [0] * len(pos)
    for h, c in terms:
        for i in upsets[pos[h]]:
            acc[i] += c
    return ClassFnUT(n, q, tuple(acc))


def _lowered(h: tuple[int, ...], cols: Iterable[int], q: int) -> list[tuple[tuple[int, ...], int]]:
    """(h + 1_T, (-1)^{|T|} q^{|E| - |T|}) for each set T of the columns cols: the
    graph of h less the top edge of each column of T, and its signed chi_bar degree."""
    out = [(h, q ** sum(j - x for j, x in enumerate(h)))]
    for j in cols:
        out += [(x[:j] + (x[j] + 1,) + x[j + 1:], -c // q) for x, c in out]
    return out


def chi_super(pi: SchroderPath, q: int) -> ClassFnUT:
    """Supercharacter attached to the graph gamma of a Dyck path, the Moebius
    inversion of chi_bar: sum of mu(sigma, gamma) chi_bar(sigma) over sigma <= gamma.

    mu(sigma, gamma) = (-1)^{|S|} when sigma is gamma less a set S of its
    corners, and 0 otherwise (Stanley, EC1 3.9), so the sum has
    2^{#corners} <= 2^{n-1} terms, h(gamma) moved up by 1 in the columns of S."""
    _check_q(q)
    _lattice(pi.size)  # refused past MAX_PATH_N, before the 2^{#corners} terms are built
    return _upset_sum(pi.size, q, _lowered(pi.h, _corners(pi.h), q))


def psi_pseudo(sigma: SchroderPath, q: int) -> ClassFnUT:
    """Pseudosupercharacter: signed inclusion-exclusion of chi_bar over Diag subsets.

    A tall path (h, D) has at most one Diag cell per column, its top cell in
    Area u Diag, so Area u S is h moved up by 1 in the columns of D - S.  At
    D empty, a Dyck path of the graph gamma, it is chi_bar^gamma, the permutation
    character of UT_n on UT_n/UT_gamma: q^{|E|} times the indicator of UT_gamma."""
    n = sigma.size
    _check_q(q)
    pos = _lattice(n)[1]  # refused past MAX_PATH_N, before the 2^|Diag| terms are built
    terms = _lowered(sigma.h, sigma.D, q)
    if not all(h in pos for h, _ in terms):  # cannot happen for genuine tall paths
        raise AssertionError(f"Area u S failed interval closure for {sigma}")
    return _upset_sum(n, q, terms)


# ---------------------------------------------------------------------------
# induction to GL_n
# ---------------------------------------------------------------------------

def _centralizer_order(lam: Partition, q: int) -> int:
    """|C_GL(J_lam)| = q^{|lam| + 2n(lam)} prod_i phi_{m_i(lam)}(1/q)."""
    out = q ** (sum(lam) + 2 * nstat(lam))
    for m in Counter(lam).values():
        for k in range(1, m + 1):
            out = out * (q ** k - 1) // q ** k
    return out


@lru_cache(maxsize=None)
def induction_table(n: int, q: int) -> dict[Partition, tuple[int, ...]]:
    """For each Jordan type lam, in the order of gen_partitions(n), how many u in
    UT_n have type lam, split by superclass label: one count per position of
    _lattice(n), from one sweep of UT_n.  check_hess's brute-force side."""
    us = ut_elements(n, q)  # its guard runs first, before the kernel's carry bound
    k = _Packed(n, q)
    raw = Counter((k.jordan_type(u), _zero_mask(u, n * n, q)) for u in us)
    pos = _lattice(n)[1]
    rows = {lam: [0] * len(pos) for lam in _partitions(n)}
    for (lam, zeros), c in raw.items():
        rows[lam][pos[_label(zeros, n)]] += c
    return {lam: tuple(row) for lam, row in rows.items()}


def _q_factorial(k: int, q: int) -> int:
    """[k]_q!, the number of complete flags of F_q^k."""
    return prod((q ** i - 1) // (q - 1) for i in range(1, k + 1))


def require_restrictions(n: int, q: int) -> None:
    """Refuse, before any work, the Hessenberg counts of size n past MAX_SWEEP
    pairs (h, S), h of size k <= n and S in [k], which their recursion restricts:
    sum over k <= n of Cat(k) 2^k, read upward as _partition_count reads p."""
    _check_q(q)
    for k, total in enumerate(accumulate(comb(2 * j, j) // (j + 1) << j for j in range(n + 1))):
        require_sweep(f"the restricted pairs (h, S) of sizes up to {n}", total, at_least=k < n)


def _strip_counts(n: int, q: int) -> list[tuple[Partition, Partition, dict[Partition, int]]]:
    """For each lam != 1^n, in increasing dominance: mu, lam less the last box of
    its m rows of length lam_1, and how many X in M_{a x m}(F_q), a = n - m, give
    [[J_mu, X], [0, 1_m]] each type nu: q^{am} g^nu_{mu (1^m)}(q) |C(J_mu)| |GL_m|
    / |C(J_nu)|.  The Hall polynomial is 0 unless nu/mu is a vertical strip, and
    then q^{n(nu) - n(mu) - n(1^m)} prod_i [k_i, b_i]_q at 1/q, k_i = nu'_i -
    nu'_{i+1} and b_i = nu'_i - mu'_i (Macdonald, II (4.6)): lam is the top nu."""
    out = []
    for lam in reversed(_partitions(n)[:-1]):
        m = lam.count(lam[0])
        mu = (lam[0] - 1,) * m + lam[m:]
        orders, counts = _centralizer_order(mu, q) * _centralizer_order((1,) * m, q), {}
        for nu in _partitions(n):
            if all(0 <= x - y <= 1 for x, y in zip_longest(nu, mu, fillvalue=0)):
                conj = transpose(nu) + (0,)
                kb = [(x - y, x - z) for x, y, z in zip(conj, conj[1:], transpose(mu) + (0,) * n)]
                power = ((n - m) * m + nstat(nu) - nstat(mu) - m * (m - 1) // 2
                         - sum(b * (k - b) for k, b in kb))
                counts[nu] = q ** power * orders * prod(_q_factorial(k, q) // _q_factorial(b, q)
                                                        // _q_factorial(k - b, q) for k, b in kb)
                counts[nu] //= _centralizer_order(nu, q)
        out.append((lam, mu, counts))
    return out


@lru_cache(maxsize=None)
def _hessenberg_counts(n: int, q: int) -> list[dict[tuple[int, ...], dict[Partition, int]]]:
    """|Hess(J_lam - 1, h)| for each h of each size k <= n and lam |- k, solved
    from the sizes below.  Ind chi_bar^h (J_lam) is (q-1)^k q^{|E|} times it; its
    Harish-Chandra restriction to GL_a x GL_m at (J_mu, 1_m), the coproduct under
    Green's map (Zelevinsky, LNM 869), over (q-1)^k q^{|E|}, reads: the sum over
    nu of N_nu |Hess(J_nu - 1, h)| (`_strip_counts`) is [m]_q! times the sum over
    the a-subsets S of [k] of q^{am - desc(S)} |Hess(J_mu - 1, h|S)|, h|S the
    graph on S in order, desc(S) its edges u < v with u not in S, v in S.  Each
    lam is its equation's top nu: solve upward from |Hess(0, h)| = [k]_q!."""
    sizes = []
    for k in range(n + 1):
        strips, table = _strip_counts(k, q), {}
        for pi in gen_dyck(k):
            h, weights, row = pi.h, {}, {(1,) * k: _q_factorial(k, q)}
            for lam, mu, counts in strips:
                a = sum(mu)
                if a not in weights:  # h|S and am - desc(S) for each a-subset S
                    weights[a] = [(tuple(bisect_left(S, h[v]) for v in S), a * (k - a)
                                   - sum(u not in S for v in S for u in range(h[v], v)))
                                  for S in combinations(range(k), a)]
                rhs = _q_factorial(k - a, q) * sum(q ** e * sizes[a][x][mu] for x, e in weights[a])
                rhs -= sum(c * row[nu] for nu, c in counts.items() if nu != lam)
                row[lam] = rhs // counts[lam]
            table[h] = row
        sizes.append(table)
    return sizes


def hessenberg_count(pi: SchroderPath, lam: Partition, q: int) -> int:
    """Number of flags gB with g^{-1} a g strictly upper and zero at the edges of
    gamma, the graph of a Dyck path, for a nilpotent a over F_q with 1 + a of
    Jordan type lam: a V_j in V_{h_j} for every j, h = pi.h.  g -> x g maps the
    flags of a onto those of x^{-1} a x, so every such a reads the count of
    J_lam - 1."""
    n = pi.size
    require_restrictions(n, q)  # before any matrix is built
    if lam not in _partitions(n):
        raise ValueError(f"Jordan type {lam} is not a partition of n = {n}")
    return _hessenberg_counts(n, q)[n][pi.h][lam]


def induce_to_GL(sigma: SchroderPath, q: int) -> UnipClassFn:
    """Induction of psi^sigma from UT_n to GL_n, recorded on unipotent classes only:
    value at J_lam is (1/|UT_n|) sum over x in GL_n with x^{-1} J_lam x in UT_n
    of psi^sigma at the superclass of the conjugate.  psi^sigma sums c times the
    indicator of UT_h over `_lowered`'s terms (h, c), c carrying q^{|E(h)|}, and
    the x with x^{-1} J_lam x in UT_h are the |B_n| = (q-1)^n |UT_n| elements of
    each flag xB_n in Hess(J_lam - 1, h): each term induces to c (q-1)^n times
    the Hessenberg count."""
    n = sigma.size
    require_restrictions(n, q)  # before the 2^|D| terms are built
    counts, terms = _hessenberg_counts(n, q)[n], _lowered(sigma.h, sigma.D, q)
    return UnipClassFn(n, q, tuple((q - 1) ** n * sum(c * counts[h][lam] for h, c in terms)
                                   for lam in _partitions(n)))


# ---------------------------------------------------------------------------
# UT_gamma cosets by linear algebra, and a matrix's Jordan type
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _column_ranks(n: int) -> tuple[tuple[int | None, ...], ...]:
    """For the superclass representative a = u - 1 of each delta, in the order of
    gen_dyck(n), and each column j and m < j in turn: the rank of
    rows m+1..j-1 of the first j-1 columns of a, or None when column j's rows
    m+1..j-1 are not in their span.  a is 1 at every non-edge above the
    diagonal, so column c of a is 1 on rows 1..h_c and 0 below, h the Hessenberg
    function of delta.  On rows m+1..j-1 the columns c < j with h_c > m are
    distinct prefixes for distinct h_c, and the others are 0: the rank is the
    number of distinct such h_c, and column j, a prefix if h_j > m, is in their
    span iff h_j <= m or h_j = h_{j-1}.  So neither depends on the field."""
    return tuple(tuple(len({c for c in h[:j] if c > m}) if h[j] <= m or h[j] == h[j - 1]
                       else None for j in range(n) for m in range(j + 1))
                 for h in _lattice(n)[0])  # refused past MAX_PATH_N


def permutation_character_oracle(pi: SchroderPath, q: int) -> ClassFnUT:
    """Character of UT_n acting on UT_n/UT_gamma, gamma the graph of a Dyck path,
    counted column by column.

    Independent of psi_pseudo's upset sum; used to verify it.  x UT_gamma is fixed
    by u iff x^{-1} a x lies in the pattern algebra of gamma, a = u - 1, that is
    iff a x_j lies in <e_1..e_{m_j}> for each column x_j of x.  Column j of x is
    e_j plus any w in <e_1..e_{j-1}>, and a strictly upper a makes that a linear
    system in w on rows m_j+1..j-1: q^{j-1-r_j} solutions, r_j its rank, or
    none.  So u fixes q^{|E| - sum r_j} cosets, or none; the ranks are read
    once per n by _column_ranks.
    """
    _check_q(q)
    cells = [j * (j + 1) // 2 + m for j, m in enumerate(pi.h)]
    edges = sum(j - m for j, m in enumerate(pi.h))
    # itemgetter returns a tuple from two keys on; n = 0 and n = 1 have fewer
    read = itemgetter(*cells) if len(cells) > 1 else lambda ranks: [ranks[c] for c in cells]
    return ClassFnUT(pi.size, q, tuple(0 if None in rs else q ** (edges - sum(rs))
                                       for rs in map(read, _column_ranks(pi.size))))


def nilpotent_type(digits: str, n: int, q: int) -> Partition:
    """The Jordan type of 1 + a, for the n x n matrix a over F_q whose entries,
    row by row, are the ASCII digits of `digits` (the CLI's --matrix).
    ValueError on any other string, on a digit >= q, or unless a is nilpotent."""
    _check_q(q)
    vals = ["0123456789".find(c) for c in digits]  # -1 for any other character
    if len(vals) != n * n or -1 in vals:
        raise ValueError(f"--matrix needs {n * n} digits 0..{q - 1}, got {digits!r}")
    if max(vals, default=0) >= q:
        raise ValueError(f"digits of {digits!r} must be below q = {q}")
    k = _Packed(n, q)
    a = int.from_bytes(bytes(vals), "little")
    try:
        return k.jordan_type(k.reduce(a + k.one, n * n))
    except ValueError:
        raise ValueError(f"hessenberg_count expects a nilpotent matrix, "
                         f"got {k.unpack(a)}") from None

