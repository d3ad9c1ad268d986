"""Partitions, lattice paths, indifference graphs, and orientation statistics.

Conventions:
  * partitions are tuples of positive ints in weakly decreasing order;
  * paths are step strings over E/S (Dyck) or E/S/D (Schroeder), going from
    (0,0) to (n,-n) weakly above the antidiagonal y = -x;
  * the unit square in column j, row i (1 <= i < j <= n) is the square with
    corners (j-1, 1-i) and (j, -i), and doubles as the edge label {i, j}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

from .guards import require

Edge = tuple[int, int]
Partition = tuple[int, ...]

MAX_PARTITION_N = 12
MAX_PATH_N = 8


def _check_size(name: str, n: int, bound: int) -> None:
    """A negative n is a usage error; one past the bound trips the size guard."""
    if n < 0:
        raise ValueError(f"{name}: n = {n} must be >= 0")
    require(n <= bound, f"{name}: n = {n} exceeds guard {bound}")


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def gen_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order: (n) first, (1^n) last."""
    _check_size("gen_partitions", n, MAX_PARTITION_N)
    out: list[Partition] = []

    def rec(rest: int, maxpart: int, prefix: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(prefix)
            return
        for k in range(min(rest, maxpart), 0, -1):
            rec(rest - k, k, prefix + (k,))

    rec(n, n if n else 1, ())
    return out


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


def transpose(lam: Partition) -> Partition:
    """Conjugate partition."""
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= i) for i in range(1, lam[0] + 1))


def nstat(lam: Partition) -> int:
    """n(lambda) = sum of binom(lambda'_i, 2); equals sum (i-1)*lambda_i."""
    return sum(comb(c, 2) for c in transpose(lam))


def zlam(lam: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type lambda."""
    z = 1
    for k in set(lam):
        m = lam.count(k)
        z *= k ** m
        for i in range(1, m + 1):
            z *= i
    return z


# ---------------------------------------------------------------------------
# lattice paths
# ---------------------------------------------------------------------------

def _walk(steps: str) -> Iterator[tuple[str, int, int]]:
    """Yield (step, x, y) with (x, y) the point where the step starts."""
    x = y = 0
    for s in steps:
        yield s, x, y
        if s == "E":
            x += 1
        elif s == "S":
            y -= 1
        elif s == "D":
            x += 1
            y -= 1
        else:
            raise ValueError(f"bad step {s!r}")


@dataclass(frozen=True)
class DyckPath:
    steps: str

    def __post_init__(self):
        for s, x, y in _walk(self.steps):
            if s not in "ES":
                raise ValueError(f"Dyck path steps must be E/S, got {s!r}")
            if s == "S" and y - 1 < -x:
                raise ValueError(f"path {self.steps!r} goes below the diagonal")
        n = self.steps.count("E")
        if self.steps.count("S") != n:
            raise ValueError(f"path {self.steps!r} is unbalanced")

    @property
    def size(self) -> int:
        return self.steps.count("E")

    def as_schroder(self) -> "SchroderPath":
        return SchroderPath(self.steps)

    def __str__(self) -> str:
        return self.steps


@dataclass(frozen=True)
class SchroderPath:
    steps: str

    def __post_init__(self):
        for s, x, y in _walk(self.steps):
            if s == "S" and y - 1 < -x:
                raise ValueError(f"path {self.steps!r} goes below the diagonal")
            if s == "D" and y - 1 < -(x + 1):
                raise ValueError(f"path {self.steps!r} goes below the diagonal")
        n = self.steps.count("E") + self.steps.count("D")
        if self.steps.count("S") + self.steps.count("D") != n:
            raise ValueError(f"path {self.steps!r} is unbalanced")

    @property
    def size(self) -> int:
        return self.steps.count("E") + self.steps.count("D")

    @property
    def is_tall(self) -> bool:
        return all(not (s == "D" and y == -x) for s, x, y in _walk(self.steps))

    def __str__(self) -> str:
        return self.steps


@lru_cache(maxsize=None)
def gen_dyck(n: int) -> tuple[DyckPath, ...]:
    """All Dyck paths of size n (Catalan many), lexicographic in the step string."""
    _check_size("gen_dyck", n, MAX_PATH_N)
    out: list[DyckPath] = []

    def rec(prefix: str, x: int, y: int) -> None:
        if x == n and y == -n:
            out.append(DyckPath(prefix))
            return
        if x < n:
            rec(prefix + "E", x + 1, y)
        if y - 1 >= -x:
            rec(prefix + "S", x, y - 1)
    rec("", 0, 0)
    return tuple(sorted(out, key=lambda p: p.steps))


@lru_cache(maxsize=None)
def gen_tall_schroder(n: int) -> tuple[SchroderPath, ...]:
    """All tall Schroeder paths of size n (small Schroeder many)."""
    _check_size("gen_tall_schroder", n, MAX_PATH_N)
    out: list[SchroderPath] = []

    def rec(prefix: str, x: int, y: int) -> None:
        if x == n and y == -n:
            out.append(SchroderPath(prefix))
            return
        if x < n and y > -x:  # tall: no D step may start on the diagonal
            rec(prefix + "D", x + 1, y - 1)
        if x < n:
            rec(prefix + "E", x + 1, y)
        if y - 1 >= -x:
            rec(prefix + "S", x, y - 1)

    rec("", 0, 0)
    return tuple(sorted(out, key=lambda p: p.steps))


def area(sigma: SchroderPath | DyckPath) -> frozenset[Edge]:
    """Edge labels of unit squares lying completely below the path."""
    if isinstance(sigma, DyckPath):
        sigma = sigma.as_schroder()
    if not sigma.is_tall:
        raise ValueError("area/diag are defined here for tall paths only")
    edges = set()
    for s, x, y in _walk(sigma.steps):
        j = x + 1
        if s == "E":
            top = 1 - y           # highest row strictly below the path in column j
        elif s == "D":
            top = 2 - y           # row 1-y is crossed by the D step itself
        else:
            continue
        for i in range(top, j):
            edges.add((i, j))
    return frozenset(edges)


def diag(sigma: SchroderPath) -> frozenset[Edge]:
    """Edge labels of unit squares crossed by diagonal steps."""
    if not sigma.is_tall:
        raise ValueError("area/diag are defined here for tall paths only")
    return frozenset((1 - y, x + 1) for s, x, y in _walk(sigma.steps) if s == "D")


# ---------------------------------------------------------------------------
# indifference graphs
# ---------------------------------------------------------------------------

def is_indifference(edges: Iterable[Edge], n: int) -> bool:
    """Interval closure: {i,l} present forces all {j,k} with i <= j < k <= l."""
    es = {tuple(sorted(e)) for e in edges}
    for i, l in es:
        if not (1 <= i < l <= n):
            return False
    return all((j, k) in es for i, l in es for j in range(i, l + 1) for k in range(j + 1, l + 1))


@dataclass(frozen=True)
class IndiffGraph:
    """Graph on [n] whose edge set is closed under intervals."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(tuple(sorted(e)) for e in self.edges))
        if not is_indifference(self.edges, self.n):
            raise ValueError(f"edge set {sorted(self.edges)} on [{self.n}] is not interval-closed")

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __le__(self, other: "IndiffGraph") -> bool:
        return self.n == other.n and self.edges <= other.edges

    def __str__(self) -> str:
        return f"IG(n={self.n}, edges={self.sorted_edges()})"

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @staticmethod
    def from_json(obj) -> "IndiffGraph":
        """Parse {"n": n, "edges": [[i, j], ...]}; ValueError on any other shape."""
        if not isinstance(obj, dict) or not {"n", "edges"} <= obj.keys():
            raise ValueError('graph JSON must be an object with keys "n" and "edges"')
        n, edges = obj["n"], obj["edges"]
        if not _is_int(n) or n < 1:
            raise ValueError(f'graph JSON: "n" must be an integer >= 1, got {n!r}')
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges):
            raise ValueError(f'graph JSON: "edges" must be a list of integer pairs, got {edges!r}')
        return IndiffGraph(n, frozenset(tuple(e) for e in edges))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_of(pi: DyckPath) -> IndiffGraph:
    """The indifference graph on [n] with edge set the area of the path."""
    return IndiffGraph(pi.size, area(pi))


def area_inverse(edges: Iterable[Edge], n: int) -> DyckPath:
    """The unique Dyck path of size n whose area is the given indifference edge set."""
    es = {tuple(sorted(e)) for e in edges}
    if not is_indifference(es, n):
        raise ValueError(f"{sorted(es)} is not an indifference edge set on [{n}]")
    steps = []
    prev_y = 0
    for j in range(1, n + 1):
        tops = [i for i, jj in es if jj == j]
        y = 1 - min(tops) if tops else 1 - j
        steps.append("S" * (prev_y - y))
        steps.append("E")
        prev_y = y
    steps.append("S" * (prev_y + n))
    return DyckPath("".join(steps))


@lru_cache(maxsize=None)
def indifference_graphs(n: int) -> tuple[IndiffGraph, ...]:
    """All indifference graphs on [n], generated through the Dyck path bijection."""
    return tuple(graph_of(pi) for pi in gen_dyck(n))


def mesa(pi: DyckPath) -> SchroderPath:
    """Contract each tall peak ES (its E starting strictly above the diagonal) to a D step."""
    steps = pi.steps
    out = []
    i = 0
    coords = list(_walk(steps))
    while i < len(steps):
        if i + 1 < len(steps) and steps[i] == "E" and steps[i + 1] == "S":
            _, x, y = coords[i]
            if y > -x:  # tall peak
                out.append("D")
                i += 2
                continue
        out.append(steps[i])
        i += 1
    return SchroderPath("".join(out))


# ---------------------------------------------------------------------------
# subgraph poset and its Moebius function
# ---------------------------------------------------------------------------

MAX_MOBIUS_EDGES = 12


def mobius_subgraph(gamma: IndiffGraph) -> dict[IndiffGraph, int]:
    """Moebius function mu(sigma, gamma) over indifference graphs sigma <= gamma.

    Computed by inverting the dense zeta matrix of the poset over Z.
    """
    require(len(gamma.edges) <= MAX_MOBIUS_EDGES,
            f"mobius_subgraph: |E| = {len(gamma.edges)} exceeds guard {MAX_MOBIUS_EDGES}")
    elems = [g for g in indifference_graphs(gamma.n) if g.edges <= gamma.edges]
    elems.sort(key=lambda g: (len(g.edges), g.sorted_edges()))
    m = len(elems)
    zeta = [[1 if elems[i].edges <= elems[j].edges else 0 for j in range(m)] for i in range(m)]
    # zeta is unitriangular in this order; invert by back substitution
    inv = [[0] * m for _ in range(m)]
    for j in range(m):
        inv[j][j] = 1
        for i in range(j - 1, -1, -1):
            s = sum(zeta[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = -s
    top = m - 1
    if elems[top] != gamma:
        raise AssertionError(f"mobius_subgraph: {gamma} is not the top of its interval")
    return {elems[i]: inv[i][top] for i in range(m)}


# ---------------------------------------------------------------------------
# orientations
# ---------------------------------------------------------------------------

MAX_ORIENT_EDGES = 16


@dataclass(frozen=True)
class Orientation:
    base: IndiffGraph
    arcs: frozenset[Edge]

    def __post_init__(self):
        undirected = frozenset(tuple(sorted(a)) for a in self.arcs)
        if undirected != self.base.edges or len(self.arcs) != len(self.base.edges):
            raise ValueError("arcs do not orient the base edge set exactly")


def orientations(gamma: IndiffGraph) -> list[Orientation]:
    """All 2^|E| orientations of gamma."""
    require(len(gamma.edges) <= MAX_ORIENT_EDGES,
            f"orientations: |E| = {len(gamma.edges)} exceeds guard {MAX_ORIENT_EDGES}")
    es = gamma.sorted_edges()
    out = []
    for choice in itertools.product((0, 1), repeat=len(es)):
        arcs = frozenset((i, j) if c == 0 else (j, i) for (i, j), c in zip(es, choice))
        out.append(Orientation(gamma, arcs))
    return out


def hrv(theta: Orientation, i: int) -> int:
    """Highest vertex reachable from i along a strictly increasing directed path."""
    seen = {i}
    stack = [i]
    succ: dict[int, list[int]] = {}
    for a, b in theta.arcs:
        if b > a:
            succ.setdefault(a, []).append(b)
    while stack:
        v = stack.pop()
        for w in succ.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return max(seen)


def type_of(theta: Orientation) -> Partition:
    """Partition of n recording the fiber sizes of the hrv map."""
    n = theta.base.n
    fibers: dict[int, int] = {}
    for i in range(1, n + 1):
        v = hrv(theta, i)
        fibers[v] = fibers.get(v, 0) + 1
    return tuple(sorted(fibers.values(), reverse=True))
