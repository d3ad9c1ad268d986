"""Partitions, lattice paths and indifference graphs.

Conventions:
  * partitions are tuples of positive ints in weakly decreasing order;
  * a path is a tall Schroeder path, one type, `SchroderPath`: a step string over
    E/S/D from (0,0) to (n,-n) weakly above the antidiagonal y = -x, with no D
    step starting on it, refused as it is read if it is not tall; it is also
    (h, D), h the Hessenberg function of Area u Diag and D its Diag columns;
  * a Dyck path is a path with no D step, and `DyckPath` reads one; it is also
    the one index of an indifference graph on [n], the graph whose edges are its
    area, {i, j} with h_j < i < j (Stanley, EC1 3.9), and `path_of_graph` reads
    one off the edges;
  * the unit square in column j, row i (1 <= i < j <= n) is the square with
    corners (j-1, 1-i) and (j, -i), and doubles as the edge label {i, j}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, count
from operator import gt
from typing import Iterable, Iterator

from .guards import require, require_sweep

Edge = tuple[int, int]
Partition = tuple[int, ...]

MAX_PATH_N = 8


class Frozen:
    """Immutable value object over the fields named in `_fields`.

    Two objects are equal when they have the same exact type and equal fields;
    the hash is that of the field tuple, taken on each call, and the repr is
    Name(field=value, ...).  A subclass names its fields in `__slots__` and
    `_fields` (which its own subclasses inherit) and sets them once, at the end of
    `__init__`, with `_set`, which also takes values derived from the fields, for
    slots outside `_fields`; it is the one writer of a slot.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values, **derived) -> None:
        for f, v in zip(self._fields, values):
            object.__setattr__(self, f, v)
        for f, v in derived.items():
            object.__setattr__(self, f, v)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _check_size(name: str, n: int, bound: int | None = None) -> None:
    """A negative n is a usage error; one past the bound trips the size guard."""
    if n < 0:
        raise ValueError(f"{name}: n = {n} must be >= 0")
    if bound is not None:
        require(n <= bound, f"{name}: n = {n} exceeds guard {bound}")


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def gen_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order: (n) first, (1^n) last."""
    return list(_partitions(n))


def _partition_counts() -> Iterator[int]:
    """p(0), p(1), ... by Euler's pentagonal-number recurrence (Andrews, The
    Theory of Partitions, 1976): p(k) = sum over j >= 1 of (-1)^(j+1) times
    p(k - j(3j-1)/2) + p(k - j(3j+1)/2), with p of a negative number 0."""
    p: list[int] = []
    for k in count():
        total, j = int(k == 0), 1
        while (g := j * (3 * j - 1) // 2) <= k:
            pair = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += pair if j % 2 else -pair
            j += 1
        p.append(total)
        yield total


def _partition_count(n: int) -> int:
    """p(n), refused past MAX_SWEEP without listing a partition.  p grows with
    n, so p(k) is read upward and the first past the bound, with k < n, names
    p(n) as at least it: a huge n costs about 47 terms."""
    _check_size("gen_partitions", n)
    for k, p in zip(range(n + 1), _partition_counts()):
        require_sweep(f"the partitions of {n}", p, at_least=k < n)
    return p


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    """The partitions of n in the order of gen_partitions, built once per n,
    and refused on _partition_count(n) before any is built."""
    _partition_count(n)
    out: list[Partition] = []

    def rec(rest: int, maxpart: int, prefix: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(prefix)
            return
        for k in range(min(rest, maxpart), 0, -1):
            rec(rest - k, k, prefix + (k,))

    rec(n, n, ())
    return tuple(out)


def transpose(lam: Partition) -> Partition:
    """Conjugate partition."""
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= i) for i in range(1, lam[0] + 1))


def nstat(lam: Partition) -> int:
    """n(lambda) = sum (i-1)*lambda_i, which equals the sum of binom(lambda'_i, 2)."""
    return sum(i * k for i, k in enumerate(lam))


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


def _trace(steps: str) -> dict:
    """Validate a tall path in one walk and return what the walk reads off it: its
    size and (h, D): the step of column j starts at height -h_j, and D lists the
    columns, from 0, of D steps.  A path with a D step that starts on the diagonal
    is not tall and is refused."""
    h, cols = [], []
    for s, x, y in _walk(steps):
        if s in "SD" and y - 1 < -x - (s == "D"):
            raise ValueError(f"path {steps!r} goes below the diagonal")
        if s != "S":
            h.append(-y)
            if s == "D":
                cols.append(x)
    n = len(h)
    if steps.count("S") + len(cols) != n:
        raise ValueError(f"path {steps!r} is unbalanced")
    if not all(h[j] < j for j in cols):
        raise ValueError(f"{steps!r} is not a tall path")
    return {"size": n, "h": tuple(h), "D": tuple(cols)}


class SchroderPath(Frozen):
    """A tall Schroeder path, as its step string; its size and (h, D) are read off
    once, by the walk that validates it, and are not fields, so the hash is that
    of (steps,)."""

    __slots__ = ("steps", "size", "h", "D")
    _fields = ("steps",)
    steps: str
    size: int
    h: tuple[int, ...]
    D: tuple[int, ...]

    def __init__(self, steps: str):
        self._set(steps, **_trace(steps))

    def __str__(self) -> str:
        return self.steps


def DyckPath(steps: str) -> SchroderPath:
    """The tall path of these steps, once its first step that is not E or S is refused."""
    bad = next((s for s in steps if s not in "ES"), None)
    if bad is not None:
        raise ValueError(f"Dyck path steps must be E/S, got {bad!r}")
    return SchroderPath(steps)


def _between(lo: tuple[int, ...], hi: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every nondecreasing x with lo <= x <= hi, column by column, in lexicographic
    order: a Hessenberg function if hi_j <= j."""
    xs = [()]
    for a, b in zip(lo, hi):
        xs = [x + (v,) for x in xs for v in range(max(x[-1:] + (a,)), b + 1)]
    return xs


def _corners(h: tuple[int, ...]) -> list[int]:
    """The columns j, from 0, whose top edge is a corner: column j has an edge
    (h_j < j), and column j + 1 none in its row (h_{j+1} > h_j), or j is last."""
    return [j for j, (x, y) in enumerate(zip(h, h[1:] + (len(h),))) if x < j and x < y]


def _tall_path(h: tuple[int, ...], D: tuple[int, ...] = ()) -> str:
    """The step string of the tall path (h, D), a Dyck path when D is empty: the
    step of column j starts at height -h_j, so S^(h_j - h_{j-1} - [j-1 in D])
    comes before it, D for j in D and E otherwise."""
    out, low = [], 0
    for j, x in enumerate(h):
        out.append("S" * (x - low) + ("D" if j in D else "E"))
        low = x + (j in D)
    return "".join(out) + "S" * (len(h) - low)


@lru_cache(maxsize=None)
def gen_dyck(n: int) -> tuple[SchroderPath, ...]:
    """All Dyck paths of size n (Catalan many), one per Hessenberg function h:
    h in lexicographic order gives the step strings in lexicographic order."""
    _check_size("gen_dyck", n, MAX_PATH_N)
    return tuple(DyckPath(_tall_path(h)) for h in _between((0,) * n, tuple(range(n))))


@lru_cache(maxsize=None)
def gen_tall_schroder(n: int) -> tuple[SchroderPath, ...]:
    """All tall Schroeder paths of size n (small Schroeder many), one per
    Hessenberg function h and set D of its corners, in lexicographic order."""
    _check_size("gen_tall_schroder", n, MAX_PATH_N)
    steps = [_tall_path(h, D) for h in _between((0,) * n, tuple(range(n)))
             for k in range(n + 1) for D in combinations(_corners(h), k)]
    return tuple(map(SchroderPath, sorted(steps)))


def area(sigma: SchroderPath) -> frozenset[Edge]:
    """Edge labels of unit squares lying completely below the path: {i, j} with
    h_j < i < j, less {h_j + 1, j} in each Diag column j."""
    return frozenset((i, j + 1) for j, x in enumerate(sigma.h)
                     for i in range(x + 1 + (j in sigma.D), j + 1))


def diag(sigma: SchroderPath) -> frozenset[Edge]:
    """Edge labels of unit squares crossed by diagonal steps: {h_j + 1, j} in each Diag column j."""
    return frozenset((sigma.h[j] + 1, j + 1) for j in sigma.D)


def path_of_graph(n: int, edges: Iterable[Edge]) -> SchroderPath:
    """The Dyck path of the indifference graph on [n] with these edges, each a pair
    in either order, refused if an edge is a loop or has an end outside [n], and
    then if the edges are not closed under intervals.  h_j is the least i with
    {i, j} an edge, less 1, or j - 1 when column j has none: the edges are closed
    exactly when they fill every column above its h_j and h is nondecreasing."""
    es = frozenset(tuple(sorted(e)) for e in edges)
    bad = min((e for e in es if not 1 <= e[0] < e[1] <= n), default=None)
    if bad is not None:
        raise ValueError(f"edge {bad} is a loop" if bad[0] == bad[1] else
                         f"edge {bad} has an end outside [{n}]")
    h = list(range(n))
    for i, j in es:
        h[j - 1] = min(h[j - 1], i - 1)
    if len(es) != sum(j - x for j, x in enumerate(h)) or any(map(gt, h, h[1:])):
        raise ValueError(f"edge set {sorted(es)} on [{n}] is not interval-closed")
    return DyckPath(_tall_path(tuple(h)))


def mesa(pi: SchroderPath) -> SchroderPath:
    """Contract each tall peak ES (its E starting strictly above the diagonal) to a D step."""
    out: list[str] = []
    for s, x, y in _walk(pi.steps):
        if s == "S" and out[-1:] == ["E"] and y > 1 - x:  # the E started at (x - 1, y)
            out[-1] = "D"
        else:
            out.append(s)
    return SchroderPath("".join(out))

