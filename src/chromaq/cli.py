"""Command-line interface.

usage:
  chromaq compute {csf|llt|as-expand|d-coeffs|e-expand} INDEX
  chromaq compute induce INDEX --q Q
  chromaq compute hess-count INDEX --q Q (--matrix DIGITS | --jordan-type PART,PART,..)
  chromaq compute superclass-sizes --n N --q Q
  chromaq verify all [--deep] [--json]
  chromaq verify {all|<check name>} [--n N] [--q Q] [--json]

INDEX is a Dyck path step string (EESESS) or a JSON graph ('{"n": 2, "edges":
[[1, 2]]}'); llt and as-expand take a tall Schroeder path (EEDSS). Options go
anywhere, as --opt VALUE or --opt=VALUE, spelt in full. compute prints JSON;
verify runs its checks in turn and prints a line per check, sorted by
(check, n, q), or JSON with --json. Exit status: 0 = success / all pass,
1 = at least one check failed, 2 = usage or size-guard error.
"""

from __future__ import annotations

import atexit
import gc
import json
import sys
from itertools import zip_longest
from types import SimpleNamespace
from typing import Callable

from .bridge import ALL_CHECKS, DEPENDENCIES, SYMBOLIC_CHECKS, CheckReport, run_check
from .chromallt import as_expansion, csf, d_coeffs, e_expansion_X, llt_vertical, require_colorings
from .combinatorics import DyckPath, SchroderPath, area, path_of_graph
from .exactnum import PoleError
from .fqoracle import (
    hessenberg_count,
    induce_to_GL,
    nilpotent_type,
    require_restrictions,
    superclass_sizes,
)

# A process that imports the CLI exits soon after. atexit hooks run before
# module teardown, so the shutdown collections then find every object frozen
# and leave its memory to the OS; stdout and stderr are still flushed after
# the hooks. Registered here, not in `main`, so an in-process caller of
# `main` keeps its collector as it was.
atexit.register(gc.freeze)


def _parse_graph(text: str, guard: Callable[[int], None]) -> SchroderPath:
    """The Dyck path of INDEX, its size admitted by the verb's guard: a step
    string, guarded once it is read, or a JSON graph {"n": n, "edges": [[i, j],
    ...]}, whose shape is checked, and whose n is guarded, before its path of 2n
    steps is built.  ValueError on any other shape."""
    text = text.strip()
    if not text.startswith("{"):
        pi = DyckPath(text)
        guard(pi.size)
        return pi
    obj = json.loads(text)
    if not isinstance(obj, dict) or not {"n", "edges"} <= obj.keys():
        raise ValueError('graph JSON must be an object with keys "n" and "edges"')
    n, edges = obj["n"], obj["edges"]
    if type(n) is not int or n < 0:  # JSON's true and false are bools, not ints
        raise ValueError(f'graph JSON: "n" must be an integer >= 0, got {n!r}')
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in edges):
        raise ValueError(f'graph JSON: "edges" must be a list of integer pairs, got {edges!r}')
    guard(n)
    return path_of_graph(n, edges)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# compute verbs
# ---------------------------------------------------------------------------

def _parse_jordan_type(text: str) -> tuple[int, ...]:
    """The parts, in any order, as a partition; '' is the empty one."""
    try:
        parts = tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"--jordan-type takes comma-separated positive integers, "
                         f"got {text!r}") from None
    if any(k <= 0 for k in parts):
        raise ValueError(f"Jordan type {parts} has a part <= 0")
    return tuple(sorted(parts, reverse=True))


# The inputs each compute verb reads; giving it any other one is a usage error.
_COMPUTE_INPUTS = {
    **dict.fromkeys(("csf", "llt", "as-expand", "d-coeffs", "e-expand"), ("index",)),
    "induce": ("index", "q"),
    "hess-count": ("index", "q", "matrix", "jordan_type"),
    "superclass-sizes": ("n", "q"),
}


def _cmd_compute(args: SimpleNamespace) -> int:
    verb = args.verb
    if verb not in _COMPUTE_INPUTS:
        got = "no verb" if verb is None else f"unknown verb {verb!r}"
        raise ValueError(f"compute: {got}; choose from {', '.join(_COMPUTE_INPUTS)}")
    unread = [name for name in ("index", "q", "n", "matrix", "jordan_type")
              if getattr(args, name) is not None and name not in _COMPUTE_INPUTS[verb]]
    if unread:
        names = ["an index" if u == "index" else "--" + u.replace("_", "-") for u in unread]
        raise ValueError(f"compute {verb} does not read {', '.join(names)}")
    if args.index is None and "index" in _COMPUTE_INPUTS[verb]:
        kind = "a tall path step string" if verb in ("llt", "as-expand") else \
            "a path step string or a JSON graph"
        raise ValueError(f"compute {verb} needs an index ({kind})")
    if args.n is not None and args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    needs = [x for x in ("n", "q") if x in _COMPUTE_INPUTS[verb]]
    if any(getattr(args, x) is None for x in needs):
        raise ValueError(f"{verb} needs {' and '.join('--' + x for x in needs)}")
    if verb == "csf":
        _emit(csf(_parse_graph(args.index, require_colorings)).to_json())
    elif verb == "llt":
        _emit(llt_vertical(SchroderPath(args.index.strip())).to_json())
    elif verb == "as-expand":
        _emit(as_expansion(SchroderPath(args.index.strip())).to_json())
    elif verb == "d-coeffs":
        d = d_coeffs(_parse_graph(args.index, require_colorings))
        items = [{"partition": list(lam), "value": str(v)} for lam, v in sorted(d.items())]
        _emit({"basis": "PT", "coeffs": items})
    elif verb == "e-expand":
        F, violations = e_expansion_X(_parse_graph(args.index, require_colorings))
        out = F.to_json()
        out["positivity_violations"] = [list(v) for v in violations]
        _emit(out)
    elif verb == "induce":
        pi = _parse_graph(args.index, lambda n: require_restrictions(n, args.q))
        ind = induce_to_GL(pi, args.q)
        items = [{"partition": list(lam), "value": str(v)} for lam, v in sorted(ind.items())]
        _emit({"n": ind.n, "q": ind.q, "values": items})
    elif verb == "hess-count":
        pi = _parse_graph(args.index, lambda n: require_restrictions(n, args.q))
        if (args.matrix is None) == (args.jordan_type is None):
            raise ValueError("hess-count needs one of --matrix DIGITS or --jordan-type PART,PART,..")
        if args.matrix is not None:
            lam = nilpotent_type(args.matrix, pi.size, args.q)
        else:
            lam = _parse_jordan_type(args.jordan_type)
        _emit({"count": hessenberg_count(pi, lam, args.q)})
    elif verb == "superclass-sizes":
        sizes = superclass_sizes(args.n, args.q)
        edges = {pi: sorted(area(pi)) for pi in sizes}
        items = [{"graph": {"n": args.n, "edges": [list(e) for e in edges[pi]]}, "size": sizes[pi]}
                 for pi in sorted(sizes, key=lambda pi: (len(edges[pi]), edges[pi]))]
        _emit({"n": args.n, "q": args.q, "sizes": items})
    return 0


# ---------------------------------------------------------------------------
# verify verbs
# ---------------------------------------------------------------------------

def _default_suite(deep: bool) -> list[tuple[str, int, int | None]]:
    jobs: list[tuple[str, int, int | None]] = []
    numeric = [c for c in ALL_CHECKS if c not in SYMBOLIC_CHECKS]
    for q in (2, 3):
        for n in (1, 2, 3):
            for name in numeric:
                jobs.append((name, n, q))
    sym_max = {"check_st_en": 6}
    for name in SYMBOLIC_CHECKS:
        top = sym_max.get(name, 4)
        for n in range(1, top + 1):
            jobs.append((name, n, None))
    if deep:
        for name in ("check_as", "check_cm", "check_palindromic", "check_prop56"):
            jobs.append((name, 5, None))
        jobs.append(("check_cqs", 4, 2))
        jobs.append(("check_llt", 4, 2))
        for q in (2, 3):
            for name in ("check_mesa", "check_psi_decomp", "check_permtoind"):
                jobs.append((name, 4, q))
    return jobs


def _run_jobs(jobs) -> list[CheckReport]:
    reports = [run_check(name, n, q) for name, n, q in jobs]
    reports.sort(key=lambda r: (r.check, r.n, r.q if r.q is not None else -1))
    return reports


def _cmd_verify(args: SimpleNamespace) -> int:
    if args.target is None:
        raise ValueError("verify needs 'all' or a check name")
    if args.n is not None and args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    if args.deep and (args.target != "all" or args.n is not None):
        raise ValueError("--deep extends the default suite; use it with 'all' and without --n")
    if args.target == "all" and args.n is None:
        if args.q is not None:
            raise ValueError("--q picks the field for 'all --n N'; the default suite fixes q")
        jobs = _default_suite(args.deep)
    else:  # run_check refuses an unknown name
        if args.target in SYMBOLIC_CHECKS and args.q is not None:
            raise ValueError(f"{args.target} is symbolic in t and takes no --q")
        n = args.n if args.n is not None else 3
        q = args.q if args.q is not None else 2
        jobs = [(name, n, q) for name in (ALL_CHECKS if args.target == "all" else [args.target])]

    reports = _run_jobs(jobs)
    if args.json:
        _emit([r.to_json() for r in reports])
    else:
        for r in reports:
            loc = f"n={r.n}" + (f", q={r.q}" if r.q is not None else "")
            line = f"{'PASS' if r.ok else 'FAIL'} {r.check} ({loc})"
            if r.check in DEPENDENCIES:
                line += f"  [implied by {' + '.join(DEPENDENCIES[r.check])}]"
            print(line)
            if not r.ok:
                print(f"     witness: {json.dumps(r.witness)}")
        npass = sum(r.ok for r in reports)
        print(f"{npass}/{len(reports)} checks passed")
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# Each verb family: its handler, its positionals in order, and its options
# with their types (bool for a flag, which takes no value).
_FAMILIES = {
    "compute": (_cmd_compute, ("verb", "index"),
                {"q": int, "n": int, "matrix": str, "jordan_type": str}),
    "verify": (_cmd_verify, ("target",), {"n": int, "q": int, "deep": bool, "json": bool}),
}


def _parse(argv: list[str]):
    """The handler of argv's verb family and its arguments; ValueError on a usage error."""
    if not argv or argv[0] not in _FAMILIES:
        got = f"unknown command {argv[0]!r}" if argv else "no command"
        raise ValueError(f"{got}; choose {' or '.join(_FAMILIES)} (see --help)")
    family, *rest = argv
    handler, positionals, options = _FAMILIES[family]
    args = {name: False if typ is bool else None for name, typ in options.items()}
    given, tokens = [], iter(rest)
    for token in tokens:
        if not token.startswith("--"):
            given.append(token)
            continue
        opt, eq, value = token.partition("=")
        name = opt[2:].replace("-", "_")
        typ = None if "_" in opt else options.get(name)
        if typ is None:
            raise ValueError(f"{family} has no option {opt}")
        if typ is bool:
            if eq:
                raise ValueError(f"{opt} takes no value")
            value = True
        elif not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise ValueError(f"{opt} needs a value")
        if typ is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{opt} takes an integer, got {value!r}") from None
        args[name] = value
    if len(given) > len(positionals):
        raise ValueError(f"unexpected argument {given[len(positionals)]!r}; {family} takes only "
                         f"{' and '.join(p.upper() for p in positionals)}")
    args.update(zip_longest(positionals, given))
    return handler, SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print((__doc__ or "").partition("\n\n")[2], end="")  # python -OO strips it
        return 0
    try:
        handler, args = _parse(argv)
        return handler(args)
    except (ValueError, PoleError) as exc:  # SizeGuardError and JSONDecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
