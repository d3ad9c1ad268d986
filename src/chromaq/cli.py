"""Command-line interface.

Two verb families:

  chromaq compute {csf|llt|as-expand|d-coeffs|e-expand|induce|hess-count|superclass-sizes} ...
  chromaq verify all [--deep] [--json]
  chromaq verify {all|<check name>} [--n N] [--q Q] [--json]

All output is JSON on stdout.  Exit status: 0 = success / all pass,
1 = at least one check failed, 2 = usage or size-guard error.

Checks run one after another in this process; reports are sorted by
(check, n, q).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bridge import ALL_CHECKS, DEPENDENCIES, SYMBOLIC_CHECKS, CheckReport, run_check
from .chromallt import as_expansion, csf, d_coeffs, e_expansion_X, llt_vertical
from .combinatorics import DyckPath, IndiffGraph, SchroderPath, graph_of
from .exactnum import PoleError
from .fqoracle import (
    MatrixFq,
    chi_bar,
    hessenberg_count,
    induce_to_GL,
    jordan,
    mat_minus_identity,
    superclass_sizes,
)
from .guards import SizeGuardError


def _parse_graph(text: str) -> IndiffGraph:
    """Accept either a Dyck path step string or a JSON graph object."""
    text = text.strip()
    if text.startswith("{"):
        return IndiffGraph.from_json(json.loads(text))
    return graph_of(DyckPath(text))


def _parse_tall_path(text: str) -> SchroderPath:
    p = SchroderPath(text.strip())
    if not p.is_tall:
        raise ValueError(f"{text!r} is not a tall path")
    return p


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# compute verbs
# ---------------------------------------------------------------------------

def _parse_jordan_type(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--jordan-type takes comma-separated positive integers, "
                         f"got {text!r}") from None


def _cmd_compute(args: argparse.Namespace) -> int:
    verb = args.verb
    if args.n is not None and args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    if verb == "csf":
        _emit(csf(_parse_graph(args.index)).to_json())
    elif verb == "llt":
        _emit(llt_vertical(_parse_tall_path(args.index)).to_json())
    elif verb == "as-expand":
        _emit(as_expansion(_parse_tall_path(args.index)).to_json())
    elif verb == "d-coeffs":
        d = d_coeffs(_parse_graph(args.index))
        items = [{"partition": list(lam), "value": str(v)} for lam, v in sorted(d.items())]
        _emit({"basis": "PT", "coeffs": items})
    elif verb == "e-expand":
        F, violations = e_expansion_X(_parse_graph(args.index))
        out = F.to_json()
        out["positivity_violations"] = [list(v) for v in violations]
        _emit(out)
    elif verb == "induce":
        if args.q is None:
            raise ValueError("induce needs --q")
        gamma = _parse_graph(args.index)
        ind = induce_to_GL(chi_bar(gamma, args.q))
        items = [{"partition": list(lam), "value": str(v)} for lam, v in sorted(ind.items())]
        _emit({"n": ind.n, "q": ind.q, "values": items})
    elif verb == "hess-count":
        if args.q is None:
            raise ValueError("hess-count needs --q")
        gamma = _parse_graph(args.index)
        if args.matrix:
            a = MatrixFq.from_digits(args.matrix, gamma.n, args.q)
        elif args.jordan_type:
            lam = _parse_jordan_type(args.jordan_type)
            a = MatrixFq(args.q, mat_minus_identity(jordan(lam, args.q).rows, args.q))
        else:
            raise ValueError("hess-count needs --matrix DIGITS or --jordan-type PART,PART,..")
        _emit({"count": hessenberg_count(gamma, a)})
    elif verb == "superclass-sizes":
        if args.n is None or args.q is None:
            raise ValueError("superclass-sizes needs --n and --q")
        sizes = superclass_sizes(args.n, args.q)
        items = [{"graph": g.to_json(), "size": c}
                 for g, c in sorted(sizes.items(), key=lambda kv: (len(kv[0].edges), kv[0].sorted_edges()))]
        _emit({"n": args.n, "q": args.q, "sizes": items})
    else:
        raise ValueError(f"unknown compute verb {verb!r}")
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


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n is not None and args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    if args.deep and (args.target != "all" or args.n is not None):
        raise ValueError("--deep extends the default suite; use it with 'all' and without --n")
    if args.target == "all":
        if args.n is not None:
            q = args.q if args.q is not None else 2
            jobs = [(name, args.n, None if name in SYMBOLIC_CHECKS else q) for name in ALL_CHECKS]
        elif args.q is not None:
            raise ValueError("--q picks the field for 'all --n N'; the default suite fixes q")
        else:
            jobs = _default_suite(args.deep)
    else:
        if args.target not in ALL_CHECKS:
            raise ValueError(f"unknown check {args.target!r}; choose from {sorted(ALL_CHECKS)}")
        n = args.n if args.n is not None else 3
        q = None if args.target in SYMBOLIC_CHECKS else (args.q if args.q is not None else 2)
        jobs = [(args.target, n, q)]

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

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chromaq",
                                 description="exact chromatic/LLT symmetric functions "
                                             "with brute-force F_q verification")
    sub = ap.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute one object and print JSON")
    comp.add_argument("verb", choices=["csf", "llt", "as-expand", "d-coeffs", "e-expand",
                                       "induce", "hess-count", "superclass-sizes"])
    comp.add_argument("index", nargs="?", default="",
                      help="path step string (EESESS) or JSON graph")
    comp.add_argument("--q", type=int, default=None, help="field size (prime <= 7)")
    comp.add_argument("--n", type=int, default=None, help="matrix size")
    comp.add_argument("--matrix", default=None, help="row-major digit string")
    comp.add_argument("--jordan-type", default=None,
                      help="partition PART,PART,.. for A = J_lambda - 1")
    comp.set_defaults(fn=_cmd_compute)

    ver = sub.add_parser("verify", help="run theorem checks")
    ver.add_argument("target", help="'all' or a check name (e.g. check_cqs)")
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--q", type=int, default=None)
    ver.add_argument("--deep", action="store_true", help="extend ranges (n=4 GL, n=5 symbolic)")
    ver.add_argument("--json", action="store_true", help="machine-readable report")
    ver.set_defaults(fn=_cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SizeGuardError, PoleError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
