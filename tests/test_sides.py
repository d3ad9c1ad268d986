"""What the two sides of each check share.

Every check_* hands its items and its two sides to `bridge._scan`.  The audit
here records them at n = 3 (q = 2 for the numeric checks) without running
them, then runs each side alone on every item, with every cache of the package
cleared first, and collects the chromaq functions it calls under
`sys.setprofile`.  A check's own code (its side lambdas and helpers) is not
collected; an inner function counts as the function that holds it.  A memo
held by a side fills on the side's first item, so that item shows what it reads.

The functions both sides of a check call must be exactly those declared below:
`COMMON` for every check, and `SHARED` for each one, every entry with its
reason.  So a side that starts to read the other side's kernel fails the audit,
and so does an entry that the sides no longer share.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys
from collections import defaultdict

import pytest

import chromaq
import chromaq.bridge as bridge
from chromaq.bridge import ALL_CHECKS, run_check
from chromaq.combinatorics import area
from chromaq.fqoracle import chi_bar
from classfn_oracle import upset_sum_by_scan
from mobius_oracle import mobius_subgraph

# the collected functions are named by their code's co_qualname, new in Python 3.11
pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")

_PACKAGE = os.path.dirname(chromaq.__file__)
_MODULES = [importlib.import_module(f"chromaq.{m.name}")
            for m in pkgutil.iter_modules(chromaq.__path__)]

# every check may share these, each a prefix of the names collected: they hold
# values, list the index sets or refuse, and neither side computes through them
COMMON = {
    "exactnum.": "exact arithmetic in Z[t, 1/t] and Q, the values both sides hold; "
                 "test_exactnum checks it",
    "guards.": "size guards: they refuse before work and compute nothing",
    "chromallt.require_colorings": "the coloring guard: it refuses before work and computes nothing",
    "combinatorics._check_size": "the size guard of every enumerator",
    "fqoracle._check_q": "the field-size guard",
    "combinatorics.Frozen.": "immutable value objects",
    "symfunc.SymFunc.": "the value class of the symmetric-function sides",
    "symfunc._coeff": "SymFunc's coefficient coercion",
    "symfunc._require_partition": "SymFunc's key check",
    "fqoracle._ClassFn.": "the value class of the class-function sides",
    "combinatorics._partition": "partition listing, guard and order: the keys of both sides",
    "combinatorics.gen_dyck": "the Dyck paths, listed once per h: the items and the lattice",
    "combinatorics.DyckPath": "the listed paths",
    "combinatorics.SchroderPath.__init__": "the listed paths: a Dyck path is read through it too",
    "combinatorics._between": "the walk of Hessenberg functions that lists the paths",
    "combinatorics._tall_path": "the step string of each listed h",
    "combinatorics._walk": "a listed path read back into h",
    "combinatorics._trace": "a listed path's cells",
}

_AREA_EDGES = ("the edges of the graph of a Dyck path are its area; "
               "test_tall_paths_read_h_and_d_as_the_cell_walk_does checks area")
_AREA_DIAG = ("both sides read the path's Area and Diag: as_expansion orients them and "
              "llt_vertical colours them; test_tall_paths_read_h_and_d_as_the_cell_walk_does "
              "checks both")
_UPSETS = ("both class functions are signed upset sums over the lattice, so the check "
           "compares their term lists; test_upset_sum_matches_the_scan_on_every_term_list "
           "and test_lattice_upsets_match_the_scan check the sums against the scan")
_COLORINGS = ("both sides are colour-class sums, X with differ edges and G with rise "
              "edges; test_color_classes_match_the_vertex_kernel checks the kernel")
_TABLES = ("symfunc's monomial tables, all read off one Hall-Littlewood tableau build: "
           "scaled_p_brace1 reads the PT rows on the left, and the right side's e rows read "
           "their Kostka numbers off the PT rows; test_hl_tableau_build_matches_gram_schmidt "
           "checks the build")
_ROWS = ("symfunc's one table of rows per (basis, degree), in monomial coordinates: "
         "scaled_p_brace1 reads the PT rows on the left, and the right side's table of "
         "m_mu[(q-1)x] the p rows; test_solve_equals_the_inverted_table_for_every_basis "
         "checks them")
_CHANGE = ("the one sparse change of coordinates: scaled_p_brace1 sums the PT rows on the left, "
           "and the right side sums rows of m_mu[(q-1)x]; test_p_one_and_p_brace1_match_the_"
           "symbolic_oracle checks p_brace1 against the oracles' own change, and "
           "test_plethysm_m_table_is_integral_and_equal_to_the_p_route checks the table")
_PACKED = ("packed row reduction over F_q: the sweep's jordan_type ranks with it and the "
           "Springer walk spans its kernels with it; test_packed_kernel_matches_the_tuple_"
           "oracle and test_eliminate_matches_the_tuple_rank check it")

SHARED = {
    "check_cqs": {},
    "check_hess": dict.fromkeys(["fqoracle._Packed.__init__", "fqoracle._Packed.eliminate",
                                 "fqoracle._Packed.reduce", "fqoracle._field"], _PACKED),
    "check_poincare": {"combinatorics.area": _AREA_EDGES + ": the left side counts them for "
                                             "q^{|E|}, and the right side's X_gamma colours them"},
    "check_llt": {
        "symfunc._rows": _ROWS,
        "symfunc._change": _CHANGE,
    },
    "check_mesa": {
        **dict.fromkeys(["fqoracle._lattice", "fqoracle._lowered", "fqoracle._upset_sum"],
                        _UPSETS + "; mesa finds its D steps without _corners"),
    },
    "check_psi_decomp": {
        **dict.fromkeys(["fqoracle._lattice", "fqoracle._lowered", "fqoracle._upset_sum"],
                        _UPSETS + "; the right side sums supercharacters over an interval"),
    },
    "check_permtoind": {
        "fqoracle._lattice": "the left side's upsets and the right side's column ranks are "
                             "both laid out over the lattice's list of h, which orders the "
                             "graphs and computes no value",
    },
    "check_as": dict.fromkeys(["combinatorics.area", "combinatorics.diag"], _AREA_DIAG),
    "check_cm": {
        "combinatorics.area": _AREA_EDGES + ": X_gamma colours them, and G_pi colours its "
                              "area as the ascent graph",
        **dict.fromkeys(["chromallt._color_sum", "chromallt._slot_bits"], _COLORINGS),
    },
    "check_palindromic": {
        "chromallt.csf": "the identity is a symmetry of X_gamma: both sides are X_gamma, "
                         "one read with t -> 1/t",
        "combinatorics.area": _AREA_EDGES + ": X_gamma colours them on both sides, and the "
                              "left side counts them for t^{|E|}",
        **dict.fromkeys(["chromallt._color_sum", "chromallt._slot_bits"], _COLORINGS),
    },
    "check_prop56": {
        "chromallt.llt_vertical": "part i is a symmetry of G_pi: both sides are G_pi, one read "
                                  "with t -> 1/t and one under omega",
        **dict.fromkeys(["chromallt._color_sum", "chromallt._slot_bits"],
                        _COLORINGS + "; part ii sums unicellular G"),
        **dict.fromkeys(["combinatorics.area", "combinatorics.diag"],
                        "llt_vertical colours through Area and Diag on both sides; "
                        "test_tall_paths_read_h_and_d_as_the_cell_walk_does checks both"),
    },
    "check_gg": {"symfunc._rows": _ROWS, "symfunc._change": _CHANGE},
    "check_st_en": {},
    "check_cor66": {
        "symfunc._change": _CHANGE,
        "symfunc._rows": _ROWS,
        "symfunc._strips": _TABLES,
        "combinatorics.nstat": _TABLES + "; n(lam) places each PT row, and the e rows read "
                               "their Kostka numbers at t^-n(nu); test_nstat checks it",
    },
}


def _scans(monkeypatch) -> list[tuple[str, list, object, object]]:
    """(check, items, lhs, rhs) of every scan of every check at n = 3, q = 2.

    No side runs: each recorded scan returns None, a pass, so a check's later
    scans are recorded too, and a memo held by a side is still empty."""
    scans = []
    with monkeypatch.context() as m:
        for name in ALL_CHECKS:
            m.setattr(bridge, "_scan", lambda items, lhs, rhs, name=name:
                      scans.append((name, list(items), lhs, rhs)))
            run_check(name, 3, 2)
    return scans


def _calls(side, item) -> set[str]:
    """The chromaq functions that side(item) calls, every cache of the package cleared first."""
    for module in _MODULES:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call" or not code.co_filename.startswith(_PACKAGE):
            return
        name = code.co_qualname.split(".<locals>")[0]
        if code.co_filename != bridge.__file__ or not name.startswith("check_"):
            seen.add(f"{os.path.basename(code.co_filename)[:-3]}.{name}")

    sys.setprofile(profile)
    try:
        side(item)
    finally:
        sys.setprofile(None)
    return seen


def _audit(monkeypatch) -> list[str]:
    """Every undeclared function the sides of a check share, and every declared
    entry that no side pair shares, as lines of text."""
    scans = _scans(monkeypatch)
    assert {name for name, *_ in scans} == set(ALL_CHECKS) and len(scans) == 16
    shared = defaultdict(set)
    for name, items, lhs, rhs in scans:
        for item in items:
            shared[name] |= _calls(lhs, item) & _calls(rhs, item)
    failures, common_used = [], set()
    for name in ALL_CHECKS:
        common = {f for f in shared[name] if any(map(f.startswith, COMMON))}
        common_used |= {prefix for prefix in COMMON for f in common if f.startswith(prefix)}
        rest = shared[name] - common
        failures += [f"{name} shares undeclared {f}" for f in sorted(rest - SHARED[name].keys())]
        failures += [f"{name} declares {f}, which its sides no longer share"
                     for f in sorted(SHARED[name].keys() - rest)]
    failures += [f"COMMON declares {p}, which no check's sides share"
                 for p in COMMON if p not in common_used]
    return failures


def test_every_check_declares_what_its_two_sides_share(monkeypatch):
    assert set(SHARED) == set(ALL_CHECKS)
    assert all(reason for table in (COMMON, *SHARED.values()) for reason in table.values())
    assert _audit(monkeypatch) == []


def test_the_audit_names_a_side_that_reads_the_other_sides_kernel(monkeypatch):
    # the count of check_permtoind replaced by the formula it checks
    monkeypatch.setattr(bridge, "permutation_character_oracle", lambda gamma, q: chi_bar(gamma, q))
    assert _audit(monkeypatch) == [f"check_permtoind shares undeclared fqoracle.{f}"
                                   for f in ("_lowered", "_upset_sum", "chi_bar")]


def test_the_audit_names_a_declared_entry_the_sides_no_longer_share(monkeypatch):
    # chi_super by the Moebius oracle and the scan of upsets: neither reads the lattice
    def chi_super_by_scan(gamma, q):
        terms = [(s, mu * q ** len(area(s))) for s, mu in mobius_subgraph(gamma).items()]
        return upset_sum_by_scan(gamma.size, q, terms)

    monkeypatch.setattr(bridge, "chi_super", chi_super_by_scan)
    assert bridge.check_mesa(3, 2) is None and bridge.check_psi_decomp(3, 2) is None
    assert _audit(monkeypatch) == [f"{name} declares fqoracle.{f}, which its sides no longer share"
                                   for name in ("check_mesa", "check_psi_decomp")
                                   for f in ("_lattice", "_lowered", "_upset_sum")]
