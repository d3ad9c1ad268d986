"""Mutation harness: each mutant edits one exact text in a copy of src/, and must be killed.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each mutant names a file of the package, an old text that must occur in it
exactly once, its replacement, and the test node ids expected to kill it.  The
script first runs every named test, and `chromaq verify all --n 4 --q 3
--json`, on an unmutated copy: they must pass there, and every id must name a
test.  Then, for each mutant, it copies src/ to a temporary directory, applies
the edit, and runs the mutant's tests and the same verify against the copy.
A mutant is killed when a test fails or the verify exits nonzero, and the
report says which did.  A mutant's old text that no longer occurs exactly once
is stale and fails the script (exit 2); so does a baseline that does not pass.
A survivor exits 1.  Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VERIFY = ("-m", "chromaq.cli", "verify", "all", "--n", "4", "--q", "3", "--json")
# tests failed (1) or a test module failed to import (2): both are kills
PYTEST_KILLED = (1, 2)


class Mutant(NamedTuple):
    name: str
    file: str  # under src/chromaq
    old: str  # must occur exactly once
    new: str
    tests: tuple[str, ...]  # node ids expected to kill it
    why: str


SYMFUNC_TESTS = "tests/test_symfunc.py::"
MUTANTS = (
    # the PT rows, the e rows read off them, and the class-function keys
    Mutant("pt-exponent-sign", "symfunc.py",
           "LaurentPoly.from_terms({hi - e: c for e, c in poly.items()})",
           "LaurentPoly.from_terms({hi + e: c for e, c in poly.items()})",
           (SYMFUNC_TESTS + "test_hl_tableau_build_matches_gram_schmidt",
            SYMFUNC_TESTS + "test_pt_relation"),
           "the term c t^e of P_lam[m_mu] written at t^{-n(lam)+e}"),
    Mutant("pt-reflected-afterwards", "symfunc.py",
           "LaurentPoly.from_terms({hi - e: c for e, c in poly.items()})",
           "LaurentPoly.from_terms(poly).subs_inv(hi)",
           (SYMFUNC_TESTS + "test_the_pt_rows_write_each_coordinate_once",),
           "the same PT rows, each coordinate built twice: once in Z[t], then reflected"),
    Mutant("e-reads-the-constant-term", "symfunc.py",
           "for nu, row in _rows(\"PT\", d).items() for k in [-nstat(nu)]}",
           "for nu, row in _rows(\"PT\", d).items() for k in [0]}",
           (SYMFUNC_TESTS + "test_schur_matches_ssyt_oracle",
            SYMFUNC_TESTS + "test_solve_equals_the_inverted_table_for_every_basis"),
           "the e rows read PT's t^0 coefficients, not its t^{-n(nu)} ones"),
    Mutant("classfn-call-off-by-one", "fqoracle.py",
           "return self.values[self._keys(self.n).index(key)]",
           "return self.values[self._keys(self.n).index(key) - 1]",
           ("tests/test_fqoracle.py::test_classfn_evaluation_at_element",
            "tests/test_fqoracle.py::test_chi_bar_degree"),
           "a class function read one position early"),
    Mutant("hess-count-takes-any-type", "fqoracle.py",
           "if lam not in _partitions(n):",
           "if False:",
           ("tests/test_fqoracle.py::test_hessenberg_count_takes_a_partition_of_n",),
           "hessenberg_count reads a Jordan type that is no partition of n"),
    # one table of rows per (basis, degree), behind one guard
    Mutant("rows-by-keyword", "symfunc.py",
           "lambda lam: _rows(b, d)[lam].items())",
           "lambda lam: _rows(b, d=d)[lam].items())",
           (SYMFUNC_TESTS + "test_each_table_is_built_once_per_basis_and_degree",),
           "expand_in_basis out of a basis keys a second cache entry"),
    Mutant("pivot-check-off", "symfunc.py",
           "if len(pivot.coeffs) != 1:",
           "if False:",
           (SYMFUNC_TESTS + "test_solve_refuses_a_pivot_that_is_not_a_unit",),
           "a pivot that is not c t^k is taken"),
    Mutant("peeled-side-check-off", "symfunc.py",
           "if early is not None:",
           "if False:",
           (SYMFUNC_TESTS + "test_solve_refuses_an_entry_on_a_row_not_yet_solved",),
           "an entry on the peeled side of the pivot is taken"),
    Mutant("partitions-before-the-guard", "symfunc.py",
           "    p = _partition_count(d)\n    require_sweep(f\"the {p}^2 cells of the degree-{d} "
           "{basis} table\", p ** 2)\n    keys = _partitions(d)\n",
           "    keys = _partitions(d)\n    p = _partition_count(d)\n    require_sweep(f\"the "
           "{p}^2 cells of the degree-{d} {basis} table\", p ** 2)\n",
           ("tests/test_bridge.py::test_every_sweep_is_refused_past_the_bound_before_any_work",),
           "the partitions of d are listed before the table's guard"),
    Mutant("strips-before-the-guard", "symfunc.py",
           "    p = _partition_count(d)\n    require_sweep(f\"the {p}^2 cells",
           "    _strips((), d)\n    p = _partition_count(d)\n    require_sweep(f\"the {p}^2 cells",
           (SYMFUNC_TESTS + "test_nvars_guard",
            "tests/test_bridge.py::test_check_st_en_runs_to_the_table_guard"),
           "a strip of the tableau build is made before the table's guard"),
    Mutant("e-rows-read-k-nu", "symfunc.py",
           "for mu, v in kostka[transpose(nu)].items():",
           "for mu, v in kostka[nu].items():",
           (SYMFUNC_TESTS + "test_schur_matches_ssyt_oracle",),
           "e_lam summed over s_nu in place of s_nu'"),
    # integers and three bases: no Fraction path outside exactnum
    Mutant("fraction-in-laurent-mul", "exactnum.py",
           "        return NotImplemented\n\n    __rmul__ = __mul__\n\n    def __pow__",
           "        from fractions import Fraction\n        return NotImplemented\n\n"
           "    __rmul__ = __mul__\n\n    def __pow__",
           ("tests/test_bridge.py::test_only_exactnum_names_a_fraction_or_a_division",),
           "LaurentPoly.__mul__ names Fraction"),
    Mutant("rmul-a-separate-function", "exactnum.py",
           "    __rmul__ = __mul__\n\n    def __pow__",
           "    def __rmul__(self, other):\n        return self.__mul__(other)\n\n    def __pow__",
           ("tests/test_exactnum.py::"
            "test_the_methods_the_tracer_counts_are_plain_functions_in_their_class",),
           "LaurentPoly.__rmul__ is a function of its own, which the tracer does not count"),
    Mutant("int-takes-a-fraction", "exactnum.py",
           "        return int(x)\n    raise TypeError",
           "        return int(x)\n    if getattr(x, \"denominator\", None) == 1:\n"
           "        return int(x)\n    raise TypeError",
           ("tests/test_exactnum.py::"
            "test_each_way_into_a_coefficient_refuses_a_fraction_and_a_float",),
           "a coefficient Fraction(3, 1) is read as 3"),
    Mutant("ratfunc-sign-left", "exactnum.py",
           "g = _intgcd(*n, *d) if d[-1] > 0 else -_intgcd(*n, *d)",
           "g = _intgcd(*n, *d)",
           ("tests/test_exactnum.py::test_ratfunc_canonical_form_over_z",),
           "a RationalFunc keeps a negative leading denominator coefficient"),
    Mutant("ratfunc-content-left", "exactnum.py",
           "g = _intgcd(*n, *d) if d[-1] > 0 else -_intgcd(*n, *d)",
           "g = 1 if d[-1] > 0 else -1",
           ("tests/test_exactnum.py::test_ratfunc_canonical_form_over_z",),
           "a RationalFunc keeps the integer content of num and den"),
)


def _copy_src(tmp: str) -> str:
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _apply(mutant: Mutant, src: str) -> str | None:
    """Edit the copy; the reason the mutant is stale, or None."""
    path = os.path.join(src, "chromaq", mutant.file)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    found = text.count(mutant.old)
    if found != 1:
        return f"its old text occurs {found} times in {mutant.file}"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(mutant.old, mutant.new))
    return None


def _run(src: str, tests: tuple[str, ...]) -> tuple[int, int, str]:
    """(pytest's exit code, verify's exit code, the tail of their output) against src."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    pytest = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             "-o", "addopts=", *tests],
                            cwd=ROOT, env=env, capture_output=True, text=True)
    verify = subprocess.run([sys.executable, *VERIFY], cwd=os.path.dirname(src), env=env,
                            capture_output=True, text=True)
    tail = (pytest.stdout + pytest.stderr).strip().splitlines()[-3:] + verify.stderr.splitlines()[-2:]
    return pytest.returncode, verify.returncode, "\n".join(tail)


def baseline() -> str | None:
    """Why the unmutated copy does not pass every named test and the verify, or None."""
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="chromaq-mutant-") as tmp:
        src = _copy_src(tmp)
        where = subprocess.run([sys.executable, "-c", "import chromaq; print(chromaq.__file__)"],
                               env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                               capture_output=True, text=True).stdout
        if not where.startswith(src):
            return f"chromaq imports from {where.strip()!r}, not from the copy"
        rc_tests, rc_verify, tail = _run(src, tests)
    if rc_tests or rc_verify:
        return f"pytest exit {rc_tests}, verify exit {rc_verify}:\n{tail}"
    return None


def run(mutant: Mutant) -> tuple[str, str]:
    """("killed", by what), ("survived", output) or ("stale", why) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="chromaq-mutant-") as tmp:
        src = _copy_src(tmp)
        stale = _apply(mutant, src)
        if stale:
            return "stale", stale
        rc_tests, rc_verify, tail = _run(src, mutant.tests)
    if rc_tests not in (0, *PYTEST_KILLED):
        return "stale", f"pytest exit {rc_tests}:\n{tail}"
    by = [what for what, rc in (("tests", rc_tests), ("verify", rc_verify)) if rc]
    return ("killed", " and ".join(by)) if by else ("survived", tail)


def main() -> int:
    start = time.perf_counter()
    broken = baseline()
    if broken:
        print(f"the unmutated copy does not pass: {broken}", file=sys.stderr)
        return 2
    tally = {"killed": 0, "survived": 0, "stale": 0}
    for m in MUTANTS:
        t = time.perf_counter()
        status, detail = run(m)
        tally[status] += 1
        line = f"{status:8} {m.name:28} {time.perf_counter() - t:5.1f} s"
        print(line + (f"  by {detail}" if status == "killed" else f"  ({m.why})\n{detail}"),
              flush=True)
    print(f"{tally['killed']} killed, {tally['survived']} survived, {tally['stale']} stale "
          f"of {len(MUTANTS)} in {time.perf_counter() - start:.0f} s")
    return 2 if tally["stale"] else 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
