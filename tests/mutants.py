"""Mutation harness: each mutant edits one exact text in a copy of src/, and must be killed.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each mutant names a file of the package, an old text that must occur in it
exactly once, its replacement, and the test node ids expected to kill it; a
mutant of one side of a check names none, and the verify kills it.  The
script first runs every named test, and `chromaq verify all --n 4 --q 3
--json`, on an unmutated copy: they must pass there, and every id must name a
test.  Then, for each mutant, it copies src/ to a temporary directory, applies
the edit, and runs the mutant's tests and the same verify against the copy.
A mutant is killed when a test fails or the verify exits nonzero, and the
report says which did, with its exit code: 1 is a failing test or check.  A
mutant's old text that no longer occurs exactly once is stale and fails the
script (exit 2); so does a baseline that does not pass.
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
COMBINATORICS_TESTS = "tests/test_combinatorics.py::"
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
    # exact division: the diagonal maps, the PT table's scale, the peel and omega's sign
    Mutant("diagonal-remainder-unchecked", "symfunc.py",
           "bad = next((nu for nu, c in row.items() if any(a % s for a in c.coeffs)), None)",
           "bad = None",
           (SYMFUNC_TESTS + "test_plethysm_m_raises_on_a_remainder_of_d_factorial",),
           "a diagonal map floors a coordinate that d! does not divide"),
    Mutant("pt-tripwire-one-loose", "bridge.py",
           "if c.low < -N), None)",
           "if c.low < -N - 1), None)",
           ("tests/test_bridge.py::test_the_pt_table_refuses_a_coordinate_below_its_scale",),
           "the PT table takes a coordinate at t^{-binom(d,2)-1}"),
    Mutant("peel-takes-any-number", "symfunc.py",
           "left = {mu: _coeff(c) for mu, c in coeffs.items()}",
           "left = dict(coeffs)",
           (SYMFUNC_TESTS + "test_peel_and_the_diagonal_maps_refuse_a_rational_coefficient",),
           "_peel takes a coefficient that is no Laurent polynomial over Z"),
    Mutant("omega-sign-wrong-at-2", "symfunc.py",
           "return (-1) ** (sum(lam) - len(lam))",
           "return 1 if lam == (2,) else (-1) ** (sum(lam) - len(lam))",
           (SYMFUNC_TESTS + "test_omega_m_table_is_an_integer_involution_equal_to_the_p_path",),
           "omega fixes p_2"),
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
    # a graph is its Dyck path, on one value base with one path constructor; no check divides
    Mutant("dyck-path-admits-d", "combinatorics.py",
           "bad = next((s for s in steps if s not in \"ES\"), None)",
           "bad = next((s for s in steps if s not in \"ESD\"), None)",
           (COMBINATORICS_TESTS + "test_invalid_paths_rejected",),
           "DyckPath reads a D step"),
    Mutant("path-of-graph-reads-max-i", "combinatorics.py",
           "h[j - 1] = min(h[j - 1], i - 1)",
           "h[j - 1] = i - 1 if h[j - 1] == j - 1 else max(h[j - 1], i - 1)",
           (COMBINATORICS_TESTS + "test_graphs_record_the_hessenberg_function_of_their_edges",),
           "path_of_graph reads h_j off the largest i with {i, j} an edge, not the least"),
    Mutant("json-reader-skips-its-guard", "cli.py",
           "    guard(n)\n    return path_of_graph(n, edges)",
           "    return path_of_graph(n, edges)",
           ("tests/test_bridge.py::test_cli_guards_a_json_graph_before_its_path_is_built",
            "tests/test_bridge.py::"
            "test_a_fresh_process_exits_one_on_a_failing_check_and_two_on_a_refusal"),
           "a JSON graph's path is built before the verb's guard reads its n"),
    Mutant("csf-drops-differ", "chromallt.py",
           "return _color_sum(pi.size, edges, differ=edges)",
           "return _color_sum(pi.size, edges)",
           ("tests/test_chromallt.py::test_csf_path3_worked_example",
            "tests/test_chromallt.py::test_color_classes_match_the_vertex_kernel"),
           "X_gamma sums over every coloring, proper or not"),
    Mutant("superclass-sort-drops-count", "cli.py",
           "key=lambda pi: (len(edges[pi]), edges[pi])",
           "key=lambda pi: edges[pi]",
           ("tests/test_bridge.py::"
            "test_cli_superclass_sizes_list_the_graphs_by_edge_count_then_edges",),
           "compute superclass-sizes lists the graphs by their edges alone"),
    Mutant("frozen-eq-ignores-the-type", "combinatorics.py",
           "if type(other) is not type(self):",
           "if not isinstance(other, Frozen):",
           ("tests/test_values.py::test_classes_with_equal_fields_stay_apart",
            "tests/test_values.py::test_another_exact_type_is_never_equal"),
           "two values of different types with equal fields are equal"),
    Mutant("check-gg-twists-n-minus-2", "bridge.py",
           "q, n - 1))",
           "q, n - 2))",
           ("tests/test_bridge.py::test_induction_checks_at_n4_q3_and_n3_q5",),
           "check_gg's right side carries (q-1)^{n-2}"),
    Mutant("unicellular-sign-flipped", "bridge.py",
           "_change(dict(_lowered(sigma.h, sigma.D, 1)),",
           "_change({h: -s for h, s in _lowered(sigma.h, sigma.D, 1)},",
           ("tests/test_bridge.py::test_unicellular_sum_matches_the_symfunc_by_symfunc_sum",),
           "check_prop56(ii) sums the unicellular G with the opposite sign"),
    # one statement per verify fact: the verdict, the registry, the job builder
    Mutant("report-ok-inverted", "bridge.py",
           "return self.witness is None",
           "return self.witness is not None",
           ("tests/test_bridge.py::test_a_report_fails_exactly_when_it_has_a_witness",),
           "a report passes exactly when it has a witness"),
    Mutant("check-cor66-unregistered", "bridge.py",
           "    check_st_en, check_cor66)}",
           "    check_st_en)}",
           ("tests/test_bridge.py::"
            "test_every_check_function_is_registered_under_its_own_name_in_its_order",),
           "check_cor66 is written but never verified"),
    Mutant("verify-fixes-q", "cli.py",
           "q = args.q if args.q is not None else 2",
           "q = 2",
           ("tests/test_bridge.py::"
            "test_cli_verify_all_at_one_size_runs_the_numeric_checks_at_its_q",),
           "verify runs every numeric check at q = 2, whatever --q says"),
    # a check returns its first witness, and run_check alone writes the report
    Mutant("run-check-keeps-symbolic-q", "bridge.py",
           "return CheckReport(name, n, None, ALL_CHECKS[name](n))",
           "return CheckReport(name, n, q, ALL_CHECKS[name](n))",
           ("tests/test_bridge.py::"
            "test_run_check_writes_every_report_and_a_symbolic_one_has_no_q",),
           "a symbolic check's report keeps the q it was run with"),
    Mutant("prop56-drops-its-part", "bridge.py",
           "return {\"part\": part, **witness}",
           "return witness",
           ("tests/test_bridge.py::test_every_check_fails_on_a_perturbed_side",),
           "check_prop56's witness does not say which identity failed"),
    Mutant("check-gg-skips-divisibility", "bridge.py",
           "return (_scan(_partitions(n), divided, lambda lam: multiple)\n            or ",
           "return (",
           ("tests/test_bridge.py::test_every_check_fails_on_a_perturbed_side",),
           "check_gg compares the images without the scan for a value that is no multiple"),
    Mutant("scan-reports-the-last-failure", "bridge.py",
           "    for item in items:\n",
           "    for item in reversed(list(items)):\n",
           ("tests/test_bridge.py::test_scan_reports_first_failure",),
           "_scan reports the last item whose sides differ"),
    Mutant("nstat-off-by-one", "combinatorics.py",
           "return sum(i * k for i, k in enumerate(lam))",
           "return sum(i * k for i, k in enumerate(lam, 1))",
           (COMBINATORICS_TESTS + "test_nstat",),
           "n(lam) read as sum i*lam_i, one |lam| too many"),
)


def _side(check: str, side: str, old: str, new: str, why: str) -> Mutant:
    """A mutant of one side of a check in bridge.py, which the verify kills."""
    return Mutant(f"{check}-{side}", "bridge.py", old, new, (), why)


# one per side of each check: the verify runs every check at n = 4, q = 3
CHECK_SIDES = (
    _side("check_cqs", "lhs", "induce_to_GL(chi_bar(pi, q))",
          "induce_to_GL(chi_super(pi, q))", "the supercharacter induced in place of chi_bar"),
    _side("check_cqs", "rhs", "eval_t(csf(pi), q).scale((q - 1) ** n *",
          "eval_t(csf(pi), q).scale((q - 1) ** (n - 1) *", "X_gamma times (q-1)^{n-1}"),
    _side("check_hess", "lhs", "induction_table(n, q)[lam], chi_bar(pi, q).values",
          "induction_table(n, q)[lam], chi_super(pi, q).values",
          "the sweep dotted with the supercharacter"),
    _side("check_hess", "rhs", "ut_order(n, q) * (q - 1) ** n",
          "ut_order(n, q) * (q - 1) ** (n - 1)", "the point count times (q-1)^{n-1}"),
    _side("check_poincare", "lhs", "lambda item: q ** len(area(item[0])) * hessenberg_count(",
          "lambda item: hessenberg_count(", "the point count without q^{|E|}"),
    _side("check_poincare", "rhs", "d(item[0]).get(item[1], ZERO)",
          "d(item[0]).get(item[1][::-1], ZERO)", "d_lam read at lam's parts reversed"),
    _side("check_llt", "lhs", "gen_tall_schroder(n),\n                 lambda sigma: "
          "scaled_p_brace1(induce_to_GL(psi_pseudo(sigma, q))),\n                 lambda sigma: "
          "_twist(llt", "gen_tall_schroder(n),\n                 lambda sigma: scaled_p_brace1("
          "induce_to_GL(psi_pseudo(mesa(sigma), q))),\n                 lambda sigma: _twist(llt",
          "psi of the mesa path induced in place of psi^sigma"),
    _side("check_llt", "rhs", "_twist(llt_vertical(sigma), q, len(sigma.D))",
          "_twist(llt_vertical(sigma), q, 0)", "G_sigma twisted without (q-1)^{|Diag|}"),
    _side("check_mesa", "lhs", "lambda pi: psi_pseudo(mesa(pi), q)",
          "lambda pi: psi_pseudo(pi, q)", "psi of the Dyck path, not of its mesa"),
    _side("check_mesa", "rhs", "lambda pi: chi_super(pi, q)",
          "lambda pi: chi_bar(pi, q)", "chi_bar in place of the supercharacter"),
    _side("check_psi_decomp", "lhs", "lambda sigma: psi_pseudo(sigma, q), rhs)",
          "lambda sigma: psi_pseudo(mesa(sigma), q), rhs)", "psi of the mesa path"),
    _side("check_psi_decomp", "rhs", "return {pi.h: chi_super(pi, q).values",
          "return {pi.h: chi_bar(pi, q).values", "chi_bar summed over the interval"),
    _side("check_permtoind", "lhs", "lambda pi: chi_bar(pi, q),",
          "lambda pi: chi_super(pi, q),", "the supercharacter in place of chi_bar"),
    _side("check_permtoind", "rhs", "permutation_character_oracle(pi, q)",
          "permutation_character_oracle(gen_dyck(n)[0], q)",
          "the permutation character of the empty graph"),
    _side("check_as", "lhs", "expand_in_basis(as_expansion(sigma), \"M\"), llt_vertical)",
          "expand_in_basis(as_expansion(mesa(sigma)), \"M\"), llt_vertical)",
          "the orientation expansion of the mesa path"),
    _side("check_as", "rhs", "\"M\"), llt_vertical)",
          "\"M\"), lambda sigma: omega(llt_vertical(sigma)))", "omega G_sigma in place of G_sigma"),
    _side("check_cm", "lhs", ".scale(t_minus_one_power(n))",
          ".scale(t_minus_one_power(n - 1))", "X times (t-1)^{n-1}"),
    _side("check_cm", "rhs", "lambda pi: plethysm_mul(llt_vertical(pi))",
          "lambda pi: plethysm_mul(omega(llt_vertical(pi)))", "the plethysm of omega G_pi"),
    _side("check_palindromic", "lhs", "k=len(area(pi)): c.subs_inv(k)",
          "k=len(area(pi)) + 1: c.subs_inv(k)", "X(x; 1/t) times t^{|E|+1}"),
    _side("check_palindromic", "rhs", "\n                 csf)\n",
          "\n                 lambda gamma: omega(csf(gamma)))\n", "omega X in place of X"),
    _side("check_prop56", "lhs", "lambda c: c.subs_inv(k))", "lambda c: c.subs_inv(k + 1))",
          "part i: G_pi(x; 1/t) times t^{|Area|+1}"),
    _side("check_prop56", "rhs", "lambda pi: omega(llt_vertical(pi))",
          "lambda pi: llt_vertical(pi)", "part i: G_pi in place of omega G_pi"),
    _side("check_gg", "lhs", "SchroderPath(\"E\" + \"D\" * (n - 1) + \"S\")",
          "SchroderPath(\"E\" * n + \"S\" * n)", "the complete graph's path for the staircase"),
    _side("check_gg", "rhs", "SymFunc(n, \"M\", {(1,) * n: ONE})",
          "SymFunc(n, \"M\", {(n,): ONE})", "m_n in place of e_n = m_{1^n}"),
    _side("check_st_en", "lhs", "LaurentPoly.t(n * (n - 1) // 2)",
          "LaurentPoly.t(n * (n + 1) // 2)", "PT_{1^n} times t^{binom(n+1,2)}"),
    _side("check_st_en", "rhs", "SymFunc(n, \"M\", {lam: ONE})",
          "SymFunc(n, \"M\", {(n,): ONE})", "m_n in place of e_n = m_{1^n}"),
    _side("check_cor66", "lhs", "gen_tall_schroder(n),\n                 lambda sigma: "
          "scaled_p_brace1(induce_to_GL(psi_pseudo(sigma, q))),\n                 lambda sigma: "
          "_twist(expand", "gen_tall_schroder(n),\n                 lambda sigma: "
          "scaled_p_brace1(induce_to_GL(psi_pseudo(mesa(sigma), q))),\n                 "
          "lambda sigma: _twist(expand", "psi of the mesa path induced in place of psi^sigma"),
    _side("check_cor66", "rhs", "q,\n                                      len(sigma.D))",
          "q,\n                                      len(area(sigma)))",
          "AS_sigma twisted with (q-1)^{|Area|}"),
)
MUTANTS += CHECK_SIDES


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
    """(pytest's exit code, verify's exit code, the tail of their output) against src;
    no named test is no pytest run, exit code 0."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    pytest = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             "-o", "addopts=", *tests],
                            cwd=ROOT, env=env, capture_output=True, text=True) if tests else None
    verify = subprocess.run([sys.executable, *VERIFY], cwd=os.path.dirname(src), env=env,
                            capture_output=True, text=True)
    out = (pytest.stdout + pytest.stderr).strip().splitlines()[-3:] if pytest else []
    tail = out + verify.stderr.splitlines()[-2:]
    return pytest.returncode if pytest else 0, verify.returncode, "\n".join(tail)


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
    by = [f"{what} (exit {rc})" for what, rc in (("tests", rc_tests), ("verify", rc_verify)) if rc]
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
