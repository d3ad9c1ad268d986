import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm, prod

import pytest

from chromaq.bridge import (
    ALL_CHECKS,
    DEPENDENCIES,
    CheckReport,
    _apply,
    _brace1_coords,
    _omega_p_to_s,
    _p_one_table,
    _unicellular_sum,
    check_as,
    check_cm,
    check_cqs,
    check_gg,
    check_llt,
    check_st_en,
    p_brace1,
    p_one,
    run_check,
)
from chromaq.chromallt import csf, llt_vertical
from chromaq.combinatorics import (
    IndiffGraph,
    SchroderPath,
    area,
    area_inverse,
    diag,
    gen_dyck,
    gen_partitions,
    gen_tall_schroder,
    graph_of,
    indifference_graphs,
    mesa,
)
from chromaq.exactnum import ZERO, LaurentPoly
from chromaq.fqoracle import (
    PRIMES,
    ClassFnUT,
    UnipClassFn,
    chi_bar,
    chi_super,
    induce_to_GL,
    psi_pseudo,
)
from chromaq.guards import SizeGuardError
from chromaq.symfunc import SymFunc, basis_element, eval_t, expand_in_basis, omega, plethysm_mul
from orbit_oracle import coeff
from ratfunc_oracle import cm_lhs, gauss_jordan_m_to_p, plethysm_frac

RF = LaurentPoly.const
T = LaurentPoly.t()


def eval_plethysm_frac(F, q):
    """F[x/(t-1)] at t = q, through the rational-function oracle, in basis P."""
    return SymFunc(F.degree, "P", {lam: c.evaluate(q) for lam, c in plethysm_frac(F).items()})


# -- the symbolic realization maps, kept as the oracle for the path over Q --------

@lru_cache(maxsize=None)
def symbolic_pt_at_q(lam, q):
    return eval_t(basis_element("PT", lam), Fraction(q))


def symbolic_p_brace1(phi):
    acc = SymFunc(phi.n, "M", {})
    for lam, v in phi.items():
        if v:
            acc = acc + symbolic_pt_at_q(lam, phi.q).scale(RF(v))
    return acc


def symbolic_p_one(phi):
    F = expand_in_basis(symbolic_p_brace1(phi), "P")
    F = eval_plethysm_frac(F, Fraction(phi.q))
    return expand_in_basis(omega(F), "S")


def three_step_p_one(phi):
    """p_one of one class function over Q, step by step: p_brace1 in P through the
    Gauss-Jordan m -> p table, each p_lam divided by prod (q^{lam_i} - 1), then
    omega and the change to S."""
    q = phi.q
    F = _apply(_brace1_coords(phi), gauss_jordan_m_to_p(phi.n))
    F = {lam: Fraction(c, prod(q ** k - 1 for k in lam)) for lam, c in F.items()}
    return SymFunc(phi.n, "S", _apply(F, _omega_p_to_s(phi.n)))


DEFAULT_GRID = [(n, q) for q in (2, 3) for n in (1, 2, 3)]


def test_p_one_and_p_brace1_match_the_symbolic_oracle():
    # both maps are linear, so the indicator of each Jordan type pins them;
    # the induced chi_bar add values that are not 0 or 1
    for n, q in DEFAULT_GRID + [(4, 2)]:
        phis = [UnipClassFn.from_dict(n, q, {lam: 1}) for lam in gen_partitions(n)]
        phis += [induce_to_GL(chi_bar(g, q)) for g in indifference_graphs(n)]
        for phi in phis:
            assert p_brace1(phi) == symbolic_p_brace1(phi), (n, q, phi)
            assert p_one(phi) == symbolic_p_one(phi), (n, q, phi)


def test_p_one_table_matches_the_three_steps_row_by_row():
    # D = n! q^N lcm prod (q^{mu_i} - 1), N the largest power of 1/q in the PT table
    for q in PRIMES:
        for n in range(6):
            D, table = _p_one_table(n, q)
            N = max([0] + [-c.low for lam in gen_partitions(n)
                           for c in basis_element("PT", lam).coeffs.values()])
            dens = [prod(q ** k - 1 for k in mu) for mu in gen_partitions(n)]
            assert D == factorial(n) * q ** N * lcm(*dens), (n, q)
            assert list(table) == gen_partitions(n)
            for lam, row in table.items():
                assert all(type(v) is int and v for v in row.values()), (n, q, lam)
                phi = UnipClassFn.from_dict(n, q, {lam: 1})
                want = three_step_p_one(phi)
                assert SymFunc(n, "S", {nu: Fraction(v, D) for nu, v in row.items()}) == want, (n, q, lam)
                if n <= 3 and q <= 3:
                    assert want == symbolic_p_one(phi), (n, q, lam)


def test_a_wrong_p_one_numerator_fails_check_llt_with_a_non_integral_witness(monkeypatch):
    # every tall path's induced character is nonzero at the identity, whose row
    # gets 1 more in one numerator: that coordinate moves by phi(1^3) / D
    import chromaq.bridge as bridge
    D, table = _p_one_table(3, 2)
    ones = (1, 1, 1)
    wrong = {lam: dict(row) for lam, row in table.items()}
    wrong[ones][ones] += 1
    monkeypatch.setattr(bridge, "_p_one_table",
                        lambda n, q: (D, wrong) if (n, q) == (3, 2) else _p_one_table(n, q))
    p_one.cache_clear()
    try:
        rep = check_llt(3, 2)
    finally:
        p_one.cache_clear()
    # the first path's character is 21 at the identity: s_(1^3) gains 21/1008
    assert D == 1008 and not rep.ok
    assert rep.witness == {"index": "EDDS", "lhs": "(1)*s[3] + (1/48)*s[1, 1, 1]", "rhs": "(1)*s[3]"}


# -- p_brace1 -----------------------------------------------------------------

def test_p_brace1_column_indicator():
    # indicator of the identity class maps to q^{-binom(n,2)} e_n
    for n, q in [(2, 2), (3, 2), (3, 3)]:
        phi = UnipClassFn.from_dict(n, q, {tuple([1] * n): Fraction(1)})
        f = p_brace1(phi)
        want = basis_element("E", (n,)).scale(RF(Fraction(1, q ** (n * (n - 1) // 2))))
        assert f == want


def test_p_brace1_zero():
    phi = UnipClassFn.from_dict(3, 2, {})
    assert p_brace1(phi).is_zero


def test_p_brace1_linear():
    q = 2
    a = induce_to_GL(chi_bar(IndiffGraph(3, frozenset({(1, 2)})), q))
    b = induce_to_GL(chi_bar(IndiffGraph(3, frozenset()), q))
    combo = a.scale(Fraction(3, 5)) + b.scale(-2)
    lhs = p_brace1(combo)
    rhs = p_brace1(a).scale(RF(Fraction(3, 5))) + p_brace1(b).scale(RF(-2))
    assert lhs == rhs


# -- p_one ---------------------------------------------------------------------

def test_p_one_two_code_paths_agree():
    # omega and the plethystic substitution both act diagonally on power sums,
    # so applying them in either order must give the same Schur expansion
    q = 2
    for gamma in indifference_graphs(3):
        phi = induce_to_GL(chi_bar(gamma, q))
        a = p_one(phi)
        F = expand_in_basis(p_brace1(phi), "P")
        F = omega(F)
        F = eval_plethysm_frac(F, Fraction(q))
        b = expand_in_basis(F, "S")
        assert a == b


def test_p_one_linear():
    q = 3
    a = induce_to_GL(chi_bar(IndiffGraph(2, frozenset({(1, 2)})), q))
    b = induce_to_GL(chi_bar(IndiffGraph(2, frozenset()), q))
    combo = a.scale(2) + b.scale(Fraction(1, 7))
    lhs = p_one(combo)
    want = {}
    fa, fb = p_one(a), p_one(b)
    for lam in gen_partitions(2):
        want[lam] = coeff(fa, lam) * RF(2) + coeff(fb, lam) * RF(Fraction(1, 7))
    assert {k: v for k, v in want.items() if not v.is_zero} == lhs.coeffs


def test_p_one_schur_coefficients_are_nonneg_integers():
    # observed: induced pseudosupercharacters have genuine unipotent constituents
    for q in (2, 3):
        for sigma in gen_tall_schroder(3):
            F = p_one(induce_to_GL(psi_pseudo(sigma, q)))
            for lam, c in F.coeffs.items():
                assert c.low == 0 and len(c.coeffs) <= 1
                val = c.evaluate(0)
                assert val.denominator == 1 and val >= 0


# -- the check family -----------------------------------------------------------

def test_all_checks_pass_n2():
    for name in ALL_CHECKS:
        rep = run_check(name, 2, 2)
        assert rep.ok, (name, rep.witness)
        assert rep.witness is None


def test_check_llt_n3_q3():
    assert check_llt(3, 3).ok


def test_check_gg_n2_q3():
    assert check_gg(2, 3).ok


def test_check_gg_is_refused_before_the_pseudosupercharacter_terms(monkeypatch):
    # the staircase of size n has n - 1 D steps, 2^{n-1} terms, each an IndiffGraph
    import chromaq.fqoracle as fq

    def no_term(*args):
        raise AssertionError("a term was built before the graphs on [n] were bounded")

    monkeypatch.setattr(fq, "IndiffGraph", no_term)
    with pytest.raises(SizeGuardError, match="gen_dyck: n = 21 exceeds guard 8"):
        check_gg(21, 2)


def test_induction_checks_at_n4_q3_and_n3_q5():
    # one UT_n sweep: |UT_4(F_3)| = 729 and |UT_3(F_5)| = 125 elements
    assert check_cqs(4, 3).ok
    assert check_cqs(3, 5).ok
    assert check_gg(4, 3).ok


def test_check_st_en_n5():
    assert check_st_en(5).ok


def test_check_st_en_runs_to_the_table_guard(monkeypatch):
    # the degree-14 Hall-Littlewood table has p(14)^2 = 18,225 cells; p(18)^2 =
    # 148,225 are past MAX_SWEEP and refused before the tableau build starts
    import chromaq.symfunc as symfunc
    assert check_st_en(14).ok

    def no_build(d):
        raise AssertionError("the Hall-Littlewood table was built before its guard")

    monkeypatch.setattr(symfunc, "_hall_littlewood_coords", no_build)
    with pytest.raises(SizeGuardError, match="the 385\\^2 cells of the degree-18 PT table visits 148,225"):
        check_st_en(18)


def test_check_st_en_refuses_on_partition_counts_before_listing_any(monkeypatch):
    # p(46) = 105,558 partitions are admitted, but their table is not: the
    # refusal reads p(d) off the pentagonal recurrence and lists no partition
    import chromaq.combinatorics as combinatorics
    import chromaq.symfunc as symfunc

    def no_listing(n):
        raise AssertionError(f"the partitions of {n} were listed before the guard")

    for module in (combinatorics, symfunc):
        monkeypatch.setattr(module, "_partitions", no_listing)
    with pytest.raises(SizeGuardError, match="the 105558\\^2 cells of the degree-46 PT table visits "
                                             "11,142,491,364 elements"):
        check_st_en(46)
    with pytest.raises(SizeGuardError, match="sweeping the partitions of 47 visits 124,754 elements"):
        basis_element("M", (47,))


def test_check_report_shape():
    rep = check_cqs(2, 2)
    d = rep.to_json()
    assert set(d) == {"check", "n", "q", "status", "witness"}
    assert d["status"] == "pass" and d["witness"] is None


def test_fail_requires_witness():
    with pytest.raises(AssertionError):
        CheckReport("check_x", 1, None, "fail")


def _fresh_python(*args: str, timeout: int = 60) -> subprocess.CompletedProcess:
    """Run `python *args` in a new interpreter that imports the package under
    test, with stdout and stderr captured through pipes."""
    import chromaq
    src = os.path.dirname(os.path.dirname(chromaq.__file__))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)


def test_tripwire_survives_optimized_mode():
    code = ("assert False, 'python -O strips this'\n"
            "from chromaq.bridge import CheckReport\n"
            "CheckReport('check_x', 1, None, 'fail')\n")
    proc = _fresh_python("-O", "-c", code)
    assert proc.returncode == 1
    assert "AssertionError: a failing report needs a witness" in proc.stderr


def test_no_assert_statements_in_the_package():
    # tripwires must raise: python -O strips every assert statement
    import ast
    import pathlib

    import chromaq
    found = []
    for path in sorted(pathlib.Path(chromaq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_size_knobs_are_exactly_these():
    # one bound for every brute-force sweep; a new MAX_* has to be added here on purpose
    import ast
    import pathlib

    import chromaq
    found = set()
    for path in sorted(pathlib.Path(chromaq.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            found.update(t.id for t in targets
                         if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
    assert found == {"MAX_SWEEP", "MAX_PATH_N"}


def test_every_top_level_name_of_the_package_is_named_in_the_package():
    # a helper that only the tests call belongs in tests/, beside its oracle:
    # each top-level function and class is named in the package off its own def line
    import ast
    import pathlib
    import re

    import chromaq
    words, defs = Counter(), []
    for path in sorted(pathlib.Path(chromaq.__file__).parent.glob("*.py")):
        text = path.read_text()
        words.update(re.findall(r"\w+", text))
        lines = text.splitlines()
        defs += [(path.name, node.name, re.findall(r"\w+", lines[node.lineno - 1]).count(node.name))
                 for node in ast.parse(text, filename=str(path)).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert [f"{file}:{name}" for file, name, own in defs if words[name] == own] == []


def _package_imports():
    """(file name, line, top-level module) of every import statement in the package."""
    import ast
    import pathlib

    import chromaq
    for path in sorted(pathlib.Path(chromaq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            for m in names:
                yield path.name, node.lineno, m.split(".")[0]


def test_the_package_never_imports_dataclasses():
    # `import dataclasses` pulls in inspect, ast, dis and tokenize: ~10 ms of every cold start
    assert [f"{f}:{line}" for f, line, m in _package_imports() if m == "dataclasses"] == []


def test_cold_import_of_the_cli_loads_neither_dataclasses_nor_inspect():
    # nor argparse with gettext: about 3 ms to import and 3 ms to build a parser;
    # nor fractions, which brings decimal and numbers: about 3.5 ms
    code = ("import sys\n"
            "import chromaq.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'argparse', 'gettext',\n"
            "                         'fractions', 'decimal', 'numbers')\n"
            "             if m in sys.modules))\n")
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_symbolic_compute_verbs_never_load_fractions():
    # Their values lie in Z[t], so `_div` keeps every quotient an int. The
    # modules listed first are the ones perfbench/tracer.py reads from
    # sys.modules right after `import chromaq.cli`: deferring any of them
    # would make `perfbench/run.py --trace 1` fail with a KeyError.
    code = ("import contextlib, io, sys\n"
            "from chromaq.cli import main\n"
            "mods = ('cli', 'bridge', 'fqoracle', 'chromallt', 'symfunc', 'combinatorics',\n"
            "        'exactnum')\n"
            "print([m for m in mods if f'chromaq.{m}' not in sys.modules])\n"
            "print(hasattr(sys.modules['chromaq.exactnum'], 'RationalFunc'))\n"
            "for argv in (['csf', 'EESESESESESS'], ['llt', 'EEDSESESESS'],\n"
            "             ['as-expand', 'EEDSESESESS'], ['d-coeffs', 'EESESESESESS'],\n"
            "             ['e-expand', 'EESESESESESS']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(['compute', *argv]) == 0, argv\n"
            "from chromaq.exactnum import LaurentPoly\n"
            "try:\n"
            "    LaurentPoly([1.5])\n"
            "except TypeError:\n"
            "    print('float refused')\n"
            "print(sorted(m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules))\n")
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True", "float refused", "[]"]


def test_a_passing_verify_run_never_loads_fractions():
    # p_brace1 and p_one read integer tables and divide once, exactly, and
    # evaluate returns an int when the value is one
    code = ("import contextlib, io, sys\n"
            "from chromaq.cli import main\n"
            "for argv in (['verify', 'all', '--json'], ['verify', 'all', '--n', '4', '--q', '3', '--json']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    print(sorted(m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules))\n")
    proc = _fresh_python("-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_only_the_cli_imports_gc_or_atexit():
    # the exit hook is a process-wide side effect: the library modules make none
    found = sorted(f"{f}:{m}" for f, _, m in _package_imports() if m in ("gc", "atexit"))
    assert found == ["cli.py:atexit", "cli.py:gc"]


def test_a_fresh_cli_process_freezes_the_collector_at_exit():
    # atexit runs its hooks last in, first out: this probe, registered before
    # the import, runs after the hook of chromaq.cli
    code = ("import atexit, gc\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "from chromaq.cli import main\n"
            "main(['verify', 'check_st_en', '--n', '3'])\n")
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["PASS check_st_en (n=3)", "1/1 checks passed",
                                        "frozen True"]


def test_main_in_process_leaves_the_collector_as_it_was(capsys):
    import gc

    import chromaq.cli as cli
    before = gc.get_freeze_count()
    assert cli.main(["verify", "check_st_en", "--n", "3"]) == 0
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out.endswith("1/1 checks passed\n")


def test_piped_output_of_a_fresh_process_is_whole():
    # stdout is a block-buffered pipe here, flushed after the exit hook
    proc = _fresh_python("-m", "chromaq.cli", "verify", "all", "--json")
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    assert len(reports) == 76 and all(r["status"] == "pass" for r in reports)
    from chromaq.chromallt import as_expansion
    proc = _fresh_python("-m", "chromaq.cli", "compute", "as-expand", "EEDSS")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == as_expansion(SchroderPath("EEDSS")).to_json()


def test_a_fresh_process_exits_one_on_a_failing_check_and_two_on_a_refusal():
    code = ("import sys\n"
            "import chromaq.cli as cli\n"
            "from chromaq.bridge import CheckReport\n"
            "cli.run_check = lambda name, n, q: CheckReport(\n"
            "    name, n, q, 'fail', {'index': 'x', 'lhs': '0', 'rhs': '1'})\n"
            "sys.exit(cli.main(['verify', 'check_cqs', '--n', '2', '--q', '2']))\n")
    proc = _fresh_python("-c", code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("FAIL check_cqs (n=2, q=2)\n")
    proc = _fresh_python("-m", "chromaq.cli", "verify", "check_as", "--n", "8")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: sweeping the orientations of the tall paths of size 8 "
                           "visits 268,435,456 elements, past the bound MAX_SWEEP = 117,649\n")
    # refused on the call: 3^11 = 177,147 color classes, which the kernel would take
    # about 0.3 s over, and the Springer fibres of F_3^6, before any walk; a power
    # count is refused on its exponent, a partition count and a fibre sum after a
    # few terms of a sequence that bounds them from below
    for argv, what in [
        (["compute", "csf", '{"n": 11, "edges": []}'], "the color classes of [11] visits 177,147"),
        (["compute", "hess-count", "EEEEEESSSSSS", "--q", "3", "--jordan-type", "2,1,1,1,1"],
         "the Springer fibres of F_3^6 visits 1,226,512"),
        (["compute", "csf", '{"n": 10000000, "edges": []}'],
         "the color classes of [10000000] visits at least 2^10,000,000"),
        (["compute", "superclass-sizes", "--n", "10000", "--q", "7"],
         "UT_10000(F_7) visits at least 2^99,990,000"),
        (["verify", "check_st_en", "--n", "18"],
         "the 385^2 cells of the degree-18 PT table visits 148,225"),
        (["verify", "check_st_en", "--n", "40"],
         "the 37338^2 cells of the degree-40 PT table visits 1,394,126,244"),
        (["verify", "check_st_en", "--n", "46"],
         "the 105558^2 cells of the degree-46 PT table visits 11,142,491,364"),
        (["verify", "check_st_en", "--n", "1000000"], "the partitions of 1000000 visits at least 124,754"),
        (["verify", "check_hess", "--n", "46", "--q", "2"],
         "the Springer fibres of F_2^46 visits at least 3,134,565"),
    ]:
        start = time.perf_counter()
        proc = _fresh_python("-m", "chromaq.cli", *argv)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: sweeping {what} elements, past the bound MAX_SWEEP = 117,649\n"
        assert elapsed < 0.5, (argv, elapsed)
    # the 2^20 terms of the staircase's pseudosupercharacter wait for the graphs on [21]
    start = time.perf_counter()
    proc = _fresh_python("-m", "chromaq.cli", "verify", "check_gg", "--n", "21", "--q", "2")
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (2, "error: gen_dyck: n = 21 exceeds guard 8\n")
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("check, n", [("check_palindromic", 7), ("check_cm", 6)])
def test_symbolic_checks_reach_past_the_default_grid(check, n):
    # each about half a second in a fresh process on a 2-core host; a kernel
    # that walks every coloring takes about 12 s and 1.7 s, and --durations shows it
    proc = _fresh_python("-m", "chromaq.cli", "verify", check, "--n", str(n), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"PASS {check} (n={n}")


def test_every_sweep_is_refused_past_the_bound_before_any_work(monkeypatch):
    import chromaq.chromallt
    import chromaq.fqoracle
    import chromaq.symfunc
    import matrix_oracle
    import orientation_oracle
    from chromaq.chromallt import as_expansion
    from chromaq.fqoracle import (
        _Packed,
        chi_bar,
        hessenberg_count,
        induce_to_GL,
        superclass_sizes,
        ut_elements,
        ut_order,
    )
    from chromaq.guards import MAX_SWEEP
    from matrix_oracle import (
        coset_permutation_character,
        flag_reps,
        flag_rows,
        gl_matrices,
        hessenberg_sweep,
        pack,
        ut_rows,
    )
    from orientation_oracle import orientations

    # the bound is |UT_4(F_7)|, so that sweep still runs
    assert ut_order(4, 7) == MAX_SWEEP
    assert next(ut_elements(4, 7)) == pack(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert 2 ** 16 <= MAX_SWEEP < 2 ** 17
    # past the packed kernel's carry bound, n(q-1)^2 > 255, the sweeps' guards refuse first
    for n, q in ((8, 7), (16, 5)):
        with pytest.raises(OverflowError, match="would carry"):
            _Packed(n, q)

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started before its guard")

    # each enumerator builds its elements through these names
    monkeypatch.setattr(chromaq.fqoracle, "product", no_work)
    monkeypatch.setattr(chromaq.fqoracle, "jordan_nilpotent", no_work)
    monkeypatch.setattr(matrix_oracle, "product", no_work)
    monkeypatch.setattr(matrix_oracle, "permutations", no_work)
    monkeypatch.setattr(chromaq.chromallt, "_h_vector", no_work)
    monkeypatch.setattr(chromaq.chromallt, "_slot_bits", no_work)
    monkeypatch.setattr(chromaq.symfunc, "_m_coords", no_work)
    monkeypatch.setattr(chromaq.symfunc, "_invert", no_work)
    monkeypatch.setattr(orientation_oracle, "Orientation", no_work)
    # 17 edges on [7]: every {i, j} with j - i <= 3, and {1, 5}, {2, 6}
    g17 = IndiffGraph(7, frozenset([(i, j) for i in range(1, 8) for j in range(i + 1, min(i + 4, 8))]
                                   + [(1, 5), (2, 6)]))
    assert len(g17.edges) == 17
    staircase = SchroderPath("E" * 7 + "S" * 7)
    assert len(area(staircase)) == 21
    # the sweeps and walks of the package and of the oracles refuse on the call,
    # before any generator is made
    refused = [
        (lambda: ut_elements(5, 5), "9,765,625"),
        (lambda: gl_matrices(3, 5), "1,488,000"),
        (lambda: flag_reps(5, 3), "251,680"),
        (lambda: next(ut_rows(5, 5)), "9,765,625"),
        (lambda: next(flag_rows(5, 3)), "251,680"),
        (lambda: induce_to_GL(chi_bar(IndiffGraph(8, []), 7)), f"{ut_order(8, 7):,}"),
        (lambda: superclass_sizes(8, 7), f"{ut_order(8, 7):,}"),
        (lambda: superclass_sizes(16, 5), f"{ut_order(16, 5):,}"),
        (lambda: coset_permutation_character(IndiffGraph(8, []), 7), f"{ut_order(8, 7):,}"),
        (lambda: coset_permutation_character(IndiffGraph(16, []), 5), f"{ut_order(16, 5):,}"),
        (lambda: hessenberg_sweep(IndiffGraph(5, []), (2, 1, 1, 1), 3), "251,680"),
        # the Springer fibres of F_3^6 and F_2^7, walked for every lam but 1^6 and 1^7
        (lambda: hessenberg_count(IndiffGraph(6, []), (2, 1, 1, 1, 1), 3), "1,226,512"),
        (lambda: hessenberg_count(IndiffGraph(7, []), (7,), 2), "3,605,290"),
        (lambda: orientations(g17), "131,072"),
        (lambda: as_expansion(area_inverse(g17.edges, 7).as_schroder()), "131,072"),
        (lambda: as_expansion(staircase), "2,097,152"),
        # 3^11 color classes, and p(11)^3 Gauss-Jordan or substitution steps for any change of basis
        (lambda: csf(IndiffGraph(11, [])), "177,147"),
        (lambda: llt_vertical(SchroderPath("ES" * 11)), "177,147"),
        (lambda: expand_in_basis(SymFunc(11, "M", {(11,): 1}), "S"), "175,616"),
        (lambda: expand_in_basis(SymFunc(11, "M", {(11,): 1}), "P"), "175,616"),
        (lambda: omega(SymFunc(11, "M", {(11,): 1})), "175,616"),
    ]
    tables = chromaq.symfunc._from_monomials.cache_info().currsize
    for call, count in refused:
        with pytest.raises(SizeGuardError,
                           match=f"visits {count} elements, past the bound MAX_SWEEP = 117,649"):
            call()
    assert chromaq.symfunc._from_monomials.cache_info().currsize == tables  # no table was kept
    # chi_bar on [16] needs the Cat(16) graphs first, and their enumeration refuses
    with pytest.raises(SizeGuardError, match="gen_dyck: n = 16 exceeds guard"):
        induce_to_GL(chi_bar(IndiffGraph(16, []), 5))


def test_the_default_suite_makes_twelve_sweeps(monkeypatch):
    # one UT_n sweep for induction and one Springer-fibre walk per Jordan type
    # lam != 1^n per (n, q) of the default grid, n in {1, 2, 3} and q in {2, 3}:
    # all gamma of a point share them, and check_permtoind sweeps nothing
    import chromaq.fqoracle as fq
    from chromaq.cli import _default_suite
    sweep, swept = fq.ut_elements, []

    def recording(n, q):
        swept.append((n, q))
        return sweep(n, q)

    monkeypatch.setattr(fq, "ut_elements", recording)
    for cached in (fq.induce_to_GL, fq.induction_table, fq._springer_fibre):
        cached.cache_clear()
    assert all(run_check(name, n, q).status == "pass" for name, n, q in _default_suite(False))
    assert sorted(swept) == sorted(DEFAULT_GRID)
    assert fq._springer_fibre.cache_info().misses == 6
    assert fq._springer_fibre.cache_info().currsize == 6


def test_the_default_suite_builds_each_pseudosupercharacter_once():
    # check_llt, check_psi_decomp, check_cor66 and check_gg read 30 distinct (sigma, q)
    import chromaq.fqoracle as fq
    from chromaq.cli import _default_suite
    fq.psi_pseudo.cache_clear()
    assert all(run_check(name, n, q).status == "pass" for name, n, q in _default_suite(False))
    assert fq.psi_pseudo.cache_info().misses == 30


def test_the_default_suite_induces_and_maps_each_class_function_once(monkeypatch):
    # induce_to_GL and p_one are keyed by the class function's value: check_llt,
    # check_cor66 and check_gg share their images, and so do check_cqs and
    # check_hess. Without the caches the suite makes 98 and 66 calls
    import chromaq.bridge as bridge
    import chromaq.fqoracle as fq
    from chromaq.cli import _default_suite
    fq.induce_to_GL.cache_clear()
    bridge.p_one.cache_clear()
    assert all(run_check(name, n, q).status == "pass" for name, n, q in _default_suite(False))
    assert fq.induce_to_GL.cache_info().misses == 30
    assert bridge.p_one.cache_info().misses == 26
    # with both caches full, a perturbed class function is a new key, so the
    # perturbed side still fails at its item
    sides = [s for s in _PERTURBED_SIDES if s[0] in ("check_llt", "check_cor66", "check_cqs")]
    assert len(sides) == 6
    for side in sides:
        _fails_at_the_perturbed_item(monkeypatch, *side)


def test_gl_checks_reach_n_5_at_q_2():
    # the UT_5(F_2) sweep is 1,024 elements
    from chromaq.fqoracle import superclass_sizes, ut_order
    for name in ("check_cqs", "check_llt", "check_gg", "check_mesa", "check_psi_decomp",
                 "check_cor66", "check_hess", "check_poincare", "check_permtoind"):
        assert run_check(name, 5, 2).ok, name
    assert sum(superclass_sizes(5, 2).values()) == ut_order(5, 2) == 1024


def test_only_exactnum_mentions_rationalfunc():
    # RationalFunc is a test oracle: the package computes over LaurentPoly
    import ast
    import pathlib

    import chromaq
    found = []
    for path in sorted(pathlib.Path(chromaq.__file__).parent.glob("*.py")):
        if path.name == "exactnum.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "RationalFunc":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert found == []


def test_cached_csf_and_llt_results_cannot_be_changed():
    # csf and llt_vertical hand the same object to every caller
    g = IndiffGraph(3, frozenset({(1, 2), (2, 3)}))
    sigma = gen_tall_schroder(3)[1]
    assert csf(g) is csf(IndiffGraph(3, frozenset({(2, 3), (1, 2)})))
    assert llt_vertical(sigma) is llt_vertical(gen_tall_schroder(3)[1])
    for F in (csf(g), llt_vertical(sigma)):
        before = F.to_json()
        mu = next(iter(F.coeffs))
        with pytest.raises(TypeError):
            F.coeffs[mu] = RF(7)
        with pytest.raises(TypeError):
            del F.coeffs[mu]
        for attr in ("degree", "basis", "coeffs"):
            with pytest.raises(AttributeError):
                setattr(F, attr, getattr(F, attr))
        for method in ("clear", "pop", "update", "setdefault"):
            assert not hasattr(F.coeffs, method), method
        with pytest.raises(AttributeError):
            F.coeffs[mu].coeffs = ()
        copy = dict(F.coeffs)
        copy.clear()
        F.scale(2), F + F, F.map_coeffs(lambda c: c * T), omega(F)
        assert F.to_json() == before


def test_scan_reports_first_failure():
    from chromaq.bridge import _scan
    rep = _scan("check_x", 3, 2, [1, 2, 3], lambda k: (k != 2, f"L{k}", f"R{k}"))
    assert not rep.ok
    assert rep.witness == {"index": "2", "lhs": "L2", "rhs": "R2"}


def test_scan_renders_only_the_failing_sides():
    from chromaq.bridge import _scan
    rendered = []

    class Side:
        def __init__(self, k, name):
            self.k, self.name = k, name

        def __str__(self):
            if self.k != 3:
                raise AssertionError(f"item {self.k} passed and must not be rendered")
            rendered.append(self.name)
            return f"{self.name}{self.k}"

    rep = _scan("check_x", 3, 2, [1, 2, 3, 4], lambda k: (k < 3, Side(k, "L"), Side(k, "R")))
    assert rep.witness == {"index": "3", "lhs": "L3", "rhs": "R3"}
    assert rendered == ["L", "R"]
    assert _scan("check_x", 3, 2, [1, 2], lambda k: (True, Side(k, "L"), Side(k, "R"))).ok


def test_class_function_text_lists_the_nonzero_values():
    # the witness text of check_mesa and check_psi_decomp
    empty, edge = IndiffGraph(2, []), IndiffGraph(2, [(1, 2)])
    assert str(ClassFnUT.from_dict(2, 2, {empty: 0, edge: -3})) == "{'IG(n=2, edges=[(1, 2)])': '-3'}"
    assert str(ClassFnUT.from_dict(2, 2, {})) == "{}"
    assert str(UnipClassFn.from_dict(2, 3, {(1, 1): 2})) == "{'(1, 1)': '2'}"


def test_dependencies_declared():
    assert DEPENDENCIES["check_cor66"] == ("check_llt", "check_as")


def test_run_check_unknown():
    with pytest.raises(ValueError):
        run_check("check_nonsense", 2, 2)


def test_run_check_guard_propagates():
    # |UT_5(F_5)| = 9,765,625 elements, past MAX_SWEEP
    with pytest.raises(SizeGuardError):
        run_check("check_cqs", 5, 5)


# -- check_cm against its original form -------------------------------------------

def test_check_cm_agrees_with_the_old_form_through_plethysm_frac():
    # old: (t-1)^n X[x/(t-1)] = G over Q(t); new: (t-1)^n X = G[(t-1)x] over Q[t, 1/t]
    for n in range(1, 5):
        assert check_cm(n).ok, n
        for pi in gen_dyck(n):
            old = cm_lhs(pi)
            assert old == llt_vertical(pi.as_schroder()).coeffs, pi
            back = plethysm_mul(expand_in_basis(SymFunc(n, "M", old), "P"))
            assert expand_in_basis(back, "M") == csf(graph_of(pi)).scale((T - 1) ** n), pi


def _unicellular_sum_by_addition(sigma):
    """check_prop56(ii)'s old right side: one SymFunc added per subset of Diag."""
    n, a, d = sigma.size, area(sigma), sorted(diag(sigma))
    rhs = SymFunc(n, "M", {})
    for mask in product((0, 1), repeat=len(d)):
        s = frozenset(e for e, m in zip(d, mask) if m)
        sign = (-1) ** (len(d) - len(s))
        rhs = rhs + llt_vertical(area_inverse(a | s, n).as_schroder()).scale(sign)
    return rhs


def test_unicellular_sum_matches_the_symfunc_by_symfunc_sum():
    for n in range(6):
        for sigma in gen_tall_schroder(n):
            assert _unicellular_sum(sigma) == _unicellular_sum_by_addition(sigma), sigma


def test_check_cm_divides_by_nothing(monkeypatch):
    # both sides are scaled by n!, so check_cm never reaches bridge's one division
    import chromaq.bridge as bridge

    def no_division(*args):
        raise AssertionError("check_cm divided")

    monkeypatch.setattr(bridge, "_div", no_division)
    for n in range(6):
        assert check_cm(n).ok, n


def test_check_cm_fails_on_a_perturbed_llt(monkeypatch):
    import chromaq.bridge as bridge
    target = gen_dyck(3)[2]

    def perturbed(path):
        G = llt_vertical(path)
        if path == target.as_schroder():
            G = G + SymFunc(3, "M", {(2, 1): T})
        return G

    monkeypatch.setattr(bridge, "llt_vertical", perturbed)
    rep = check_cm(3)
    assert not rep.ok and rep.witness["index"] == str(target)
    assert rep.witness["lhs"] != rep.witness["rhs"]
    monkeypatch.undo()
    assert check_cm(3).ok


def _fails_at_the_perturbed_item(monkeypatch, check, kernel, hit, change, index, q=2, part=None):
    """check(3, q) fails first at index once kernel's output is changed where hit
    holds (under part, for check_prop56), and passes again after undo."""
    import chromaq.bridge as bridge
    original = getattr(bridge, kernel)

    def perturbed(*args):
        out = original(*args)
        return change(out) if hit(*args) else out

    monkeypatch.setattr(bridge, kernel, perturbed)
    rep = run_check(check, 3, q)
    assert rep.status == "fail" and rep.witness["index"] == str(index)
    assert rep.witness["lhs"] != rep.witness["rhs"]
    assert rep.witness.get("part") == part
    monkeypatch.undo()
    assert run_check(check, 3, q).status == "pass"


# each side of the sweep-fed and supercharacter checks, perturbed at one item in
# the middle of the scan at (3, 2): the graph G = indifference_graphs(3)[2], the
# type L = (2, 1), the Dyck path P = gen_dyck(3)[2] with graph_of(P) = G, and the
# tall path S = gen_tall_schroder(3)[5] of 11
_G = indifference_graphs(3)[2]
_L = gen_partitions(3)[1]
_P = gen_dyck(3)[2]
_S = gen_tall_schroder(3)[5]
_BUMP_G = ClassFnUT.from_dict(3, 2, {_G: 1})
# chi^{2-3} enters the right side of check_psi_decomp first at EEESSS (item 4),
# the first tall path with Diag <= {2-3} <= Area u Diag
_G23 = IndiffGraph(3, [(2, 3)])


@pytest.mark.parametrize("check, kernel, hit, change, index", [
    ("check_hess", "induce_to_GL", lambda phi: phi == chi_bar(_G, 2),
     lambda f: f + UnipClassFn.from_dict(3, 2, {_L: 1}), (_G, _L)),
    ("check_hess", "hessenberg_count", lambda g, lam, q: (g, lam) == (_G, _L),
     lambda c: c + 1, (_G, _L)),
    ("check_poincare", "hessenberg_count", lambda g, lam, q: (g, lam) == (_G, _L),
     lambda c: c + 1, (_G, _L)),
    ("check_poincare", "d_coeffs", lambda g: g == _G,
     lambda d: {**d, _L: d.get(_L, ZERO) + 1}, (_G, _L)),
    ("check_permtoind", "chi_bar", lambda g, q: g == _G, lambda f: f + _BUMP_G, _G),
    ("check_permtoind", "permutation_character_oracle", lambda g, q: g == _G,
     lambda f: f + _BUMP_G, _G),
    ("check_mesa", "psi_pseudo", lambda s, q: s == mesa(_P), lambda f: f + _BUMP_G, _P),
    ("check_mesa", "chi_super", lambda g, q: g == _G, lambda f: f + _BUMP_G, _P),
    ("check_psi_decomp", "psi_pseudo", lambda s, q: s == _S, lambda f: f + _BUMP_G, _S),
    ("check_psi_decomp", "chi_super", lambda g, q: g == _G23, lambda f: f + _BUMP_G,
     SchroderPath("EEESSS")),
])
def test_sweep_fed_checks_fail_on_a_perturbed_side(monkeypatch, check, kernel, hit, change, index):
    _fails_at_the_perturbed_item(monkeypatch, check, kernel, hit, change, index)


def _bump(f):
    """f plus t times its basis element at (2, 1)."""
    return f + SymFunc(f.degree, f.basis, {(2, 1): T})


# the other nine checks, each side perturbed at one item of its scan: at (3, 2),
# except the divisibility of check_gg, which (q - 1)^{n-1} = 1 cannot break at
# q = 2; _S = EESDS has Diag {2-3}, so part i of check_prop56 never reads it.
# The p_one side of check_cor66 is perturbed through psi_pseudo: p_one itself
# sees only the induced function, which EDESS and EESDS share
_PERTURBED_SIDES = [
    ("check_cqs", "chi_bar", lambda g, q: g == _G, lambda f: f + _BUMP_G, _G, 2, None),
    ("check_cqs", "csf", lambda g: g == _G, _bump, _G, 2, None),
    ("check_llt", "psi_pseudo", lambda s, q: s == _S, lambda f: f + _BUMP_G, _S, 2, None),
    ("check_llt", "llt_vertical", lambda path: path == _S, _bump, _S, 2, None),
    ("check_as", "as_expansion", lambda s: s == _S, _bump, _S, 2, None),
    ("check_as", "llt_vertical", lambda path: path == _S, _bump, _S, 2, None),
    ("check_cm", "csf", lambda g: g == _G, _bump, _P, 2, None),
    ("check_palindromic", "csf", lambda g: g == _G, _bump, _G, 2, None),
    ("check_prop56", "llt_vertical", lambda path: path == _P.as_schroder(), _bump, _P, 2, "i"),
    ("check_prop56", "omega", lambda g: g == llt_vertical(_P.as_schroder()), _bump, _P, 2, "i"),
    ("check_prop56", "llt_vertical", lambda path: path == _S, _bump, _S, 2, "ii"),
    ("check_gg", "induce_to_GL", lambda phi: True,
     lambda f: f + UnipClassFn.from_dict(3, 3, {_L: 1}), _L, 3, None),
    ("check_gg", "induce_to_GL", lambda phi: True,
     lambda f: f + UnipClassFn.from_dict(3, 2, {_L: 1}), "omega p_one(Gamma_n)", 2, None),
    ("check_st_en", "basis_element", lambda basis, lam: basis == "PT", _bump, (1, 1, 1), 2, None),
    ("check_st_en", "basis_element", lambda basis, lam: basis == "E", _bump, (1, 1, 1), 2, None),
    ("check_cor66", "as_expansion", lambda s: s == _S, _bump, _S, 2, None),
    ("check_cor66", "psi_pseudo", lambda s, q: s == _S, lambda f: f + _BUMP_G, _S, 2, None),
]


@pytest.mark.parametrize("check, kernel, hit, change, index, q, part", _PERTURBED_SIDES)
def test_every_check_fails_on_a_perturbed_side(monkeypatch, check, kernel, hit, change, index,
                                               q, part):
    _fails_at_the_perturbed_item(monkeypatch, check, kernel, hit, change, index, q, part)


def test_check_psi_decomp_builds_each_supercharacter_once(monkeypatch):
    import chromaq.bridge as bridge
    calls = Counter()

    def counted(gamma, q):
        calls[gamma] += 1
        return chi_super(gamma, q)

    monkeypatch.setattr(bridge, "chi_super", counted)
    for n, graphs in ((3, 5), (4, 14), (5, 42)):
        calls.clear()
        assert bridge.check_psi_decomp(n, 2).ok
        assert sum(calls.values()) == len(calls) == graphs, n


def test_check_as_is_refused_before_any_orientation(monkeypatch):
    # the staircase of size 7 has 21 area edges: 2^21 orientations, past MAX_SWEEP
    import chromaq.bridge as bridge

    def kernel(sigma):
        raise RuntimeError("a kernel ran")

    monkeypatch.setattr(bridge, "llt_vertical", kernel)
    monkeypatch.setattr(bridge, "as_expansion", kernel)
    with pytest.raises(SizeGuardError, match="visits 2,097,152 elements"):
        check_as(7)
    # at n = 6 the largest area has 15 edges, so the guard lets the scan start
    with pytest.raises(RuntimeError, match="a kernel ran"):
        check_as(6)


@pytest.mark.parametrize("n", [9, 12])
def test_check_cm_is_refused_before_any_table(n):
    # the Dyck paths are enumerated, and refused past MAX_PATH_N, before the degree-n m -> p table
    from chromaq.symfunc import _from_monomials, _m_to_p_integral
    tables = _from_monomials.cache_info().misses, _m_to_p_integral.cache_info().misses
    with pytest.raises(SizeGuardError, match=f"gen_dyck: n = {n} exceeds guard 8"):
        check_cm(n)
    assert (_from_monomials.cache_info().misses, _m_to_p_integral.cache_info().misses) == tables


# -- omega on M coordinates -----------------------------------------------------

def test_omega_sympoly_en_hn():
    # omega takes the monomial coordinates of e_n and h_n to each other
    for n in range(1, 5):
        e = basis_element("E", (n,))
        h = basis_element("H", (n,))
        assert omega(e) == h
        assert omega(h) == e


# -- CLI -------------------------------------------------------------------------

def test_cli_compute_csf(capsys):
    from chromaq.cli import main
    assert main(["compute", "csf", "EESESS"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coeffs"] == [
        {"partition": [2, 1], "value": "t"},
        {"partition": [1, 1, 1], "value": "t^2+4*t+1"},
    ]


def test_cli_compute_llt(capsys):
    from chromaq.cli import main
    assert main(["compute", "llt", "EEDSS"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coeffs"] == [
        {"partition": [2, 1], "value": "t"},
        {"partition": [1, 1, 1], "value": "t^2+2*t"},
    ]


def test_cli_compute_json_is_to_json(capsys):
    from chromaq.cli import main
    for n in range(1, 5):
        for verb, fn, items in [("csf", csf, indifference_graphs(n)),
                                ("llt", llt_vertical, gen_tall_schroder(n))]:
            for x in items:
                index = json.dumps(x.to_json()) if verb == "csf" else x.steps
                assert main(["compute", verb, index]) == 0
                assert json.loads(capsys.readouterr().out) == fn(x).to_json(), (verb, index)


def test_cli_verify_all_point(capsys):
    from chromaq.cli import main
    assert main(["verify", "all", "--n", "2", "--q", "2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 14
    assert all(r["status"] == "pass" for r in out)


def test_cli_verify_check_mesa_past_twelve_edges(capsys):
    # graph_of(EEEEEESSSSSS) is K_6 with 15 edges, and its supercharacter is built
    from chromaq.cli import main
    assert main(["verify", "check_mesa", "--n", "6", "--q", "2"]) == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["verify", "all", "--q", "5"], "--q picks the field"),
    (["verify", "all", "--n", "2", "--deep"], "--deep extends the default suite"),
    (["verify", "check_cqs", "--deep"], "--deep extends the default suite"),
    (["verify", "check_as", "--n", "2", "--q", "3"], "check_as is symbolic in t and takes no --q"),
])
def test_cli_verify_rejects_ignored_flags(capsys, argv, message):
    from chromaq.cli import main
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "all", "--n", "0"], "check_gg needs n >= 1"),
    (["verify", "check_gg", "--n", "0", "--q", "3"], "check_gg needs n >= 1"),
    (["verify", "all", "--n", "-1"], "--n must be >= 0"),
    (["verify", "check_cqs", "--n", "-1", "--q", "2"], "--n must be >= 0"),
])
def test_cli_verify_rejects_degenerate_n(capsys, argv, message):
    from chromaq.cli import main
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_verify_guard_exit_code(capsys):
    from chromaq.cli import main
    # the refusal names |UT_5(F_5)| and the bound, in verify and in compute
    for argv in (["verify", "check_cqs", "--n", "5", "--q", "5"],
                 ["compute", "superclass-sizes", "--n", "5", "--q", "5"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "9,765,625 elements" in err and "117,649" in err


@pytest.mark.parametrize("argv, message", [
    (["compute", "csf", "EESS", "--q", "3", "--n", "7", "--matrix", "1"],
     "compute csf does not read --q, --n, --matrix"),
    (["compute", "llt", "EESS", "--jordan-type", "2"], "compute llt does not read --jordan-type"),
    (["compute", "induce", "EESS", "--q", "2", "--jordan-type", "2"],
     "compute induce does not read --jordan-type"),
    (["compute", "induce", "EESS", "--q", "2", "--n", "2"], "compute induce does not read --n"),
    (["compute", "superclass-sizes", "EESS", "--n", "2", "--q", "2"],
     "compute superclass-sizes does not read an index"),
    (["compute", "hess-count", "EESS", "--q", "2", "--n", "2", "--matrix", "0100"],
     "compute hess-count does not read --n"),
    (["compute", "hess-count", "EESS", "--q", "2", "--matrix", "0100", "--jordan-type", "1,1"],
     "hess-count needs one of --matrix DIGITS or --jordan-type"),
])
def test_cli_compute_rejects_ignored_flags(capsys, argv, message):
    from chromaq.cli import main
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_bad_path(capsys):
    from chromaq.cli import main
    assert main(["compute", "csf", "SSEE"]) == 2


@pytest.mark.parametrize("graph, message", [
    ('{"n": 2}', 'keys "n" and "edges"'),
    ('{"n": "2", "edges": []}', '"n" must be an integer >= 1'),
    ('{"n": 3, "edges": 5}', '"edges" must be a list of integer pairs'),
    ('{"n": -1, "edges": []}', '"n" must be an integer >= 1'),
    ('{"n": 2, "edges": [[1]]}', '"edges" must be a list of integer pairs'),
])
def test_cli_rejects_malformed_graph_json(capsys, graph, message):
    from chromaq.cli import main
    assert main(["compute", "csf", graph]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("check", ["check_hess", "check_poincare"])
@pytest.mark.parametrize("n, q, count", [(6, 3, "1,226,512"), (7, 2, "3,605,290")])
def test_hessenberg_checks_are_refused_before_any_work(monkeypatch, check, n, q, count):
    # the Springer fibres are bounded before the induced characters or the d coefficients are built
    import chromaq.bridge as bridge

    def kernel(*args):
        raise RuntimeError("a kernel ran")

    monkeypatch.setattr(bridge, "induce_to_GL", kernel)
    monkeypatch.setattr(bridge, "d_coeffs", kernel)
    with pytest.raises(SizeGuardError, match=f"sweeping the Springer fibres of F_{q}\\^{n} visits "
                                             f"{count} elements, past the bound MAX_SWEEP = 117,649"):
        getattr(bridge, check)(n, q)
    # one point below the bound, the scan starts
    with pytest.raises(RuntimeError, match="a kernel ran"):
        getattr(bridge, check)(n - 1, q)


def test_a_huge_sweep_count_is_named_by_a_power_of_two():
    from chromaq.guards import require_sweep
    require_sweep("x", 117_649)
    with pytest.raises(SizeGuardError, match=f"visits {2 ** 1024 - 1:,} elements"):
        require_sweep("x", 2 ** 1024 - 1)
    for count in (2 ** 1024, 2 ** 1025 - 1):
        with pytest.raises(SizeGuardError, match="visits at least 2\\^1,024 elements, past the "
                                                 "bound MAX_SWEEP = 117,649"):
            require_sweep("x", count)


def test_a_power_count_is_refused_on_its_exponent():
    # below 2^1,024 the message is require_sweep's on the power; past it the
    # power is not built, and 2^(exp * floor(log2 base)) names a lower bound
    from chromaq.guards import require_power, require_sweep
    for base in (2, 3, 5, 7):
        for exp in range(1, 1100):
            low = base.bit_length() - 1
            if exp * low > 1024:
                with pytest.raises(SizeGuardError) as power:
                    require_power("x", base, exp)
                assert f"visits at least 2^{exp * low:,} elements" in str(power.value)
                assert (base ** exp).bit_length() - 1 >= exp * low
                continue
            try:
                require_sweep("x", base ** exp)
            except SizeGuardError as exc:
                with pytest.raises(SizeGuardError) as power:
                    require_power("x", base, exp)
                assert str(power.value) == str(exc)
            else:
                require_power("x", base, exp)
    with pytest.raises(SizeGuardError, match="visits at least 2\\^10,000,000,000,000 elements"):
        require_power("x", 2, 10 ** 13)


def test_cli_hess_count_of_a_huge_sweep_names_it_before_any_matrix(capsys, monkeypatch):
    # the fibre of type (2, 1^5) over F_2 alone is past the bound, so the guard
    # names it as a lower bound before it lists a Jordan type of n or builds an
    # n x n matrix
    import chromaq.cli as cli
    import chromaq.fqoracle as fq

    def no_work(*args):
        raise AssertionError("the fibre guard listed a partition or built an n x n matrix")

    monkeypatch.setattr(fq, "jordan_nilpotent", no_work)
    monkeypatch.setattr(fq, "_partitions", no_work)
    monkeypatch.setattr(cli, "nilpotent_type", no_work)
    for n in (13, 300):
        graph = f'{{"n": {n}, "edges": []}}'
        for given in (["--jordan-type", str(n)], ["--matrix", "0" * n * n]):
            assert cli.main(["compute", "hess-count", graph, "--q", "2", *given]) == 2
            assert capsys.readouterr().err == (f"error: sweeping the Springer fibres of F_2^{n} visits at "
                                               "least 3,134,565 elements, past the bound MAX_SWEEP = 117,649\n")


def test_cli_hess_count_reads_a_matrix_by_its_jordan_type(capsys):
    # h^-1 (J_21 - 1) h over F_3 for h = (120, 011, 102): no Jordan matrix, same count
    from chromaq.cli import main
    assert main(["compute", "hess-count", "ESEESS", "--q", "3", "--matrix", "022011022"]) == 0
    by_matrix = json.loads(capsys.readouterr().out)
    assert main(["compute", "hess-count", "ESEESS", "--q", "3", "--jordan-type", "2,1"]) == 0
    assert json.loads(capsys.readouterr().out) == by_matrix == {"count": 4}
    # the parts may come in any order
    assert main(["compute", "hess-count", "ESEESS", "--q", "3", "--jordan-type", "1,2"]) == 0
    assert json.loads(capsys.readouterr().out) == by_matrix


def test_cli_hess_count_matrix_digits(capsys):
    from chromaq.cli import main
    # zero matrix on the edgeless graph counts every flag: [3]_2! = 21
    graph = '{"n": 3, "edges": []}'
    assert main(["compute", "hess-count", graph, "--q", "2", "--matrix", "0" * 9]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"count": 21}
    # a digit >= q is rejected, not reduced mod q
    assert main(["compute", "hess-count", "EESS", "--q", "2", "--matrix", "0200"]) == 2
    assert "below q = 2" in capsys.readouterr().err
    assert main(["compute", "hess-count", "EESS", "--q", "3", "--matrix", "0200"]) == 0


@pytest.mark.parametrize("n, q, digits", [
    (8, 7, "0" * 64),
    (12, 7, "0" * 144),
    (16, 5, "0" * 256),
    (8, 7, ("1" + "0" * 8) * 7 + "1"),  # the identity, which is not nilpotent
])
def test_cli_hess_count_past_the_packed_bound_is_refused_by_the_guards(capsys, n, q, digits):
    # n(q-1)^2 > 255: the packed kernel could not multiply these, and is never asked to
    from chromaq.cli import main
    assert main(["compute", "hess-count", "E" * n + "S" * n, "--q", str(q), "--matrix", digits]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sweeping the Springer fibres of F_{q}^{n} visits at least ")
    assert err.endswith(" elements, past the bound MAX_SWEEP = 117,649\n")


def test_hessenberg_count_is_refused_before_any_jordan_matrix(monkeypatch):
    import chromaq.fqoracle as fq
    from chromaq.fqoracle import hessenberg_count

    def no_work(lam):
        raise AssertionError("a J_lam - 1 was built before the fibre guard")

    monkeypatch.setattr(fq, "jordan_nilpotent", no_work)
    with pytest.raises(SizeGuardError, match="the Springer fibres of F_7\\^12"):
        hessenberg_count(IndiffGraph(12, []), (1,) * 12, 7)


def test_cli_hess_count_rejects_nonpositive_jordan_part(capsys):
    from chromaq.cli import main
    assert main(["compute", "hess-count", "ES", "--q", "2", "--jordan-type", "2,-1"]) == 2
    assert main(["compute", "hess-count", "ES", "--q", "2", "--jordan-type", "2,0"]) == 2
    assert "part <= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["compute", "superclass-sizes", "--n", "-1", "--q", "2"], "--n must be >= 0, got -1"),
    (["compute", "hess-count", "ES", "--q", "2", "--jordan-type", "2,x"],
     "--jordan-type takes comma-separated positive integers, got '2,x'"),
    (["compute", "hess-count", "ES", "--q", "2", "--jordan-type", "2,,1"],
     "--jordan-type takes comma-separated positive integers"),
    # only the ASCII digits 0..q-1: int() would read Arabic-Indic digits
    (["compute", "hess-count", "EESS", "--q", "2", "--matrix", "\u0660\u0661\u0660\u0660"],
     "--matrix needs 4 digits 0..1, got '\u0660\u0661\u0660\u0660'"),
    (["compute", "hess-count", "EESS", "--q", "2", "--matrix", "01a0"],
     "--matrix needs 4 digits 0..1, got '01a0'"),
    (["compute", "hess-count", "EESS", "--q", "2", "--matrix=-100"],
     "--matrix needs 4 digits 0..1, got '-100'"),
])
def test_cli_compute_rejects_bad_sizes(capsys, argv, message):
    from chromaq.cli import main
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_help_prints_the_usage(capsys):
    from chromaq.cli import main
    for argv in (["--help"], ["compute", "-h"], ["verify", "all", "--json", "--help"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage:") and "chromaq compute superclass-sizes --n N --q Q" in out


@pytest.mark.parametrize("argv, message", [
    ([], "no command; choose compute or verify"),
    (["frobnicate"], "unknown command 'frobnicate'"),
    (["compute", "frobnicate", "EESS"], "compute: unknown verb 'frobnicate'"),
    (["compute"], "compute: no verb"),
    (["verify"], "verify needs 'all' or a check name"),
    (["compute", "csf", "EESS", "--deep"], "compute has no option --deep"),
    (["compute", "induce", "EESS", "--q"], "--q needs a value"),
    (["compute", "induce", "EESS", "--q", "--n", "2"], "--q needs a value"),
    (["verify", "all", "--n", "x"], "--n takes an integer, got 'x'"),
    (["verify", "all", "--json=yes"], "--json takes no value"),
    (["compute", "csf", "EESS", "EESESS"], "unexpected argument 'EESESS'"),
    (["verify", "check_cqs", "all"], "unexpected argument 'all'"),
    (["compute", "hess-count", "ES", "--q", "2", "--jor", "1,1"], "compute has no option --jor"),
    (["compute", "hess-count", "ES", "--q", "2", "--jordan_type", "1,1"],
     "compute has no option --jordan_type"),
])
def test_cli_usage_errors_exit_two_with_one_error_line(capsys, argv, message):
    from chromaq.cli import main
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_cli_options_go_anywhere_and_take_an_equals_sign(capsys):
    from chromaq.cli import main
    outs = []
    for argv in (["compute", "induce", "EESESS", "--q", "2"],
                 ["compute", "induce", "EESESS", "--q=2"],
                 ["compute", "--q", "2", "induce", "EESESS"],
                 ["compute", "--q=2", "induce", "EESESS"]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert len(set(outs)) == 1 and json.loads(outs[0])["q"] == 2
    assert main(["verify", "--json", "--n=2", "all", "--q", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 14


@pytest.mark.parametrize("verb, options", [
    ("csf", []), ("llt", []), ("as-expand", []), ("d-coeffs", []), ("e-expand", []),
    ("induce", ["--q", "2"]), ("hess-count", ["--q", "2", "--jordan-type", "1"]),
])
def test_cli_omitted_index_is_refused(capsys, verb, options):
    from chromaq.cli import main
    assert main(["compute", verb, *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: compute {verb} needs an index (")
    # an explicit empty index is the path of size 0, as `verify --n 0` is
    if verb != "hess-count":  # no --jordan-type or --matrix has size 0
        assert main(["compute", verb, "", *options]) == 0
        capsys.readouterr()


def test_cli_d_coeffs_and_as_expand(capsys):
    from chromaq.cli import main
    assert main(["compute", "d-coeffs", "EESESS"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["basis"] == "PT" and len(d["coeffs"]) >= 2
    assert main(["compute", "as-expand", "EDS"]) == 0
    e = json.loads(capsys.readouterr().out)
    assert e == {"degree": 2, "basis": "E", "coeffs": [{"partition": [2], "value": "1"}]}


def test_cli_exit_one_on_failure(capsys, monkeypatch):
    import chromaq.cli as cli
    monkeypatch.setattr(cli, "run_check",
                        lambda name, n, q: CheckReport(
                            name, n, q, "fail", {"index": "x", "lhs": "0", "rhs": "1"}))
    assert cli.main(["verify", "check_cqs", "--n", "2", "--q", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL check_cqs" in out and "witness" in out


def test_cli_exit_one_on_a_perturbed_csf(capsys, monkeypatch):
    import chromaq.bridge as bridge
    from chromaq.cli import main
    target = IndiffGraph(2, [(1, 2)])
    bump = SymFunc(2, "M", {(1, 1): T})
    monkeypatch.setattr(bridge, "csf", lambda g: csf(g) + bump if g == target else csf(g))
    witness = run_check("check_cqs", 2, 2).witness
    assert witness["index"] == str(target)
    assert main(["verify", "check_cqs", "--n", "2", "--q", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL check_cqs (n=2, q=2)" in out and f"witness: {json.dumps(witness)}" in out
    assert main(["verify", "check_cqs", "--n", "2", "--q", "2", "--json"]) == 1
    [report] = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail" and report["witness"] == witness
