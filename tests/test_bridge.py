import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

import pytest

from chromaq.bridge import (
    ALL_CHECKS,
    DEPENDENCIES,
    SYMBOLIC_CHECKS,
    CheckReport,
    _plethysm_at_q,
    _pt_at_q,
    _unicellular_sum,
    check_as,
    check_cm,
    check_cqs,
    check_gg,
    check_llt,
    check_st_en,
    run_check,
    scaled_p_brace1,
)
from chromaq.chromallt import csf, d_coeffs, llt_vertical
from chromaq.combinatorics import (
    SchroderPath,
    area,
    diag,
    gen_dyck,
    gen_partitions,
    gen_tall_schroder,
    mesa,
    path_of_graph,
    transpose,
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
    superclass_sizes,
)
from chromaq.guards import SizeGuardError
from chromaq.symfunc import (
    SymFunc,
    basis_element,
    eval_t,
    expand_in_basis,
    omega,
    plethysm_mul,
)
from classfn_oracle import class_fn, fn_scale, fn_sum
from orbit_oracle import sym_sum
from ratfunc_oracle import (
    change,
    cm_lhs,
    gauss_jordan_m_to,
    inverted_from_monomials,
    kostka,
    m_coords,
    p_to_m,
    plethysm_frac,
    ratfunc_to_const,
)
from test_combinatorics import area_inverse

RF = LaurentPoly.const
T = LaurentPoly.t()


# -- the symbolic realization maps, kept as the oracle for the path over Q --------

def p_brace1(phi):
    """p_brace1(phi) over Q: the package's q^{binom(n,2)} p_brace1 divided back."""
    scale = phi.q ** (phi.n * (phi.n - 1) // 2)
    return {mu: Fraction(ratfunc_to_const(c), scale)
            for mu, c in scaled_p_brace1(phi).coeffs.items()}


@lru_cache(maxsize=None)
def symbolic_pt_at_q(lam, q):
    # PT has negative powers of t, so a value may be a Fraction, which no SymFunc holds
    return {mu: c.evaluate(q) for mu, c in basis_element("PT", lam).coeffs.items()}


def symbolic_p_brace1(phi):
    return change({lam: v for lam, v in phi.items() if v},
                  lambda lam: symbolic_pt_at_q(lam, phi.q).items())


def symbolic_p_one(phi):
    """The paper's image omega (p_brace1(phi))[x/(q-1)] in S over Q(t): p_brace1 from
    PT at t = q, the Gauss-Jordan tables over `RationalFunc` and the plethysm
    p_k -> p_k / (t^k - 1)."""
    n, q = phi.n, phi.q
    to_p, to_s = inverted_from_monomials("P", n), inverted_from_monomials("S", n)
    F = change(symbolic_p_brace1(phi), lambda mu: to_p[mu].items())
    F = {lam: (-1) ** (n - len(lam)) * c.evaluate(Fraction(q))
         for lam, c in plethysm_frac(F).items()}
    return {lam: ratfunc_to_const(c)
            for lam, c in change(p_to_m(F), lambda mu: to_s[mu].items()).items()}


def three_step_p_one(phi):
    """The paper's image omega (p_brace1(phi))[x/(q-1)] in S, p_one, of one class
    function over Q, step by step: p_brace1 in P through the Gauss-Jordan
    m -> p table, each p_lam divided by prod (q^{lam_i} - 1), then omega's sign
    rule on P, back to M by the part placements and into S."""
    n, q, to_p = phi.n, phi.q, gauss_jordan_m_to("P", phi.n)
    F = change(p_brace1(phi), lambda mu: to_p[mu].items())
    F = {lam: Fraction(c * (-1) ** (n - len(lam)), prod(q ** k - 1 for k in lam))
         for lam, c in F.items()}
    return change(p_to_m(F), lambda mu: gauss_jordan_m_to("S", n)[mu].items())


def omega_in_m(s_coords, n):
    """omega of a function given in S, in monomial coordinates: s_lam -> s_lam', then
    Kostka rows, the constant terms of the Hall-Littlewood tableau build."""
    rows = kostka(n)
    return change({transpose(lam): c for lam, c in s_coords.items()},
                  lambda lam: rows[lam].items())


def in_s(F):
    """A SymFunc in basis M with constant coefficients, in S over Q."""
    to_s = gauss_jordan_m_to("S", F.degree)
    return change({mu: ratfunc_to_const(c) for mu, c in F.coeffs.items()},
                  lambda mu: to_s[mu].items())


DEFAULT_GRID = [(n, q) for q in (2, 3) for n in (1, 2, 3)]


def test_p_one_and_p_brace1_match_the_symbolic_oracle():
    # p_brace1 is linear, so the indicator of each Jordan type pins it; the
    # induced chi_bar add values that are not 0 or 1.  The paper's form
    # omega (p_brace1)[x/(q-1)] has two oracles over Q, which agree
    for n, q in DEFAULT_GRID + [(4, 2)]:
        phis = [class_fn(UnipClassFn, n, q, {lam: 1}) for lam in gen_partitions(n)]
        phis += [induce_to_GL(chi_bar(g, q)) for g in gen_dyck(n)]
        for phi in phis:
            assert p_brace1(phi) == symbolic_p_brace1(phi), (n, q, phi)
            assert three_step_p_one(phi) == symbolic_p_one(phi), (n, q, phi)


def twisted_at_q(coords, n, q):
    """F[(q-1)x] in monomial coordinates through bridge's int table, F of degree n given in
    basis M over Q."""
    table = _plethysm_at_q(n, q)
    return change(coords, lambda mu: table[mu].items())


def test_p_one_table_matches_the_three_steps_row_by_row():
    # the (q-1)x plethysm at t = q undoes the x/(q-1) of the three steps over Q:
    # each Jordan-type indicator's p_brace1 is the omega of its paper-form image,
    # taken back through the int table of m_mu[(q-1)x]
    for q in PRIMES:
        for n in range(6):
            table = _plethysm_at_q(n, q)
            assert list(table) == gen_partitions(n)
            assert all(type(v) is int and v for row in table.values() for v in row.values())
            for lam in gen_partitions(n):
                phi = class_fn(UnipClassFn, n, q, {lam: 1})
                want = three_step_p_one(phi)
                assert twisted_at_q(omega_in_m(want, n), n, q) == p_brace1(phi), (n, q, lam)
                if n <= 3 and q <= 3:
                    assert want == symbolic_p_one(phi), (n, q, lam)


def _mutant_fails_the_gl_checks(monkeypatch, name, mutate, witnesses):
    """With one entry of bridge's table `name` at (3, 2) changed by mutate, check_llt,
    check_cor66 and check_gg fail at (3, 2) with these witnesses, and pass after undo."""
    import chromaq.bridge as bridge
    original = getattr(bridge, name)
    wrong = mutate(original(3, 2))
    monkeypatch.setattr(bridge, name, lambda n, q: wrong if (n, q) == (3, 2) else original(n, q))
    got = {check: run_check(check, 3, 2).witness for check in witnesses}
    monkeypatch.undo()
    assert got == witnesses
    assert all(run_check(check, 3, 2).ok for check in witnesses)


def test_one_wrong_entry_of_the_pt_table_fails_every_gl_check_at_its_first_witness(monkeypatch):
    # q^3 PT_(1^3)(x; q) gains 1 at m_(1^3): the image of each induced character,
    # times q^3 = 8, moves there by its value at the identity, 21 for EDDS.  At
    # q = 2 the staircase EDDS is Gamma_3 itself, so check_gg passes divisibility
    ones = (1, 1, 1)

    def mutate(table):
        rows = {lam: dict(row) for lam, row in table.items()}
        rows[ones][ones] += 1
        return rows

    # at q = 2, 8 e_3[(q-1)x] = 8 (m_3 - m_21 + m_111) is the image of EDDS on both sides
    right = "(8)*m[3] + (-8)*m[2, 1] + (8)*m[1, 1, 1]"
    moved = {"index": "EDDS", "lhs": right.replace("(8)*m[1,", "(29)*m[1,"), "rhs": right}
    _mutant_fails_the_gl_checks(monkeypatch, "_pt_at_q", mutate, {
        "check_llt": moved, "check_cor66": moved,
        "check_gg": {**moved, "index": "p_brace1(Gamma_n)"},
    })


def test_one_wrong_entry_of_the_q_table_fails_every_gl_check_at_its_first_witness(monkeypatch):
    # m_(1^3)[(q-1)x] gains 1 at m_(1^3): every right side moves there by q^3 = 8
    # times its m_(1^3)-coordinate, which is nonzero on every tall path
    ones = (1, 1, 1)

    def mutate(table):
        rows = {mu: dict(row) for mu, row in table.items()}
        rows[ones][ones] += 1
        return rows

    right = "(8)*m[3] + (-8)*m[2, 1] + (8)*m[1, 1, 1]"
    moved = {"index": "EDDS", "lhs": right, "rhs": right.replace("(8)*m[1,", "(16)*m[1,")}
    _mutant_fails_the_gl_checks(monkeypatch, "_plethysm_at_q", mutate, {
        "check_llt": moved, "check_cor66": moved,
        "check_gg": {**moved, "index": "p_brace1(Gamma_n)"},
    })


# -- p_brace1 -----------------------------------------------------------------

def test_p_brace1_column_indicator():
    # the indicator of the identity class maps to q^{-binom(n,2)} e_n, so the scaled map gives e_n
    for n, q in [(2, 2), (3, 2), (3, 3)]:
        phi = class_fn(UnipClassFn, n, q, {tuple([1] * n): 1})
        assert scaled_p_brace1(phi) == basis_element("E", (n,))
        assert p_brace1(phi) == {mu: Fraction(1, q ** (n * (n - 1) // 2)) for mu in [(1,) * n]}


def test_p_brace1_zero():
    phi = class_fn(UnipClassFn, 3, 2, {})
    assert scaled_p_brace1(phi).is_zero


def test_p_brace1_linear():
    q = 2
    a = induce_to_GL(chi_bar(path_of_graph(3, frozenset({(1, 2)})), q))
    b = induce_to_GL(chi_bar(path_of_graph(3, frozenset()), q))
    combo = fn_sum(fn_scale(a, 3), fn_scale(b, -2))
    lhs = scaled_p_brace1(combo)
    rhs = sym_sum(scaled_p_brace1(a).scale(RF(3)), scaled_p_brace1(b).scale(RF(-2)))
    assert lhs == rhs


# -- the paper's form, through the three-step oracle ----------------------------

def test_p_one_two_code_paths_agree():
    # omega and the plethystic substitution both act diagonally on power sums,
    # so the three steps (plethysm, then omega) equal omega first; the (q-1)x
    # plethysm through bridge's int table takes omega of either back to p_brace1
    q, to_p = 2, gauss_jordan_m_to("P", 3)
    for gamma in gen_dyck(3):
        phi = induce_to_GL(chi_bar(gamma, q))
        a = three_step_p_one(phi)
        F = change(p_brace1(phi), lambda mu: to_p[mu].items())
        F = {lam: c * (-1) ** (3 - len(lam)) for lam, c in F.items()}
        F = {lam: c.evaluate(Fraction(q)) for lam, c in plethysm_frac(F).items()}
        b = change(p_to_m(F), lambda mu: gauss_jordan_m_to("S", 3)[mu].items())
        assert a == b
        assert twisted_at_q(omega_in_m(b, 3), 3, q) == p_brace1(phi)


def test_p_one_linear():
    # the paper's map is linear: three_step_p_one reads p_brace1
    q = 3
    a = induce_to_GL(chi_bar(path_of_graph(2, frozenset({(1, 2)})), q))
    b = induce_to_GL(chi_bar(path_of_graph(2, frozenset()), q))
    combo = fn_sum(fn_scale(a, 2), fn_scale(b, -7))
    fa, fb = three_step_p_one(a), three_step_p_one(b)
    want = {lam: 2 * fa.get(lam, 0) - 7 * fb.get(lam, 0) for lam in gen_partitions(2)}
    assert {k: v for k, v in want.items() if v} == three_step_p_one(combo)


def test_p_one_schur_coefficients_are_nonneg_integers():
    # observed: induced pseudosupercharacters have genuine unipotent constituents
    for q in (2, 3):
        for sigma in gen_tall_schroder(3):
            F = three_step_p_one(induce_to_GL(psi_pseudo(sigma, q)))
            for lam, c in F.items():
                assert c.denominator == 1 and c >= 0


def test_the_paper_form_of_check_llt_holds_through_the_three_step_oracle():
    # p_one(Ind psi^sigma) = (q-1)^{|Diag|} omega G_sigma(x; q) in S, over Q
    for q in (2, 3):
        for n in range(5):
            for sigma in gen_tall_schroder(n):
                G = eval_t(llt_vertical(sigma), q).scale((q - 1) ** len(diag(sigma)))
                want = {transpose(lam): c for lam, c in in_s(G).items()}
                assert three_step_p_one(induce_to_GL(psi_pseudo(sigma, q))) == want, (q, sigma)


# -- the check family -----------------------------------------------------------

def test_all_checks_pass_n2():
    for name in ALL_CHECKS:
        rep = run_check(name, 2, 2)
        assert rep.ok, (name, rep.witness)
        assert rep.witness is None


def test_check_llt_n3_q3():
    assert check_llt(3, 3) is None


def test_check_gg_n2_q3():
    assert check_gg(2, 3) is None


def test_check_gg_is_refused_before_the_pseudosupercharacter_terms(monkeypatch):
    # the staircase of size n has n - 1 D steps, 2^{n-1} terms, each a Hessenberg function
    import chromaq.fqoracle as fq

    def no_term(*args):
        raise AssertionError("a term was built before the graphs on [n] were bounded")

    monkeypatch.setattr(fq, "_lowered", no_term)
    with pytest.raises(SizeGuardError, match="the Springer fibres of F_2\\^21 visits at least 3,134,565"):
        check_gg(21, 2)


def test_induction_checks_at_n4_q3_and_n3_q5():
    # one Springer walk per Jordan type: 175 flags for F_3^4 and 12 for F_5^3
    assert check_cqs(4, 3) is None
    assert check_cqs(3, 5) is None
    assert check_gg(4, 3) is None


def test_check_st_en_n5():
    assert check_st_en(5) is None


def test_check_st_en_runs_to_the_table_guard(monkeypatch):
    # the degree-14 Hall-Littlewood table has p(14)^2 = 18,225 cells; p(18)^2 =
    # 148,225 are past MAX_SWEEP and refused before the tableau build starts
    import chromaq.symfunc as symfunc
    assert check_st_en(14) is None

    def no_build(*args):
        raise AssertionError("the Hall-Littlewood table was built before its guard")

    monkeypatch.setattr(symfunc, "_strips", no_build)
    with pytest.raises(SizeGuardError, match="the 385\\^2 cells of the degree-18 PT table visits 148,225"):
        check_st_en(18)


def test_check_st_en_is_refused_before_its_item_is_built():
    # the p(n) guard runs before the item (1^n) is listed, so a refusal at n = 10^6
    # allocates next to nothing, and a negative n is refused as a size
    import tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="the partitions of 1000000 visits at least 124,754"):
            check_st_en(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    with pytest.raises(ValueError, match="n = -1 must be >= 0"):
        check_st_en(-1)


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
    d = run_check("check_cqs", 2, 2).to_json()
    assert set(d) == {"check", "n", "q", "status", "witness"}
    assert d["status"] == "pass" and d["witness"] is None


def test_a_report_fails_exactly_when_it_has_a_witness():
    witness = {"index": "x", "lhs": "0", "rhs": "1"}
    passing, failing = CheckReport("check_x", 1, None), CheckReport("check_x", 1, None, witness)
    assert passing.ok and passing.status == "pass" and passing.to_json()["witness"] is None
    assert not failing.ok and failing.status == "fail" and failing.to_json()["witness"] == witness
    with pytest.raises(AttributeError):  # the verdict is read off the witness, never set
        passing.status = "fail"


def _fresh_python(*args: str, timeout: int = 60) -> subprocess.CompletedProcess:
    """Run `python *args` in a new interpreter that imports the package under
    test, with stdout and stderr captured through pipes."""
    import chromaq
    src = os.path.dirname(os.path.dirname(chromaq.__file__))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)


def test_tripwire_survives_optimized_mode():
    code = ("assert False, 'python -O strips this'\n"
            "from chromaq.fqoracle import ClassFnUT\n"
            "ClassFnUT(1, 2, (0.5,))\n")
    proc = _fresh_python("-O", "-c", code)
    assert proc.returncode == 1
    assert "TypeError: ClassFnUT values must be ints, got (0.5,)" in proc.stderr


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


def _package_trees():
    """(module name, syntax tree) of every source file of the package."""
    import ast
    import pathlib

    import chromaq
    for path in sorted(pathlib.Path(chromaq.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def test_the_size_knobs_are_exactly_these():
    # one bound for every brute-force sweep; a new MAX_* has to be added here on purpose
    import ast
    found = set()
    for _, tree in _package_trees():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            found.update(t.id for t in targets
                         if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
    assert found == {"MAX_SWEEP", "MAX_PATH_N"}


def test_the_caches_are_exactly_these():
    # every lru_cache of the package, decorated or built as lru_cache(...)(f); a cache
    # is added or removed here on purpose, with its measured gain in CHANGES.md
    import ast

    def is_lru(node):
        f = node.func if isinstance(node, ast.Call) else node
        return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "lru_cache"

    found, mentions = [], 0
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{module}.{node.name}" for d in node.decorator_list if is_lru(d)]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Call) and is_lru(node.func):
                found.append(f"{module}.{ast.unparse(node.args[0])}")
            mentions += isinstance(node, (ast.Name, ast.Attribute)) and is_lru(node)
    assert mentions == len(found)  # no cache is built in a form the walk does not read
    assert sorted(found) == [
        "bridge._plethysm_at_q", "bridge._pt_at_q", "bridge.d_coeffs", "bridge.supers",
        "chromallt.as_expansion", "chromallt.csf", "chromallt.llt_vertical",
        "combinatorics._partitions", "combinatorics.gen_dyck",
        "combinatorics.gen_tall_schroder",
        "exactnum.t_minus_one_power",
        "fqoracle._column_ranks", "fqoracle._fibre_size", "fqoracle._field",
        "fqoracle._lattice", "fqoracle._springer_fibre", "fqoracle.induce_to_GL",
        "fqoracle.induction_table", "fqoracle.psi_pseudo",
        "symfunc._placements", "symfunc._plethysm_factor",
        "symfunc._require_partition", "symfunc._rows", "symfunc._strips",
    ]


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


_RATIONAL = {"Fraction", "fractions", "_div", "_frac", "Rat", "_all_int"}


def _rational_names(tree, scope=()):
    """(scope, name) for each name of `_RATIONAL` that the code of a syntax tree
    names, as a Name, an attribute or an import, scope the dotted path of the
    classes and functions it lies in; docstrings and comments are no code."""
    import ast
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name):
            found = {node.id}
        elif isinstance(node, ast.Attribute):
            found = {node.attr}
        elif isinstance(node, ast.alias):
            found = {node.name.split(".")[-1], *node.name.split("."), node.asname}
        elif isinstance(node, ast.ImportFrom):
            found = set((node.module or "").split("."))
        else:
            found = set()
        for name in sorted(found & _RATIONAL):
            yield ".".join(scope), name
        named = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _rational_names(node, scope + (node.name,) if named else scope)


def _may_name_a_fraction(module: str, scope: str, name: str) -> bool:
    """True iff the code at scope may name `name`: only RationalFunc and
    LaurentPoly.evaluate, in exactnum, name a Fraction or `fractions`."""
    return (module == "exactnum" and name in ("Fraction", "fractions")
            and (scope == "LaurentPoly.evaluate" or scope.split(".")[0] == "RationalFunc"))


def test_only_exactnum_names_a_fraction_or_a_division():
    # the package computes over Z[t, 1/t]: the old division and coercion helpers are
    # named nowhere, and a Fraction only where a value can be one, in exactnum's
    # RationalFunc and in LaurentPoly.evaluate at a negative power of t
    import ast
    assert sorted(_rational_names(ast.parse(
        "import fractions.x as y\nfrom .exactnum import Rat\n'Fraction _div'\nz = e._all_int(x)\n"
        "class C:\n    def f(self):\n        return Fraction(1)\n"
    ))) == [("", "Rat"), ("", "_all_int"), ("", "fractions"), ("C.f", "Fraction")]
    found = {(module, scope, name) for module, tree in _package_trees()
             for scope, name in _rational_names(tree)}
    assert sorted(f for f in found if not _may_name_a_fraction(*f)) == []
    # the scan sees the places that do name one
    assert {("exactnum", "LaurentPoly.evaluate", "Fraction"),
            ("exactnum", "RationalFunc.evaluate", "Fraction")} <= found


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
    # Their values lie in Z[t] and every change of basis reads Z[t, 1/t]. The
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
    # the GL checks compare q^{binom(n,2)} times each side over Z; the plethysm on
    # M divides an integral vector by d! exactly; and evaluate returns an int
    # when the value is one.  The deep run is also made as the command itself,
    # every import listed by -X importtime
    code = ("import contextlib, io, sys\n"
            "from chromaq.cli import main\n"
            "for argv in (['verify', 'all', '--json'], ['verify', 'all', '--deep', '--json'],\n"
            "             ['verify', 'all', '--n', '4', '--q', '3', '--json']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    print(sorted(m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules))\n")
    proc = _fresh_python("-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]
    proc = _fresh_python("-X", "importtime", "-m", "chromaq.cli", "verify", "all", "--deep",
                         "--json", timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "chromaq.bridge" in imported and "fractions" not in imported
    assert {report["status"] for report in json.loads(proc.stdout)} == {"pass"}


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
            "    name, n, q, {'index': 'x', 'lhs': '0', 'rhs': '1'})\n"
            "sys.exit(cli.main(['verify', 'check_cqs', '--n', '2', '--q', '2']))\n")
    proc = _fresh_python("-c", code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("FAIL check_cqs (n=2, q=2)\n")
    proc = _fresh_python("-m", "chromaq.cli", "verify", "check_as", "--n", "8")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: sweeping the orientations of the tall paths of size 8 "
                           "visits 268,435,456 elements, past the bound MAX_SWEEP = 117,649\n")
    # refused on the call: 3^11 = 177,147 color classes, which the kernel would take
    # about 0.3 s over, and the Springer fibres of F_3^6, before any walk, for a
    # Hessenberg count and for induction; a power
    # count is refused on its exponent, a partition count and a fibre sum after a
    # few terms of a sequence that bounds them from below
    for argv, what in [
        (["compute", "csf", '{"n": 11, "edges": []}'], "the color classes of [11] visits 177,147"),
        (["compute", "hess-count", "EEEEEESSSSSS", "--q", "3", "--jordan-type", "2,1,1,1,1"],
         "the Springer fibres of F_3^6 visits 1,226,512"),
        (["compute", "csf", '{"n": 10000000, "edges": []}'],
         "the color classes of [10000000] visits at least 2^10,000,000"),
        (["verify", "check_cqs", "--n", "6", "--q", "3"], "the Springer fibres of F_3^6 visits 1,226,512"),
        (["verify", "check_st_en", "--n", "18"],
         "the 385^2 cells of the degree-18 PT table visits 148,225"),
        (["verify", "check_st_en", "--n", "40"],
         "the 37338^2 cells of the degree-40 PT table visits 1,394,126,244"),
        (["verify", "check_st_en", "--n", "46"],
         "the 105558^2 cells of the degree-46 PT table visits 11,142,491,364"),
        (["verify", "check_st_en", "--n", "1000000"], "the partitions of 1000000 visits at least 124,754"),
        (["verify", "check_hess", "--n", "46", "--q", "2"],
         "the Springer fibres of F_2^46 visits at least 3,134,565"),
        # the inductions bound their walks before the staircase's 2^20 terms or the
        # graphs on [21] are built, and before a graph on [10^7] is read
        (["verify", "check_gg", "--n", "21", "--q", "2"],
         "the Springer fibres of F_2^21 visits at least 3,134,565"),
        (["compute", "induce", '{"n": 10000000, "edges": []}', "--q", "2"],
         "the Springer fibres of F_2^10000000 visits at least 3,134,565"),
        (["compute", "induce", '{"n": 10000000, "edges": [[1, 2]]}', "--q", "2"],
         "the Springer fibres of F_2^10000000 visits at least 3,134,565"),
    ]:
        start = time.perf_counter()
        proc = _fresh_python("-m", "chromaq.cli", *argv)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: sweeping {what} elements, past the bound MAX_SWEEP = 117,649\n"
        assert elapsed < 0.5, (argv, elapsed)
    # superclass sizes are read off the graphs on [n], which wait for their guard
    for argv, n in [(["compute", "superclass-sizes", "--n", "10000", "--q", "7"], 10000)]:
        start = time.perf_counter()
        proc = _fresh_python("-m", "chromaq.cli", *argv)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (2, f"error: gen_dyck: n = {n} exceeds guard 8\n")
        assert elapsed < 0.5, (argv, elapsed)


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
        ut_elements,
        ut_order,
    )
    from chromaq.guards import MAX_SWEEP
    from chromaq.symfunc import _rows
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
    monkeypatch.setattr(chromaq.symfunc, "_strips", no_work)
    monkeypatch.setattr(chromaq.symfunc, "_placements", no_work)
    monkeypatch.setattr(chromaq.symfunc, "_partitions", no_work)
    monkeypatch.setattr(orientation_oracle, "Orientation", no_work)
    # 17 edges on [7]: every {i, j} with j - i <= 3, and {1, 5}, {2, 6}
    g17 = path_of_graph(7, frozenset([(i, j) for i in range(1, 8) for j in range(i + 1, min(i + 4, 8))]
                                   + [(1, 5), (2, 6)]))
    assert len(area(g17)) == 17
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
        (lambda: induce_to_GL(chi_bar(path_of_graph(6, []), 3)), "1,226,512"),
        (lambda: coset_permutation_character(path_of_graph(8, []), 7), f"{ut_order(8, 7):,}"),
        (lambda: coset_permutation_character(path_of_graph(16, []), 5), f"{ut_order(16, 5):,}"),
        (lambda: hessenberg_sweep(path_of_graph(5, []), (2, 1, 1, 1), 3), "251,680"),
        # the Springer fibres of F_3^6 and F_2^7, walked for every lam but 1^6 and 1^7
        (lambda: hessenberg_count(path_of_graph(6, []), (2, 1, 1, 1, 1), 3), "1,226,512"),
        (lambda: hessenberg_count(path_of_graph(7, []), (7,), 2), "3,605,290"),
        (lambda: orientations(g17), "131,072"),
        (lambda: as_expansion(area_inverse(area(g17), 7)), "131,072"),
        (lambda: as_expansion(staircase), "2,097,152"),
        # 3^11 color classes, and p(18)^2 table cells for any change of basis
        (lambda: csf(path_of_graph(11, [])), "177,147"),
        (lambda: llt_vertical(SchroderPath("ES" * 11)), "177,147"),
        (lambda: expand_in_basis(SymFunc(18, "M", {(18,): 1}), "E"), "148,225"),
        (lambda: expand_in_basis(SymFunc(18, "M", {(18,): 1}), "PT"), "148,225"),
        (lambda: omega(SymFunc(18, "M", {(18,): 1})), "148,225"),
        (lambda: plethysm_mul(SymFunc(18, "M", {(18,): 1})), "148,225"),
    ]
    tables = _rows.cache_info().currsize
    for call, count in refused:
        with pytest.raises(SizeGuardError,
                           match=f"visits {count} elements, past the bound MAX_SWEEP = 117,649"):
            call()
    # no table was kept
    assert _rows.cache_info().currsize == tables
    # chi_bar on [16] needs the Cat(16) graphs first, and their enumeration refuses;
    # superclass sizes are read off the graphs on [n]
    for call, n in ((lambda: induce_to_GL(chi_bar(path_of_graph(16, []), 5)), 16),
                    (lambda: superclass_sizes(9, 7), 9), (lambda: superclass_sizes(16, 5), 16)):
        with pytest.raises(SizeGuardError, match=f"gen_dyck: n = {n} exceeds guard"):
            call()


def test_the_default_suite_makes_twelve_sweeps(monkeypatch):
    # one UT_n sweep for check_hess and one Springer-fibre walk per Jordan type
    # lam != 1^n per (n, q) of the default grid, n in {1, 2, 3} and q in {2, 3}:
    # all gamma of a point share them, and check_permtoind sweeps nothing.  The
    # tally of 1^n, read off [n]_q! with no walk, is cached beside the walks
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
    assert fq._springer_fibre.cache_info().misses == 12
    assert fq._springer_fibre.cache_info().currsize == 12


def test_only_check_hess_sweeps_ut_n(monkeypatch):
    # induction, Hessenberg counts and superclass sizes read no UT_n sweep: the
    # default suite passes without one, but for check_hess's left side
    import chromaq.fqoracle as fq
    from chromaq.cli import _default_suite

    def no_sweep(n, q):
        raise AssertionError(f"UT_{n}(F_{q}) was swept")

    monkeypatch.setattr(fq, "ut_elements", no_sweep)
    for cached in (fq.induce_to_GL, fq.induction_table):
        cached.cache_clear()
    jobs = [job for job in _default_suite(False) if job[0] != "check_hess"]
    assert len(jobs) == 70 and all(run_check(*job).ok for job in jobs)
    assert sum(fq.superclass_sizes(4, 3).values()) == 729
    with pytest.raises(AssertionError, match="UT_1\\(F_2\\) was swept"):
        run_check("check_hess", 1, 2)


def test_omega_on_m_and_check_llts_right_side_read_no_power_sum_table(monkeypatch):
    # omega on m peels each vector into P once, with every other table refused, and
    # check_llt's right side reads the p rows only while `_plethysm_at_q` builds
    # its table, once for each of q = 2 and 3
    import chromaq.bridge as bridge
    import chromaq.symfunc as sf
    building, built, peeled = [], [], []
    build = bridge._plethysm_at_q.__wrapped__
    peel, rows = sf._peel, sf._rows

    @lru_cache(maxsize=None)
    def table(n, q):
        building.append(n)
        built.append((n, q))
        try:
            return build(n, q)
        finally:
            building.pop()

    def p_while_building(basis, at):
        if basis == "P" and not building:
            raise AssertionError(f"the power-sum table was read at {at}")

    def p_rows_while_building(basis, d):
        p_while_building(basis, d)
        return rows(basis, d)

    def only_p_rows(basis, d):
        if basis != "P":
            raise AssertionError(f"the degree-{d} {basis} rows were read")
        return rows(basis, d)

    for module in (sf, bridge):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    monkeypatch.setattr(sf, "_peel", lambda coeffs, b, d: peeled.append(b) or peel(coeffs, b, d))
    monkeypatch.setattr(sf, "_rows", only_p_rows)
    units = [mu for d in range(7) for mu in gen_partitions(d)]
    for mu in units:
        assert omega(basis_element("M", mu)).basis == "M", mu
    assert len(units) == 30 and peeled == ["P"] * 30
    monkeypatch.setattr(bridge, "_plethysm_at_q", table)
    monkeypatch.setattr(sf, "_rows", p_rows_while_building)
    scans = []
    monkeypatch.setattr(bridge, "_scan", lambda *args: scans.append(args))
    for q in (2, 3):
        check_llt(3, q)
    right = [[rhs(sigma) for sigma in items] for items, lhs, rhs in scans]
    monkeypatch.undo()
    assert built == [(3, 2), (3, 3)]
    assert table.cache_info().hits == 20
    assert [len(items) for items, *_ in scans] == [11, 11]
    assert right == [[lhs(sigma) for sigma in items] for items, lhs, rhs in scans]


def test_the_default_suite_builds_each_pseudosupercharacter_once():
    # check_llt, check_psi_decomp, check_cor66 and check_gg read 30 distinct (sigma, q)
    import chromaq.fqoracle as fq
    from chromaq.cli import _default_suite
    fq.psi_pseudo.cache_clear()
    assert all(run_check(name, n, q).status == "pass" for name, n, q in _default_suite(False))
    assert fq.psi_pseudo.cache_info().misses == 30


def test_the_default_suite_induces_and_maps_each_class_function_once(monkeypatch):
    # induce_to_GL is keyed by the class function's value: check_llt, check_cor66
    # and check_gg share its images, and so do check_cqs and check_hess. Without
    # the cache the suite makes 98 calls
    import chromaq.bridge as bridge
    import chromaq.fqoracle as fq
    from chromaq.cli import _default_suite
    fq.induce_to_GL.cache_clear()
    assert all(run_check(name, n, q).status == "pass" for name, n, q in _default_suite(False))
    assert fq.induce_to_GL.cache_info().misses == 30
    # with the cache full, a perturbed class function is a new key, so the
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
    g = path_of_graph(3, frozenset({(1, 2), (2, 3)}))
    sigma = gen_tall_schroder(3)[1]
    assert csf(g) is csf(path_of_graph(3, frozenset({(2, 3), (1, 2)})))
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
        F.scale(2), F.map_coeffs(lambda c: c * T), omega(F)
        assert F.to_json() == before


def test_scan_reports_first_failure():
    from chromaq.bridge import _scan
    # the sides differ at 2 and at 3; 2 is the witness
    witness = _scan([1, 2, 3], lambda k: k if k < 2 else f"L{k}", lambda k: k if k < 2 else f"R{k}")
    assert witness == {"index": "2", "lhs": "L2", "rhs": "R2"}


def test_scan_renders_only_the_failing_sides():
    from chromaq.bridge import _scan
    rendered = []

    class Side:
        """Equal to the other side below item 3; renders only at item 3."""

        def __init__(self, k, name):
            self.k, self.name = k, name

        def __eq__(self, other):
            return self.k == other.k and self.k < 3

        def __str__(self):
            if self.k != 3:
                raise AssertionError(f"item {self.k} passed and must not be rendered")
            rendered.append(self.name)
            return f"{self.name}{self.k}"

    witness = _scan([1, 2, 3, 4], lambda k: Side(k, "L"), lambda k: Side(k, "R"))
    assert witness == {"index": "3", "lhs": "L3", "rhs": "R3"}
    assert rendered == ["L", "R"]
    assert _scan([1, 2], lambda k: Side(k, "L"), lambda k: Side(k, "R")) is None


def test_class_function_text_lists_the_nonzero_values():
    # the witness text of check_mesa and check_psi_decomp
    empty, edge = path_of_graph(2, []), path_of_graph(2, [(1, 2)])
    assert str(class_fn(ClassFnUT, 2, 2, {empty: 0, edge: -3})) == "{'EESS': '-3'}"
    assert str(class_fn(ClassFnUT, 2, 2, {})) == "{}"
    assert str(class_fn(UnipClassFn, 2, 3, {(1, 1): 2})) == "{'(1, 1)': '2'}"


def test_dependencies_declared():
    assert DEPENDENCIES["check_cor66"] == ("check_llt", "check_as")


def test_run_check_unknown():
    with pytest.raises(ValueError):
        run_check("check_nonsense", 2, 2)


def test_run_check_refuses_a_numeric_check_without_q():
    with pytest.raises(ValueError, match="^check_cqs needs a field size q$"):
        run_check("check_cqs", 2, None)


def test_run_check_writes_every_report_and_a_symbolic_one_has_no_q():
    for name, fn in ALL_CHECKS.items():
        symbolic = name in SYMBOLIC_CHECKS
        rep = run_check(name, 2, 3)  # q = 3 is passed to every check, symbolic ones too
        assert (rep.check, rep.n, rep.q, rep.witness) == (name, 2, None if symbolic else 3, None)
        assert (fn(2) if symbolic else fn(2, 3)) is None


def test_the_check_registries_agree():
    import inspect
    arity = {name: len(inspect.signature(fn).parameters) for name, fn in ALL_CHECKS.items()}
    assert set(arity.values()) == {1, 2}
    assert set(SYMBOLIC_CHECKS) == {name for name, k in arity.items() if k == 1}
    assert len(SYMBOLIC_CHECKS) == len(set(SYMBOLIC_CHECKS))
    assert all(name in ALL_CHECKS for key, deps in DEPENDENCIES.items() for name in (key, *deps))


def test_run_check_guard_propagates():
    # induction walks the Springer fibres of F_3^6: 1,226,512 flags, past MAX_SWEEP
    with pytest.raises(SizeGuardError, match="the Springer fibres of F_3\\^6 visits 1,226,512"):
        run_check("check_cqs", 6, 3)


# -- check_cm against its original form -------------------------------------------

def test_check_cm_agrees_with_the_old_form_through_plethysm_frac():
    # old: (t-1)^n X[x/(t-1)] = G over Q(t); new: (t-1)^n X = G[(t-1)x] over Q[t, 1/t]
    for n in range(1, 5):
        assert check_cm(n) is None, n
        for pi in gen_dyck(n):
            old = cm_lhs(pi)
            assert old == llt_vertical(pi).coeffs, pi
            assert plethysm_mul(SymFunc(n, "M", old)) == csf(pi).scale((T - 1) ** n), pi


def _unicellular_sum_by_addition(sigma):
    """check_prop56(ii)'s old right side: one SymFunc added per subset of Diag."""
    n, a, d = sigma.size, area(sigma), sorted(diag(sigma))
    terms = []
    for mask in product((0, 1), repeat=len(d)):
        s = frozenset(e for e, m in zip(d, mask) if m)
        sign = (-1) ** (len(d) - len(s))
        terms.append(llt_vertical(area_inverse(a | s, n)).scale(sign))
    return sym_sum(*terms)


def test_unicellular_sum_matches_the_symfunc_by_symfunc_sum():
    for n in range(6):
        for sigma in gen_tall_schroder(n):
            assert _unicellular_sum(sigma) == _unicellular_sum_by_addition(sigma), sigma


def test_check_cm_divides_by_nothing(monkeypatch):
    # both sides stay in Z[t]: no coefficient of either side is a quotient
    import chromaq.bridge as bridge
    sides = []
    monkeypatch.setattr(bridge, "_scan", lambda *args: sides.append(args))
    for n in range(6):
        check_cm(n)
    monkeypatch.undo()
    for items, lhs, rhs in sides:
        for pi in items:
            for F in (lhs(pi), rhs(pi)):
                assert all(c.low >= 0 and all(type(a) is int for a in c.coeffs)
                           for c in F.coeffs.values()), pi
    assert all(check_cm(n) is None for n in range(6))


def test_check_cm_fails_on_a_perturbed_llt(monkeypatch):
    import chromaq.bridge as bridge
    target = gen_dyck(3)[2]

    def perturbed(path):
        G = llt_vertical(path)
        if path == target:
            G = sym_sum(G, SymFunc(3, "M", {(2, 1): T}))
        return G

    monkeypatch.setattr(bridge, "llt_vertical", perturbed)
    witness = check_cm(3)
    assert witness is not None and witness["index"] == str(target)
    assert witness["lhs"] != witness["rhs"]
    monkeypatch.undo()
    assert check_cm(3) is None


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
# the middle of the scan at (3, 2): the Dyck path G = gen_dyck(3)[2], the
# type L = (2, 1), and the tall path S = gen_tall_schroder(3)[5] of 11
_G = gen_dyck(3)[2]
_L = gen_partitions(3)[1]
_S = gen_tall_schroder(3)[5]
_BUMP_G = class_fn(ClassFnUT, 3, 2, {_G: 1})
# chi^{2-3} enters the right side of check_psi_decomp first at EEESSS (item 4),
# the first tall path with Diag <= {2-3} <= Area u Diag
_G23 = path_of_graph(3, [(2, 3)])


@pytest.mark.parametrize("check, kernel, hit, change, index", [
    # the sweep's count of type L labeled G, which chi_bar(gamma) reads first at gamma = G
    ("check_hess", "induction_table", lambda n, q: True,
     lambda t: {**t, _L: fn_sum(ClassFnUT(3, 2, t[_L]), _BUMP_G).values}, (_G, _L)),
    ("check_hess", "hessenberg_count", lambda g, lam, q: (g, lam) == (_G, _L),
     lambda c: c + 1, (_G, _L)),
    ("check_poincare", "hessenberg_count", lambda g, lam, q: (g, lam) == (_G, _L),
     lambda c: c + 1, (_G, _L)),
    ("check_poincare", "d_coeffs", lambda g: g == _G,
     lambda d: {**d, _L: d.get(_L, ZERO) + 1}, (_G, _L)),
    ("check_permtoind", "chi_bar", lambda g, q: g == _G, lambda f: fn_sum(f, _BUMP_G), _G),
    ("check_permtoind", "permutation_character_oracle", lambda g, q: g == _G,
     lambda f: fn_sum(f, _BUMP_G), _G),
    ("check_mesa", "psi_pseudo", lambda s, q: s == mesa(_G), lambda f: fn_sum(f, _BUMP_G), _G),
    ("check_mesa", "chi_super", lambda g, q: g == _G, lambda f: fn_sum(f, _BUMP_G), _G),
    ("check_psi_decomp", "psi_pseudo", lambda s, q: s == _S, lambda f: fn_sum(f, _BUMP_G), _S),
    ("check_psi_decomp", "chi_super", lambda g, q: g == _G23, lambda f: fn_sum(f, _BUMP_G),
     SchroderPath("EEESSS")),
])
def test_sweep_fed_checks_fail_on_a_perturbed_side(monkeypatch, check, kernel, hit, change, index):
    _fails_at_the_perturbed_item(monkeypatch, check, kernel, hit, change, index)


def _bump(f):
    """f plus t times its basis element at (2, 1)."""
    return sym_sum(f, SymFunc(f.degree, f.basis, {(2, 1): T}))


# the other nine checks, each side perturbed at one item of its scan: at (3, 2),
# except the divisibility of check_gg, which (q - 1)^{n-1} = 1 cannot break at
# q = 2; _S = EESDS has Diag {2-3}, so part i of check_prop56 never reads it.
# The p_brace1 side of check_cor66 is perturbed through psi_pseudo: p_brace1
# itself sees only the induced function, which EDESS and EESDS share.  The right sides
# of check_gg's e_n step and of check_st_en (e_n = m_{1^n}) are constants
_PERTURBED_SIDES = [
    ("check_cqs", "chi_bar", lambda g, q: g == _G, lambda f: fn_sum(f, _BUMP_G), _G, 2, None),
    ("check_cqs", "csf", lambda g: g == _G, _bump, _G, 2, None),
    ("check_llt", "psi_pseudo", lambda s, q: s == _S, lambda f: fn_sum(f, _BUMP_G), _S, 2, None),
    ("check_llt", "llt_vertical", lambda path: path == _S, _bump, _S, 2, None),
    ("check_as", "as_expansion", lambda s: s == _S, _bump, _S, 2, None),
    ("check_as", "llt_vertical", lambda path: path == _S, _bump, _S, 2, None),
    ("check_cm", "csf", lambda g: g == _G, _bump, _G, 2, None),
    ("check_palindromic", "csf", lambda g: g == _G, _bump, _G, 2, None),
    ("check_prop56", "llt_vertical", lambda path: path == _G, _bump, _G, 2, "i"),
    ("check_prop56", "omega", lambda g: g == llt_vertical(_G), _bump, _G, 2, "i"),
    ("check_prop56", "llt_vertical", lambda path: path == _S, _bump, _S, 2, "ii"),
    ("check_gg", "induce_to_GL", lambda phi: True,
     lambda f: fn_sum(f, class_fn(UnipClassFn, 3, 3, {_L: 1})), _L, 3, None),
    ("check_gg", "induce_to_GL", lambda phi: True,
     lambda f: fn_sum(f, class_fn(UnipClassFn, 3, 2, {_L: 1})), "p_brace1(Gamma_n)", 2, None),
    ("check_st_en", "basis_element", lambda basis, lam: basis == "PT", _bump, (1, 1, 1), 2, None),
    ("check_cor66", "as_expansion", lambda s: s == _S, _bump, _S, 2, None),
    ("check_cor66", "psi_pseudo", lambda s, q: s == _S, lambda f: fn_sum(f, _BUMP_G), _S, 2, None),
]


@pytest.mark.parametrize("check, kernel, hit, change, index, q, part", _PERTURBED_SIDES)
def test_every_check_fails_on_a_perturbed_side(monkeypatch, check, kernel, hit, change, index,
                                               q, part):
    _fails_at_the_perturbed_item(monkeypatch, check, kernel, hit, change, index, q, part)


def _bump_pt_3(table):
    """q^3 PT_(3)(x; q) one more at m_(1^3), in a copy of bridge's table at n = 3."""
    rows = {lam: dict(row) for lam, row in table.items()}
    rows[(3,)][(1, 1, 1)] += 1
    return rows


_EDGELESS = gen_dyck(3).index(path_of_graph(3, []))


@pytest.mark.parametrize("check, kernel, change", [
    ("check_cqs", "_pt_at_q", _bump_pt_3),
    ("check_llt", "_pt_at_q", _bump_pt_3),
    ("check_cor66", "_pt_at_q", _bump_pt_3),
    ("check_gg", "_pt_at_q", _bump_pt_3),
    # one more u of type (3) labeled edgeless: |C_GL(J_(3))| = 4 over |UT_3| = 8
    ("check_hess", "induction_table",
     lambda t: {**t, (3,): tuple(v + (i == _EDGELESS) for i, v in enumerate(t[(3,)]))}),
    ("check_poincare", "d_coeffs", lambda d: {**d, _L: d.get(_L, ZERO) + 1}),
])
def test_a_failing_witness_of_a_check_that_used_to_divide_holds_integers(monkeypatch, check,
                                                                         kernel, change):
    # these checks divided by q^3, |UT_3| and q^{|E|}, and with these tables their
    # witnesses printed 49/8, 9/8, 9/8, 9/8, 3/2 and 1/8; cross-multiplied, they
    # print no quotient
    import chromaq.bridge as bridge
    original = getattr(bridge, kernel)
    monkeypatch.setattr(bridge, kernel, lambda *args: change(original(*args)))
    rep = run_check(check, 3, 2)
    assert not rep.ok
    assert "/" not in rep.witness["lhs"] + rep.witness["rhs"], rep.witness


def test_the_lowest_power_of_t_in_the_pt_rows_is_t_to_the_minus_binom_d_2():
    # the GL checks scale both sides by q^{binom(n,2)}: no PT coordinate of degree d
    # reaches below t^{-binom(d,2)}, and PT_(1^d) = t^{-binom(d,2)} e_d reaches it
    for d in range(9):
        lows = {lam: min(c.low for c in basis_element("PT", lam).coeffs.values())
                for lam in gen_partitions(d)}
        assert min(lows.values()) == lows[(1,) * d] == -(d * (d - 1) // 2), d


def test_the_pt_table_refuses_a_coordinate_below_its_scale(monkeypatch):
    import chromaq.bridge as bridge
    real = bridge._rows

    def lowered(basis, d):
        return {lam: {mu: c.shift(-1) for mu, c in row.items()} if lam == (1, 1, 1) else row
                for lam, row in real(basis, d).items()}

    monkeypatch.setattr(bridge, "_rows", lowered)
    with pytest.raises(ArithmeticError,
                       match=r"^PT_\[1, 1, 1\] has the m_\[1, 1, 1\]-coordinate t\^-4, below t\^-3$"):
        _pt_at_q.__wrapped__(3, 2)


def test_d_coefficients_lie_in_z_t():
    # check_poincare compares q^{|E|} |B| with d_lam^gamma(q): for n <= 6 every
    # d coefficient is a polynomial over Z, with no negative power of t
    for n in range(7):
        for g in gen_dyck(n):
            assert all(c.low >= 0 and all(type(a) is int for a in c.coeffs)
                       for c in d_coeffs(g).values()), g


def test_check_psi_decomp_builds_each_supercharacter_once(monkeypatch):
    import chromaq.bridge as bridge
    calls = Counter()

    def counted(gamma, q):
        calls[gamma] += 1
        return chi_super(gamma, q)

    monkeypatch.setattr(bridge, "chi_super", counted)
    for n, graphs in ((3, 5), (4, 14), (5, 42)):
        calls.clear()
        assert bridge.check_psi_decomp(n, 2) is None
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
    # the Dyck paths are enumerated, and refused past MAX_PATH_N, before the degree-n p rows
    from chromaq.symfunc import _rows
    rows = _rows.cache_info().misses
    with pytest.raises(SizeGuardError, match=f"gen_dyck: n = {n} exceeds guard 8"):
        check_cm(n)
    assert _rows.cache_info().misses == rows


# -- omega on M coordinates -----------------------------------------------------

def test_omega_sympoly_en_hn():
    # omega takes the monomial coordinates of e_n and h_n to each other
    for n in range(1, 5):
        e = basis_element("E", (n,))
        h = SymFunc(n, "M", m_coords("H", (n,)))
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
        for verb, fn, items in [("csf", csf, gen_dyck(n)),
                                ("llt", llt_vertical, gen_tall_schroder(n))]:
            for x in items:
                index = json.dumps({"n": n, "edges": sorted(area(x))}) if verb == "csf" else x.steps
                assert main(["compute", verb, index]) == 0
                assert json.loads(capsys.readouterr().out) == fn(x).to_json(), (verb, index)


def test_cli_verify_all_point(capsys):
    from chromaq.cli import main
    assert main(["verify", "all", "--n", "2", "--q", "2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 14
    assert all(r["status"] == "pass" for r in out)


def test_cli_verify_all_at_one_size_runs_the_numeric_checks_at_its_q(capsys):
    from chromaq.cli import main
    assert main(["verify", "all", "--n", "2", "--q", "3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    symbolic = {"check_as", "check_cm", "check_palindromic", "check_prop56", "check_st_en"}
    assert sorted((r["check"], r["n"], r["q"]) for r in out) == sorted(
        (name, 2, None if name in symbolic else 3) for name in ALL_CHECKS)
    assert sum(r["q"] == 3 for r in out) == 9 and all(r["status"] == "pass" for r in out)


def test_every_check_function_is_registered_under_its_own_name_in_its_order():
    # a check written in bridge and left out of ALL_CHECKS would never be verified
    import inspect

    import chromaq.bridge as bridge
    defined = [name for name, obj in vars(bridge).items() if name.startswith("check_")
               and inspect.isfunction(obj) and obj.__module__ == bridge.__name__]
    assert defined == list(ALL_CHECKS)
    assert all(fn.__name__ == name for name, fn in ALL_CHECKS.items())


def test_cli_verify_check_mesa_past_twelve_edges(capsys):
    # EEEEEESSSSSS is K_6 with 15 edges, and its supercharacter is built
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
    # the refusal names the count and the bound, in verify and in compute: the
    # Springer fibres of F_3^6 for induction, the graphs on [9] for superclass sizes
    for argv, what in ((["verify", "check_cqs", "--n", "6", "--q", "3"],
                        "1,226,512 elements, past the bound MAX_SWEEP = 117,649"),
                       (["compute", "superclass-sizes", "--n", "9", "--q", "5"],
                        "gen_dyck: n = 9 exceeds guard 8")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and what in err


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
    # an empty --jordan-type is given, not absent
    (["compute", "hess-count", "EESS", "--q", "2", "--matrix", "0000", "--jordan-type", ""],
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
    ('{"n": "2", "edges": []}', '"n" must be an integer >= 0'),
    ('{"n": 3, "edges": 5}', '"edges" must be a list of integer pairs'),
    ('{"n": -1, "edges": []}', '"n" must be an integer >= 0'),
    ('{"n": 2, "edges": [[1]]}', '"edges" must be a list of integer pairs'),
])
def test_cli_rejects_malformed_graph_json(capsys, graph, message):
    from chromaq.cli import main
    assert main(["compute", "csf", graph]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("verb, flags", [("csf", []), ("induce", ["--q", "2"])])
def test_cli_reads_the_empty_graph_as_json_or_as_the_empty_path(capsys, verb, flags):
    # superclass-sizes --n 0 prints the graph {"n": 0, "edges": []}, and it reads back
    # as the graph of the empty path
    from chromaq.cli import main
    assert main(["compute", "superclass-sizes", "--n", "0", "--q", "2"]) == 0
    graph = json.dumps(json.loads(capsys.readouterr().out)["sizes"][0]["graph"])
    assert graph == '{"n": 0, "edges": []}'
    printed = []
    for index in ("", graph):
        assert main(["compute", verb, index, *flags]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1] and printed[0].err == ""


@pytest.mark.parametrize("verb, flags, guarded", [
    ("csf", [], "the color classes of [12] visits 531,441"),
    ("d-coeffs", [], "the color classes of [12] visits 531,441"),
    ("e-expand", [], "the color classes of [12] visits 531,441"),
    ("induce", ["--q", "2"], "the Springer fibres of F_2^12 visits at least 3,134,565"),
    ("hess-count", ["--q", "2", "--jordan-type", "12"],
     "the Springer fibres of F_2^12 visits at least 3,134,565"),
], ids=["csf", "d-coeffs", "e-expand", "induce", "hess-count"])
def test_cli_guards_a_json_graph_before_its_path_is_built(capsys, monkeypatch, verb, flags, guarded):
    # the JSON's shape is checked first, then the verb's guard reads n, and only then
    # are the edges read into a path: so a refused n is named before an edge set that
    # is not closed, and an n past the guard builds no path
    import chromaq.cli as cli

    def no_path(*args):
        raise AssertionError("a path was built before the guard")

    monkeypatch.setattr(cli, "path_of_graph", no_path)
    for graph, message in [('{"n": 12, "edges": [[1, 3]]}', f"sweeping {guarded} elements"),
                           ('{"n": 12, "edges": [[1, "a"]]}', 'graph JSON: "edges" must be a list')]:
        assert cli.main(["compute", verb, graph, *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
    monkeypatch.undo()
    assert cli.main(["compute", verb, '{"n": 3, "edges": [[1, 3]]}', *flags]) == 2
    assert capsys.readouterr().err == "error: edge set [(1, 3)] on [3] is not interval-closed\n"


def test_cli_superclass_sizes_list_the_graphs_by_edge_count_then_edges(capsys):
    from chromaq.cli import main
    for n, q in ((4, 3), (5, 2)):
        assert main(["compute", "superclass-sizes", "--n", str(n), "--q", str(q)]) == 0
        sizes = json.loads(capsys.readouterr().out)["sizes"]
        keys = [(len(s["graph"]["edges"]), s["graph"]["edges"]) for s in sizes]
        assert keys == sorted(keys) and len(keys) == len(gen_dyck(n))
        want = superclass_sizes(n, q)
        assert [s["size"] for s in sizes] == [want[path_of_graph(n, e)] for _, e in keys]
        assert all(s["graph"]["n"] == n for s in sizes)


@pytest.mark.parametrize("check", ["check_hess", "check_poincare", "check_cqs", "check_llt",
                                   "check_cor66", "check_gg"])
@pytest.mark.parametrize("n, q, count", [(6, 3, "1,226,512"), (7, 2, "3,605,290")])
def test_hessenberg_checks_are_refused_before_any_work(monkeypatch, check, n, q, count):
    # the Springer fibres are bounded before any item is listed, any class function
    # is built, or the UT_n sweep or the d coefficients are started
    import chromaq.bridge as bridge
    import chromaq.fqoracle as fq

    def kernel(*args):
        raise RuntimeError("a kernel ran")

    for name in ("induction_table", "d_coeffs", "gen_dyck", "gen_tall_schroder",
                 "_partitions", "chi_bar", "psi_pseudo"):
        monkeypatch.setattr(bridge, name, kernel)
    monkeypatch.setattr(fq, "_lattice", kernel)
    with pytest.raises(SizeGuardError, match=f"sweeping the Springer fibres of F_{q}\\^{n} visits "
                                             f"{count} elements, past the bound MAX_SWEEP = 117,649"):
        getattr(bridge, check)(n, q)
    # one point below the bound, the scan starts
    with pytest.raises(RuntimeError, match="a kernel ran"):
        getattr(bridge, check)(n - 1, q)


@pytest.mark.parametrize("n, q, count, below", [(6, 3, "1,226,512", 5),
                                                (8, 2, "at least 3,134,565", 6)])
def test_compute_induce_is_refused_before_any_graph_is_listed(monkeypatch, capsys, n, q, count, below):
    import chromaq.cli as cli
    import chromaq.fqoracle as fq

    def kernel(*args):
        raise RuntimeError("a kernel ran")

    monkeypatch.setattr(cli, "chi_bar", kernel)
    monkeypatch.setattr(fq, "_lattice", kernel)
    assert cli.main(["compute", "induce", "E" * n + "S" * n, "--q", str(q)]) == 2
    assert capsys.readouterr().err == (f"error: sweeping the Springer fibres of F_{q}^{n} visits "
                                       f"{count} elements, past the bound MAX_SWEEP = 117,649\n")
    with pytest.raises(RuntimeError, match="a kernel ran"):
        cli.main(["compute", "induce", "E" * below + "S" * below, "--q", str(q)])


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
        hessenberg_count(path_of_graph(12, []), (1,) * 12, 7)


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
    # '' is the empty partition, of n = 0 only
    (["compute", "hess-count", "EESS", "--q", "2", "--jordan-type", ""],
     "Jordan type () is not a partition of n = 2"),
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
    (["compute", "csf", '{"n": 2, "edges": [[1,1]]}'], "edge (1, 1) is a loop"),
    (["compute", "csf", '{"n": 2, "edges": [[1,3]]}'], "edge (1, 3) has an end outside [2]"),
    (["compute", "csf", '{"n": 2, "edges": [[0,1]]}'], "edge (0, 1) has an end outside [2]"),
    (["compute", "csf", '{"n": 3, "edges": [[1,3]]}'], "edge set [(1, 3)] on [3] is not interval-closed"),
    (["compute", "induce", "EESS"], "error: induce needs --q"),
    (["compute", "hess-count", "EESS", "--jordan-type", "2"], "error: hess-count needs --q"),
    (["compute", "superclass-sizes", "--n", "3"], "error: superclass-sizes needs --n and --q"),
    (["verify", "nope"], "error: unknown check 'nope'; choose from ['check_as', "),
    (["compute", "llt", "DD"], "error: 'DD' is not a tall path\n"),
    (["compute", "as-expand", "DD"], "error: 'DD' is not a tall path\n"),
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
    ("hess-count", ["--q", "2", "--matrix", ""]), ("hess-count", ["--q", "2", "--jordan-type", ""]),
])
def test_cli_omitted_index_is_refused(capsys, verb, options):
    from chromaq.cli import main
    assert main(["compute", verb, *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: compute {verb} needs an index (")
    # an explicit empty index is the path of size 0, as `verify --n 0` is, and
    # `--matrix ''` its 0 x 0 matrix and `--jordan-type ''` its empty type, each
    # of which counts the one flag of F_q^0
    if options[-2:] != ["--jordan-type", "1"]:  # the type (1) has size 1
        assert main(["compute", verb, "", *options]) == 0
        out = capsys.readouterr().out
        if verb == "hess-count":
            assert json.loads(out) == {"count": 1}


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
                            name, n, q, {"index": "x", "lhs": "0", "rhs": "1"}))
    assert cli.main(["verify", "check_cqs", "--n", "2", "--q", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL check_cqs" in out and "witness" in out


def test_cli_exit_one_on_a_perturbed_csf(capsys, monkeypatch):
    import chromaq.bridge as bridge
    from chromaq.cli import main
    target = path_of_graph(2, [(1, 2)])
    bump = SymFunc(2, "M", {(1, 1): T})
    monkeypatch.setattr(bridge, "csf", lambda g: sym_sum(csf(g), bump) if g == target else csf(g))
    witness = run_check("check_cqs", 2, 2).witness
    assert witness["index"] == str(target) == "EESS"
    # the witness index is the step string of a Dyck path, which compute reads back
    assert main(["compute", "csf", witness["index"]]) == 0
    assert json.loads(capsys.readouterr().out) == csf(target).to_json()
    assert main(["verify", "check_cqs", "--n", "2", "--q", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL check_cqs (n=2, q=2)" in out and f"witness: {json.dumps(witness)}" in out
    assert main(["verify", "check_cqs", "--n", "2", "--q", "2", "--json"]) == 1
    [report] = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail" and report["witness"] == witness
