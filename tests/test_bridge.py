import json
from fractions import Fraction
from functools import lru_cache

import pytest

from chromaq.bridge import (
    ALL_CHECKS,
    DEPENDENCIES,
    CheckReport,
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
    gen_partitions,
    gen_tall_schroder,
    indifference_graphs,
)
from chromaq.exactnum import RationalFunc
from chromaq.fqoracle import UnipClassFn, chi_bar, induce_to_GL, psi_pseudo
from chromaq.guards import SizeGuardError
from chromaq.symfunc import SymFunc, basis_element, eval_t, expand_in_basis, omega, plethysm_frac

RF = RationalFunc.const


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
    F = plethysm_frac(F)
    F = eval_t(F, Fraction(phi.q))
    return expand_in_basis(omega(F), "S")


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
        F = plethysm_frac(F)
        F = eval_t(F, Fraction(q))
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
        want[lam] = fa.coeff(lam) * RF(2) + fb.coeff(lam) * RF(Fraction(1, 7))
    assert {k: v for k, v in want.items() if not v.is_zero} == lhs.coeffs


def test_p_one_schur_coefficients_are_nonneg_integers():
    # observed: induced pseudosupercharacters have genuine unipotent constituents
    for q in (2, 3):
        for sigma in gen_tall_schroder(3):
            F = p_one(induce_to_GL(psi_pseudo(sigma, q)))
            for lam, c in F.coeffs.items():
                assert c.is_laurent and c.num.low == 0 and len(c.num.coeffs) <= 1
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


def test_induction_checks_at_n4_q3_and_n3_q5():
    # one UT_n sweep: |UT_4(F_3)| = 729 and |UT_3(F_5)| = 125 elements
    assert check_cqs(4, 3).ok
    assert check_cqs(3, 5).ok
    assert check_gg(4, 3).ok


def test_check_st_en_n5():
    assert check_st_en(5).ok


def test_check_report_shape():
    rep = check_cqs(2, 2)
    d = rep.to_json()
    assert set(d) == {"check", "n", "q", "status", "witness"}
    assert d["status"] == "pass" and d["witness"] is None


def test_fail_requires_witness():
    with pytest.raises(AssertionError):
        CheckReport("check_x", 1, None, "fail")


def test_tripwire_survives_optimized_mode():
    import os
    import subprocess
    import sys

    import chromaq
    src = os.path.dirname(os.path.dirname(chromaq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("assert False, 'python -O strips this'\n"
            "from chromaq.bridge import CheckReport\n"
            "CheckReport('check_x', 1, None, 'fail')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
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


def test_scan_reports_first_failure():
    from chromaq.bridge import _scan
    rep = _scan("check_x", 3, 2, [1, 2, 3], lambda k: (k != 2, f"L{k}", f"R{k}"))
    assert not rep.ok
    assert rep.witness == {"index": "2", "lhs": "L2", "rhs": "R2"}


def test_dependencies_declared():
    assert DEPENDENCIES["check_cor66"] == ("check_llt", "check_as")


def test_run_check_unknown():
    with pytest.raises(ValueError):
        run_check("check_nonsense", 2, 2)


def test_run_check_guard_propagates():
    with pytest.raises(SizeGuardError):
        run_check("check_cqs", 5, 2)


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


@pytest.mark.parametrize("argv, message", [
    (["verify", "all", "--q", "5"], "--q picks the field"),
    (["verify", "all", "--n", "2", "--deep"], "--deep extends the default suite"),
    (["verify", "check_cqs", "--deep"], "--deep extends the default suite"),
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
    assert main(["verify", "check_cqs", "--n", "5", "--q", "2"]) == 2
    assert "error" in capsys.readouterr().err


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
])
def test_cli_compute_rejects_bad_sizes(capsys, argv, message):
    from chromaq.cli import main
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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
