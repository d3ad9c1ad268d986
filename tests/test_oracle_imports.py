"""What the test oracles import from the package.

An oracle that runs on the kernel of the path it checks cannot see a bug in
that kernel.  So each `tests/*_oracle.py` declares, in `CHROMAQ_IMPORTS`,
every name it imports from `chromaq`, as "module.name", with its reason.  A
value type, a listing or a guard needs only its reason; a kernel that the
package's own path also runs on is declared as (reason, test), with the
"tests/file.py::test_name" of the test that checks that kernel alone.  The
audit fails on an undeclared import, on a stale entry and on a named test that
does not exist.  It reads the sources with `ast` and imports no oracle.
"""

from __future__ import annotations

import ast
import os

_TESTS = os.path.dirname(os.path.abspath(__file__))


def _imports(tree: ast.Module) -> set[str]:
    """Every "module.name" the tree imports from chromaq, or "module" for `import chromaq.module`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chromaq":
            module = node.module.split(".", 1)[1] if "." in node.module else ""
            out |= {f"{module}.{a.name}".lstrip(".") for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".", 1)[1] for a in node.names if a.name.startswith("chromaq.")}
    return out


def _declared(tree: ast.Module) -> dict | None:
    """The literal value of the module-level CHROMAQ_IMPORTS, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CHROMAQ_IMPORTS" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _defines_test(test_id: str, root: str) -> bool:
    """True iff "tests/file.py::test_name" names a top-level function of that file."""
    path, _, name = test_id.partition("::")
    full = os.path.join(os.path.dirname(root), path)
    if not path.startswith("tests/") or not os.path.isfile(full):
        return False
    with open(full, encoding="utf-8") as f:
        tree = ast.parse(f.read(), full)
    return any(isinstance(n, ast.FunctionDef) and n.name == name for n in tree.body)


def audit(root: str) -> list[str]:
    """Each undeclared import, stale entry and unknown test of the oracles in root, as text."""
    failures = []
    for fname in sorted(os.listdir(root)):
        if not fname.endswith("_oracle.py"):
            continue
        with open(os.path.join(root, fname), encoding="utf-8") as f:
            tree = ast.parse(f.read(), fname)
        imported, declared = _imports(tree), _declared(tree)
        if declared is None:
            failures += [f"{fname} declares no CHROMAQ_IMPORTS"] if imported else []
            continue
        failures += [f"{fname} imports undeclared {name}" for name in sorted(imported - declared.keys())]
        failures += [f"{fname} declares {name}, which it does not import"
                     for name in sorted(declared.keys() - imported)]
        for name, entry in sorted(declared.items()):
            reason, test = (entry, None) if isinstance(entry, str) else entry
            if not reason:
                failures.append(f"{fname} gives {name} no reason")
            if test is not None and not _defines_test(test, root):
                failures.append(f"{fname} names {test} for {name}, which is no test")
    return failures


def _package_names() -> set[str]:
    """Every "module.name" that a module of the package defines at its top level."""
    src = os.path.join(os.path.dirname(_TESTS), "src", "chromaq")
    names = set()
    for fname in os.listdir(src):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), encoding="utf-8") as f:
                tree = ast.parse(f.read(), fname)
            names |= {f"{fname[:-3]}.{n.name}" for n in tree.body
                      if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            names |= {f"{fname[:-3]}.{t.id}" for n in tree.body if isinstance(n, ast.Assign)
                      for t in n.targets if isinstance(t, ast.Name)}
    return names


def test_every_oracle_declares_what_it_imports_from_the_package():
    assert audit(_TESTS) == []


def test_the_oracles_name_the_tests_of_the_kernels_they_share():
    with open(os.path.join(_TESTS, "matrix_oracle.py"), encoding="utf-8") as f:
        declared = _declared(ast.parse(f.read()))
    assert declared["fqoracle._Packed"][1] == (
        "tests/test_fqoracle.py::test_eliminate_matches_the_tuple_rank")
    # the rational oracles keep arithmetic of their own: no peel, table of rows or sparse
    # change; each name is one the package defines, so the check cannot go stale
    kernels = {"symfunc._peel", "symfunc._rows", "symfunc._change"}
    assert kernels <= _package_names()
    with open(os.path.join(_TESTS, "ratfunc_oracle.py"), encoding="utf-8") as f:
        imported = _imports(ast.parse(f.read()))
    assert not imported & kernels


def test_the_audit_names_an_undeclared_import_a_stale_entry_and_a_missing_test(tmp_path):
    root = tmp_path / "tests"
    root.mkdir()
    (root / "test_k.py").write_text("def test_k():\n    pass\n")
    (root / "a_oracle.py").write_text(
        "from chromaq.symfunc import _peel, SymFunc\n"
        "import chromaq.guards\n"
        "CHROMAQ_IMPORTS = {\n"
        "    'symfunc.SymFunc': 'a value type',\n"
        "    'symfunc._strips': ('the strips', 'tests/test_k.py::test_k'),\n"
        "    'guards': ('', 'tests/test_k.py::test_gone'),\n"
        "}\n")
    (root / "b_oracle.py").write_text("from chromaq.exactnum import ONE\n")
    (root / "c_oracle.py").write_text("from fractions import Fraction\n")
    assert audit(str(root)) == [
        "a_oracle.py imports undeclared symfunc._peel",
        "a_oracle.py declares symfunc._strips, which it does not import",
        "a_oracle.py gives guards no reason",
        "a_oracle.py names tests/test_k.py::test_gone for guards, which is no test",
        "b_oracle.py declares no CHROMAQ_IMPORTS",
    ]
