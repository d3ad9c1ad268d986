"""No test-only helper in the package.

Every top-level function and class of `src/chromaq`, and every method that is
not a dunder, must be named somewhere in the package outside its own
definition: as a Name or as an attribute.  Helpers that only the tests call
belong beside the test oracles.  A definition that no other line of the package
names is an error unless `DECLARED` lists it with its reason, and a stale entry
of `DECLARED` is an error too.  The scan reads the source with `ast` and runs
none of it.  Names are matched as text, so a method shares its reach with every
other definition of its name.
"""

from __future__ import annotations

import ast
import os

import chromaq

_PACKAGE = os.path.dirname(chromaq.__file__)

# "module.name" or "module.Class.method": the definitions kept though no other
# line of the package names them, each with its reason
DECLARED = {
    "combinatorics.gen_partitions": "the partitions of n in their documented order, as a fresh "
                                    "list: the public reader of _partitions that the tests use",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unnamed(package: str) -> set[str]:
    """The definitions in the .py files of `package` that no line outside
    their own definition names."""
    defs, uses = [], []
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        with open(os.path.join(package, fname), encoding="utf-8") as f:
            tree = ast.parse(f.read(), fname)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node.name, module, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{m.name}", m.name, module, m) for m in node.body
                         if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not _is_dunder(m.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, module, node.lineno))
    return {qual for qual, name, module, node in defs
            if not any(used == name and not (where == module and node.lineno <= line <= node.end_lineno)
                       for used, where, line in uses)}


def test_every_definition_in_the_package_is_named_in_the_package():
    found = unnamed(_PACKAGE)
    assert not found - DECLARED.keys(), (
        f"named nowhere else in src/chromaq: {sorted(found - DECLARED.keys())}; move each beside "
        f"the test oracles, or declare it in DECLARED with its reason")
    assert not DECLARED.keys() - found, f"stale DECLARED entries: {sorted(DECLARED.keys() - found)}"


def test_the_scan_sees_a_definition_named_only_inside_itself(tmp_path):
    # a recursive function reaches itself only; a method called on self is named
    (tmp_path / "mod.py").write_text(
        "def lone(n):\n    return lone(n - 1) if n else 0\n\n\n"
        "class K:\n    def used(self):\n        return self.other()\n\n"
        "    def other(self):\n        return 1\n\n    def __len__(self):\n        return 0\n\n\n"
        "K.used\n")
    assert unnamed(str(tmp_path)) == {"mod.lone"}
