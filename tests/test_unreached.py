"""No test-only helper in the package.

Every top-level function and class of `src/chromaq`, and every method that is
not a dunder, must be reached from `cli.main` or from a module-level statement
of the package.  A definition is reached when code already reached names it,
as a Name or as an attribute; a method only once its class is reached, and a
dunder method with its class.  So a cluster of helpers that name only each
other is unreached, however often they do.  Helpers that only the tests call
belong beside the test oracles.  An unreached definition is an error unless
`DECLARED` lists it with its reason, and a stale entry of `DECLARED` is an
error too.  The scan reads the source with `ast` and runs none of it.  Names
are matched as text, so a use reaches every definition of its name.
"""

from __future__ import annotations

import ast
import os

import chromaq

_PACKAGE = os.path.dirname(chromaq.__file__)

# "module.name" or "module.Class.method": the definitions kept though nothing
# reached from cli.main or a module-level statement names them, each with its reason
_TRACER = ("reached only from the tests and through RationalFunc, which perfbench/tracer.py's "
           "EXACTNUM_COUNTERS read when the tracer installs: the move beside the oracles "
           "waits for ROADMAP item 1a")
DECLARED = {
    "combinatorics.gen_partitions": "the partitions of n in their documented order, as a fresh "
                                    "list: the public reader of _partitions that the tests use",
    "exactnum.RationalFunc": _TRACER,
    "exactnum._coerce": _TRACER,
    "exactnum._poly_gcd": _TRACER,
    "exactnum._pdiv": _TRACER,
    "exactnum._ratio": _TRACER,
    "exactnum._split": _TRACER,
}

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(nodes) -> set[str]:
    """Every Name and attribute named anywhere in the given nodes."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def unreached(package: str, roots=("cli.main",)) -> set[str]:
    """The definitions in the .py files of `package` that nothing reached from
    `roots` or a module-level statement names; a method of an unreached class
    goes with its class and is not listed."""
    defs: dict[str, tuple[str, str | None, set[str]]] = {}  # qual -> (name, class qual, uses)
    used: set[str] = set()
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        with open(os.path.join(package, fname), encoding="utf-8") as f:
            tree = ast.parse(f.read(), fname)
        for node in tree.body:
            if isinstance(node, _DEF):
                defs[f"{module}.{node.name}"] = (node.name, None, _names([node]))
            elif isinstance(node, ast.ClassDef):
                cls = f"{module}.{node.name}"
                methods = [m for m in node.body if isinstance(m, _DEF) and not _is_dunder(m.name)]
                own = [n for n in node.body if n not in methods]
                defs[cls] = (node.name, None, _names(node.bases + node.keywords
                                                     + node.decorator_list + own))
                defs.update({f"{cls}.{m.name}": (m.name, cls, _names([m])) for m in methods})
            else:
                used |= _names([node])
    reached = {qual for qual in roots if qual in defs}
    for qual in reached:
        used |= defs[qual][2]
    grown = True
    while grown:
        grown = False
        for qual, (name, cls, uses) in defs.items():
            if qual not in reached and name in used and (cls is None or cls in reached):
                reached.add(qual)
                used |= uses
                grown = True
    return {qual for qual, (_, cls, _) in defs.items()
            if qual not in reached and (cls is None or cls in reached)}


def test_every_definition_in_the_package_is_named_in_the_package():
    found = unreached(_PACKAGE)
    assert not found - DECLARED.keys(), (
        f"unreached from cli.main and the module-level statements of src/chromaq: "
        f"{sorted(found - DECLARED.keys())}; move each beside the test oracles, or declare "
        f"it in DECLARED with its reason")
    assert not DECLARED.keys() - found, f"stale DECLARED entries: {sorted(DECLARED.keys() - found)}"


def test_the_scan_sees_a_definition_named_only_inside_itself(tmp_path):
    # a recursive function reaches itself only, and two functions that name only
    # each other reach nothing; a method called on self is reached with its caller
    (tmp_path / "mod.py").write_text(
        "def lone(n):\n    return lone(n - 1) if n else 0\n\n\n"
        "def ping(n):\n    return pong(n - 1) if n else 0\n\n\n"
        "def pong(n):\n    return ping(n - 1) if n else 0\n\n\n"
        "class K:\n    def used(self):\n        return self.other()\n\n"
        "    def other(self):\n        return 1\n\n    def __len__(self):\n        return 0\n\n\n"
        "K.used\n")
    assert unreached(str(tmp_path)) == {"mod.lone", "mod.ping", "mod.pong"}
