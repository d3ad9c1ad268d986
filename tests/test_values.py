"""Value semantics of the immutable classes built on `combinatorics.Frozen`:
equality of the exact type over the fields, the hash of the field tuple, the
dataclass-style repr, and no assignment after construction."""

import ast
import pathlib

import pytest

import chromaq

from chromaq.bridge import CheckReport
from chromaq.chromallt import csf, llt_vertical
from chromaq.combinatorics import DyckPath, SchroderPath, path_of_graph
from chromaq.exactnum import LaurentPoly
from chromaq.fqoracle import ClassFnUT, UnipClassFn
from chromaq.symfunc import SymFunc
from orientation_oracle import Orientation

P2 = DyckPath("EESS")  # the graph on [2] with one edge

# (class, constructor arguments, field values as stored, repr)
CASES = [
    (SchroderPath, ("EESS",), ("EESS",), "SchroderPath(steps='EESS')"),
    (SchroderPath, ("EDS",), ("EDS",), "SchroderPath(steps='EDS')"),
    (Orientation, (P2, frozenset({(2, 1)})), (P2, frozenset({(2, 1)})),
     "Orientation(base=SchroderPath(steps='EESS'), arcs=frozenset({(2, 1)}))"),
    (SymFunc, (2, "E", {(2,): 1, (1, 1): LaurentPoly([0, 1])}), None,
     "SymFunc(degree=2, basis='E', coeffs=mappingproxy({(2,): 1, (1, 1): t}))"),
    (ClassFnUT, (2, 3, (1, 0)), (2, 3, (1, 0)), "ClassFnUT(n=2, q=3, values=(1, 0))"),
    (UnipClassFn, (2, 3, (0, 2)), (2, 3, (0, 2)), "UnipClassFn(n=2, q=3, values=(0, 2))"),
    (CheckReport, ("check_cqs", 2, 3), ("check_cqs", 2, 3, None),
     "CheckReport(check='check_cqs', n=2, q=3, witness=None)"),
]
# the first case is a Dyck path: the tall path with no D step
IDS = ["DyckPath"] + [c[0].__name__ for c in CASES[1:]]


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, args, fields, text):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    if fields is None:  # SymFunc holds a read-only mapping and stays unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(fields)


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_another_exact_type_is_never_equal(cls, args, fields, text):
    sub = type("Sub", (cls,), {"__slots__": ()})
    a = cls(*args)
    assert a != sub(*args) and sub(*args) != a
    assert a != args


def test_classes_with_equal_fields_stay_apart():
    assert DyckPath("ES") == SchroderPath("ES")  # one path type
    assert ClassFnUT(2, 3, (1, 0)) != UnipClassFn(2, 3, (1, 0))


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_assignment_raises(cls, args, fields, text):
    a = cls(*args)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_form(cls, args, fields, text):
    assert repr(cls(*args)) == text


def test_check_report_witness_defaults_to_none():
    assert CheckReport("check_cqs", 1, 2).witness is None


def test_equal_graphs_share_one_csf_cache_entry():
    # one graph read from its edges in two orders is one path, one csf cache key
    g, h = path_of_graph(4, frozenset({(1, 2), (3, 4)})), path_of_graph(4, [(4, 3), (2, 1)])
    assert g is not h
    csf(g)
    before = csf.cache_info()
    assert csf(h) is csf(g)
    after = csf.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 2)


def test_a_dyck_path_and_its_tall_path_share_one_llt_cache_entry():
    pi, sigma = DyckPath("EESS"), SchroderPath("EESS")
    assert pi is not sigma and pi == sigma and hash(pi) == hash(sigma)
    G = llt_vertical(pi)
    entries = llt_vertical.cache_info().currsize
    assert llt_vertical(sigma) is G and llt_vertical.cache_info().currsize == entries


def _object_calls(tree, scope=()):
    """(scope, attribute) for each `object.__new__` or `object.__setattr__` that the
    code of a syntax tree names, scope the dotted path of the classes and
    functions it lies in."""
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("__new__", "__setattr__")
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            yield ".".join(scope), node.attr
        named = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _object_calls(node, scope + (node.name,) if named else scope)


def test_frozen_set_is_the_one_writer_of_a_slot_outside_exactnum():
    # every value of the package is built by its own __init__ and written by
    # Frozen._set, on one base class: no object.__new__, no slot written around _set
    found, classes = set(), set()
    for path in sorted(pathlib.Path(chromaq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        classes |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        if path.stem != "exactnum":
            found |= {(path.stem, *call) for call in _object_calls(tree)}
    assert sorted(found) == [("combinatorics", "Frozen._set", "__setattr__")]
    assert "Frozen" in classes and "Hashed" not in classes
