import ast
import importlib
import pathlib
import sys
import types

import synchrotree

SOURCES = sorted(pathlib.Path(synchrotree.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so every check in the package must raise
    assert SOURCES
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_are_stdlib_numpy_or_the_package():
    # the package's one dependency is numpy; every other top-level import
    # must come from the standard library or be relative
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"numpy", "synchrotree"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name.split(".")[0] not in allowed]
    assert found == []


def test_all_lists_every_public_name():
    bound = {name for name, value in vars(synchrotree).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(synchrotree.__all__) == len(set(synchrotree.__all__))
    assert set(synchrotree.__all__) == bound
    # __all__ is derived from the imports, so only a count catches an
    # export added or dropped by accident
    assert len(synchrotree.__all__) == 69
    # each concept is exported under one name; one_letter_view is
    # apply_word_all and goes once the bench stops importing it
    exported = [getattr(synchrotree, name) for name in synchrotree.__all__
                if name != "one_letter_view"]
    assert len({id(value) for value in exported}) == len(exported)


def test_range_and_count_refusals_live_in_core():
    # states, marks, congruences and counts are read by core's readers, so
    # no other module spells out a range or count refusal of its own
    assert SOURCES
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and ("out of range" in node.value or "must be >= 0" in node.value)
    ]
    assert found == []


def _calls(tree, name):
    # the nodes of tree's calls of name, bare or as a module attribute
    return {node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def test_certificates_are_built_only_by_the_one_check():
    # every SyncCertificate comes out of sync._certificate, so no result
    # can be stamped verified by a check of its own
    assert SOURCES
    found = []
    built = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = _calls(tree, "SyncCertificate")
        if path.name == "sync.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "_certificate":
                    built = _calls(node, "SyncCertificate")
            calls -= built
        found += ["%s:%d" % (path.name, node.lineno) for node in calls]
    assert sorted(found) == []
    assert built


def test_every_imported_name_is_read():
    # a module reads each name it imports; __init__.py imports to re-export
    assert SOURCES
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += ["%s:%d %s" % (path.name, node.lineno, name)
                          for name in (a.asname or a.name.split(".")[0] for a in node.names)
                          if name not in read]
    assert found == []


def test_bench_bindings_resolve(monkeypatch):
    # the traced bench rebinds each (module, name) in COUNTED to count its
    # calls, so a refactor that unbinds one, or drops a name the bench
    # imports, must fail here and not only in the traced bench
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    assert workloads.COUNTED
    for module, name, _ in workloads.COUNTED:
        assert callable(getattr(module, name)), (module.__name__, name)
