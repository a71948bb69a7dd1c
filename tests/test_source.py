import ast
import pathlib

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
