"""Source rules checked with `ast`: no unused imports, and only the I/O layer
opens files."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minimvs"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree):
    """Names bound by import statements that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def open_calls(tree):
    """(enclosing function, line) of every call to `open` or `<x>.open`."""
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "open"
                        or isinstance(func, ast.Attribute) and func.attr == "open"):
                    calls.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return calls


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nimport sys as system\nfrom a import b, c\nprint(c)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "system"), (3, "b")]


def test_only_formats_opens_files():
    found = {(path.stem, function) for path in sorted(PACKAGE.glob("*.py"))
             for function, _ in open_calls(_parse(path))}
    assert found == {("formats", "read_file"), ("formats", "write_file")}
