"""Every top-level function, class and method of ``src/gmepw`` is referenced
somewhere in ``src/gmepw`` besides its own definition.

A reference is any use of the name (a call, an attribute access, an import
or a decorator), so the check is by name, not by resolved binding.  Code
that only tests read belongs in the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gmepw"

# the console entry point (pyproject.toml) is called from outside the package
ALLOWED = {"cli.main"}


def definitions(tree: ast.Module, module: str):
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs):
                    yield f"{module}.{node.name}.{sub.name}", sub.name


def referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_library_symbol_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert "selftest" in trees and "cli" in trees
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    unused = [
        qualified
        for module, tree in trees.items()
        for qualified, name in definitions(tree, module)
        if name not in used
        and qualified not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []
