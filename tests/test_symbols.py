"""Every top-level function, class and method of ``src/gmepw`` is referenced
somewhere in ``src/gmepw`` besides its own definition.

A module-level function or class counts as referenced through a bare name in
its own module, an import of it, or an attribute on an alias of its module
(``gio.parse``).  A method counts as referenced through an attribute access:
on a class name (``Subspace.full``) or on ``self``/``cls`` inside a class
(``self.remainder`` in ``Subspace``) the access counts for that class
only; on any other receiver it counts for every method of that name.  Code
that only tests read belongs in the tests.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gmepw"

# called from outside the package: the console entry point (pyproject.toml),
# the gcd, the kernel and the RREF that perfbench/spans.py wraps by name, and
# the rank that perfbench/workloads.py reads
ALLOWED = {"cli.main", "polynomials.poly_gcd", "linalg.kernel", "linalg.Matrix.rref", "linalg.Matrix.rank"}
ANY_CLASS = "*"


def definitions(tree: ast.Module, module: str):
    """(qualified name, owner, name) of each definition: the owner is the
    module for a module-level name and the class for a method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", module, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs):
                    yield f"{module}.{node.name}.{sub.name}", node.name, sub.name


def module_aliases(tree: ast.Module) -> dict[str, str]:
    """Names bound to a package module, e.g. ``gio`` for ``from . import io as gio``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    return aliases


def references(tree: ast.Module, module: str, classes: set[str]):
    """(owner, name) of each reference in the module; the owner of a method
    reached through an unknown receiver is ANY_CLASS."""
    aliases = module_aliases(tree)

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Name):
            yield module, node.id
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Attribute):
            recv = node.value.id if isinstance(node.value, ast.Name) else None
            if recv in aliases:
                yield aliases[recv], node.attr
            elif recv in classes:
                yield recv, node.attr
            elif recv in ("self", "cls") and owner is not None:
                yield owner, node.attr
            else:
                yield ANY_CLASS, node.attr
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, None)


def unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    classes = {
        node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)
    }
    used = {ref for module, tree in trees.items() for ref in references(tree, module, classes)}
    return [
        qualified
        for module, tree in trees.items()
        for qualified, owner, name in definitions(tree, module)
        if (owner, name) not in used
        and not (owner != module and (ANY_CLASS, name) in used)
        and qualified not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_library_symbol_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert "selftest" in trees and "cli" in trees
    assert unreferenced(trees) == []


def test_every_allowed_name_has_a_reader_outside_src():
    # an entry lives only while a benchmark file or the package metadata
    # names it: every part of the dotted name is a word of one such file
    root = SRC.parent.parent
    texts = [p.read_text(encoding="utf-8") for p in [*sorted((root / "perfbench").glob("*.py")), root / "pyproject.toml"]]
    for name in sorted(ALLOWED):
        parts = name.split(".")
        assert any(all(re.search(rf"\b{part}\b", text) for part in parts) for text in texts), name


def attribute_uses(tree: ast.Module, module: str):
    """(owner, attribute) of each attribute access in the module: the owner
    is ``module.Class`` inside a class and the module elsewhere."""
    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = f"{module}.{node.name}"
        if isinstance(node, ast.Attribute):
            yield owner, node.attr
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, module)


def test_the_reduction_modulo_a_subspace_stays_behind_subspace():
    # every level ranks its rows by Subspace.rank_modulo: only linalg reads
    # the cached unit remainders, and the per-row remainder is called only by
    # Subspace itself (membership)
    uses = [use for path in SRC.glob("*.py")
            for use in attribute_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert {owner.split(".")[0] for owner, attr in uses if attr == "unit_remainders"} == {"linalg"}
    assert {owner for owner, attr in uses if attr == "remainder"} == {"linalg.Subspace"}


def mentions(tree: ast.Module, name: str):
    """The outermost enclosing function (None at module level) of each
    mention of name: a bare name, an attribute or an imported name."""
    def visit(node, owner):
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name):
            yield owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_only_linalg_and_the_token_reader_take_an_lcm():
    # a rational matrix has one integer form, owned by linalg (over_lcd,
    # over_pivots, Matrix.from_int_rows): no other module scales rows to a
    # common denominator itself, save io's reader of one matrix's tokens
    found = {(path.stem, owner) for path in SRC.glob("*.py")
             for owner in mentions(ast.parse(path.read_text(encoding="utf-8")), "lcm")}
    assert {module for module, _ in found} == {"linalg", "io"}
    assert {use for use in found if use[0] != "linalg"} == {("io", None), ("io", "parse_matrix")}


def test_the_integer_layers_name_no_fraction():
    # the dictionary, the strata, the wedge tables, the fibrations and the
    # quadrics run on integer rows: Fraction stays at the API edge
    for module in ("correspondence", "epw", "exterior", "fibrations", "quadrics"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert list(mentions(tree, "Fraction")) == [], module


def test_the_packed_kernel_stays_inside_linalg():
    # every rank and determinant reaches the packed rows through linalg's
    # entry points (_bareiss, det_int, rank_modulo, pencil_eliminations):
    # no other module packs rows, sizes slots or runs the packed loop
    for name in ("_pack", "_eliminate", "_bits"):
        found = {path.stem for path in SRC.glob("*.py")
                 if list(mentions(ast.parse(path.read_text(encoding="utf-8")), name))}
        assert found == {"linalg"}, name
