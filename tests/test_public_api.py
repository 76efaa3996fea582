"""Every public name earns its place.

A name in ``ainfty.__all__`` must either be used by another part of the
package (a module in ``src/ainfty`` other than ``__init__.py``, outside the
name's own definition) or be named in ``README.md``.  A name with neither
has no caller and no documented role, so it should be deleted.
"""

import ast
import re
from pathlib import Path

import ainfty

PACKAGE = Path(ainfty.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def _used_names(tree: ast.AST) -> set[str]:
    """Names read in ``tree``, leaving out reads inside a definition of that name."""
    used: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_public_name_has_a_caller_or_a_readme_role():
    used: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    readme = README.read_text(encoding="utf-8")
    orphans = [
        name
        for name in ainfty.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert not orphans, (
        f"public names with no caller in src/ainfty and no mention in README.md: {orphans}"
    )
