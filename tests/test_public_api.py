"""Every public name earns its place.

A name in ``ainfty.__all__`` must either be used by another part of the
package (a module in ``src/ainfty`` other than ``__init__.py``, outside the
name's own definition) or be named in ``README.md``.  So must each public
member of a class in ``__all__``, read as an attribute (``obj.member``).
A name with neither has no caller and no documented role, so it should be
deleted.  ``KEPT_FOR`` names the members kept only for a caller outside
the package; each entry holds while that file reads the member.
"""

import ast
import re
from pathlib import Path

import ainfty

PACKAGE = Path(ainfty.__file__).parent
ROOT = PACKAGE.parents[1]
README = ROOT / "README.md"
# member -> the file outside src/ainfty that alone reads it; ROADMAP item 2 deletes both
KEPT_FOR = {"AStructure.snapshot": "perfbench/setup_probe.py"}


def _used_names(tree: ast.AST, attributes_only: bool = False) -> set[str]:
    """Names read in ``tree``, leaving out reads inside a definition of that name.

    With ``attributes_only``, only the names read as ``obj.name``.
    """
    used: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes_only:
            name = node.id
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def _package_trees() -> list[ast.AST]:
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]


def _named_in_readme() -> set[str]:
    return set(re.findall(r"\w+", README.read_text(encoding="utf-8")))


def test_every_public_name_has_a_caller_or_a_readme_role():
    known = set().union(*map(_used_names, _package_trees())) | _named_in_readme()
    orphans = [name for name in ainfty.__all__ if name not in known]
    assert not orphans, (
        f"public names with no caller in src/ainfty and no mention in README.md: {orphans}"
    )


def _public_members() -> list[str]:
    """``Class.member`` for each public member of each class in ``__all__``.

    A member counts in each class of the package that defines it, base
    classes included.
    """
    members = []
    for name in ainfty.__all__:
        cls = getattr(ainfty, name)
        if not isinstance(cls, type):
            continue
        for klass in cls.__mro__:
            if klass.__module__.startswith("ainfty."):
                members += [f"{name}.{m}" for m in vars(klass) if not m.startswith("_")]
    return members


def test_every_public_member_has_a_caller_or_a_readme_role():
    trees = _package_trees()
    known = set().union(*(_used_names(tree, attributes_only=True) for tree in trees))
    known |= _named_in_readme()
    orphans = {member for member in _public_members() if member.split(".")[1] not in known}
    assert not orphans - KEPT_FOR.keys(), (
        "public members with no attribute read in src/ainfty and no mention in README.md: "
        f"{sorted(orphans - KEPT_FOR.keys())}"
    )
    for member, caller in KEPT_FOR.items():
        assert member in orphans, f"{member} now has a caller or a README role: drop it from KEPT_FOR"
        tree = ast.parse((ROOT / caller).read_text(encoding="utf-8"))
        assert member.split(".")[1] in _used_names(tree, attributes_only=True), (
            f"{caller} no longer reads {member}: delete the member and its KEPT_FOR entry"
        )
