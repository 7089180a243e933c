"""Every top-level function and class of ``charvar`` has a caller in the
package itself.

A name whose only reference outside its own definition is the export in
``__init__.py`` (or a test) is API kept alive by its own test; such code
belongs in the tests or nowhere.  References are found by name in the
syntax trees of the package modules: any ``Name`` or attribute access
spelled like the definition counts, except inside the definition itself.
"""

import ast
from pathlib import Path

import charvar

PACKAGE = Path(charvar.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}

# names that may stay without a caller in the package, with the reason
ALLOWED: dict[str, str] = {}


def referenced_names(tree, skip=()):
    """Names read anywhere in ``tree`` outside the nodes in ``skip``."""
    skipped = {id(node) for top in skip for node in ast.walk(top)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def top_level_definitions():
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node


def uncalled_definitions():
    names = {module: referenced_names(tree) for module, tree in MODULES.items()}
    out = []
    for module, node in top_level_definitions():
        used = (node.name in referenced_names(MODULES[module], skip=(node,))
                or any(node.name in names[other]
                       for other in MODULES if other != module))
        if not used and node.name not in ALLOWED:
            out.append(f"{module[:-3]}.{node.name}")
    return out


def test_every_definition_has_a_caller_in_the_package():
    defined = {node.name for _, node in top_level_definitions()}
    assert set(ALLOWED) <= defined
    assert uncalled_definitions() == []


def test_the_guard_sees_an_uncalled_definition():
    tree = ast.parse("def used():\n    pass\n\n"
                     "def lonely():\n    return lonely\n\n"
                     "used()\n")
    used, lonely = tree.body[:2]
    assert "used" in referenced_names(tree, skip=(used,))
    assert "lonely" not in referenced_names(tree, skip=(lonely,))

