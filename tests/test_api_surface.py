"""Every top-level function and class of ``charvar``, and every method and
property of its classes, has a caller in the package itself.

A name whose only reference outside its own definition is the export in
``__init__.py`` (or a test) is API kept alive by its own test; such code
belongs in the tests or nowhere.  References are found by name in the
syntax trees of the package modules: any ``Name`` or attribute access
spelled like the definition counts, except inside the definition itself.
Dunder methods are called by the language, not by name, and are skipped.
"""

import ast
from pathlib import Path

import charvar

PACKAGE = Path(charvar.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}

# qualified names that may stay without a caller in the package, with the
# reason
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


def definitions(tree):
    """(qualified name, node) of the top-level functions and classes and of
    the methods and properties of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def all_definitions():
    for module, tree in MODULES.items():
        for qualname, node in definitions(tree):
            yield module, qualname, node


def uncalled_definitions():
    names = {module: referenced_names(tree) for module, tree in MODULES.items()}
    out = []
    for module, qualname, node in all_definitions():
        used = (node.name in referenced_names(MODULES[module], skip=(node,))
                or any(node.name in names[other]
                       for other in MODULES if other != module))
        if not used and qualname not in ALLOWED:
            out.append(f"{module[:-3]}.{qualname}")
    return out


def test_every_definition_has_a_caller_in_the_package():
    defined = {qualname for _, qualname, _ in all_definitions()}
    assert set(ALLOWED) <= defined
    assert uncalled_definitions() == []


def test_the_guard_sees_an_uncalled_definition():
    tree = ast.parse("def used():\n    pass\n\n"
                     "def lonely():\n    return lonely\n\n"
                     "used()\n")
    used, lonely = tree.body[:2]
    assert "used" in referenced_names(tree, skip=(used,))
    assert "lonely" not in referenced_names(tree, skip=(lonely,))


def test_the_guard_sees_methods_and_skips_dunders():
    tree = ast.parse("class C:\n"
                     "    def __init__(self):\n        self.ready()\n\n"
                     "    def ready(self):\n        pass\n\n"
                     "    @property\n"
                     "    def lonely(self):\n        return self.lonely\n")
    found = dict(definitions(tree))
    assert set(found) == {"C", "C.ready", "C.lonely"}
    assert "ready" in referenced_names(tree, skip=(found["C.ready"],))
    assert "lonely" not in referenced_names(tree, skip=(found["C.lonely"],))
