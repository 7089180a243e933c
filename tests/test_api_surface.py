"""Every top-level function and class of ``charvar``, and every method and
property of its classes, has a caller in the package itself.

A name whose only reference outside its own definition is the export in
``__init__.py`` (or a test) is API kept alive by its own test; such code
belongs in the tests or nowhere.  References are found by name in the
syntax trees of the package modules: any ``Name`` or attribute access
spelled like the definition counts, except inside the definition itself.
Dunder methods are called by the language, not by name, and are skipped.

Likewise every defaulted parameter of those functions and methods is
passed, by position or by keyword, at some call in the package: a
parameter only a test sets is API kept alive by its own test.  A call is
matched to a definition by the called name, as above; a method's ``self``
or ``cls`` is not counted among the positions, and a call with ``*args``
or ``**kwargs`` counts as passing everything.

The same holds for the fields of the package's dataclasses, except those
declared with ``init=False``: every field is read as an attribute
somewhere in the package (a field only a test reads is a stored value
nothing uses), and every defaulted field is set, by position or by
keyword, at some construction of its class in the package.  No field
receives the same constant expression (literals and names in capitals) at
every construction of its class in the package: such a value is the
class's own constant, to be written where it is read, not stored.
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

# (qualified name, parameter) pairs that may stay unset by every package
# call, with the reason
ALLOWED_DEFAULTS: dict[tuple[str, str], str] = {
    ("main", "argv"): "the console script calls main() with no argument, "
                      "so the command line comes from sys.argv",
}


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


def defaulted_parameters(node, method):
    """(name, position) of each defaulted parameter of a function node; the
    position counts call arguments, so a method's first parameter is
    dropped, and a keyword-only parameter has position None."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    if method and not static:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def passes(call, name, position):
    """Whether a call sets the parameter ``name`` at ``position``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def calls_by_name(trees):
    """Called name -> the calls spelled with it in ``trees``."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                out.setdefault(name, []).append(node)
    return out


def unset_defaults(trees):
    """qualname.parameter of each defaulted parameter that no call in
    ``trees`` sets; a recursive call counts, as it varies the parameter."""
    calls = calls_by_name(trees.values())
    out = []
    for tree in trees.values():
        for qualname, node in definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for name, position in defaulted_parameters(node, "." in qualname):
                if ((qualname, name) not in ALLOWED_DEFAULTS
                        and not any(passes(c, name, position)
                                    for c in calls.get(node.name, []))):
                    out.append(f"{qualname}.{name}")
    return out


def test_every_defaulted_parameter_is_set_by_the_package():
    defined = {(qualname, name) for _, qualname, node in all_definitions()
               if isinstance(node, ast.FunctionDef)
               for name, _ in defaulted_parameters(node, "." in qualname)}
    assert set(ALLOWED_DEFAULTS) <= defined
    assert unset_defaults(MODULES) == []


def test_the_guard_sees_a_default_only_tests_set():
    tree = ast.parse("def f(a, b=1, *, c=2):\n    return a\n\n"
                     "def g(n, depth=0):\n    return g(n, depth + 1) if n else depth\n\n"
                     "class C:\n"
                     "    def m(self, x=1, y=2):\n        pass\n\n"
                     "    @classmethod\n"
                     "    def k(cls, z=3):\n        pass\n\n"
                     "    @staticmethod\n"
                     "    def s(w=4):\n        pass\n\n"
                     "f(1, c=3)\ng(2)\nC().m(5)\nC.k()\nC.s(6)\nC().m(*[1, 2])\n")
    assert unset_defaults({"t.py": tree}) == ["f.b", "C.k.z"]


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


# -- dataclass fields ------------------------------------------------------------


def is_dataclass(node):
    """Whether a class node is decorated with ``dataclass`` or a call of it."""
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def dataclass_fields(node):
    """(name, position, default) of each field of a dataclass node that
    ``__init__`` takes; ``position`` counts the constructor's arguments and
    ``default`` is the declared default expression, or None."""
    out = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and any(
                k.arg == "init" and isinstance(k.value, ast.Constant)
                and k.value.value is False for k in value.keywords):
            continue
        out.append((item.target.id, len(out), value))
    return out


def all_dataclasses(trees):
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                yield node


def unread_fields(trees):
    """Class.field of each field no attribute read in ``trees`` spells."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls.name}.{name}" for cls in all_dataclasses(trees)
            for name, _, _ in dataclass_fields(cls) if name not in read]


def unset_fields(trees):
    """Class.field of each defaulted field that no construction in
    ``trees`` sets."""
    calls = calls_by_name(trees.values())
    return [f"{cls.name}.{name}" for cls in all_dataclasses(trees)
            for name, position, default in dataclass_fields(cls)
            if default is not None and not any(passes(c, name, position)
                                     for c in calls.get(cls.name, []))]


def test_every_dataclass_field_is_read_by_the_package():
    assert unread_fields(MODULES) == []


def test_every_defaulted_dataclass_field_is_set_by_the_package():
    assert unset_fields(MODULES) == []


def test_the_guard_sees_unread_and_unset_fields():
    tree = ast.parse("from dataclasses import dataclass, field\n\n"
                     "@dataclass(frozen=True)\n"
                     "class P:\n"
                     "    a: int\n"
                     "    lonely: int\n"
                     "    b: int = 0\n"
                     "    version: str = '1'\n"
                     "    memo: dict = field(default_factory=dict, init=False)\n\n"
                     "    def total(self):\n"
                     "        return self.a + self.b + len(self.version)\n\n"
                     "@dataclass\n"
                     "class Q:\n"
                     "    c: int = 1\n\n"
                     "P(1, 2, 3)\nQ(c=4).c\n")
    # memo is declared with init=False, so neither rule counts it
    assert unread_fields({"t.py": tree}) == ["P.lonely"]
    assert unset_fields({"t.py": tree}) == ["P.version"]


def received(call, name, position, default):
    """The expression a construction gives the field ``name`` at
    ``position``: its argument, else the declared default; None when a
    ``*args`` or ``**kwargs`` hides it."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if any(k.arg is None for k in call.keywords) or any(
            isinstance(a, ast.Starred) for a in call.args):
        return None
    return call.args[position] if len(call.args) > position else default


LITERAL_NODES = (ast.Constant, ast.Tuple, ast.List, ast.Dict, ast.Set,
                 ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator,
                 ast.expr_context)


def is_constant(expr):
    """Whether an expression reads only literals and module constants."""
    return expr is not None and all(
        isinstance(node, LITERAL_NODES)
        or isinstance(node, ast.Name) and node.id.isupper()
        for node in ast.walk(expr))


def constant_fields(trees):
    """Class.field of each field that every construction in ``trees``
    gives the same constant expression."""
    calls = calls_by_name(trees.values())
    out = []
    for cls in all_dataclasses(trees):
        constructions = calls.get(cls.name, [])
        for name, position, default in dataclass_fields(cls):
            given = {ast.dump(e) if is_constant(e) else None
                     for e in (received(c, name, position, default)
                               for c in constructions)}
            if len(given) == 1 and None not in given:
                out.append(f"{cls.name}.{name}")
    return out


def test_no_dataclass_field_receives_one_constant_everywhere():
    assert constant_fields(MODULES) == []


def test_the_guard_sees_a_field_that_is_always_the_same_constant():
    tree = ast.parse("from dataclasses import dataclass\n\n"
                     "NAME = 'n'\n\n"
                     "@dataclass(frozen=True)\n"
                     "class R:\n"
                     "    value: int\n"
                     "    method: str\n"
                     "    cited: tuple\n"
                     "    scale: int = 1\n"
                     "    label: str = 'r'\n\n"
                     "def build(x):\n"
                     "    return R(x, 'rank', NAME), R(2, 'rank', NAME, scale=x)\n\n"
                     "def other(x, **extra):\n"
                     "    return R(x, method='rank', cited=NAME, **extra)\n")
    # value varies, scale is once a variable, and label is hidden once by
    # the **extra of the last construction
    assert constant_fields({"t.py": tree}) == ["R.method", "R.cited"]
