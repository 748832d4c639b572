"""Checks on the sources and the docs that no linter in CI makes: README's
API list and error table match the package, every underscore name that a
docstring or README cites is defined in the package, every attribute of a
package class that they cite exists, no module keeps an import it never
uses, and no module brings floating point in.  That starting the CLI loads
none of the introspection modules is checked in a fresh process, by
``console_checks.check_startup_loads_no_introspection_module``."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import commspec
from commspec import errors

_PACKAGE = Path(commspec.__file__).parent
_README = Path(__file__).parent.parent / "README.md"


def _readme_section(title: str) -> str:
    text = _README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def _exports() -> dict[str, set[str]]:
    """The names ``__init__.py`` imports, by the module they come from."""
    tree = ast.parse((_PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    out: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def _error_table() -> dict[str, int]:
    rows = re.findall(r"^\| `(\w+)` \| (\d) \|", _readme_section("Python API"), re.M)
    return {name: int(code) for name, code in rows}


def test_readme_lists_exactly_the_exported_names():
    section = _readme_section("Python API")
    listed: dict[str, set[str]] = {}
    for layer, body in re.findall(r"^- (\w+): (.*?)(?=^- |^$)", section, re.M | re.S):
        listed[layer] = set(re.findall(r"`(\w+)`", body))
    listed["errors"] |= set(_error_table())
    assert listed == _exports()


def test_readme_error_table_matches_the_error_classes():
    classes = {
        cls.__name__: cls.exit_code
        for cls in vars(errors).values()
        if inspect.isclass(cls)
        and issubclass(cls, errors.CommspecError)
        and cls is not errors.CommspecError
    }
    assert _error_table() == classes


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_module_imports_a_name_it_never_uses(path):
    # __init__.py is left out: its imports are the package's exports
    assert _unused_imports(path) == []


# an underscore name cited in a docstring as ``_name`` or ``module._name``,
# or in README as `_name`; dunder names are Python's, not the package's
_CITED_DOCSTRING = re.compile(r"``(?:\w+\.)*(_[^\W_]\w*)``")
_CITED_README = re.compile(r"`(?:\w+\.)*(_[^\W_]\w*)`")
# the methods that NamedTuple gives every record
_NAMEDTUPLE_METHODS = {"_replace", "_make", "_fields"}


def _defined_names(tree: ast.Module) -> set[str]:
    """The names a def, a class or an assignment binds at the top level of
    a module or in a class body."""
    names = set()
    bodies = [tree.body]
    while bodies:
        for node in bodies.pop():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
                if isinstance(node, ast.ClassDef):
                    bodies.append(node.body)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _docstrings(tree: ast.Module) -> list[str]:
    """The docstrings of a module and of every class and function in it."""
    return [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
    ]


def _package_trees() -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in _PACKAGE.glob("*.py")]


def test_every_cited_underscore_name_is_defined():
    # a docstring or README that still names a deleted helper is stale
    defined = set(_NAMEDTUPLE_METHODS)
    cited = set(_CITED_README.findall(_README.read_text(encoding="utf-8")))
    for tree in _package_trees():
        defined |= _defined_names(tree)
        for doc in _docstrings(tree):
            cited.update(_CITED_DOCSTRING.findall(doc))
    assert cited, "the pattern found no citation at all"
    assert sorted(cited - defined) == []


# an attribute of a class cited in a docstring as ``Class.attribute`` or
# ``module.Class.attribute``, or in README as `Class.attribute`
_CITED_ATTRIBUTE_DOCSTRING = re.compile(r"``(?:\w+\.)*(_?[A-Z]\w*)\.(\w+)``")
_CITED_ATTRIBUTE_README = re.compile(r"`(?:\w+\.)*(_?[A-Z]\w*)\.(\w+)`")


def _package_classes() -> dict[str, type]:
    """Every class that a module of the package defines, by name."""
    modules = [
        importlib.import_module(f"commspec.{path.stem}")
        for path in _PACKAGE.glob("*.py")
        if path.stem != "__init__"
    ]
    return {
        name: obj
        for module in modules
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    }


def _stale_attributes(docstrings: list[str], readme: str) -> list[str]:
    """The cited ``Class.attribute`` pairs whose class is one of the
    package's and has no such attribute; a class from outside the package,
    such as ``typing.NamedTuple``, is not checked."""
    cited = set(_CITED_ATTRIBUTE_README.findall(readme))
    for doc in docstrings:
        cited.update(_CITED_ATTRIBUTE_DOCSTRING.findall(doc))
    classes = _package_classes()
    return sorted(
        f"{name}.{attribute}"
        for name, attribute in cited
        if name in classes and not hasattr(classes[name], attribute)
    )


def test_every_cited_class_attribute_exists():
    # a docstring or README that still names a renamed field is stale
    docstrings = [doc for tree in _package_trees() for doc in _docstrings(tree)]
    readme = _README.read_text(encoding="utf-8")
    assert _CITED_ATTRIBUTE_DOCSTRING.search("\n".join(docstrings))
    assert _CITED_ATTRIBUTE_README.search(readme)
    assert _stale_attributes(docstrings, readme) == []


def test_the_attribute_guard_finds_a_stale_citation():
    tree = ast.parse(
        '"""``CenterCosets.products`` and ``groups.CenterCosets.quotient``."""\n'
        "class Record:\n"
        '    """``FiniteGroup.table``, ``_GroupFields.rows`` and\n'
        '    ``typing.NamedTuple``; ``Fraction.limit`` is not the package\'s."""\n'
    )
    readme = "`FiniteGroup.tables`, `Spectrum.pairs` and `groups.FiniteGroup.order`"
    assert _stale_attributes(_docstrings(tree), readme) == [
        "CenterCosets.products",
        "FiniteGroup.tables",
        "_GroupFields.rows",
    ]


# the functions of ``math`` that map ints to ints exactly; every other name
# in it returns a float or is one (sqrt, log, pi, ...)
_EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def _negative_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
    ) or (isinstance(node, ast.Constant) and type(node.value) is int and node.value < 0)


def _float_sites(source: str) -> list[tuple[int, str]]:
    """The lines of ``source`` that bring floating point in, and why: true
    division, a float or complex literal, a call of ``float`` or
    ``complex``, a ``math`` name outside ``_EXACT_MATH``, or a power with a
    negative literal exponent (``x ** -1``, or ``pow`` with two
    arguments)."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            sites.append((node.lineno, f"{type(node.value).__name__} literal"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name in ("float", "complex"):
                sites.append((node.lineno, f"{name}()"))
            elif name == "pow" and len(node.args) == 2 and _negative_literal(node.args[1]):
                sites.append((node.lineno, "negative power"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if _negative_literal(node.right):
                sites.append((node.lineno, "negative power"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr not in _EXACT_MATH:
                sites.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in _EXACT_MATH:
                    sites.append((node.lineno, f"math.{alias.name}"))
    return sorted(sites)


def test_the_float_guard_finds_each_kind_of_site():
    source = "\n".join(
        [
            "a = 1 / 2",
            "a /= 2",
            "b = 0.5",
            "c = 2j",
            "d = float(3)",
            "e = complex(1, 2)",
            "import math",
            "f = math.sqrt(4)",
            "from math import isqrt, log",
            "g = 2 ** -1",
            "h = pow(2, -1)",
            # exact: floor division, int powers, a modular inverse, isqrt
            "i = 7 // 2 + 2 ** 3 + pow(3, -1, 7) + math.isqrt(9)",
        ]
    )
    assert _float_sites(source) == [
        (1, "true division"),
        (2, "true division"),
        (3, "float literal"),
        (4, "complex literal"),
        (5, "float()"),
        (6, "complex()"),
        (8, "math.sqrt"),
        (9, "math.log"),
        (10, "negative power"),
        (11, "negative power"),
    ]


@pytest.mark.parametrize(
    "path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_no_module_uses_floating_point(path):
    # the package computes in exact integers only
    assert _float_sites(path.read_text(encoding="utf-8")) == []


def _module_level_names(tree: ast.Module) -> set[str]:
    """The underscore names a def, a class or an assignment binds at the
    top level of a module; dunder names are Python's."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _referenced_names(tree: ast.Module) -> set[str]:
    """The names that code reads: every ``Name`` that is not bound there,
    and every attribute."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    } | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_module_level_underscore_name_is_used_by_code():
    # a helper that only a docstring still names is dead code
    defined: set[str] = set()
    referenced: set[str] = set()
    for path in _PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= _module_level_names(tree)
        referenced |= _referenced_names(tree)
    assert defined, "no module-level underscore name found"
    assert sorted(defined - referenced) == []


def test_the_dead_code_guard_finds_an_unused_helper():
    tree = ast.parse(
        "_USED = 1\n_UNUSED = 2\n"
        "def _helper():\n    '''``_orphan`` is cited here only.'''\n    return _USED\n"
        "def _orphan():\n    pass\n"
        "class _Record:\n    pass\n"
        "x = _helper() + len([_Record])\n"
    )
    unused = _module_level_names(tree) - _referenced_names(tree)
    assert unused == {"_UNUSED", "_orphan"}
