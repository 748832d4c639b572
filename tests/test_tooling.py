"""Checks on the sources and the docs that no linter in CI makes: README's
API list and error table match the package, every underscore name that a
docstring or README cites is defined in the package, and no module keeps an
import it never uses.  That starting the CLI loads none of the introspection
modules is checked in a fresh process, by
``console_checks.check_startup_loads_no_introspection_module``."""

import ast
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


def test_every_cited_underscore_name_is_defined():
    # a docstring or README that still names a deleted helper is stale
    defined = set(_NAMEDTUPLE_METHODS)
    cited = set(_CITED_README.findall(_README.read_text(encoding="utf-8")))
    for path in _PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= _defined_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False) or ""
                cited.update(_CITED_DOCSTRING.findall(doc))
    assert cited, "the pattern found no citation at all"
    assert sorted(cited - defined) == []
