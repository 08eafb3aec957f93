"""Every top-level function, class and method in the package is referenced
somewhere under src/ outside its own definition, so no library code exists
that only tests call.  Dunder methods are exempt; the allowlist names the
reason for every other exception."""

import ast
from pathlib import Path

import cherednik

PACKAGE = Path(cherednik.__file__).resolve().parent
SRC = PACKAGE.parent

ALLOWLIST = {
    "dunkl.euler_apply": "acceptance criterion 4 (the Euler spectrum)",
    "partitions.enumerate_m_regular": "acceptance criterion 10",
    "characters.dimension": "its hook-length test, and the LLT oracle of ROADMAP item 1",
    "hecke.CyclotomicField.inv": "wrapped by name in the benchmark's tracing shim",
}


def _definitions():
    """(qualified name, short name, node) for every top-level function and
    class and every method of a top-level class, dunders excepted."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((f"{module}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        out.append((f"{module}.{node.name}.{item.name}", item.name, item))
    return out


def _references():
    """(name, is an attribute, path, line) for every name and attribute
    read under src/."""
    refs = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((node.id, False, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, True, path, node.lineno))
    return refs


def _unreferenced():
    """Qualified names never referenced outside their own definition.  A
    method counts only as an attribute, so a local variable of the same
    name does not reach it."""
    refs = _references()
    out = []
    for qualname, name, node in _definitions():
        path = PACKAGE / f"{qualname.split('.')[0]}.py"
        is_method = qualname.count(".") == 2
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(
            r == name and (attr or not is_method) and not (p == path and line in inside)
            for r, attr, p, line in refs
        ):
            out.append(qualname)
    return out


def test_every_definition_is_reached_from_src():
    unreferenced = [q for q in _unreferenced() if q not in ALLOWLIST]
    assert unreferenced == [], f"referenced only from tests, or nowhere: {unreferenced}"


def test_allowlist_is_current():
    defined = {q for q, _, _ in _definitions()}
    unreferenced = set(_unreferenced())
    assert set(ALLOWLIST) <= defined, set(ALLOWLIST) - defined
    assert set(ALLOWLIST) <= unreferenced, set(ALLOWLIST) - unreferenced
