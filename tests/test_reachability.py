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
    """(name, qualifier, path, line) for every name and attribute under
    src/.  The qualifier is None for a bare name read, the name `C` for an
    attribute read as `C.attr`, and "" for any other attribute.  Attributes
    of `args`, the parsed command line, are options, not library code, and
    are left out."""
    refs = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((node.id, None, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                qualifier = node.value.id if isinstance(node.value, ast.Name) else ""
                if qualifier != "args":
                    refs.append((node.attr, qualifier, path, node.lineno))
    return refs


def _self_assigned():
    """Names assigned as `self.<name> = ...` anywhere under src/."""
    return {
        node.attr
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _unreferenced():
    """Qualified names never referenced outside their own definition.  A
    method counts only as an attribute, so a local variable of the same
    name does not reach it; a method whose name is also an instance
    attribute counts only when read through its class, as `Cls.name`."""
    refs = _references()
    shadowed = _self_assigned()
    out = []
    for qualname, name, node in _definitions():
        parts = qualname.split(".")
        path = PACKAGE / f"{parts[0]}.py"
        is_method = len(parts) == 3

        def reaches(qualifier):
            if not is_method:
                return True
            if name in shadowed:
                return qualifier == parts[1]
            return qualifier is not None

        inside = range(node.lineno, node.end_lineno + 1)
        if not any(
            r == name and reaches(q) and not (p == path and line in inside)
            for r, q, p, line in refs
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
