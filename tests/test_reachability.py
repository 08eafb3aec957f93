"""Every top-level function, class and method in the package is referenced
somewhere under src/ outside its own definition, so no library code exists
that only tests call.  Dunder methods are exempt; the allowlist names the
reason for every other exception.

Likewise every parameter is set by src/ itself: a parameter that every call
under src/ leaves at its default, or sets to one and the same literal, is a
knob that only tests turn.  PARAMETER_ALLOWLIST names the exceptions.

Every instance attribute a class under src/ assigns as `self.<name>` is
read there too: as `self.<name>` inside that class, or as `obj.<name>`
anywhere under src/ with `obj` neither `self` nor `args`.  An attribute
that only tests read is state that no verdict reaches.

And no code under src/ raises a bare ValueError: the CLI reads only
UsageError as a refused input, so any other ValueError is a bug."""

import ast
from pathlib import Path

import cherednik

PACKAGE = Path(cherednik.__file__).resolve().parent
SRC = PACKAGE.parent

ALLOWLIST = {
    "dunkl.euler_apply": "acceptance criterion 4 (the Euler spectrum)",
    "hecke.CyclotomicField.inv": "wrapped by name in the benchmark's tracing shim",
}

PARAMETER_ALLOWLIST = {
    "cli.main.argv": "set by the tests and the benchmark's tracing shim, which run the CLI in process",
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


def _unread_attributes():
    """`module.Class.name` for every attribute that a class under src/
    assigns as `self.name` and that nothing under src/ reads: neither the
    class as `self.name` nor any code as `obj.name`, `obj` other than the
    bare names `self` and `args`."""
    elsewhere = {
        node.attr
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "args"))
    }
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            stored, read = set(), set()
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
                    if isinstance(node.ctx, ast.Store):
                        stored.add(node.attr)
                    elif isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
            out.extend(f"{path.stem}.{cls.name}.{name}" for name in sorted(stored - read - elsewhere))
    return out


def test_every_instance_attribute_is_read_in_src():
    unread = _unread_attributes()
    assert unread == [], f"instance attributes that nothing under src/ reads: {unread}"


def test_allowlist_is_current():
    defined = {q for q, _, _ in _definitions()}
    unreferenced = set(_unreferenced())
    assert set(ALLOWLIST) <= defined, set(ALLOWLIST) - defined
    assert set(ALLOWLIST) <= unreferenced, set(ALLOWLIST) - unreferenced


def _callables():
    """(qualified name, arguments node, whether the first argument is
    bound, call name, qualifiers) for every top-level function, every
    method of a top-level class and every class `__init__`, which is called
    by the class's name.  A qualifier is as in `_references`: a function or
    class is called bare (None) or as `module.name`, a method through any
    object (any qualifier but None)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{module}.{node.name}", node.args, False, node.name, {None, module}))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    qualname = f"{module}.{node.name}.{item.name}"
                    bound = not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    if item.name == "__init__":
                        out.append((qualname, item.args, True, node.name, {None, module}))
                    elif not item.name.startswith("__"):
                        out.append((qualname, item.args, bound, item.name, None))
    return out


def _calls():
    """(name, qualifier, call node) for every call under src/ of a bare name
    or an attribute, qualified as in `_references`."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                out.append((node.func.id, None, node))
            elif isinstance(node.func, ast.Attribute):
                value = node.func.value
                qualifier = value.id if isinstance(value, ast.Name) else ""
                out.append((node.func.attr, qualifier, node))
    return out


VARIED = object()


def _literal(node):
    """The repr of a literal expression, or VARIED for any other."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError):
        return VARIED


def _fixed_parameters():
    """`qualified name.parameter` for every parameter that the calls under
    src/ never vary: each call leaves it at its default or passes one and
    the same literal.  A call that unpacks *args or **kwargs, or leaves out
    a required argument (a same-named callable elsewhere), varies every
    parameter; a callable with no call under src/ is left to the
    reachability test."""
    calls = _calls()
    out = []
    for qualname, args, bound, name, qualifiers in _callables():
        positional = args.posonlyargs + args.args
        defaults = dict(zip(reversed(positional), reversed(args.defaults)))
        defaults.update((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)
        if bound:
            positional = positional[1:]
        seen = {a.arg: set() for a in positional + args.kwonlyargs}
        hits = [
            call
            for n, q, call in calls
            if n == name and (q in qualifiers if qualifiers else q is not None)
        ]
        for call in hits:
            opaque = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            )
            given = dict(zip((a.arg for a in positional), call.args))
            given.update((k.arg, k.value) for k in call.keywords)
            for a in positional + args.kwonlyargs:
                if opaque or (a.arg not in given and a not in defaults):
                    value = VARIED
                else:
                    value = _literal(given[a.arg] if a.arg in given else defaults[a])
                seen[a.arg].add(value)
        out.extend(
            f"{qualname}.{p}"
            for p, values in seen.items()
            if hits and len(values) == 1 and VARIED not in values
        )
    return out


def test_every_parameter_is_set_from_src():
    fixed = [p for p in _fixed_parameters() if p not in PARAMETER_ALLOWLIST]
    assert fixed == [], f"parameters that no call under src/ varies: {fixed}"


def test_parameter_allowlist_is_current():
    assert set(PARAMETER_ALLOWLIST) <= set(_fixed_parameters())


def _value_error_raises():
    """path:line of every `raise ValueError` or `raise ValueError(...)`
    under src/."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                out.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return out


def test_no_bare_value_error_is_raised():
    sites = _value_error_raises()
    assert sites == [], "raise UsageError for a refused input; these raise ValueError:\n" + "\n".join(sites)
