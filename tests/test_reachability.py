"""Reachability guard: every function, class and method in src/mfatlas is
reached from the command line, except an explicit allowlist.

The walk is by name over the AST.  It starts from cli.main and the
module-level statements (which run on import).  A bare name (an ast.Name) in reached
code reaches the module-level functions and classes of that name.  An
attribute (an ast.Attribute) is resolved per class where its receiver's
class is known (see _Types): then it reaches that class's method of the
name, or nothing when the class defines none (a stored field); otherwise it
reaches every method of the name.  A reached class reaches its class body
and its dunder methods.  Where a receiver's class is unknown, matching by
name over-approximates (two methods of the same name are reached together),
so the guard can still miss dead code; code called only through getattr or
a string would be reported dead, and the package has none.

The unused-import guard: every name a module imports, at module level or
inside a function, is used in the scope that imports it (the package
__init__, which only re-exports, and __future__ imports are exempt).

The unread-field guard: every field a class stores, that is an annotated
field in its class body (a NamedTuple field), a __slots__ entry or an
attribute its __init__ sets on self, is read by some attribute access in
src/mfatlas, except an explicit allowlist.  A read whose receiver's class is
known counts for that class only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mfatlas"

# The paper's component constructions (Levi systems and parabolic lifts, Weyl
# components and the error only they raise, the exotic-component probe) that
# only tests reach: they need a report to reach them.
ALLOWLIST = {
    "components.levi_system",
    "components.parabolic_lift",
    "components._coords_in_basis",
    "components.weyl_components",
    "errors.NotNilpotentError",
    "verify.check_tarasov_exotic",
    "flags.levi_projection",
    "linalg.solve",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _modules():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def _definitions():
    """{qualified name: node} and the module-level statements."""
    defs = {}
    top_level = []
    for mod, tree in _modules():
        for node in tree.body:
            if isinstance(node, _FUNCTIONS):
                defs[f"{mod}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                defs[f"{mod}.{node.name}"] = node
                for item in node.body:
                    if isinstance(item, _FUNCTIONS):
                        defs[f"{mod}.{node.name}.{item.name}"] = item
            else:
                top_level.append(node)
    return defs, top_level


class _Types:
    """The package classes an expression can be an instance of, read off
    annotations, constructor calls and return annotations.

    Inside one function, a name has a known class when every binding of it
    there (parameters, assignments, loop and comprehension targets, nested
    scopes included) gives the same class: self is the enclosing class, an
    annotated parameter its annotation, a call of a class that class, and a
    call of a function or method its return annotation.  A field of a known
    class has the class of its annotation in the class body, or of every
    value its __init__ assigns it; a property its return annotation.  A bare
    class name stands for the class itself (as in ExactMatrix.identity).
    Anything else is unknown."""

    def __init__(self, defs):
        self.defs = defs
        self.classes: dict[str, set[str]] = {}
        self.functions: dict[str, set[str]] = {}
        for qual, node in defs.items():
            name = qual.rsplit(".", 1)[1]
            if isinstance(node, ast.ClassDef):
                self.classes.setdefault(name, set()).add(qual)
            elif qual.count(".") == 1:
                self.functions.setdefault(name, set()).add(qual)
        self.fields: dict[str, frozenset | None] = {}
        for qual, node in defs.items():
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        self._field(f"{qual}.{item.target.id}", self.annotation(item.annotation))
        for qual, node in defs.items():
            if qual.endswith(".__init__") and _owner(qual):
                env = self.env(node, _owner(qual))
                for item in ast.walk(node):
                    if isinstance(item, ast.Assign):
                        for t in item.targets:
                            if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                                    and t.value.id == "self"):
                                self._field(f"{_owner(qual)}.{t.attr}", self.infer(item.value, env))

    def _field(self, qual: str, kind) -> None:
        """Record one assignment of a field; disagreeing ones make it unknown."""
        if qual in self.fields and self.fields[qual] != kind:
            kind = None
        self.fields[qual] = kind

    def annotation(self, node) -> frozenset | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.Name) and node.id in self.classes:
            return frozenset(self.classes[node.id])
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = [n for n in (node.left, node.right)
                     if not (isinstance(n, ast.Constant) and n.value is None)]
            if len(sides) == 1:
                return self.annotation(sides[0])
        return None

    def returns(self, quals) -> frozenset | None:
        found = {self.annotation(self.defs[q].returns) for q in quals
                 if isinstance(self.defs[q], _FUNCTIONS) and self.defs[q].returns is not None}
        return found.pop() if len(found) == 1 and len(quals) == 1 else None

    def infer(self, expr, env) -> frozenset | None:
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            return frozenset(self.classes.get(expr.id, ())) or None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id not in env:
                if func.id in self.classes:
                    return frozenset(self.classes[func.id])
                return self.returns(self.functions.get(func.id, ()))
            if isinstance(func, ast.Attribute):
                return self.returns(self.methods(func, env) or ())
        if isinstance(expr, ast.Attribute):
            owners = self.infer(expr.value, env)
            if owners is None:
                return None
            kinds = set()
            for c in owners:
                qual = f"{c}.{expr.attr}"
                node = self.defs.get(qual)
                if isinstance(node, _FUNCTIONS) and any(
                        isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list):
                    kinds.add(self.returns([qual]))
                else:
                    kinds.add(self.fields.get(qual))
            return kinds.pop() if len(kinds) == 1 else None
        return None

    def methods(self, attr: ast.Attribute, env) -> set[str] | None:
        """The methods an attribute names, or None if its receiver's class
        is unknown."""
        owners = self.infer(attr.value, env)
        if owners is None:
            return None
        return {f"{c}.{attr.attr}" for c in owners if f"{c}.{attr.attr}" in self.defs}

    def env(self, fn, owner: str | None) -> dict[str, frozenset]:
        """{name: classes} for the names of fn whose every binding agrees."""
        bound: dict[str, list] = {}
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        for k, arg in enumerate(params):
            if k == 0 and owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list):
                bound.setdefault(arg.arg, []).append(frozenset({owner}))
            else:
                bound.setdefault(arg.arg, []).append(
                    None if arg.annotation is None else self.annotation(arg.annotation))
        own = set(map(id, params + [args.vararg, args.kwarg]))
        for node in ast.walk(fn):
            if node is fn or id(node) in own:
                continue
            if isinstance(node, ast.arg):
                bound.setdefault(node.arg, []).append(None)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = None if isinstance(node, ast.AugAssign) else node.value
                for t in targets:
                    if isinstance(t, ast.Name):
                        bound.setdefault(t.id, []).append(value)
                    else:
                        for name in _stored_names(t):
                            bound.setdefault(name, []).append(None)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension, ast.withitem,
                                   ast.ExceptHandler, ast.Import, ast.ImportFrom,
                                   ast.Global, ast.Nonlocal, ast.ClassDef, *_FUNCTIONS)):
                for name in _bound_names(node):
                    bound.setdefault(name, []).append(None)
        # an expression binding may read other names, so settle the bindings
        # until nothing changes
        env: dict[str, frozenset] = {}
        while True:
            new = {}
            for name, kinds in bound.items():
                got = {self.infer(k, env) if isinstance(k, ast.AST) else k for k in kinds}
                if len(got) == 1 and None not in got:
                    new[name] = got.pop()
            if new == env:
                break
            env = new
        return env


def _stored_names(target) -> list[str]:
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _bound_names(node) -> list[str]:
    if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        return _stored_names(node.target)
    if isinstance(node, ast.withitem):
        return [] if node.optional_vars is None else _stored_names(node.optional_vars)
    if isinstance(node, ast.ExceptHandler):
        return [node.name] if node.name else []
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return list(node.names)
    return [node.name]


def _references(types: _Types, nodes, env):
    """The names read in the nodes: a bare name as itself, an attribute as
    the qualified methods of its receiver's class when that is known, else
    with a leading dot."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                methods = types.methods(node, env)
                if methods is None:
                    out.add("." + node.attr)
                else:
                    out |= {"=" + q for q in methods}
    return out


def _code_of(node):
    """The statements a reached definition runs: a function whole, a class
    without its method bodies."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    body = [item for item in node.body if not isinstance(item, _FUNCTIONS)]
    return node.bases + node.keywords + node.decorator_list + body


def _owner(qual: str) -> str | None:
    """The class a method belongs to, or None for a module-level definition."""
    return qual.rsplit(".", 1)[0] if qual.count(".") == 2 else None


def unreached_definitions() -> set[str]:
    defs, top_level = _definitions()
    types = _Types(defs)
    by_name: dict[str, list[str]] = {}
    for qual in defs:
        name = qual.rsplit(".", 1)[1]
        by_name.setdefault("." + name, []).append(qual)
        by_name.setdefault("=" + qual, []).append(qual)
        if qual.count(".") == 1:  # module level: a bare name reaches it too
            by_name.setdefault(name, []).append(qual)
    reached: set[str] = set()
    pending = ["cli.main"]
    seen_names: set[str] = set()
    names = _references(types, top_level, {})
    while True:
        for name in names - seen_names:
            pending.extend(by_name.get(name, []))
        seen_names |= names
        if not pending:
            break
        names = set()
        while pending:
            qual = pending.pop()
            if qual in reached:
                continue
            reached.add(qual)
            node = defs[qual]
            env = {} if isinstance(node, ast.ClassDef) else types.env(node, _owner(qual))
            names |= _references(types, _code_of(node), env)
            if isinstance(node, ast.ClassDef):
                pending.extend(
                    f"{qual}.{item.name}" for item in node.body
                    if isinstance(item, _FUNCTIONS)
                    and item.name.startswith("__") and item.name.endswith("__")
                )
    return set(defs) - reached


def test_every_definition_is_reached_from_the_cli_or_allowlisted():
    assert sorted(unreached_definitions()) == sorted(ALLOWLIST)


def _own_nodes(scope, skip=lambda fn: True):
    """Nodes of ``scope`` outside the nested functions for which ``skip``
    holds (by default, outside every nested function)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not (isinstance(node, _FUNCTIONS) and skip(node)):
            stack.extend(ast.iter_child_nodes(node))


def _imported_names(scope) -> dict[str, int]:
    """{bound name: line} of the imports ``scope`` makes itself."""
    out = {}
    for node in _own_nodes(scope):
        if isinstance(node, ast.Import):
            out.update(((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update((a.asname or a.name, node.lineno) for a in node.names)
    return out


def unused_imports() -> list[str]:
    """Imports not read in the scope that makes them; a nested function that
    imports the same name again does not count as a use."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]:
            for name, line in _imported_names(scope).items():
                reads = _own_nodes(scope, skip=lambda fn: name in _imported_names(fn))
                if not any(isinstance(n, ast.Name) and n.id == name for n in reads):
                    found.append(f"{path.stem}:{line} {name}")
    return sorted(found)


def test_every_import_is_used():
    assert unused_imports() == []


# Stored fields nothing in src/mfatlas reads, each with its reason.
UNREAD_ALLOWLIST = {
    # names each row of the planned `mf components` report (ROADMAP item 3)
    "components.AffineComponent.label",
}


def stored_fields() -> dict[str, str]:
    """{qualified field: class} for the annotated fields of every class body,
    its __slots__ entries and the attributes its __init__ sets on self."""
    stored = {}
    for mod, tree in _modules():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            qual = f"{mod}.{cls.name}"
            names = [item.target.id for item in cls.body
                     if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for item in cls.body:
                if isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
                    names += [e.value for e in ast.walk(item.value)
                              if isinstance(e, ast.Constant) and isinstance(e.value, str)]
                if isinstance(item, _FUNCTIONS) and item.name == "__init__":
                    names += [node.attr for node in ast.walk(item)
                              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                              and isinstance(node.value, ast.Name) and node.value.id == "self"]
            stored.update((f"{qual}.{name}", qual) for name in names)
    return stored


def field_reads() -> set[str]:
    """Every attribute read in src/mfatlas: "C.name" where the receiver's
    class C is known, ".name" where it is not."""
    defs, _ = _definitions()
    types = _Types(defs)
    reads = set()
    for mod, tree in _modules():
        scopes = [(tree, {})]
        for qual, node in defs.items():
            if qual.startswith(f"{mod}.") and isinstance(node, _FUNCTIONS):
                scopes.append((node, types.env(node, _owner(qual))))
        for scope, env in scopes:
            for node in (_own_nodes(scope) if scope is tree else ast.walk(scope)):
                if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    owners = types.infer(node.value, env)
                    reads |= ({"." + node.attr} if owners is None
                              else {f"{c}.{node.attr}" for c in owners})
    return reads


def unread_fields() -> set[str]:
    """The stored fields that no attribute access in src/mfatlas reads."""
    reads = field_reads()
    return {qual for qual in stored_fields()
            if qual not in reads and "." + qual.rsplit(".", 1)[1] not in reads}


def test_every_stored_field_is_read_or_allowlisted():
    assert sorted(unread_fields()) == sorted(UNREAD_ALLOWLIST)
