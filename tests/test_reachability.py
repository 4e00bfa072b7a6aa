"""Reachability guard: every function, class and method in src/mfatlas is
reached from the command line, except an explicit allowlist.

The walk is by name over the AST.  It starts from cli.main and the
module-level statements (which run on import).  A bare name (an ast.Name) in
reached code reaches the module-level functions and classes of that name; an
attribute (an ast.Attribute) reaches the methods of that name as well.  A
reached class reaches its class body and its dunder methods.  Matching by
name over-approximates (two methods of the same name are reached together),
so the guard can miss dead code; code called only through getattr or a string
would be reported dead, and the package has none.

The unused-import guard: every name a module imports, at module level or
inside a function, is used in the scope that imports it (the package
__init__, which only re-exports, and __future__ imports are exempt).

The unread-field guard: every dataclass field and every attribute an
__init__ sets on self is read by some attribute access in src/mfatlas,
except an explicit allowlist.
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


def _definitions():
    """{qualified name: (node, is_class)} and the module-level statements."""
    defs = {}
    top_level = []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{mod}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                defs[f"{mod}.{node.name}"] = node
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs[f"{mod}.{node.name}.{item.name}"] = item
            else:
                top_level.append(node)
    return defs, top_level


def _names_in(nodes):
    """The names read in the nodes: a bare name as itself, an attribute
    with a leading dot."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add("." + node.attr)
    return out


def _code_of(node):
    """The statements a reached definition runs: a function whole, a class
    without its method bodies."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    body = [item for item in node.body
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return node.bases + node.keywords + node.decorator_list + body


def unreached_definitions() -> set[str]:
    defs, top_level = _definitions()
    by_name: dict[str, list[str]] = {}
    for qual in defs:
        name = qual.rsplit(".", 1)[1]
        by_name.setdefault("." + name, []).append(qual)
        if qual.count(".") == 1:  # module level: a bare name reaches it too
            by_name.setdefault(name, []).append(qual)
    reached: set[str] = set()
    pending = ["cli.main"]
    seen_names: set[str] = set()
    names = _names_in(top_level)
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
            names |= _names_in(_code_of(node))
            if isinstance(node, ast.ClassDef):
                pending.extend(
                    f"{qual}.{item.name}" for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name.startswith("__") and item.name.endswith("__")
                )
    return set(defs) - reached


def test_every_definition_is_reached_from_the_cli_or_allowlisted():
    assert sorted(unreached_definitions()) == sorted(ALLOWLIST)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _is_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def unread_fields() -> set[str]:
    """The dataclass fields and the attributes an __init__ sets on self that
    no attribute access in src/mfatlas reads.  Like the reachability walk this
    matches by name, so a read of a same-name attribute of another class
    counts."""
    stored = {}
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            qual = f"{path.stem}.{cls.name}"
            if any(_is_dataclass(d) for d in cls.decorator_list):
                stored.update((f"{qual}.{item.target.id}", item.target.id) for item in cls.body
                              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
            for init in cls.body:
                if isinstance(init, _FUNCTIONS) and init.name == "__init__":
                    stored.update((f"{qual}.{node.attr}", node.attr) for node in ast.walk(init)
                                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                                  and isinstance(node.value, ast.Name) and node.value.id == "self")
    return {qual for qual, name in stored.items() if name not in reads}


def test_every_stored_field_is_read_or_allowlisted():
    assert sorted(unread_fields()) == sorted(UNREAD_ALLOWLIST)
