"""Reachability guard: every function, class and method in src/mfatlas is
reached from the command line, except an explicit allowlist.

The walk is by name over the AST.  It starts from cli.main and the
module-level statements (which run on import).  A definition is reached when
its name appears as a Name or an Attribute in reached code, and a reached
class reaches its class body and its dunder methods.  Matching by name over-
approximates (two methods of the same name are reached together), so the
guard can miss dead code; code called only through getattr or a string would
be reported dead, and the package has none.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mfatlas"

# The paper's component constructions (Levi systems and parabolic lifts, Weyl
# components, the exotic-component probe) that only tests reach: they need a
# report to reach them, which needs a benchmark change.
ALLOWLIST = {
    "components.levi_system",
    "components.parabolic_lift",
    "components._coords_in_basis",
    "components.weyl_components",
    "components.tarasov_exotic_probe",
    "components.TarasovExoticReport",
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
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
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
        by_name.setdefault(qual.rsplit(".", 1)[1], []).append(qual)
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
