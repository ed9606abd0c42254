"""Every function, class and method in src/ is run by some other code in src/.

Tests use the library through its public API and a few direct hooks; a
definition that only tests reach is a reference implementation and
belongs in tests/oracles.py, and one that nothing reaches is dead.

A definition counts as used when live code elsewhere in src/ names it,
as a bare name or as an attribute.  Live code is module-level code
outside any definition, the names in ``crl_atlas.__all__``, click
commands and the allowlist below, and then, repeatedly, every
definition that live code names.  A definition's own body does not
count, so neither a lone recursive helper nor a helper whose only
caller is itself dead survives.
"""
import ast
from pathlib import Path

import crl_atlas

SRC = Path(crl_atlas.__file__).resolve().parent

# name -> why it stays although nothing in src/ runs it
ALLOWED = {
    "uv_squarefree_part": (
        "the one direct test hook on the integer squarefree part that "
        "isolate_real_roots runs"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_cli_command(node: ast.AST) -> bool:
    """True for click commands and groups: click dispatches them by name."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _definitions(tree: ast.Module) -> list[ast.AST]:
    """Module-level functions and classes, and the non-dunder methods."""
    out = []
    for node in tree.body:
        if isinstance(node, _DEFS):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out.extend(
                item
                for item in node.body
                if isinstance(item, _DEFS)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return out


def _uses(root: ast.AST, tracked: set[ast.AST]) -> set[str]:
    """Names read under root, skipping the subtrees of other tracked nodes."""
    names = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node is not root and node in tracked:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unused_definitions() -> list[str]:
    exempt = set(crl_atlas.__all__) | set(ALLOWED)
    live_uses: set[str] = set()
    pending = []  # (label, name, names its body reads)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = _definitions(tree)
        tracked = set(defs)
        live_uses |= _uses(tree, tracked)
        for node in defs:
            uses = _uses(node, tracked)
            if node.name in exempt or _is_cli_command(node):
                live_uses |= uses
            else:
                pending.append((f"{path.name}:{node.lineno}: {node.name}", node.name, uses))
    grew = True
    while grew:
        grew = False
        for item in list(pending):
            if item[1] in live_uses:
                pending.remove(item)
                live_uses |= item[2]
                grew = True
    return [label for label, _, _ in pending]


def test_every_definition_in_src_has_a_caller_in_src():
    unused = unused_definitions()
    assert not unused, "no caller in src/:\n" + "\n".join(unused)


def test_allowlist_names_existing_definitions():
    # a stale entry would quietly exempt a future dead helper
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in _definitions(ast.parse(path.read_text()))
    }
    assert set(ALLOWED) <= defined
