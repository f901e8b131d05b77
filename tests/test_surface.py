import ast

from helpers import SRC

# Definitions that no CLI suite reaches but that stay, each for its reason.
KEPT = {
    "pi_pullback": "second route of acceptance criterion 2: the (1,2) highest weight "
    "read through the Dynkin flip of an evaluation module",
    "tau1": "second route for the E0 words in test_e0_bracket_routes",
    "phi_push_past": "the only check against a module of the phi-conjugation lemma "
    "that the appendix-A lambda formula rests on",
    "odd_slice_of_highest_weight": "the model-side entry point of the odd-slice check "
    "against real modules (ROADMAP item 6)",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """Module-level functions and classes with the methods of those classes.

    Yields (qualified name, node, is_method).  A function or class is reached
    by a bare name or an attribute of that name, a method only by an attribute.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item, True


def _load_time_nodes(tree):
    """The nodes that run when the module loads: all but the bodies of functions."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, ast.FunctionDef):
            todo += [*node.decorator_list, node.args]
        else:
            todo += ast.iter_child_nodes(node)


def _names(nodes):
    """Identifiers read by bare name and by attribute at the given nodes."""
    bare, attrs = set(), set()
    for node in nodes:
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return bare, attrs


def unreached_definitions(trees: dict) -> list[str]:
    """Non-dunder definitions that no chain of references reaches from the roots.

    The roots are ``main``, every statement that runs when a module loads,
    every dunder method (called by the interpreter, not by name) and ``KEPT``.
    Reachability goes by name across all modules, so a definition whose name
    is also read elsewhere counts as reached.
    """
    defs, roots = [], []
    for module, tree in trees.items():
        roots.extend(_load_time_nodes(tree))
        for qualname, node, is_method in _definitions(tree):
            defs.append((f"{module}.{qualname}", node.name, node, is_method))
    bare, attrs = _names(roots)
    bare |= {"main", *KEPT}
    reached: set[str] = set()
    while True:
        new = [
            (key, node)
            for key, name, node, is_method in defs
            if key not in reached
            and (_is_dunder(name) or name in attrs or (not is_method and name in bare))
        ]
        if not new:
            break
        reached.update(key for key, _ in new)
        # a reached class's load-time nodes are roots already; its methods reach apart
        more_bare, more_attrs = _names(
            sub for _, node in new if isinstance(node, ast.FunctionDef) for sub in ast.walk(node)
        )
        bare |= more_bare
        attrs |= more_attrs
    return sorted(key for key, name, _, _ in defs if key not in reached)


def test_no_unreached_definitions():
    trees = {path.stem: ast.parse(path.read_text()) for path in (SRC / "superloop").glob("*.py")}
    defined = {node.name for tree in trees.values() for _, node, _ in _definitions(tree)}
    assert set(KEPT) <= defined, "a kept name no longer exists: drop it from KEPT"
    assert unreached_definitions(trees) == []
