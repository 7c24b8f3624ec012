"""The public surface of anomlab, read from the source with ast.

Every name that anomlab/__init__ exports must be used somewhere in the
package outside __init__ and outside its own definition: by a command, a
battery or another library function. So must every public method and
property of an exported class, read as an attribute. No module may import a
name it does not use.
"""

import ast
from pathlib import Path

import anomlab

SOURCE = Path(anomlab.__file__).parent

# exported though no module of the package calls it
UNREACHED_EXPORTS = {
    # the benchmark's warm-up builds its canonical section on this frame
    "standard_frame",
    # Not yet retired: each still waits for a battery, a move into the tests
    # or its removal from the public API (ROADMAP item 10). The tests read
    # the Dirac sea through vacuum and compare extension_class with
    # class_reducer.
    "vacuum",
    "extension_class",
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}


def _exports(tree) -> list:
    return [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def _used_names(tree, skip=None, attributes_only=False) -> set:
    """Names read as a variable or as an attribute anywhere in tree, outside the subtree skip.

    With attributes_only, names read as an attribute alone.
    """
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not attributes_only:
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _definition(tree, name):
    """The top-level def or class that binds name, or None."""
    return next(
        (node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name),
        None,
    )


def test_every_export_is_reached_from_the_package():
    modules = _modules()
    exports = _exports(modules["__init__"])
    assert len(exports) > 50
    unreached = []
    for module, name in exports:
        home = modules[module]
        definition = _definition(home, name)
        assert definition is not None, f"{module}.{name} is not defined at the top of its module"
        reached = any(
            name in _used_names(tree, definition if stem == module else None)
            for stem, tree in modules.items()
            if stem != "__init__"
        )
        if not reached:
            unreached.append(name)
    assert sorted(unreached) == sorted(UNREACHED_EXPORTS)


def test_every_public_method_of_an_exported_class_is_read_in_the_package():
    # an attribute read matches by name alone: the rule cannot tell the owner
    # of x.name, so a method is reached once any object's attribute of its name is
    modules = _modules()
    methods = [
        (module, cls.name, node)
        for module, name in _exports(modules["__init__"])
        if isinstance(cls := _definition(modules[module], name), ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert len(methods) > 20
    unread = [
        f"{cls}.{node.name}"
        for module, cls, node in methods
        if not any(
            node.name in _used_names(tree, node if stem == module else None, attributes_only=True)
            for stem, tree in modules.items()
            if stem != "__init__"
        )
    ]
    assert unread == []


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for stem, tree in _modules().items():
        if stem == "__init__":
            continue
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{stem}: {name}" for name in bound if name not in used]
    assert unused == []
