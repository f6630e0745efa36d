"""Every module-level import in src/, tests/ and demos/ is used, and every
public name of the library has a caller outside the tests.

Stdlib-ast checks, as pyflakes is not a dependency.  Each name that a
module-level import binds must occur as a name elsewhere in the module;
package __init__ files re-export by design and are left out, and so is an
import marked ``# noqa: F401``.  Each public top-level function and class of
src/forms6, and each public method of such a class, must be named outside
its own body somewhere in src/forms6, demos/ or bench/, so that a helper
only the tests call lives with the tests.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unused_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_module_level_imports():
    files = [p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    unused = [entry for p in files for entry in _unused_imports(p)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


# the Form-level definitions that the tables and the reduced flow are tested
# against, each with the reason it stays in the library
TEST_ONLY_DEFINITIONS = {
    "flow_operator": "d Lambda d F on Forms: the definition the reduced flow's "
                     "monomial tables are tested against",
    "nijenhuis": "N_K on Forms: the definition the Nijenhuis tables are tested "
                 "against; bench/spans.py traces it by name",
    "nijenhuis_identity_sides": "both sides of the identity on Forms: the definition "
                                "verify_nijenhuis_identity's tables are tested against; "
                                "bench/spans.py traces it by name",
}


def _public_definitions(tree):
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_"))


def _named(tree, skip=None):
    """The names, attributes and imported names in tree, outside skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_no_library_name_is_only_called_by_tests():
    trees = {p: ast.parse(p.read_text(), str(p))
             for d in ("src/forms6", "demos", "bench") for p in sorted((ROOT / d).rglob("*.py"))}
    library = [p for p in trees if p.is_relative_to(ROOT / "src")]
    assert len(library) > 5
    uncalled = [f"{p.relative_to(ROOT)}:{node.lineno}: {node.name}"
                for p in library for node in _public_definitions(trees[p])
                if node.name not in TEST_ONLY_DEFINITIONS
                and not any(node.name in _named(tree, node if q == p else None)
                            for q, tree in trees.items())]
    assert not uncalled, "public names only the tests call:\n" + "\n".join(uncalled)
