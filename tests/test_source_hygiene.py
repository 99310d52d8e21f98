"""Leftovers in the package source: imports no code reads, and module-level
private functions or classes that nothing calls. Read with the standard
library's ast only, so the check runs wherever the tests do."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "transportlab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# imported and never read: the benchmark harness reads
# sys.modules["scipy"].__version__ after a run
SIDE_EFFECT_IMPORTS = {("cli.py", "scipy")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in __all__."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name read as a variable, an attribute or an imported name in
    the tree, outside the subtree `skip`."""
    skipped = set() if skip is None else {id(n) for n in ast.walk(skip)}
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_every_import_in_the_package_is_read():
    unused = []
    for path in SRC:
        tree = _tree(path)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and (path.name, bound) not in SIDE_EFFECT_IMPORTS:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, f"imports no code reads: {unused}"


def test_every_private_definition_in_the_package_is_referenced():
    trees = {path: _tree(path) for path in SRC + TESTS}
    outside = {path: _references(tree) for path, tree in trees.items()}
    unreferenced = []
    for path in SRC:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            # a definition's own body does not count as a reader of it
            readers = [
                _references(trees[path], skip=node) if p == path else names
                for p, names in outside.items()
            ]
            if not any(name in names for names in readers):
                unreferenced.append(f"{path.name}:{node.lineno} {name}")
    assert not unreferenced, f"private definitions nothing references: {unreferenced}"
