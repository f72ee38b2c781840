"""`src/evofam` holds only code that a pipeline runs.

Every public module-level function and public method must be referenced by
name somewhere in `src/evofam` outside its own `def`; a function that only
tests call belongs in the tests (see `reference.py`) or nowhere.
"""

import ast
from collections import Counter
from pathlib import Path

import evofam

SRC = Path(evofam.__file__).parent
ENTRY_POINTS = {"cli.main"}     # called by the console script, not by src


def _names(node) -> Counter:
    """Every identifier `node` reads: bare names and attribute names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _public_defs(module: str, tree: ast.Module):
    """(qualified name, def node) of each public function and public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{module}.{node.name}.{item.name}", item


def unreferenced_in(src: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return [qualname for module, tree in trees.items()
            for qualname, node in _public_defs(module, tree)
            if qualname not in ENTRY_POINTS
            and everywhere[node.name] - _names(node)[node.name] <= 0]


def test_every_public_function_has_a_caller_in_src():
    assert unreferenced_in(SRC) == []
