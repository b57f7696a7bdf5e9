import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgadmem"


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py re-exports on purpose; every other module uses what it imports
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    # an attribute chain such as np.linalg.eigh starts from the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name} never uses {unused}"


def _private_definitions(tree):
    # module-level functions, classes and assignments whose name starts with
    # one underscore (dunder names such as __all__ are read by Python itself)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    # names read, attributes accessed and names imported anywhere in a module
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    # a private module-level name that nothing in the package reads is dead code
    referenced = set().union(*(_references(ast.parse(p.read_text())) for p in SRC.glob("*.py")))
    unused = sorted(_private_definitions(ast.parse(path.read_text())) - referenced)
    assert not unused, f"{path.name} defines {unused}, which nothing in {SRC.name} uses"
