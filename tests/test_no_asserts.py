"""The package holds no ``assert`` statements and no unused imports.

``python -O`` strips asserts, so none may carry a check.  Invariants
are checked by named suite properties or by tests instead.  An import
that nothing reads is left over from code that was deleted.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "smyth"


def test_package_has_no_asserts():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {found}"


def test_package_has_no_unused_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == [], f"unused imports in the package: {found}"
