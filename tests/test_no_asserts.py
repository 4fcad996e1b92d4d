"""The package holds no ``assert`` statements.

``python -O`` strips asserts, so none may carry a check.  Invariants
are checked by named suite properties or by tests instead.
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
