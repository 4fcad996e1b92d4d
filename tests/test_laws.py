"""Every failure names its law, and every law is named by some other test.

A law that no test names is one that no test has seen fail, so it may
be a restatement that cannot fail at all.  This collects each
``law="..."`` and ``"law": "..."`` literal in ``src/smyth`` and looks
for the name, quoted, in the other files under ``tests/``.  A failure
that reports no law escapes that guard, so every dict literal that a
law registered with ``suite._property`` returns must have a ``"law"``
or ``"key"`` key or a ``**`` splat of a violation that carries one, as
must every ``failed(...)`` call in ``src/smyth``, and every dict literal
a ``*_violation`` or ``check_*`` function returns must have a ``"law"``
key.  Stdlib only.
"""

import ast
import re
from pathlib import Path

HERE = Path(__file__).resolve()
SRC = HERE.parent.parent / "src" / "smyth"
LAW = re.compile(r'law="([^"]+)"|"law": "([^"]+)"')


def law_names() -> set[str]:
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for match in LAW.finditer(path.read_text(encoding="utf-8")):
            names.add(match.group(1) or match.group(2))
    return names


def test_both_literal_forms_are_collected():
    names = law_names()
    assert "order-is-containment" in names  # law="..."
    assert "pointwise-least" in names  # "law": "..."


def test_every_law_is_named_by_a_test():
    texts = [
        path.read_text(encoding="utf-8")
        for path in sorted(HERE.parent.rglob("*.py"))
        if path != HERE
    ]
    unnamed = sorted(
        name for name in law_names()
        if not any(f'"{name}"' in text or f"'{name}'" in text for text in texts)
    )
    assert unnamed == []


def failed_calls() -> list[tuple[str, int, set[str | None]]]:
    """Each ``failed(...)`` call in ``src/smyth``: its file, line and
    keyword names, ``None`` standing for a ``**`` splat."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "failed"
                or getattr(node.func, "attr", None) == "failed"
            ):
                calls.append((path.name, node.lineno, {k.arg for k in node.keywords}))
    return calls


def law_returns() -> list[tuple[str, int, set[str | None]]]:
    """Each dict literal returned by a law that ``suite.py`` registers
    with ``@_property(...)``: its file, line and constant keys, ``None``
    standing for a ``**`` splat."""
    path = SRC / "suite.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    returns = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_property"
                for d in func.decorator_list):
            for node in ast.walk(func):
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                    keys = {getattr(k, "value", None) for k in node.value.keys}
                    returns.append((path.name, node.lineno, keys))
    return returns


def test_every_failure_names_its_law():
    returns = law_returns()
    assert len(returns) >= 17
    unnamed = [
        f"{name}:{line}" for name, line, keys in returns + failed_calls()
        if not keys & {"law", "key", None}
    ]
    assert unnamed == []


def violation_returns() -> list[tuple[str, int, set]]:
    """Each dict literal returned by a ``*_violation`` or ``check_*``
    function in ``src/smyth``: its file, line and constant keys."""
    returns = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and (
                    func.name.endswith("_violation") or func.name.startswith("check_")):
                for node in ast.walk(func):
                    if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                        keys = {getattr(k, "value", None) for k in node.value.keys}
                        returns.append((path.name, node.lineno, keys))
    return returns


def test_every_violation_names_its_law():
    returns = violation_returns()
    assert len(returns) >= 11
    unnamed = [f"{name}:{line}" for name, line, keys in returns if "law" not in keys]
    assert unnamed == []
