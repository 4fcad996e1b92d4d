"""The package holds no ``assert`` statements, no unused imports and
no unread private names, and makes its reports one way.

``python -O`` strips asserts, so none may carry a check.  Invariants
are checked by named suite properties or by tests instead.  An import
that nothing reads, or a module-level ``_name`` that no module of the
package reads, is left over from code that was deleted.  A report is
made by the helpers of ``report.py`` alone, which only the one filer
of ``suite.py`` calls, once each, on the payload its property ran on.
Only the CLI calls the validating ``MonotoneMap`` constructor; every
map the package derives is made by ``maps._made``, and no way around
the check remains.  Posets
are validated only where their rows enter: ``from_cover_relations`` and
``poset_of_topology``; every poset the package derives is made by
``poset._made_poset``.  No
function calls itself, so every walk keeps its state on an explicit
stack and no input depth meets the interpreter's recursion limit.  Every
``lru_cache`` of the package has a finite ``maxsize``, so a process
keeps a bounded number of results, except ``generators.all_posets``,
whose keys ``MAX_EXHAUSTIVE_N`` caps.  A tuple of the items at a
sequence of indices is gathered by ``poset.gather`` alone, in one
``itemgetter`` call, not one lookup per index.  Only ``poset._sups``
reads ``_least``, so every least upper bound goes through one fold.
Only ``_InclusionOrder`` and ``check_embedding_theorem`` call the row
routines ``_up_rows`` and ``_down_rows``, so a built order's rows and
the law that certifies them are made one way, and no class defines
``__getattr__``, so no attribute is made by a hook (the module-level
one of ``__init__.py`` loads submodules).  The README names only what
the code still spells.
"""

import ast
import re
from pathlib import Path

from smyth.suite import PER_POSET_PROPERTIES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smyth"


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


def private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """The module-level ``_name``s a module defines, dunders excepted:
    functions, classes and assignment targets, with their lines."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(name, node.lineno) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def names_read(tree: ast.Module) -> set[str]:
    """Every name a module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_package_has_no_unread_private_names():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    read = set().union(*map(names_read, trees.values()))
    found = [
        f"{name}:{line}:{private}"
        for name, tree in trees.items()
        for private, line in private_definitions(tree)
        if private not in read
    ]
    assert found == [], f"private names that no module reads: {found}"


def test_reports_come_from_the_report_helpers():
    """No module but ``report.py`` calls ``CheckReport``, no module but
    ``suite.py`` imports a helper of ``report.py`` or calls ``passed``,
    ``failed`` or ``skipped``, ``suite.py`` calls each of them exactly
    once, in its one filer, and every such call passes ``payload`` as
    its instance."""
    report_tree = ast.parse((PACKAGE / "report.py").read_text())
    helpers = {node.name for node in report_tree.body if isinstance(node, ast.FunctionDef)}
    assert {"passed", "failed", "skipped"} <= helpers
    verdicts = []
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "report":
                found += [f"{path.name}:{node.lineno}:import {alias.name}"
                          for alias in node.names
                          if alias.name in helpers and path.name != "suite.py"]
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "CheckReport" and path.name != "report.py":
                found.append(f"{path.name}:{node.lineno}:CheckReport")
            elif name in ("passed", "failed", "skipped"):
                if path.name != "suite.py":
                    found.append(f"{path.name}:{node.lineno}:{name}")
                    continue
                verdicts.append(name)
                instance = node.args[1] if len(node.args) > 1 else None
                if not (isinstance(instance, ast.Name) and instance.id == "payload"):
                    found.append(f"{path.name}:{node.lineno}:{name}")
    assert sorted(verdicts) == ["failed", "passed", "skipped"]
    assert found == [], f"reports made another way: {found}"


def self_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """Every call of a function to its own name, bare or as an attribute
    of ``self`` or ``cls``, with its line.  A ``super()`` call reaches
    another class's function and is not one."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                recursive = func.id == function.name
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                recursive = (func.attr == function.name
                             and func.value.id in ("self", "cls"))
            else:
                recursive = False
            if recursive:
                found.append((function.name, node.lineno))
    return found


def test_self_calls_finds_recursion():
    tree = ast.parse(
        "def walk(n):\n    return walk(n - 1)\n"
        "class A:\n"
        "    def visit(self):\n        self.visit()\n"
        "    @classmethod\n    def make(cls):\n        cls.make()\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def other(self, x):\n        x.other()\n"
    )
    assert self_calls(tree) == [("walk", 2), ("visit", 5), ("make", 8)]


def test_package_has_no_recursion():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}:{name}"
        for path in sources
        for name, line in self_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], f"functions that call themselves: {found}"


def unbounded_caches(tree: ast.Module) -> list[tuple[str, int]]:
    """Every function a module caches with no finite bound, with its
    line: a ``cache`` decorator, or an ``lru_cache`` whose ``maxsize``
    is not an integer literal.  A bare ``@lru_cache`` keeps 128."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in function.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            named = identifiers(call.func if call else decorator)
            if named == ["cache"]:
                unbounded = True
            elif named == ["lru_cache"] and call:
                sizes = [k.value for k in call.keywords if k.arg == "maxsize"]
                size = (call.args or sizes or [ast.Constant(128)])[0]
                unbounded = not (isinstance(size, ast.Constant)
                                 and type(size.value) is int)
            else:
                unbounded = False
            if unbounded:
                found.append((function.name, decorator.lineno))
    return found


def test_unbounded_caches_finds_each_form():
    tree = ast.parse(
        "@lru_cache\ndef a(): pass\n"
        "@functools.lru_cache(maxsize=16)\ndef b(): pass\n"
        "@lru_cache(8)\ndef c(): pass\n"
        "@lru_cache(maxsize=None)\ndef d(): pass\n"
        "@functools.cache\ndef e(): pass\n"
        "@lru_cache(None)\ndef f(): pass\n"
        "@lru_cache(maxsize=SIZE)\ndef g(): pass\n"
        "@cached_property\ndef h(self): pass\n"
    )
    assert unbounded_caches(tree) == [("d", 7), ("e", 9), ("f", 11), ("g", 13)]


def test_package_caches_are_bounded():
    """Only ``all_posets`` may cache without a bound: it is keyed by a
    size that ``MAX_EXHAUSTIVE_N`` caps, so it holds at most that many
    tuples of posets."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {
        f"{path.name}:{name}": line
        for path in sources
        for name, line in unbounded_caches(ast.parse(path.read_text(), filename=str(path)))
    }
    assert list(found) == ["generators.py:all_posets"], f"unbounded caches: {found}"


def hand_gathers(tree: ast.Module) -> list[int]:
    """The lines of every tuple gathered by hand, one lookup per index:
    ``tuple(map(<x>.__getitem__, ...))`` or ``tuple(<x>[i] for i in ...)``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "tuple" and len(node.args) == 1):
            continue
        arg = node.args[0]
        if (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                and arg.func.id == "map" and arg.args
                and isinstance(arg.args[0], ast.Attribute)
                and arg.args[0].attr == "__getitem__"):
            found.append(node.lineno)
        elif (isinstance(arg, ast.GeneratorExp) and len(arg.generators) == 1
                and not arg.generators[0].ifs
                and isinstance(arg.generators[0].target, ast.Name)
                and isinstance(arg.elt, ast.Subscript)
                and isinstance(arg.elt.slice, ast.Name)
                and arg.elt.slice.id == arg.generators[0].target.id):
            found.append(node.lineno)
    return found


def test_hand_gathers_finds_each_form():
    tree = ast.parse(
        "a = tuple(map(xs.__getitem__, idx))\n"
        "b = tuple(s.image[v] for v in f.image)\n"
        "c = tuple(map(f, idx))\n"
        "d = tuple(xs[i] for i in idx if i)\n"
        "e = tuple(xs[i + 1] for i in idx)\n"
        "f = tuple(xs[j] for i in idx)\n"
        "g = tuple([xs[i] for i in idx])\n"
        "h = gather(xs, idx)\n"
    )
    assert hand_gathers(tree) == [1, 2]


def test_package_gathers_in_one_call():
    """No module of the package gathers a tuple by hand: ``gather`` is
    the one route."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}"
        for path in sources
        for line in hand_gathers(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], f"tuples gathered by hand: {found}"


def identifiers(node: ast.AST) -> list[str]:
    """The names a node spells: a name, an attribute, a definition, a
    parameter, a keyword argument or a string constant."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.arg, ast.keyword)):
        return [node.arg] if node.arg else []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def test_only_the_cli_validates_maps():
    """No module but ``cli.py`` calls ``MonotoneMap(``, and no module
    names ``unchecked`` or ``_validated``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and path.name != "cli.py":
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "MonotoneMap":
                    found.append(f"{path.name}:{node.lineno}:MonotoneMap")
            found += [f"{path.name}:{node.lineno}:{name}" for name in identifiers(node)
                      if name in ("unchecked", "_validated")]
    assert found == [], f"maps validated or bypassed another way: {found}"


def test_posets_are_validated_only_where_they_enter():
    """Only ``topology.py`` calls ``FinitePoset(``, only
    ``from_cover_relations`` calls ``cls(``, and no module names
    ``_validate``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        entry = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "from_cover_relations":
                entry = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if (name == "FinitePoset" and path.name != "topology.py"
                        or name == "cls" and id(node) not in entry):
                    found.append(f"{path.name}:{node.lineno}:{name}")
            found += [f"{path.name}:{node.lineno}:_validate"
                      for name in identifiers(node) if name == "_validate"]
    assert found == [], f"posets validated off their entry points: {found}"


def test_least_is_read_only_by_the_sup_fold():
    """``_least`` is read once, by the call inside ``poset._sups``: every
    least upper bound of the package goes through the one fold."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        fold = set()
        for node in tree.body:
            if (path.name == "poset.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "_sups"):
                fold = {id(inner) for inner in ast.walk(node)}
        found += [f"{path.name}:{node.lineno}:{'_sups' if id(node) in fold else 'outside'}"
                  for node in ast.walk(tree)
                  if not isinstance(node, ast.FunctionDef) and "_least" in identifiers(node)]
    assert [entry.rpartition(":")[2] for entry in found] == ["_sups"], found


def test_rows_are_made_by_one_route():
    """The row routines are read once each by ``_InclusionOrder``, to
    build a row family, and once each by ``check_embedding_theorem``, to
    certify it, and by nothing else."""
    routines = ("_up_rows", "_down_rows")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for node in tree.body:
            if (path.name == "powerdomain.py"
                    and identifiers(node) in (["_InclusionOrder"], ["check_embedding_theorem"])):
                owner.update((id(inner), node.name) for inner in ast.walk(node))
        found += [f"{owner.get(id(node), f'{path.name}:{node.lineno}')}:{name}"
                  for node in ast.walk(tree)
                  if not isinstance(node, ast.FunctionDef)
                  for name in identifiers(node) if name in routines]
    assert sorted(found) == [
        "_InclusionOrder:_down_rows", "_InclusionOrder:_up_rows",
        "check_embedding_theorem:_down_rows", "check_embedding_theorem:_up_rows"], found


def test_no_class_defines_getattr():
    """No class of the package makes attributes through ``__getattr__``;
    the module-level one of ``__init__.py`` belongs to no class."""
    found = [
        f"{path.name}:{node.lineno}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and "__getattr__" in [item.name for item in node.body
                              if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    ]
    assert found == [], f"classes that define __getattr__: {found}"


def test_readme_names_only_what_exists():
    """Every backticked dotted identifier of ``README.md``, a trailing
    ``()`` stripped, is spelled part by part as a word somewhere in the
    Python files of the package, the tests or the benchmark; and every
    backticked kebab-case name, a law, property or command, is quoted
    somewhere in the package, unless it is an ``exhaustive-N`` scope."""
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    kebab = {span for span in spans
             if re.fullmatch(r"[a-z][a-z0-9]*(?:-[a-z0-9]+)+", span)
             and not re.fullmatch(r"exhaustive-\d+", span)}
    assert kebab
    package = "".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    unquoted = sorted(name for name in kebab
                      if f'"{name}"' not in package and f"'{name}'" not in package)
    assert unquoted == [], f"README names that the package never quotes: {unquoted}"
    names = [span.removesuffix("()") for span in spans]
    names = [name for name in names
             if re.fullmatch(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", name)]
    assert names
    words = set()
    for folder in (PACKAGE, ROOT / "tests", ROOT / "bench"):
        for path in sorted(folder.glob("*.py")):
            words.update(re.findall(r"\w+", path.read_text()))
    found = sorted({name for name in names
                    if not set(name.split(".")) <= words})
    assert found == [], f"README names that no Python file spells: {found}"


def test_claims_ledger_names_every_per_poset_property():
    """Every name of ``suite.PER_POSET_PROPERTIES`` is backticked in the
    README's claims table, so no property checks a claim the ledger
    leaves out."""
    text = (ROOT / "README.md").read_text()
    table = text[text.index("| Claim | Property | Tests |"):]
    table = table[:table.index("\n\n")]
    named = set(re.findall(r"`([^`\n]+)`", table))
    missing = [name for name in PER_POSET_PROPERTIES if name not in named]
    assert missing == [], f"properties the claims table never names: {missing}"
