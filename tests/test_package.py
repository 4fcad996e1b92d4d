"""The package's lazy exports and the modules each command loads."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import smyth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

PUBLIC_NAMES = [
    "CapacityError", "CheckReport", "CompositionMismatchError", "CycleError",
    "DocumentError", "FinitePoset", "IrreducibilityError",
    "MalformedFamilyError", "MonotoneMap", "NotAnOrderError",
    "NotIsomorphismError", "NotOpenError",
    "NotSpectralError", "PowerdomainSpace", "RangeError",
    "SigmaUndefinedError", "SmythError",
    "all_posets", "basic_open", "build", "check_embedding_theorem",
    "check_functor_laws", "check_minimality",
    "check_sigma_theorem", "compose", "dimension", "down_closure",
    "enumerate_down_sets", "enumerate_extensions", "find_isomorphism",
    "hat_powerdomain", "identity", "inverse_powerdomain",
    "is_chain", "is_down_set", "is_phi_surjective", "is_sup_preserving",
    "iterate_sizes",
    "lambda_sharp", "lift_homeomorphism", "linear_extension", "open_sets",
    "order_dual", "phi", "poset_of_topology", "powerdomain_dimension",
    "powerdomain_map", "preserves_sups", "random_poset", "replay", "run_suite",
    "sigma_map", "sup", "vietoris_open",
]

HEAVY_MODULES = ("smyth.maps", "smyth.suite", "smyth.completion", "smyth.generators",
                 "smyth.report", "smyth.topology")


def modules_after(code: str) -> set[str]:
    """Every module a fresh interpreter holds after running ``code``
    with standard output discarded."""
    probe = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(' '.join(sys.modules))\n"
    )
    return _modules_of(probe)


def _modules_of(program: str) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def loaded_after(code: str) -> list[str]:
    """The ``smyth`` modules a fresh interpreter holds after running ``code``."""
    return sorted(m for m in modules_after(code) if m.startswith("smyth"))


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 54
    assert smyth.__all__ == PUBLIC_NAMES
    assert dir(smyth) == PUBLIC_NAMES


def test_every_export_is_its_defining_object():
    for name in smyth.__all__:
        value = getattr(smyth, name)
        assert value.__module__.startswith("smyth."), name
        assert value is getattr(sys.modules[value.__module__], name), name


def test_unknown_name_and_submodule_import():
    with pytest.raises(AttributeError):
        smyth.nope
    from smyth import maps

    assert isinstance(maps, types.ModuleType)
    assert maps is sys.modules["smyth.maps"]


def test_import_loads_no_submodule():
    assert loaded_after("import smyth") == ["smyth"]


@pytest.mark.parametrize("argv", [
    ["stats", "vee.json"],
    ["powerdomain", "grid4x4.json"],
    ["iterate", "discrete3.json", "--k", "3"],
])
def test_light_commands_leave_heavy_modules_unloaded(argv):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    loaded = loaded_after(f"from smyth.cli import main\nassert main({argv!r}) == 0")
    assert "smyth.powerdomain" in loaded
    assert not set(HEAVY_MODULES) & set(loaded)


# Each command of the benchmark's ``cli`` workload.  Importing
# ``dataclasses`` pulls in ``inspect`` and its parsers, a large share of
# a light command's start-up, so no command may load either.
CLI_WORKLOAD_COMMANDS = [
    ["stats", "vee.json"],
    ["powerdomain", "grid4x4.json"],
    ["iterate", "discrete3.json", "--k", "3"],
    ["map", "apply", "vee.json", "chain2.json", "--assign", "0:0,1:0,2:1"],
    ["check", "--suite", "all", "vee.json"],
]
SLOW_IMPORTS = {"dataclasses", "inspect"}


@pytest.fixture(scope="module")
def bare_modules():
    """What a bare ``python -c pass`` holds."""
    return _modules_of("import sys; print(' '.join(sys.modules))")


@pytest.mark.parametrize("argv", CLI_WORKLOAD_COMMANDS, ids=lambda argv: argv[0])
def test_commands_import_no_dataclasses(argv, bare_modules):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    loaded = modules_after(f"from smyth.cli import main\nassert main({argv!r}) == 0")
    assert "smyth.cli" in loaded
    assert not SLOW_IMPORTS & (loaded - bare_modules)


def test_package_imports_no_dataclasses():
    sources = sorted(SRC.joinpath("smyth").glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"dataclasses imports in the package: {found}"
