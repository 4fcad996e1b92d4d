"""The package's lazy exports and the modules each command loads."""

import json
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
    "DocumentError", "FinitePoset", "IrreducibilityError", "IterateResult",
    "MalformedFamilyError", "MonotoneMap", "NotIsomorphismError", "NotOpenError",
    "NotSpectralError", "OpenFamily", "PowerdomainSpace", "RangeError",
    "SigmaMap", "SigmaUndefinedError", "SmythError", "SupExtensionProblem",
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

HEAVY_MODULES = ("smyth.maps", "smyth.suite", "smyth.completion", "smyth.generators")


def loaded_after(code: str) -> list[str]:
    """The ``smyth`` modules a fresh interpreter holds after running ``code``."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('smyth'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 57
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

