"""The names the benchmark's tracer rebinds exist with the shape it expects.

``bench/tracing.py`` wraps functions and methods by name and reads lru
cache statistics; a renamed or reshaped target breaks a traced run
(``python3 bench/run.py --trace 1``) without failing any other test.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import smyth.suite  # noqa: F401  (loads every library submodule the tracer wraps)
from smyth import completion, generators, maps, powerdomain, suite
from smyth.docio import document_of_poset
from smyth.poset import FinitePoset

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_exist():
    for cached in (maps._powerdomain_map, powerdomain._build, generators.all_posets):
        assert callable(cached.cache_info)
    assert callable(maps.check_functor_laws)
    assert "cover_pairs" in FinitePoset.__dict__

    spec = importlib.util.spec_from_file_location("trace_hooks_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attribute, *_ in tracing.SPANNED + tracing.COUNTED:
        module = importlib.import_module(f"smyth.{module_name}")
        owner, _, method = attribute.partition(".")
        if method:
            assert callable(vars(getattr(module, owner))[method]), attribute
        else:
            assert callable(getattr(module, attribute)), attribute


def test_the_suite_runs_the_traced_checks(monkeypatch):
    # the traced per-layer metrics of the three checks measure the suite:
    # a wrapper bound wherever the original is bound, as the tracer binds
    # its spans, counts the per-poset properties' calls
    calls = {}
    modules = [module for name, module in sys.modules.items()
               if name == "smyth" or name.startswith("smyth.")]
    for owner, name in ((powerdomain, "check_embedding_theorem"),
                        (maps, "check_minimality"),
                        (completion, "check_sigma_theorem")):
        original = getattr(owner, name)
        calls[name] = 0

        def counting(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, counting)
    payload = document_of_poset(generators.all_posets(4)[0]).to_payload()
    for name in suite.PER_POSET_PROPERTIES:
        assert suite.PROPERTIES[name](payload).ok, name
    assert all(count >= 1 for count in calls.values()), calls


def test_uncached_build_enumerates_down_sets_once(monkeypatch):
    # the traced poset.enumerate_down_sets metrics of the build workload
    # count one enumeration per construction
    calls = []
    enumerate_down_sets = powerdomain.enumerate_down_sets

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_down_sets(*args, **kwargs)

    monkeypatch.setattr(powerdomain, "enumerate_down_sets", counting)
    base = generators.random_poset(9, 2024)
    for include_empty in (False, True):
        calls.clear()
        space = powerdomain._build.__wrapped__(base, include_empty, 1 << 20)
        assert len(calls) == 1
        assert calls[0][0] is base
        assert len(space.points) == len(enumerate_down_sets(base, include_empty))


def count_row_builds(monkeypatch) -> list[tuple[str, int]]:
    """Record each call of the up-row and down-row routines, as the row
    family and its point count."""
    row_builds = []
    for name in ("_up_rows", "_down_rows"):
        def counting(columns, points, rows=getattr(powerdomain, name), name=name):
            row_builds.append((name, len(points)))
            return rows(columns, points)

        monkeypatch.setattr(powerdomain, name, counting)
    return row_builds


def test_uncached_build_validates_once(monkeypatch):
    # a build makes no rows, nor does its dimension: its order builds
    # each row family once, on its first read, and never again, not for
    # its covers either; neither the build nor that read constructs a
    # validated FinitePoset
    validations = []
    init = FinitePoset.__init__

    def counting_init(self, n, up, down, labels=None):
        validations.append(n)
        init(self, n, up, down, labels)

    base = generators.random_poset(9, 2024)
    monkeypatch.setattr(FinitePoset, "__init__", counting_init)
    row_builds = count_row_builds(monkeypatch)
    for include_empty, first, second in ((False, "up", "down"), (True, "down", "up")):
        row_builds.clear()
        space = powerdomain._build.__wrapped__(base, include_empty, 1 << 20)
        order = space.order
        assert order.leq(0, order.n - 1)
        assert powerdomain.powerdomain_dimension(space) == base.n - 1 + include_empty
        assert row_builds == []
        getattr(order, first)
        assert row_builds == [(f"_{first}_rows", order.n)]
        getattr(order, second)
        getattr(order, first)
        assert order.upper_covers[0] and order.lower_covers[-1]
        assert row_builds == [(f"_{first}_rows", order.n), (f"_{second}_rows", order.n)]
    assert validations == []


def test_comparing_an_order_with_itself_makes_no_rows(monkeypatch):
    # a map's source or target compared with the same poset, as in
    # compose and the functor laws, reads no rows of a built order
    row_builds = count_row_builds(monkeypatch)
    base = generators.random_poset(9, 2024)
    order = powerdomain._build.__wrapped__(base, False, 1 << 20).order
    assert order == order and not order != order
    assert row_builds == []


def test_lifting_out_of_a_large_space_makes_no_rows(monkeypatch):
    # the traced maps.powerdomain_map metrics of a large lift count no
    # row builds: a lift reads point masks, never the rows of an order
    row_builds = count_row_builds(monkeypatch)
    monkeypatch.setattr(powerdomain, "_build",
                        functools.lru_cache(maxsize=None)(powerdomain._build.__wrapped__))
    source = FinitePoset.from_cover_relations(12, [])
    target = FinitePoset.from_cover_relations(2, [(0, 1)])
    f = maps.MonotoneMap(source, target, tuple(i % 2 for i in range(12)))
    lifted = maps._powerdomain_map.__wrapped__(f, 1 << 16)
    assert len(lifted.image) == (1 << 12) - 1
    assert row_builds == []
