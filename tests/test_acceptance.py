"""End-to-end acceptance gate.

Eight criteria, each with a wall-clock budget where one is stated.
Every test prints a single verdict line (run with ``-s`` to see them on
success); the assertions make the same facts fail loudly under plain
pytest.  Expected values are either pinned worked examples or computed
by an independent oracle inside the test.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import chain as chain_iterable
from pathlib import Path

from conftest import (
    assert_valid_dot,
    count_posets_bruteforce,
    down_sets_by_filter,
    vee_poset,
)

from smyth.completion import (
    check_sigma_theorem,
    is_sup_preserving,
    lambda_sharp,
    sigma_map,
)
from smyth.errors import SigmaUndefinedError
from smyth.generators import (
    all_monotone_images,
    all_posets,
    random_monotone_map,
    random_poset,
)
from smyth.maps import (
    MonotoneMap,
    anchored_extensions,
    check_minimality,
    enumerate_extensions,
    identity,
    lift_homeomorphism,
    powerdomain_map,
)
from smyth.poset import (
    FinitePoset,
    _down_sets_by_extension,
    find_isomorphism,
    is_chain,
    resolve_capacity,
    sup,
)
from smyth.powerdomain import (
    basic_open,
    build,
    check_embedding_theorem,
    is_phi_surjective,
    powerdomain_dimension,
    vietoris_open,
)
from smyth.report import CheckReport
from smyth.suite import replay
from smyth.topology import open_sets

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


def _line(number: int, label: str, verdict: str, elapsed: float,
          seconds: float | None) -> str:
    note = "" if seconds is None else f", budget {seconds:g}s"
    return f"criterion {number} [{label}]: {verdict} ({elapsed:.3f}s{note})"


@contextmanager
def criterion(number: int, label: str, seconds: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(_line(number, label, "FAIL", time.perf_counter() - start, seconds))
        raise
    elapsed = time.perf_counter() - start
    ok = seconds is None or elapsed < seconds
    print(_line(number, label, "PASS" if ok else "FAIL", elapsed, seconds))
    assert ok, f"criterion {number} exceeded its budget: {elapsed:.3f}s >= {seconds:g}s"


def test_criterion_1_worked_extension_example():
    """The pinned two-extension example, reproduced point for point."""
    with criterion(1, "worked-example", 1.0):
        source = vee_poset()
        target = FinitePoset.from_cover_relations(2, [(0, 1)], labels=("c1", "c2"))

        source_space = build(source)
        assert source_space.points == (0b001, 0b010, 0b011, 0b111)
        assert [source_space.point_label(i) for i in range(4)] == [
            "{a1}", "{a2}", "{a1,a2}", "{a1,a2,b}",
        ]
        target_space = build(target)
        assert target_space.points == (0b01, 0b11)
        assert [target_space.point_label(i) for i in range(2)] == [
            "{c1}", "{c1,c2}",
        ]

        psi = MonotoneMap(source, target, (0, 0, 1))
        induced = powerdomain_map(psi)
        pair = source_space.point_index[0b011]
        assert induced.image[pair] == target_space.point_index[0b01]
        assert induced.image == (0, 0, 0, 1)

        images = [e.image for e in enumerate_extensions(psi)]
        assert images == [(0, 0, 0, 1), (0, 0, 1, 1)]
        other = (0, 0, 1, 1)
        assert other[pair] == target_space.point_index[0b11]
        assert other != induced.image

        assert check_minimality(psi) is None


def test_criterion_2_discrete_collapse_example():
    """The pinned endomap on the 3-point discrete space."""
    with criterion(2, "discrete-collapse", 1.0):
        base = FinitePoset.from_cover_relations(3, [], labels=("a", "b", "c"))
        space = build(base)
        order = space.order
        assert len(space.points) == 7

        full_index = space.point_index[base.full]
        image = tuple(
            full_index if space.points[i] == 0b011 else i for i in range(7)
        )
        collapse = MonotoneMap(order, order, image)

        for x in range(base.n):
            assert collapse.image[space.phi_index[x]] == space.phi_index[x]
        assert collapse.image != tuple(range(7))
        assert not is_sup_preserving(collapse)

        anchors = {space.phi_index[x]: space.phi_index[x] for x in range(base.n)}
        extensions = anchored_extensions(order, anchors, order)
        assert collapse.image in extensions
        assert tuple(range(7)) in extensions

        embed = MonotoneMap(base, order, space.phi_index)
        sharp = lambda_sharp(embed)
        assert sharp.image == tuple(range(7))


def test_criterion_3_exhaustive_four_element_suite():
    """Embedding facts over every labeled poset on 4 elements."""
    with criterion(3, "exhaustive-4", 10.0):
        posets = all_posets(4)
        assert len(posets) == count_posets_bruteforce(4) == 219
        for poset in posets:
            space = build(poset)
            violation = check_embedding_theorem(space)
            assert violation is None, violation
            assert powerdomain_dimension(space) == poset.n - 1
            assert is_phi_surjective(space) == is_chain(poset)
            for omega in open_sets(poset):
                assert vietoris_open(space, omega) == basic_open(space, omega)


def test_criterion_4_functor_laws_all_small_pairs():
    """Composition, identity, and minimality over every composable pair."""
    with criterion(4, "functor-laws", 60.0):
        posets = list(
            chain_iterable.from_iterable(all_posets(n) for n in (1, 2, 3))
        )
        assert len(posets) == 23

        induced: dict[tuple[int, int, tuple[int, ...]], tuple[int, ...]] = {}
        maps_into: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for pi, source in enumerate(posets):
            for qi, target in enumerate(posets):
                for img in all_monotone_images(source, target):
                    arrow = MonotoneMap(source, target, img)
                    induced[(pi, qi, img)] = powerdomain_map(arrow).image
                    maps_into.setdefault(qi, []).append((pi, img))
        total_maps = len(induced)
        assert total_maps == sum(len(v) for v in maps_into.values())

        pairs = 0
        for qi, middle in enumerate(posets):
            outgoing = [
                (ri, gimg)
                for ri, right in enumerate(posets)
                for gimg in all_monotone_images(middle, right)
            ]
            for pi, fimg in maps_into.get(qi, []):
                fpow = induced[(pi, qi, fimg)]
                for ri, gimg in outgoing:
                    composite = tuple(gimg[v] for v in fimg)
                    left = induced[(pi, ri, composite)]
                    gpow = induced[(qi, ri, gimg)]
                    right_side = tuple(gpow[v] for v in fpow)
                    assert left == right_side, (pi, qi, ri, fimg, gimg)
                    pairs += 1
        assert pairs > 900_000

        for poset in posets:
            lifted = powerdomain_map(identity(poset))
            assert lifted == identity(lifted.source)

        for (pi, qi, img) in induced:
            violation = check_minimality(MonotoneMap(posets[pi], posets[qi], img))
            assert violation is None, violation
        print(f"  {total_maps} maps, {pairs} composable pairs, 23 identities")


def test_criterion_5_powerdomain_determines_base():
    """Isomorphism classes match across the construction, and lifts invert it."""
    with criterion(5, "iso-classes-and-lift", 120.0):
        posets = list(
            chain_iterable.from_iterable(all_posets(n) for n in (1, 2, 3, 4))
        )
        assert len(posets) == 242
        spaces = [build(p) for p in posets]

        def classify(items):
            reps: list = []
            classes: list[int] = []
            for item in items:
                for ci, rep in enumerate(reps):
                    if find_isomorphism(item, rep) is not None:
                        classes.append(ci)
                        break
                else:
                    reps.append(item)
                    classes.append(len(reps) - 1)
            return reps, classes

        base_reps, base_class = classify(posets)
        pow_reps, pow_class = classify([s.order for s in spaces])
        assert len(base_reps) == len(pow_reps) == 24

        for i in range(len(posets)):
            for j in range(i + 1, len(posets)):
                assert (base_class[i] == base_class[j]) == (
                    pow_class[i] == pow_class[j]
                ), (i, j)

        rep_index: dict[int, int] = {}
        for i, ci in enumerate(base_class):
            rep_index.setdefault(ci, i)
        lifts = 0
        for i, source in enumerate(posets):
            j = rep_index[base_class[i]]
            target = posets[j]
            forward = MonotoneMap(source, target, find_isomorphism(source, target))
            lifted = powerdomain_map(forward)
            assert lift_homeomorphism(spaces[i], spaces[j], lifted) == forward

            back = find_isomorphism(spaces[j].order, spaces[i].order)
            point_iso = MonotoneMap(spaces[j].order, spaces[i].order, back)
            recovered = lift_homeomorphism(spaces[j], spaces[i], point_iso)
            assert powerdomain_map(recovered) == point_iso
            lifts += 2
        print(f"  24 classes on both sides, {lifts} lift round trips")


def test_criterion_6_sup_extension_random_problems():
    """The sup-extension characterization on 200 seeded random problems."""
    with criterion(6, "sup-extension", 120.0):
        seed = 2026
        accepted = 0
        drawn = 0
        while accepted < 200:
            drawn += 1
            source = random_poset(1 + (drawn % 4), seed + drawn)
            target = random_poset(1 + (3 * drawn % 5), seed + 100_000 + drawn)
            base_map = random_monotone_map(
                source, target, random.Random(seed + 200_000 + drawn)
            )
            if base_map is None:
                continue
            try:
                sharp = lambda_sharp(base_map)
            except SigmaUndefinedError:
                continue
            accepted += 1
            space = build(source)

            for x in range(source.n):
                assert sharp.image[space.phi_index[x]] == base_map.image[x]

            induced = powerdomain_map(base_map)
            sigma = sigma_map(target, target.full)
            target_space = build(target)
            for i in range(len(space.points)):
                value = sigma[target_space.points[induced.image[i]]]
                assert value is not None
                assert value == sharp.image[i]
                assert value == sup(target, base_map.image_mask(space.points[i]))

            violation = check_sigma_theorem(base_map, sharp)
            assert violation is None, violation
        print(f"  {accepted} well-posed problems out of {drawn} draws")


def test_criterion_7_fast_enumeration_and_oracles():
    """Build speed on the pinned large posets, against the mask-filter oracle."""
    with criterion(7, "fast-enumeration", None):
        limit = resolve_capacity(None)

        covers = sorted(
            [[4 * r + c, 4 * (r + 1) + c] for r in range(3) for c in range(4)]
            + [[4 * r + c, 4 * r + c + 1] for r in range(4) for c in range(3)]
        )
        grid = FinitePoset.from_cover_relations(
            16, covers, labels=tuple(f"g{i}" for i in range(16))
        )
        start = time.perf_counter()
        grid_space = build(grid)
        grid_elapsed = time.perf_counter() - start
        assert len(grid_space.points) == math.comb(8, 4) - 1 == 69
        assert len(down_sets_by_filter(grid)) - 1 == 69
        assert grid_elapsed < 0.1, f"grid build took {grid_elapsed:.3f}s"

        cube = FinitePoset.from_cover_relations(
            16,
            [(a, a | 1 << k) for a in range(16) for k in range(4) if not a >> k & 1],
            labels=tuple(f"m{i}" for i in range(16)),
        )
        start = time.perf_counter()
        cube_space = build(cube)
        cube_elapsed = time.perf_counter() - start
        oracle = len(down_sets_by_filter(cube)) - 1
        assert len(cube_space.points) == oracle == 167
        assert cube_elapsed < 5.0, f"cube build took {cube_elapsed:.3f}s"

        for seed in range(50):
            poset = random_poset(12, seed)
            fast = sorted(_down_sets_by_extension(poset, poset.full, limit))
            slow = sorted(down_sets_by_filter(poset))
            assert fast == slow, f"strategies disagree at seed {seed}"
        print(
            f"  grid {1000 * grid_elapsed:.1f}ms < 100ms,"
            f" cube {cube_elapsed:.2f}s < 5s, 50/50 oracle agreements"
        )


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "smyth", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        timeout=60,
    )


def test_criterion_8_cli_contract(tmp_path):
    """Shipped fixtures pass, a corrupted one fails replayably, exports parse."""
    with criterion(8, "cli-contract", None):
        fixture_files = sorted(FIXTURES.glob("*.json"))
        assert [p.name for p in fixture_files] == [
            "chain2.json", "discrete3.json", "grid4x4.json", "vee.json",
        ]
        for path in fixture_files:
            result = _run_cli("check", str(path), "--suite", "all")
            assert result.returncode == 0, (path.name, result.stdout, result.stderr)

        payload = json.loads((FIXTURES / "vee.json").read_text())
        assert payload["covers"] == [[0, 2], [1, 2]]
        payload["covers"] = [[0, 1], [1, 2]]
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(json.dumps(payload))
        result = _run_cli("check", str(corrupted), "--suite", "all")
        assert result.returncode == 1

        failing = [
            json.loads(line)
            for line in result.stdout.splitlines()
            if json.loads(line)["verdict"] == "fail"
        ]
        assert failing, result.stdout
        for record in failing:
            rebuilt = CheckReport(
                property=record["property"],
                instance=record["instance"],
                verdict=record["verdict"],
                reason=record.get("reason"),
                witness=record.get("witness"),
            )
            assert replay(rebuilt).verdict == "fail"

        dot_path = tmp_path / "vee.dot"
        result = _run_cli(
            "powerdomain", str(FIXTURES / "vee.json"), "--dot", str(dot_path)
        )
        assert result.returncode == 0
        nodes, edges = assert_valid_dot(dot_path.read_text())
        assert (nodes, edges) == (4, 3)

        grid_dot = tmp_path / "grid.dot"
        result = _run_cli(
            "powerdomain", str(FIXTURES / "grid4x4.json"), "--dot", str(grid_dot)
        )
        assert result.returncode == 0
        nodes, edges = assert_valid_dot(grid_dot.read_text())
        assert nodes == 69 and edges > 0
        print(f"  4 fixtures pass, {len(failing)} replayable failure(s) on corruption")
