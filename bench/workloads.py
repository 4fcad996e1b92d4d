"""Inputs, operations and output checks of the three workloads.

Every input is drawn from the workload seed; the program under test
only ever sees the generated inputs.  ``--seconds`` sizes the fixed
operation list (calibrated so one run takes about that long on the
reference machine), so both sides of a comparison do the same work.
Checks run after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

# Work per second of ``--seconds`` on the reference machine.
SWEEP_POSETS_PER_SECOND = 36
BUILD_SECONDS_PER_ROUND = 6.5  # one base per outer bucket, MIDDLE_WEIGHT in the middle
CLI_SECONDS_PER_PASS = 6.5

# The ``build`` buckets: nonempty down-set counts [low, high) on
# geometric steps from 400 to about 3800 points, and the element count
# of every base in the bucket.  One element count per bucket keeps the
# bases of a bucket alike in cost, whatever the seed.  The three smaller
# buckets span about +-4%; the two larger ones hold a single count each
# (2303 and 3839), the only one that their element counts reach
# there.  The middle bucket holds MIDDLE_WEIGHT times as many bases as
# the others, so the median construction is the median of many
# like-sized builds rather than of one.
BUILD_BUCKETS = ((400, 430, 18), (710, 770, 16), (1270, 1370, 12),
                 (2290, 2320, 12), (3800, 3900, 13))
MIDDLE_BUCKET = 2
MIDDLE_WEIGHT = 5
BUILDERS = ("build", "hat_powerdomain", "inverse_powerdomain")
# The search makes at least this many draws per base in a bucket (about
# 1.2 to 3 times what a bucket needs on average), so set-up costs about
# the same whatever the seed.
BUILD_TRIES_PER_BASE = 250
BUILD_MAX_TRIES = 200_000
LEQ_SAMPLE = 2000

FIXTURES = ("chain2", "discrete3", "grid4x4", "vee")
HEAVY_COMMAND = ("check", "--suite", "all", "fixtures/grid4x4.json")


def sweep_size(seconds: int) -> int:
    return max(20, round(SWEEP_POSETS_PER_SECOND * seconds))


def cli_passes(seconds: int) -> int:
    return max(1, round(seconds / CLI_SECONDS_PER_PASS))


# --- sweep -------------------------------------------------------------

def sweep_setup(seed: int, seconds: int) -> list:
    """A uniform sample, without replacement, of the 5-element posets."""
    from smyth import generators

    posets = generators.all_posets(5)
    picks = random.Random(seed).sample(range(len(posets)), sweep_size(seconds))
    return [posets[k] for k in picks]


def sweep_operation(poset) -> list:
    """One poset through every per-poset property, as run_suite does it."""
    from smyth import docio, suite

    payload = docio.document_of_poset(poset).to_payload()
    return [suite.PROPERTIES[name](payload) for name in suite.PER_POSET_PROPERTIES]


def sweep_check(outputs: list) -> tuple[list[bool], dict]:
    """Per-operation verdict, verdict totals and the triple digest."""
    digest = hashlib.sha256()
    totals = {"pass": 0, "skipped": 0, "fail": 0}
    ok = []
    for reports in outputs:
        good = reports is not None
        for report in reports or ():
            totals[report.verdict] += 1
            digest.update(f"{report.property}\t{report.instance}\t"
                          f"{report.verdict}\n".encode())
            good = good and report.verdict != "fail"
        ok.append(good)
    return ok, {"verdicts": totals, "digest": digest.hexdigest()}


# --- build -------------------------------------------------------------

def build_setup(seed: int, seconds: int) -> list[tuple[int, str, object]]:
    """Seeded random bases for every size bucket, as (bucket, builder,
    base) jobs.

    Each outer bucket gets one base per ``BUILD_SECONDS_PER_ROUND`` of
    ``seconds`` and the middle one ``MIDDLE_WEIGHT`` times as many; the
    builders take turns within a bucket.  The buckets' jobs are spread
    evenly over the run, so that a slow stretch of the host does not fall
    on one bucket alone.  No two bases (nor a base and the dual of
    another) are equal, so every build misses the construction cache.
    Down-sets are counted here, not with the library, so that set-up does
    not move with the enumeration code that the workload measures.
    """
    from smyth import generators, poset

    per_bucket = max(1, round(seconds / BUILD_SECONDS_PER_ROUND))
    seen: set = set()
    jobs = []
    for k, (low, high, n) in enumerate(BUILD_BUCKETS):
        want = per_bucket * (MIDDLE_WEIGHT if k == MIDDLE_BUCKET else 1)
        rng = random.Random(f"build {seed} {k}")
        found: list = []
        tries = 0
        while tries < BUILD_TRIES_PER_BASE * want or len(found) < want:
            tries += 1
            if tries > BUILD_MAX_TRIES:
                raise RuntimeError(f"bucket search did not fill bucket {k}")
            base = generators.random_poset(n, rng.getrandbits(32))
            if not low <= _count_down_sets(base, high) < high or len(found) == want:
                continue
            dual = poset.order_dual(base)
            if base not in seen and dual not in seen:
                seen.update((base, dual))
                found.append(base)
        jobs += [((i + 0.5) / want, k, BUILDERS[i % len(BUILDERS)], base)
                 for i, base in enumerate(found)]
    jobs.sort(key=lambda job: job[:2])
    return [job[1:] for job in jobs]


def _count_down_sets(base, cap: int) -> int:
    """Nonempty down-sets of ``base``, or ``cap`` once there are more.

    Grows down-sets along a linear extension (``x < y`` implies a
    smaller principal down-set), so the cost follows the count.
    """
    found = [0]
    for x in sorted(range(base.n), key=lambda i: base.down[i].bit_count()):
        need, bit = base.down[x] & ~(1 << x), 1 << x
        found += [d | bit for d in found if need & ~d == 0]
        if len(found) > cap:
            return cap
    return len(found) - 1


def build_operation(job):
    from smyth import powerdomain

    _, builder, base = job
    return getattr(powerdomain, builder)(base)


def build_check(job, space, rng: random.Random) -> list[str]:
    """Problems found in one built space; empty when it is correct."""
    from smyth import poset

    _, builder, base = job
    if space is None:
        return ["the build raised"]
    ground = space.base
    problems = []
    points = space.points
    if list(points) != sorted(set(points), key=lambda m: (m.bit_count(), m)):
        problems.append("points are not distinct and in canonical order")
    if any(mask >> x & 1 and ground.down[x] & ~mask
           for mask in points for x in range(ground.n)):
        problems.append("a point is not a down-set")
    include_empty = builder == "hat_powerdomain"
    if len(points) != len(poset.enumerate_down_sets(ground, include_empty)):
        problems.append("point count differs from the down-set count")
    if builder == "inverse_powerdomain" and ground != poset.order_dual(base):
        problems.append("the inverse space is not built on the dual")
    if any(points[space.phi_index[x]] != ground.down[x] for x in range(ground.n)):
        problems.append("a phi_index entry is not the principal down-set")
    for _ in range(LEQ_SAMPLE):
        i, j = rng.randrange(len(points)), rng.randrange(len(points))
        if space.order.leq(i, j) != (points[i] & ~points[j] == 0):
            problems.append(f"order.leq({i}, {j}) differs from containment")
            break
    return problems


# --- cli ---------------------------------------------------------------

def cli_commands() -> list[tuple[str, ...]]:
    commands = []
    for name in FIXTURES:
        path = f"fixtures/{name}.json"
        commands += [("check", "--suite", "all", path), ("powerdomain", path),
                     ("stats", path)]
    commands.append(("map", "apply", "fixtures/vee.json", "fixtures/chain2.json",
                     "--assign", "0:0,1:0,2:1"))
    commands.append(("iterate", "fixtures/discrete3.json", "--k", "3"))
    return commands


def cli_check(root: Path, command: tuple[str, ...], returncode: int,
              stdout: str, verdicts: dict) -> list[str]:
    """Problems in one command's output; adds check verdicts to totals."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = []
    if command[0] in ("powerdomain", "stats"):
        expect = json.loads((root / command[-1]).read_text())["expect"]
        wanted = f"points: {expect['point_count']}"
        if wanted not in stdout.splitlines():
            problems.append(f"no line {wanted!r}")
    if command[0] == "check":
        lines = stdout.splitlines()
        if not lines:
            problems.append("no check output")
        for line in lines:
            try:
                verdict = json.loads(line)["verdict"]
            except (ValueError, KeyError, TypeError):
                problems.append(f"not a check report: {line[:80]!r}")
                continue
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if verdict == "fail":
                problems.append("a check verdict is fail")
    return problems
