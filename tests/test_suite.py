"""Report shape, suite scopes, determinism, and witness replay."""

import functools
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
import zlib
from collections import Counter
from pathlib import Path

import pytest

from smyth import (
    CapacityError,
    CheckReport,
    DocumentError,
    FinitePoset,
    MonotoneMap,
    NotSpectralError,
    PowerdomainSpace,
    RangeError,
    build,
    check_functor_laws,
    completion,
    hat_powerdomain,
    maps,
    order_dual,
    powerdomain,
    replay,
    run_suite,
    suite,
)
from smyth.docio import document_of_poset
from smyth.generators import all_monotone_images, all_posets, random_poset
from smyth.poset import iter_bits, mask_of, resolve_capacity
from smyth.generators import random_monotone_map
from smyth.report import FAIL, PASS, SKIPPED, failed, instance_text, passed, skipped
from smyth.suite import (
    FIXTURE_DOCS,
    PER_POSET_PROPERTIES,
    PROPERTIES,
    SUITE_GROUPS,
    check_payload,
    prop_extension_minimality,
    prop_functor_laws,
    prop_sup_extension_of_embedding,
)

from pins import ledger
from conftest import (
    antichain,
    boolean_lattice,
    chain,
    constant_lift,
    diamond_poset,
    functor_laws_by_pair_scan,
    greatest_extension_lift,
    lift_without_closure,
    minimality_by_search,
    no_joins,
    patch_lift,
    vee_poset,
)


def test_report_validation():
    ok = CheckReport("law", "{}", PASS)
    assert ok.ok and ok.verdict == "pass"
    with pytest.raises(RangeError):
        CheckReport("law", "{}", FAIL)  # fail needs a witness
    with pytest.raises(RangeError):
        CheckReport("law", "{}", SKIPPED)  # skip needs a reason
    with pytest.raises(RangeError):
        CheckReport("law", "{}", "maybe")
    skippy = CheckReport("law", "{}", SKIPPED, reason="why")
    assert skippy.ok


def test_report_helpers():
    instance = {"n": 1, "covers": []}
    assert passed("p", instance).instance == instance_text(instance)
    bad = failed("p", instance, law="x", got=3)
    assert bad.witness == {"instance": instance, "law": "x", "got": 3}
    assert not bad.ok
    assert skipped("p", instance, "because").reason == "because"


def test_report_json_deterministic():
    instance = {"b": 1, "a": 2}
    left = failed("p", instance, z=1, a=2).to_json()
    right = failed("p", instance, a=2, z=1).to_json()
    assert left == right
    parsed = json.loads(left)
    assert parsed["verdict"] == "fail"


def test_registry_shape():
    assert len(PROPERTIES) == 11
    assert len(PER_POSET_PROPERTIES) == 10
    for group, names in SUITE_GROUPS.items():
        for name in names:
            assert name in PROPERTIES, (group, name)
    assert set(SUITE_GROUPS) == {"embedding", "functor", "sigma", "all"}


def test_exhaustive_scope_counts():
    reports = run_suite("exhaustive-2")
    assert len(reports) == 3 * len(PER_POSET_PROPERTIES)
    assert all(r.ok for r in reports)


def test_exhaustive_3_all_green():
    reports = run_suite("exhaustive-3")
    assert len(reports) == 19 * len(PER_POSET_PROPERTIES)
    assert not [r for r in reports if r.verdict == "fail"]


def test_fixture_scope_green():
    reports = run_suite("fixtures")
    assert not [r for r in reports if r.verdict == "fail"]
    names = {r.property for r in reports}
    assert names == set(PER_POSET_PROPERTIES) | {"fixture-expectations"}


def test_fixture_scope_calls_each_property_through_the_registry(monkeypatch):
    """A counting wrapper installed in ``PROPERTIES`` sees every report
    of the ``fixtures`` scope made, ``fixture-expectations`` once per
    shipped document."""
    calls = []
    for name, prop in list(PROPERTIES.items()):
        def counting(payload, name=name, prop=prop):
            calls.append(name)
            return prop(payload)
        monkeypatch.setitem(PROPERTIES, name, counting)
    reports = run_suite("fixtures")
    assert Counter(calls) == Counter(r.property for r in reports)
    assert calls.count("fixture-expectations") == len(FIXTURE_DOCS) == 4


# a sha256 prefix of every report line of each scope, and its length
PINNED_SCOPES = [
    ("fixtures", "cdd2a13a70e5b162", 44), ("exhaustive-4", "8cb1057c8fa761ae", 2190),
]


@pytest.fixture(scope="module")
def suite_run():
    """``run_suite`` of a scope, run once per module and kept as the
    sha256 prefix and count of its report lines and its ledger."""
    @functools.cache
    def run(scope):
        reports = run_suite(scope)
        text = "\n".join(r.to_json() for r in reports)
        return (hashlib.sha256(text.encode()).hexdigest()[:16], len(reports),
                ledger.ledger_lines(reports))
    return run


def assert_ledger_holds(run, lines):
    """The ledger of ``run`` is the one in ``tests/pins``; a mismatch
    names each property that moved."""
    pinned = ledger.ledger_path(run).read_text().splitlines()
    assert lines == pinned, f"{run}: moved {ledger.moved(pinned, lines)}"


# exhaustive-5 (39 143 pass, 3 167 skipped) and the random scope, the
# suite's path through random_poset (560 pass, 40 skipped), are pinned
# here alone: the other tests over PINNED_SCOPES would run them again
@pytest.mark.parametrize("scope, digest, count", PINNED_SCOPES + [
    ("exhaustive-5", "4c8d6b2287f293cd", 42310),
    ("random:60:9:2024", "23e6718b9f23a0b1", 600),
])
def test_report_lists_are_pinned(suite_run, scope, digest, count):
    # a sha256 prefix of every report line: a change meant to keep each
    # verdict, witness and skip reason must leave these bytes alone
    found, length, lines = suite_run(scope)
    assert (found, length) == (digest, count), "\n".join(lines)


@pytest.mark.parametrize("scope", ledger.SCOPES)
def test_scope_ledgers_are_pinned(suite_run, scope):
    assert_ledger_holds(scope, suite_run(scope)[2])


def test_ledger_lines_name_each_property():
    reports = [passed("p", {}), skipped("q", {}, "why: x"), skipped("q", {"n": 1}, "why"),
               failed("p", {}, law="x")]
    lines = ledger.ledger_lines(reports)
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "p: 1 pass, 1 fail, 0 skipped; skipped by reason: none; lines",
        "q: 0 pass, 0 fail, 2 skipped; skipped by reason: why 2; lines"]
    moved_q = lines[:1] + [lines[1].replace("2 skipped", "3 skipped")]
    assert ledger.moved(lines, moved_q) == ["q"]
    assert ledger.moved(lines, lines[:1]) == ["q"]


def test_random_scope_deterministic():
    left = [r.to_json() for r in run_suite("random:6:4:11")]
    right = [r.to_json() for r in run_suite("random:6:4:11")]
    assert left == right
    assert len(left) == 6 * len(PER_POSET_PROPERTIES)


def test_bad_scopes():
    for scope in ("exhaustive-x", "random:1:2", "random:a:b:c", "nope",
                  "random:1:0:5", "random:-2:3:1"):
        with pytest.raises(RangeError):
            run_suite(scope)


def test_check_payload_groups():
    payload = dict(FIXTURE_DOCS[0])
    for group, names in SUITE_GROUPS.items():
        reports = check_payload(payload, group)
        # the expect block appends the fixture-expectations property
        assert len(reports) == len(names) + 1
        assert all(r.ok for r in reports)
    with pytest.raises(RangeError):
        check_payload(payload, "bogus")


def test_check_payload_without_expect():
    payload = {"n": 2, "covers": [[0, 1]]}
    reports = check_payload(payload, "embedding")
    assert len(reports) == len(SUITE_GROUPS["embedding"])
    assert all(r.ok for r in reports)


@pytest.mark.parametrize("payload", [[], None, "n"], ids=["list", "none", "string"])
def test_check_payload_refuses_a_malformed_payload(payload):
    with pytest.raises(DocumentError):
        check_payload(payload, "all")


def test_every_property_reports_the_payload_it_ran_on():
    """Generating relations that are not covers stay in every instance."""
    payload = {"n": 3, "covers": [[0, 1], [1, 2], [0, 2]]}
    reports = check_payload(payload, "all")
    assert all(r.ok for r in reports)
    assert {r.instance for r in reports} == {instance_text(payload)}


def test_corrupted_expect_fails_and_replays():
    payload = dict(FIXTURE_DOCS[0])
    payload["expect"] = dict(payload["expect"], point_count=5)
    reports = check_payload(payload, "all")
    bad = [r for r in reports if r.verdict == "fail"]
    assert len(bad) == 1
    assert bad[0].property == "fixture-expectations"
    again = replay(bad[0])
    assert again.verdict == "fail"
    assert again.witness["instance"] == bad[0].witness["instance"]


def test_wrong_phi_onto_fails_and_replays():
    payload = dict(FIXTURE_DOCS[0])
    onto = payload["expect"]["phi_onto"]
    payload["expect"] = dict(payload["expect"], phi_onto=not onto)
    bad = [r for r in check_payload(payload, "all") if r.verdict == "fail"]
    assert [r.property for r in bad] == ["fixture-expectations"]
    assert (bad[0].witness["key"], bad[0].witness["actual"]) == ("phi_onto", onto)
    assert replay(bad[0]) == bad[0]


def test_corrupted_cover_fails_and_replays():
    payload = {k: v for k, v in FIXTURE_DOCS[0].items()}
    payload["covers"] = [[0, 1], [1, 2]]
    reports = check_payload(payload, "all")
    bad = [r for r in reports if r.verdict == "fail"]
    assert bad, "a chain relabeled as the vee fixture must trip the expectations"
    for report in bad:
        assert replay(report).verdict == "fail"


def test_replay_round_trips_through_json():
    payload = dict(FIXTURE_DOCS[0])
    payload["expect"] = dict(payload["expect"], dimension=9)
    bad = [r for r in check_payload(payload, "all") if not r.ok]
    line = bad[0].to_json()
    parsed = json.loads(line)
    rebuilt = CheckReport(
        parsed["property"],
        parsed["instance"],
        parsed["verdict"],
        parsed.get("reason"),
        parsed.get("witness"),
    )
    assert replay(rebuilt).verdict == "fail"


def test_replay_needs_witness():
    with pytest.raises(RangeError):
        replay(CheckReport("embedding-theorem", "{}", PASS))


def test_replay_of_an_unregistered_property():
    # a stored report of a property never or no longer in the registry
    for name in ("no-such", "fixture-vee-to-chain"):
        report = failed(name, {"fixture": "vee-to-chain"}, law="extensions")
        with pytest.raises(RangeError, match=f"'{name}'"):
            replay(report)


def test_fixture_docs_shape():
    assert len(FIXTURE_DOCS) == 4
    assert [doc["n"] for doc in FIXTURE_DOCS] == [3, 2, 3, 16]
    assert FIXTURE_DOCS[3]["expect"]["point_count"] == 69


def test_extension_minimality_skips_a_wide_antichain():
    report = prop_extension_minimality({"n": 10, "covers": []})
    assert report.verdict == SKIPPED
    assert report.reason == (
        "enumeration over budget: more than 4096 anchored extensions"
    )


def test_extension_minimality_skips_the_12_element_antichain_in_bounds():
    """Over its budget on the 12-element antichain's 4095 points, in a
    fresh process after the build: the first map's extensions are counted
    on masks, not searched as image tuples, in under 2 s and 48 MB."""
    code = (
        "import resource, time\n"
        "from smyth import build\n"
        "from smyth.poset import FinitePoset\n"
        "from smyth.suite import prop_extension_minimality\n"
        "build(FinitePoset.from_cover_relations(12, []))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "start = time.perf_counter()\n"
        "report = prop_extension_minimality({'n': 12, 'covers': []})\n"
        "seconds = time.perf_counter() - start\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(report.verdict, report.reason, seconds, grown / 1024, sep='|')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("SPECTRAL_CAPACITY", None)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.stderr == ""
    verdict, reason, seconds, grown_mb = result.stdout.strip().split("|")
    assert (verdict, reason) == (
        SKIPPED, "enumeration over budget: more than 4096 anchored extensions")
    assert float(seconds) < 2.0
    assert float(grown_mb) < 48


DOWN_SETS_OVER_3 = "more than 3 down-sets on 3 elements"
EXTENSIONS_OVER_3 = "more than 3 anchored extensions"
OVER_CAPACITY_ON_VEE = {
    "topology-round-trip": (CapacityError, DOWN_SETS_OVER_3),
    "embedding-theorem": (CapacityError, DOWN_SETS_OVER_3),
    "powerdomain-dimension": (CapacityError, DOWN_SETS_OVER_3),
    "phi-onto-iff-chain": (CapacityError, DOWN_SETS_OVER_3),
    "zariski-equals-vietoris": (CapacityError, DOWN_SETS_OVER_3),
    "functor-laws": (CapacityError, EXTENSIONS_OVER_3),
    "extension-minimality": (SKIPPED, f"enumeration over budget: {DOWN_SETS_OVER_3}"),
    "lift-round-trip": (CapacityError, DOWN_SETS_OVER_3),
    "sup-extension": (SKIPPED, f"enumeration over budget: {DOWN_SETS_OVER_3}"),
    "sup-extension-of-embedding": (SKIPPED, f"enumeration over budget: {DOWN_SETS_OVER_3}"),
    "fixture-expectations": (SKIPPED, "no expectations recorded"),
}


@pytest.mark.parametrize("name", PROPERTIES)
def test_every_property_over_capacity(monkeypatch, name):
    """With a capacity of 3 the four-point powerdomain of the vee is over
    budget.  ``extension-minimality``, which reads its maps off that
    powerdomain, and the sigma properties report a skip; every other
    property that builds lets CapacityError escape,
    which keeps ``smyth check`` at exit 2; the vee records no
    expectations."""
    monkeypatch.setenv("SPECTRAL_CAPACITY", "3")
    outcome, message = OVER_CAPACITY_ON_VEE[name]
    if outcome is CapacityError:
        with pytest.raises(CapacityError) as raised:
            PROPERTIES[name](VEE)
        assert str(raised.value) == message
    else:
        report = PROPERTIES[name](VEE)
        assert (report.verdict, report.reason) == (outcome, message)


def test_each_property_validates_its_payload_once(monkeypatch):
    """The filer validates a payload once per property call, and no law
    validates it again, on a payload with an expect block."""
    calls = counting_entry(monkeypatch, "document_from_payload")
    counts = {}
    for name, prop in PROPERTIES.items():
        calls.clear()
        assert prop(FIXTURE_DOCS[0]).ok, name
        counts[name] = len(calls)
    assert counts == dict.fromkeys(PROPERTIES, 1)


def counting_entry(monkeypatch, name):
    """The arguments of every call of ``suite.<name>``, recorded."""
    original, calls = getattr(suite, name), []

    def counting(argument):
        calls.append(argument)
        return original(argument)

    monkeypatch.setattr(suite, name, counting)
    return calls


def test_a_payload_enters_a_scope_or_a_check_once(monkeypatch):
    """``fixtures`` and ``check_payload`` validate each payload and read
    the default capacity once for all of its properties, with or without
    an expect block."""
    validated = counting_entry(monkeypatch, "document_from_payload")
    reads = counting_entry(monkeypatch, "resolve_capacity")
    assert len(run_suite("fixtures")) == 44
    assert list(map(id, validated)) == list(map(id, FIXTURE_DOCS))
    assert reads == [None] * len(FIXTURE_DOCS)
    for payload in (FIXTURE_DOCS[0], VEE):
        validated.clear()
        reads.clear()
        assert all(report.ok for report in check_payload(payload, "all"))
        assert (validated, reads) == ([payload], [None])


def test_a_raising_law_leaves_no_case_behind(monkeypatch):
    """A law that raises inside ``check_payload`` leaves no case for a
    later direct call on the same payload object: that call validates
    the payload again and reads the capacity of its own time."""
    payload = dict(VEE)
    monkeypatch.setenv("SPECTRAL_CAPACITY", "3")
    with pytest.raises(CapacityError):
        check_payload(payload, "embedding")
    monkeypatch.delenv("SPECTRAL_CAPACITY")
    validated = counting_entry(monkeypatch, "document_from_payload")
    assert PROPERTIES["embedding-theorem"](payload).verdict == PASS
    assert validated == [payload]


def test_sigma_properties_search_no_extensions(monkeypatch):
    """The ``sigma`` group certifies the sup extension per point: with the
    extension search and ``is_sup_preserving`` made to raise, it reports
    exactly as before over ``exhaustive-4`` and the shipped documents."""
    payloads = [document_of_poset(p).to_payload() for p in all_posets(4)]
    payloads += FIXTURE_DOCS

    def sigma_reports():
        return [PROPERTIES[name](payload)
                for payload in payloads for name in SUITE_GROUPS["sigma"]]

    expected = sigma_reports()

    def no_search(*args, **kwargs):
        raise AssertionError("the sigma group searched")

    monkeypatch.setattr(maps, "anchored_extensions", no_search)
    monkeypatch.setattr(completion, "is_sup_preserving", no_search)
    assert sigma_reports() == expected


@pytest.fixture(scope="module")
def seed_0_sweep():
    """The benchmark's seed-0 ``sweep``, run once per module and kept as
    its poset count, its check and its ledger."""
    workloads = ledger.bench_workloads()
    outputs = ledger.sweep_outputs(workloads)
    ok, summary = workloads.sweep_check(outputs)
    return (len(outputs), all(ok), summary,
            ledger.ledger_lines(r for reports in outputs for r in reports))


def test_sweep_matches_its_benchmark_pin(seed_0_sweep):
    """The benchmark's seed-0 ``sweep`` of 720 five-element posets gives
    the verdict totals and digest pinned in ``bench/pins.json``, which
    ``python3 bench/run.py --check`` requires."""
    count, ok, summary, _ = seed_0_sweep
    assert count == 720 and ok
    pins = json.loads((ledger.BENCH / "pins.json").read_text())
    assert summary == pins["sweep"]["0/720"]


def test_sweep_ledger_is_pinned(seed_0_sweep):
    assert_ledger_holds(ledger.SWEEP, seed_0_sweep[3])


# The seed-7919 ``sweep``: 720 five-element posets, the benchmark's
# held-out seed, with the verdict totals and digest it gave when every
# map into the chain was still found by the anchored search and judged
# by listing its extensions.
HELD_OUT_SWEEP = {
    "verdicts": {"pass": 6640, "skipped": 560, "fail": 0},
    "digest": "b3654f0ba66b8dc4453924f8ab1810a1d2a50651e8813b080897b44790077f96",
}


def test_sweep_matches_its_held_out_pin():
    """The benchmark's held-out seed-7919 ``sweep`` gives the verdict
    totals and digest pinned here."""
    workloads = ledger.bench_workloads()
    posets = workloads.sweep_setup(7919, 20)
    ok, summary = workloads.sweep_check(
        [workloads.sweep_operation(poset) for poset in posets]
    )
    assert len(posets) == 720 and all(ok)
    assert summary == HELD_OUT_SWEEP


def test_build_bases_match_their_pin():
    """The benchmark's seed-0 ``build`` set-up at one second picks the
    same nine (bucket, builder, base) jobs, so that its ``setup_s`` times
    the same bucket search on either side of a change."""
    workloads = ledger.bench_workloads()
    digest = hashlib.sha256()
    jobs = workloads.build_setup(0, 1)
    for bucket, builder, base in jobs:
        digest.update(f"{bucket}\t{builder}\t{base.n}\t{base.up}\n".encode())
    assert (len(jobs), digest.hexdigest()[:16]) == (9, "5f89086be1d0ee30")


def test_build_jobs_pass_their_benchmark_check():
    """Each of the nine seed-0, one-second ``build`` jobs builds a space
    that the benchmark's check accepts: canonical distinct down-sets,
    a ``phi_index`` of principal down-sets and a ``leq`` of containment.
    The rng draws the sampled ``leq`` pairs, as the benchmark seeds it."""
    workloads = ledger.bench_workloads()
    rng = random.Random(0)
    for job in workloads.build_setup(0, 1):
        assert workloads.build_check(job, workloads.build_operation(job), rng) == []


# the lifted composite, then the composite of the two lifts, of the
# first failing pair when the lift of the key image is corrupted
COMPOSITION_WITNESSES = {
    (2, 2, 2): ([2, 2, 2, 2, 2, 2, 0], [2, 2, 2, 2, 2, 2, 2]),
    (0, 2, 0, 0): ([0, 2, 0, 0, 5, 0, 5, 0, 5, 0, 5, 5, 0, 5, 0],
                   [0, 2, 0, 0, 5, 0, 5, 0, 5, 0, 5, 5, 0, 5, 5]),
}


@pytest.mark.parametrize("corrupted, f_image, g_image, law", [
    # an identity failure names no pair
    ((0, 1, 2), (), (), "identity"),
    ((2, 2, 2), (0, 0, 0), (2, 0, 0), "composition"),
    # sampled maps; the corrupted image is no sampled map, but the
    # composite of three pairs, of which this is the first
    ((0, 2, 0, 0), (3, 0, 3, 3), (2, 2, 2, 0), "composition"),
])
def test_functor_law_failure_witness(monkeypatch, corrupted, f_image, g_image, law):
    """With the lifted map of one base map corrupted, the suite files the
    law's violation on the payload; a composition failure also names the
    images of the first failing pair as ``f`` and ``g``."""
    def corrupting(original):
        def lift(source_space, target_space, image):
            lifted = original(source_space, target_space, image)
            if image != corrupted:
                return lifted
            return lifted[:-1] + (0,)
        return lift

    patch_lift(monkeypatch, corrupting)
    payload = {"n": len(corrupted), "covers": []}
    report = prop_functor_laws(payload)
    expected = {"instance": payload, "law": law}
    if law == "composition":
        lifted_composite, composite_lifted = COMPOSITION_WITNESSES[corrupted]
        expected.update(f=list(f_image), g=list(g_image),
                        expected=lifted_composite, got=composite_lifted)
    else:
        expected["n"] = len(corrupted)
    assert (report.property, report.verdict) == ("functor-laws", FAIL)
    assert report.instance == instance_text(payload)
    assert report.witness == expected
    assert replay(report) == report


def reversing_all_but_the_identity(original):
    """Every induced map but the identity's with its image tuple reversed."""
    def lift(source_space, target_space, image):
        lifted = original(source_space, target_space, image)
        if image == tuple(range(len(image))):
            return lifted
        return lifted[::-1]
    return lift


@pytest.mark.parametrize("lift, laws", [
    (None, {None: 79}),
    (constant_lift, {None: 7, "identity": 72}),
    (lift_without_closure, {None: 40, "composition": 39}),
    (reversing_all_but_the_identity, {None: 9, "composition": 70}),
], ids=["real", "constant", "without-closure", "reversing"])
def test_functor_laws_match_the_pair_scan(monkeypatch, lift, laws):
    """On every payload of ``exhaustive-3`` and ``random:60:9:2024``, the
    one-pass law of ``functor-laws`` returns the None or the witness of
    the ordered scan over every pair, under the real lift and seeded
    wrong ones that return image tuples."""
    if lift is not None:
        patch_lift(monkeypatch, lift)
    payloads = [document_of_poset(poset).to_payload() for poset in all_posets(3)]
    payloads += [document_of_poset(random_poset(1 + k % 9, 2024 + k)).to_payload()
                 for k in range(60)]
    found = Counter()
    for payload in payloads:
        expected = functor_laws_by_pair_scan(payload)
        assert prop_functor_laws.__wrapped__(suite._Case(payload)) == expected, payload
        found[None if expected is None else expected["law"]] += 1
    assert found == laws


def test_functor_laws_lift_each_composite_once(monkeypatch):
    """``functor-laws`` lifts the identity, each sampled map and each
    distinct base composite that is no sampled map once, not one
    composite per pair: a composite equal to a map reuses its lift."""
    payload = {"n": 4, "covers": []}
    images = suite._endo_images(suite._Case(payload))
    composites = {tuple(g[v] for v in f) for f in images for g in images}
    assert len(composites) < len(images) ** 2  # pairs share composites
    assert composites & set(images)  # and some composites are maps
    lifted = []

    def recording(original):
        def lift(source_space, target_space, image):
            lifted.append(image)
            return original(source_space, target_space, image)
        return lift

    patch_lift(monkeypatch, recording)
    assert prop_functor_laws(payload).verdict == PASS
    assert sorted(lifted) == sorted(
        [(0, 1, 2, 3), *images, *(composites - set(images))])


def test_functor_laws_validate_each_map_once(monkeypatch):
    """``functor-laws`` draws its maps with the draw helper, lifts each
    drawn map, the identity and each distinct composite that is no drawn
    map once, and checks the monotonicity of none: the maps are monotone
    by construction, and the laws certify the lifts."""
    payload = {"n": 4, "covers": []}
    images = suite._endo_images(suite._Case(payload))
    composites = {tuple(g[v] for v in f) for f in images for g in images}
    drawn, lifted, checked = [], [], []
    draw = suite._draw_monotone_image
    check = maps._monotonicity_violation

    def drawing(*args):
        f = draw(*args)
        drawn.append(f)
        return f

    def lifting(original):
        def lift(source_space, target_space, image):
            lifted.append(image)
            return original(source_space, target_space, image)
        return lift

    def checking(*args):
        checked.append(args)
        return check(*args)

    monkeypatch.setattr(suite, "_draw_monotone_image", drawing)
    patch_lift(monkeypatch, lifting)
    monkeypatch.setattr(maps, "_monotonicity_violation", checking)
    assert prop_functor_laws(payload).verdict == PASS
    assert None not in drawn and len(drawn) == suite.SAMPLED_MAPS
    assert len(lifted) == 1 + len(images) + len(composites - set(images))
    assert checked == []


def reversing_lift(original):
    """Every induced map with its image tuple reversed."""
    def lift(*args):
        return original(*args)[::-1]
    return lift


def test_functor_laws_check_the_identity_with_no_map_drawn(monkeypatch):
    """Under a lift that reverses images, ``functor-laws`` fails the
    identity law on the 4-element antichain both with its own draws and
    when every draw dead-ends, so that no map is left to pair."""
    patch_lift(monkeypatch, reversing_lift)
    expected = {"instance": ANTICHAIN_4, "law": "identity", "n": 4}
    assert prop_functor_laws(ANTICHAIN_4).witness == expected
    monkeypatch.setattr(suite, "_draw_monotone_image", lambda rule, choices, rng: None)
    assert suite._endo_images(suite._Case(ANTICHAIN_4)) == []
    report = prop_functor_laws(ANTICHAIN_4)
    assert (report.verdict, report.witness) == (FAIL, expected)
    assert replay(report) == report


def endo_images_by_fresh_rules(poset, payload):
    """The images ``functor-laws`` pairs on four or more elements, drawn
    by one ``random_monotone_map`` call, on a fresh rule, per draw."""
    rng = random.Random(zlib.crc32(instance_text(payload).encode()))
    images, attempts = [], 0
    while len(images) < suite.SAMPLED_MAPS and attempts < 50 * suite.SAMPLED_MAPS:
        attempts += 1
        drawn = random_monotone_map(poset, poset, rng)
        if drawn is not None:
            images.append(drawn.image)
    return list(dict.fromkeys(images))


def test_endo_images_are_the_fresh_rule_draws():
    """On every labeled 4-element poset and every fifth 5-element one,
    the draws on one rule, with its choice table kept, are the images
    that a fresh rule per draw gives, dead ends included."""
    dead_ends = 0
    for poset in all_posets(4) + all_posets(5)[::5]:
        payload = document_of_poset(poset).to_payload()
        images = suite._endo_images(suite._Case(payload))
        assert images == endo_images_by_fresh_rules(poset, payload)
        dead_ends += len(images) < suite.SAMPLED_MAPS
    assert dead_ends


@pytest.mark.parametrize(
    "name", ["zariski-equals-vietoris", "lift-round-trip", "functor-laws"])
def test_property_reads_the_capacity_once(monkeypatch, name):
    """The default capacity is resolved once per property and passed to
    every build and induced map it makes."""
    reads = []

    def counting(value):
        reads.append(value)
        return resolve_capacity(value)

    for module in (suite, maps, powerdomain):
        monkeypatch.setattr(module, "resolve_capacity", counting)
    payload = document_of_poset(vee_poset()).to_payload()
    assert PROPERTIES[name](payload).verdict == PASS
    assert reads.count(None) == 1


@pytest.mark.parametrize("corrupted, lifted_image, law", [
    ((0, 1), (1, 1, 1), "induced-map-is-an-extension"),
    ((0, 0), (0, 0, 1), "pointwise-least"),
])
def test_extension_minimality_failure_witness(monkeypatch, corrupted, lifted_image, law):
    """With the lifted map of one map into the two-element chain corrupted,
    the suite files the law's violation on the payload and names that
    map's image as ``map``."""
    chain2 = chain(2)

    def corrupting(original):
        def lift(source_space, target_space, image):
            lifted = original(source_space, target_space, image)
            if target_space.base != chain2 or image != corrupted:
                return lifted
            return lifted_image
        return lift

    patch_lift(monkeypatch, corrupting)
    payload = {"n": 2, "covers": []}
    report = prop_extension_minimality(payload)
    assert (report.property, report.verdict) == ("extension-minimality", FAIL)
    assert report.instance == instance_text(payload)
    assert report.witness["law"] == law
    assert report.witness["instance"] == payload
    assert report.witness["map"] == list(corrupted)
    assert replay(report) == report


@pytest.mark.parametrize("name, patched, mutant, payload, law", [
    ("sup-extension-of-embedding", "preserves_sups",
     lambda space, f: False, {"n": 3, "covers": []}, "sup-preserving"),
])
def test_rebound_failures_replay_their_own_property(
    monkeypatch, name, patched, mutant, payload, law
):
    """A failure of a ``check_sigma_theorem`` law inside another property
    is filed under that property, so replaying it runs that property."""
    monkeypatch.setattr(completion, patched, mutant)
    report = PROPERTIES[name](payload)
    assert (report.property, report.verdict, report.witness["law"]) == (name, FAIL, law)
    assert report.witness["instance"] == payload
    again = replay(report)
    assert (again.property, again.verdict, again.witness["law"]) == (name, FAIL, law)


def test_sup_extension_of_embedding_computes_sharp_once(monkeypatch):
    """On every labeled poset with at most three elements,
    ``sup-extension-of-embedding`` computes the sup extension once and
    checks every law on that one."""
    calls = []
    original = completion.lambda_sharp

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(completion, "lambda_sharp", counting)
    monkeypatch.setattr(suite, "lambda_sharp", counting)
    for n in range(1, 4):
        for poset in all_posets(n):
            calls.clear()
            report = prop_sup_extension_of_embedding(document_of_poset(poset).to_payload())
            assert (report.verdict, len(calls)) == (PASS, 1)


@pytest.mark.parametrize("prop", SUITE_GROUPS["sigma"])
def test_passing_sigma_properties_serialize_no_poset(monkeypatch, prop):
    """A passing sigma property renders no poset: it reads no covers."""
    payloads = (CHAIN_2, document_of_poset(diamond_poset()).to_payload())
    read = []
    original = FinitePoset.cover_pairs

    def counting(poset):
        read.append(poset)
        return original(poset)

    monkeypatch.setattr(FinitePoset, "cover_pairs", counting)
    for payload in payloads:
        assert PROPERTIES[prop](payload).verdict == PASS
    assert read == []


def constant_sharp(original):
    """The sup extension replaced by the constant map at the top."""
    def sharp(f):
        top = f.target.n - 1
        order = build(f.source).order
        return MonotoneMap(order, f.target, (top,) * order.n)
    return sharp


def with_phi_index(rearrange):
    """A build whose principal points are rearranged."""
    def mutant(original):
        def build_rearranged(poset, capacity=None):
            space = original(poset, capacity)
            return PowerdomainSpace(space.base, space.points, space.order,
                                    rearrange(space.phi_index))
        return build_rearranged
    return mutant


def without_full_set(original):
    """A build that loses the full down-set."""
    def build_short(poset, capacity=None):
        return powerdomain._assemble(poset, original(poset, capacity).points[:-1])
    return build_short


def dropping_a_cover(original):
    """A build whose order's last point loses its lowest lower cover."""
    def build_thin(poset, capacity=None):
        space = original(poset, capacity)
        o = space.order
        order = FinitePoset(o.n, o.up, o.down, o.labels)
        covers = list(order.lower_covers)
        covers[-1] &= covers[-1] - 1
        order.__dict__["lower_covers"] = tuple(covers)
        return PowerdomainSpace(space.base, space.points, order, space.phi_index)
    return build_thin


def over_the_whole_order(original):
    """A down-set enumeration that drops its carrier: the extensions into
    the two-element chain are counted past the anchors' bounds."""
    def enumerate_all(poset, carrier, limit):
        return original(poset, poset.full, limit)
    return enumerate_all


def enumerating_none(original):
    """A down-set enumeration that finds nothing: no extension at all."""
    return lambda poset, carrier, limit: []


def suite_check(name, payload):
    return functools.partial(PROPERTIES[name], payload)


VEE = {"n": 3, "covers": [[0, 2], [1, 2]]}
CHAIN_2 = {"n": 2, "covers": [[0, 1]]}
ANTICHAIN_2 = {"n": 2, "covers": []}
ANTICHAIN_3 = {"n": 3, "covers": []}
ANTICHAIN_4 = {"n": 4, "covers": []}
ANTICHAIN_5 = {"n": 5, "covers": []}
# The vee 2, 3 < 4 and the points 0 and 1, all under the top 5.  The map
# that sends only the top to 1 leaves 13 points of the powerdomain
# between its anchors' bounds: 2 ** 13 zero sets may be more than the
# shipped minimality capacity, so the chain route counts its extensions.
UNDER_A_TOP = {"n": 6, "covers": [[0, 5], [1, 5], [2, 4], [3, 4], [4, 5]]}
# The 4-element antichain under a top: 11 points between the bounds of
# the map that sends only the top to 1, so a capacity below 2 ** 11
# makes the chain route count its extensions.
FAN_4 = {"n": 5, "covers": [[0, 4], [1, 4], [2, 4], [3, 4]]}
UNDER_A_TOP_RELATIONS = {**UNDER_A_TOP, "covers": UNDER_A_TOP["covers"] + [[2, 5], [3, 5]]}


@pytest.mark.parametrize("module, name, mutant, check, law", [
    (suite, "dimension", lambda original: lambda poset: original(poset) + 1,
     suite_check("powerdomain-dimension", VEE), "n-minus-one"),
    (suite, "build", with_phi_index(lambda phi: phi[::-1]),
     suite_check("phi-onto-iff-chain", CHAIN_2), "onto-gives-isomorphism"),
    (suite, "hat_powerdomain", lambda original: lambda poset, capacity=None: build(poset),
     suite_check("zariski-equals-vietoris", VEE), "empty-open-bottom"),
    (suite, "_lift", constant_lift,
     suite_check("lift-round-trip", ANTICHAIN_3), "induced-map-is-isomorphism"),
    (suite, "lift_homeomorphism",
     lambda original: lambda source, target, psi: MonotoneMap(
         source.base, target.base, tuple(range(source.base.n))),
     suite_check("lift-round-trip", ANTICHAIN_3), "lift-after-induce"),
    (suite, "build", with_phi_index(lambda phi: (phi[0],) * len(phi)),
     suite_check("embedding-theorem", ANTICHAIN_2), "order-embedding"),
    (suite, "build", with_phi_index(lambda phi: phi[::-1]),
     suite_check("embedding-theorem", ANTICHAIN_2), "basic-open-pullback"),
    (suite, "build", without_full_set,
     suite_check("embedding-theorem", ANTICHAIN_2), "unique-maximal-point"),
    (completion, "preserves_sups", lambda original: lambda space, f: False,
     suite_check("sup-extension-of-embedding", ANTICHAIN_4), "sup-preserving"),
    (maps, "_lift", greatest_extension_lift,
     suite_check("extension-minimality", VEE), "pointwise-least"),
    (maps, "_lift", lift_without_closure,
     suite_check("extension-minimality", VEE), "induced-map-is-an-extension"),
    (suite, "poset_of_topology", lambda original: lambda *args: order_dual(original(*args)),
     suite_check("topology-round-trip", VEE), "recovers-order"),
    (suite, "is_phi_surjective", lambda original: lambda space: True,
     suite_check("phi-onto-iff-chain", VEE), "onto-iff-chain"),
    (suite, "_points_below", lambda original: lambda space, omega: 0,
     suite_check("zariski-equals-vietoris", VEE), "opens-agree"),
    (suite, "build", dropping_a_cover,
     suite_check("embedding-theorem", ANTICHAIN_2), "principal-iff-join-irreducible"),
    (suite, "lambda_sharp", constant_sharp,
     suite_check("sup-extension-of-embedding", ANTICHAIN_2), "sharp-is-identity"),
    (suite, "build", with_phi_index(lambda phi: tuple(i + 1 for i in phi)),
     suite_check("lift-round-trip", ANTICHAIN_3), "principal-to-principal"),
    (completion, "_sups", lambda original: lambda target, rows, masks: [
        target.n - 1 - found for found in original(target, rows, masks)],
     suite_check("sup-extension", CHAIN_2), "restricts-to-base"),
    (completion, "_sups", no_joins,
     suite_check("sup-extension-of-embedding", ANTICHAIN_2), "sharp-is-defined"),
    # injective, and monotone since an antichain has no covers, but
    # {0} <= {0, 1} in the space: only the pair count catches it
    (suite, "build", with_phi_index(lambda phi: (phi[0], 2)),
     suite_check("embedding-theorem", ANTICHAIN_2), "order-embedding"),
])
def test_every_law_can_fail(monkeypatch, module, name, mutant, check, law):
    """One seeded defect per law, each caught by its own law; a suite
    property's failure replays to the same report."""
    assert check().verdict == PASS
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    report = check()
    assert (report.verdict, report.witness["law"]) == (FAIL, law)
    assert replay(report) == report


def meeting_basic_open(space, omega):
    """The mutant basic open: the points that meet ``omega`` instead of
    lying inside it, as a mask of point indices."""
    return mask_of(i for i, member in enumerate(space.points) if member & omega)


def test_zariski_equals_vietoris_catches_meeting_basic_opens(monkeypatch):
    """Every labeled poset on up to 3 elements and two larger bases: with
    the mutant in place, ``opens-agree`` fails exactly where the mutant
    first differs from the order's down rows over the hat space's points,
    and names that open and both point lists."""
    bases = [p for n in range(1, 4) for p in all_posets(n)]
    bases += [boolean_lattice(2), random_poset(6, 3)]
    monkeypatch.setattr(suite, "_points_inside", meeting_basic_open)
    caught = 0
    for base in bases:
        space = build(base)
        expected = next(
            (omega for omega in hat_powerdomain(base).points
             if meeting_basic_open(space, omega) != powerdomain._points_below(space, omega)),
            None)
        report = PROPERTIES["zariski-equals-vietoris"](document_of_poset(base).to_payload())
        assert report.verdict == FAIL
        if expected is None:
            assert report.witness["law"] != "opens-agree"
        else:
            assert report.witness["law"] == "opens-agree"
            assert report.witness["open"] == expected
            assert report.witness["direct"] == list(
                iter_bits(meeting_basic_open(space, expected)))
            assert report.witness["via_order"] == sorted(
                powerdomain.vietoris_open(space, expected))
            caught += 1
    # only on the one-element poset do the mutant and the order agree
    assert caught == len(bases) - 1


def test_zariski_equals_vietoris_meeting_basic_opens_on_vee(monkeypatch):
    # the open {a1} holds only the point {a1}, but the points {a1},
    # {a1,a2} and {a1,a2,b} meet it
    monkeypatch.setattr(suite, "_points_inside", meeting_basic_open)
    witness = PROPERTIES["zariski-equals-vietoris"](VEE).witness
    assert (witness["law"], witness["open"], witness["direct"], witness["via_order"]) == (
        "opens-agree", 1, [0, 2, 3], [0])


# generating relations that are not covers: a document rendered from
# the parsed poset would differ from this payload
CHAIN_3_RELATIONS = {"n": 3, "covers": [[0, 1], [1, 2], [0, 2]]}


REBOUND_MUTANTS = {
    "embedding-theorem": (suite, "build", with_phi_index(lambda phi: (phi[0],) * len(phi))),
    "functor-laws": (maps, "_lift", constant_lift),
    "extension-minimality": (maps, "_lift", constant_lift),
    "sup-extension": (completion, "preserves_sups", lambda original: lambda space, f: False),
    "sup-extension-of-embedding": (
        completion, "preserves_sups", lambda original: lambda space, f: False),
}


@pytest.mark.parametrize("prop", REBOUND_MUTANTS)
def test_rebound_failures_report_the_payload(monkeypatch, prop):
    """A failure filed from a law's violation names the payload as its
    instance, as every other report on that payload does."""
    module, name, mutant = REBOUND_MUTANTS[prop]
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    report = PROPERTIES[prop](CHAIN_3_RELATIONS)
    assert (report.property, report.verdict) == (prop, FAIL)
    assert report.instance == instance_text(CHAIN_3_RELATIONS)
    assert report.witness["instance"] == CHAIN_3_RELATIONS


@pytest.mark.parametrize("mutant, payload, capacity, before, after", [
    (over_the_whole_order, FAN_4, 128, PASS, SKIPPED),
    (enumerating_none, ANTICHAIN_5, suite.MINIMALITY_CAPACITY, SKIPPED, PASS),
    (over_the_whole_order, UNDER_A_TOP_RELATIONS, 128, PASS, SKIPPED),
    (enumerating_none, UNDER_A_TOP_RELATIONS, 64, SKIPPED, PASS),
], ids=["fan-4-at-capacity-128-over_the_whole_order", "antichain-5-enumerating_none",
        "under-a-top-relations-at-capacity-128-over_the_whole_order",
        "under-a-top-relations-at-capacity-64-enumerating_none"])
def test_minimality_count_defects_flip_the_verdict(
    monkeypatch, mutant, payload, capacity, before, after
):
    """The chain route lists down-sets only to count the extensions of a
    certified map against the budget, so a seeded defect of that listing
    names no law: it moves the verdict between pass and skip.  A map of
    ``FAN_4`` has at most 114 extensions and its whole order 168
    down-sets; ``UNDER_A_TOP_RELATIONS`` is given by relations, not
    covers."""
    monkeypatch.setattr(suite, "MINIMALITY_CAPACITY", capacity)
    assert PROPERTIES["extension-minimality"](payload).verdict == before
    monkeypatch.setattr(maps, "_down_sets_by_extension", mutant(maps._down_sets_by_extension))
    report = PROPERTIES["extension-minimality"](payload)
    assert report.verdict == after
    if after == SKIPPED:
        assert report.reason == f"enumeration over budget: more than {capacity} anchored extensions"


@pytest.mark.parametrize("lift", [None, constant_lift, lift_without_closure,
                                  greatest_extension_lift])
def test_minimality_count_path_matches_the_search(monkeypatch, lift):
    """Every map into the chain from ``FAN_4`` and ``UNDER_A_TOP``, at
    capacities on both sides of their extension counts: the route that
    certifies and counts gives the dict of the search over image tuples,
    or raises its CapacityError text, under the real lift and seeded
    wrong ones.  The capacity bounds only a certified map, one the search
    passes: a map it fails is judged against its sup extension, which
    gives the search's dict at the default capacity."""
    if lift is not None:
        patch_lift(monkeypatch, lift)
    chain2 = suite.CHAIN2
    outcomes = Counter()
    for payload in (FAN_4, UNDER_A_TOP):
        poset = FinitePoset.from_cover_relations(payload["n"], payload["covers"])
        for image in all_monotone_images(poset, chain2):
            f = MonotoneMap(poset, chain2, image)
            for capacity in (16, 64, 128, 1024, 4096):
                try:
                    expected = minimality_by_search(f, capacity)
                except CapacityError as exc:
                    expected = minimality_by_search(f)
                    if expected is None:
                        with pytest.raises(CapacityError) as raised:
                            maps.check_minimality(f, capacity)
                        assert str(raised.value) == str(exc)
                        outcomes["over budget"] += 1
                        continue
                    outcomes["judged over budget"] += 1
                assert maps.check_minimality(f, capacity) == expected, (image, capacity)
                outcomes[None if expected is None else expected["law"]] += 1
    assert outcomes["over budget"] + outcomes["judged over budget"] == 6
    if lift is None:
        assert set(outcomes) == {None, "over budget"}
    else:
        assert outcomes.keys() - {None, "over budget", "judged over budget"}


def test_chain_maps_are_the_monotone_images():
    """The maps into the two-element chain read off the points are the
    images ``all_monotone_images`` finds, in its order, on every labeled
    poset with at most 4 elements and on the posets of
    ``random:60:9:2024``."""
    bases = [p for n in range(1, 5) for p in all_posets(n)]
    bases += [random_poset(1 + k % 9, 2024 + k) for k in range(60)]
    for base in bases:
        assert suite._chain_images(build(base)) == list(
            all_monotone_images(base, suite.CHAIN2))


@pytest.mark.parametrize("payload, first_failing", [
    (ANTICHAIN_2, [0, 1]), (VEE, [0, 1, 1]), (ANTICHAIN_3, [0, 0, 1]),
], ids=["antichain-2", "vee", "antichain-3"])
def test_minimality_certificate_fails_a_lift_without_down_closure(
    monkeypatch, payload, first_failing
):
    """On these payloads the mask certificate passes every map into the
    chain with no extension searched; with the lift's down closure left
    out, it fails, and the judge against the sup extension names the law
    of the first failing map, still with no extension searched."""
    listed = []
    search = maps.anchored_extensions

    def recording(source_order, anchors, target, capacity=None):
        listed.append(anchors)
        return search(source_order, anchors, target, capacity)

    monkeypatch.setattr(maps, "anchored_extensions", recording)
    assert PROPERTIES["extension-minimality"](payload).verdict == PASS
    assert listed == []
    patch_lift(monkeypatch, lift_without_closure)
    report = PROPERTIES["extension-minimality"](payload)
    assert (report.verdict, report.witness["law"], report.witness["map"]) == (
        FAIL, "induced-map-is-an-extension", first_failing)
    assert listed == []
    assert replay(report) == report


def test_one_build_per_powerdomain(monkeypatch):
    """Over ``exhaustive-3``, with the build and lift caches empty, each
    powerdomain is built once: a check's own search budget does not key a
    second copy of a space."""
    built = []
    uncached = powerdomain._build.__wrapped__

    @functools.lru_cache(maxsize=None)
    def recording(base, include_empty, capacity):
        built.append((base, include_empty))
        return uncached(base, include_empty, capacity)

    monkeypatch.setattr(powerdomain, "_build", recording)
    monkeypatch.setattr(maps, "_powerdomain_map",
                        functools.lru_cache(maxsize=None)(maps._powerdomain_map.__wrapped__))
    run_suite("exhaustive-3")
    assert built
    assert recording.cache_info().misses == len(set(built))


def rebuilds(monkeypatch, maxsize):
    """Run ``fixtures`` and ``exhaustive-3``, each from empty lift and
    construction caches, the construction cache keeping ``maxsize``
    spaces.  Returns the rebuilds of each ``(scope, payload, key)`` built
    more than once within one payload's properties, and the builds of
    ``CHAIN2``'s space in each scope."""
    payload_of = [None]
    built = []
    uncached = powerdomain._build.__wrapped__

    def recording(*key):
        built.append((payload_of[0], key))
        return uncached(*key)

    for name, prop in list(PROPERTIES.items()):
        def tagged(payload, prop=prop):
            payload_of[0] = instance_text(payload)
            return prop(payload)
        monkeypatch.setitem(PROPERTIES, name, tagged)
    chain2 = (suite.CHAIN2, False, resolve_capacity(None))
    repeated, chain2_builds = {}, []
    for scope in ("fixtures", "exhaustive-3"):
        built.clear()
        monkeypatch.setattr(powerdomain, "_build",
                            functools.lru_cache(maxsize=maxsize)(recording))
        monkeypatch.setattr(maps, "_powerdomain_map", functools.lru_cache(
            maxsize=maps._powerdomain_map.cache_info().maxsize)(
                maps._powerdomain_map.__wrapped__))
        run_suite(scope)
        repeated.update({(scope, *entry): count - 1
                         for entry, count in Counter(built).items() if count > 1})
        chain2_builds.append(sum(key == chain2 for _, key in built))
    return repeated, chain2_builds


def test_the_construction_cache_holds_each_payloads_spaces(monkeypatch):
    """With the shipped bound, no space is built twice for one payload,
    and the Sierpinski chain that ``extension-minimality`` maps into,
    read on every payload, is built once per scope."""
    repeated, chain2_builds = rebuilds(monkeypatch, powerdomain._build.cache_info().maxsize)
    assert repeated == {}
    assert chain2_builds == [1, 1]


def test_a_one_space_cache_rebuilds_within_a_payload(monkeypatch):
    """The working-set check is not vacuous: a cache of one space
    rebuilds spaces within a payload and the chain on every payload."""
    repeated, chain2_builds = rebuilds(monkeypatch, 1)
    assert sum(repeated.values()) > 100
    assert min(chain2_builds) > 1


def test_a_scope_leaves_at_most_the_cached_spaces_alive():
    """After ``exhaustive-4``, no more spaces are alive than the
    construction cache holds, and a space built before the scope, that
    nothing else holds, is gone."""
    earlier = weakref.ref(build(antichain(6)))
    run_suite("exhaustive-4")
    gc.collect()
    alive = [obj for obj in gc.get_objects() if isinstance(obj, PowerdomainSpace)]
    assert len(alive) <= powerdomain._build.cache_info().maxsize
    assert earlier() is None


def test_a_scope_leaves_at_most_the_cached_orders_alive():
    """After ``exhaustive-4``, from a cleared lift cache, no more of the
    inclusion orders it made are alive than the construction cache holds
    spaces: no lift the suite makes outlives the space it was made on.
    Orders alive before the scope, which other tests hold, are held here
    too, so their ids stay theirs."""
    def orders():
        gc.collect()
        return {id(obj): obj for obj in gc.get_objects()
                if isinstance(obj, powerdomain._InclusionOrder)}

    maps._powerdomain_map.cache_clear()
    before = orders()
    run_suite("exhaustive-4")
    made = [order for key, order in orders().items() if key not in before]
    assert len(made) <= powerdomain._build.cache_info().maxsize


def test_cached_lifts_stay_on_cached_spaces(monkeypatch):
    """Over ``random:60:5:1``, whose small posets recur, no two distinct
    inclusion orders are compared, under the shipped construction cache
    or one of a single space: every lift is made on the spaces its
    property holds, so equal orders are the same object.  Each such
    comparison would build both orders' rows; when lifts came from the
    lift cache, a cache of 12 spaces made 15 of them."""
    compared = []
    equal = FinitePoset.__eq__

    def recording(left, right):
        if left is not right and all(isinstance(order, powerdomain._InclusionOrder)
                                     for order in (left, right)):
            compared.append((left, right))
        return equal(left, right)

    monkeypatch.setattr(FinitePoset, "__eq__", recording)
    for maxsize in (powerdomain._build.cache_info().maxsize, 1):
        monkeypatch.setattr(powerdomain, "_build", functools.lru_cache(
            maxsize=maxsize)(powerdomain._build.__wrapped__))
        monkeypatch.setattr(maps, "_powerdomain_map", functools.lru_cache(
            maxsize=maps._powerdomain_map.cache_info().maxsize)(maps._powerdomain_map.__wrapped__))
        run_suite("random:60:5:1")
    assert compared == []


def test_suites_search_no_isomorphism(monkeypatch):
    """Over ``fixtures`` and ``exhaustive-3``, no property calls
    ``find_isomorphism``, wherever a module of the package binds it:
    ``onto-gives-isomorphism`` checks ``phi`` itself."""
    search = sys.modules["smyth.poset"].find_isomorphism
    calls = []

    def counting(left, right):
        calls.append((left, right))
        return search(left, right)

    binders = [module for name, module in sorted(sys.modules.items())
               if (name == "smyth" or name.startswith("smyth."))
               and getattr(module, "find_isomorphism", None) is search]
    assert {module.__name__ for module in binders} >= {"smyth", "smyth.poset"}
    for module in binders:
        monkeypatch.setattr(module, "find_isomorphism", counting)
    run_suite("fixtures")
    run_suite("exhaustive-3")
    assert calls == []


@pytest.mark.parametrize("prop", ["lift-round-trip", "zariski-equals-vietoris"])
def test_property_passes_on_a_4607_point_space(prop):
    """13 elements with two covers: 3 * 3 * 2**9 - 1 points, and the
    rotation is not an automorphism of the base."""
    payload = {"n": 13, "covers": [[0, 1], [2, 5]]}
    assert len(build(suite._Case(payload).poset).points) == 4607
    report = PROPERTIES[prop](payload)
    assert report.verdict == PASS


def test_bounded_lift_cache_loses_no_reuse(monkeypatch):
    """Over ``check_functor_laws`` on every pair of endomaps of every
    labeled 3-element poset, from an empty cache, the bounded lift cache
    evicts, yet hits and misses exactly as an unbounded one over the same
    function does."""
    bounded = maps._powerdomain_map
    assert isinstance(bounded.cache_info().maxsize, int)
    unbounded = functools.lru_cache(maxsize=None)(bounded.__wrapped__)
    endomaps = [[maps._made(poset, poset, image) for image in all_monotone_images(poset, poset)]
                for poset in all_posets(3)]
    counts = []
    for cached in (bounded, unbounded):
        monkeypatch.setattr(maps, "_powerdomain_map", cached)
        cached.cache_clear()
        for same_poset in endomaps:
            for f in same_poset:
                for g in same_poset:
                    assert check_functor_laws(f, g) is None
        info = cached.cache_info()
        counts.append((info.hits, info.misses))
    assert counts[0][1] > bounded.cache_info().maxsize
    assert counts[0] == counts[1]


def test_the_suite_reads_no_lift_cache():
    """``exhaustive-3`` lifts on the spaces each property holds: from a
    cleared lift cache it makes no lookup there."""
    maps._powerdomain_map.cache_clear()
    run_suite("exhaustive-3")
    info = maps._powerdomain_map.cache_info()
    assert (info.hits, info.misses) == (0, 0)


@pytest.mark.parametrize("name, law", [
    ("functor-laws", "identity"),
    ("extension-minimality", "induced-map-is-an-extension"),
    ("lift-round-trip", "induced-map-is-isomorphism"),
])
def test_a_lift_defect_is_filed_as_a_failure(lift_defect, name, law):
    """A wrong lift reaches the law that certifies it, fails there on the
    payload, and replays."""
    report = PROPERTIES[name](FIXTURE_DOCS[0])
    assert (report.verdict, report.witness["law"]) == (FAIL, law)
    assert report.witness["instance"] == FIXTURE_DOCS[0]
    assert replay(report) == report


@pytest.mark.parametrize("scope, digest, count", PINNED_SCOPES)
def test_derived_maps_are_monotone(monkeypatch, scope, digest, count):
    """Every map the package derives passes the validating constructor's
    range and cover checks, and checking them moves no report."""
    made = maps._made
    rejected = []

    def checking(source, target, image):
        try:
            MonotoneMap(source, target, image)
        except (RangeError, NotSpectralError) as exc:
            rejected.append((image, str(exc)))
        return made(source, target, image)

    importers = [module for name, module in sorted(sys.modules.items())
                 if name.startswith("smyth.") and getattr(module, "_made", None) is made]
    assert {module.__name__ for module in importers} >= {
        "smyth.maps", "smyth.generators", "smyth.completion", "smyth.suite"}
    for module in importers:
        monkeypatch.setattr(module, "_made", checking)
    maps._powerdomain_map.cache_clear()
    reports = run_suite(scope)
    maps._powerdomain_map.cache_clear()
    assert rejected == []
    text = "\n".join(r.to_json() for r in reports)
    assert (hashlib.sha256(text.encode()).hexdigest()[:16], len(reports)) == (
        digest, count
    )
