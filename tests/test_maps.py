"""Monotone maps, the induced powerdomain map, extensions, lifting."""

import pytest
from hypothesis import given, strategies as st

from smyth import (
    CapacityError,
    CompositionMismatchError,
    FinitePoset,
    MonotoneMap,
    NotIsomorphismError,
    NotSpectralError,
    RangeError,
    build,
    check_functor_laws,
    check_minimality,
    compose,
    down_closure,
    enumerate_down_sets,
    enumerate_extensions,
    identity,
    lift_homeomorphism,
    powerdomain_map,
)
from smyth import maps, powerdomain
from smyth.generators import all_monotone_images, all_posets, random_monotone_map, random_poset
from smyth.maps import anchored_extensions, is_order_isomorphism
from smyth.poset import (
    _monotonicity_violation,
    find_isomorphism,
    iter_bits,
    relabel,
    resolve_capacity,
)

from conftest import (
    anchored_images,
    antichain,
    chain,
    constant_lift,
    greatest_extension_lift,
    induced,
    is_order_isomorphism_by_pairs,
    is_spectral,
    lift_without_closure,
    minimality_by_search,
    monotonicity_violation_by_pairs,
    patch_lift,
    posets,
    powerdomain_image_by_closure,
    powerdomain_image_by_member_fold,
    subsets,
    vee_poset,
)

import random
import time
from collections import Counter
from itertools import permutations, product


def worked_map():
    vee = vee_poset()
    chain2 = chain(2)
    return MonotoneMap(vee, chain2, (0, 0, 1))


def test_monotone_validation(vee, chain2):
    MonotoneMap(vee, chain2, (0, 0, 1))
    with pytest.raises(NotSpectralError):
        MonotoneMap(chain2, chain2, (1, 0))
    with pytest.raises(RangeError):
        MonotoneMap(vee, chain2, (0, 0))
    with pytest.raises(RangeError):
        MonotoneMap(vee, chain2, (0, 0, 2))


@pytest.mark.parametrize("labels", [None, ["c1", "c2"]])
def test_entry_constructors_store_tuples(labels):
    """Rows, labels and an image given as lists are stored as tuples, so
    the poset builds and the map lifts as their tuple-built twins do."""
    poset = FinitePoset(2, [3, 2], [1, 3], labels)
    twin = FinitePoset(2, (3, 2), (1, 3), None if labels is None else tuple(labels))
    assert poset == twin and hash(poset) == hash(twin)
    assert build(poset).points == build(twin).points
    f = MonotoneMap(poset, poset, [0, 1])
    assert f == MonotoneMap(twin, twin, (0, 1))
    assert powerdomain_map(f) == powerdomain_map(MonotoneMap(twin, twin, (0, 1)))


def test_unchecked_escape_hatch(chain2):
    bad = maps._made(chain2, chain2, (1, 0))
    assert bad.image == (1, 0)
    assert not is_spectral(bad)


def test_call_and_image_mask(vee, chain2):
    f = worked_map()
    assert f(0) == 0 and f(2) == 1
    assert f.image_mask(0b101) == 0b11
    assert f.image_mask(0b011) == 0b01


def test_identity_and_compose(vee):
    f = worked_map()
    assert compose(f, identity(vee)).image == f.image
    assert compose(identity(f.target), f).image == f.image
    g = MonotoneMap(f.target, vee, (0, 2))
    assert compose(g, f).image == (0, 0, 2)
    with pytest.raises(CompositionMismatchError):
        compose(f, f)


@given(posets(max_n=5))
def test_monotone_maps_are_spectral(poset):
    assert is_spectral(identity(poset))


@given(posets(max_n=4), posets(max_n=4), st.integers(0, 2**31))
def test_random_maps_are_spectral(source, target, seed):
    f = random_monotone_map(source, target, random.Random(seed))
    if f is not None:
        assert is_spectral(f)


def test_powerdomain_map_worked_example():
    f = worked_map()
    lifted = powerdomain_map(f)
    assert lifted.source == build(f.source).order
    assert lifted.target == build(f.target).order
    # point order {a1},{a2},{a1,a2},{a1,a2,b} -> {c1} thrice then {c1,c2}
    assert lifted.image == (0, 0, 0, 1)


@given(posets(max_n=4), st.integers(0, 2**31))
def test_powerdomain_map_is_down_closed_image(source, seed):
    rng = random.Random(seed)
    target = random_poset(1 + seed % 4, seed)
    f = random_monotone_map(source, target, rng)
    if f is None:
        return
    src_space, dst_space = build(source), build(target)
    lifted = powerdomain_map(f)
    for i, mask in enumerate(src_space.points):
        expected = down_closure(target, f.image_mask(mask))
        assert dst_space.points[lifted.image[i]] == expected


def test_lifted_map_matches_down_closure():
    """The row fold gives each point the down-closure of its image: every
    monotone map between posets with up to 3 elements, and seeded random
    maps between 5-element posets."""
    small = [p for n in range(1, 4) for p in all_posets(n)]
    cases = [
        MonotoneMap(source, target, image)
        for source in small
        for target in small
        for image in anchored_extensions(source, {}, target)
    ]
    rng = random.Random(13)
    five = all_posets(5)
    while len(cases) < 6000:
        f = random_monotone_map(rng.choice(five), rng.choice(five), rng)
        if f is not None:
            cases.append(f)
    for f in cases:
        assert powerdomain_map(f).image == powerdomain_image_by_closure(f)


def test_lift_matches_member_fold():
    """The walk from parent points ORs one down row per point; the fold
    ORs one per member of every point.  They agree on every monotone map
    between labeled posets with up to 3 elements."""
    small = [p for n in range(1, 4) for p in all_posets(n)]
    count = 0
    for source in small:
        for target in small:
            for image in anchored_extensions(source, {}, target):
                f = MonotoneMap(source, target, image)
                assert powerdomain_map(f).image == powerdomain_image_by_member_fold(f)
                count += 1
    assert count == 4818


def test_lift_matches_both_oracles_on_the_largest_five_element_spaces():
    """Parents past index 20 exist only in large spaces, which the tests
    above reach through a few random maps.  Here every labeled 5-element
    poset with more than 20 points (23 or 31) lifts every map into the
    two-element chain and three seeded maps into random 5-element
    targets, and each lift matches both oracles."""
    five = all_posets(5)
    large = [p for p in five if len(enumerate_down_sets(p, False)) > 20]
    assert len(large) == 21
    assert {len(build(p).points) for p in large} == {23, 31}
    chain2 = chain(2)
    rng = random.Random(5)
    cases = []
    for source in large:
        cases.extend(MonotoneMap(source, chain2, image)
                     for image in anchored_extensions(source, {}, chain2))
        drawn = 0
        while drawn < 3:
            f = random_monotone_map(source, rng.choice(five), rng)
            if f is not None:
                cases.append(f)
                drawn += 1
    assert len(cases) == 575
    for f in cases:
        lifted = powerdomain_map(f).image
        assert lifted == powerdomain_image_by_closure(f)
        assert lifted == powerdomain_image_by_member_fold(f)


def test_capacity_is_read_on_every_check(monkeypatch):
    """``SPECTRAL_CAPACITY`` set or cleared mid-process takes effect on the
    next check: nothing caches the variable."""
    monkeypatch.delenv("SPECTRAL_CAPACITY", raising=False)
    poset = antichain(3)
    endomaps = [MonotoneMap(poset, poset, image)
                for image in anchored_extensions(poset, {}, poset)]
    pairs = [(f, g) for f in endomaps[:5] for g in endomaps[-5:]]
    assert all(check_functor_laws(f, g) is None for f, g in pairs)
    monkeypatch.setenv("SPECTRAL_CAPACITY", "3")
    for f, g in pairs:
        with pytest.raises(CapacityError):
            check_functor_laws(f, g)
    monkeypatch.delenv("SPECTRAL_CAPACITY")
    assert all(check_functor_laws(f, g) is None for f, g in pairs)


def test_powerdomain_map_memoized():
    assert powerdomain_map(worked_map()) is powerdomain_map(worked_map())


@given(subsets(max_n=5))
def test_powerdomain_map_of_embedding_is_embedding(case):
    # the induced map of a subposet inclusion reflects order both ways
    poset, mask = case
    sub, elements = induced(poset, mask | 1)
    inclusion = MonotoneMap(sub, poset, elements)
    lifted = powerdomain_map(inclusion)
    for i in range(lifted.source.n):
        for j in range(lifted.source.n):
            assert lifted.source.leq(i, j) == lifted.target.leq(
                lifted.image[i], lifted.image[j]
            )


@given(posets(max_n=3), posets(max_n=3), posets(max_n=3), st.integers(0, 2**31))
def test_functor_laws_random(a, b, c, seed):
    rng = random.Random(seed)
    f = random_monotone_map(a, b, rng)
    g = random_monotone_map(b, c, rng)
    if f is None or g is None:
        return
    assert check_functor_laws(f, g) is None


def test_functor_laws_need_composability(vee, chain2):
    f = worked_map()
    with pytest.raises(CompositionMismatchError):
        check_functor_laws(f, f)


@pytest.mark.parametrize("broken", [0, 1, 2])
def test_identity_law_covers_every_poset(monkeypatch, broken):
    """The identity law is checked on the source, middle and target posets:
    breaking the lifted identity of any one of them fails the law there."""
    trio = (vee_poset(), chain(2), antichain(2))
    f = MonotoneMap(trio[0], trio[1], (0, 0, 1))
    g = MonotoneMap(trio[1], trio[2], (1, 1))

    def breaking(original):
        def lift(source_space, target_space, image):
            lifted = original(source_space, target_space, image)
            h = MonotoneMap(source_space.base, target_space.base, image)
            if h != identity(trio[broken]):
                return lifted
            return lifted[::-1]
        return lift

    assert check_functor_laws(f, g) is None
    patch_lift(monkeypatch, breaking)
    violation = check_functor_laws(f, g)
    assert violation["law"] == "identity"
    assert violation["n"] == trio[broken].n


def test_extensions_worked_example():
    f = worked_map()
    exts = enumerate_extensions(f)
    assert [e.image for e in exts] == [(0, 0, 0, 1), (0, 0, 1, 1)]
    assert exts[0].image == powerdomain_map(f).image
    # the second extension moves {a1,a2} strictly above the induced value
    assert exts[1].image[2] == 1


def test_extensions_are_anchored():
    f = worked_map()
    space = build(f.source)
    target_space = build(f.target)
    lifted = powerdomain_map(f)
    for ext in enumerate_extensions(f):
        for x in range(f.source.n):
            assert ext.image[space.phi_index[x]] == lifted.image[space.phi_index[x]]


def test_minimality_worked_example():
    assert check_minimality(worked_map()) is None


@pytest.mark.parametrize("capacity", [None, 64])
def test_minimality_reads_the_capacity_once(monkeypatch, capacity):
    """The default capacity is resolved once per map and passed to the
    induced map and the extension search alike."""
    reads = []

    def counting(value):
        reads.append(value)
        return resolve_capacity(value)

    monkeypatch.setattr(maps, "resolve_capacity", counting)
    monkeypatch.setattr(powerdomain, "resolve_capacity", counting)
    assert check_minimality(worked_map(), capacity) is None
    assert reads.count(None) == 1


@pytest.mark.parametrize("check", [check_minimality, enumerate_extensions])
def test_extension_checks_reject_a_capacity_before_building(monkeypatch, check):
    """A wrong ``capacity`` raises at entry, before either space is built."""
    builds = []
    real_build = maps.build

    def counting(base, capacity=None):
        builds.append(base)
        return real_build(base, capacity)

    monkeypatch.setattr(maps, "build", counting)
    with pytest.raises(RangeError, match=r"got 2\.5$"):
        check(worked_map(), 2.5)
    assert builds == []


@given(posets(max_n=3), posets(max_n=3), st.integers(0, 2**31))
def test_minimality_random(source, target, seed):
    f = random_monotone_map(source, target, random.Random(seed))
    if f is None:
        return
    assert check_minimality(f) is None


def maps_into_the_chain(max_n):
    """Every monotone map into the two-element chain from every labeled
    poset with up to ``max_n`` elements."""
    chain2 = chain(2)
    return [MonotoneMap(source, chain2, image)
            for n in range(1, max_n + 1) for source in all_posets(n)
            for image in all_monotone_images(source, chain2)]


def maps_between_small_posets(max_n):
    """Every monotone map between labeled posets with up to ``max_n``
    elements, into the two-element chain or any other target."""
    posets_up_to = [p for n in range(1, max_n + 1) for p in all_posets(n)]
    return [MonotoneMap(source, target, image)
            for source in posets_up_to for target in posets_up_to
            for image in all_monotone_images(source, target)]


@pytest.mark.parametrize("lift", [None, constant_lift, lift_without_closure,
                                  greatest_extension_lift])
def test_minimality_into_the_chain_matches_the_search(monkeypatch, lift):
    """Every monotone map into the two-element chain from a labeled poset
    with up to 4 elements, and every map between labeled posets with up
    to 3: the mask certificate and the judge against the sup extension
    return what the search over image tuples returns, witnesses
    included, under the real lift and seeded wrong ones."""
    if lift is not None:
        patch_lift(monkeypatch, lift)
    laws = Counter()
    for maps_of in (maps_into_the_chain(4), maps_between_small_posets(3)):
        for f in maps_of:
            expected = minimality_by_search(f)
            assert check_minimality(f) == expected, (f.source, f.target, f.image)
            laws[None if expected is None else expected["law"]] += 1
    assert sum(laws.values()) == 1788 + 4818
    if lift is None:
        assert laws == {None: 1788 + 4818}
    elif lift is greatest_extension_lift:
        assert laws[None] and laws["pointwise-least"]
    else:
        assert laws["induced-map-is-an-extension"]


def test_minimality_into_the_chain_budget_edge():
    """With ``K`` extensions a capacity of ``K`` passes, and ``K - 1``
    raises what the search raises: the count past the budget, or no
    capacity at all when ``K`` is 1."""
    for f in maps_into_the_chain(4):
        count = len(anchored_images(f))
        assert check_minimality(f, count) is None
        with pytest.raises((CapacityError, RangeError)) as expected:
            minimality_by_search(f, count - 1)
        with pytest.raises(expected.type) as raised:
            check_minimality(f, count - 1)
        assert str(raised.value) == str(expected.value)


def last_extension_lift(original):
    """Each induced map replaced by the last anchored extension in
    image-tuple order: an extension, but not the pointwise-least one
    unless it lies below every other."""
    def lift(source_space, target_space, image):
        f = MonotoneMap(source_space.base, target_space.base, image)
        return max(anchored_images(f))
    return lift


@pytest.mark.parametrize("target, count, off, not_least", [
    (chain(3), 14, 13, 5),
    (vee_poset(), 11, 10, 4),
])
def test_minimality_search_fails_under_a_wrong_lift(monkeypatch, target, count, off,
                                                    not_least):
    """Maps from the vee into a 3-chain or into the vee are judged
    against their sup extensions.  A constant lift is no extension of
    every map but the constant one; the last extension fails
    ``pointwise-least`` wherever a smaller one exists, with the first
    such candidate and point, as the search over image tuples names."""
    fs = [MonotoneMap(vee_poset(), target, image)
          for image in all_monotone_images(vee_poset(), target)]
    assert len(fs) == count
    with monkeypatch.context() as patched:
        patch_lift(patched, constant_lift)
        verdicts = [check_minimality(f) for f in fs]
    assert verdicts.count({"law": "induced-map-is-an-extension"}) == off
    assert verdicts.count(None) == count - off

    patch_lift(monkeypatch, last_extension_lift)
    order = build(target).order
    failed = 0
    for f in fs:
        last, expected = max(anchored_images(f)), None
        for candidate in anchored_images(f):
            point = next((p for p, (a, b) in enumerate(zip(last, candidate))
                          if not order.leq(a, b)), None)
            if point is not None:
                expected = {"law": "pointwise-least", "point": point,
                            "candidate": list(candidate)}
                break
        assert check_minimality(f) == expected
        failed += expected is not None
    assert failed == not_least


def test_functor_laws_fail_composition_under_a_reversing_lift(monkeypatch):
    """A lift that reverses the image of every map but an identity
    breaks composition on 56 of the 121 pairs of endomaps of the vee,
    and the witness is the reversed lifts' composite against the
    reversed lift of the composite."""
    vee = vee_poset()
    original = maps._powerdomain_map

    def reversed_lift(f, capacity):
        lifted = original(f, capacity)
        if f == identity(f.source):
            return lifted
        return maps._made(lifted.source, lifted.target, lifted.image[::-1])

    monkeypatch.setattr(maps, "_powerdomain_map", reversed_lift)
    endomaps = [MonotoneMap(vee, vee, image) for image in all_monotone_images(vee, vee)]
    assert len(endomaps) == 11
    capacity, failed = resolve_capacity(None), 0
    for f in endomaps:
        for g in endomaps:
            lifted_f = reversed_lift(f, capacity).image
            lifted_g = reversed_lift(g, capacity).image
            expected = list(reversed_lift(compose(g, f), capacity).image)
            got = [lifted_g[value] for value in lifted_f]
            violation = check_functor_laws(f, g)
            if expected == got:
                assert violation is None
            else:
                assert violation == {"law": "composition", "expected": expected,
                                     "got": got}
                failed += 1
    assert failed == 56


def test_minimality_searches_nothing_off_the_chain(monkeypatch):
    """Maps into the two-element chain are checked on masks, and a map
    into any other target on its sup extension: neither runs the
    anchored search, so no capacity bounds a map off the chain.  The
    8-element antichain into the 3-chain, whose search lists more than
    2 ** 16 extensions, passes within a second, and the vee into the
    3-chain passes at capacity 1."""
    targets = []
    search = maps.anchored_extensions

    def counting(source_order, anchors, target, capacity=None):
        targets.append(target)
        return search(source_order, anchors, target, capacity)

    monkeypatch.setattr(maps, "anchored_extensions", counting)
    assert check_minimality(worked_map()) is None
    assert targets == []
    vee_map = MonotoneMap(vee_poset(), chain(3), (0, 1, 2))
    assert check_minimality(vee_map) is None
    assert check_minimality(vee_map, 1) is None
    start = time.perf_counter()
    assert check_minimality(MonotoneMap(antichain(8), chain(3), (0, 1, 2, 1, 0, 2, 1, 0))) is None
    assert time.perf_counter() - start < 1
    assert targets == []


def test_anchored_extensions_capacity(vee, chain2):
    f = worked_map()
    with pytest.raises(CapacityError):
        enumerate_extensions(f, capacity=1)


def brute_force_extensions(source, anchors, target):
    """Every image tuple, kept when anchored and monotone.  The slow oracle."""
    return tuple(
        image
        for image in product(range(target.n), repeat=source.n)
        if all(image[a] == v for a, v in anchors.items())
        and all(
            target.leq(image[x], image[y])
            for x in range(source.n)
            for y in iter_bits(source.up[x])
        )
    )


@given(
    posets(max_n=4), posets(max_n=3), st.integers(0, 2**31),
    st.integers(0, 15), st.integers(0, 15),
)
def test_anchored_extensions_match_brute_force(source, target, seed, kept, wild):
    rng = random.Random(seed)
    f = random_monotone_map(source, target, rng)
    consistent = {} if f is None else {
        x: f.image[x] for x in iter_bits(kept & source.full)
    }
    arbitrary = {x: rng.randrange(target.n) for x in iter_bits(wild & source.full)}
    for anchors in (consistent, arbitrary):
        found = anchored_extensions(source, anchors, target)
        assert found == brute_force_extensions(source, anchors, target)
        for image in found:
            assert _monotonicity_violation(source, target, image) is None


def test_anchored_extensions_inconsistent_anchors(vee, chain2):
    assert anchored_extensions(chain2, {0: 1, 1: 0}, chain2) == ()
    # both minimal points sit below the top, which is anchored lower
    assert anchored_extensions(vee, {0: 1, 2: 0}, chain2) == ()
    assert anchored_extensions(vee, {0: 1}, chain2) == ((1, 0, 1), (1, 1, 1))


def test_is_order_isomorphism(vee):
    rotated = relabel(vee, (1, 2, 0))
    f = MonotoneMap(vee, rotated, (1, 2, 0))
    assert is_order_isomorphism(f)
    assert not is_order_isomorphism(worked_map())
    space = build(vee)
    assert not is_order_isomorphism(MonotoneMap(vee, space.order, space.phi_index))
    assert is_order_isomorphism(identity(vee))


def test_is_order_isomorphism_matches_pairwise():
    """From one poset of each isomorphism class with up to 4 elements onto
    every labeled poset of its size: every assignment for up to 3
    elements, every bijection for 4."""
    for n in range(1, 5):
        classes: list = []
        for poset in all_posets(n):
            if all(find_isomorphism(rep, poset) is None for rep in classes):
                classes.append(poset)
        for source in classes:
            for target in all_posets(n):
                images = permutations(range(n)) if n == 4 else product(range(n), repeat=n)
                for image in images:
                    f = maps._made(source, target, image)
                    assert is_order_isomorphism(f) == is_order_isomorphism_by_pairs(f)


def test_cover_monotonicity_matches_pair_scan():
    """Every assignment between posets with up to 3 elements: the per-cover
    check accepts exactly what the pair scan accepts, and any pair it
    returns is comparable in the source with unordered images."""
    small = [p for n in range(1, 4) for p in all_posets(n)]
    for source in small:
        for target in small:
            for image in product(range(target.n), repeat=source.n):
                raw = maps._made(source, target, image)
                violation = _monotonicity_violation(source, target, image)
                assert (violation is None) == (monotonicity_violation_by_pairs(raw) is None)
                if violation is None:
                    MonotoneMap(source, target, image)
                    continue
                x, y = violation
                assert source.leq(x, y) and not target.leq(image[x], image[y])
                with pytest.raises(NotSpectralError):
                    MonotoneMap(source, target, image)


def test_lift_homeomorphism_round_trip(vee):
    rotated = relabel(vee, (1, 2, 0))
    base = MonotoneMap(vee, rotated, (1, 2, 0))
    psi = powerdomain_map(base)
    lifted = lift_homeomorphism(build(vee), build(rotated), psi)
    assert lifted.image == base.image
    assert powerdomain_map(lifted).image == psi.image


def test_lift_rejects_non_isomorphism(vee, chain2):
    f = worked_map()
    psi = powerdomain_map(f)
    with pytest.raises(NotIsomorphismError):
        lift_homeomorphism(build(vee), build(chain2), psi)


def test_lift_rejects_a_monotone_bijection_that_does_not_reflect():
    """The three points of the 2-antichain's powerdomain onto the
    3-chain's, in order: a monotone bijection, but 5 comparable pairs
    against 6."""
    source, target = build(antichain(2)), build(chain(3))
    psi = maps._made(source.order, target.order, (0, 1, 2))
    with pytest.raises(NotIsomorphismError):
        lift_homeomorphism(source, target, psi)


def test_lift_checks_spaces(vee, chain2):
    f = worked_map()
    psi = powerdomain_map(f)
    with pytest.raises(RangeError):
        lift_homeomorphism(build(chain2), build(chain2), psi)


@given(posets(max_n=5), st.randoms(use_true_random=False))
def test_lift_recovers_any_relabeling(poset, rng):
    perm = list(range(poset.n))
    rng.shuffle(perm)
    moved = relabel(poset, tuple(perm))
    base = MonotoneMap(poset, moved, tuple(perm))
    psi = powerdomain_map(base)
    lifted = lift_homeomorphism(build(poset), build(moved), psi)
    assert lifted.image == base.image
