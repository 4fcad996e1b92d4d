"""Sup assignments, the sup extension, and its universal property."""

import pytest
from hypothesis import given, strategies as st

from smyth import (
    CapacityError,
    FinitePoset,
    MonotoneMap,
    RangeError,
    SigmaUndefinedError,
    build,
    check_sigma_theorem,
    enumerate_down_sets,
    enumerate_extensions,
    hat_powerdomain,
    identity,
    is_sup_preserving,
    lambda_sharp,
    powerdomain_map,
    preserves_sups,
    sigma_map,
    sup,
)
from smyth import completion
from smyth.generators import all_monotone_images, all_posets
from smyth.maps import anchored_extensions
from smyth.poset import iter_bits, mask_of

from conftest import (
    antichain,
    binary_sup,
    chain,
    diamond_poset,
    fold_sup,
    induced,
    is_sup_preserving_by_subsets,
    lambda_sharp_by_closure,
    posets,
    sigma_law_by_enumeration,
    vee_poset,
)

import random


def test_fold_sup_on_chain():
    p = chain(4)
    assert fold_sup(p, 0b1010) == 3
    assert fold_sup(p, 0b0001) == 0
    assert fold_sup(p, 0) is None


def test_fold_sup_inconclusive():
    # a1, a2 below two incomparable middles u, v below a top
    p = FinitePoset.from_cover_relations(
        5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    )
    # pairwise fold dies at sup(a1, a2) even though sup{a1, a2, u} exists
    assert fold_sup(p, 0b00111) is None
    assert sup(p, 0b00111) == 2
    # and the genuinely sup-free set agrees with the direct answer
    assert fold_sup(p, 0b00011) is None
    assert sup(p, 0b00011) is None


@given(posets())
def test_fold_sup_one_directional(case):
    poset = case
    for mask in range(1, min(1 << poset.n, 256)):
        folded = fold_sup(poset, mask)
        if folded is not None:
            assert folded == sup(poset, mask)


def test_sigma_total_on_lattice():
    p = diamond_poset()
    sigma = sigma_map(p, p.full)
    assert None not in sigma.values()
    assert sigma[0b0001] == 0
    assert sigma[0b0111] == 3
    assert sigma[p.full] == 3


def test_sigma_partial_on_antichain():
    p = antichain(2)
    sigma = sigma_map(p, p.full)
    assert tuple(sigma) == (0b01, 0b10, 0b11)
    assert tuple(sigma.values()) == (0, 1, None)
    # partiality is a value here; only lambda_sharp hardens it to an error
    assert sigma[0b11] is None


def test_sigma_carrier_restriction(vee):
    # over the carrier {a1, a2} alone the pair has no sup inside the carrier
    # but the sup is taken in the ambient poset, where it exists
    sigma = sigma_map(vee, 0b011)
    assert None not in sigma.values()
    assert sigma[0b011] == 2


@given(posets(max_n=5))
def test_sigma_union_law(poset):
    # the sup of a union is the sup of the two sups, whenever the latter exists
    sigma = sigma_map(poset, poset.full)
    defined = [(c, s) for c, s in sigma.items() if s is not None]
    for c1, s1 in defined:
        for c2, s2 in defined:
            joined = binary_sup(poset, s1, s2)
            if joined is not None:
                assert sigma[c1 | c2] == joined


def test_sigma_map_monotone_and_agrees_with_fold():
    # every labeled poset on at most four elements: where two down-sets
    # both have sups, inclusion gives an ordered pair of sups, and the
    # binary fold never disagrees with a defined sup
    for poset in (p for n in range(1, 5) for p in all_posets(n)):
        sigma = sigma_map(poset, poset.full)
        defined = [(c, s) for c, s in sigma.items() if s is not None]
        for small, s_small in defined:
            for big, s_big in defined:
                if small & ~big == 0:
                    assert poset.leq(s_small, s_big)
        for member, value in sigma.items():
            assert fold_sup(poset, member) in (None, value)


def test_sigma_map_matches_the_induced_sub_poset():
    # every nonempty carrier of every labeled poset on at most four
    # elements: the domain grown on ambient masks, its order and its sups
    # are those read off a validated copy of the induced order
    pairs = 0
    for poset in (p for n in range(1, 5) for p in all_posets(n)):
        for carrier in range(1, 1 << poset.n):
            sub, elements = induced(poset, carrier)
            domain = tuple(
                mask_of(elements[i] for i in iter_bits(local))
                for local in enumerate_down_sets(sub, False)
            )
            sigma = sigma_map(poset, carrier)
            assert tuple(sigma) == domain
            assert sigma == {member: sup(poset, member) for member in domain}
            pairs += 1
    assert pairs == 3428


def test_lambda_sharp_matches_down_closure_sup():
    # every monotone map between posets on at most three elements
    small = [p for n in range(1, 4) for p in all_posets(n)]
    defined = undefined = 0
    for source in small:
        for target in small:
            for image in all_monotone_images(source, target):
                f = MonotoneMap(source, target, image)
                if None in sigma_map(target, f.image_mask(source.full)).values():
                    with pytest.raises(SigmaUndefinedError):
                        lambda_sharp(f)
                    undefined += 1
                    continue
                assert lambda_sharp(f).image == lambda_sharp_by_closure(f)
                defined += 1
    assert (defined, undefined) == (4288, 530)


def test_lambda_sharp_worked_example(vee):
    f = MonotoneMap(vee, chain(2), (0, 0, 1))
    sharp = lambda_sharp(f)
    assert sharp.image == (0, 0, 0, 1)
    assert sharp.image == powerdomain_map(f).image


def test_lambda_sharp_identity_on_sup_complete(vee):
    sharp = lambda_sharp(identity(vee))
    # {a1},{a2},{a1,a2},{a1,a2,b} -> a1, a2, b, b
    assert sharp.image == (0, 1, 2, 2)


def test_lambda_sharp_undefined():
    p = antichain(2)
    with pytest.raises(SigmaUndefinedError) as info:
        lambda_sharp(identity(p))
    assert info.value.member_mask == 0b11
    # off the identity it is the image of the first point with no sup, in
    # the target's indexing: the point {0, 2} (0b101) maps onto {1, 0}
    f = MonotoneMap(antichain(3), p, (1, 1, 0))
    with pytest.raises(SigmaUndefinedError) as info:
        lambda_sharp(f)
    assert info.value.member_mask == 0b11


def test_lambda_sharp_restricts_to_base(vee):
    f = MonotoneMap(vee, chain(2), (0, 0, 1))
    sharp = lambda_sharp(f)
    for x in range(vee.n):
        assert sharp.image[build(vee).phi_index[x]] == f.image[x]


def test_is_sup_preserving_examples(vee):
    assert is_sup_preserving(identity(vee))
    f = MonotoneMap(vee, chain(2), (0, 0, 1))
    sharp = lambda_sharp(f)
    assert is_sup_preserving(sharp)
    # the non-minimal extension moves {a1,a2} above sup of its image
    other = enumerate_extensions(f)[1]
    assert not is_sup_preserving(other)


def test_collapse_map_not_sup_preserving(discrete3):
    space = build(discrete3)
    image = tuple(
        6 if space.points[i] == 0b011 else i for i in range(space.order.n)
    )
    collapse = MonotoneMap(space.order, space.order, image)
    assert not is_sup_preserving(collapse)


def test_constant_map_sup_preserving(vee):
    f = MonotoneMap(vee, chain(2), (0, 0, 0))
    assert is_sup_preserving(f)


SMALL_POSETS = [p for n in range(1, 4) for p in all_posets(n)]


@pytest.mark.parametrize("make, max_base, maps, preserving", [
    (build, 3, 6790, 4288),
    (hat_powerdomain, 2, 640, 584),
])
def test_sup_tests_agree_on_powerdomain_sources(make, max_base, maps, preserving):
    """The per-point test, the down-set check and the all-subsets oracle
    agree on every monotone map from the order of ``build(P)``, |P| <= 3,
    or ``hat_powerdomain(P)``, |P| <= 2, into every poset on at most 3
    elements.  The hat spaces exercise the skipped empty point."""
    seen = kept = 0
    for base in (p for n in range(1, max_base + 1) for p in all_posets(n)):
        space = make(base)
        for target in SMALL_POSETS:
            for image in all_monotone_images(space.order, target):
                f = MonotoneMap(space.order, target, image)
                expected = is_sup_preserving_by_subsets(f)
                assert preserves_sups(space, f) == expected, (base, target, image)
                assert is_sup_preserving(f) == expected, (base, target, image)
                seen += 1
                kept += expected
    assert (seen, kept) == (maps, preserving)


def test_is_sup_preserving_agrees_on_general_sources():
    """The down-set check matches the all-subsets oracle on every monotone
    map between posets on at most 3 elements, the bowtie and the diamond.
    In the bowtie, two elements have two minimal upper bounds and no sup."""
    bowtie = FinitePoset.from_cover_relations(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    cases = SMALL_POSETS + [bowtie, diamond_poset()]
    seen = kept = 0
    for source in cases:
        for target in cases:
            for image in all_monotone_images(source, target):
                f = MonotoneMap(source, target, image)
                expected = is_sup_preserving_by_subsets(f)
                assert is_sup_preserving(f) == expected, (source, target, image)
                seen += 1
                kept += expected
    assert (seen, kept) == (6567, 6295)


def test_preserves_sups_needs_the_space_order(vee):
    space = build(vee)
    assert preserves_sups(space, identity(space.order))
    with pytest.raises(RangeError):
        preserves_sups(space, identity(vee))
    with pytest.raises(RangeError):
        preserves_sups(hat_powerdomain(vee), identity(space.order))


def test_sigma_theorem_worked_example(vee):
    f = MonotoneMap(vee, chain(2), (0, 0, 1))
    assert check_sigma_theorem(f, lambda_sharp(f)) is None


@given(posets(max_n=4), posets(max_n=4), st.integers(0, 2**31))
def test_sigma_theorem_random(source, target, seed):
    from smyth.generators import random_monotone_map

    f = random_monotone_map(source, target, random.Random(seed))
    if f is None:
        return
    try:
        sharp = lambda_sharp(f)
    except SigmaUndefinedError:
        return
    assert check_sigma_theorem(f, sharp) is None


def test_is_sup_preserving_capacity_on_a_wide_antichain(shallow_recursion):
    with pytest.raises(CapacityError):
        is_sup_preserving(identity(antichain(400)), capacity=1000)


def test_is_sup_preserving_capacity_counts_every_down_set(vee):
    """The vee has 4 nonempty down-sets, and its pair {a1, a2} has the
    sup b but two minimal upper bounds in the bowtie: the map breaks
    the law at its second down-set, yet capacity 3 raises, since every
    down-set is listed before any is compared."""
    bowtie = FinitePoset.from_cover_relations(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    f = MonotoneMap(vee, bowtie, (0, 1, 2))
    assert not is_sup_preserving(f, capacity=4)
    with pytest.raises(CapacityError, match=r"^more than 3 down-sets on 3 elements$"):
        is_sup_preserving(f, capacity=3)


def test_retraction_on_chain():
    # for the identity, restricts-to-base is the retraction sup(phi(z)) == z
    for poset in (chain(3), diamond_poset()):
        f = identity(poset)
        assert check_sigma_theorem(f, lambda_sharp(f)) is None


def test_retraction_needs_total_sigma():
    with pytest.raises(SigmaUndefinedError):
        lambda_sharp(identity(antichain(2)))


def vee_map():
    """The worked sup-extension map: the vee onto the two-chain, whose
    sup extension is (0, 0, 0, 1) and whose other extension is (0, 0, 1, 1)."""
    return MonotoneMap(vee_poset(), chain(2), (0, 0, 1))


def sharp_constant_top(f):
    return MonotoneMap(build(f.source).order, f.target, (1, 1, 1, 1))


def sharp_not_least(original):
    """The sup extension replaced by the vee map's other extension."""
    def sharp(f):
        return MonotoneMap(build(f.source).order, f.target, (0, 0, 1, 1))
    return sharp


@pytest.mark.parametrize("name, mutant, expected", [
    ("lambda_sharp", lambda original: sharp_constant_top,
     {"law": "restricts-to-base", "element": 0}),
    ("preserves_sups", lambda original: lambda space, f: False,
     {"law": "sup-preserving"}),
    ("lambda_sharp", sharp_not_least, {"law": "sup-preserving"}),
])
def test_every_sigma_theorem_law_can_fail(monkeypatch, name, mutant, expected):
    """One seeded defect per law of the worked map, each caught by its
    own law."""
    f = vee_map()
    assert check_sigma_theorem(f, completion.lambda_sharp(f)) is None
    monkeypatch.setattr(completion, name, mutant(getattr(completion, name)))
    violation = check_sigma_theorem(f, completion.lambda_sharp(f))
    assert violation is not None
    assert {key: violation[key] for key in expected} == expected


def test_oracle_reports_a_sharp_that_is_not_least(monkeypatch):
    """The ``sharp_not_least`` mutant, which the certificate fails on
    ``sup-preserving``, is an extension but not the least one, and the
    enumeration oracle says so."""
    assert sigma_law_by_enumeration(vee_map()) is None
    monkeypatch.setattr(completion, "lambda_sharp", sharp_not_least(None))
    assert sigma_law_by_enumeration(vee_map()) == "pointwise-least"


def test_certificate_agrees_with_the_enumeration_oracle(monkeypatch):
    """On every monotone map between posets on at most three elements,
    the per-point ``check_sigma_theorem`` and the enumeration oracle both
    pass, or both find no sup.  Then each monotone extension in turn is
    passed off as the sup extension: the certificate passes exactly on
    the true one, and the oracle agrees with it on every one."""
    defined = []
    undefined = 0
    for source in SMALL_POSETS:
        for target in SMALL_POSETS:
            for image in all_monotone_images(source, target):
                f = MonotoneMap(source, target, image)
                try:
                    sharp = lambda_sharp(f)
                except SigmaUndefinedError:
                    with pytest.raises(SigmaUndefinedError):
                        sigma_law_by_enumeration(f)
                    undefined += 1
                    continue
                assert check_sigma_theorem(f, sharp) is None
                assert sigma_law_by_enumeration(f) is None
                defined.append((f, sharp.image))
    assert (len(defined), undefined) == (4288, 530)

    seeded = [None]
    monkeypatch.setattr(completion, "lambda_sharp", lambda f: seeded[0])
    candidates = 0
    for f, sharp in defined:
        space, target = build(f.source), f.target
        anchors = dict(zip(space.phi_index, f.image))
        for candidate in anchored_extensions(space.order, anchors, target):
            seeded[0] = MonotoneMap(space.order, target, candidate)
            ok = check_sigma_theorem(f, seeded[0]) is None
            assert ok == (candidate == sharp), (f, candidate)
            assert (sigma_law_by_enumeration(f) is None) == ok
            candidates += 1
    assert candidates == 6790
