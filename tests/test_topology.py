"""Open families, irreducibles, order recovery."""

import pytest
from hypothesis import given

from smyth import (
    CycleError,
    FinitePoset,
    MalformedFamilyError,
    RangeError,
    build,
    down_closure,
    hat_powerdomain,
    open_sets,
    poset_of_topology,
)

from smyth.generators import all_posets
from smyth.poset import iter_bits

from conftest import (
    antichain,
    chain,
    irreducible_down_sets_by_scan,
    posets,
    subsets,
    up_closure,
)


def test_open_sets_of_vee(vee):
    assert open_sets(vee) == (0b000, 0b001, 0b010, 0b011, 0b111)


def test_open_sets_of_chain():
    assert open_sets(chain(3)) == (0b000, 0b001, 0b011, 0b111)


@given(posets(max_n=5))
def test_open_family_laws(poset):
    opens = set(open_sets(poset))
    assert 0 in opens and poset.full in opens
    for u in opens:
        for v in opens:
            assert u | v in opens
            assert u & v in opens


def test_opens_are_the_points_of_the_spaces():
    """On every labeled poset with up to 4 elements, the opens are the
    hat space's points, and the empty set plus the plain space's points,
    in one order: the checks read the opens off the spaces they build."""
    for n in range(1, 5):
        for poset in all_posets(n):
            opens = open_sets(poset)
            assert hat_powerdomain(poset).points == opens
            assert (0,) + build(poset).points == opens


@given(subsets())
def test_closure_against_complement_duality(case):
    # a set is open iff its complement is closed
    poset, mask = case
    complement = poset.full & ~mask
    assert (mask in open_sets(poset)) == (up_closure(poset, complement) == complement)


def test_irreducibles_are_principal(vee):
    assert irreducible_down_sets_by_scan(vee) == (0b001, 0b010, 0b111)


@given(posets(max_n=5))
def test_irreducibles_have_unique_generic_points(poset):
    masks = irreducible_down_sets_by_scan(poset)
    assert len(masks) == poset.n
    for mask in masks:
        # the generic point is the mask's only maximal element
        maximal = [x for x in iter_bits(mask) if poset.up[x] & mask == 1 << x]
        assert len(maximal) == 1
        assert mask == down_closure(poset, 1 << maximal[0])


@given(posets())
def test_poset_of_topology_round_trip(poset):
    assert poset_of_topology(poset.n, open_sets(poset), poset.labels) == poset


def test_poset_of_topology_keeps_labels(vee):
    recovered = poset_of_topology(vee.n, open_sets(vee), vee.labels)
    assert recovered.labels == ("a1", "a2", "b")


def test_malformed_families():
    base = antichain(2)
    with pytest.raises(MalformedFamilyError):
        poset_of_topology(base.n, (0b01, 0b10, 0b11))  # missing empty
    with pytest.raises(MalformedFamilyError):
        poset_of_topology(base.n, (0b00, 0b01, 0b10))  # missing full
    with pytest.raises(MalformedFamilyError):
        # missing the union of two listed opens
        three = FinitePoset.from_cover_relations(3, [])
        poset_of_topology(three.n, (0b000, 0b001, 0b010, 0b111))
    with pytest.raises(MalformedFamilyError):
        # missing the intersection of two listed opens
        three = FinitePoset.from_cover_relations(3, [])
        poset_of_topology(three.n, (0b000, 0b011, 0b110, 0b111))


def test_non_t0_family_is_no_poset(vee):
    # {empty, {b}, full} is a topology but cannot separate a1 from a2
    with pytest.raises(CycleError):
        poset_of_topology(vee.n, (0b000, 0b100, 0b111))


def test_family_range_check(vee):
    with pytest.raises(RangeError):
        poset_of_topology(vee.n, (0b0000, 0b1001, 0b0111))
    with pytest.raises(RangeError):
        poset_of_topology(vee.n, (-1, 0b000, 0b111))
    for n in (0, -1):
        with pytest.raises(RangeError):
            poset_of_topology(n, (0,))
