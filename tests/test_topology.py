"""Open families, irreducibles, order recovery."""

import pytest
from hypothesis import given

from smyth import (
    CycleError,
    FinitePoset,
    MalformedFamilyError,
    OpenFamily,
    RangeError,
    down_closure,
    open_sets,
    poset_of_topology,
)

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
    fam = open_sets(vee)
    assert fam.base == vee
    assert fam.opens == (0b000, 0b001, 0b010, 0b011, 0b111)


def test_open_sets_of_chain():
    fam = open_sets(chain(3))
    assert fam.opens == (0b000, 0b001, 0b011, 0b111)


@given(posets(max_n=5))
def test_open_family_laws(poset):
    fam = open_sets(poset)
    opens = set(fam.opens)
    assert 0 in opens and poset.full in opens
    for u in fam.opens:
        for v in fam.opens:
            assert u | v in opens
            assert u & v in opens


@given(subsets())
def test_closure_against_complement_duality(case):
    # a set is open iff its complement is closed
    poset, mask = case
    fam = open_sets(poset)
    complement = poset.full & ~mask
    assert (mask in fam.opens) == (up_closure(poset, complement) == complement)


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
    assert poset_of_topology(open_sets(poset)) == poset


def test_poset_of_topology_keeps_labels(vee):
    assert poset_of_topology(open_sets(vee)).labels == ("a1", "a2", "b")


def test_malformed_families():
    base = antichain(2)
    with pytest.raises(MalformedFamilyError):
        poset_of_topology(OpenFamily(base, (0b01, 0b10, 0b11)))  # missing empty
    with pytest.raises(MalformedFamilyError):
        poset_of_topology(OpenFamily(base, (0b00, 0b01, 0b10)))  # missing full
    with pytest.raises(MalformedFamilyError):
        # missing the union of two listed opens
        three = FinitePoset.from_cover_relations(3, [])
        poset_of_topology(OpenFamily(three, (0b000, 0b001, 0b010, 0b111)))
    with pytest.raises(MalformedFamilyError):
        # missing the intersection of two listed opens
        three = FinitePoset.from_cover_relations(3, [])
        poset_of_topology(
            OpenFamily(three, (0b000, 0b011, 0b110, 0b111))
        )


def test_non_t0_family_is_no_poset(vee):
    # {empty, {b}, full} is a topology but cannot separate a1 from a2
    with pytest.raises(CycleError):
        poset_of_topology(OpenFamily(vee, (0b000, 0b100, 0b111)))


def test_family_range_check(vee):
    with pytest.raises(RangeError):
        poset_of_topology(OpenFamily(vee, (0b0000, 0b1001, 0b0111)))
