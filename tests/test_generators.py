"""Exhaustive and random instance generation with independent recounts."""

import random

import pytest
from hypothesis import given, strategies as st

from smyth import CapacityError, FinitePoset, find_isomorphism
from smyth.maps import MonotoneRule
from smyth.generators import (
    MAX_EXHAUSTIVE_N,
    _draw_monotone_image,
    all_monotone_images,
    all_posets,
    random_monotone_map,
    random_poset,
)

from conftest import (
    all_posets_by_filter,
    antichain,
    chain,
    count_posets_bruteforce,
    diamond_poset,
    random_poset_by_closure,
    vee_poset,
)


def test_exhaustive_counts():
    assert len(all_posets(1)) == 1
    assert len(all_posets(2)) == 3
    assert len(all_posets(3)) == 19
    assert len(all_posets(4)) == 219


def test_counts_against_bruteforce():
    for n in range(1, 4):
        assert len(all_posets(n)) == count_posets_bruteforce(n)


@pytest.mark.parametrize("n", range(1, MAX_EXHAUSTIVE_N + 1))
def test_search_matches_the_filter(n):
    # whole tuples: the same posets in the same order
    assert all_posets(n) == all_posets_by_filter(n)


def test_exhaustive_cap():
    assert MAX_EXHAUSTIVE_N == 5
    with pytest.raises(CapacityError):
        all_posets(6)


def test_all_posets_distinct_and_cached():
    posets3 = all_posets(3)
    assert len(set(posets3)) == 19
    assert all_posets(3) is posets3


def test_all_posets_are_exactly_the_labeled_orders():
    # every 2-element case by hand: discrete, the two chains
    found = sorted(p.up for p in all_posets(2))
    assert found == [(0b01, 0b10), (0b01, 0b11), (0b11, 0b10)]


def test_random_poset_matches_the_closure_oracle():
    # every size up to 18 on the first 200 seeds: the same coins, the
    # same poset, so every seed keeps its poset
    for n in range(1, 19):
        for seed in range(200):
            assert random_poset(n, seed) == random_poset_by_closure(n, seed), (n, seed)
    assert random_poset(5, 123) != random_poset(5, 124)


@given(st.integers(1, 18), st.integers(0, 2**32 - 1))
def test_random_poset_matches_the_closure_oracle_on_any_seed(n, seed):
    # construction itself validates the axioms
    assert random_poset(n, seed) == random_poset_by_closure(n, seed)


def test_monotone_images_worked_example():
    images = all_monotone_images(vee_poset(), chain(2))
    assert len(images) == 5
    assert list(images) == sorted(images)
    assert (0, 0, 1) in images
    assert (1, 1, 1) in images
    assert (1, 0, 0) not in images


def test_monotone_images_against_filter():
    cases = [
        (vee_poset(), chain(2)),
        (chain(3), vee_poset()),
        (antichain(3), chain(2)),
        (chain(2), antichain(2)),
    ]
    for source, target in cases:
        expected = []
        for code in range(target.n**source.n):
            image, rest = [], code
            for _ in range(source.n):
                image.append(rest % target.n)
                rest //= target.n
            if all(
                target.leq(image[x], image[y])
                for x in range(source.n)
                for y in range(source.n)
                if source.leq(x, y)
            ):
                expected.append(tuple(image))
        got = all_monotone_images(source, target)
        assert list(got) == sorted(expected)


def test_monotone_images_of_a_long_chain(shallow_recursion):
    images = all_monotone_images(chain(400), chain(2))
    assert images == tuple((0,) * (400 - k) + (1,) * k for k in range(401))


def test_monotone_image_count_identity_bound():
    # at least all constant maps, at most all functions
    images = all_monotone_images(vee_poset(), vee_poset())
    assert 3 <= len(images) <= 27
    assert (0, 1, 2) in images


def test_random_monotone_map_deterministic(chain2):
    source = random_poset(4, 9)
    a = random_monotone_map(source, chain2, random.Random(7))
    b = random_monotone_map(source, chain2, random.Random(7))
    assert (a is None) == (b is None)
    if a is not None:
        assert a.image == b.image


PINNED_DRAWS = [
    (
        random_poset(5, 11), random_poset(4, 3), 2024,
        [(3, 1, 2, 1, 3), (2, 1, 3, 3, 3), (1, 2, 2, 2, 2),
         (3, 1, 1, 3, 3), (2, 3, 3, 3, 3), (2, 3, 2, 3, 3)],
    ),
    (
        vee_poset(), diamond_poset(), 7,
        [(2, 1, 3), (0, 0, 0), (2, 0, 2), (0, 0, 3), (3, 0, 3), (0, 3, 3)],
    ),
    (
        diamond_poset(), vee_poset(), 5,
        [(2, 2, 2, 2), (1, 1, 1, 1), (0, 2, 2, 2),
         (1, 1, 1, 1), (2, 2, 2, 2), (0, 2, 0, 2)],
    ),
    (vee_poset(), antichain(2), 3, [(0, 0, 0), None, None, None, None, (1, 1, 1)]),
]


@pytest.mark.parametrize("source, target, seed, expected", PINNED_DRAWS)
def test_random_monotone_map_pinned_draws(source, target, seed, expected):
    # the sampled functor-laws pairs depend on these exact draws
    rng = random.Random(seed)
    draws = [random_monotone_map(source, target, rng) for _ in expected]
    assert [None if f is None else f.image for f in draws] == expected


@pytest.mark.parametrize("source, target, seed, expected", PINNED_DRAWS)
def test_draws_on_one_rule_are_the_pinned_draws(source, target, seed, expected):
    # one rule and one choice table kept across the draws draw what a
    # fresh rule per draw draws, dead ends included
    rule, choices, rng = MonotoneRule(source, {}, target), {}, random.Random(seed)
    assert [_draw_monotone_image(rule, choices, rng) for _ in expected] == expected


def test_random_monotone_map_valid(chain2, vee):
    rng = random.Random(1)
    for _ in range(50):
        f = random_monotone_map(vee, chain2, rng)
        if f is not None:
            assert all(
                chain2.leq(f.image[x], f.image[y])
                for x in range(3)
                for y in range(3)
                if vee.leq(x, y)
            )


def test_exhaustive_posets_cover_isomorphism_classes():
    # the 5 unlabeled 3-element posets each appear among the 19 labeled ones
    shapes = [
        chain(3),
        antichain(3),
        vee_poset(),
        FinitePoset.from_cover_relations(3, [(0, 1)]),
        FinitePoset.from_cover_relations(3, [(0, 1), (0, 2)]),
    ]
    for shape in shapes:
        assert any(find_isomorphism(shape, p) is not None for p in all_posets(3))
