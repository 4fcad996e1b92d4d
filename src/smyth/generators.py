"""Exhaustive and randomized poset and map generators for the harness."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product

from .errors import CapacityError, RangeError
from .poset import FinitePoset, _transpose, iter_bits
from .maps import MonotoneMap, MonotoneRule, _made, anchored_extensions

MAX_EXHAUSTIVE_N = 5


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple[FinitePoset, ...]:
    """Every labeled poset on ``n`` elements, each exactly once.

    Each unordered pair is assigned one of: incomparable, ascending, or
    descending; assignments whose reflexive closure is transitive are
    the posets.  The enumeration order is the lexicographic order of
    those assignments, so output is deterministic.
    """
    if n < 1:
        raise RangeError(f"a poset needs at least one element, got n={n}")
    if n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"exhaustive enumeration is capped at n={MAX_EXHAUSTIVE_N}")
    pairs = list(combinations(range(n), 2))
    found = []
    for choice in product((0, 1, 2), repeat=len(pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), direction in zip(pairs, choice):
            if direction == 1:
                up[i] |= 1 << j
            elif direction == 2:
                up[j] |= 1 << i
        if _is_transitive(n, up):
            found.append(FinitePoset(n, tuple(up), _transpose(up, n)))
    return tuple(found)


def _is_transitive(n: int, up: list[int]) -> bool:
    for i in range(n):
        row = up[i]
        rest = row & ~(1 << i)
        while rest:
            low = rest & -rest
            if up[low.bit_length() - 1] & ~row:
                return False
            rest ^= low
    return True


def random_poset(n: int, seed: int) -> FinitePoset:
    """A reproducible random poset on ``n`` elements.

    Draws an edge density, then flips a coin per index-increasing pair
    and closes transitively; acyclicity is automatic because edges only
    point upward in index order.
    """
    if n < 1:
        raise RangeError(f"a poset needs at least one element, got n={n}")
    rng = random.Random(seed)
    density = rng.random()
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return FinitePoset.from_cover_relations(n, pairs)


def all_monotone_images(
    source: FinitePoset, target: FinitePoset
) -> tuple[tuple[int, ...], ...]:
    """Image tuples of every monotone map ``source -> target``, sorted.

    The extension search with no anchors, so the capacity bounds it too.
    """
    return anchored_extensions(source, {}, target)


def random_monotone_map(
    source: FinitePoset, target: FinitePoset, rng: random.Random
) -> MonotoneMap | None:
    """A random monotone map, or None when the draw strands itself.

    Assigns along the search's linear extension, drawing uniformly from
    the values its rule allows given what is already placed; a dead end
    returns None so the caller can redraw.
    """
    rule = MonotoneRule(source, {}, target)
    image = [0] * source.n
    for x in rule.order:
        candidates = list(iter_bits(rule.allowed(x, image)))
        if not candidates:
            return None
        image[x] = rng.choice(candidates)
    return _made(source, target, tuple(image))
