"""Exhaustive and randomized poset and map generators for the harness."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from .errors import CapacityError
from .poset import FinitePoset, _checked, _made_poset, iter_bits
from .maps import MonotoneMap, MonotoneRule, _made, anchored_extensions

MAX_EXHAUSTIVE_N = 5


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple[FinitePoset, ...]:
    """Every labeled poset on ``n`` elements, each exactly once.

    Each unordered pair, in ``combinations`` order, is made incomparable,
    ascending or descending, tried in that order; the posets are the
    assignments whose reflexive closure is transitive, listed in the
    lexicographic order of the assignments, so output is deterministic.

    A depth-first search on an explicit stack builds the assignments
    pair by pair and keeps a choice for ``(i, j)`` only if every triple
    ``{h, i, j}`` with ``h < i`` stays transitive: those are the triples
    whose last pair is ``(i, j)``, so every triple is checked once, and
    each check is one masked test of the ``up`` and ``down`` rows over
    the elements below ``i``.  A pruned branch holds no poset, so the
    order is that of filtering every assignment.
    """
    _checked(n, "n", 1)
    if n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"exhaustive enumeration is capped at n={MAX_EXHAUSTIVE_N}")
    pairs = list(combinations(range(n), 2))
    up = [1 << i for i in range(n)]
    down = list(up)
    found = []
    # The next direction to try at each depth: 0 incomparable, 1 i < j,
    # 2 j < i, 3 none left.  The direction tried before it stays in the
    # rows until the search comes back to this depth and takes it out.
    untried = [0]
    while untried:
        depth = len(untried) - 1
        if depth == len(pairs):
            found.append(_made_poset(n, tuple(up), tuple(down)))
            untried.pop()
            continue
        i, j = pairs[depth]
        direction = untried[-1]
        if direction == 2:
            up[i] ^= 1 << j
            down[j] ^= 1 << i
        elif direction == 3:
            up[j] ^= 1 << i
            down[i] ^= 1 << j
            untried.pop()
            continue
        untried[-1] = direction + 1
        if direction == 0:
            broken = up[i] & down[j] | up[j] & down[i]
        elif direction == 1:
            up[i] |= 1 << j
            down[j] |= 1 << i
            broken = down[i] & ~down[j] | up[j] & ~up[i]
        else:
            up[j] |= 1 << i
            down[i] |= 1 << j
            broken = down[j] & ~down[i] | up[i] & ~up[j]
        if not broken & ((1 << i) - 1):
            untried.append(0)
    return tuple(found)


def random_poset(n: int, seed: int) -> FinitePoset:
    """A reproducible random poset on ``n`` elements.

    Draws an edge density, then flips a coin per pair ``i < j``, ``i``
    the outer loop, and a heads puts ``j`` in ``above[i]`` and ``i`` in
    ``below[j]``.  Edges only point upward in index order, so the
    relation is acyclic and the indices follow a linear extension.  The
    ``up`` rows close in one pass from the top index down, the ``down``
    rows in one pass from the bottom up: each row ORs in the closed row
    of its nearest edge not yet reached and drops every edge that row
    reaches, about one OR per cover edge.
    """
    _checked(n, "n", 1)
    rng = random.Random(seed)
    density = rng.random()
    draw = rng.random
    above = [0] * n
    below = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw() < density:
                above[i] |= 1 << j
                below[j] |= 1 << i
    up = [0] * n
    for i in range(n - 1, -1, -1):
        row, rest = 1 << i, above[i]
        while rest:
            reach = up[(rest & -rest).bit_length() - 1]
            row |= reach
            rest &= ~reach
        up[i] = row
    down = [0] * n
    for j in range(n):
        row, rest = 1 << j, below[j]
        while rest:
            reach = down[rest.bit_length() - 1]
            row |= reach
            rest &= ~reach
        down[j] = row
    return _made_poset(n, tuple(up), tuple(down))


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

    One ``_draw_monotone_image`` on a fresh rule: a caller drawing many
    maps between the same two posets builds the rule once and calls
    that helper, with the same draws.
    """
    image = _draw_monotone_image(MonotoneRule(source, {}, target), {}, rng)
    return None if image is None else _made(source, target, image)


def _draw_monotone_image(
    rule: MonotoneRule, choices: dict[int, tuple[int, ...]], rng: random.Random
) -> tuple[int, ...] | None:
    """The image tuple of one random map through ``rule``, or None when
    the draw strands itself.

    Assigns along the rule's linear extension, drawing with one
    ``rng.choice`` from the values the rule allows given what is already
    placed; a dead end returns None so the caller can redraw.
    ``choices`` keeps each allowed mask's values as a tuple, so a caller
    that keeps it across draws on one rule lists each mask once.
    """
    image = [0] * len(rule.order)
    for x in rule.order:
        allowed = rule.allowed(x, image)
        candidates = choices.get(allowed)
        if candidates is None:
            candidates = choices[allowed] = tuple(iter_bits(allowed))
        if not candidates:
            return None
        image[x] = rng.choice(candidates)
    return tuple(image)
