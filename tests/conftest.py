"""Shared fixtures, hypothesis strategies, and a strict DOT validator."""

import functools
import random
import re
import sys
from collections.abc import Iterator
from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

from smyth import (
    CycleError,
    FinitePoset,
    MonotoneMap,
    PowerdomainSpace,
    build,
    down_closure,
    enumerate_down_sets,
    is_down_set,
    sup,
)
from smyth import completion, maps, powerdomain, suite
from smyth.generators import random_poset
from smyth.maps import anchored_extensions
from smyth.poset import (
    _minimal,
    _transpose,
    check_subset,
    gather,
    is_order_embedding,
    iter_bits,
    mask_of,
)


def vee_poset() -> FinitePoset:
    return FinitePoset.from_cover_relations(3, [(0, 2), (1, 2)], labels=("a1", "a2", "b"))


def chain(n: int) -> FinitePoset:
    return FinitePoset.from_cover_relations(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> FinitePoset:
    return FinitePoset.from_cover_relations(n, [])


def diamond_poset() -> FinitePoset:
    return FinitePoset.from_cover_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def boolean_lattice(k: int) -> FinitePoset:
    covers = [(a, a | (1 << i)) for a in range(1 << k) for i in range(k) if not a & (1 << i)]
    return FinitePoset.from_cover_relations(1 << k, covers)


def down_sets_by_filter(poset: FinitePoset) -> list[int]:
    """Scan every subset mask and keep the down-sets.  The slow oracle."""
    return [mask for mask in range(1 << poset.n) if is_down_set(poset, mask)]


def canonical_sort(masks) -> tuple[int, ...]:
    """Subset masks ordered by size then by mask value.  The oracle of the
    order in which ``enumerate_down_sets`` returns its levels."""
    ordered = sorted(masks)
    ordered.sort(key=int.bit_count)
    return tuple(ordered)


def up_closure(poset: FinitePoset, subset: int) -> int:
    """Every element lying above some member of ``subset``."""
    check_subset(poset, subset)
    closed = 0
    for i in iter_bits(subset):
        closed |= poset.up[i]
    return closed


def is_up_set(poset: FinitePoset, subset: int) -> bool:
    """Whether ``subset`` is closed upward."""
    return up_closure(poset, subset) == subset


def is_spectral(f: MonotoneMap) -> bool:
    """Whether preimages of down-sets are down-sets.

    The direct topological reading of a spectral map, and the oracle of
    the per-cover monotonicity test in the ``MonotoneMap`` constructor:
    for finite posets the two agree.
    """
    for omega in enumerate_down_sets(f.target, True):
        preimage = mask_of(
            x for x in range(f.source.n) if omega >> f.image[x] & 1
        )
        if not is_down_set(f.source, preimage):
            return False
    return True


def basic_open_by_scan(space: PowerdomainSpace, omega: int) -> frozenset[int]:
    """Indices of the points whose members all lie in ``omega``.  The
    definitional scan over every point: the oracle of ``basic_open``."""
    return frozenset(
        i for i, member in enumerate(space.points) if member & ~omega == 0
    )


def embedding_theorem_by_scan(space: PowerdomainSpace) -> dict | None:
    """``check_embedding_theorem`` with ``basic-open-pullback`` and
    ``density`` decided point by point: each point's down row is the
    basic open of its member set, ``phi`` must pull it back to that set,
    and a nonempty one must hold a principal point; a plain space's
    empty open is added first.  The oracle of the column reading.
    """
    base, column, up = space.base, space._columns, space.order.up
    every = (1 << len(space.points)) - 1
    for i, small in enumerate(space.points):
        above = every
        for x in iter_bits(small):
            above &= column[x]
        wrong = up[i] ^ above
        if wrong:
            return {"law": "order-is-containment",
                    "left": i, "right": (wrong & -wrong).bit_length() - 1}
    for i, small in enumerate(space.points):
        wrong = space.order.down[i] ^ powerdomain._points_inside(space, small)
        if wrong:
            return {"law": "order-is-containment",
                    "left": (wrong & -wrong).bit_length() - 1, "right": i}

    masks = list(zip(space.points, space.order.down))
    if space.points[0] != 0:
        masks.insert(0, (0, 0))

    if max(space.phi_index) >= len(space.points) or not is_order_embedding(
            base, space.order, space.phi_index):
        return {"law": "order-embedding"}
    for omega, members in masks:
        pulled = mask_of(
            x for x, i in enumerate(space.phi_index) if members >> i & 1
        )
        if pulled != omega:
            return {"law": "basic-open-pullback", "open": omega}

    maximal = [
        i for i in range(len(space.points))
        if space.order.up[i] == 1 << i
    ]
    if len(maximal) != 1 or space.points[maximal[0]] != base.full:
        return {"law": "unique-maximal-point", "maximal": maximal}

    principal = mask_of(space.phi_index)
    for omega, members in masks:
        if members and not members & principal:
            return {"law": "density", "open": omega}

    for i, covers in enumerate(space.order.lower_covers):
        if bool(principal >> i & 1) != (covers.bit_count() <= 1):
            return {"law": "principal-iff-join-irreducible", "point": i}
    return None


def inclusion_rows_by_recurrence(
    base: FinitePoset, points: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The up and down rows of the inclusion order on ``points``, by the
    lattice recurrence: the oracle of the rows a built order reads off
    the membership columns.

    ``points`` are down-sets in canonical order, so a proper subset
    always comes first.  A point ``m`` minus a maximal member ``x``, or
    plus a minimal non-member ``y``, is a down-set as well; ``_minimal``
    finds ``x`` on the base's up rows and ``y`` on its down rows.  With
    ``column[x]`` the points that contain ``x``, the recurrences

        up[m] = up[m - {x}] & column[x]      up[{}] = every point
        down[m] = down[m | {y}] & ~column[y]   down[base] = every point

    fill the up rows in canonical order and the down rows in reverse.
    """
    column = _transpose(points, base.n)
    every = (1 << len(points)) - 1
    up_of = {0: every}
    for m in points:
        if m:
            x = _minimal(base.up, m)
            up_of[m] = up_of[m ^ (1 << x)] & column[x]
    full = base.full
    down_of = {full: every}
    for m in reversed(points):
        if m != full:
            y = _minimal(base.down, full ^ m)
            down_of[m] = down_of[m | (1 << y)] & (every ^ column[y])
    return gather(up_of, points), gather(down_of, points)


def irreducible_down_sets_by_scan(poset: FinitePoset) -> tuple[int, ...]:
    """The nonempty down-sets that are no union of two properly smaller
    down-sets, in canonical order.  The definitional scan, over every
    pair of down-sets inside each one: the oracle of the
    ``principal-iff-join-irreducible`` law."""
    down_sets = enumerate_down_sets(poset, False)
    return tuple(
        c for c in down_sets
        if not any(
            a | b == c
            for a in down_sets
            if a & ~c == 0 and a != c
            for b in down_sets
            if b & ~c == 0 and b != c
        )
    )


def induced(poset: FinitePoset, carrier: int) -> tuple[FinitePoset, tuple[int, ...]]:
    """Sub-poset on the elements of ``carrier`` plus the element list.

    The returned poset renumbers the carrier ascending; the second value
    maps new indices back to the originals.  A validated copy of the
    order, the oracle for ``sigma_map``'s domain on ambient masks.
    """
    check_subset(poset, carrier)
    elements = tuple(iter_bits(carrier))
    position = {e: k for k, e in enumerate(elements)}
    up = tuple(
        mask_of(position[j] for j in iter_bits(poset.up[e] & carrier))
        for e in elements
    )
    labels = None
    if poset.labels is not None:
        labels = tuple(poset.labels[e] for e in elements)
    n = len(elements)
    return FinitePoset(n, up, _transpose(up, n), labels), elements


def order_transpose(n: int, up: tuple[int, ...]) -> tuple[int, ...] | None:
    """The transpose of ``up`` if it is a partial order on ``range(n)``, else None.

    The definitional oracle for ``FinitePoset`` validation: the rows are
    read as a set of pairs and checked for range, reflexivity,
    antisymmetry and transitivity pair by pair.
    """
    if any(row >> n for row in up):
        return None
    leq = {(i, j) for i in range(n) for j in range(n) if up[i] >> j & 1}
    if any((i, i) not in leq for i in range(n)):
        return None
    if any(i != j and (j, i) in leq for i, j in leq):
        return None
    if any((i, k) not in leq for i, j in leq for j2, k in leq if j == j2):
        return None
    return tuple(sum(1 << i for i in range(n) if (i, j) in leq) for j in range(n))


def all_posets_by_filter(n: int) -> tuple[FinitePoset, ...]:
    """Every labeled poset on ``n`` elements, by filtering every pair
    assignment.  The oracle of ``all_posets``, order included.

    Each unordered pair, in ``combinations`` order, is incomparable,
    ascending or descending; every one of the ``3**(n*(n-1)/2)``
    assignments is tried in lexicographic order, and the ones whose
    reflexive closure is transitive are kept.
    """
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


def random_poset_by_closure(n: int, seed: int) -> FinitePoset:
    """``random_poset``'s draws as a pair list, closed by
    ``from_cover_relations``.  The oracle of ``random_poset``: the same
    coin per pair ``i < j``, ``i`` the outer loop, and the general
    closure and transpose in place of the two row passes.
    """
    rng = random.Random(seed)
    density = rng.random()
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return FinitePoset.from_cover_relations(n, pairs)


def count_posets_bruteforce(n: int) -> int:
    """Count posets by filtering every directed relation on ``n`` elements.

    Independent of ``all_posets``: iterates the full ``2**(n*(n-1))``
    space of irreflexive relation matrices, adds the diagonal, and keeps
    those that ``order_transpose`` accepts.  Only sensible for n <= 4.
    """
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for bits in range(1 << len(slots)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(slots):
            if bits >> k & 1:
                up[i] |= 1 << j
        count += order_transpose(n, up) is not None
    return count


def binary_sup(poset: FinitePoset, i: int, j: int) -> int | None:
    """Least upper bound of two elements, or None."""
    bounds = poset.up[i] & poset.up[j]
    for m in iter_bits(bounds):
        if bounds & ~poset.up[m] == 0:
            return m
    return None


def fold_sup(poset: FinitePoset, subset: int) -> int | None:
    """Least upper bound by folding binary sups, None as soon as one fails.

    Independent of the common-upper-bound route in ``sup``.  The fold can
    miss a sup that exists (an undefined intermediate join does not rule
    out a bound for the whole set), so None here is inconclusive; a
    non-None result is always the true sup.  Over families whose every
    down-set has a sup the two routes agree everywhere.
    """
    bits = list(iter_bits(subset))
    if not bits:
        return None
    acc = bits[0]
    for b in bits[1:]:
        acc = binary_sup(poset, acc, b)
        if acc is None:
            return None
    return acc


@functools.lru_cache(maxsize=None)
def _sup_by_scan(poset: FinitePoset, subset: int) -> int | None:
    """The upper bound of ``subset`` below every other one, pair by pair."""
    bounds = [u for u in range(poset.n)
              if all(poset.leq(x, u) for x in iter_bits(subset))]
    least = [m for m in bounds if all(poset.leq(m, u) for u in bounds)]
    return least[0] if least else None


def is_sup_preserving_by_subsets(f: MonotoneMap) -> bool:
    """Every nonempty subset of the source with a sup has its image's sup
    there.  The definitional oracle: all subsets, no antichains, no
    principal generators, and sups by scanning pairs."""
    for subset in range(1, 1 << f.source.n):
        bound = _sup_by_scan(f.source, subset)
        if bound is None:
            continue
        if _sup_by_scan(f.target, f.image_mask(subset)) != f.image[bound]:
            return False
    return True


def lambda_sharp_by_closure(f: MonotoneMap) -> tuple[int | None, ...]:
    """Each point to the sup of the down-closure of its image.  The oracle."""
    return tuple(
        sup(f.target, down_closure(f.target, f.image_mask(member)))
        for member in build(f.source).points
    )


def sigma_law_by_enumeration(f: MonotoneMap) -> str | None:
    """The first law of the universal property that the sup extension of
    ``f`` breaks, or None, by enumerating every monotone extension.

    ``is-an-extension``: the sup extension agrees with the base map on
    principal points.  ``pointwise-least``: it lies below every
    extension.  ``unique-sup-preserving``: the down-set check
    ``is_sup_preserving`` holds of it and of no other extension.  The
    brute-force oracle of the per-point ``check_sigma_theorem``; the sup
    extension is read through ``completion`` so that a patched one is
    enumerated against.
    """
    space, target = build(f.source), f.target
    sharp = completion.lambda_sharp(f).image
    anchors = dict(zip(space.phi_index, f.image))
    extensions = anchored_extensions(space.order, anchors, target)
    if sharp not in extensions:
        return "is-an-extension"
    for candidate in extensions:
        if not all(target.leq(s, c) for s, c in zip(sharp, candidate)):
            return "pointwise-least"
    for candidate in extensions:
        extension = maps._made(space.order, target, candidate)
        if completion.is_sup_preserving(extension) != (candidate == sharp):
            return "unique-sup-preserving"
    return None


def anchored_images(f: MonotoneMap, capacity: int | None = None) -> tuple:
    """The anchored extensions of ``f``, as sorted image tuples, by a
    direct call of ``anchored_extensions`` on the principal points:
    ``phi(x)`` must go to ``phi(f(x))``.  Both spaces are built under
    the default capacity; ``capacity`` bounds the search only."""
    source, target = build(f.source), build(f.target)
    anchors = {point: target.phi_index[value]
               for point, value in zip(source.phi_index, f.image)}
    return anchored_extensions(source.order, anchors, target.order, capacity)


def minimality_by_search(f: MonotoneMap, capacity: int | None = None) -> dict | None:
    """``check_minimality`` by the anchored search over image tuples, on
    any target: the oracle of both its routes, the mask certificate into
    the two-element chain and the judge against the sup extension.  The
    induced map is read through ``maps._lift``, so that a patched lift
    is searched against; more than ``capacity`` extensions raise."""
    source_space, target_space = build(f.source), build(f.target)
    induced = maps._lift(source_space, target_space, f.image)
    extensions = anchored_images(f, capacity)
    if induced not in extensions:
        return {"law": "induced-map-is-an-extension"}
    for candidate in extensions:
        for point, (least, value) in enumerate(zip(induced, candidate)):
            if not target_space.order.leq(least, value):
                return {"law": "pointwise-least", "point": point,
                        "candidate": list(candidate)}
    return None


def constant_lift(original):
    """Every induced map replaced by the constant map at the first point,
    whatever the arguments of the lift it wraps."""
    def lift(*args):
        return (0,) * len(original(*args))
    return lift


def lift_without_closure(original):
    """The image set of each point looked up as a point, not closed
    downward first; one that is no point goes to the first point."""
    def lift(source, target, image):
        f = MonotoneMap(source.base, target.base, image)
        return tuple(target.point_index.get(f.image_mask(member), 0)
                     for member in source.points)
    return lift


def greatest_extension_lift(original):
    """Each point sent to 0 only when it lies inside a principal down-set
    sent to 0: an extension into the chain, the greatest, so it is
    pointwise-least only where it is the induced map."""
    def lift(space, target, image):
        base = space.base
        zeros = [base.down[x] for x in range(base.n) if image[x] == 0]
        return tuple(0 if any(member & ~down == 0 for down in zeros) else 1
                     for member in space.points)
    return lift


def no_joins(original):
    """A ``_sups`` fold that finds no bound for a mask of two or more members."""
    def sups(target, rows, masks):
        return [None if mask & (mask - 1) else found
                for mask, found in zip(masks, original(target, rows, masks))]
    return sups


def patch_lift(monkeypatch, mutant):
    """Put ``mutant(maps._lift)`` in place of ``_lift`` in every module of
    the package that binds it, behind a fresh lift cache, so that no
    lift the mutant makes outlives the test."""
    original = maps._lift
    lift = mutant(original)
    for name, module in sorted(sys.modules.items()):
        if name.startswith("smyth.") and getattr(module, "_lift", None) is original:
            monkeypatch.setattr(module, "_lift", lift)
    monkeypatch.setattr(maps, "_powerdomain_map", functools.lru_cache(
        maxsize=maps._powerdomain_map.cache_info().maxsize)(maps._powerdomain_map.__wrapped__))


def functor_laws_by_pair_scan(payload: dict) -> dict | None:
    """The law of ``functor-laws`` by an ordered scan of every pair.

    The identity on the payload's poset first, then, for each drawn map
    ``f`` and each drawn map ``g`` in turn, the lift of ``g`` after ``f``
    against the composite of their lifts, all lifted on the one built
    space as image tuples through ``maps._lift``, so that a patched lift
    is scanned against.  The first failing pair names its images as
    ``f`` and ``g``.  The oracle of the one-pass comparison of lists.
    """
    case = suite._Case(payload)
    space = build(case.poset, case.capacity)
    n = case.poset.n
    if maps._lift(space, space, tuple(range(n))) != tuple(range(len(space.points))):
        return {"law": "identity", "n": n}
    images = suite._endo_images(case)
    for f in images:
        for g in images:
            expected = maps._lift(space, space, gather(g, f))
            got = gather(maps._lift(space, space, g), maps._lift(space, space, f))
            if expected != got:
                return {"law": "composition", "expected": list(expected),
                        "got": list(got), "f": list(f), "g": list(g)}
    return None


def cover_pairs_by_definition(poset: FinitePoset) -> tuple[tuple[int, int], ...]:
    """Every comparable pair ``i < j`` with nothing strictly between.  The oracle."""
    pairs = []
    for i in range(poset.n):
        strictly_above = poset.up[i] & ~(1 << i)
        for j in iter_bits(strictly_above):
            if not strictly_above & poset.down[j] & ~(1 << j):
                pairs.append((i, j))
    return tuple(pairs)


def monotonicity_violation_by_pairs(f: MonotoneMap) -> tuple[int, int] | None:
    """The first comparable pair whose images are unordered.  The pair-scan oracle."""
    for x in range(f.source.n):
        fx_up = f.target.up[f.image[x]]
        for y in iter_bits(f.source.up[x]):
            if not fx_up >> f.image[y] & 1:
                return x, y
    return None


def lower_covers_by_definition(poset: FinitePoset) -> tuple[int, ...]:
    """The transpose of ``cover_pairs_by_definition``, as masks.  The oracle."""
    covers = [0] * poset.n
    for i, j in cover_pairs_by_definition(poset):
        covers[j] |= 1 << i
    return tuple(covers)


def linear_extension_by_scan(poset: FinitePoset) -> tuple[int, ...]:
    """Smallest eligible index first, rescanning from scratch.  The uncached oracle."""
    remaining = poset.full
    out = []
    while remaining:
        for i in iter_bits(remaining):
            if poset.down[i] & remaining == 1 << i:
                out.append(i)
                remaining ^= 1 << i
                break
        else:
            raise CycleError("no minimal element; relation is not a partial order")
    return tuple(out)


def heights_by_pairs(poset: FinitePoset) -> tuple[int, ...]:
    """Longest chain below each element, a max over every element below.  The oracle."""
    result = [0] * poset.n
    for i in linear_extension_by_scan(poset):
        below = poset.down[i] & ~(1 << i)
        result[i] = max((result[j] + 1 for j in iter_bits(below)), default=0)
    return tuple(result)


def powerdomain_image_by_closure(f: MonotoneMap) -> tuple[int, ...]:
    """The induced map's image, each point as the down-closure of its image.

    The oracle for the row fold in ``maps._lift``.
    """
    source_space, target_space = build(f.source), build(f.target)
    return tuple(
        target_space.point_index[down_closure(f.target, f.image_mask(member))]
        for member in source_space.points
    )


def powerdomain_image_by_member_fold(f: MonotoneMap) -> tuple[int, ...]:
    """The induced map's image, each point's closure an OR of the target's
    down rows over every one of its members.

    The oracle for the one-OR-per-point walk in ``maps._lift``.
    """
    source_space, target_space = build(f.source), build(f.target)
    lift = [f.target.down[value] for value in f.image]
    image = []
    for member in source_space.points:
        closed = 0
        for x in iter_bits(member):
            closed |= lift[x]
        image.append(target_space.point_index[closed])
    return tuple(image)


def is_order_embedding_by_pairs(
    source: FinitePoset, target: FinitePoset, image: tuple[int, ...]
) -> bool:
    """``x <= y`` exactly when ``image[x] <= image[y]``, pair by pair.  The oracle.

    Injectivity follows: equal images make ``x`` and ``y`` mutually below.
    """
    return all(
        source.leq(x, y) == target.leq(image[x], image[y])
        for x in range(source.n)
        for y in range(source.n)
    )


def isomorphisms_by_permutation(
    left: FinitePoset, right: FinitePoset
) -> Iterator[tuple[int, ...]]:
    """Every order-isomorphism ``left -> right`` as an image tuple, each
    permutation of ``range(n)`` tried in lexicographic order, its moved
    up rows compared with the target's.  The brute-force oracle of
    ``find_isomorphism``."""
    if left.n != right.n:
        return
    for image in permutations(range(left.n)):
        if all(mask_of(image[j] for j in iter_bits(left.up[i])) == right.up[image[i]]
               for i in range(left.n)):
            yield image


def is_order_isomorphism_by_pairs(f: MonotoneMap) -> bool:
    """Same size, and an order-embedding by the pair scan.  The oracle."""
    return f.source.n == f.target.n and is_order_embedding_by_pairs(
        f.source, f.target, f.image
    )


def relabeled_rows_by_pairs(
    poset: FinitePoset, image: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ``(up, down)`` rows of ``poset`` moved along ``image``, pair by pair."""
    up = [0] * poset.n
    for i in range(poset.n):
        up[image[i]] = mask_of(image[j] for j in iter_bits(poset.up[i]))
    down = [0] * poset.n
    for i in range(poset.n):
        for j in iter_bits(up[i]):
            down[j] |= 1 << i
    return tuple(up), tuple(down)


def closed_rows_by_pairs(
    n: int, pairs: list[tuple[int, int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The closure of ``pairs`` as up rows, and down rows by transposing them."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    down = [0] * n
    for i in range(n):
        for j in iter_bits(up[i]):
            down[j] |= 1 << i
    return tuple(up), tuple(down)


@pytest.fixture
def shallow_recursion():
    """Cap the interpreter stack a few hundred frames above the current depth.

    A search that recurses once per element then fails on inputs of a
    few hundred elements instead of a few thousand.
    """
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 250)
    yield
    sys.setrecursionlimit(previous)


@pytest.fixture
def lift_defect(monkeypatch):
    """Every lift reads its spaces' parent members in reverse order.

    The lift cache is emptied on the way in and out, so no defective
    lift outlives the test.
    """
    parents = PowerdomainSpace.__dict__["_parents"].func

    def reversing(space):
        found, members = parents(space)
        return found, members[::-1]

    monkeypatch.setattr(PowerdomainSpace, "_parents", property(reversing))
    maps._powerdomain_map.cache_clear()
    yield
    maps._powerdomain_map.cache_clear()


@pytest.fixture
def vee() -> FinitePoset:
    return vee_poset()


@pytest.fixture
def chain2() -> FinitePoset:
    return FinitePoset.from_cover_relations(2, [(0, 1)], labels=("c1", "c2"))


@pytest.fixture
def discrete3() -> FinitePoset:
    return FinitePoset.from_cover_relations(3, [], labels=("a", "b", "c"))


@st.composite
def posets(draw, max_n: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_poset(n, seed)


@st.composite
def subsets(draw, max_n: int = 6):
    """A poset together with an arbitrary subset mask of its carrier."""
    poset = draw(posets(max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << poset.n) - 1))
    return poset, mask


_NODE_RE = re.compile(r'^(\w+) \[label="([^"\\]*)"\];$')
_EDGE_RE = re.compile(r"^(\w+) -> (\w+);$")


def assert_valid_dot(text: str) -> tuple[int, int]:
    """Validate the emitted DOT dialect; return (node count, edge count).

    Grammar: a digraph header, one indented node statement per node with a
    quoted label, then indented edge statements between declared nodes.
    """
    lines = text.splitlines()
    assert lines, "empty document"
    header = re.fullmatch(r"digraph (\w+) \{", lines[0])
    assert header, f"bad header: {lines[0]!r}"
    assert lines[-1] == "}", f"bad footer: {lines[-1]!r}"
    declared = set()
    edges = 0
    seen_edge = False
    for line in lines[1:-1]:
        assert line.startswith("  "), f"missing indent: {line!r}"
        body = line[2:]
        node = _NODE_RE.match(body)
        edge = _EDGE_RE.match(body)
        if node:
            assert not seen_edge, "node statement after an edge statement"
            assert node.group(1) not in declared, f"duplicate node {body!r}"
            declared.add(node.group(1))
        elif edge:
            seen_edge = True
            assert edge.group(1) in declared, f"undeclared tail: {body!r}"
            assert edge.group(2) in declared, f"undeclared head: {body!r}"
            edges += 1
        else:
            raise AssertionError(f"unparsable statement: {body!r}")
    return len(declared), edges
