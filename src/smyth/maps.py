"""Maps between finite posets and the induced maps of powerdomains.

Between finite spectral spaces the spectral maps are exactly the
monotone ones, so MonotoneMap is the single arrow type.  Applying a map
to a powerdomain point and closing downward gives the induced map of
powerdomains; it restricts to the original map on principal points and
sits below every other monotone map doing so.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    CapacityError,
    CompositionMismatchError,
    IrreducibilityError,
    NotIsomorphismError,
    NotSpectralError,
    RangeError,
    _Value,
)
from .poset import (
    FinitePoset,
    _checked,
    _down_sets_by_extension,
    _monotonicity_violation,
    _sups,
    check_subset,
    gather,
    is_order_embedding,
    iter_bits,
    linear_extension,
    mask_of,
    resolve_capacity,
)
from .powerdomain import PowerdomainSpace, build


class MonotoneMap(_Value):
    """A map ``source -> target`` given by its image tuple.

    The constructor validates an image that comes from outside the
    package: its length, each value an element of the target (``_checked``),
    then monotonicity on each cover edge of the source, the cover test
    ``is_order_embedding`` also runs.
    Every map the package derives is made by ``_made`` with no check,
    and certified by the law that covers it.
    """

    _fields = ("source", "target", "image")

    def __init__(
        self, source: FinitePoset, target: FinitePoset, image: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "image", tuple(image))
        if len(self.image) != self.source.n:
            raise RangeError("image tuple does not match the source size")
        target_n = self.target.n
        for value in self.image:
            _checked(value, "image value", 0, target_n)
        violation = _monotonicity_violation(source, target, self.image)
        if violation is not None:
            x, y = violation
            raise NotSpectralError(
                f"{x} <= {y} in the source but the images are unordered"
            )

    def __call__(self, element: int) -> int:
        """The image of a source element (``_checked``)."""
        return self.image[_checked(element, "element", 0, self.source.n)]

    def image_mask(self, subset: int) -> int:
        """Mask of images of the members of ``subset`` (``check_subset``)."""
        return mask_of(self.image[x] for x in iter_bits(check_subset(self.source, subset)))


def _made(source: FinitePoset, target: FinitePoset, image: tuple[int, ...]) -> MonotoneMap:
    """A map the package derived, with its fields set and not checked,
    one by one as the constructor sets them, to keep the shared-key dict."""
    f = object.__new__(MonotoneMap)
    object.__setattr__(f, "source", source)
    object.__setattr__(f, "target", target)
    object.__setattr__(f, "image", image)
    return f


def identity(poset: FinitePoset) -> MonotoneMap:
    return _made(poset, poset, tuple(range(poset.n)))


def compose(outer: MonotoneMap, inner: MonotoneMap) -> MonotoneMap:
    """The composite ``outer after inner``."""
    if inner.target != outer.source:
        raise CompositionMismatchError("middle posets differ")
    return _made(
        inner.source, outer.target, gather(outer.image, inner.image))


def _lift(
    source_space: PowerdomainSpace, target_space: PowerdomainSpace, image: tuple[int, ...]
) -> tuple[int, ...]:
    """The image tuple of the induced map of ``image`` between the bases
    of the two spaces, one big-integer OR per point.

    ``lift[x]`` is the down row of ``image[x]`` in the target base, so
    the down closure of the image of a point is its parent's closure OR
    ``lift`` of the one member the parent lacks
    (``PowerdomainSpace._parents``), in canonical order, so a parent is
    always closed first; then one ``point_index`` gather over the
    points, with no row of either space's order.  The induced map goes
    from ``source_space.order`` to ``target_space.order`` by
    construction, so inside the package it is this tuple alone; it is
    made a ``MonotoneMap`` only where it leaves the package.  It is not
    checked: ``functor-laws``, ``extension-minimality`` and
    ``lift-round-trip`` certify it, each on the spaces it holds.
    """
    lift = gather(target_space.base.down, image)
    parents, members = source_space._parents
    closed = [0]
    for parent, x in zip(parents, members):
        closed.append(closed[parent] | lift[x])
    del closed[0]
    return gather(target_space.point_index, closed)


@lru_cache(maxsize=128)
def _powerdomain_map(f: MonotoneMap, capacity: int) -> MonotoneMap:
    """``_lift`` on the spaces of ``f``'s source and target, as a map
    between their orders, cached for the 128 most recent maps.  It
    serves ``powerdomain_map``, ``check_functor_laws`` and ``smyth map
    apply``; the suite lifts on the spaces it already holds and reads no
    entry here."""
    source_space, target_space = build(f.source, capacity), build(f.target, capacity)
    return _made(source_space.order, target_space.order,
                 _lift(source_space, target_space, f.image))


def powerdomain_map(f: MonotoneMap, capacity: int | None = None) -> MonotoneMap:
    """The induced map of powerdomains: apply ``f``, close downward."""
    return _powerdomain_map(f, resolve_capacity(capacity))


def _identity_violation(space: PowerdomainSpace) -> dict | None:
    """The details of the identity law if the base of ``space`` breaks
    it, or None: the identity is lifted on ``space`` itself, so no lift
    cache keeps it, and its image must be every point in order."""
    n = space.base.n
    if _lift(space, space, tuple(range(n))) != tuple(range(len(space.points))):
        return {"law": "identity", "n": n}
    return None


def check_functor_laws(f: MonotoneMap, g: MonotoneMap) -> dict | None:
    """The first law of the powerdomain functor that ``f``, ``g`` break,
    as a dict of its name and witness, or None.

    Composition first: the composite of the images of the induced maps
    of ``f`` and ``g`` against the image of the induced map of
    ``compose(g, f)``, one lookup per point.  Then identity on the
    source, middle and target.
    """
    if f.target != g.source:
        raise CompositionMismatchError("maps do not compose")
    capacity = resolve_capacity(None)
    lifted_f, lifted_g, lifted_composite = (
        powerdomain_map(h, capacity).image for h in (f, g, compose(g, f)))
    composite_lifted = gather(lifted_g, lifted_f)
    if lifted_composite != composite_lifted:
        return {"law": "composition", "expected": list(lifted_composite),
                "got": list(composite_lifted)}
    for poset in dict.fromkeys((f.source, f.target, g.target)):
        violation = _identity_violation(build(poset, capacity))
        if violation is not None:
            return violation
    return None


class MonotoneRule:
    """The consistency rule of the monotone-map search.

    Points of the source are placed along its cached linear extension,
    so when a point comes up every element below it already has its
    image.  Its allowed values are those above the images of its lower
    covers (read off the source's cached ``lower_covers`` masks) and
    below the value of every anchor at or above it; an anchor itself
    allows only its own value.  Inconsistent anchors leave some point
    with nothing allowed.
    """

    def __init__(
        self, source: FinitePoset, anchors: dict[int, int], target: FinitePoset
    ) -> None:
        self.order = linear_extension(source)
        self.lower_covers = source.lower_covers
        self.ceiling = [target.full] * source.n
        for anchor, value in anchors.items():
            for x in iter_bits(source.down[anchor]):
                self.ceiling[x] &= target.down[value]
            self.ceiling[anchor] &= 1 << value
        self.target_up = target.up

    def allowed(self, x: int, image: list[int]) -> int:
        """Mask of the values ``x`` may take given the images below it."""
        mask = self.ceiling[x]
        covers = self.lower_covers[x]
        while covers:
            low = covers & -covers
            mask &= self.target_up[image[low.bit_length() - 1]]
            covers ^= low
        return mask


def anchored_extensions(
    source_order: FinitePoset,
    anchors: dict[int, int],
    target: FinitePoset,
    capacity: int | None = None,
) -> tuple[tuple[int, ...], ...]:
    """All monotone maps ``source_order -> target`` through given anchors.

    A depth-first walk along the rule's linear extension, trying each
    point's allowed values in ascending order; the stack holds the
    values still untried at every depth, so the walk needs no recursion.
    Results come back sorted by image tuple.
    """
    limit = resolve_capacity(capacity)
    rule = MonotoneRule(source_order, anchors, target)
    order = rule.order
    image = [0] * source_order.n
    found: list[tuple[int, ...]] = []
    untried = [rule.allowed(order[0], image)]
    while untried:
        mask = untried[-1]
        if not mask:
            untried.pop()
            continue
        low = mask & -mask
        untried[-1] = mask ^ low
        depth = len(untried)
        image[order[depth - 1]] = low.bit_length() - 1
        if depth < len(order):
            untried.append(rule.allowed(order[depth], image))
            continue
        found.append(tuple(image))
        if len(found) > limit:
            raise CapacityError(f"more than {limit} anchored extensions")
    return tuple(sorted(found))


def enumerate_extensions(
    f: MonotoneMap, capacity: int | None = None
) -> tuple[MonotoneMap, ...]:
    """Every monotone powerdomain map agreeing with ``f`` on principals,
    sorted by image tuple.

    The anchors are the principal points: ``phi(x)`` must go to
    ``phi(f(x))``.  The induced map of ``f`` is always among the
    extensions and is the pointwise least, the first in sorted order;
    ``check_minimality`` certifies that with no enumeration, so list
    them to inspect, not to check.  Both spaces are built under the
    default capacity; ``capacity`` bounds the search only.  For the
    identity, ``restricts-to-base`` of ``check_sigma_theorem`` is the
    retraction.
    """
    limit = resolve_capacity(capacity)
    default = limit if capacity is None else resolve_capacity(None)
    source_space, target_space = build(f.source, default), build(f.target, default)
    anchors = {point: target_space.phi_index[value]
               for point, value in zip(source_space.phi_index, f.image)}
    return tuple(_made(source_space.order, target_space.order, image)
                 for image in anchored_extensions(
                     source_space.order, anchors, target_space.order, limit))


def check_minimality(f: MonotoneMap, capacity: int | None = None) -> dict | None:
    """The first law of the induced map of ``f`` being its pointwise-least
    extension that breaks, as a dict of its name and witness, or None.

    Both spaces are built once, under the default capacity, and the
    induced map is lifted on them as its image tuple.  A map into the
    two-element chain that ``_least_into_the_chain`` certifies passes on
    one mask; ``capacity`` bounds only the count of its extensions.  Any
    other map is judged against ``least``, the sup extension of ``phi``
    after ``f``: one ``_sups`` fold over the points of the up rows of
    the principal points ``phi(f(x))``.  By the argument of
    ``check_sigma_theorem`` it is the least extension, so the first in
    sorted order.  An induced map off it that does not send
    ``phi(x)`` to ``phi(f(x))``, or is not monotone, breaks
    ``induced-map-is-an-extension``; any other breaks ``pointwise-least``
    at the first point where the two differ, with ``least`` as
    ``candidate``.
    """
    limit = resolve_capacity(capacity)
    default = limit if capacity is None else resolve_capacity(None)
    source_space, target_space = build(f.source, default), build(f.target, default)
    induced = _lift(source_space, target_space, f.image)
    if (f.target.n == 2 and f.target.up[0] == 0b11
            and _least_into_the_chain(f.image, induced, source_space, limit)):
        return None
    order = target_space.order
    principal = gather(target_space.phi_index, f.image)
    least = tuple(_sups(order, gather(order.up, principal), source_space.points))
    if induced == least:
        return None
    if (gather(induced, source_space.phi_index) != principal
            or _monotonicity_violation(source_space.order, order, induced) is not None):
        return {"law": "induced-map-is-an-extension"}
    point = next(p for p, (a, b) in enumerate(zip(induced, least)) if a != b)
    return {"law": "pointwise-least", "point": point, "candidate": list(least)}


def _least_into_the_chain(
    image: tuple[int, ...], induced: tuple[int, ...], space: PowerdomainSpace, limit: int
) -> bool:
    """Whether ``induced``, the lift on ``space`` of the map ``image``
    into the chain ``0 < 1``, is certified its least extension.

    An extension is fixed by its zero set, a down-set of ``space.order``
    that holds ``low``, the down rows of the principal points sent to 0,
    and misses ``banned``, the up rows of those sent to 1.  The largest
    is the complement of ``banned``, the basic open U(D) of the zero set
    D of ``image``, so the lift is least exactly when its image is 0 and
    1 alone and its zero set is U(D).  The extensions are the ``low | e``
    for ``e`` a down-set of the points in neither bound, ``rest``; when
    2 ** |rest| may be more than ``limit`` they are counted, so that a
    certified map with more than ``limit`` raises CapacityError.  A map
    it does not certify is judged by ``check_minimality`` on its sup
    extension, which names the law.
    """
    order = space.order
    low = banned = 0
    for point, value in zip(space.phi_index, image):
        if value:
            banned |= order.up[point]
        else:
            low |= order.down[point]
    zeros = mask_of(point for point, value in enumerate(induced) if not value)
    if (induced.count(0) + induced.count(1) != order.n
            or zeros != order.full & ~banned):
        return False
    rest = zeros & ~low
    if 1 << rest.bit_count() > limit:
        try:
            _down_sets_by_extension(order, rest, limit - 1)
        except CapacityError:
            raise CapacityError(f"more than {limit} anchored extensions") from None
    return True


def is_order_isomorphism(f: MonotoneMap) -> bool:
    """An order-embedding between posets of the same size: a bijection,
    monotone on the source's covers, onto as many comparable pairs."""
    return f.source.n == f.target.n and is_order_embedding(f.source, f.target, f.image)


def lift_homeomorphism(
    source_space: PowerdomainSpace,
    target_space: PowerdomainSpace,
    psi: MonotoneMap,
) -> MonotoneMap:
    """Recover the base map underneath an isomorphism of powerdomains.

    A homeomorphism of the point spaces must send principal points to
    principal points, because those are exactly the join-irreducible
    points, the ones with at most one lower cover (Birkhoff's theorem,
    the ``principal-iff-join-irreducible`` law of
    ``check_embedding_theorem``).  Reading off the generic points gives
    the unique base isomorphism inducing ``psi``, which
    ``is_order_isomorphism`` checks first, on covers and a pair count.
    The ``lift-round-trip`` property checks that lifting the induced map
    of a base isomorphism gives that isomorphism back.
    """
    if psi.source != source_space.order or psi.target != target_space.order:
        raise RangeError("the map does not connect the two given spaces")
    if not is_order_isomorphism(psi):
        raise NotIsomorphismError("the point map is not an order-isomorphism")
    principal_targets = {
        target_space.phi_index[z]: z for z in range(target_space.base.n)
    }
    image = []
    for x in range(source_space.base.n):
        value = psi.image[source_space.phi_index[x]]
        if value not in principal_targets:
            raise IrreducibilityError(
                f"the image of the principal point of {x} is not principal"
            )
        image.append(principal_targets[value])
    return _made(source_space.base, target_space.base, tuple(image))
