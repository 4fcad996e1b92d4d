"""Extending maps along the powerdomain embedding via least upper bounds.

A map ``lambda: X -> Z`` extends to the powerdomain of ``X`` by sending
a point to the least upper bound of its image in ``Z``, whenever those
bounds exist.  The extension restricts to ``lambda`` on principal
points, factors through the powerdomain of the image, lies below every
other monotone extension, and is the only sup-preserving one.
"""

from __future__ import annotations

from .errors import CapacityError, RangeError, SigmaUndefinedError
from .maps import MonotoneMap, _made
from .poset import (
    FinitePoset,
    _down_sets_by_extension,
    _least,
    check_subset,
    resolve_capacity,
    sup,
)
from .powerdomain import PowerdomainSpace, build


def sigma_map(ambient: FinitePoset, carrier: int) -> dict[int, int | None]:
    """Sups of the inverse-closed subsets of ``carrier`` inside ``ambient``.

    Maps each nonempty subset of ``carrier`` (a mask in the ambient
    indexing) that is down-closed for the induced order, in canonical
    order, to its least upper bound in ``ambient``, or None where no
    such bound exists: partiality stays in-band.  The domain is grown
    on ambient masks, with no sub-poset built, and comes in canonical
    order as it is grown, one size level at a time; more down-sets than
    the capacity raise CapacityError.
    ``test_sigma_map_monotone_and_agrees_with_fold`` checks, over every
    labeled poset on at most four elements, that the defined values
    agree with a binary-sup fold and grow with the down-set.
    """
    check_subset(ambient, carrier)
    if carrier == 0:
        raise RangeError("the carrier must be nonempty")
    found = _down_sets_by_extension(ambient, carrier, resolve_capacity(None))
    return {member: sup(ambient, member) for member in found[1:]}


def lambda_sharp(f: MonotoneMap) -> MonotoneMap:
    """The sup extension of ``f`` to the powerdomain of its source.

    Each point maps to the sup of its image.  Defined when every
    inverse-closed subset E of the image has a sup, which is when every
    point's image has one: E is the image of the point of all that maps
    into E, and a point's image has the upper bounds of its down-closure
    in the image.  The first point with no sup raises SigmaUndefinedError
    with its image mask.  The space is ``build(f.source)`` under the
    default capacity, so a source whose powerdomain is over it raises
    CapacityError; past that nothing is enumerated.
    """
    space = build(f.source)
    target = f.target
    values = []
    for member in space.points:
        image = f.image_mask(member)
        value = sup(target, image)
        if value is None:
            raise SigmaUndefinedError(
                f"no sup for image subset {image:#x}", member_mask=image
            )
        values.append(value)
    return _made(space.order, target, tuple(values))


def is_sup_preserving(f: MonotoneMap, capacity: int | None = None) -> bool:
    """Whether ``f`` carries existing finite sups to sups of the images.

    Quantifies over every nonempty subset of the source that has a least
    upper bound.  A subset and its set of maximal elements share upper
    bounds, and their images share upper bounds too since ``f`` is
    monotone, so only antichains are enumerated; that covers all subsets.

    This is the definition, valid for any source; ``preserves_sups`` is
    the per-point test for maps out of a powerdomain.  The walk is depth
    first, a branch's children before its later siblings.  A stack entry
    holds the next index to try, the elements the chosen antichain
    blocks, and the upper-bound masks of the antichain and of its image,
    so each antichain costs one AND per side plus a ``_least`` on each.
    More than ``capacity`` antichains raise CapacityError.
    """
    limit = resolve_capacity(capacity)
    source, target, image = f.source, f.target, f.image
    n = source.n
    count = 0
    stack = [(0, 0, source.full, target.full)]
    while stack:
        start, blocked, bounds, image_bounds = stack.pop()
        i = start
        while i < n and blocked >> i & 1:
            i += 1
        if i == n:
            continue
        stack.append((i + 1, blocked, bounds, image_bounds))
        count += 1
        if count > limit:
            raise CapacityError(f"more than {limit} antichains")
        bounds &= source.up[i]
        image_bounds &= target.up[image[i]]
        bound = _least(source, bounds)
        if bound is not None and _least(target, image_bounds) != image[bound]:
            return False
        blocked |= source.up[i] | source.down[i]
        stack.append((i + 1, blocked, bounds, image_bounds))
    return True


def preserves_sups(space: PowerdomainSpace, f: MonotoneMap) -> bool:
    """Whether ``f``, a map out of ``space.order``, preserves nonempty sups.

    Each point I is the union of the principal points of its members,
    and principal points are join-prime among the down-sets.  So ``f``
    preserves every nonempty sup exactly when ``f(I)`` is the least
    upper bound of the ``f(phi(x))`` for x in I, at every point I.  The
    empty point of a hat space is skipped: it is no nonempty sup.  That
    is one AND of a target up row per member and one ``_least`` per
    point, with no enumeration, so no capacity applies.  Any other
    source raises RangeError; ``is_sup_preserving`` tests those.
    """
    if f.source != space.order:
        raise RangeError("the map's source is not the order of the given space")
    target = f.target
    principal_up = [target.up[f.image[p]] for p in space.phi_index]
    for point, member in enumerate(space.points):
        if not member:
            continue
        bounds = target.full
        while member:
            low = member & -member
            bounds &= principal_up[low.bit_length() - 1]
            member ^= low
        if _least(target, bounds) != f.image[point]:
            return False
    return True


def check_sigma_theorem(f: MonotoneMap, sharp: MonotoneMap) -> dict | None:
    """The first law of the universal property of the sup extension that
    ``sharp``, the sup extension ``lambda_sharp(f)``, breaks, as a dict
    of its name and witness, or None.

    The laws are two per-point facts: ``sharp`` restricts to the base map
    on principal points (``restricts-to-base``) and preserves sups
    (``sup-preserving``, the per-point ``preserves_sups``).  Those two
    facts give the rest with no search over extensions.  For x in a
    point I we have phi(x) <= I, so every monotone extension F has
    F(I) >= lambda(x) for each such x, hence F(I) >= sharp(I): the sup
    extension is pointwise least.  A sup-preserving extension G has
    G(I) = sup of the lambda(x), x in I, which is sharp(I): it is the
    only sup-preserving extension.  For the identity map
    ``restricts-to-base`` is the retraction: the sup of a principal
    down-set is its generator.  The space is ``build(f.source)`` under
    the default capacity, so a source whose powerdomain is over it
    raises CapacityError; past that nothing is enumerated.
    """
    space = build(f.source)
    for x in range(f.source.n):
        if sharp.image[space.phi_index[x]] != f.image[x]:
            return {"law": "restricts-to-base", "element": x}
    if not preserves_sups(space, sharp):
        return {"law": "sup-preserving"}
    return None
