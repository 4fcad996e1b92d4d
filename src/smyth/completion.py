"""Extending maps along the powerdomain embedding via least upper bounds.

A map ``lambda: X -> Z`` extends to the powerdomain of ``X`` by sending
a point to the least upper bound of its image in ``Z``, whenever those
bounds exist.  The extension restricts to ``lambda`` on principal
points, factors through the powerdomain of the image, lies below every
other monotone extension, and is the only sup-preserving one.
"""

from __future__ import annotations

from .errors import RangeError, SigmaUndefinedError
from .maps import MonotoneMap, _made
from .poset import (
    FinitePoset,
    _down_sets_by_extension,
    _sups,
    check_subset,
    gather,
    resolve_capacity,
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
    the capacity raise CapacityError.  The values are one ``_sups``
    fold on the ambient up rows.
    ``test_sigma_map_monotone_and_agrees_with_fold`` checks, over every
    labeled poset on at most four elements, that the defined values
    agree with a binary-sup fold and grow with the down-set.
    """
    check_subset(ambient, carrier)
    if carrier == 0:
        raise RangeError("the carrier must be nonempty")
    found = _down_sets_by_extension(ambient, carrier, resolve_capacity(None))[1:]
    return dict(zip(found, _sups(ambient, ambient.up, found)))


def lambda_sharp(f: MonotoneMap) -> MonotoneMap:
    """The sup extension of ``f`` to the powerdomain of its source.

    Each point maps to the sup of its image: one ``_sups`` fold of the
    target up rows of the images over the points.  Defined when every
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
    values = _sups(target, gather(target.up, f.image), space.points)
    if None in values:
        image = f.image_mask(space.points[values.index(None)])
        raise SigmaUndefinedError(f"no sup for image subset {image:#x}", member_mask=image)
    return _made(space.order, target, tuple(values))


def is_sup_preserving(f: MonotoneMap, capacity: int | None = None) -> bool:
    """Whether ``f`` carries existing finite sups to sups of the images.

    Quantifies over every nonempty subset of the source that has a least
    upper bound.  A subset has the upper bounds of its down-closure, and
    its image has those of the down-closure's image since ``f`` is
    monotone, so only the nonempty down-sets are enumerated; that covers
    all subsets.  Two ``_sups`` folds over them, the source sups and the
    target sups of the images, are then compared.

    This is the definition, valid for any source; ``preserves_sups`` is
    the per-point test for maps out of a powerdomain.  The down-sets are
    all listed before any is compared, so a source with more than
    ``capacity`` nonempty down-sets raises CapacityError, as "more than
    {capacity} down-sets on {n} elements", even when a small one
    already breaks the law.
    """
    source, target = f.source, f.target
    found = _down_sets_by_extension(source, source.full, resolve_capacity(capacity))[1:]
    sups = _sups(source, source.up, found)
    image_sups = _sups(target, gather(target.up, f.image), found)
    return all(bound is None or image_sup == f.image[bound]
               for bound, image_sup in zip(sups, image_sups))


def preserves_sups(space: PowerdomainSpace, f: MonotoneMap) -> bool:
    """Whether ``f``, a map out of ``space.order``, preserves nonempty sups.

    Each point I is the union of the principal points of its members,
    and principal points are join-prime among the down-sets.  So ``f``
    preserves every nonempty sup exactly when ``f(I)`` is the least
    upper bound of the ``f(phi(x))`` for x in I, at every point I: one
    ``_sups`` fold of the target up rows of those images over the
    points.  The empty point of a hat space is skipped: it is no
    nonempty sup.  Nothing is enumerated, so no capacity applies.  Any
    other source raises RangeError; ``is_sup_preserving`` tests those.
    """
    if f.source != space.order:
        raise RangeError("the map's source is not the order of the given space")
    target = f.target
    rows = gather(target.up, gather(f.image, space.phi_index))
    return all(value == found for member, value, found in zip(
        space.points, f.image, _sups(target, rows, space.points)) if member)


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
