"""The powerdomain of a finite spectral space.

The points are the nonempty inverse-closed subsets of the base, which
here means the nonempty down-sets, ordered by inclusion.  The topology
generated by the basic opens ``{points contained in a fixed open}``
turns the inclusion order back into a specialization order, so the
whole space is again described by a finite poset, and the base embeds
into it by sending each element to its principal down-set.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from typing import Iterator

from .errors import CapacityError, NotOpenError, _Value
from .poset import (
    FinitePoset,
    _canonical_key,
    _checked,
    _minimal,
    _transpose,
    enumerate_down_sets,
    gather,
    is_down_set,
    is_order_embedding,
    iter_bits,
    mask_of,
    order_dual,
    resolve_capacity,
)


class PowerdomainSpace(_Value):
    """A built powerdomain.

    ``points`` lists the member masks in canonical order (size, then
    mask value), ``order`` is the inclusion order on point indices, and
    ``phi_index[x]`` locates the principal down-set of element ``x``.
    The order answers ``leq`` from the point masks and builds each row
    family, which its covers are read off, on its first read, and
    ``point_index``, the dict from each point's mask to its index, is
    made on its first lookup.  The plain construction has no empty
    point; the hatted variant adds mask 0 as a bottom point.  Spaces
    compare and hash by identity, so two builds of one base give the
    same space only while it is still among the 16 that ``_build``
    caches; their orders compare by structure.
    """

    _fields = ("base", "points", "order", "phi_index")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        base: FinitePoset,
        points: tuple[int, ...],
        order: FinitePoset,
        phi_index: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "phi_index", phi_index)

    @cached_property
    def point_index(self) -> dict[int, int]:
        """Each point's mask to its index, made on first lookup: only
        lifts and the Vietoris open of a point look one up by its mask."""
        return {mask: i for i, mask in enumerate(self.points)}

    @cached_property
    def _columns(self) -> tuple[int, ...]:
        """Each base element's membership column, the mask of the points
        that contain it: the transpose of the point masks, made on first
        use for basic opens and the containment certificate."""
        return _transpose(self.points, self.base.n)

    @cached_property
    def _parents(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Each point as a parent point plus one member, for folds that
        take one OR per point.

        The parent of point ``i`` is the point minus one maximal member
        ``members[i]``, which ``_minimal`` finds on the base's up rows;
        ``parents[i]`` is its index plus one, and 0 (the empty set) for
        a one-member point.  Parents come first in canonical order.
        Read off the point masks and ``point_index`` on first use, with
        no rows, for a space of nonempty points as ``build`` makes it; a
        lift reads this first, so it makes its source space's index.
        """
        up, point_index = self.base.up, self.point_index
        parents, members = [], []
        for point in self.points:
            x = _minimal(up, point)
            parents.append(point_index.get(point ^ (1 << x), -1) + 1)
            members.append(x)
        return tuple(parents), tuple(members)

    def point_label(self, index: int) -> str:
        """Brace rendering of a point's member set, e.g. ``{a,b}``, named
        as ``label_of`` names them; only the index is checked (``_checked``)."""
        members = tuple(iter_bits(self.points[_checked(index, "point", 0, len(self.points))]))
        names = gather(self.base.labels or range(self.base.n), members)
        return "{" + ",".join(map(str, names)) + "}"


class _InclusionOrder(FinitePoset):
    """The inclusion order on a space's points, read off their masks.

    The points are the down-sets of ``base`` (nonempty, or every one in
    the hat space), so the masks alone fix the order: ``leq`` is
    containment.  Each row family is made on its first read, unchecked,
    by ``_up_rows`` or ``_down_rows`` over the points' membership
    columns, and kept; ``check_embedding_theorem`` certifies the rows
    against the same two routines.  The covers and the linear extension
    are read off them as usual; canonical order puts every proper subset
    first, so index order is a linear extension and the sort returns it.
    """

    def __init__(self, base: FinitePoset, points: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", len(points))
        object.__setattr__(self, "labels", None)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "points", points)

    @cached_property
    def _columns(self) -> tuple[int, ...]:
        """The membership columns of the points, made on the first read
        of either row family, so a second family transposes nothing."""
        return _transpose(self.points, self.base.n)

    @cached_property
    def up(self) -> tuple[int, ...]:
        """Each point's up row, made on first read."""
        return tuple(_up_rows(self._columns, self.points))

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Each point's down row, made on first read."""
        return tuple(_down_rows(self._columns, self.points))

    def leq(self, i: int, j: int) -> bool:
        """Whether point ``i`` is contained in point ``j`` (``_checked``)."""
        i, j = _checked(i, "point", 0, self.n), _checked(j, "point", 0, self.n)
        return self.points[i] & ~self.points[j] == 0


def _up_rows(columns: tuple[int, ...], points: tuple[int, ...]) -> Iterator[int]:
    """Each point's up row, in point order: the points that hold all of
    its members, the AND of their membership columns ``columns``."""
    every = (1 << len(points)) - 1
    for point in points:
        row = every
        for x in iter_bits(point):
            row &= columns[x]
        yield row


def _down_rows(columns: tuple[int, ...], points: tuple[int, ...]) -> Iterator[int]:
    """Each point's down row, in point order: the points inside it, its
    basic open, the complement of the OR of its non-members' columns."""
    every, full = (1 << len(points)) - 1, (1 << len(columns)) - 1
    for point in points:
        hit = 0
        for y in iter_bits(full ^ point):
            hit |= columns[y]
        # The XOR keeps the allocation of the full-width ``every``;
        # negating twice copies the row at its own width, so a kept row
        # carries no slack.
        yield -(-(every ^ hit))


def _assemble(base: FinitePoset, points: tuple[int, ...]) -> PowerdomainSpace:
    """The space on ``points``, whose order computes no rows yet.

    ``points`` must be down-sets in canonical order (size, then mask
    value), as ``enumerate_down_sets`` returns them, with every
    principal down-set among them.  Each ``phi_index`` entry is then a
    binary search on that order, so a build is the enumeration and n
    searches of log N steps.  The order's up rows and down rows, each
    made on its first read from the membership columns, cost N**2 / 8
    bytes apiece and the point index a dict entry per point, and most
    callers of a large build read none of them.
    """
    order = _InclusionOrder(base, points)
    phi = tuple(bisect_left(points, _canonical_key(m), key=_canonical_key)
                for m in base.down)
    return PowerdomainSpace(base, points, order, phi)


@lru_cache(maxsize=16)
def _build(base: FinitePoset, include_empty: bool, capacity: int) -> PowerdomainSpace:
    """The space every builder returns, cached for the 16 most recent
    keys: a suite reads four spaces per payload, so this holds four
    payloads' spaces, and a process keeps no space past them.  The suite
    lifts on the spaces it holds, so no lift of its own pins an older
    space's order; only the public lift cache of
    ``maps._powerdomain_map`` keeps lifts, and their orders, past it."""
    masks = enumerate_down_sets(base, include_empty, capacity)
    return _assemble(base, masks)


def build(base: FinitePoset, capacity: int | None = None) -> PowerdomainSpace:
    """Powerdomain on the nonempty down-sets of ``base``.

    ``build(base) is build(base)`` holds only while the space is still
    cached; see ``_build``.
    """
    return _build(base, False, resolve_capacity(capacity))


def hat_powerdomain(base: FinitePoset, capacity: int | None = None) -> PowerdomainSpace:
    """The powerdomain extended with the empty set as a bottom point.

    The empty mask is itself open, and the set of points contained in it
    is exactly the new bottom, so the plain powerdomain sits inside as
    the closed complement of that basic open.  The ``zariski-equals-vietoris``
    property checks that bottom.
    """
    return _build(base, True, resolve_capacity(capacity))


def inverse_powerdomain(base: FinitePoset, capacity: int | None = None) -> PowerdomainSpace:
    """Powerdomain of the inverse space: points are nonempty up-sets."""
    return _build(order_dual(base), False, resolve_capacity(capacity))


def phi(space: PowerdomainSpace, element: int) -> int:
    """Index of the point that is the principal down-set of ``element``."""
    return space.phi_index[_checked(element, "element", 0, space.base.n)]


def _check_open(space: PowerdomainSpace, omega: int) -> None:
    """Raise unless ``omega`` is an open of the base: a down-set mask.

    ``is_down_set`` raises RangeError first on what ``check_subset`` rejects.
    """
    if not is_down_set(space.base, omega):
        raise NotOpenError(f"mask {omega:#x} is not a down-set of the base")


def _points_inside(space: PowerdomainSpace, omega: int) -> int:
    """The points contained in ``omega``, as a mask of point indices.

    A point lies inside ``omega`` when it misses every element outside
    it, so the mask is the AND of those elements' complemented
    membership columns, taken as the complement of their OR: one
    big-integer OR per element, with no scan of the points.  ``omega``
    is not checked.
    """
    column = space._columns
    hit = 0
    for y in iter_bits(space.base.full ^ omega):
        hit |= column[y]
    return ((1 << len(space.points)) - 1) ^ hit


def _points_below(space: PowerdomainSpace, omega: int) -> int:
    """The points below ``omega`` in the order, as a mask of point
    indices: its down row when ``omega`` is a point, else 0 (only the
    empty open of a plain space is none).  ``omega`` is not checked."""
    index = space.point_index.get(omega)
    return 0 if index is None else space.order.down[index]


def basic_open(space: PowerdomainSpace, omega: int) -> frozenset[int]:
    """Indices of the points contained in the open ``omega``.

    These sets form the defining basis of the powerdomain topology.
    Read off the membership columns by ``_points_inside``.
    """
    _check_open(space, omega)
    return frozenset(iter_bits(_points_inside(space, omega)))


def vietoris_open(space: PowerdomainSpace, omega: int) -> frozenset[int]:
    """The upper-Vietoris open of ``omega``: hit-free containment.

    Computed through the inclusion order (the down row of ``omega``
    seen as a point) rather than from the members.  The
    ``zariski-equals-vietoris`` property checks that it equals
    ``basic_open`` on every open, so the two topologies agree.
    """
    _check_open(space, omega)
    return frozenset(iter_bits(_points_below(space, omega)))


def is_phi_surjective(space: PowerdomainSpace) -> bool:
    """Whether every point is principal; true exactly for chain bases.

    The ``phi-onto-iff-chain`` property checks the chain claim.
    """
    return len(set(space.phi_index)) == len(space.points)


def powerdomain_dimension(space: PowerdomainSpace) -> int:
    """Dimension of the powerdomain: the longest point chain minus one.

    Down-sets are graded by size, as ``I`` is covered by ``I | {x}`` for
    each minimal non-member ``x`` (Habib, Medina, Nourine and Steiner,
    Discrete Appl. Math. 2001), and canonical order puts a smallest
    point first and the full set last.  Reads neither rows nor covers.
    """
    points = space.points
    return points[-1].bit_count() - points[0].bit_count()


def iterate_sizes(
    base: FinitePoset, k: int, capacity: int | None = None
) -> tuple[int, ...]:
    """Point counts along repeated application of the construction.

    Entry 0 is the size of ``base``, entry ``j`` the size of the j-fold
    powerdomain.  When a stage would exceed the capacity, the sizes stop
    at the last finished stage, so fewer than ``k + 1`` entries mean the
    iteration was cut short.

    A stage's growth is its count of antichains of two or more members.
    Growth of at most one means at most one incomparable pair, which
    the construction keeps, so once a stage grows by at most one every
    later stage grows by that same amount: those sizes are counted on,
    and nothing past that stage is built.
    """
    _checked(k, "iteration count", 0)
    limit = resolve_capacity(capacity)
    sizes = [base.n]
    current = base
    for _ in range(k):
        if len(sizes) > 1 and sizes[-1] - sizes[-2] <= 1:
            size = 2 * sizes[-1] - sizes[-2]
        else:
            try:
                space = build(current, limit)
            except CapacityError:
                break
            size, current = len(space.points), space.order
        if size > limit:
            break
        sizes.append(size)
    return tuple(sizes)


def check_embedding_theorem(space: PowerdomainSpace) -> dict | None:
    """The first law of the embedding package that ``space`` breaks, as
    a dict of its name and witness, or None.

    Checks, in order: each point's up row in the order is the AND of its
    members' membership columns, and then each down row is its basic
    open, the AND of the complemented columns of its non-members, so the
    order is containment of points and its rows are each other's
    transpose; the principal-point map is an order-embedding (injective,
    reflecting the order both ways) and pulls every basic open back to
    exactly its defining open; the space has one maximal point, the full
    set; every nonempty basic open contains a principal point, so the
    image of the base is dense; and the principal points are exactly the
    join-irreducible ones, those with at most one lower cover
    (Birkhoff's theorem: the down-set of ``x`` covers at most itself
    minus ``x``, and a down-set with several maximal members covers
    itself minus each of them).  The pullback is read transposed: the
    certified up row of ``phi(x)`` must be the membership column of
    ``x``.  Under it a basic open misses every principal point only when
    its open is empty, so density fails exactly on an empty point.

    A built order's rows come from the same two routines, so there the
    law certifies that the stored rows are still theirs, and elsewhere a
    foreign order's rows against them; the tests compare the routines
    with an independent route, the lattice recurrence.

    A malformed space fails a law too, rather than raising: every row
    can be computed from any point list, so points out of canonical
    order reach a later law, and a ``phi_index`` entry past the last
    point fails ``order-embedding``.
    """
    base = space.base
    up, column = space.order.up, space._columns
    # Point i lies below the points that hold all of its members, and
    # above those inside it, its basic open: the rows ``_up_rows`` and
    # ``_down_rows`` make from the membership columns, compared one at a
    # time.  A witness is a pair (left, right) whose "left <= right" the
    # stored rows misread.
    for i, above in enumerate(_up_rows(column, space.points)):
        wrong = up[i] ^ above
        if wrong:
            return {"law": "order-is-containment",
                    "left": i, "right": (wrong & -wrong).bit_length() - 1}
    for i, inside in enumerate(_down_rows(column, space.points)):
        wrong = space.order.down[i] ^ inside
        if wrong:
            return {"law": "order-is-containment",
                    "left": (wrong & -wrong).bit_length() - 1, "right": i}

    try:
        embeds = is_order_embedding(base, space.order, space.phi_index)
    except IndexError:
        embeds = False
    if not embeds:
        return {"law": "order-embedding"}
    # The points above phi(x) must be the points that hold x.
    wrong = 0
    for x, i in enumerate(space.phi_index):
        wrong |= up[i] ^ column[x]
    if wrong:
        return {"law": "basic-open-pullback",
                "open": space.points[(wrong & -wrong).bit_length() - 1]}

    maximal = [
        i for i in range(len(space.points))
        if up[i] == 1 << i
    ]
    if len(maximal) != 1 or space.points[maximal[0]] != base.full:
        return {"law": "unique-maximal-point", "maximal": maximal}

    if 0 in space.points:
        return {"law": "density", "open": 0}

    principal = mask_of(space.phi_index)
    for i, covers in enumerate(space.order.lower_covers):
        if bool(principal >> i & 1) != (covers.bit_count() <= 1):
            return {"law": "principal-iff-join-irreducible", "point": i}

    return None
