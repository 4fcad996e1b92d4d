"""Finite posets as bit-relation rows.

A finite T0 space is determined by its specialization order, so a poset
carries the whole topology: the open sets are exactly the down-sets and
every construction in this package reduces to order arithmetic.

Subsets are plain ints used as bit masks: bit ``i`` set means element
``i`` is a member.  Masks are arbitrary-precision, so posets are not
limited to machine-word size; the practical ceiling is the enumeration
capacity, not the mask width.
"""

from __future__ import annotations

import heapq
import os
from functools import cached_property
from typing import Iterable, Iterator

from .errors import CapacityError, CycleError, RangeError, _Value

# A built order holds two rows of N bits per point, about N**2 / 4
# bytes: 1 GB at 2**16 points, already 4 GiB at 2**17.
DEFAULT_CAPACITY = 1 << 16
CAPACITY_ENV_VAR = "SPECTRAL_CAPACITY"


def resolve_capacity(capacity: int | None) -> int:
    """Explicit argument, else the SPECTRAL_CAPACITY variable, else 2**16."""
    if capacity is not None:
        if capacity < 1:
            raise RangeError(f"capacity must be positive, got {capacity}")
        return capacity
    raw = os.environ.get(CAPACITY_ENV_VAR)
    if raw is None:
        return DEFAULT_CAPACITY
    try:
        value = int(raw)
    except ValueError as exc:
        raise RangeError(f"{CAPACITY_ENV_VAR} is not an integer: {raw!r}") from exc
    if value < 1:
        raise RangeError(f"{CAPACITY_ENV_VAR} must be positive, got {value}")
    return value


def mask_of(indices: Iterable[int]) -> int:
    """Bit mask with the given element indices set."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset(_Value):
    """A partial order on ``range(n)`` stored as bit rows both ways.

    ``up[i]`` is the mask of every ``j`` with ``i <= j`` and ``down[i]``
    the mask of every ``j`` with ``j <= i``.  Keeping both directions
    makes the two closure operators plain OR-folds over rows.

    Construction accepts exactly the rows where ``up`` is a partial order
    and ``down`` is its transpose: every row stays within ``range(n)``,
    ``up`` is reflexive, ``up[i] & down[i]`` is ``{i}`` alone
    (antisymmetry, else CycleError), and one pass of ``_check_rows``
    rebuilds each down row from the down rows of a few picked members,
    then each up row from the up rows of the elements that picked it
    (transitivity and the transpose, else ValueError).  When indices
    follow a linear extension, the picks are exactly the lower covers,
    so the check costs a few big-integer operations per cover edge, not
    per comparable pair; in other index orders it may pick more.
    """

    _fields = ("n", "up", "down", "labels")

    def __init__(
        self,
        n: int,
        up: tuple[int, ...],
        down: tuple[int, ...],
        labels: tuple[str, ...] | None = None,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "labels", labels)
        if self.n < 1:
            raise RangeError(f"a poset needs at least one element, got n={self.n}")
        if len(self.up) != self.n or len(self.down) != self.n:
            raise RangeError("relation rows do not match the element count")
        if self.labels is not None and len(self.labels) != self.n:
            raise RangeError("labels do not match the element count")
        for i in range(n):
            above, below = up[i], down[i]
            if (above < 0 or below < 0
                    or above.bit_length() > n or below.bit_length() > n):
                raise RangeError(f"row {i} mentions elements outside range(n)")
            if not above >> i & 1:
                raise RangeError(f"relation is not reflexive at {i}")
        for i in range(n):
            meet = up[i] & down[i]
            if meet != 1 << i:
                raise CycleError(
                    f"elements {i} and {next(iter_bits(meet ^ (1 << i)))} "
                    "are each below the other"
                )
        _check_rows(up, down)

    @classmethod
    def from_cover_relations(
        cls,
        n: int,
        pairs: Iterable[tuple[int, int]],
        labels: Iterable[str] | None = None,
    ) -> "FinitePoset":
        """Poset generated by ``i <= j`` for each pair ``(i, j)``.

        The pairs may be covers or any generating relations; their
        reflexive-transitive closure gives the ``up`` rows, each
        element's row folded into every row whose column holds it (n**2
        big-integer tests), and the ``down`` rows are its transpose.
        Unless indices follow a linear extension, validation may pick
        more than the covers.  Cyclic input raises CycleError from the
        constructor's antisymmetry check.
        """
        if n < 1:
            raise RangeError(f"a poset needs at least one element, got n={n}")
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise RangeError(f"relation ({i}, {j}) is out of range for n={n}")
            up[i] |= 1 << j
        for k in range(n):
            row_k = up[k]
            bit_k = 1 << k
            for i in range(n):
                if up[i] & bit_k:
                    up[i] |= row_k
        label_tuple = None if labels is None else tuple(labels)
        return cls(n, tuple(up), _transpose(up, n), label_tuple)

    # Equality and hashing are written out, not the _Value forms: posets
    # are lru_cache keys and are compared on every compose and lift.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.up, self.down, self.labels) == (
            other.n, other.up, other.down, other.labels)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields as one tuple, computed once per poset."""
        return hash((self.n, self.up, self.down, self.labels))

    @property
    def full(self) -> int:
        """Mask of all elements."""
        return (1 << self.n) - 1

    def leq(self, i: int, j: int) -> bool:
        """Whether ``i <= j``."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise RangeError(f"({i}, {j}) is out of range for n={self.n}")
        return bool(self.up[i] >> j & 1)

    @cached_property
    def upper_covers(self) -> tuple[int, ...]:
        """``upper_covers[i]`` is the mask of the elements covering ``i``.

        Computed once per poset.  The covers of ``i`` are the minimal
        members of ``up[i]`` minus ``i``: each round records the member
        ``_minimal`` finds and drops everything above it, an up-set, so a
        minimal remaining member is still a cover.  When indices follow a
        linear extension or its reverse, this costs a few big-integer
        operations per cover edge.
        """
        up, down = self.up, self.down
        covers = []
        for i, row in enumerate(up):
            remaining = row ^ (1 << i)
            found = 0
            while remaining:
                j = _minimal(down, remaining)
                found |= 1 << j
                remaining &= ~up[j]
            covers.append(found)
        return tuple(covers)

    @cached_property
    def lower_covers(self) -> tuple[int, ...]:
        """``lower_covers[j]`` is the mask of the elements ``j`` covers.

        Computed once per poset, as the transpose of ``upper_covers``:
        one big-integer OR per cover edge.
        """
        return _transpose(self.upper_covers, self.n)

    @cached_property
    def _linear_extension(self) -> tuple[int, ...]:
        """``pending[j]`` counts the lower covers of ``j`` not yet output;
        ``j`` joins the heap of eligible indices when it reaches 0."""
        pending = [mask.bit_count() for mask in self.lower_covers]
        eligible = [i for i, count in enumerate(pending) if not count]
        covers = self.upper_covers
        out = []
        while eligible:
            i = heapq.heappop(eligible)
            out.append(i)
            mask = covers[i]
            while mask:
                low = mask & -mask
                j = low.bit_length() - 1
                pending[j] -= 1
                if not pending[j]:
                    heapq.heappush(eligible, j)
                mask ^= low
        return tuple(out)

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """The covering pairs ``(i, j)``: ``i < j`` with nothing between.

        Sorted by ``i`` and then ``j``; read off ``upper_covers``.
        """
        return tuple(
            (i, j) for i, mask in enumerate(self.upper_covers) for j in iter_bits(mask)
        )

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)


def _check_rows(up: tuple[int, ...], down: tuple[int, ...]) -> None:
    """Rebuild the down rows from picked members, then the up rows.

    Each ``down[i]`` must be ``{i}`` plus the down rows of its picks, and
    the member picked next is the highest remaining index.  Each pick
    ``j`` of row ``i`` is recorded as ``i`` in ``upper[j]``, and then
    each ``up[j]`` must be ``{j}`` plus the up rows of ``upper[j]``, one
    OR per pick.  The constructor has already made every
    ``up[k] & down[k]`` equal to ``{k}``, so each pick leaves the
    remaining set.

    Why this is the whole check: along a cycle of the pick relation the
    two rebuilds would make the down rows equal and the up rows equal,
    so the up and down rows of each of its elements would share the
    whole cycle, which the constructor has ruled out.  On an acyclic
    relation each rebuild has one solution: ``down`` is the
    reflexive-transitive closure of the picks and ``up`` the closure of
    their converse.  So ``up`` is a partial order and ``down`` is its
    transpose.  Conversely, a partial order and its transpose pass both
    rebuilds.  Any pick would do.  When indices follow a linear
    extension, the highest remaining ``j`` is a lower cover of ``i``: a
    member between them has a higher index, so the picked row that
    dropped it dropped ``j`` too.  A cover is dropped only by its own
    pick, so the picks are exactly the lower covers, each one
    ``bit_length`` of a narrowing mask.  Other orders may pick more.
    """
    upper: list[list[int]] = [[] for _ in up]
    for i, row in enumerate(down):
        remaining = row ^ (1 << i)
        reached = 1 << i
        while remaining:
            j = remaining.bit_length() - 1
            upper[j].append(i)
            picked = down[j]
            reached |= picked
            remaining ^= remaining & picked
        if reached != row:
            raise ValueError(f"relation is not transitive below {i}")
    for j, picked_by in enumerate(upper):
        reached = 1 << j
        for i in picked_by:
            reached |= up[i]
        if reached != up[j]:
            raise ValueError("down rows are not the transpose of up rows")


def _transpose(rows: Iterable[int], width: int) -> tuple[int, ...]:
    """The ``width`` columns of a bit matrix: bit ``i`` of column ``j``
    is bit ``j`` of ``rows[i]``, one big-integer OR per set bit."""
    columns = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(columns)


def _minimal(down: tuple[int, ...], mask: int) -> int:
    """A minimal member of the nonempty ``mask``: from the lowest index,
    step to the highest member below until none is left, which takes no
    step when indices follow a linear extension."""
    j = (mask & -mask).bit_length() - 1
    below = down[j] & mask
    while below != 1 << j:
        j = (below ^ (1 << j)).bit_length() - 1
        below = down[j] & mask
    return j


def check_subset(poset: FinitePoset, subset: int) -> int:
    """Validate that ``subset`` only mentions elements of ``poset``."""
    if subset < 0 or subset & ~poset.full:
        raise RangeError(f"mask {subset:#x} is not a subset of range({poset.n})")
    return subset


def down_closure(poset: FinitePoset, subset: int) -> int:
    """Every element lying below some member of ``subset``."""
    check_subset(poset, subset)
    closed = 0
    for i in iter_bits(subset):
        closed |= poset.down[i]
    return closed


def is_down_set(poset: FinitePoset, subset: int) -> bool:
    """Whether ``subset`` is closed downward."""
    return down_closure(poset, subset) == subset


def order_dual(poset: FinitePoset) -> FinitePoset:
    """The same elements with the order reversed."""
    return FinitePoset(poset.n, poset.down, poset.up, poset.labels)


def _longest_chains(walk: Iterable[int], covers: tuple[int, ...]) -> tuple[int, ...]:
    """Length of the longest chain of ``covers`` edges ending at each element.

    ``walk`` visits each element after every element with an edge to
    it, and each element pushes its length plus one along its edges, so
    the cost is per cover edge, not per comparable pair: a longest
    chain to ``j`` ends in an edge from an element whose length is
    final by the time ``j`` comes up.
    """
    result = [0] * len(covers)
    for i in walk:
        above = result[i] + 1
        mask = covers[i]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            if result[j] < above:
                result[j] = above
            mask ^= low
    return tuple(result)


def heights(poset: FinitePoset) -> tuple[int, ...]:
    """Length of the longest chain strictly below each element: up a
    linear extension, over upper covers."""
    return _longest_chains(linear_extension(poset), poset.upper_covers)


def dimension(poset: FinitePoset) -> int:
    """Longest chain length minus one (the Krull dimension)."""
    return max(heights(poset))


def sup(poset: FinitePoset, subset: int) -> int | None:
    """Least upper bound of ``subset``, or None when there is none.

    One AND of an up row per member gives the common upper bounds, and
    ``_least`` picks their minimum; None covers both failure modes (no
    upper bound at all and no least one).  The empty subset always
    yields None here; callers wanting a bottom element must ask for it
    explicitly.
    """
    check_subset(poset, subset)
    if subset == 0:
        return None
    bounds = poset.full
    for i in iter_bits(subset):
        bounds &= poset.up[i]
    return _least(poset, bounds)


def _least(poset: FinitePoset, bounds: int) -> int | None:
    """The least member of the mask ``bounds``, or None.

    A least member is the only minimal one, so test the one ``_minimal``
    finds against the whole mask.
    """
    if not bounds:
        return None
    j = _minimal(poset.down, bounds)
    return j if bounds & ~poset.up[j] == 0 else None


def linear_extension(poset: FinitePoset) -> tuple[int, ...]:
    """A linear order refining the poset, smallest eligible index first.

    Every prefix of the result is a down-set.  Computed once per poset
    and cached on it, in O(E + N log N) for N elements and E cover
    edges: a min-heap holds the indices whose lower covers are all out.
    """
    return poset._linear_extension


def is_chain(poset: FinitePoset) -> bool:
    """Whether every two elements are comparable."""
    return dimension(poset) == poset.n - 1


def _signatures(poset: FinitePoset) -> tuple[tuple[int, int, int, int], ...]:
    """Down-set and up-set sizes, height and depth of each element.

    Depths are the heights of the dual order, read down the reversed
    linear extension over lower covers, with no second poset built.
    """
    hs = heights(poset)
    ds = _longest_chains(reversed(linear_extension(poset)), poset.lower_covers)
    return tuple(
        (poset.down[i].bit_count(), poset.up[i].bit_count(), hs[i], ds[i])
        for i in range(poset.n)
    )


def find_isomorphism(left: FinitePoset, right: FinitePoset) -> tuple[int, ...] | None:
    """An order-isomorphism ``left -> right`` as an image tuple, or None.

    Backtracking over elements with matching local invariants (down-set
    and up-set sizes, height, depth); the lexicographically first
    isomorphism in that search order is returned, so the result is
    deterministic.  ``tried[k]`` counts the candidates already tried at
    depth ``k``, so the search keeps its state without recursion.  A
    candidate's rows, cut to the values used, must be the images of the
    element's rows cut to the elements placed.
    """
    if left.n != right.n:
        return None
    sig_l = _signatures(left)
    sig_r = _signatures(right)
    if sorted(sig_l) != sorted(sig_r):
        return None
    by_signature: dict[tuple[int, int, int, int], list[int]] = {}
    for j, signature in enumerate(sig_r):
        by_signature.setdefault(signature, []).append(j)
    candidates = [by_signature[signature] for signature in sig_l]
    variable_order = sorted(range(left.n), key=lambda i: len(candidates[i]))
    placed = [0]
    for i in variable_order:
        placed.append(placed[-1] | 1 << i)
    image = [-1] * left.n
    used = 0
    tried = [0] * left.n
    k = 0
    while 0 <= k < left.n:
        i = variable_order[k]
        if image[i] >= 0:
            used ^= 1 << image[i]
            image[i] = -1
        above = mask_of(image[y] for y in iter_bits(left.up[i] & placed[k]))
        below = mask_of(image[y] for y in iter_bits(left.down[i] & placed[k]))
        options = candidates[i]
        while tried[k] < len(options):
            j = options[tried[k]]
            tried[k] += 1
            if (
                not used >> j & 1
                and right.up[j] & used == above
                and right.down[j] & used == below
            ):
                image[i] = j
                used |= 1 << j
                break
        if image[i] >= 0:
            k += 1
        else:
            tried[k] = 0
            k -= 1
    return tuple(image) if k == left.n else None


def is_order_embedding(
    source: FinitePoset, target: FinitePoset, image: tuple[int, ...]
) -> bool:
    """Whether ``x <= y`` exactly when ``image[x] <= image[y]``.

    True when injective and each up row maps onto its image's up row cut
    to the image: one compare per element, not per pair.
    """
    if len(set(image)) != source.n:
        return False
    carrier = mask_of(image)
    return all(
        mask_of(image[y] for y in iter_bits(row)) == target.up[image[x]] & carrier
        for x, row in enumerate(source.up)
    )


def relabel(poset: FinitePoset, image: tuple[int, ...]) -> FinitePoset:
    """Transport the order along a bijection ``i -> image[i]``.

    Up row ``image[i]`` is up row ``i`` with each bit ``j`` moved to
    ``image[j]``, one big-integer OR per comparable pair; the down rows
    are their transpose.  Unless ``image`` keeps a linear extension,
    validation may pick more than the covers.
    """
    if sorted(image) != list(range(poset.n)):
        raise RangeError("relabeling is not a bijection on range(n)")
    up = [0] * poset.n
    for i in range(poset.n):
        up[image[i]] = mask_of(image[j] for j in iter_bits(poset.up[i]))
    labels = None
    if poset.labels is not None:
        relabeled = [""] * poset.n
        for i in range(poset.n):
            relabeled[image[i]] = poset.labels[i]
        labels = tuple(relabeled)
    return FinitePoset(poset.n, tuple(up), _transpose(up, poset.n), labels)


def canonical_sort(masks: Iterable[int]) -> tuple[int, ...]:
    """Subset masks ordered by size then by mask value."""
    ordered = sorted(masks)
    ordered.sort(key=int.bit_count)
    return tuple(ordered)


def _down_sets_by_extension(poset: FinitePoset, carrier: int, limit: int) -> list[int]:
    """Grow the down-sets of the order induced on ``carrier`` one new
    maximal element at a time, as masks of ``poset``, the empty one first.

    Walking a linear extension guarantees each down-set is produced
    exactly once, so no non-down-set mask is ever touched.  The members
    of ``carrier`` in ``poset``'s linear extension are a linear
    extension of the induced order, so no sub-poset is built.
    """
    found = [0]
    for x in linear_extension(poset):
        bit = 1 << x
        if not carrier & bit:
            continue
        need = poset.down[x] & carrier & ~bit
        found.extend([d | bit for d in found if need & ~d == 0])
        if len(found) > limit + 1:
            raise CapacityError(
                f"more than {limit} down-sets on {carrier.bit_count()} elements"
            )
    return found


def enumerate_down_sets(
    poset: FinitePoset,
    include_empty: bool = True,
    capacity: int | None = None,
) -> tuple[int, ...]:
    """All down-set masks of ``poset`` in canonical order.

    Only genuine down-sets are generated, one new maximal element at a
    time along a linear extension, so the cost tracks the output size
    instead of 2**n.  CapacityError fires as soon as the count passes
    the budget.
    """
    limit = resolve_capacity(capacity)
    found = _down_sets_by_extension(poset, poset.full, limit)
    if not include_empty:
        found.remove(0)
    if len(found) > limit:
        raise CapacityError(f"more than {limit} down-sets on {poset.n} elements")
    return canonical_sort(found)
