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

import os
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapacityError, CycleError, NotAnOrderError, RangeError, _Value

# A built powerdomain keeps its N point masks.  Its order's rows, built
# on first read, hold two N-bit rows per point, about N**2 / 4 bytes:
# 1 GB at 2**16 points, already 4 GiB at 2**17.  Its covers are read
# off those rows; its dimension, from the grading, reads neither.
DEFAULT_CAPACITY = 1 << 16
CAPACITY_ENV_VAR = "SPECTRAL_CAPACITY"


def resolve_capacity(capacity: int | None) -> int:
    """Explicit argument, else the SPECTRAL_CAPACITY variable, else 2**16."""
    if capacity is not None:
        return _checked(capacity, "capacity", 1)
    raw = os.environ.get(CAPACITY_ENV_VAR)
    if raw is None:
        return DEFAULT_CAPACITY
    try:
        value = int(raw)
    except ValueError as exc:
        raise RangeError(f"{CAPACITY_ENV_VAR} is not an integer: {raw!r}") from exc
    return _checked(value, CAPACITY_ENV_VAR, 1)


def _is_int(value: object) -> bool:
    """An ``int`` that is not a ``bool``: a value a document holds."""
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(value: object, what: str, low: int, high: int | None = None) -> int:
    """``value`` when it is an ``int`` (a ``bool`` is not one) with
    ``low <= value``, and ``value < high`` when ``high`` is given, else
    RangeError naming ``what``: the entry check of every count, element
    index and mask a public function takes."""
    if (isinstance(value, int) and not isinstance(value, bool) and low <= value
            and (high is None or value < high)):
        return value
    bounds = f">= {low}" if high is None else f"in range({low}, {high})"
    raise RangeError(f"{what} must be an int {bounds}, got {value!r}")


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


def gather(values: Sequence | Mapping, indices: Sequence[int]) -> tuple:
    """``values[i]`` for each ``i`` of the sequence ``indices``, as a
    tuple: one ``itemgetter`` call from two indices on.  A missing index
    raises the ``KeyError`` or ``IndexError`` of ``values``."""
    if len(indices) > 1:
        return itemgetter(*indices)(values)
    return (values[indices[0]],) if indices else ()


class FinitePoset(_Value):
    """A partial order on ``range(n)`` stored as bit rows both ways.

    ``up[i]`` is the mask of every ``j`` with ``i <= j`` and ``down[i]``
    the mask of every ``j`` with ``j <= i``.  Keeping both directions
    makes the two closure operators plain OR-folds over rows.

    The constructor is the entry check, for rows that come from outside
    the package.  It accepts an ``int`` count and rows, masks within
    ``range(n)`` (``_checked``: a ``bool`` is no ``int``), and ``str``
    labels, else RangeError, and exactly the rows where ``up`` is a
    partial order and ``down`` is its transpose: ``up`` is reflexive,
    ``up[i] & down[i]`` is ``{i}`` alone (antisymmetry, else
    CycleError), and one pass of
    ``_check_rows`` rebuilds each down row from the down rows of a few
    picked members, then each up row from the up rows of the elements
    that picked it (transitivity and the transpose, else
    NotAnOrderError).  When indices follow a linear extension, the picks
    are exactly the lower covers, so the check costs a few big-integer
    operations per cover edge, not per comparable pair; in other index
    orders it may pick more.

    Every poset the package derives (a dual, a relabeling, a generated
    poset) is made by ``_made_poset`` with no check.  The order of a
    built powerdomain is a subclass that makes its rows on first read,
    also unchecked; the ``order-is-containment`` law certifies them.
    Equality and hashing are by value, so either equals the
    ``FinitePoset`` with the same rows.
    """

    _fields = ("n", "up", "down", "labels")

    def __init__(
        self,
        n: int,
        up: tuple[int, ...],
        down: tuple[int, ...],
        labels: tuple[str, ...] | None = None,
    ) -> None:
        up, down = tuple(up), tuple(down)
        if labels is not None:
            labels = tuple(labels)
        _checked(n, "n", 1)
        if len(up) != n or len(down) != n:
            raise RangeError("relation rows do not match the element count")
        if labels is not None and (
                len(labels) != n or not all(isinstance(label, str) for label in labels)):
            raise RangeError("labels must be n strings")
        high = 1 << n
        for i in range(n):
            _checked(down[i], f"down row {i}", 0, high)
            if not _checked(up[i], f"up row {i}", 0, high) >> i & 1:
                raise RangeError(f"relation is not reflexive at {i}")
        for i in range(n):
            meet = up[i] & down[i]
            if meet != 1 << i:
                raise CycleError(
                    f"elements {i} and {next(iter_bits(meet ^ (1 << i)))} "
                    "are each below the other"
                )
        _check_rows(up, down)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "labels", labels)

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
        Unless indices follow a linear extension, the constructor's check
        may pick more than the covers.  Cyclic input raises CycleError
        from its antisymmetry check.
        """
        up = [1 << i for i in range(_checked(n, "n", 1))]
        for i, j in pairs:
            i, j = _checked(i, "relation index", 0, n), _checked(j, "relation index", 0, n)
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
    # are lru_cache keys and are compared on every compose.
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, FinitePoset):
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
        """Whether ``i <= j``, for elements ``i`` and ``j`` (``_checked``)."""
        i, j = _checked(i, "element", 0, self.n), _checked(j, "element", 0, self.n)
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
        """The indices sorted by the highest index in each down row, then
        by its size, read off ``down`` alone."""
        down = self.down
        return tuple(sorted(
            range(self.n), key=lambda i: (down[i].bit_length(), down[i].bit_count())))

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """The covering pairs ``(i, j)``: ``i < j`` with nothing between.

        Sorted by ``i`` and then ``j``; read off ``upper_covers``.
        """
        return tuple(
            (i, j) for i, mask in enumerate(self.upper_covers) for j in iter_bits(mask)
        )

    def label_of(self, i: int) -> str:
        """The label of element ``i`` (``_checked``), else ``str(i)``."""
        i = _checked(i, "element", 0, self.n)
        return self.labels[i] if self.labels is not None else str(i)


def _made_poset(
    n: int,
    up: tuple[int, ...],
    down: tuple[int, ...],
    labels: tuple[str, ...] | None = None,
) -> FinitePoset:
    """A poset the package derived, with its fields set and not checked.

    The fields are set one by one, as the constructor sets them, so the
    instance keeps the class's shared-key dict: filling ``__dict__`` at
    once makes a private dict about 80 bytes larger per poset.
    """
    poset = object.__new__(FinitePoset)
    object.__setattr__(poset, "n", n)
    object.__setattr__(poset, "up", up)
    object.__setattr__(poset, "down", down)
    object.__setattr__(poset, "labels", labels)
    return poset


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
            raise NotAnOrderError(f"relation is not transitive below {i}")
    for j, picked_by in enumerate(upper):
        reached = 1 << j
        for i in picked_by:
            reached |= up[i]
        if reached != up[j]:
            raise NotAnOrderError("down rows are not the transpose of up rows")


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
    """``subset`` when it is a mask of elements of ``poset``, else RangeError."""
    return _checked(subset, "mask", 0, 1 << poset.n)


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
    return _made_poset(poset.n, poset.down, poset.up, poset.labels)


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

    One mask through ``_sups`` on the poset's own up rows; None covers
    both failure modes (no upper bound at all and no least one).  The
    empty subset always yields None here; callers wanting a bottom
    element must ask for it explicitly.
    """
    check_subset(poset, subset)
    return _sups(poset, poset.up, (subset,))[0] if subset else None


def _sups(target: FinitePoset, rows: Sequence[int], masks: Iterable[int]) -> list[int | None]:
    """For each mask, the ``_least`` of the AND of ``rows[x]`` over its
    members, or None: with ``rows`` ``target.up``, the mask's sup; with
    ``gather(target.up, values)``, the sup of its image under ``values``.
    The empty mask gives the least element of ``target``, if any."""
    full = target.full
    found = []
    for mask in masks:
        bounds = full
        while mask:
            low = mask & -mask
            bounds &= rows[low.bit_length() - 1]
            mask ^= low
        found.append(_least(target, bounds))
    return found


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
    """A linear order refining the poset: the indices stably sorted by
    the highest index in each down row and then by the row's size.

    If ``y < x`` then ``down[y]`` is a proper subset of ``down[x]``, so
    the key strictly increases along the order and every prefix of the
    result is a down-set.  When index order is already a linear
    extension, the highest index in ``down[i]`` is ``i``, so the result
    is ``range(n)``.  Computed once per poset and cached on it.
    """
    return poset._linear_extension


def is_chain(poset: FinitePoset) -> bool:
    """Whether every two elements are comparable: each element's up and
    down rows together cover the whole poset."""
    full = poset.full
    return all(u | d == full for u, d in zip(poset.up, poset.down))


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


def _monotonicity_violation(
    source: FinitePoset, target: FinitePoset, image: tuple[int, ...]
) -> tuple[int, int] | None:
    """A cover ``x < y`` of the source whose images are unordered, or None.

    Covers suffice: every comparable pair is joined by a chain of covers,
    and the target order is transitive.  Shared by ``MonotoneMap``.
    """
    target_up = target.up
    for x, covers in enumerate(source.upper_covers):
        fx_up = target_up[image[x]]
        while covers:
            low = covers & -covers
            y = low.bit_length() - 1
            if not fx_up >> image[y] & 1:
                return x, y
            covers ^= low
    return None


def is_order_embedding(
    source: FinitePoset, target: FinitePoset, image: tuple[int, ...]
) -> bool:
    """Whether ``x <= y`` exactly when ``image[x] <= image[y]``.

    True when injective, monotone on the source's covers, and holding as
    many comparable pairs as the source, which a monotone injection then
    hits one-to-one, so it reflects the order.  No mask per pair.
    """
    if len(set(image)) != source.n or _monotonicity_violation(source, target, image):
        return False
    carrier = mask_of(image)
    return sum(map(int.bit_count, source.up)) == sum(
        (target.up[v] & carrier).bit_count() for v in image)


def relabel(poset: FinitePoset, image: tuple[int, ...]) -> FinitePoset:
    """Transport the order along a bijection ``i -> image[i]``.

    Up row ``image[i]`` is up row ``i`` with each bit ``j`` moved to
    ``image[j]``, one big-integer OR per comparable pair; the down rows
    are their transpose.
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
    return _made_poset(poset.n, tuple(up), _transpose(up, poset.n), labels)


def _canonical_key(mask: int) -> tuple[int, int]:
    """The sort key of the order ``enumerate_down_sets`` returns, to search it by."""
    return mask.bit_count(), mask


def _down_sets_by_extension(poset: FinitePoset, carrier: int, limit: int) -> list[int]:
    """The down-sets of the order induced on ``carrier``, as masks of
    ``poset``, by size and then mask value: canonical order.

    Each is grown once, by a new maximal ``x`` along ``poset``'s linear
    extension, which extends the induced order.  ``levels[k]`` holds the
    down-sets of ``k`` members.  Only those at least as large as ``need``,
    the rest of ``x``'s down-set, can hold it; they are scanned top down,
    each ``d | x`` joining the level above, already scanned.  Whenever
    index order is a linear extension, the extension is index order and
    each level is one sorted run.
    """
    levels: list[list[int]] = [[0]]
    count = 1
    for x in linear_extension(poset):
        bit = 1 << x
        if not carrier & bit:
            continue
        need = poset.down[x] & carrier & ~bit
        above: list[int] = []
        levels.append(above)
        for level in reversed(levels[need.bit_count():-1]):
            count -= len(above)
            push = above.append
            for d in level:
                if d & need == need:
                    push(d | bit)
            count += len(above)
            above = level
        if count > limit + 1:
            raise CapacityError(
                f"more than {limit} down-sets on {carrier.bit_count()} elements"
            )
    found: list[int] = []
    for level in levels:
        level.sort()
        found += level
    return found


def enumerate_down_sets(
    poset: FinitePoset,
    include_empty: bool = True,
    capacity: int | None = None,
) -> tuple[int, ...]:
    """All down-set masks of ``poset`` in canonical order.

    Only genuine down-sets are generated, one new maximal element at a
    time along a linear extension and one size level at a time, so the
    cost tracks the output size instead of 2**n, and they come sorted.
    CapacityError fires as soon as the count passes the budget.
    """
    limit = resolve_capacity(capacity)
    found = _down_sets_by_extension(poset, poset.full, limit)
    if not include_empty:
        found.remove(0)
    if len(found) > limit:
        raise CapacityError(f"more than {limit} down-sets on {poset.n} elements")
    return tuple(found)
