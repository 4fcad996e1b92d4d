"""The three topologies a finite poset carries.

With opens-are-down-sets as the structural convention, closure in the
given topology is up-closure, closure in the inverse (order-reversed)
topology is down-closure, and the constructible topology refining both
is discrete, so its closure operator is the identity.  Down-sets are
exactly the sets closed in the inverse topology, which is why they are
called inverse-closed throughout.
"""

from __future__ import annotations

from .errors import CapacityError, MalformedFamilyError
from .poset import FinitePoset, _checked, _transpose, enumerate_down_sets


def open_sets(poset: FinitePoset) -> tuple[int, ...]:
    """Every open of the poset's topology: all down-set masks, in
    canonical order (size, then mask value), the empty set first."""
    return enumerate_down_sets(poset, True)


def poset_of_topology(
    n: int, opens: tuple[int, ...], labels: tuple[str, ...] | None = None
) -> FinitePoset:
    """Recover the specialization order from the open sets of a space
    on ``range(n)``, given as masks.

    ``x <= y`` exactly when every open containing ``y`` contains ``x``.
    Every member is a down-set of that order, so the family is its
    topology when the order has no more down-sets than the family has
    members.  An ``n`` or a mask that ``_checked`` rejects raises
    RangeError; a family without the empty and full sets, or not closed
    under union and intersection, raises MalformedFamilyError.  A family
    that is not T0 raises CycleError, even one that is not a topology
    either.
    """
    high = 1 << _checked(n, "n", 1)
    for candidate in opens:
        _checked(candidate, "mask", 0, high)
    full = high - 1
    members = set(opens)
    if 0 not in members or full not in members:
        raise MalformedFamilyError("a topology contains the empty and full sets")
    down = []
    for i in range(n):
        minimal_open = full
        for u in opens:
            if u >> i & 1:
                minimal_open &= u
        down.append(minimal_open)
    order = FinitePoset(n, _transpose(down, n), tuple(down), labels)
    try:
        enumerate_down_sets(order, True, len(members))
    except CapacityError:
        raise MalformedFamilyError(
            "the family is not closed under union and intersection") from None
    return order
