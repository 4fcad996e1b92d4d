"""The three topologies a finite poset carries.

With opens-are-down-sets as the structural convention, closure in the
given topology is up-closure, closure in the inverse (order-reversed)
topology is down-closure, and the constructible topology refining both
is discrete, so its closure operator is the identity.  Down-sets are
exactly the sets closed in the inverse topology, which is why they are
called inverse-closed throughout.
"""

from __future__ import annotations

from .errors import CapacityError, MalformedFamilyError, _Value
from .poset import FinitePoset, _transpose, check_subset, enumerate_down_sets


class OpenFamily(_Value):
    """The open sets of a finite space, as masks in canonical order.

    Invariants (checked by poset_of_topology, guaranteed by open_sets):
    contains the empty and full masks and is closed under union and
    intersection.
    """

    _fields = ("base", "opens")

    def __init__(self, base: FinitePoset, opens: tuple[int, ...]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "opens", opens)


def open_sets(poset: FinitePoset) -> OpenFamily:
    """Every open of the poset's topology: all down-set masks."""
    return OpenFamily(poset, enumerate_down_sets(poset, True))


def poset_of_topology(family: OpenFamily) -> FinitePoset:
    """Recover the specialization order from an open-set family.

    ``x <= y`` exactly when every open containing ``y`` contains ``x``.
    Every member is a down-set of that order, so the family is its
    topology when the order has no more down-sets than the family has
    members.  A family that is not T0 raises CycleError, even one that
    is not a topology either.  The base field of the input only
    contributes the carrier size and labels.
    """
    n = family.base.n
    full = (1 << n) - 1
    opens = set(family.opens)
    for candidate in family.opens:
        check_subset(family.base, candidate)
    if 0 not in opens or full not in opens:
        raise MalformedFamilyError("a topology contains the empty and full sets")
    down = []
    for i in range(n):
        minimal_open = full
        for u in family.opens:
            if u >> i & 1:
                minimal_open &= u
        down.append(minimal_open)
    order = FinitePoset(n, _transpose(down, n), tuple(down), family.base.labels)
    try:
        enumerate_down_sets(order, True, len(opens))
    except CapacityError:
        raise MalformedFamilyError(
            "the family is not closed under union and intersection") from None
    return order
