"""The entry rule of the public API: every count, element index and
mask a public callable takes is an ``int`` (a ``bool`` is not one) in
range, or RangeError names it and ends with the offending value."""

import re

import pytest

import smyth
from smyth import (
    FinitePoset,
    MonotoneMap,
    RangeError,
    all_posets,
    basic_open,
    build,
    check_minimality,
    down_closure,
    enumerate_down_sets,
    enumerate_extensions,
    hat_powerdomain,
    identity,
    inverse_powerdomain,
    is_down_set,
    is_sup_preserving,
    iterate_sizes,
    phi,
    poset_of_topology,
    powerdomain_map,
    random_poset,
    sigma_map,
    sup,
    vietoris_open,
)

from conftest import chain

# Three elements, so indices lie in range(3) and masks in range(8); its
# powerdomain has three points, so point indices lie in range(3) too.
BASE = chain(3)

# Each public name to its integer parameters, as (parameter, edge, call):
# ``call(value)`` passes ``value`` as that parameter and valid values
# elsewhere, and ``edge`` is the nearest out-of-range value that -1 does
# not already probe: n or 1 << n past an index or a mask, 0 below a
# count of at least 1, None below a count of at least 0.
INTEGER_PARAMETERS = {
    "CapacityError": (),
    "CheckReport": (),
    "CompositionMismatchError": (),
    "CycleError": (),
    "DocumentError": (),
    "FinitePoset": (
        ("n", 0, lambda v: FinitePoset(v, (1,), (1,))),
        ("up row", 4, lambda v: FinitePoset(2, (v, 2), (1, 3))),
        ("down row", 4, lambda v: FinitePoset(2, (3, 2), (v, 3))),
        ("from_cover_relations n", 0, lambda v: FinitePoset.from_cover_relations(v, [])),
        ("relation lower index", 2,
         lambda v: FinitePoset.from_cover_relations(2, [(v, 1)])),
        ("relation upper index", 2,
         lambda v: FinitePoset.from_cover_relations(2, [(0, v)])),
        ("leq i", 3, lambda v: BASE.leq(v, 0)),
        ("leq j", 3, lambda v: BASE.leq(0, v)),
    ),
    "IrreducibilityError": (),
    "MalformedFamilyError": (),
    "MonotoneMap": (("image value", 3, lambda v: MonotoneMap(BASE, BASE, (0, 0, v))),),
    "NotAnOrderError": (),
    "NotIsomorphismError": (),
    "NotOpenError": (),
    "NotSpectralError": (),
    "PowerdomainSpace": (
        ("order.leq i", 3, lambda v: build(BASE).order.leq(v, 0)),
        ("order.leq j", 3, lambda v: build(BASE).order.leq(0, v)),
    ),
    "RangeError": (),
    # ``member_mask`` is filled in by the package from a mask it derived.
    "SigmaUndefinedError": (),
    "SmythError": (),
    "all_posets": (("n", 0, all_posets),),
    "basic_open": (("omega", 8, lambda v: basic_open(build(BASE), v)),),
    "build": (("capacity", 0, lambda v: build(BASE, v)),),
    "check_embedding_theorem": (),
    "check_functor_laws": (),
    "check_minimality": (("capacity", 0, lambda v: check_minimality(identity(BASE), v)),),
    "check_sigma_theorem": (),
    "compose": (),
    "dimension": (),
    "down_closure": (("subset", 8, lambda v: down_closure(BASE, v)),),
    "enumerate_down_sets": (("capacity", 0, lambda v: enumerate_down_sets(BASE, True, v)),),
    "enumerate_extensions": (
        ("capacity", 0, lambda v: enumerate_extensions(identity(BASE), v)),),
    "find_isomorphism": (),
    "hat_powerdomain": (("capacity", 0, lambda v: hat_powerdomain(BASE, v)),),
    "identity": (),
    "inverse_powerdomain": (("capacity", 0, lambda v: inverse_powerdomain(BASE, v)),),
    "is_chain": (),
    "is_down_set": (("subset", 8, lambda v: is_down_set(BASE, v)),),
    "is_phi_surjective": (),
    "is_sup_preserving": (("capacity", 0, lambda v: is_sup_preserving(identity(BASE), v)),),
    "iterate_sizes": (
        ("k", None, lambda v: iterate_sizes(BASE, v)),
        ("capacity", 0, lambda v: iterate_sizes(BASE, 1, v)),
    ),
    "lambda_sharp": (),
    "lift_homeomorphism": (),
    "linear_extension": (),
    "open_sets": (),
    "order_dual": (),
    "phi": (("element", 3, lambda v: phi(build(BASE), v)),),
    "poset_of_topology": (
        ("n", 0, lambda v: poset_of_topology(v, (0, 1))),
        ("open", 8, lambda v: poset_of_topology(3, (0, 1, 3, v, 7))),
    ),
    "powerdomain_dimension": (),
    "powerdomain_map": (("capacity", 0, lambda v: powerdomain_map(identity(BASE), v)),),
    "preserves_sups": (),
    # The seed is any value ``random.Random`` takes, not a count.
    "random_poset": (("n", 0, lambda v: random_poset(v, 0)),),
    "replay": (),
    "run_suite": (),
    "sigma_map": (("carrier", 8, lambda v: sigma_map(BASE, v)),),
    "sup": (("subset", 8, lambda v: sup(BASE, v)),),
    "vietoris_open": (("omega", 8, lambda v: vietoris_open(build(BASE), v)),),
}

WRONG_VALUES = (1.0, True, "1", -1)


def test_every_public_name_has_a_row():
    assert sorted(INTEGER_PARAMETERS) == smyth.__all__


@pytest.mark.parametrize("name", smyth.__all__)
def test_integer_parameters_reject_wrong_values(name):
    """Each integer parameter, given a float, a ``bool``, a string, -1 or
    its edge value, raises RangeError ending with that value; every
    other outcome is listed.  ``all_posets(1)`` is cached first, so
    ``True`` must not be served it."""
    assert name in INTEGER_PARAMETERS, f"{name} has no row in INTEGER_PARAMETERS"
    all_posets(1)
    wrong = []
    for parameter, edge, call in INTEGER_PARAMETERS[name]:
        for value in WRONG_VALUES + (() if edge is None else (edge,)):
            try:
                call(value)
            except RangeError as exc:
                if not re.search(f"got {re.escape(repr(value))}$", str(exc)):
                    wrong.append((parameter, value, f"RangeError: {exc}"))
            except Exception as exc:
                wrong.append((parameter, value, repr(exc)))
            else:
                wrong.append((parameter, value, "no error"))
    assert wrong == []
