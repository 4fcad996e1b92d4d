"""Powerdomains of finite spectral spaces.

A finite spectral space is a finite poset wearing its down-sets as
opens.  This package builds the space of nonempty inverse-closed
subsets of such a base, carries maps across the construction, lifts
isomorphisms back down, extends maps along least upper bounds, and
ships the generators and check harness that exercise every law on
exhaustive and randomized instances.
"""

from .errors import (
    CapacityError,
    CompositionMismatchError,
    CycleError,
    DocumentError,
    IrreducibilityError,
    MalformedFamilyError,
    NotIsomorphismError,
    NotOpenError,
    NotSpectralError,
    RangeError,
    SigmaUndefinedError,
    SmythError,
)
from .poset import (
    FinitePoset,
    dimension,
    down_closure,
    enumerate_down_sets,
    find_isomorphism,
    is_chain,
    is_down_set,
    is_up_set,
    linear_extension,
    order_dual,
    sup,
    up_closure,
)
from .topology import (
    OpenFamily,
    closure,
    constructible_closure,
    inverse_closure,
    irreducible_inverse_closed,
    is_inverse_closed,
    open_sets,
    poset_of_topology,
)
from .powerdomain import (
    IterateResult,
    PowerdomainSpace,
    basic_open,
    build,
    check_embedding_theorem,
    hat_powerdomain,
    inverse_powerdomain,
    is_phi_surjective,
    iterate_sizes,
    phi,
    powerdomain_dimension,
    vietoris_open,
)
from .maps import (
    MonotoneMap,
    check_functor_laws,
    check_minimality,
    compose,
    enumerate_extensions,
    identity,
    is_spectral,
    lift_homeomorphism,
    powerdomain_map,
)
from .completion import (
    SigmaMap,
    SupExtensionProblem,
    check_injective_sigma_prop,
    check_retraction,
    check_sigma_theorem,
    is_sup_preserving,
    lambda_sharp,
    preserves_sups,
    sigma_map,
)
from .report import CheckReport
from .generators import all_posets, random_poset
from .suite import replay, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
