"""Powerdomains of finite spectral spaces.

A finite spectral space is a finite poset wearing its down-sets as
opens.  This package builds the space of nonempty inverse-closed
subsets of such a base, carries maps across the construction, lifts
isomorphisms back down, extends maps along least upper bounds, and
ships the generators and check harness that exercise every law on
exhaustive and randomized instances.

The public names below load their submodule on first use (PEP 562),
so ``import smyth`` compiles nothing but this file, and a command that
needs only the construction never loads the map search, the
completion, the generators or the check suite.
"""

import importlib

_EXPORTS_BY_MODULE = {
    "errors": (
        "CapacityError",
        "CompositionMismatchError",
        "CycleError",
        "DocumentError",
        "IrreducibilityError",
        "MalformedFamilyError",
        "NotAnOrderError",
        "NotIsomorphismError",
        "NotOpenError",
        "NotSpectralError",
        "RangeError",
        "SigmaUndefinedError",
        "SmythError",
    ),
    "poset": (
        "FinitePoset",
        "dimension",
        "down_closure",
        "enumerate_down_sets",
        "find_isomorphism",
        "is_chain",
        "is_down_set",
        "linear_extension",
        "order_dual",
        "sup",
    ),
    "topology": (
        "open_sets",
        "poset_of_topology",
    ),
    "powerdomain": (
        "PowerdomainSpace",
        "basic_open",
        "build",
        "check_embedding_theorem",
        "hat_powerdomain",
        "inverse_powerdomain",
        "is_phi_surjective",
        "iterate_sizes",
        "phi",
        "powerdomain_dimension",
        "vietoris_open",
    ),
    "maps": (
        "MonotoneMap",
        "check_functor_laws",
        "check_minimality",
        "compose",
        "enumerate_extensions",
        "identity",
        "lift_homeomorphism",
        "powerdomain_map",
    ),
    "completion": (
        "check_sigma_theorem",
        "is_sup_preserving",
        "lambda_sharp",
        "preserves_sups",
        "sigma_map",
    ),
    "report": ("CheckReport",),
    "generators": ("all_posets", "random_poset"),
    "suite": ("replay", "run_suite"),
}

# public name -> the submodule that defines it
_EXPORTS = {
    name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # Only names missing from the module globals reach here.  An unknown
    # name must raise AttributeError, so that ``from smyth import maps``
    # falls through to importing the submodule.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
