"""Exception types, and the base of the value classes, shared across
the package."""

from operator import attrgetter


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields``, and its ``__init__``
    stores them with ``object.__setattr__``, since assigning or deleting
    any attribute of an instance raises AttributeError.
    ``cached_property`` writes the instance ``__dict__`` directly, so it
    still works.  Equality compares the fields between instances of the
    same class, and hashing hashes them as a tuple; a class on a hot path
    writes both out instead.  The methods are written once here, so
    importing a value class neither loads a class generator nor compiles
    methods for it.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SmythError(Exception):
    """Base class for every error raised by this package."""


class RangeError(SmythError):
    """An index or subset mask refers to elements outside the poset."""


class CycleError(SmythError):
    """The supplied relations are cyclic, so no partial order exists."""


class NotAnOrderError(SmythError, ValueError):
    """Relation rows are not transitive, or the down rows are not the
    transpose of the up rows.  Also a ValueError, for callers that
    catch that."""


class CapacityError(SmythError):
    """An enumeration would exceed the configured point budget."""


class NotOpenError(SmythError):
    """The given subset is not a down-set, hence not open."""


class MalformedFamilyError(SmythError):
    """A set family is not a topology on its carrier."""


class NotSpectralError(SmythError):
    """An assignment between posets is not order-preserving."""


class CompositionMismatchError(SmythError):
    """Two maps were composed whose middle posets differ."""


class NotIsomorphismError(SmythError):
    """A map expected to be an order-isomorphism is not one."""


class IrreducibilityError(SmythError):
    """A point that should be a principal down-set is not principal."""


class SigmaUndefinedError(SmythError):
    """A required least upper bound does not exist.

    The offending subset mask is carried in ``member_mask`` so callers
    can report or replay the failure.
    """

    def __init__(self, message: str, member_mask: int | None = None):
        super().__init__(message)
        self.member_mask = member_mask


class DocumentError(SmythError):
    """A poset document file is malformed."""
