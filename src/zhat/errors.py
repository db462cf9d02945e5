"""Exceptions, and the base of the immutable value records, shared across
the package."""

from operator import attrgetter


class Record:
    """Immutable value record, compared and hashed by its fields.

    A subclass lists its new fields, in order, as ``__slots__`` and sets
    them in its own ``__init__`` through ``object.__setattr__``; its
    ``_fields`` are its base's followed by these, less the slots named
    ``_...``: private state that ``__init__`` derives from the fields.
    Equality holds only between records of the same type; ``repr`` is
    ``Name(field=value, ...)``; ``copy`` and ``pickle`` rebuild through
    ``__init__``, with the fields as positional arguments.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _values = property(lambda self: tuple([getattr(self, name) for name in self._fields]))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(name for name in cls.__dict__.get("__slots__", ()) if name[0] != "_")
        if len(cls._fields) > 1:  # attrgetter of one name gives the bare value
            cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values


class ZhatError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularMatrix(ZhatError):
    """Matrix is singular where an invertible one is required."""


class NotNegativeDefinite(ZhatError):
    """Quadratic form fails the required definiteness."""


class FormatError(ZhatError):
    """Malformed input file or serialized object."""


class NotATree(ZhatError):
    """Graph input is not a tree (cycle, disconnected, or bad edge count)."""


class InvalidTriple(ZhatError):
    """Exponent triple violates ordering or pairwise coprimality."""


class ExcludedTriple(ZhatError):
    """The (2, 3, 5) triple, for which the closed form needs an extra term."""


class InvalidFraction(ZhatError):
    """Continued-fraction input outside 0 < den < num with gcd 1."""


class EmptySeries(ZhatError):
    """No surviving terms below the truncation order.

    ``spinc`` is the class whose series is empty, when one is known.
    It sits in a slot, so no instance dict is made for it.
    """

    __slots__ = ("spinc",)

    def __init__(self, message: str = "", spinc=None):
        super().__init__(message)
        self.spinc = spinc

    def __reduce__(self):
        # BaseException.__reduce__ carries args and __dict__, not slots.
        return type(self), (str(self), self.spinc)


class ConsistencyError(ZhatError):
    """A relation the construction guarantees (an exact identity, not a
    rounding tolerance) fails to hold."""
