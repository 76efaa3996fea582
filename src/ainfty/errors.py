"""Exception hierarchy and the immutable-value base shared by the whole package."""

from operator import attrgetter

_setattr = object.__setattr__


class AinftyError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AinftyError, ValueError):
    """A caller handed an operation an argument that violates its contract."""


class ParseError(InputError):
    """A structure file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Value:
    """An immutable record whose ``_fields`` are slots set once by ``__init__``.

    Two values are equal when they have the same class and equal fields, in
    ``_fields`` order; the hash and ``repr`` read the same fields, the repr
    as ``Name(field=value, ...)``.  A slot left out of ``_fields`` (a cache
    derived from the fields) takes no part in them.  Pickling and copying
    rebuild the value through ``__init__`` from its fields.  A subclass has
    two or more fields, so that ``_values`` returns a tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._values = staticmethod(attrgetter(*cls._fields))  # called as self._values(self)

    def _set(self, *values: object) -> None:
        """Fill the ``_fields`` slots with ``values``; only ``__init__`` and ``_raw`` call it."""
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    @classmethod
    def _raw(cls, *fields: object):
        """A value holding ``fields`` as given: no copy, no check, no ``__init__``."""
        self = cls.__new__(cls)
        self._set(*fields)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)
