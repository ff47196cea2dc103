"""Plain value classes: equality, repr and copying over a class's ``_fields``,
and for a frozen class hashing and immutability too.

Each class writes out its own ``__init__``, which runs its checks. A class
generated at import instead would cost every command's start-up the import of
its generator, which pulls in `inspect` and `ast`, and the building of its
methods: about 30 ms in all.
"""

from __future__ import annotations

# the default of a field that is built anew for each instance, such as an
# empty list or the current time; None stays a value of its own
FRESH = object()


class Value:
    """Equal only to an instance of the same class whose ``_fields`` are equal,
    shown as ``Name(field=value, ...)``; unhashable, because it can change."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def replace(self, **changes):
        """A new instance with ``changes`` applied to the fields, built, and so
        checked, by ``__init__``."""
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))


class Frozen(Value):
    """A `Value` that cannot change once built, and so hashes by its fields.
    ``__init__`` stores the fields with ``vars(self).update``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
