"""The two rules the modules share: one for integer arguments and one for
immutable values.

Integer arguments (lengths, alphabet sizes, letters, indices) are a
genuine ``int`` (not a ``bool``) inside a stated range.  Every public
function checks its integer arguments through `check_int` before doing
any work, so a float, bool, string or out-of-range value is a
`ValueError` rather than a wrong or approximate answer.

The value classes (`Poly`, `RationalSeries`, `Spectrum`) subclass
`Value`: their fields are ``__slots__`` filled once in ``__init__``, no
attribute can be set or deleted, values of one class compare and hash
equal on the slots named in ``_compared``, and pickle and copy rebuild a
value through ``__init__``.
"""
from __future__ import annotations

import operator


def check_int(name: str, value: object, low: int, high: int | None = None) -> None:
    """Raise `ValueError` unless ``value`` is an int (not a bool) with
    ``low <= value`` and, when ``high`` is given, ``value <= high``."""
    # type() first: plain ints skip both isinstance calls.
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, int)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bounds}, got {value}")


class Value:
    """Immutable value whose ``__init__`` takes its slots in ``__slots__``
    order (a class whose ``__init__`` does not overrides ``__reduce__``).
    Equality (same class only), hashing and the keyword repr read the
    slots named in ``_compared``."""

    __slots__ = ()
    _compared: tuple[str, ...]

    def __init_subclass__(cls):
        # One C-level getter per class: equality runs in every product
        # check of `RationalSeries.__init__`.
        cls._key = operator.attrgetter(*cls._compared)

    def _set(self, *values) -> None:
        """Fill the slots, in ``__slots__`` order, from ``__init__``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # rebuild by __init__: restoring a slot would raise
        return type(self), tuple(getattr(self, s) for s in self.__slots__)

    def __eq__(self, other):
        key = self._key
        return (key(self) == key(other) if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._compared)
        return f"{type(self).__name__}({fields})"
