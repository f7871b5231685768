"""The one rule for integer arguments (lengths, alphabet sizes, letters,
indices): a genuine ``int`` (not a ``bool``) inside a stated range.

Every public function checks its integer arguments through `check_int`
before doing any work, so a float, bool, string or out-of-range value is
a `ValueError` rather than a wrong or approximate answer.
"""
from __future__ import annotations


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
