"""Chebyshev polynomials with exact integer coefficients.

A polynomial lives in a dense tuple of arbitrary-precision integer
coefficients, constant term first, so ``Poly(-1, 0, 4)`` is ``4x^2 - 1``.
All construction and arithmetic is exact; floating point enters only when
the caller evaluates at a float (`eval_poly`) or asks for zeros
(`u_zeros`).

Two families are built here:

* ``u_poly(r)`` -- second kind, ``U_r(cos t) = sin((r+1)t)/sin(t)``;
* ``theta_poly(i)`` -- the rationalizing family ``theta_i(x) =
  x^i U_i((1-x)/(2x))``, computed by its own integer recurrence so that
  the bridge to ``u_poly`` stays an independent cross-check.

``theta_parts(k)`` returns theta_{k-1}, theta_k and theta_k split into
two factors of about half its degree by the Chebyshev product identities,
all from a single pass of the recurrence.
"""
from __future__ import annotations

import functools
import itertools
import math

from ._args import check_int


class Poly:
    """Dense integer-coefficient polynomial.

    Coefficients are ints (not bools), else `ValueError`.  Trailing zero
    coefficients are trimmed; the zero polynomial is the empty tuple.
    ``+`` and ``-`` take only another `Poly`; ``*`` takes a `Poly` or an
    ``int`` (not a ``bool``) on either side.  A `Poly` is immutable, and
    equal polynomials compare and hash equal.

    >>> Poly(-1, 0, 4).degree
    2
    >>> Poly(0, 0).is_zero()
    True
    >>> Poly(1, 1) * Poly(1, -1)
    Poly(1, 0, -1)
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, *coeffs: int):
        for c in coeffs:
            if type(c) is not int:  # low = c: only the type rule can fail
                check_int("polynomial coefficient", c, c)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # rebuild by __init__: restoring a slot would raise
        return Poly, self.coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def shift(self, m: int) -> Poly:
        """Multiply by x^m."""
        check_int("shift exponent", m, 0)
        if not self.coeffs:
            return self
        return Poly(*((0,) * m + self.coeffs))

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(*(a + b for a, b in itertools.zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)))

    def __sub__(self, other: Poly) -> Poly:
        return self + -other if isinstance(other, Poly) else NotImplemented

    def __neg__(self) -> Poly:
        return Poly(*(-c for c in self.coeffs))

    def __mul__(self, other: int | Poly) -> Poly:
        if type(other) is int:  # the `check_int` rule: no bool, no float
            return Poly(*(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(*out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Poly{self.coeffs}"


def eval_poly(p: Poly, x):
    """Evaluate ``p`` at ``x`` by Horner's rule.

    Generic over the coefficient arithmetic of ``x``: floats give the
    usual double evaluation, ints and Fractions give exact values.
    """
    acc = 0 * x
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# typed: u_poly(True) and u_poly(2.0) must reach check_int, not the cache.
@functools.lru_cache(maxsize=None, typed=True)
def u_poly(r: int) -> Poly:
    """Chebyshev polynomial of the second kind, U_r.

    U_0 = 1, U_1 = 2x, and U_r = 2x U_{r-1} - U_{r-2}.  The recurrence is
    extended backwards to r = -1 (zero) and r = -2 (constant -1), which
    keeps the product and prefix-sum identities total.

    >>> u_poly(2)
    Poly(-1, 0, 4)
    """
    check_int("u_poly index", r, -2)
    if r == -2:
        return Poly(-1)
    prev, cur = Poly(-1), Poly()  # U_{-2}, U_{-1}
    for _ in range(r + 1):
        prev, cur = cur, Poly(0, 2) * cur - prev
    return cur


@functools.lru_cache(maxsize=None, typed=True)
def theta_poly(i: int) -> Poly:
    """theta_i(x), with theta_0 = 1, theta_1 = 1 - x and
    theta_i = (1 - x) theta_{i-1} - x^2 theta_{i-2}.

    Equals x^i U_i((1-x)/(2x)) as an exact polynomial; constant term 1.

    >>> theta_poly(2)
    Poly(1, -2)
    """
    check_int("theta_poly index", i, 0)
    return Poly(*_theta_lists({i})[i])


def theta_parts(k: int) -> tuple[Poly, Poly, tuple[Poly, ...]]:
    """theta_{k-1}, theta_k, and theta_k as a tuple of factors of about
    half its degree, each with constant term 1, from one pass of the theta
    recurrence.

    From U_{2m} = (U_m - U_{m-1})(U_m + U_{m-1}) and U_{2m+1} = 2 T_{m+1} U_m:

    * theta_{2m} = (theta_m - x theta_{m-1}) (theta_m + x theta_{m-1});
    * theta_{2m+1} = theta_m (theta_{m+1} - x^2 theta_{m-1});
    * ``(theta_k,)`` for k <= 2.

    >>> theta_parts(3)
    (Poly(1, -2), Poly(1, -3, 1, 1), (Poly(1, -1), Poly(1, -2, -1)))
    >>> theta_parts(4)[2]
    (Poly(1, -3, 1), Poly(1, -1, -1))
    """
    check_int("theta_parts index", k, 1)
    m = k // 2
    table = _theta_lists({k - 1, k} if k <= 2 else {k - 1, k, m - 1, m, m + 1})
    th_km1, th_k = Poly(*table[k - 1]), Poly(*table[k])
    if k <= 2:
        return th_km1, th_k, (th_k,)
    if k % 2 == 0:  # theta_m has m + 1 coefficients, x theta_{m-1} too
        shifted = [0] + table[m - 1]
        return th_km1, th_k, (
            Poly(*(a - b for a, b in zip(table[m], shifted))),
            Poly(*(a + b for a, b in zip(table[m], shifted))))
    shifted = [0, 0] + table[m - 1]  # m + 2 coefficients, as theta_{m+1}
    return th_km1, th_k, (
        Poly(*table[m]),
        Poly(*(a - b for a, b in zip(table[m + 1], shifted))))


def _theta_lists(wanted: set[int]) -> dict[int, list[int]]:
    """Coefficients of theta_i for each i in ``wanted``, from one pass of the
    recurrence up to the largest; no other theta_i outlives its step.

    theta_i is held as a list of exactly i + 1 coefficients (trailing zeros
    kept), so each step is one aligned comprehension.
    """
    table = {}
    prev, cur = [], [1]  # theta_{-1} = 0, theta_0 = 1
    for i in range(max(wanted) + 1):
        if i:
            prev, cur = cur, [a - b - c for a, b, c in
                              zip(cur + [0], [0] + cur, [0, 0] + prev)]
        if i in wanted:
            table[i] = cur
    return table


def u_zeros(m: int) -> list[float]:
    """Zeros of U_m: cos(j pi/(m+1)) for j = 1..m, strictly decreasing.

    >>> u_zeros(2)
    [0.5000000000000001, -0.4999999999999998]
    """
    check_int("u_zeros degree", m, 1)
    return [math.cos(j * math.pi / (m + 1)) for j in range(1, m + 1)]
