"""Chebyshev polynomials with exact integer coefficients.

A polynomial lives in a dense tuple of arbitrary-precision integer
coefficients, constant term first, so ``Poly(-1, 0, 4)`` is ``4x^2 - 1``.
All construction and arithmetic is exact; floating point enters only when
the caller evaluates at a float (`eval_poly`) or asks for zeros
(`u_zeros`).

Three families are built here:

* ``u_poly(r)`` -- second kind, ``U_r(cos t) = sin((r+1)t)/sin(t)``;
* ``t_poly(r)`` -- first kind, ``T_r(cos t) = cos(r t)``;
* ``theta_poly(i)`` -- the rationalizing family ``theta_i(x) =
  x^i U_i((1-x)/(2x))``, computed by its own integer recurrence so that
  the bridge to ``u_poly`` stays an independent cross-check.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math

from ._args import check_int


@dataclasses.dataclass(frozen=True)
class Poly:
    """Dense integer-coefficient polynomial.

    Trailing zero coefficients are trimmed; the zero polynomial is the
    empty tuple.

    >>> Poly(-1, 0, 4).degree
    2
    >>> Poly(0, 0).is_zero()
    True
    >>> Poly(1, 1) * Poly(1, -1)
    Poly(1, 0, -1)
    """

    coeffs: tuple[int, ...]

    def __init__(self, *coeffs: int):
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

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

    def __add__(self, other: int | Poly) -> Poly:
        other = _as_poly(other)
        return Poly(*(a + b for a, b in itertools.zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)))

    __radd__ = __add__

    def __sub__(self, other: int | Poly) -> Poly:
        return self + (-_as_poly(other))

    def __neg__(self) -> Poly:
        return Poly(*(-c for c in self.coeffs))

    def __mul__(self, other: int | Poly) -> Poly:
        if isinstance(other, int):
            return Poly(*(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(*out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        check_int("polynomial power", n, 0)
        result = Poly(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        return f"Poly{self.coeffs}"


def _as_poly(v: int | Poly) -> Poly:
    return Poly(v) if isinstance(v, int) else v


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
def t_poly(r: int) -> Poly:
    """Chebyshev polynomial of the first kind, T_r = (U_r - U_{r-2})/2.

    >>> t_poly(2)
    Poly(-1, 0, 2)
    """
    check_int("t_poly index", r, 0)
    diff = u_poly(r) - u_poly(r - 2)
    # U_r - U_{r-2} = 2 T_r always has even coefficients.
    return Poly(*(c // 2 for c in diff.coeffs))


@functools.lru_cache(maxsize=None, typed=True)
def theta_poly(i: int) -> Poly:
    """theta_i(x), with theta_0 = 1, theta_1 = 1 - x and
    theta_i = (1 - x) theta_{i-1} - x^2 theta_{i-2}.

    Equals x^i U_i((1-x)/(2x)) as an exact polynomial; constant term 1.

    >>> theta_poly(2)
    Poly(1, -2)
    """
    check_int("theta_poly index", i, 0)
    prev, cur = Poly(1), Poly(1, -1)
    if i == 0:
        return prev
    one_minus_x = Poly(1, -1)
    x_squared = Poly(0, 0, 1)
    for _ in range(i - 1):
        prev, cur = cur, one_minus_x * cur - x_squared * prev
    return cur


def u_zeros(m: int) -> list[float]:
    """Zeros of U_m: cos(j pi/(m+1)) for j = 1..m, strictly decreasing.

    >>> u_zeros(2)
    [0.5000000000000001, -0.4999999999999998]
    """
    check_int("u_zeros degree", m, 1)
    return [math.cos(j * math.pi / (m + 1)) for j in range(1, m + 1)]
