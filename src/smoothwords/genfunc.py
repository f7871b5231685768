"""Rational generating functions for smooth-word counts.

The closed forms are kept entirely in integer polynomial arithmetic by
substituting the theta family for the Chebyshev polynomials evaluated at
(1-x)/(2x):

* whole-alphabet counts:
  ``sw_k(x) = [ (1-3x)^2 th_k + x(k-(3k+2)x) th_k + 2x^3 (x^{k-1} + th_{k-1}) ]
  / [ (1-3x)^2 th_k ]``
* cyclic counts:
  ``scw_k(x) = [ (1+x)(1-3x) th_k + kx(1+3x) th_k - 2(k+1) x^2 th_{k-1} ]
  / [ (1+x)(1-3x) th_k ]``
* counts refined by first letter i:
  ``x (th_k - x^i th_{k-i} - x^{k-i+1} th_{i-1}) / ((1-3x) th_k)``

Numerator/denominator pairs are deliberately left unreduced; series
extraction and the cross-multiplied equality test are insensitive to
common factors, so no polynomial GCD machinery is needed.  Coefficients
come out of the denominator-driven linear recurrence
``a_n = num_n - sum_{m>=1} den_m a_{n-m}`` with exact big integers.
"""
from __future__ import annotations

import dataclasses

from ._args import check_int
from .chebyshev import Poly, theta_poly

_ONE_MINUS_3X = Poly(1, -3)
_ONE_PLUS_X = Poly(1, 1)


@dataclasses.dataclass(frozen=True)
class RationalSeries:
    """Ratio of integer polynomials viewed as a formal power series.

    The denominator is normalized to constant term +1 (sign flipped if
    needed); a zero constant term has no power-series inverse and is
    rejected.
    """

    num: Poly
    den: Poly

    def __post_init__(self):
        c0 = self.den.constant_term()
        if c0 == 0:
            raise ValueError("denominator constant term must be nonzero")
        if abs(c0) != 1:
            raise ValueError(f"denominator constant term must be +-1, got {c0}")
        if c0 < 0:
            object.__setattr__(self, "num", -self.num)
            object.__setattr__(self, "den", -self.den)

    def __add__(self, other: "RationalSeries | Poly | int") -> "RationalSeries":
        other = _as_series(other)
        return RationalSeries(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: "RationalSeries | Poly | int") -> "RationalSeries":
        return self + (-_as_series(other))

    def __neg__(self) -> "RationalSeries":
        return RationalSeries(-self.num, self.den)

    def __mul__(self, other: "RationalSeries | Poly | int") -> "RationalSeries":
        other = _as_series(other)
        return RationalSeries(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({poly_str(self.num)})/({poly_str(self.den)})"


def _as_series(v) -> RationalSeries:
    if isinstance(v, RationalSeries):
        return v
    if isinstance(v, (int, Poly)):
        return RationalSeries(v if isinstance(v, Poly) else Poly(v), Poly(1))
    raise TypeError(f"cannot treat {type(v).__name__} as a rational series")


def poly_str(p: Poly) -> str:
    """Human-readable polynomial in ascending powers, e.g. ``1 - 2x - x^2``."""
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            var = "x" if i == 1 else f"x^{i}"
            term = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f" {sign} {term}")
    return "".join(parts)


def sw_gf(k: int) -> RationalSeries:
    """Generating function whose x^n coefficient counts smooth words in [k]^n."""
    check_int("alphabet size", k, 1)
    th_k = theta_poly(k)
    th_km1 = theta_poly(k - 1)
    sq = _ONE_MINUS_3X * _ONE_MINUS_3X
    num = (sq * th_k + Poly(0, k, -(3 * k + 2)) * th_k
           + 2 * (Poly(1).shift(k - 1) + th_km1).shift(3))
    return RationalSeries(num, sq * th_k)


def scw_gf(k: int) -> RationalSeries:
    """Generating function whose x^n coefficient counts smooth cyclic words."""
    check_int("alphabet size", k, 1)
    th_k = theta_poly(k)
    th_km1 = theta_poly(k - 1)
    lead = _ONE_PLUS_X * _ONE_MINUS_3X
    num = (lead * th_k + Poly(0, k, 3 * k) * th_k
           - (2 * (k + 1)) * th_km1.shift(2))
    return RationalSeries(num, lead * th_k)


def sw_prefix_gf(i: int, k: int) -> RationalSeries:
    """Generating function for smooth words starting with the letter ``i``.

    Constant term 0; the x^n coefficient (n >= 1) counts length-n smooth
    words whose first letter is ``i``.
    """
    check_int("alphabet size", k, 1)
    check_int("first letter", i, 1, k)
    th_k = theta_poly(k)
    num = (th_k - theta_poly(k - i).shift(i)
           - theta_poly(i - 1).shift(k - i + 1)).shift(1)
    return RationalSeries(num, _ONE_MINUS_3X * th_k)


def series_coeffs(rs: RationalSeries, n_max: int) -> list[int]:
    """First ``n_max + 1`` power-series coefficients of ``rs``, exactly.

    >>> series_coeffs(RationalSeries(Poly(1), Poly(1, -3)), 4)
    [1, 3, 9, 27, 81]
    """
    check_int("n_max", n_max, 0)
    num = rs.num.coeffs
    den = rs.den.coeffs
    out: list[int] = []
    for n in range(n_max + 1):
        a = num[n] if n < len(num) else 0
        for m in range(1, min(n, len(den) - 1) + 1):
            a -= den[m] * out[n - m]
        out.append(a)
    return out


def series_equal(a: RationalSeries, b: RationalSeries) -> bool:
    """True iff the two ratios denote the same series (cross-multiplied,
    so unreduced common factors do not matter)."""
    return a.num * b.den == b.num * a.den
