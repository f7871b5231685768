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

Numerator/denominator pairs are deliberately left unreduced, so the
printed forms are the paper's.  The cross-multiplied equality test is
insensitive to common factors, and so is series extraction: a
`RationalSeries` may carry its denominator as a product of factors, and
`series_coeffs` first drops every factor that divides the numerator
exactly (a zero remainder in Z[x]), then divides by the remaining factors
one after another in a single pass over n, each by the linear recurrence
``b_n = c_n - sum_{m>=1} f_m b_{n-m}`` in exact big integers, holding
only its last deg f values.  No polynomial GCD machinery is needed.

`sw_gf` and `scw_gf` pass their leading factors and the two halves of
theta_k from `theta_parts`, each of about half the degree of theta_k.
Since ``1^T M^n 1`` sees only the mirror-symmetric eigenvectors of the
transfer matrix, the ``sw`` numerator is divisible by (1-3x)^2 and by the
antisymmetric half of theta_k, so one factor of degree at most ceil(k/2)
is left.  The ``scw`` numerator is divisible by (1+x)(1-3x) only, so both
halves of theta_k are left, each with about half the coefficient bits of
theta_k.
"""
from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import operator

from ._args import check_int
from .chebyshev import Poly, theta_parts, theta_poly

_ONE_MINUS_3X = Poly(1, -3)
_ONE_PLUS_X = Poly(1, 1)


@dataclasses.dataclass(frozen=True)
class RationalSeries:
    """Ratio of integer polynomials viewed as a formal power series.

    The denominator is normalized to constant term +1 (sign flipped if
    needed); a zero constant term has no power-series inverse and is
    rejected.

    ``factors`` optionally gives the denominator as a product, which
    `series_coeffs` divides by one factor at a time.  Each factor is
    normalized to constant term +1 like the denominator, and the factors
    must then multiply to it.  Without factors the denominator is its own
    single factor.  Factors play no part in equality or printing.
    """

    num: Poly
    den: Poly
    factors: tuple[Poly, ...] = dataclasses.field(
        default=(), compare=False, repr=False)

    def __post_init__(self):
        c0 = self.den.constant_term()
        if c0 == 0:
            raise ValueError("denominator constant term must be nonzero")
        if abs(c0) != 1:
            raise ValueError(f"denominator constant term must be +-1, got {c0}")
        if c0 < 0:
            object.__setattr__(self, "num", -self.num)
            object.__setattr__(self, "den", -self.den)
        if not self.factors:
            object.__setattr__(self, "factors", (self.den,))
            return
        factors = tuple(-f if f.constant_term() < 0 else f
                        for f in self.factors)
        if math.prod(factors, start=Poly(1)) != self.den:
            raise ValueError("denominator factors must multiply to the "
                             "denominator")
        object.__setattr__(self, "factors", factors)

    def __add__(self, other: "RationalSeries | Poly | int") -> "RationalSeries":
        other = _as_series(other)
        return RationalSeries(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    def __sub__(self, other: "RationalSeries | Poly | int") -> "RationalSeries":
        return self + (-_as_series(other))

    def __neg__(self) -> "RationalSeries":
        return RationalSeries(-self.num, self.den)

    def __mul__(self, other: "RationalSeries | Poly | int") -> "RationalSeries":
        other = _as_series(other)
        return RationalSeries(self.num * other.num, self.den * other.den)

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
    th_km1, th_k, factors = theta_parts(k)
    sq = _ONE_MINUS_3X * _ONE_MINUS_3X
    num = (sq * th_k + Poly(0, k, -(3 * k + 2)) * th_k
           + 2 * (Poly(1).shift(k - 1) + th_km1).shift(3))
    return RationalSeries(num, sq * th_k,
                          (_ONE_MINUS_3X, _ONE_MINUS_3X) + factors)


def scw_gf(k: int) -> RationalSeries:
    """Generating function whose x^n coefficient counts smooth cyclic words."""
    check_int("alphabet size", k, 1)
    th_km1, th_k, factors = theta_parts(k)
    lead = _ONE_PLUS_X * _ONE_MINUS_3X
    num = (lead * th_k + Poly(0, k, 3 * k) * th_k
           - (2 * (k + 1)) * th_km1.shift(2))
    return RationalSeries(num, lead * th_k,
                          (_ONE_PLUS_X, _ONE_MINUS_3X) + factors)


def usmani_inverse_entry(i: int, j: int, k: int) -> RationalSeries:
    """Entry (i, j) of the inverse of A = I - xM, as a ratio of integer
    polynomials: x^|j-i| theta_{min-1} theta_{k-max} / theta_k."""
    check_int("alphabet size", k, 1)
    check_int("row index", i, 1, k)
    check_int("column index", j, 1, k)
    lo, hi = min(i, j), max(i, j)
    num = (theta_poly(lo - 1) * theta_poly(k - hi)).shift(hi - lo)
    return RationalSeries(num, theta_poly(k))


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
    return list(itertools.islice(_series(rs), n_max + 1))


def _series(rs: RationalSeries):
    """Every power-series coefficient of ``rs``, lazily; each division
    stage holds only its last few values, so reading one coefficient
    holds none of the ones before it."""
    num, kept = rs.num, []
    for f in rs.factors:
        quotient = _exact_quotient(num, f)
        if quotient is None:
            kept.append(f)
        else:
            num = quotient
    series = itertools.chain(num.coeffs, itertools.repeat(0))
    for f in kept:
        series = _divided(series, f)
    return series


def _divided(series, f: Poly):
    """The coefficients of ``series / f`` (f has constant term 1), lazily;
    only the last ``deg f`` of them are held."""
    tail = f.coeffs[:0:-1]  # f_d, ..., f_1
    recent = collections.deque([0] * len(tail), maxlen=len(tail))
    for c in series:
        b = c - sum(map(operator.mul, tail, recent))
        recent.append(b)
        yield b


def _exact_quotient(num: Poly, f: Poly) -> Poly | None:
    """``num / f`` if f (constant term 1) divides num in Z[x], else None.

    The first deg num - deg f + 1 coefficients of the series num/f are the
    quotient; f divides num iff the next deg f, the remainder, are zero.
    """
    length = max(len(num.coeffs) - f.degree, 0)
    series = list(_divided(iter(num.coeffs), f))
    if any(series[length:]):
        return None
    return Poly(*series[:length])


def series_equal(a: RationalSeries, b: RationalSeries) -> bool:
    """True iff the two ratios denote the same series (cross-multiplied,
    so unreduced common factors do not matter)."""
    return a.num * b.den == b.num * a.den
