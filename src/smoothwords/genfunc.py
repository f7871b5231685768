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

`series_coefficient` reads a single coefficient n.  Below
``_JUMP_OVER_DEGREE * d``, with d the degree of the factors kept, it walks
the same series, at n d big-integer products.  From there on it jumps by
Fiduccia's method (C. M. Fiduccia, SIAM J. Comput. 14 (1985)): past
T = max(deg num + 1, d) the coefficients obey the order-d recurrence of
the kept denominator F, so with chi = x^d F(1/x), monic since F(0) = 1,
``b_n = sum_i r_i b_{T-d+i}`` for r = x^(n-T+d) mod chi.  r comes from
binary powering.  Each square packs r into one integer in fixed-width
signed slots (Kronecker substitution; D. Harvey, J. Symb. Comput. 44
(2009)), so CPython's Karatsuba multiplies it, and each reduction mod chi
is d rows of d big-by-small products: about d^2 log n products in all.

`sw_gf` and `scw_gf` pass their leading factors and the two halves of
theta_k from `theta_parts`, each of about half the degree of theta_k.
Since ``1^T M^n 1`` sees only the mirror-symmetric eigenvectors of the
transfer matrix, the ``sw`` numerator is divisible by (1-3x)^2 and by the
antisymmetric half of theta_k, so one factor of degree at most ceil(k/2)
is left.  The ``scw`` numerator is divisible by (1+x)(1-3x) only, so both
halves of theta_k are left, each with about half the coefficient bits of
theta_k.

`scw_gf_count` reads the ``scw`` coefficient n >= 1 without theta_k.  It
is tr M^n = sum_j (1 + u_j)^n over the zeros u_j = 2 cos(j pi/(k+1)) of
U_k(u/2), which come in +- pairs (with a lone zero 0 at odd k), so the odd
powers cancel in the binomial expansion:

  ``scw(n) = k + 2 sum_{i=1}^{n//2} C(n, 2i) p_i``,

where p_i is the i-th power sum of the roots v = u^2 of V, U_k(u/2) =
u^(k mod 2) V(u^2).  With R(z) = sum_i (-1)^i C(k-i, i) z^i the reversal
of V, the p_i are the coefficients of -z R'(z) / R(z), read by the same
lazy division.  Coefficient i of that series needs R only to degree i, so
R is built to degree min(k//2, n//2) alone: about (n/2) min(k/2, n/2)
big-by-small products and n/2 binomial terms, against n k products for
the series of `scw_gf`.  That cost grows like n k, and the jump's like
k^2 log n, so from n = ``_POWER_SUMS_OVER_K * k`` on the count reads
`scw_gf` by `series_coefficient` instead.
"""
from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import operator
import sys

from ._args import check_int
from .chebyshev import Poly, theta_parts, theta_poly

_ONE_MINUS_3X = Poly(1, -3)
_ONE_PLUS_X = Poly(1, 1)

# `series_coefficient` jumps from n = _JUMP_OVER_DEGREE * d on, d the
# degree kept.  Fitted from timings (best of 3, Python 3.11, 2 cores) of
# the lazy series against the jump at n/d = 4..30: the last n/d where the
# lazy series won and the first from which the jump did were 6/8 for sw
# k=250 (d=125), 10/12 for sw k=40 (d=20), 12/14 for scw k=120 (d=120),
# 10/12 for scw k=300 (d=300) and 6/8 for scw k=30 (d=30).
_JUMP_OVER_DEGREE = 12

# `scw_gf_count` sums power sums below n = _POWER_SUMS_OVER_K * k and reads
# `scw_gf` by `series_coefficient` from there on.  Fitted from timings
# (ms, best of 3 to 7 over two runs, Python 3.11, 2 cores) of the power
# sums against `series_coefficient(scw_gf(k), n)`, which jumps at every n/k
# timed here:
#
#   n/k        40           50           60           70         80
#   k=10    0.6 / 0.8    0.8 / 0.8    1.0 / 0.9    1.3 / 0.9   1.1 / 0.8
#   k=20    2.1 / 2.2    2.9 / 2.5    3.8 / 2.4    4.1 / 2.8   4.4 / 1.9
#   k=40    7.2 / 10.0  10.6 / 12.9  15.5 / 14.9  20.8 / 18.0  17 / 15
#   k=80     43 / 70      79 / 80      78 / 85     128 / 103
#   k=120   142 / 257    162 / 245    298 / 434    423 / 466   465 / 393
#   k=300  1807 / 3019  3742 / 7267  5524 / 6579
#
# Below n/k = 40 the power sums won at every k timed, by 1.5-3x at
# k >= 40.  The crossover rises slowly with k, from about 50 at k <= 40
# to 70-80 at k = 120 and past 60 at k = 300; the constant keeps to the
# lower end.
_POWER_SUMS_OVER_K = 50


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

    def __str__(self) -> str:
        return f"({poly_str(self.num)})/({poly_str(self.den)})"


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


def sw_gf_count(n: int, k: int) -> int:
    """Coefficient n of `sw_gf(k)`: the smooth words in [k]^n.

    A smooth word of length n >= 1 spans at most n letters, so from
    alphabet n - 1 on each of its 3^(n-1) step sequences, spanning s
    letters, fits k + 1 - s >= 0 ways: the count grows by 3^(n-1) per
    letter.  Past alphabet max(n - 1, 1) it reads `sw_gf` there and adds
    that line, and builds nothing of size k.

    >>> sw_gf_count(11, 3), sw_gf_count(3, 10**18) == 9 * 10**18 - 10
    (19601, True)
    """
    # `series_coefficient` checks n too, but only after the build, which can
    # take seconds at a large k; a bad length must not wait for it.
    check_int("word length", n, 0, sys.maxsize)
    check_int("alphabet size", k, 1)
    if not n:
        return 1
    base = min(k, max(n - 1, 1))  # the line adds nothing when k <= base
    return series_coefficient(sw_gf(base), n) + (k - base) * 3 ** (n - 1)


def scw_gf_count(n: int, k: int) -> int:
    """Coefficient n of `scw_gf(k)`: the smooth cyclic words in [k]^n.

    Below n = ``_POWER_SUMS_OVER_K * k`` it sums the power sums of the
    squared zeros of U_k (see the module docstring) and builds nothing of
    size k when n is small; from there on it reads `scw_gf` by
    `series_coefficient`.

    >>> scw_gf_count(11, 3), scw_gf_count(0, 10**18)
    (16239, 1)
    """
    check_int("word length", n, 0, sys.maxsize)
    check_int("alphabet size", k, 1)
    if n >= _POWER_SUMS_OVER_K * k:
        return series_coefficient(scw_gf(k), n)
    if not n:
        return 1
    r = _reversed_v(k, min(k, n) // 2)
    # -z R'(z) / R(z) = p_1 z + p_2 z^2 + ...; its constant term is 0.
    sums = _series(Poly(*(-i * c for i, c in enumerate(r))), [Poly(*r)])
    next(sums)
    total, binom = 0, 1  # binom = C(n, j)
    for j, p in zip(range(2, n + 1, 2), sums):
        binom = binom * (n - j + 2) * (n - j + 1) // ((j - 1) * j)
        total += binom * p
    return k + 2 * total


def _reversed_v(k: int, degree: int) -> list[int]:
    """Coefficients 0..degree (degree <= k // 2) of R(z) = sum_i (-1)^i
    C(k-i, i) z^i, the reversal of V, where U_k(u/2) = u^(k mod 2) V(u^2).

    R(z) = prod_v (1 - v z) over the roots v of V, the squared zeros of
    U_k(u/2) taken once per +- pair.  Each coefficient follows from the one
    before: C(k-i-1, i+1) = C(k-i, i) (k-2i) (k-2i-1) / ((i+1) (k-i)).
    """
    r = [1]
    for i in range(degree):
        r.append(-r[-1] * (k - 2 * i) * (k - 2 * i - 1) // ((i + 1) * (k - i)))
    return r


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
    return list(itertools.islice(_series(*_cancelled(rs)), n_max + 1))


def series_coefficient(rs: RationalSeries, n: int) -> int:
    """Power-series coefficient ``n`` of ``rs``, exactly.

    Below ``_JUMP_OVER_DEGREE * d``, with d the degree of the denominator
    factors the numerator does not cancel, it reads the lazy series and
    holds none of the coefficients before n.  From there on it reads only
    the first T = max(deg num + 1, d) coefficients and jumps to n by
    Fiduccia's method (see the module docstring).

    >>> series_coefficient(RationalSeries(Poly(1), Poly(1, -3)), 100) == 3**100
    True
    """
    check_int("word length", n, 0, sys.maxsize)
    num, kept = _cancelled(rs)
    d = sum(f.degree for f in kept)
    head = max(len(num.coeffs), d)
    series = _series(num, kept)
    if n < max(head, _JUMP_OVER_DEGREE * d):
        return next(itertools.islice(series, n, None))
    if not d:  # the series is the numerator, a polynomial of degree < n
        return 0
    window = list(itertools.islice(series, head))[head - d:]
    low = math.prod(kept, start=Poly(1)).coeffs[:0:-1]
    return sum(map(operator.mul, _x_power_mod(n - head + d, low), window))


def _cancelled(rs: RationalSeries) -> tuple[Poly, list[Poly]]:
    """The numerator of ``rs`` divided by every denominator factor that
    divides it exactly, and the factors that do not."""
    num, kept = rs.num, []
    for f in rs.factors:
        quotient = _exact_quotient(num, f)
        if quotient is None:
            kept.append(f)
        else:
            num = quotient
    return num, kept


def _series(num: Poly, kept: list[Poly]):
    """Every power-series coefficient of ``num / prod(kept)``, lazily; each
    division stage holds only its last few values, so reading one
    coefficient holds none of the ones before it."""
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


def _x_power_mod(e: int, low: list[int]) -> list[int]:
    """Coefficients of x^e mod chi, chi = x^d + sum_j low[j] x^j (d >= 1),
    by left-to-right binary powering from the longest prefix of e below d."""
    d = len(low)
    top = 0
    while e >> top >= d:
        top += 1
    r = [0] * d
    r[e >> top] = 1
    for bit in range(top - 1, -1, -1):
        r = _reduced(_square(r), low)
        if e >> bit & 1:
            c = r[-1]
            r = [-c * low[0], *map(operator.sub, r, map(c.__mul__, low[1:]))]
    return r


def _reduced(s: list[int], low: list[int]) -> list[int]:
    """``s`` (ascending coefficients) mod chi, in place, one row per
    degree i >= d: x^i = -sum_j low[j] x^(i-d+j), d big-by-small products."""
    d = len(low)
    for i in range(len(s) - 1, d - 1, -1):
        c = s.pop()
        if c:
            s[i - d:] = map(operator.sub, s[i - d:], map(c.__mul__, low))
    return s


def _square(r: list[int]) -> list[int]:
    """Coefficients of r(x)^2 from one integer square: the slots are wide
    enough for |coefficient| <= d * max|r_i|^2 with a sign bit to spare."""
    bits = 2 * max(map(int.bit_length, r)) + len(r).bit_length() + 1
    width = -(-bits // 8)
    packed = _pack(r, width)
    packed *= packed  # frees the factor before the slots are read
    return _unpack(packed, 2 * len(r) - 1, width)


def _pack(coeffs: list[int], width: int) -> int:
    """sum_i coeffs[i] * 256^(width*i); needs |coeffs[i]| < 2^(8*width-1).

    Each slot holds coeffs[i] plus the bias 2^(8*width-1), so every slot
    is a nonnegative byte string; subtracting the biases afterwards takes
    one big subtraction instead of a borrow per slot."""
    bias = 1 << (8 * width - 1)
    raw = b"".join((c + bias).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _biases(len(coeffs), width)


def _unpack(value: int, count: int, width: int) -> list[int]:
    """The ``count`` signed slots of ``value``, the inverse of `_pack`."""
    raw = (value + _biases(count, width)).to_bytes(count * width, "little")
    bias = 1 << (8 * width - 1)
    return [int.from_bytes(raw[i:i + width], "little") - bias
            for i in range(0, count * width, width)]


def _biases(count: int, width: int) -> int:
    """The bias 2^(8*width-1) in each of ``count`` slots."""
    return int.from_bytes(
        (1 << (8 * width - 1)).to_bytes(width, "little") * count, "little")
