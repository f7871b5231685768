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

`series_coefficient` reads a single coefficient n.  With d the degree of
the factors kept and T = max(deg num + 1, d), it walks the same series
below T, at n d big-integer products.  From T on it jumps by Fiduccia's
method (C. M. Fiduccia, SIAM J. Comput. 14 (1985)): past the head of T
coefficients they obey the order-d recurrence of the kept denominator F,
whose characteristic polynomial is chi = x^d F(1/x), monic since
F(0) = 1, so b_n is term n-T+d of the sequence b_{T-d}, b_{T-d+1}, ...,
which `_jump._term` reads from its first d terms as
``sum_{a,c} s_a s'_c b_{T-d+a+c}``, for s = x^h mod chi and s' = s or
x s mod chi with h = (n-T+d)//2: about d^2 log n big-by-small products,
and s s' is never formed.  `_jump` is the one code this
pipeline shares with `transfer`, which jumps through the characteristic
polynomial of the transfer matrix; the lazy series below T is the
witness of every jumped coefficient here, as the walk rows are there.

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

  ``scw(n) = k + 2 (sum_{l=0}^{n//2} G_l q_l - m)``,

where q_l is the l-th power sum of the m = k//2 centred squares
w = u^2 - 2 in (-2, 2), one per pair, and G_l = [w^l] sum_i C(n, 2i)
(w + 2)^i (`_weights`).  The w are the zeros of U_m(w/2) + U_{m-1}(w/2)
at even k and of U_m(w/2) at odd k, so R(z) = prod (1 - w z) is
`_reversed_v` at m in its even places and, at even k, at m - 1 in its odd
ones.  The q_l, of about l bits, are the coefficients of (m R - z R') / R,
read by the same lazy division with R to degree min(k//2, n//2): about
(n/2) min(k/2, n/2) products, against n k for the series of `scw_gf`.
That cost grows like n k, and the jump's like k^2 log n, so from
n = ``_POWER_SUMS_OVER_K * k`` on the count reads `scw_gf` by
`series_coefficient` instead.

Necklaces have no rational generating function here, so `sn_gf_count`
takes the rotation average (`_rotations.necklaces`) of `scw_gf_count`
over the divisors of n; no function of its own is built or printed.
"""
from __future__ import annotations

import collections
import itertools
import math
import operator
import sys

from ._args import Value, check_int
from ._jump import _term
from ._rotations import necklaces
from .chebyshev import Poly, theta_parts, theta_poly

_ONE_MINUS_3X = Poly(1, -3)
_ONE_PLUS_X = Poly(1, 1)

# `scw_gf_count` sums power sums below n = _POWER_SUMS_OVER_K * k and reads
# `scw_gf` by `series_coefficient` from there on.  Timed against the jump
# (best of 5-21; Python 3.11, 2 cores), the power sums win below about
# n/k = 30, 38, 53 and 60 at k = 20, 40, 80 and 120, so the best constant
# depends on k; 45 is kept.
_POWER_SUMS_OVER_K = 45


class RationalSeries(Value):
    """Ratio of integer polynomials viewed as a formal power series.

    The denominator is normalized to constant term +1 (sign flipped if
    needed); a zero constant term has no power-series inverse and is
    rejected.

    ``factors`` gives the denominator as a product, which `series_coeffs`
    divides by one factor at a time; left empty, it is the denominator
    alone.  Each factor is normalized to constant term +1 like the
    denominator, and the factors must then multiply to it.  Factors play
    no part in equality, hashing or printing.  A `RationalSeries` is
    immutable.
    """

    __slots__ = ("num", "den", "factors")
    _compared = ("num", "den")
    num: Poly
    den: Poly
    factors: tuple[Poly, ...]

    def __init__(self, num: Poly, den: Poly, factors: tuple[Poly, ...] = ()):
        c0 = den.constant_term()
        if c0 == 0:
            raise ValueError("denominator constant term must be nonzero")
        if abs(c0) != 1:
            raise ValueError(f"denominator constant term must be +-1, got {c0}")
        if c0 < 0:
            num, den = -num, -den
        factors = tuple(-f if f.constant_term() < 0 else f
                        for f in factors or (den,))
        if math.prod(factors, start=Poly(1)) != den:
            raise ValueError("denominator factors must multiply to the "
                             "denominator")
        self._set(num, den, factors)

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
    centred squared zeros of U_k (see the module docstring) and builds
    nothing of size k when n is small; from there on it reads `scw_gf` by
    `series_coefficient`.

    >>> scw_gf_count(11, 3), scw_gf_count(0, 10**18)
    (16239, 1)
    """
    check_int("word length", n, 0, sys.maxsize)
    check_int("alphabet size", k, 1)
    if n >= _POWER_SUMS_OVER_K * k:
        return series_coefficient(scw_gf(k), n)
    if n < 2:  # the empty word, or the k words of one letter
        return k ** n
    m, d = k // 2, min(k, n) // 2
    r = [0] * (d + 1)
    r[::2] = _reversed_v(m, d // 2)
    if k % 2 == 0:
        r[1::2] = _reversed_v(m - 1, (d - 1) // 2)
    # (m R - z R') / R = q_0 + q_1 z + ..., q_0 = m
    sums = _series(Poly(*((m - i) * c for i, c in enumerate(r))), [Poly(*r)])
    return k + 2 * (sum(map(operator.mul, _weights(n), sums)) - m)


def sn_gf_count(n: int, k: int) -> int:
    """The smooth necklaces in [k]^n: the rotation average of
    `scw_gf_count` at each divisor of n.

    >>> sn_gf_count(7, 4), sn_gf_count(0, 10**18)
    (128, 1)
    """
    # Both checks come first, as in `sw_gf_count`: the average would refuse
    # a bad length with its own bound n >= 1, and never check k at n = 0.
    check_int("word length", n, 0, sys.maxsize)
    check_int("alphabet size", k, 1)
    return necklaces(n, lambda m: scw_gf_count(m, k))


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


def _weights(n: int):
    """The G_l of `scw_gf_count`: G_0 = P_n + P_(n-1) and G_1 = n P_(n-1) / 2
    from the Pell numbers P, then the recurrence of
    4v(1-v)F'' + (2 + (4n-6)v)F' = n(n-1)F, F(v) = sum_i C(n, 2i) v^i."""
    a, b = 0, 1  # P_0, P_-1, then P_n, P_(n-1)
    for _ in range(n):
        a, b = 2 * a + b, a
    g, after = a + b, n * b // 2
    for l in range(n // 2 + 1):
        yield g
        later, rest = divmod((l + 1) * (8 * n - 10 - 12 * l) * after
                             - (n - 2 * l) * (n - 2 * l - 1) * g,
                             8 * (l + 1) * (l + 2))
        if rest:
            raise AssertionError(
                f"weight recurrence inexact at n={n}, l={l}; counting bug")
        g, after = after, later


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
    # n_max + 1 entries: the most that `islice` can count is sys.maxsize.
    check_int("n_max", n_max, 0, sys.maxsize - 1)
    return list(itertools.islice(_series(*_cancelled(rs)), n_max + 1))


def series_coefficient(rs: RationalSeries, n: int) -> int:
    """Power-series coefficient ``n`` of ``rs``, exactly.

    Below T = max(deg num + 1, d), with d the degree of the denominator
    factors the numerator does not cancel, it reads the lazy series and
    holds none of the coefficients before n.  From T on it reads only
    those T coefficients and jumps to n by Fiduccia's method, as term
    n - T + d of the sequence that starts at coefficient T - d, from its
    first d terms by `_jump._term` (see the module docstring).

    >>> series_coefficient(RationalSeries(Poly(1), Poly(1, -3)), 100) == 3**100
    True
    """
    check_int("word length", n, 0, sys.maxsize)
    num, kept = _cancelled(rs)
    d = sum(f.degree for f in kept)
    head = max(len(num.coeffs), d)
    series = _series(num, kept)
    if n < head:
        return next(itertools.islice(series, n, None))
    if not d:  # the series is the numerator, a polynomial of degree < n
        return 0
    window = list(itertools.islice(series, head))[head - d:]
    low = math.prod(kept, start=Poly(1)).coeffs[:0:-1]
    return _term(n - head + d, low, window)


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
    if not isinstance(a, RationalSeries) or not isinstance(b, RationalSeries):
        raise TypeError(f"series_equal takes RationalSeries, got {(a, b)!r}")
    return a.num * b.den == b.num * a.den
