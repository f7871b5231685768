"""Exact counting through powers of the smoothness transfer matrix.

M is the k x k 0/1 matrix with M[i][j] = 1 iff |i - j| <= 1: walks in it
are smooth words and closed walks are smooth cyclic words.  Everything is
computed over Python's arbitrary-precision integers, so results are exact
at any length.

Single counts (``sw_exact``, ``scw_exact``, and ``necklace_exact`` through
``scw_exact`` at each divisor) each have two engines, and one door,
`_exact`, checks the arguments, answers the empty word and lets a cost
rule pick the engine from (n, k) alone:

* the method of images: a walk on 1..k is a free walk on the integers
  reflected off 0 and k+1, so the count is a weighted sum of the
  trinomial coefficients [x^m](1 + x + 1/x)^n over m mod 2(k+1), streamed
  by their recurrence, about n^2 bit operations and O(n) space at any k;
* Fiduccia's jump (`_jump`): M has the characteristic polynomial
  chi_k = U_k((x-1)/2), built here by chi_j = (x-1) chi_{j-1} - chi_{j-2}
  (`_chi`), so by Cayley-Hamilton the terms u^T M^p v (p = 0, 1, ...) of
  a count obey the recurrence of chi_k, and `_jump._term` reads term p
  from the first k as the bilinear form sum_{a,b} s_a s'_b t_(a+b) of
  s = x^(p//2) mod chi_k, s' = s or x s mod chi_k, and the first 2k - 1
  terms t.  For cyclic words these are tr M^i, from Newton's identities
  on chi_k (`_power_sums`).  Smooth words see only the vectors that
  reversing the alphabet leaves unchanged, so they jump by the polynomial
  of M on their halves, of order d = ceil(k/2), from the first d counts
  by images.  About d^2 log n products of a big by a small number, and
  one square of d packed numbers per bit of n but the last, the widest of
  about n/2 bits; for the last bit the form takes d products of two
  numbers of about n/2 bits, and s s' is never formed.

Images run iff d^2 > C n^0.524, with C fitted from timings, so large
alphabets use images and small ones the jump.

Whole rows (every length n = 0..n_max at one k, as ``table`` and
``check`` print them) record each step of one walk instead of starting
over per length: the all-ones vector for smooth words, of which only the
mirror-symmetric half is walked, about n_max k / 2 additions; e_0 on the
cycle Z/2(k+1) folded onto 0..k+1 for cyclic words, about n_max k
additions, with 3^n kept as a running product.  Every row comes from one
walk, `_walk`, the tridiagonal step with each end a wall (0 past it) or a
mirror (an entry of the vector past it): a wall and a mirror for the half
walk of ``sw_row``, and two mirrors for the folded cycle of ``scw_row``.
No single count walks, so the rows witness both engines.

Every cyclic count is trace M^n = (k+1) c_n - (3^n + (-1)^n)/2, with c_n
the closed walks at 0 on the cycle Z/2(k+1) (`_trace`).  Necklace counts
average the cyclic counts over rotations with Euler's totient in
`_rotations`, the one home of that average (a necklace row takes one
pass over its cyclic row), which the generating-function and spectral
pipelines use too; the division is checked exact, since anything else is
a bug.
"""
from __future__ import annotations

import sys
from collections.abc import Callable, Iterator
from itertools import islice
from operator import add, mul

from ._args import check_int
from ._jump import _term
from ._rotations import necklaces, necklaces_row


def _walk(h: list[int], left: int | None = None,
          right: int | None = None) -> Iterator[list[int]]:
    """Yield h, then each tridiagonal step of it: entry i of the next
    vector is the sum of entries i-1, i and i+1.  Past each end lies 0 (a
    wall, None) or the entry h[left] or h[right] (a mirror); between two
    walls this is h, M h, M^2 h, ... for the M of size len(h)."""
    while True:
        yield h
        padded = [0 if left is None else h[left], *h,
                  0 if right is None else h[right]]
        h = list(map(add, map(add, padded, h), padded[2:]))


def sw_exact(n: int, k: int) -> int:
    """Number of smooth words in [k]^n (1^T M^(n-1) 1 for n >= 1)."""
    return _exact(n, k, _sw_images, _sw_jump, halved=True)


def scw_exact(n: int, k: int) -> int:
    """Number of smooth cyclic words in [k]^n (trace of M^n for n >= 1)."""
    return _exact(n, k, _scw_images, _scw_jump, halved=False)


def _exact(n: int, k: int, images: Callable[[int, int], int],
           jump: Callable[[int, int], int], halved: bool) -> int:
    """One count by the engine `_engine` names for a jump of order k, or
    ceil(k/2) if ``halved``; n = 0 is the empty word."""
    check_int("word length", n, 0)
    check_int("alphabet size", k, 1)
    if n == 0:
        return 1
    order = k - k // 2 if halved else k
    return (images if _engine(n, order) == "images" else jump)(n, k)


# Images cost about n^2 bit operations whatever k is.  The jump's cost is
# led by its widest squares, Karatsuba on d packed numbers of about n/2
# bits for a recurrence of order d, about (d n)^1.585, so images win iff
# d^1.585 > c n^0.415, that is d^2 > C n^0.524 (d^2 stays an exact
# integer at any k).  Timings (ms, best of 15 to n = 1000, of 7 at 3000,
# of 3 at 10000 and 30000, one run at 100000; Python 3.11, 2 cores) of
# images against the jump, scw at k = d and sw at k = 2d, at the last d
# timed at which the jump wins and the first at which it loses:
#
#       n     scw: d  images / jump        sw: d  images / jump   d*, scw / sw
#     300          8    0.14 / 0.14            7    0.27 / 0.26
#                  9    0.14 / 0.16            8    0.28 / 0.30      8.5 / 7.5
#    1000         20    1.21 / 1.18           17    0.84 / 0.82
#                 21    1.19 / 1.32           18    0.84 / 0.88     20.5 / 17.5
#    3000         36    7.5 / 7.4             32    8.0 / 7.6
#                 38    7.6 / 8.5             34    8.0 / 8.6         37 / 33
#   10000         56     51 / 43              56     55 / 46
#                 64     53 / 55              64     65 / 97          60 / 60
#   30000         80    413 / 363             80    473 / 367
#                 90    446 / 563             90    415 / 463         85 / 85
#  100000        120   5043 / 4357           100   5553 / 3941
#                140   5102 / 6748           120   5951 / 6295       130 / 110
#
# d*^2 n^-0.524 is 2.8-11.3 below n = 3000, where the jump's d^2 log n
# big-by-small products weigh more than its squares, and 16-41 from there
# on; the constant rounds the median of all twelve, 24.75.
_IMAGES_OVER_JUMP = 25


def _engine(n: int, order: int) -> str:
    """Name of the cheaper exact engine for one count at n >= 1 whose jump
    has a recurrence of that order."""
    if order ** 2 > _IMAGES_OVER_JUMP * n ** 0.524:
        return "images"
    return "jump"


def _chi(size: int, corner: int = 1, link: int = 1) -> list[int]:
    """Ascending coefficients of det(x I - A), for A the M of that size
    but for A[-1][-1] = ``corner`` and A[-1][-2] = ``link``.  Expanding
    along the last row, chi_j = (x - 1) chi_{j-1} - chi_{j-2} from
    chi_0 = 1 and chi_{-1} = 0, with ``corner`` and ``link`` in place of
    the two 1s at j = size; the defaults give the characteristic
    polynomial chi_k of M itself."""
    before, chi = [0], [1]
    for j in range(1, size + 1):
        a, b = (corner, link) if j == size else (1, 1)
        before, chi = chi, [x - a * c - b * e for x, c, e in
                            zip([0, *chi], [*chi, 0], [*before, 0, 0])]
    return chi


def _power_sums(chi: list[int]) -> list[int]:
    """tr M^i for i = 0..k-1: the power sums of the roots of the monic chi
    of degree k, by Newton's identities
    p_m = -m chi[k-m] - sum_{j=1}^{m-1} chi[k-j] p_{m-j}."""
    k = len(chi) - 1
    sums = [k]
    for m in range(1, k):
        sums.append(-m * chi[k - m]
                    - sum(map(mul, chi[k - 1:k - m:-1], sums[:0:-1])))
    return sums


def _sw_jump(n: int, k: int) -> int:
    # 1^T M^p 1 sees only the vectors that reversing the alphabet leaves
    # unchanged, so it obeys the recurrence of M on their halves, as
    # `sw_row` walks them: of size ceil(k/2), ending in a mirror that
    # doubles the last diagonal entry (even k) or the link to the middle
    # entry (odd k).  Its heads 1^T M^i 1 = sw(i + 1) come from images,
    # but for sw(1) = k.
    half = k - k // 2
    return _term(n - 1, _chi(half, 2 - k % 2, 1 + k % 2)[:-1],
                 [k, *(_sw_images(m, k) for m in range(2, half + 1))])


def _scw_jump(n: int, k: int) -> int:
    chi = _chi(k)
    return _term(n, chi[:-1], _power_sums(chi))


def _trinomials(length: int) -> Iterator[int]:
    """Yield T(L, m) = [x^m](1 + x + 1/x)^L for m = L, L-1, ..., 0.

    Coefficient j of (1 + x + x^2)^L is T(L, j - L) = T(L, L - j), and
    (j+1) a_{j+1} = (L-j) a_j + (2L-j+1) a_{j-1}; only two terms are kept.
    """
    before, a = 0, 1
    for j in range(length):
        yield a
        after, rest = divmod(
            (length - j) * a + (2 * length - j + 1) * before, j + 1)
        if rest:
            raise AssertionError(
                f"trinomial recurrence inexact at L={length}, j={j}; "
                "counting bug")
        before, a = a, after
    yield a


def _images_sum(length: int, period: int, weight: Callable[[int], int]) -> int:
    """sum_{|m| <= L} T(L, m) weight(m mod P) with P = ``period``, for
    weight(r) == weight(-r mod P): T(L, m) = T(L, -m), so only m >= 0 is
    walked, and only the min(P, L + 1) residues it reaches are bucketed."""
    half = [0] * min(period, length + 1)
    terms = _trinomials(length)
    for m, t in zip(range(length, 0, -1), terms):  # stops before T(L, 0)
        half[m % period] += t
    return (weight(0) * next(terms)
            + 2 * sum(t * weight(r) for r, t in enumerate(half)))


def _sw_images(n: int, k: int) -> int:
    """1^T M^(n-1) 1 by the reflection principle.

    A walk on 1..k is a free walk on Z reflected off 0 and k+1, so with
    P = 2(k+1) it is sum_m T(n-1, m) w(m mod P), where w(r) counts letter
    pairs (i, j) with j - i = r minus those with i + j = r (mod P).
    """
    p = 2 * (k + 1)
    return _images_sum(n - 1, p, lambda r: max(0, k - min(r, p - r))
                       - max(0, min(r - 1, p - 1 - r)))


def _scw_images(n: int, k: int) -> int:
    """Trace of M^n from c_n = sum_{m = 0 mod 2(k+1)} T(n, m) (`_trace`)."""
    closed = _images_sum(n, 2 * (k + 1), lambda r: int(r == 0))
    return _trace(k, closed, 3 ** n, (-1) ** n)


def _trace(k: int, closed: int, power: int, sign: int) -> int:
    """Trace of M^n from the ``closed`` walks of length n at 0 on the cycle
    Z/2(k+1), whose eigenvalues are 3, -1 and each eigenvalue of M twice;
    the caller passes ``power`` = 3^n and ``sign`` = (-1)^n."""
    return (k + 1) * closed - (power + sign) // 2


def necklace_exact(n: int, k: int) -> int:
    """Number of smooth necklaces in [k]^n: the rotation average
    (1/n) sum_{d|n} phi(d) scw(n/d, k); n = 0 counts the empty necklace."""
    check_int("word length", n, 0)
    check_int("alphabet size", k, 1)
    return necklaces(n, lambda m: scw_exact(m, k))


def sw_row(k: int, n_max: int) -> list[int]:
    """Smooth-word counts in [k]^n for n = 0..n_max, from one walk of the
    all-ones vector w: entry n is 1^T M^(n-1) 1.  Only the first half of
    w is walked: reversing the alphabet leaves w unchanged, as it does M,
    so right of the middle lies a mirror, h[-1] again for even k and h[-2]
    for odd k, and for k = 1 a wall.  About n_max k / 2 additions."""
    check_int("alphabet size", k, 1)
    # n_max + 1 entries: the most that `islice` can count is sys.maxsize.
    check_int("n_max", n_max, 0, sys.maxsize - 1)
    if k > sys.maxsize:  # as [1] * k would: no list of k entries exists
        raise OverflowError(f"alphabet size {k} cannot index a list")
    odd = k % 2
    mirror = -1 - odd if k > 1 else None
    halves = islice(_walk([1] * (k - k // 2), right=mirror), n_max)
    if odd:  # the middle entry h[-1] is counted once
        return [1] + [2 * sum(h) - h[-1] for h in halves]
    return [1] + [2 * sum(h) for h in halves]


def scw_row(k: int, n_max: int) -> list[int]:
    """Smooth cyclic-word counts in [k]^n for n = 0..n_max (entry 0 is the
    empty word): `_trace` of the closed walks at 0 on the cycle Z/2(k+1),
    read off one walk of e_0 on the cycle folded by r <-> -r onto 0..k+1,
    whose ends are the mirrors h[1] and h[k].  About n_max k additions;
    3^n and (-1)^n are carried from one entry to the next.
    """
    check_int("alphabet size", k, 1)
    # n_max + 1 entries: the most that `islice` can count is sys.maxsize.
    check_int("n_max", n_max, 0, sys.maxsize - 1)
    row = [1]
    power, sign = 1, 1
    for h in islice(_walk([1] + [0] * (k + 1), 1, k), 1, n_max + 1):
        power, sign = 3 * power, -sign
        row.append(_trace(k, h[0], power, sign))
    return row


def necklace_row(k: int, n_max: int) -> list[int]:
    """Smooth-necklace counts in [k]^n for n = 0..n_max, by the rotation
    average of one `scw_row`."""
    return necklaces_row(scw_row(k, n_max))
