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
* binary exponentiation of the full matrix, about k^3 n^1.585 bit
  operations, using that powers of M are symmetric and unchanged by
  reversing the alphabet.

Images run iff k^3 > C n^0.415, with C fitted from timings, so large
alphabets use images and small ones binary powering.  Other queries:

* first-letter counts (``sw_prefix_exact``) iterate the tridiagonal
  matrix-vector step, O(n k) big-integer additions, and endpoint-refined
  counts (``scw_pair_exact``) read one entry of the binary power;
* whole rows (every length n = 0..n_max at one k, as ``table`` and
  ``check`` print them) record each step of one walk instead of starting
  over per length: the all-ones vector for smooth words, of which only
  the mirror-symmetric half is walked, about n_max k / 2 additions; e_0
  on the cycle Z/2(k+1) folded onto 0..k+1 for cyclic words, about
  n_max k additions, with 3^n kept as a running product.

Every vector and row comes from one walk, `_walk`, the tridiagonal step
with each end a wall (0 past it) or a mirror (an entry of the vector past
it): walls for ``matrix_power_apply``, a wall and a mirror for the half
walk of ``sw_row``, and two mirrors for the folded cycle of ``scw_row``.

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
from ._rotations import necklaces, necklaces_row

Matrix = tuple[tuple[int, ...], ...]


def transfer_matrix(k: int) -> Matrix:
    """The k x k adjacency matrix of the smoothness step relation."""
    check_int("alphabet size", k, 1)
    return tuple(tuple(1 if abs(i - j) <= 1 else 0 for j in range(k))
                 for i in range(k))


def matrix_power_apply(k: int, n: int, v: list[int]) -> list[int]:
    """M^n applied to ``v``, exactly; n = 0 returns a copy of ``v``.

    Uses the tridiagonal structure, so each step is O(k) additions.
    """
    check_int("alphabet size", k, 1)
    check_int("matrix power", n, 0)
    if len(v) != k:
        raise ValueError(f"vector length {len(v)} does not match k={k}")
    return next(islice(_walk(list(v)), n, None))


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


def _mul_sym(a: Matrix, b: Matrix, k: int) -> Matrix:
    # a, b are powers of M, hence symmetric, commuting and unchanged by
    # reversing the alphabet (i <-> k-1-i), so the product is too: column
    # j of b equals row j of b, and one entry in four is computed.
    rows: list[list[int]] = [[0] * k for _ in range(k)]
    for i in range((k + 1) // 2):
        ai = a[i]
        for j in range(i, k - i):
            s = sum(map(mul, ai, b[j]))
            rows[i][j] = rows[j][i] = s
            rows[k - 1 - j][k - 1 - i] = rows[k - 1 - i][k - 1 - j] = s
    return tuple(tuple(r) for r in rows)


def matrix_power(k: int, n: int) -> Matrix:
    """M^n by binary exponentiation, exactly."""
    check_int("matrix power", n, 0)
    result = None
    base = transfer_matrix(k)
    while n:
        if n & 1:
            result = base if result is None else _mul_sym(result, base, k)
        n >>= 1
        if n:
            base = _mul_sym(base, base, k)
    if result is None:
        return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    return result


def sw_exact(n: int, k: int) -> int:
    """Number of smooth words in [k]^n (1^T M^(n-1) 1 for n >= 1)."""
    return _exact(n, k, _sw_images, _sw_binary)


def sw_prefix_exact(i: int, n: int, k: int) -> int:
    """Number of smooth words in [k]^n whose first letter is ``i``."""
    check_int("alphabet size", k, 1)
    check_int("first letter", i, 1, k)
    check_int("word length", n, 1)
    return matrix_power_apply(k, n - 1, [1] * k)[i - 1]


def scw_exact(n: int, k: int) -> int:
    """Number of smooth cyclic words in [k]^n (trace of M^n for n >= 1)."""
    return _exact(n, k, _scw_images, _scw_binary)


def _exact(n: int, k: int, images: Callable[[int, int], int],
           binary: Callable[[int, int], int]) -> int:
    """One count by the engine `_engine` names; n = 0 is the empty word."""
    check_int("word length", n, 0)
    check_int("alphabet size", k, 1)
    if n == 0:
        return 1
    return (images if _engine(n, k) == "images" else binary)(n, k)


# Images cost about n^2 bit operations whatever k is; binary powering about
# k^3 n^1.585 (k^3/2 entry products per squaring, Karatsuba on entries of
# about n bits).  The constant rounds the median, 38, of k^3 n^-0.415
# t_images / t_binary over 42 timings of both engines at k = 4..30,
# n = 300..30000 (quartiles 32 and 46).
_IMAGES_OVER_BINARY = 40


def _engine(n: int, k: int) -> str:
    """Name of the cheaper exact engine for one count at n >= 1."""
    return "images" if k ** 3 > _IMAGES_OVER_BINARY * n ** 0.415 else "binary"


def _sw_binary(n: int, k: int) -> int:
    return sum(map(sum, matrix_power(k, n - 1)))


def _scw_binary(n: int, k: int) -> int:
    p = matrix_power(k, n)
    return sum(p[i][i] for i in range(k))


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


def scw_pair_exact(i: int, j: int, n: int, k: int) -> int:
    """Number of smooth cyclic words in [k]^n with first letter ``i`` and
    last letter ``j``; zero unless |i - j| <= 1."""
    check_int("alphabet size", k, 1)
    check_int("first letter", i, 1, k)
    check_int("last letter", j, 1, k)
    check_int("word length", n, 2)
    if abs(i - j) > 1:
        return 0
    return matrix_power(k, n - 1)[i - 1][j - 1]


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
