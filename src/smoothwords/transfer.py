"""Exact counting through powers of the smoothness transfer matrix.

M is the k x k 0/1 matrix with M[i][j] = 1 iff |i - j| <= 1: walks in it
are smooth words and closed walks are smooth cyclic words.  Everything is
computed over Python's arbitrary-precision integers, so results are exact
at any length.

Three query pipelines, per their cost profiles:

* row-sum queries (all smooth words, or refined by first letter) iterate
  the tridiagonal matrix-vector step, O(n k) big-integer additions;
* trace and single-entry queries (cyclic words, endpoint-refined counts)
  use binary exponentiation of the full matrix, exploiting that powers of
  the symmetric M are symmetric;
* whole rows (every length n = 0..n_max at one k, as ``table`` and
  ``check`` print them) record each step of one walk instead of starting
  over per length: O(n_max k) for smooth words, O(n_max k^2 / 2) for
  cyclic words and necklaces.

Necklace counts average the cyclic counts over rotations with Euler's
totient; the division is checked exact, since anything else is a bug.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import islice
from operator import add, mul

from ._args import check_int
from .chebyshev import theta_poly
from .genfunc import RationalSeries

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


def _walk(w: list[int]) -> Iterator[list[int]]:
    """Yield w, M w, M^2 w, ... for the tridiagonal M of size len(w)."""
    while True:
        yield w
        padded = [0, *w, 0]
        w = list(map(add, map(add, padded, w), padded[2:]))


def _mul_sym(a: Matrix, b: Matrix, k: int) -> Matrix:
    # a, b are powers of M, hence symmetric and commuting, so the product
    # is also symmetric and column j of b equals row j of b.
    rows: list[list[int]] = [[0] * k for _ in range(k)]
    for i in range(k):
        ai = a[i]
        for j in range(i, k):
            s = sum(map(mul, ai, b[j]))
            rows[i][j] = s
            rows[j][i] = s
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
    check_int("word length", n, 0)
    check_int("alphabet size", k, 1)
    if n == 0:
        return 1
    return sum(matrix_power_apply(k, n - 1, [1] * k))


def sw_prefix_exact(i: int, n: int, k: int) -> int:
    """Number of smooth words in [k]^n whose first letter is ``i``."""
    check_int("alphabet size", k, 1)
    check_int("first letter", i, 1, k)
    check_int("word length", n, 1)
    return matrix_power_apply(k, n - 1, [1] * k)[i - 1]


def scw_exact(n: int, k: int) -> int:
    """Number of smooth cyclic words in [k]^n (trace of M^n for n >= 1)."""
    check_int("word length", n, 0)
    check_int("alphabet size", k, 1)
    if n == 0:
        return 1
    p = matrix_power(k, n)
    return sum(p[i][i] for i in range(k))


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


def divisors(m: int) -> list[int]:
    """Sorted positive divisors of ``m``."""
    check_int("divisors argument", m, 1)
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def totient(m: int) -> int:
    """Euler's totient of ``m``, by trial-division factorization."""
    check_int("totient argument", m, 1)
    result = m
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def _burnside(n: int, cyclic: Callable[[int], int]) -> int:
    """Necklaces of length n from the cyclic-word counts ``cyclic(m)``:
    the rotation average (1/n) sum_{d|n} phi(d) cyclic(n/d); n = 0 counts
    the empty necklace."""
    if n == 0:
        return 1
    total = sum(totient(d) * cyclic(n // d) for d in divisors(n))
    if total % n:
        raise AssertionError(
            f"rotation-average sum {total} not divisible by {n}; counting bug")
    return total // n


def necklace_exact(n: int, k: int) -> int:
    """Number of smooth necklaces in [k]^n: the rotation average
    (1/n) sum_{d|n} phi(d) scw(n/d, k); n = 0 counts the empty necklace."""
    check_int("word length", n, 0)
    check_int("alphabet size", k, 1)
    return _burnside(n, lambda m: scw_exact(m, k))


def sw_row(k: int, n_max: int) -> list[int]:
    """Smooth-word counts in [k]^n for n = 0..n_max, from one walk of the
    all-ones vector: entry n is 1^T M^(n-1) 1.  O(n_max k) additions."""
    check_int("alphabet size", k, 1)
    check_int("n_max", n_max, 0)
    return [1] + [sum(w) for w in islice(_walk([1] * k), n_max)]


def scw_row(k: int, n_max: int) -> list[int]:
    """Smooth cyclic-word counts in [k]^n for n = 0..n_max: entry n >= 1 is
    the trace of M^n, entry 0 is 1 (the empty word).

    Diagonal entry i of M^n is coordinate i of the walk of the basis vector
    e_i.  Reversing the alphabet (i <-> k+1-i) is a symmetry of M, so
    letters i and k+1-i share their diagonal entries and only ceil(k/2)
    walks are needed.  O(n_max k^2 / 2) additions.
    """
    check_int("alphabet size", k, 1)
    check_int("n_max", n_max, 0)
    row = [1] + [0] * n_max
    for i in range((k + 1) // 2):
        weight = 1 if 2 * i + 1 == k else 2
        basis = [int(j == i) for j in range(k)]
        for n, w in enumerate(islice(_walk(basis), 1, n_max + 1), 1):
            row[n] += weight * w[i]
    return row


def necklace_row(k: int, n_max: int) -> list[int]:
    """Smooth-necklace counts in [k]^n for n = 0..n_max, by the rotation
    average of one `scw_row`."""
    cyclic = scw_row(k, n_max)
    return [_burnside(n, cyclic.__getitem__) for n in range(n_max + 1)]


def usmani_inverse_entry(i: int, j: int, k: int) -> RationalSeries:
    """Entry (i, j) of the inverse of A = I - xM, as a ratio of integer
    polynomials: x^|j-i| theta_{min-1} theta_{k-max} / theta_k."""
    check_int("alphabet size", k, 1)
    check_int("row index", i, 1, k)
    check_int("column index", j, 1, k)
    lo, hi = min(i, j), max(i, j)
    num = (theta_poly(lo - 1) * theta_poly(k - hi)).shift(hi - lo)
    return RationalSeries(num, theta_poly(k))
