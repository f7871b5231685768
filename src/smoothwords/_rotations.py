"""Rotation classes: from cyclic-word counts to necklace counts.

A necklace of length n is a class of cyclic words under rotation.  By
Burnside's lemma the classes number the average, over the n rotations,
of the words each rotation fixes.  A rotation of order d fixes the words
made of d copies of a word of length n/d, and phi(d) rotations have
order d, so with ``cyclic(m)`` the cyclic words of length m there are
(1/n) sum_{d|n} phi(d) cyclic(n/d) necklaces.

This is the one home of that average, for one length (`necklaces`) or
for a whole row n = 0..n_max at once (`necklaces_row`: one totient sieve,
`totients`, then each phi(d) cyclic(q) added into entry n = d q).  It
imports no engine: the exact, generating-function and spectral pipelines
each pass in their own cyclic counts, so they stay independent
cross-checks of one another.
"""
from __future__ import annotations

from collections.abc import Callable
from itertools import islice

from ._args import check_int


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


def totients(m_max: int) -> list[int]:
    """[0, phi(1), ..., phi(m_max)], by one sieve over the primes."""
    phi = list(range(m_max + 1))
    for p in range(2, m_max + 1):
        if phi[p] == p:  # no smaller prime divides p
            phi[p::p] = [m - m // p for m in phi[p::p]]
    return phi


def rotation_sum(n: int, cyclic: Callable[[int], float]) -> float:
    """sum_{d|n} phi(d) cyclic(n/d) for n >= 1: n times the rotation
    average, exact for int counts and a float sum for float ones."""
    return sum(totient(d) * cyclic(n // d) for d in divisors(n))


def necklaces(n: int, cyclic: Callable[[int], int]) -> int:
    """Necklaces of length n from the exact cyclic-word counts
    ``cyclic(m)``: `rotation_sum` divided by n, checked exact; n = 0
    counts the empty necklace."""
    if n == 0:
        return 1
    return _average(rotation_sum(n, cyclic), n)


def necklaces_row(cyclic: list[int]) -> list[int]:
    """`necklaces` for every n = 0..len(cyclic) - 1 from the whole row of
    exact cyclic-word counts: the sum over d | n sweeps the multiples of
    each d once, with phi from one sieve."""
    n_max = len(cyclic) - 1
    phi = totients(n_max)
    total = list(cyclic)  # the d = 1 terms
    for d in range(2, n_max + 1):
        f = phi[d]
        total[d::d] = [t + f * c for t, c in zip(total[d::d],
                                                 islice(cyclic, 1, None))]
    return [1] + [_average(total[n], n) for n in range(1, n_max + 1)]


def _average(total: int, n: int) -> int:
    """``total`` / n, checked exact."""
    if total % n:
        raise AssertionError(
            f"rotation-average sum {total} not divisible by {n}; counting bug")
    return total // n
