"""Rotation classes: from cyclic-word counts to necklace counts.

A necklace of length n is a class of cyclic words under rotation.  By
Burnside's lemma the classes number the average, over the n rotations,
of the words each rotation fixes.  A rotation of order d fixes the words
made of d copies of a word of length n/d, and phi(d) rotations have
order d, so with ``cyclic(m)`` the cyclic words of length m there are
(1/n) sum_{d|n} phi(d) cyclic(n/d) necklaces.

This is the one home of that average, for one length (`necklaces`: every
divisor and its phi from one factorisation of n) or for a whole row
n = 0..n_max at once (`necklaces_row`: one totient sieve, `totients`,
then each phi(d) cyclic(q) added into entry n = d q).  It
imports no engine: the exact, generating-function and spectral pipelines
each pass in their own cyclic counts, so they stay independent
cross-checks of one another.
"""
from __future__ import annotations

from collections.abc import Callable
from itertools import islice

from ._args import check_int


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
    return sum(f * cyclic(n // d) for d, f in _divisor_totients(n))


def _divisor_totients(n: int) -> list[tuple[int, int]]:
    """(d, phi(d)) for every divisor d of n >= 1, ascending in d, from one
    trial division: each prime power p^e of n extends every pair (d, f)
    so far to (d p^i, f p^(i-1) (p-1)) for i = 1..e."""
    check_int("word length", n, 1)
    pairs, rest, p = [(1, 1)], n, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # no prime below p divides rest, so rest is prime
        if rest % p == 0:
            grown, step = pairs, p - 1
            while rest % p == 0:
                rest //= p
                grown = [(d * p, f * step) for d, f in grown]
                pairs += grown
                step = p
        p += 1
    return sorted(pairs)


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
