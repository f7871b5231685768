"""Ground-truth oracle: word predicates and brute-force enumeration.

Words over the alphabet {1, ..., k} are plain sequences of ints.  A word
is *smooth* when consecutive letters differ by at most 1, and *smooth
cyclic* when additionally the last and first letters differ by at most 1.

Counting here is enumeration, so every counted object is visited once
and the counts stay independent of the matrix, generating-function and
spectral pipelines they cross-check.  Smooth and smooth cyclic words are
the leaves of one depth-first extension of smooth prefixes (each next
letter is one of {c-1, c, c+1} clipped to the alphabet).  Smooth
necklaces are generated once each, as least rotations, by FKM
prenecklace generation pruned to smooth prefixes; no rotation of any
other word is formed.  An instance guard rejects enumerations beyond
~1e8 words.
"""
from __future__ import annotations

from collections.abc import Sequence

from ._args import check_int

Word = tuple[int, ...]

# DFS visits at most k * 3^(n-1) words; refuse anything past this.
ENUMERATION_LIMIT = 10**8


def _validate_word(word: Sequence[int], k: int) -> Word:
    check_int("alphabet size", k, 1)
    w = tuple(word)
    for letter in w:
        check_int("letter", letter, 1, k)
    return w


def admits(n: int, k: int) -> bool:
    """True iff brute force accepts [k]^n: k * 3^(n-1) <= `ENUMERATION_LIMIT`."""
    check_int("word length", n, 0)
    check_int("alphabet size", k, 1)
    # 3^(n-1) >= 2^(n-1) exceeds the limit once n - 1 reaches its bit
    # length; testing that first never builds 3^(n-1) for a huge n.
    return n == 0 or (n <= ENUMERATION_LIMIT.bit_length()
                      and k * 3 ** (n - 1) <= ENUMERATION_LIMIT)


def _validate_instance(n: int, k: int) -> None:
    if not admits(n, k):
        raise ValueError(
            f"brute force rejects n={n} k={k}: "
            f"k*3^(n-1) exceeds {ENUMERATION_LIMIT}")


def is_smooth(word: Sequence[int], k: int) -> bool:
    """True iff consecutive letters differ by at most 1 (vacuously for n <= 1).

    >>> is_smooth((1, 3), 3)
    False
    >>> is_smooth((2, 3, 2, 1), 3)
    True
    """
    w = _validate_word(word, k)
    return all(abs(a - b) <= 1 for a, b in zip(w, w[1:]))


def is_smooth_cyclic(word: Sequence[int], k: int) -> bool:
    """True iff the word is smooth and the wrap gap |last - first| is at most 1.

    >>> is_smooth_cyclic((1, 2, 3), 3)
    False
    >>> is_smooth_cyclic((1, 2, 2), 3)
    True
    """
    w = tuple(word)
    return is_smooth(w, k) and (len(w) <= 1 or abs(w[-1] - w[0]) <= 1)


def _least_rotation_start(word: Word) -> int:
    """Index starting the lexicographically least rotation (Booth's algorithm)."""
    doubled = word + word
    fail = [-1] * len(doubled)
    best = 0
    for j in range(1, len(doubled)):
        c = doubled[j]
        i = fail[j - best - 1]
        while i != -1 and c != doubled[best + i + 1]:
            if c < doubled[best + i + 1]:
                best = j - i - 1
            i = fail[i]
        if c != doubled[best + i + 1]:
            if c < doubled[best]:
                best = j
            fail[j - best] = -1
        else:
            fail[j - best] = i + 1
    return best


def canonical_rotation(word: Sequence[int]) -> Word:
    """Lexicographically smallest rotation; equal outputs iff rotation equivalent.

    >>> canonical_rotation((2, 1, 2))
    (1, 2, 2)
    """
    w = tuple(word)
    if len(w) <= 1:
        return w
    s = _least_rotation_start(w)
    return w[s:] + w[:s]


def _count_walks(n: int, k: int, cyclic: bool) -> int:
    """Smooth (or smooth cyclic) words in [k]^n, counted one leaf per word.

    No memoisation: every counted word is a leaf of the recursion, which
    keeps this an enumeration rather than the transfer DP it checks.
    """
    _validate_instance(n, k)
    if n == 0:
        return 1

    def extend(first: int, c: int, length: int) -> int:
        if length == n:
            return 1 if not cyclic or abs(c - first) <= 1 else 0
        length += 1
        total = extend(first, c, length)
        if c > 1:
            total += extend(first, c - 1, length)
        if c < k:
            total += extend(first, c + 1, length)
        return total

    return sum(extend(first, first, 1) for first in range(1, k + 1))


def count_smooth_bf(n: int, k: int) -> int:
    """Number of smooth words in [k]^n, by depth-first extension."""
    return _count_walks(n, k, cyclic=False)


def count_cyclic_bf(n: int, k: int) -> int:
    """Number of smooth cyclic words in [k]^n, by depth-first extension."""
    return _count_walks(n, k, cyclic=True)


def count_necklaces_bf(n: int, k: int) -> int:
    """Number of smooth necklaces in [k]^n, generating each one once.

    FKM prenecklace generation (Fredricksen-Kessler-Maiorana; Ruskey,
    Savage and Wang, J. Algorithms 13 (1992)) pruned to smooth prefixes:
    a[t] runs over max(a[t-p], a[t-1]-1) .. min(k, a[t-1]+1), p is the
    period of the prenecklace a[1..t], and a leaf counts iff p divides n
    (a necklace) and |a[n] - a[1]| <= 1.  The pruning is exact because every prefix of a smooth
    cyclic word's least rotation is both a prenecklace and smooth.
    """
    _validate_instance(n, k)
    if n == 0:
        return 1
    a = [0] * (n + 1)  # a[1..n]; a[0] unused

    def extend(t: int, p: int) -> int:
        if t > n:
            return 1 if n % p == 0 and abs(a[n] - a[1]) <= 1 else 0
        prev = a[t - 1]
        repeat = a[t - p]
        total = 0
        for c in range(max(repeat, prev - 1), min(k, prev + 1) + 1):
            a[t] = c
            total += extend(t + 1, p if c == repeat else t)
        return total

    total = 0
    for first in range(1, k + 1):
        a[1] = first
        total += extend(2, 1)
    return total
