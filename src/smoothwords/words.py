"""Ground-truth oracle: word predicates and brute-force enumeration.

Words over the alphabet {1, ..., k} are plain sequences of ints.  A word
is *smooth* when consecutive letters differ by at most 1, and *smooth
cyclic* when additionally the last and first letters differ by at most 1.

Counting here works by explicit depth-first extension of smooth prefixes
(each next letter is one of {c-1, c, c+1} clipped to the alphabet), so it
visits exactly the words being counted and stays independent of the
matrix, generating-function, and spectral pipelines it cross-checks.  An
instance guard rejects enumerations beyond ~1e8 words.
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
    return n == 0 or k * 3 ** (n - 1) <= ENUMERATION_LIMIT


def _validate_instance(n: int, k: int) -> None:
    if not admits(n, k):
        raise ValueError(
            f"instance too large to enumerate: k*3^(n-1) exceeds {ENUMERATION_LIMIT}")


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
    w = _validate_word(word, k)
    if not all(abs(a - b) <= 1 for a, b in zip(w, w[1:])):
        return False
    return len(w) <= 1 or abs(w[-1] - w[0]) <= 1


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


def count_smooth_bf(n: int, k: int) -> int:
    """Number of smooth words in [k]^n, by depth-first extension."""
    _validate_instance(n, k)
    if n == 0:
        return 1

    def extend(c: int, length: int) -> int:
        if length == n:
            return 1
        return sum(extend(nxt, length + 1)
                   for nxt in (c - 1, c, c + 1) if 1 <= nxt <= k)

    return sum(extend(first, 1) for first in range(1, k + 1))


def count_cyclic_bf(n: int, k: int) -> int:
    """Number of smooth cyclic words in [k]^n, by depth-first extension."""
    _validate_instance(n, k)
    if n == 0:
        return 1

    def extend(first: int, c: int, length: int) -> int:
        if length == n:
            return 1 if abs(c - first) <= 1 else 0
        return sum(extend(first, nxt, length + 1)
                   for nxt in (c - 1, c, c + 1) if 1 <= nxt <= k)

    return sum(extend(first, first, 1) for first in range(1, k + 1))


def count_necklaces_bf(n: int, k: int) -> int:
    """Number of smooth necklaces in [k]^n: distinct canonical rotations
    among the smooth cyclic words."""
    _validate_instance(n, k)
    if n == 0:
        return 1
    seen: set[Word] = set()

    def extend(prefix: list[int]) -> None:
        if len(prefix) == n:
            if abs(prefix[-1] - prefix[0]) <= 1:
                seen.add(canonical_rotation(prefix))
            return
        c = prefix[-1]
        for nxt in (c - 1, c, c + 1):
            if 1 <= nxt <= k:
                prefix.append(nxt)
                extend(prefix)
                prefix.pop()

    for first in range(1, k + 1):
        extend([first])
    return len(seen)
