"""Ground-truth oracle: word predicates and brute-force enumeration.

Words over the alphabet {1, ..., k} are plain sequences of ints.  A word
is *smooth* when consecutive letters differ by at most 1, and *smooth
cyclic* when additionally the last and first letters differ by at most 1.

Counting here is enumeration, so every counted word and every counted
necklace, up to adding one constant to all its letters, is visited once,
and the counts stay independent of the matrix, generating-function and
spectral pipelines they cross-check.  Each oracle yields a whole row,
every length n = 0..n_max at one k, from one enumeration.  Smooth and
smooth cyclic words are extended from their smooth prefixes (each next
letter is one of {c-1, c, c+1} clipped to the alphabet) a length at a
time: for one walked first letter, the level at length n holds one byte
per word, its last letter relative to the first, and the next level is
built from it by two `bytes.translate` calls.  The first letters that
reach neither letter 1 nor letter k by length n_max all have the same
levels, so one of them is walked and stands for the others.  A word of
length 2 or more of a walked first letter is counted from its own byte
and a one-letter word is its letter, so nothing is merged by state as in
the transfer DP.  The largest level the guard admits (n = 16, k = 6)
holds about 6.3 M bytes.  Smooth necklaces with least letter 1 are
generated once each, as least rotations, by FKM prenecklace generation
pruned to smooth prefixes that can still close by length n_max, and
tallied by length and largest letter.  One with largest letter top stands
for its k - top + 1 translates, the necklaces with the other least
letters, at every k >= top, and the walk at k is the walk at a larger K
cut to letters at most k; so one walk at the largest of several alphabets
gives the rows of them all (`necklace_rows_bf`).  No rotation of any word
is formed.  A single count is one entry of its row.  An instance guard
rejects enumerations beyond ~1e8 words.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator, Sequence

from ._args import check_int

Word = tuple[int, ...]

# A row to depth n visits at most k * 3^(n-1) words of length n (and half
# as many shorter ones); refuse anything past this.
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


# `bytes.translate` tables taking byte b to b - 1 and to b + 1.
_DOWN = bytes([255, *range(255)])
_UP = bytes([*range(1, 256), 0])


@functools.lru_cache(maxsize=1)
def _word_rows(k: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """Smooth and smooth cyclic word counts in [k]^n for n = 0..n_max, one
    level of words per length (arguments already validated).

    For each walked first letter in turn, the level at length n holds one
    byte per smooth word of length n starting with that letter: its last
    letter minus the first, plus n_max + 1.  Every letter of such a word
    lies within n - 1 of the first, so the bytes stay in 2..2 n_max, and
    the guard keeps n_max below 28.  The next level is the level stepped
    down, kept, and stepped up, less the words ending in letter 1 and in
    letter k respectively.  A word is smooth cyclic iff its byte is within
    1 of n_max + 1.  A first letter f with n_max < f <= k - n_max reaches
    neither letter 1 nor letter k, so its levels never drop a byte and are
    the same for every such f: one of them is walked, and its counts are
    weighted by the k - 2 n_max letters it stands for, as `necklace_rows_bf`
    weights a necklace by its translates.  At most 2 n_max + 1 first
    letters are walked, so no row costs work per letter of k.  Every
    counted word of length 2 or more of a walked first letter is its own
    byte, made by extending its prefix's byte; nothing is merged by last
    letter, which keeps this an enumeration rather than the transfer DP it
    checks.  The k one-letter words, all smooth cyclic, are counted without
    a level.  A level holds at most 3^(n_max-1) bytes; at the guard's
    largest, n = 16 and k = 6, it holds about 6.3 M, and building it from
    the one before peaks near 13 MB.  The cache holds the last pair of
    rows, so the `sw` and `scw` rows of one alphabet come from the same
    enumeration.
    """
    smooth = [1] + [0] * n_max
    cyclic = [1] + [0] * n_max
    if n_max:
        smooth[1] = cyclic[1] = k
    base = n_max + 1  # the byte of a word's first letter
    start, near = bytes((base,)), bytes((base - 1, base, base + 1))
    lengths = range(2, n_max + 1)
    # (first letter, the first letters it stands for): those within n_max
    # of an end one by one, then one interior letter for all the rest.
    walks = [(first, 1) for first in itertools.chain(
        range(1, min(k, n_max) + 1), range(max(k - n_max, n_max) + 1, k + 1))]
    if k > 2 * n_max:
        walks.append((n_max + 1, k - 2 * n_max))
    for first, weight in walks:
        # Letters 1 and k as bytes, or none where no level reaches them.
        low = bytes((base + 1 - first,)) if first - 1 < n_max else b""
        high = bytes((base + k - first,)) if k - first < n_max else b""
        level = start
        for n in lengths:
            level = b"".join((level.translate(_DOWN, low), level,
                              level.translate(_UP, high)))
            smooth[n] += weight * len(level)
            cyclic[n] += weight * (len(level)
                                   - len(level.translate(None, near)))
    return tuple(smooth), tuple(cyclic)


def sw_row_bf(k: int, n_max: int) -> list[int]:
    """Smooth words in [k]^n for n = 0..n_max, extended a length at a time."""
    _validate_instance(n_max, k)
    return list(_word_rows(k, n_max)[0])


def scw_row_bf(k: int, n_max: int) -> list[int]:
    """Smooth cyclic words in [k]^n for n = 0..n_max, extended a length at
    a time: the words of `sw_row_bf` whose wrap gap is at most 1."""
    _validate_instance(n_max, k)
    return list(_word_rows(k, n_max)[1])


def sw_rows_bf(ks: Iterable[int], n_max: int) -> Iterator[list[int]]:
    """`sw_row_bf` for each alphabet size in ``ks``, made as it is read.

    Read in step with `scw_rows_bf` over the same sizes, each alphabet's
    one word walk serves both rows.
    """
    return (sw_row_bf(k, n_max) for k in ks)


def scw_rows_bf(ks: Iterable[int], n_max: int) -> Iterator[list[int]]:
    """`scw_row_bf` for each alphabet size in ``ks``, made as it is read."""
    return (scw_row_bf(k, n_max) for k in ks)


def _necklace_tally(k: int, n_max: int) -> list[list[int]]:
    """Smooth necklaces in [k]^t with least letter 1, t = 0..n_max, by
    largest letter: entry [t][top] counts those whose largest letter is top
    (arguments already validated; entries [t][0] and [0][...] stay 0).

    The walk is FKM prenecklace generation (Fredricksen-Kessler-Maiorana;
    Ruskey, Savage and Wang, J. Algorithms 13 (1992)) from a[1] = 1,
    pruned to smooth prefixes that can still close: a[t] runs over
    max(a[t-p], a[t-1]-1) .. min(k, a[t-1]+1, n_max+2-t), where p is the
    period of the prenecklace a[1..t-1].  The last bound drops a letter
    that cannot step back down to 2 or below by length n_max; with
    a[t] <= t it keeps every letter at most n_max // 2 + 1, which bounds
    the columns.  A node a[1..t] counts at length t iff its period divides
    t (a necklace) and a[t] <= 2, its wrap gap to a[1] = 1.  Every prefix
    of a smooth cyclic word's least rotation is both a prenecklace and
    smooth, and the extension rule does not depend on the target length,
    so the tree to depth n_max holds every shorter counted necklace too.
    Each counted necklace is its own node; no rotation of any word is
    formed.
    """
    tally = [[0] * (min(k, n_max // 2 + 1) + 1) for _ in range(n_max + 1)]
    a = [0] * (n_max + 1)  # a[1..t]; a[0] unused

    def visit(t: int, p: int, top: int) -> None:
        if t % p == 0 and a[t] <= 2:
            tally[t][top] += 1
        if t < n_max:
            prev = a[t]
            t += 1
            repeat = a[t - p]
            for c in range(max(repeat, prev - 1),
                           min(k, prev + 1, n_max + 2 - t) + 1):
                a[t] = c
                visit(t, p if c == repeat else t, top if top >= c else c)

    if n_max:
        a[1] = 1
        visit(1, 1, 1)
    return tally


def necklace_rows_bf(ks: Iterable[int], n_max: int) -> list[list[int]]:
    """`necklace_row_bf` for each alphabet size in ``ks``, all read from one
    walk at the largest of them.

    The walk's child bound clips only letters above its alphabet, and every
    prefix of a prenecklace with letters at most k has letters at most k,
    so the walk at k is the walk at any larger K cut to letters at most k.
    A necklace with least letter 1 and largest letter top <= k stands for
    its k - top + 1 translates (see `necklace_row_bf`), so entry t >= 1 of
    the row at k is the sum over top <= k of the tally at (t, top) times
    k + 1 - top.
    """
    ks = list(ks)
    for k in ks:
        _validate_instance(n_max, k)
    if not ks:
        return []
    tally = _necklace_tally(max(ks), n_max)
    return [[1] + [sum(count * (k + 1 - top)
                       for top, count in enumerate(tally[t][:k + 1]))
                   for t in range(1, n_max + 1)]
            for k in ks]


def necklace_row_bf(k: int, n_max: int) -> list[int]:
    """Smooth necklaces in [k]^n for n = 0..n_max, generating each one with
    least letter 1 once and counting its translates.

    A necklace is named by its least rotation, which starts with its least
    letter m.  Subtracting m - 1 from every letter keeps smoothness, the
    wrap gap and rotation classes, so it maps the necklaces with least
    letter m one to one onto those with least letter 1 and largest letter
    at most k - m + 1.  A necklace with least letter 1 and largest letter
    `top` therefore stands for the k - top + 1 necklaces a[i] + s,
    s = 0..k - top, and only least letter 1 is walked: the row is the one
    `necklace_rows_bf` reads at k from the walk `_necklace_tally` tallies
    by length and largest letter.
    """
    return necklace_rows_bf((k,), n_max)[0]


def count_smooth_bf(n: int, k: int) -> int:
    """Number of smooth words in [k]^n: entry n of `sw_row_bf`."""
    return sw_row_bf(k, n)[n]


def count_cyclic_bf(n: int, k: int) -> int:
    """Number of smooth cyclic words in [k]^n: entry n of `scw_row_bf`."""
    return scw_row_bf(k, n)[n]


def count_necklaces_bf(n: int, k: int) -> int:
    """Number of smooth necklaces in [k]^n: entry n of `necklace_row_bf`."""
    return necklace_row_bf(k, n)[n]
