"""Ground-truth oracle: word predicates and brute-force enumeration.

Words over the alphabet {1, ..., k} are plain sequences of ints.  A word
is *smooth* when consecutive letters differ by at most 1, and *smooth
cyclic* when additionally the last and first letters differ by at most 1.

Counting here is enumeration: every counted word and every counted
necklace is visited once, up to adding one constant to all its letters,
and the counts stay independent of the matrix, generating-function and
spectral pipelines they cross-check.  All three families keep their
smoothness, wrap gap and rotation classes under that translation, so a
class of span s (largest letter less least letter, plus 1) stands for
its k + 1 - s translates in [k]^t.  Each family's oracle tallies its
classes by length t and span s once, at the largest alphabet K asked
for, and reads the row of every k <= K from that one tally
(`_rows_bf`): entry t is the sum over s <= k of tally[t][s] (k + 1 - s).

Smooth and smooth cyclic words are walked as step sequences from first
letter 0 (`_word_tally`), a length at a time: a level holds one byte per
word, its last letter relative to the first, levels are keyed by the
lowest and highest letter reached, and the next level is built from the
last by two `bytes.translate` calls.  No level wider than K is made.
Smooth necklaces with least letter 1, whose span is their largest
letter, are generated once each as least rotations by FKM prenecklace
generation pruned to smooth prefixes that can still close
(`_necklace_tally`).  Each child prefix is counted in its parent's loop,
and a call is made only for prefixes shorter than n_max: at n_max = 12
and k = 4, about 1.3 calls per counted necklace against 2.25 prefixes.
Each counted necklace is still enumerated on its own, no rotation of any
word is formed, and nothing is merged by state as in the transfer DP.
The largest word walk the guard admits (n = 16, k = 6) holds 11.9 M
bytes at its last length and peaks near 13 MB.

Each family has one public reader, `sw_rows_bf`, `scw_rows_bf` or
`necklace_rows_bf`, taking alphabet sizes ``ks`` and a depth ``n_max``;
a single count is entry n of its row.  `admits` refuses [k]^n once
k * 3^(n-1) exceeds `ENUMERATION_LIMIT`, and a row is guarded by its
last length.
"""
from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence

from ._args import check_int

Word = tuple[int, ...]

# `admits` bounds k * 3^(n-1), the smooth words of length n that a walk from
# every first letter would make.  The walks here cost less: the word walk
# holds at most 3^(n-1) bytes at its last length whatever k is, and the
# necklace walk makes about 2.3 prefixes per necklace with least letter 1,
# counting each in its parent's loop and calling only for the prefixes
# shorter than n (about 1.3 calls per necklace).
# The k factor stays because it sets the lengths `check` compares by brute
# force, and so its comparison count, which `perfbench/oracle.py`'s
# `check_comparisons` recomputes from the same bound (ROADMAP.md, "The
# brute-force guard overstates the cost").
ENUMERATION_LIMIT = 10**8


def _validate_word(word: Sequence[int], k: int) -> Word:
    check_int("alphabet size", k, 1)
    if not isinstance(word, Iterable):
        raise ValueError(f"word must be iterable, got {word!r}")
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
    w = _validate_word(word, k)
    return all(abs(a - b) <= 1 for a, b in zip(w, w[1:] + w[:1]))


# `bytes.translate` tables taking byte b to b - 1 and to b + 1.
_DOWN = bytes([255, *range(255)])
_UP = bytes([*range(1, 256), 0])


@functools.lru_cache(maxsize=1)
def _word_tally(K: int, n_max: int) -> tuple[list[list[int]], list[list[int]]]:
    """Smooth and smooth cyclic words of length t = 0..n_max up to
    translation, by span s <= K: entry [t][s] of each tally counts the
    classes of span s (arguments already validated; entries [t][0] and
    [0][...] stay 0).

    A class is walked as its step sequence from first letter 0, a length
    at a time.  The level (lo, hi) at length t holds one byte per walked
    word whose letters run from lo to hi: its last letter plus n_max + 1.
    Every letter lies within t - 1 of the first, so the bytes stay in
    2..2 n_max (the guard keeps n_max <= 17).  The next level is each level
    stepped down, kept, and stepped up.  A word that steps below lo or
    above hi leaves for level (lo - 1, hi) or (lo, hi + 1), as copies of
    one byte, and no level wider than K is made.  A word is smooth cyclic
    iff its byte is within 1 of n_max + 1.  Every counted word is its own
    byte, made by extending its prefix's byte; nothing is merged by last
    letter, which keeps this an enumeration rather than the transfer DP it
    checks.  Each old level is dropped as it is stepped.  The cache holds
    the last pair of tallies, so the `sw` and `scw` rows of one read share
    a walk.
    """
    smooth = [[0] * (min(K, n_max) + 1) for _ in range(n_max + 1)]
    cyclic = [[0] * (min(K, n_max) + 1) for _ in range(n_max + 1)]
    base = n_max + 1  # the byte of the first letter
    near = bytes((base - 1, base, base + 1))
    levels = {(0, 0): bytes((base,))}
    for t in range(1, n_max + 1):
        for (lo, hi), level in levels.items():
            smooth[t][hi - lo + 1] += len(level)
            cyclic[t][hi - lo + 1] += sum(map(level.count, near))
        if t == n_max:
            break
        # The words at each level's bottom and top, which step out of it.
        edges = {(lo, hi): (level.count(base + lo), level.count(base + hi))
                 for (lo, hi), level in levels.items()}
        wider = {(lo - d, hi + 1 - d) for lo, hi in levels if hi - lo + 1 < K
                 for d in (0, 1)}
        stepped = {}
        for lo, hi in levels.keys() | wider:
            level = levels.pop((lo, hi), b"")
            bottom, top = bytes((base + lo,)), bytes((base + hi,))
            stepped[lo, hi] = b"".join((
                level.translate(_DOWN, bottom), level,
                level.translate(_UP, top),
                bottom * edges.get((lo + 1, hi), (0, 0))[0],
                top * edges.get((lo, hi - 1), (0, 0))[1]))
        levels = stepped
    return smooth, cyclic


def _rows_bf(ks: Iterable[int], n_max: int,
             tally_at: Callable[[int], list[list[int]]]) -> list[list[int]]:
    """The row of each alphabet size in ``ks`` from ``tally_at(K)``, a tally
    of classes up to translation by length t and span s at the largest
    size K.

    A class of span s <= k has k + 1 - s translates in [k]^t, one per
    height, and the tally at K cut to spans at most k is the tally at k,
    so entry t >= 1 of the row at k is the sum over s <= k of the tally at
    (t, s) times k + 1 - s.
    """
    check_int("word length", n_max, 0)  # first, so an empty ``ks`` is checked
    if not isinstance(ks, Iterable):
        raise ValueError(f"alphabet sizes must be iterable, got {ks!r}")
    ks = list(ks)
    for k in ks:
        _validate_instance(n_max, k)
    if not ks:
        return []
    tally = tally_at(max(ks))
    return [[1] + [sum(count * (k + 1 - s)
                       for s, count in enumerate(tally[t][:k + 1]))
                   for t in range(1, n_max + 1)]
            for k in ks]


def sw_rows_bf(ks: Iterable[int], n_max: int) -> list[list[int]]:
    """Smooth words in [k]^n for n = 0..n_max, one row per alphabet size k
    in ``ks``, all read from one word walk at the largest of them
    (`_word_tally`).

    >>> sw_rows_bf((3, 5), 5)
    [[1, 3, 7, 17, 41, 99], [1, 5, 13, 35, 95, 259]]
    """
    return _rows_bf(ks, n_max, lambda K: _word_tally(K, n_max)[0])


def scw_rows_bf(ks: Iterable[int], n_max: int) -> list[list[int]]:
    """Smooth cyclic words in [k]^n for n = 0..n_max, one row per alphabet
    size k in ``ks``: the smooth words whose wrap gap is at most 1, read
    from the same walk as `sw_rows_bf`.

    >>> scw_rows_bf((3,), 3)
    [[1, 3, 7, 15]]
    """
    return _rows_bf(ks, n_max, lambda K: _word_tally(K, n_max)[1])


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
    A call to `visit` tallies a node's children in its loop, each child
    one loop step, and recurses only into children shorter than n_max, so
    the last level (about 43% of the nodes at n_max = 12, k = 4) makes no
    call; a node's last letter and largest letter come down to it as
    arguments.  Each counted necklace is its own loop step; no rotation
    of any word is formed.
    """
    tally = [[0] * (min(k, n_max // 2 + 1) + 1) for _ in range(n_max + 1)]
    a = [0] * (n_max + 1)  # a[1..t]; a[0] unused
    cap = [min(k, n_max + 2 - t) for t in range(n_max + 1)]  # a[t] <= cap[t]

    def visit(t: int, p: int, top: int, last: int) -> None:
        # Tally the children of node a[1..t], which has period p, largest
        # letter top and a[t] = last, and walk those shorter than n_max.
        t += 1
        repeat = a[t - p]
        whole = t % p == 0  # a child c == repeat keeps period p; others have t
        row = tally[t]
        lo = last - 1 if last > repeat else repeat
        hi = last + 1 if last < cap[t] else cap[t]
        if t < n_max:
            for c in range(lo, hi + 1):
                high = top if top >= c else c
                if c <= 2 and (whole or c != repeat):
                    row[high] += 1
                a[t] = c
                visit(t, p if c == repeat else t, high, c)
        else:  # cap[n_max] <= 2, so every letter here closes the wrap
            for c in range(lo, hi + 1):
                if whole or c != repeat:
                    row[top if top >= c else c] += 1

    if n_max:
        a[1] = 1
        tally[1][1] = 1
        if n_max > 1:
            visit(1, 1, 1, 1)
    return tally


def necklace_rows_bf(ks: Iterable[int], n_max: int) -> list[list[int]]:
    """Smooth necklaces in [k]^n for n = 0..n_max, one row per alphabet
    size k in ``ks``, all read from one walk at the largest of them.

    A necklace is named by its least rotation, which starts with its least
    letter m.  Subtracting m - 1 from every letter keeps smoothness, the
    wrap gap and rotation classes, so it maps the necklaces with least
    letter m one to one onto those with least letter 1 and largest letter
    at most k - m + 1.  A necklace with least letter 1 and largest letter
    `top`, its span, therefore stands for the k - top + 1 necklaces
    a[i] + s, s = 0..k - top, and only least letter 1 is walked
    (`_necklace_tally`).  The walk's child bound clips only letters above
    its alphabet, and every prefix of a prenecklace with letters at most k
    has letters at most k, so the walk at k is the walk at any larger K
    cut to letters at most k.

    >>> necklace_rows_bf((2, 3), 4)
    [[1, 2, 3, 4, 6], [1, 3, 5, 7, 12]]
    """
    return _rows_bf(ks, n_max, lambda K: _necklace_tally(K, n_max))
