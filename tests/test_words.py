"""Word predicates and brute-force counts."""
import itertools
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from smoothwords import words
from smoothwords.transfer import (necklace_exact, necklace_row, scw_row,
                                  sw_row)
from smoothwords.words import (is_smooth, is_smooth_cyclic, necklace_rows_bf,
                               scw_rows_bf, sw_rows_bf)


def naive_canonical(word):
    w = tuple(word)
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def all_words(n, k):
    return itertools.product(range(1, k + 1), repeat=n)


words_with_alphabet = st.integers(1, 6).flatmap(
    lambda k: st.tuples(st.lists(st.integers(1, k), max_size=16), st.just(k)))


class TestPredicates:
    def test_smooth_examples(self):
        assert not is_smooth((1, 3), 3)
        smooth_pairs = {w for w in all_words(2, 3) if is_smooth(w, 3)}
        assert smooth_pairs == {(1, 1), (1, 2), (2, 1), (2, 2),
                                (2, 3), (3, 2), (3, 3)}

    def test_small_alphabets_always_smooth(self):
        for k in (1, 2):
            for n in range(7):
                assert all(is_smooth(w, k) for w in all_words(n, k))
                assert all(is_smooth_cyclic(w, k) for w in all_words(n, k))

    def test_cyclic_examples(self):
        assert not is_smooth_cyclic((1, 2, 3), 3)  # smooth, wrap gap 2
        assert is_smooth_cyclic((1, 2, 2), 3)
        assert sum(is_smooth_cyclic(w, 4) for w in all_words(2, 4)) == 10

    def test_short_words_vacuous(self):
        for k in (1, 3, 5):
            assert is_smooth((), k) and is_smooth_cyclic((), k)
            assert is_smooth((k,), k) and is_smooth_cyclic((k,), k)

    def test_rejects_letters_outside_alphabet(self):
        with pytest.raises(ValueError):
            is_smooth((1, 4), 3)
        with pytest.raises(ValueError):
            is_smooth_cyclic((0, 1), 3)
        with pytest.raises(ValueError):
            is_smooth((1,), 0)

    def test_cyclic_implies_smooth_exhaustive(self):
        for k in range(1, 5):
            for n in range(9):
                for w in all_words(n, k):
                    if is_smooth_cyclic(w, k):
                        assert is_smooth(w, k)

    @given(words_with_alphabet)
    def test_cyclic_implies_smooth(self, wk):
        w, k = wk
        if is_smooth_cyclic(w, k):
            assert is_smooth(w, k)

    @given(words_with_alphabet)
    def test_reversal_and_complement_invariance(self, wk):
        w, k = wk
        rev = tuple(reversed(w))
        comp = tuple(k + 1 - c for c in w)
        assert is_smooth(w, k) == is_smooth(rev, k) == is_smooth(comp, k)
        assert is_smooth_cyclic(w, k) == is_smooth_cyclic(rev, k) \
            == is_smooth_cyclic(comp, k)

    def test_reversal_complement_invariance_exhaustive(self):
        for k in range(1, 5):
            for n in range(8):
                for w in all_words(n, k):
                    rev = w[::-1]
                    comp = tuple(k + 1 - c for c in w)
                    assert is_smooth(w, k) == is_smooth(rev, k) == is_smooth(comp, k)
                    assert is_smooth_cyclic(w, k) == is_smooth_cyclic(rev, k) \
                        == is_smooth_cyclic(comp, k)


class TestCounts:
    # A single count is entry n of its row: rows((k,), n)[0][n].
    def test_smooth_examples(self):
        assert sw_rows_bf((3,), 2)[0][2] == 7
        assert [row[0] for row in sw_rows_bf((1, 2, 5), 0)] == [1, 1, 1]
        assert sw_rows_bf((5,), 5)[0][5] == 259

    def test_cyclic_examples(self):
        assert scw_rows_bf((3,), 3)[0][3] == 15
        assert [row[1] for row in scw_rows_bf((1, 3, 6), 1)] == [1, 3, 6]
        assert scw_rows_bf((4,), 6)[0][6] == 340

    def test_necklace_examples(self):
        assert necklace_rows_bf((2,), 3)[0][3] == 4
        assert necklace_rows_bf((3,), 2)[0][2] == 5
        assert necklace_rows_bf((5,), 4)[0][4] == 24
        assert necklace_rows_bf((9,), 0)[0][0] == 1

    def test_counts_match_filtered_enumeration(self):
        for k in range(1, 6):
            [sw_brute] = sw_rows_bf((k,), 8)
            [scw_brute] = scw_rows_bf((k,), 8)
            [sn_brute] = necklace_rows_bf((k,), 8)
            for n in range(9):
                smooth = [w for w in all_words(n, k) if is_smooth(w, k)]
                cyclic = [w for w in smooth if is_smooth_cyclic(w, k)]
                assert sw_brute[n] == len(smooth)
                assert scw_brute[n] == len(cyclic)
                assert sn_brute[n] == len({naive_canonical(w) for w in cyclic})

    def test_necklaces_match_burnside(self):
        # Every cell here is inside the guard.
        assert necklace_rows_bf(range(1, 9), 12) == [
            [necklace_exact(n, k) for n in range(13)] for k in range(1, 9)]
        # The deepest rows the guard admits at k <= 3, each one walk whose
        # last level is tallied in its parents' loops.
        assert necklace_rows_bf((1, 2, 3), 16) == [
            necklace_row(k, 16) for k in (1, 2, 3)]
        assert necklace_rows_bf((1, 2), 17) == [
            necklace_row(k, 17) for k in (1, 2)]

    def test_necklaces_form_no_rotation(self):
        # The oracle generates each necklace once; `words` holds no rotation
        # helper for it to canonicalise with.
        assert not [name for name in vars(words) if "rotation" in name]
        assert necklace_rows_bf((4,), 7)[0][7] == 128 == necklace_exact(7, 4)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 10))
    def test_oracles_match_rows(self, n, k):
        assume(words.admits(n, k))
        assert sw_rows_bf((k,), n) == [sw_row(k, n)]
        assert scw_rows_bf((k,), n) == [scw_row(k, n)]
        assert necklace_rows_bf((k,), n) == [necklace_row(k, n)]

    def test_rows_match_walk_rows(self):
        # Every length of one enumeration, against the transfer rows.
        for k in range(1, 7):
            for n_max in range(12):
                assert sw_rows_bf((k,), n_max) == [sw_row(k, n_max)]
                assert scw_rows_bf((k,), n_max) == [scw_row(k, n_max)]
                assert necklace_rows_bf((k,), n_max) == \
                    [necklace_row(k, n_max)]

    @pytest.mark.parametrize("brute, walk", [
        (sw_rows_bf, sw_row), (scw_rows_bf, scw_row),
        (necklace_rows_bf, necklace_row)], ids=["sw", "scw", "sn"])
    def test_rows_of_one_walk_match_walk_rows(self, brute, walk):
        # The tally at K, cut to spans at most k, is the tally at k: every
        # row read from it matches the transfer row, k = 1..K.  A read of
        # the spans above k would count them at k + 1 - s <= 0 heights.
        for K in range(1, 13):
            for n_max in range(15):
                rows = brute(range(1, K + 1), n_max)
                assert rows == [walk(k, n_max) for k in range(1, K + 1)]

    @pytest.mark.parametrize("k", [1, 2, 3, 254, 255, 256, 257, 600])
    def test_rows_match_step_sequences(self, k):
        # Each level byte is a last letter relative to the first, offset
        # by n_max + 1, whatever k is; at these k a letter's own value
        # would not fit a byte.  Count the words here from their step
        # sequences.
        smooth, cyclic = [1] * 6, [1] * 6
        for n in range(1, 6):
            smooth[n] = cyclic[n] = 0
            for first in range(1, k + 1):
                for steps in itertools.product((-1, 0, 1), repeat=n - 1):
                    letters = list(itertools.accumulate(steps, initial=first))
                    if 1 <= min(letters) and max(letters) <= k:
                        smooth[n] += 1
                        cyclic[n] += abs(letters[-1] - first) <= 1
        for n_max in range(6):
            if words.admits(n_max, k):
                assert sw_rows_bf((k,), n_max) == [smooth[:n_max + 1]]
                assert scw_rows_bf((k,), n_max) == [cyclic[:n_max + 1]]

    def test_short_rows_cost_nothing_per_letter(self):
        # Rows to length 0 or 1 are read off k, without a loop over the
        # letters; the smaller k fails fast should that loop come back.
        for k in (10**7, 10**18):
            start = time.perf_counter()
            assert sw_rows_bf((k,), 0) == scw_rows_bf((k,), 0) == [[1]]
            assert time.perf_counter() - start < 0.5
        start = time.perf_counter()
        assert sw_rows_bf((10**8,), 1) == scw_rows_bf((10**8,), 1) == \
            [[1, 10**8]]
        assert time.perf_counter() - start < 0.5

    def test_long_rows_cost_nothing_per_letter(self):
        # Each word is walked once up to translation and counted at its
        # k + 1 - span heights; at these k, the guard's edge, walking every
        # first letter took tens of seconds.
        for k, n_max in ((3 * 10**7, 2), (10**7, 3)):
            assert words.admits(n_max, k)
            start = time.perf_counter()
            assert sw_rows_bf((k,), n_max) == \
                [[1, k, 3 * k - 2, 9 * k - 10][:n_max + 1]]
            assert scw_rows_bf((k,), n_max) == \
                [[1, k, 3 * k - 2, 7 * k - 6][:n_max + 1]]
            assert time.perf_counter() - start < 0.5

    def test_rows_with_an_interior_letter_match_walk_rows(self):
        # Every admitted (k, n_max) with k < 40, n_max < 10, each read from
        # its own walk: most of these k are wider than any word, so every
        # class is counted at k + 1 - span heights and no level is cut.
        for k in range(1, 40):
            for n_max in range(10):
                assert words.admits(n_max, k)
                assert sw_rows_bf((k,), n_max) == [sw_row(k, n_max)]
                assert scw_rows_bf((k,), n_max) == [scw_row(k, n_max)]

    def test_short_necklace_rows_cost_nothing_per_letter(self):
        # Only least letter 1 is walked and every other least letter is a
        # translate, so these rows take no step per letter of the alphabet.
        cases = [((10**18, 0), [1]), ((10**8, 1), [1, 10**8]),
                 ((3 * 10**7, 2), [1, 3 * 10**7, 6 * 10**7 - 1])]
        for (k, n_max), row in cases:
            start = time.perf_counter()
            assert necklace_rows_bf((k,), n_max) == [row]
            assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 7])
    def test_necklace_rows_match_least_rotations(self, k):
        # Count the distinct least rotations of the smooth cyclic words,
        # built from step sequences; at k = 6 and 7 the walk's letters stop
        # at n_max // 2 + 1 = 5 before they reach k.
        n_max = 9
        row = [1] + [0] * n_max
        for n in range(1, n_max + 1):
            least = set()
            for first in range(1, k + 1):
                for steps in itertools.product((-1, 0, 1), repeat=n - 1):
                    w = tuple(itertools.accumulate(steps, initial=first))
                    if (1 <= min(w) and max(w) <= k
                            and abs(w[-1] - first) <= 1):
                        least.add(min(w[i:] + w[:i] for i in range(n)))
            row[n] = len(least)
        assert necklace_rows_bf((k,), n_max) == [row]

    def test_rows_validate_before_the_cache(self):
        # 3.0 == 3 and True == 1 as cache keys; neither may reach a row.
        assert sw_rows_bf((3,), 4) == [[1, 3, 7, 17, 41]]
        assert scw_rows_bf((1,), 4) == [[1, 1, 1, 1, 1]]
        with pytest.raises(ValueError):
            sw_rows_bf((3.0,), 4)
        with pytest.raises(ValueError):
            scw_rows_bf((True,), 4)
        # Callers get fresh lists; changing one leaves the next answer alone.
        rows = scw_rows_bf((3,), 4)
        rows[0][4] = 0
        assert scw_rows_bf((3,), 4) == [scw_row(3, 4)]

    def test_small_alphabets_count_everything(self):
        # Up to the guard's longest rows; without the span cut, k = 1 would
        # walk 3^16 step sequences at n = 17.
        for k in (1, 2):
            start = time.perf_counter()
            assert sw_rows_bf((k,), 17) == [[k ** n for n in range(18)]]
            assert scw_rows_bf((k,), 17) == [[k ** n for n in range(18)]]
            assert time.perf_counter() - start < 0.5

    def test_size_guard(self):
        with pytest.raises(ValueError):
            sw_rows_bf((3,), 20)  # 3 * 3^19 > 1e8
        with pytest.raises(ValueError, match="brute force rejects n=25 k=3"):
            sw_rows_bf((3,), 25)
        with pytest.raises(ValueError, match="brute force rejects n=20 k=3"):
            necklace_rows_bf((3,), 20)  # a row is guarded by its last length
        with pytest.raises(ValueError, match="brute force rejects n=17 k=3"):
            sw_rows_bf((1, 3), 17)  # one refused alphabet refuses the read
        with pytest.raises(ValueError, match="brute force rejects"):
            scw_rows_bf((3,), 10**19)  # refused without forming 3^(n-1)
        with pytest.raises(ValueError):
            scw_rows_bf((50,), 18)
        with pytest.raises(ValueError):
            necklace_rows_bf((2,), 40)
        with pytest.raises(ValueError):
            sw_rows_bf((3,), -1)
        with pytest.raises(ValueError):
            sw_rows_bf((0,), 3)
