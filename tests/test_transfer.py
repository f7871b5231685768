"""Exact transfer-matrix counting against the brute-force oracle."""
import time
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from smoothwords import transfer
from smoothwords._rotations import (_divisor_totients, necklaces,
                                    necklaces_row, totients)
from smoothwords.chebyshev import eval_poly, u_poly
from smoothwords.transfer import (necklace_exact, necklace_row, scw_exact,
                                  scw_row, sw_exact, sw_row)
from smoothwords.words import necklace_rows_bf, scw_rows_bf, sw_rows_bf
from smoothwords.genfunc import (RationalSeries, scw_gf, series_coefficient,
                                 series_coeffs, series_equal, sw_gf,
                                 sw_prefix_gf, usmani_inverse_entry)
from smoothwords.chebyshev import Poly


# References for the rotation average that share no code with the library.
def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def totient(m):
    return sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)


class TestCharacteristicPolynomial:
    """M pinned through chi_k = det(x I - M), which the jump reduces by."""

    def test_chi_is_shifted_chebyshev(self):
        # det(x I - M) = U_k((x-1)/2), since M - I is the path's adjacency
        # matrix A and det(y I - A) = U_k(y/2).  Substituting t = (x-1)/2
        # into U_k(t) = sum_i c_i t^i gives 2^-k sum_i c_i 2^(k-i) (x-1)^i.
        for k in range(31):
            shifted, power = Poly(), Poly(1)  # power = (x-1)^i
            for i, c in enumerate(u_poly(k).coeffs):
                shifted += 2 ** (k - i) * c * power
                power *= Poly(-1, 1)
            assert all(c % 2 ** k == 0 for c in shifted.coeffs)
            assert transfer._chi(k) == [c // 2 ** k for c in shifted.coeffs]

    def test_halves_multiply_to_chi(self):
        # M keeps apart the vectors that reversing the alphabet leaves
        # unchanged and those it negates.  On their halves it is the path
        # with a mirror at the middle (as `_sw_jump` uses it) or a negated
        # one, so chi_k is the product of the two halves' polynomials.
        for k in range(1, 31):
            m = k // 2
            if k % 2:  # a negated vector is 0 in the middle: a wall
                halves = transfer._chi(m + 1, 1, 2), transfer._chi(m)
            else:  # the mirror adds the last entry, or takes it away
                halves = transfer._chi(m, 2, 1), transfer._chi(m, 0, 1)
            assert Poly(*halves[0]) * Poly(*halves[1]) == \
                Poly(*transfer._chi(k))

    def test_newton_power_sums_are_traces(self):
        # Entry 0 of the row is the empty word, 1; tr M^0 = tr I is k.
        for k in range(1, 31):
            sums = transfer._power_sums(transfer._chi(k))
            assert sums == [k] + scw_row(k, k - 1)[1:]


class TestMatrix:
    """M^n 1, read as the first-letter counts of words of length n + 1."""

    def test_power_apply_examples(self):
        # Entry i of M^n 1 counts the smooth words of length n + 1 that
        # start with letter i: 1 1 1, then 2 3 2 and 5 7 5 at k = 3, from
        # the walk between two walls that no row takes.
        assert list(islice(transfer._walk([1, 1, 1]), 3)) == \
            [[1, 1, 1], [2, 3, 2], [5, 7, 5]]


class TestExactCounts:
    def test_sw_examples(self):
        assert sw_exact(11, 3) == 19601
        for k in (1, 2, 7):
            assert sw_exact(1, k) == k
        assert sw_exact(12, 3) == 47321  # 2*19601 + 8119
        assert sw_exact(0, 4) == 1

    def test_scw_examples(self):
        assert scw_exact(11, 4) == 39802
        assert scw_exact(2, 3) == 7
        assert scw_exact(13, 3) == scw_rows_bf((3,), 13)[0][13]
        assert scw_exact(0, 6) == 1

    def test_prefix_examples(self):
        # Coefficient n of the first-letter series counts the smooth words
        # of length n that start with i; over every i they sum to sw(n).
        def first_letters(n, k):
            return [series_coefficient(sw_prefix_gf(i, k), n)
                    for i in range(1, k + 1)]
        assert first_letters(1, 4) == [1, 1, 1, 1]
        assert first_letters(2, 3) == [2, 3, 2]  # 21, 22, 23
        assert sum(first_letters(5, 5)) == 259
        assert sum(first_letters(60, 7)) == sw_exact(60, 7)

    def test_pair_examples(self):
        # Coefficient n - 1 of entry (i, j) of (I - xM)^-1 counts the smooth
        # words of length n from i to j: 123, then 1123, 1223 and 1233.
        assert series_coeffs(usmani_inverse_entry(1, 3, 3), 4) == \
            [0, 0, 1, 3, 8]
        assert series_coefficient(usmani_inverse_entry(1, 2, 3), 1) == 1
        assert sum(series_coefficient(usmani_inverse_entry(i, j, 4), 3)
                   for i in range(1, 5) for j in range(1, 5)
                   if abs(i - j) <= 1) == 54

    def test_pair_sums_to_cyclic_count(self):
        # The words from i to j with |i - j| <= 1 are the cyclic words, here
        # to n = 60, where scw_exact jumps.
        for k in range(1, 6):
            for n in (*range(1, 9), 60):
                total = sum(
                    series_coefficient(usmani_inverse_entry(i, j, k), n - 1)
                    for i in range(1, k + 1) for j in range(1, k + 1)
                    if abs(i - j) <= 1)
                assert total == scw_exact(n, k)

    def test_necklace_examples(self):
        assert necklace_exact(3, 2) == 4
        assert necklace_exact(11, 7) == 10611
        assert necklace_exact(6, 3) == 39
        assert necklace_exact(0, 5) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            sw_exact(-1, 3)
        with pytest.raises(ValueError):
            scw_exact(3, 0)


class TestOracleAgreement:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_counts_match_bruteforce(self, k):
        assert sw_rows_bf((k,), 10) == [[sw_exact(n, k) for n in range(11)]]
        assert scw_rows_bf((k,), 10) == [[scw_exact(n, k) for n in range(11)]]
        assert necklace_rows_bf((k,), 10) == \
            [[necklace_exact(n, k) for n in range(11)]]

    def test_reference_tables_rederived_by_bruteforce(self):
        # The frozen grids in conftest are fully within the enumeration
        # guard, so the oracle revalidates every cell from scratch.
        from conftest import TABLE1_SCW, TABLE1_SW, TABLE2_SN
        for brute, table in ((sw_rows_bf, TABLE1_SW),
                             (scw_rows_bf, TABLE1_SCW),
                             (necklace_rows_bf, TABLE2_SN)):
            assert brute(table, 11) == list(table.values())


class TestRows:
    ROWS = ((sw_row, sw_exact), (scw_row, scw_exact),
            (necklace_row, necklace_exact))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_rows_match_per_cell_counts(self, k):
        # Entry 0 of every row is 1, the empty word; for scw it is not the
        # trace of M^0 = I, which would be k.
        for row, cell in self.ROWS:
            full = row(k, 40)
            assert full == [cell(n, k) for n in range(41)]
            for n_max in (0, 1, 2, 7):
                assert row(k, n_max) == full[:n_max + 1]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_rows_match_bruteforce(self, k):
        assert [sw_row(k, 9)] == sw_rows_bf((k,), 9)
        assert [scw_row(k, 9)] == scw_rows_bf((k,), 9)
        assert [necklace_row(k, 9)] == necklace_rows_bf((k,), 9)

    @pytest.mark.parametrize("k", range(1, 42))
    def test_half_walk_matches_full_walk(self, k):
        # Both parities, with k = 1 (no entry right of the middle) and
        # k = 2 (one entry, mirrored onto itself) at the edges.
        full = [1] + [sum(w) for w in islice(transfer._walk([1] * k), 60)]
        assert sw_row(k, 60) == full

    def test_deep_rows_match_the_jump(self):
        # The cost rule sends each of these single counts to the jump,
        # which reads no walk: sw at (20000, 4) is the costliest such
        # request of the benchmark.
        start = time.perf_counter()
        row = scw_row(3, 20000)
        assert time.perf_counter() - start < 1
        assert row[-1] == scw_exact(20000, 3)
        assert sw_row(4, 20000)[-1] == sw_exact(20000, 4)
        assert necklace_row(8, 3000)[-1] == necklace_exact(3000, 8)

    @pytest.mark.parametrize("k, n_max", [(3, -1), (3, True), (3, False),
                                          (3, 2.0), (3, "4"), (0, 5),
                                          (-2, 5), (True, 5)])
    def test_rows_reject_bad_input(self, k, n_max):
        for row, _ in self.ROWS:
            with pytest.raises(ValueError):
                row(k, n_max)


class TestEngines:
    """Both single-count engines, and the cost rule that picks between
    them, against the walk rows and the generating-function series."""

    ENGINES = ((transfer._sw_images, transfer._sw_jump, sw_row),
               (transfer._scw_images, transfer._scw_jump, scw_row))

    @pytest.mark.parametrize("k", range(1, 41))
    def test_engines_match_rows(self, k):
        for images, jump, row in self.ENGINES:
            want = row(k, 60)
            assert [images(n, k) for n in range(1, 61)] == want[1:]
            assert [jump(n, k) for n in range(1, 61)] == want[1:]
        for row, cell in TestRows.ROWS:
            assert [cell(n, k) for n in range(61)] == row(k, 60)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 400),
           st.one_of(st.integers(1, 10), st.integers(11, 300)))
    @example(400, 13)  # jump side of the crossover for both families
    @example(400, 27)  # images side for both (sw jumps at order 14)
    def test_engines_match_series(self, n, k):
        # Images and the cyclic rows share the trace identity, so the
        # generating-function series is the independent witness for both.
        sw = series_coeffs(sw_gf(k), n)
        scw = series_coeffs(scw_gf(k), n)
        assert sw_exact(n, k) == transfer._sw_images(n, k) == sw[n]
        assert scw_exact(n, k) == transfer._scw_images(n, k) == scw[n]
        assert sw_row(k, n)[n] == sw[n]
        assert scw_row(k, n)[n] == scw[n]
        cyclic = sum(totient(d) * scw[n // d] for d in divisors(n))
        assert necklace_exact(n, k) * n == cyclic
        assert necklace_row(k, n)[n] * n == cyclic

    @pytest.mark.parametrize("count", [sw_exact, scw_exact, necklace_exact])
    def test_huge_alphabet(self, count):
        # A word of length n uses at most n consecutive letters, so each
        # count is linear in k from k = n on; images allocate nothing of
        # size k, so k = 10**18 is as cheap as k = 40.
        at_40, at_41 = count(6, 40), count(6, 41)
        assert count(6, 10**18) == at_40 + (at_41 - at_40) * (10**18 - 40)

    def test_cost_rule(self):
        # Both sides of the edge order^2 = 25 n^0.524 at n = 400 and 10000.
        assert transfer._engine(400, 25) == "images"
        assert transfer._engine(400, 24) == "jump"
        assert transfer._engine(10000, 56) == "images"
        assert transfer._engine(10000, 55) == "jump"
        assert transfer._engine(3000, 2) == "jump"
        assert transfer._engine(300000, 1) == "jump"
        # Each exact stratum of the count-deep benchmark at its nominal
        # (n, k): scw jumps at order k, and a necklace count asks for scw
        # at n and its divisors; sw jumps at order ceil(k/2).
        for n, k in ((48, 202), (36, 161), (48, 200), (36, 160), (150, 120),
                     (120, 80), (800, 50), (600, 30)):
            assert transfer._engine(n, k) == "images"
        assert transfer._engine(15000, 3) == "jump"
        for n, k in ((2000, 2), (5000, 3), (8000, 4), (12500, 3), (17000, 2),
                     (20000, 4)):
            assert transfer._engine(n, k - k // 2) == "jump"

    def test_single_counts_never_walk(self, monkeypatch):
        # Every row takes its steps from `_walk` and no single count does,
        # on either side of the cost rule.
        want = {(sw_exact, 5000, 2): sw_row(2, 5000)[5000],
                (sw_exact, 2000, 50): sw_row(50, 2000)[2000],
                (sw_exact, 300000, 1): 1,
                (scw_exact, 3000, 3): scw_row(3, 3000)[3000],
                (scw_exact, 400, 60): scw_row(60, 400)[400],
                (necklace_exact, 720, 4): necklace_row(4, 720)[720],
                (necklace_exact, 360, 40): necklace_row(40, 360)[360]}
        assert {transfer._engine(n, k) for _, n, k in want} == {"images",
                                                                "jump"}

        def refuse(*args, **kwargs):
            raise AssertionError("walked the tridiagonal step")

        monkeypatch.setattr(transfer, "_walk", refuse)
        for (count, n, k), value in want.items():
            assert count(n, k) == value
        for row in (sw_row, scw_row, necklace_row):
            with pytest.raises(AssertionError, match="walked"):
                row(4, 10)


class TestNumberTheory:
    def test_totient_examples(self):
        # The phi that one factorisation of n gives each divisor.
        assert _divisor_totients(1) == [(1, 1)]
        assert _divisor_totients(12) == [(1, 1), (2, 1), (3, 2), (4, 2),
                                         (6, 2), (12, 4)]
        assert [_divisor_totients(m)[-1][1] for m in range(1, 11)] == \
            [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_totient_matches_gcd_count(self):
        phi = [0] + [totient(m) for m in range(1, 2001)]
        for n in range(1, 2001):
            assert [f for _, f in _divisor_totients(n)] == \
                [phi[d] for d in divisors(n)]
        for n in (720720, 963761198400):
            assert sum(f for _, f in _divisor_totients(n)) == n

    def test_divisors(self):
        # Ascending order fixes how sn_trig adds its float terms.
        assert [d for d, _ in _divisor_totients(36)] == \
            [1, 2, 3, 4, 6, 9, 12, 18, 36]
        for n in range(1, 2001):
            assert [d for d, _ in _divisor_totients(n)] == divisors(n)
        for n, count in ((720720, 240), (963761198400, 6720)):
            ds = [d for d, _ in _divisor_totients(n)]
            assert len(ds) == count
            assert all(a < b for a, b in zip(ds, ds[1:]))
            assert all(n % d == 0 for d in ds)

    def test_divisor_totients(self):
        for bad in (0, -6, 2.0, True, "4"):
            with pytest.raises(ValueError):
                _divisor_totients(bad)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 30])
    def test_necklace_row_matches_single_averages(self, k):
        cyclic = scw_row(k, 600)
        assert necklaces_row(cyclic) == [necklaces(n, cyclic.__getitem__)
                                         for n in range(601)]

    def test_totient_sieve(self):
        assert totients(2000) == [0] + [totient(m) for m in range(1, 2001)]
        assert totients(0) == [0]

    def test_necklace_row_division_is_checked(self):
        cyclic = scw_row(4, 30)
        cyclic[7] += 1
        total = sum(totient(d) * cyclic[7 // d] for d in divisors(7))
        with pytest.raises(AssertionError, match=(
                f"^rotation-average sum {total} not divisible by 7; "
                "counting bug$")):
            necklaces_row(cyclic)
        with pytest.raises(AssertionError, match=f"sum {total} not"):
            necklaces(7, cyclic.__getitem__)

    def test_burnside_sum_divisible(self):
        for k in range(1, 11):
            for n in range(1, 61):
                total = sum(totient(d) * scw_exact(n // d, k)
                            for d in divisors(n))
                assert total % n == 0
                assert necklace_exact(n, k) == total // n


class TestUsmaniInverse:
    def test_examples(self):
        assert series_equal(usmani_inverse_entry(1, 1, 1),
                            RationalSeries(Poly(1), Poly(1, -1)))
        assert series_equal(usmani_inverse_entry(1, 2, 2),
                            RationalSeries(Poly(0, 1), Poly(1, -2)))
        assert usmani_inverse_entry(2, 1, 2) == usmani_inverse_entry(1, 2, 2)

    def test_symmetry(self):
        for k in range(1, 7):
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    assert usmani_inverse_entry(i, j, k) == \
                        usmani_inverse_entry(j, i, k)

    def test_inverts_coefficient_matrix(self):
        # sum_m A[i][m](x) * inv[m][j](x) = [i == j], checked exactly at
        # rational x.  x = 1/2 is skipped where it is a zero of theta_k
        # (k = 2 and 5): A(1/2) is singular there and has no inverse.
        points = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)]
        for k in range(1, 7):
            inv = [[usmani_inverse_entry(i, j, k) for j in range(1, k + 1)]
                   for i in range(1, k + 1)]
            for x in points:
                den = eval_poly(inv[0][0].den, x)
                if den == 0:
                    continue
                inv_vals = [[eval_poly(e.num, x) / Fraction(eval_poly(e.den, x))
                             for e in row] for row in inv]
                for i in range(k):
                    for j in range(k):
                        acc = Fraction(0)
                        for m in range(k):
                            if m == i:
                                a = 1 - x
                            elif abs(m - i) == 1:
                                a = -x
                            else:
                                continue
                            acc += a * inv_vals[m][j]
                        assert acc == (1 if i == j else 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            usmani_inverse_entry(0, 1, 3)
        with pytest.raises(ValueError):
            usmani_inverse_entry(1, 4, 3)


class TestUpperBound:
    def test_counting_bound(self):
        # first letter free, at most three continuations per step
        for k in range(1, 11):
            for n in range(1, 41):
                assert sw_exact(n, k) <= k * 3 ** (n - 1)
