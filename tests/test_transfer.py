"""Exact transfer-matrix counting against the brute-force oracle."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from smoothwords import transfer
from smoothwords.chebyshev import eval_poly
from smoothwords.transfer import (divisors, matrix_power, matrix_power_apply,
                                  necklace_exact, necklace_row, scw_exact,
                                  scw_pair_exact, scw_row, sw_exact,
                                  sw_prefix_exact, sw_row, totient,
                                  transfer_matrix)
from smoothwords.words import necklace_rows_bf, scw_rows_bf, sw_rows_bf
from smoothwords.genfunc import (RationalSeries, scw_gf, series_coeffs,
                                 series_equal, sw_gf, usmani_inverse_entry)
from smoothwords.chebyshev import Poly


class TestMatrix:
    def test_structure(self):
        for k in range(1, 9):
            m = transfer_matrix(k)
            assert all(m[i][j] == m[j][i] for i in range(k) for j in range(k))
            assert all(m[i][i] == 1 for i in range(k))
            assert all(m[i][j] == 0 for i in range(k) for j in range(k)
                       if abs(i - j) > 1)
            if k >= 2:
                assert sum(m[0]) == sum(m[-1]) == 2
                assert all(sum(row) == 3 for row in m[1:-1])

    def test_power_apply_examples(self):
        assert matrix_power_apply(3, 0, [1, 1, 1]) == [1, 1, 1]
        assert matrix_power_apply(3, 1, [1, 1, 1]) == [2, 3, 2]
        assert matrix_power_apply(3, 2, [1, 1, 1]) == [5, 7, 5]

    def test_power_apply_matches_full_power(self):
        for k in range(1, 6):
            for n in range(8):
                p = matrix_power(k, n)
                for col in range(k):
                    basis = [int(i == col) for i in range(k)]
                    assert matrix_power_apply(k, n, basis) == \
                        [p[row][col] for row in range(k)]

    def test_power_apply_rejects_bad_input(self):
        with pytest.raises(ValueError):
            matrix_power_apply(3, 2, [1, 1])
        with pytest.raises(ValueError):
            matrix_power_apply(3, -1, [1, 1, 1])


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
        assert sw_prefix_exact(1, 1, 4) == 1
        assert sw_prefix_exact(2, 2, 3) == 3  # 21, 22, 23
        assert sum(sw_prefix_exact(i, 5, 5) for i in range(1, 6)) == 259

    def test_prefix_complement_symmetry(self):
        for k in range(1, 8):
            for n in range(1, 10):
                for i in range(1, k + 1):
                    assert sw_prefix_exact(i, n, k) == \
                        sw_prefix_exact(k + 1 - i, n, k)

    def test_pair_examples(self):
        for n in range(2, 8):
            assert scw_pair_exact(1, 3, n, 3) == 0
        assert scw_pair_exact(1, 2, 2, 3) == 1
        assert sum(scw_pair_exact(i, j, 4, 4)
                   for i in range(1, 5) for j in range(1, 5)) == 54

    def test_pair_sums_to_cyclic_count(self):
        for k in range(1, 6):
            for n in range(2, 9):
                total = sum(scw_pair_exact(i, j, n, k)
                            for i in range(1, k + 1) for j in range(1, k + 1))
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
            sw_prefix_exact(0, 3, 3)
        with pytest.raises(ValueError):
            sw_prefix_exact(4, 3, 3)
        with pytest.raises(ValueError):
            scw_pair_exact(1, 1, 1, 3)
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

    def test_prefix_recurrence(self):
        # count(i, n) = [n == 1] + sum of count(j, n-1) over neighbors j
        for k in range(1, 8):
            for n in range(2, 13):
                for i in range(1, k + 1):
                    neighbors = [j for j in (i - 1, i, i + 1) if 1 <= j <= k]
                    assert sw_prefix_exact(i, n, k) == \
                        sum(sw_prefix_exact(j, n - 1, k) for j in neighbors)

    def test_pair_recurrence(self):
        # pair(i, j, n) peels off the first step: sum over i' adjacent to i
        # of the (i', j) entry of M^(n-2), whenever the wrap allows (i, j).
        for k in range(1, 6):
            for n in range(3, 11):
                for i in range(1, k + 1):
                    for j in range(1, k + 1):
                        if abs(i - j) > 1:
                            assert scw_pair_exact(i, j, n, k) == 0
                            continue
                        basis = [int(c == j - 1) for c in range(k)]
                        column = matrix_power_apply(k, n - 2, basis)
                        want = sum(column[ip - 1] for ip in (i - 1, i, i + 1)
                                   if 1 <= ip <= k)
                        assert scw_pair_exact(i, j, n, k) == want


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

    ENGINES = ((transfer._sw_images, transfer._sw_binary, sw_row),
               (transfer._scw_images, transfer._scw_binary, scw_row))

    @pytest.mark.parametrize("k", range(1, 41))
    def test_engines_match_rows(self, k):
        for images, binary, row in self.ENGINES:
            want = row(k, 60)
            assert [images(n, k) for n in range(1, 61)] == want[1:]
            assert [binary(n, k) for n in range(1, 61)] == want[1:]
        for row, cell in TestRows.ROWS:
            assert [cell(n, k) for n in range(61)] == row(k, 60)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 400),
           st.one_of(st.integers(1, 10), st.integers(11, 300)))
    @example(400, 7)  # binary side of the crossover
    @example(400, 8)  # images side
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
        assert transfer._engine(48, 202) == "images"
        assert transfer._engine(36, 161) == "images"
        assert transfer._engine(400, 8) == "images"
        assert transfer._engine(400, 7) == "binary"
        assert transfer._engine(3000, 2) == "binary"
        assert transfer._engine(300000, 1) == "binary"

    def test_sw_exact_never_walks(self, monkeypatch):
        want = {(5000, 2): sw_row(2, 5000)[5000],
                (2000, 50): sw_row(50, 2000)[2000],
                (300000, 1): 1}

        def refuse(_):
            raise AssertionError("sw_exact walked the tridiagonal step")

        monkeypatch.setattr(transfer, "_walk", refuse)
        for (n, k), count in want.items():
            assert sw_exact(n, k) == count


class TestNumberTheory:
    def test_totient_examples(self):
        assert totient(1) == 1
        assert totient(12) == 4
        assert [totient(m) for m in range(1, 11)] == \
            [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_totient_matches_gcd_count(self):
        from math import gcd
        for m in range(1, 200):
            assert totient(m) == sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)

    def test_divisors(self):
        assert divisors(6) == [1, 2, 3, 6]
        assert divisors(1) == [1]
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
        for m in range(1, 120):
            assert divisors(m) == [d for d in range(1, m + 1) if m % d == 0]

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
