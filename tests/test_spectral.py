"""Trigonometric closed forms, residues, asymptotics, validated rounding."""
import math
import random

import pytest

from smoothwords.chebyshev import eval_poly, u_poly, u_zeros
from smoothwords.spectral import (PrecisionExhausted, cyclic_proportion_limit,
                                  exact_count, in_validated_window, residues,
                                  round_validated, scw_asymptotic, scw_trig,
                                  sn_trig, spectrum, sw_asymptotic, sw_trig)
from smoothwords.transfer import necklace_exact, scw_exact, sw_exact


def sw_trig_all_indices(n, k):
    """The equivalent all-index form: even indices enter with weight zero."""
    sp = spectrum(k)
    return sum((1 + (-1) ** (j + 1)) * sp.cot2_weights[j - 1]
               * sp.eigenvalues[j - 1] ** (n - 1)
               for j in range(1, k + 1)) / (k + 1)


class TestSpectrum:
    def test_shape(self):
        for k in range(1, 31):
            sp = spectrum(k)
            lams = sp.eigenvalues
            assert len(lams) == len(sp.angles) == len(sp.cot2_weights) == k
            assert all(a > b for a, b in zip(lams, lams[1:]))
            assert lams[0] < 3
            assert sum(lams) == pytest.approx(k, abs=1e-9)
            for j in range(k):
                assert lams[j] + lams[k - 1 - j] == pytest.approx(2, abs=1e-12)

    def test_eigenvalues_shift_chebyshev_zeros(self):
        for k in range(1, 12):
            lams = spectrum(k).eigenvalues
            for lam, zero in zip(lams, u_zeros(k)):
                assert lam == pytest.approx(1 + 2 * zero, abs=1e-14)


class TestTrigForms:
    def test_sw_examples(self):
        assert sw_trig(11, 3) == pytest.approx(19601, rel=1e-6)
        for k in range(1, 11):
            assert sw_trig(1, k) == pytest.approx(k, abs=1e-9)
        assert sw_trig(7, 6) == pytest.approx(2658, rel=1e-6)

    def test_scw_examples(self):
        assert scw_trig(2, 3) == pytest.approx(7, abs=1e-9)
        for k in range(1, 11):
            assert scw_trig(1, k) == pytest.approx(k, abs=1e-9)
        assert scw_trig(10, 7) == pytest.approx(42099, rel=1e-6)

    def test_sn_examples(self):
        assert sn_trig(5, 4) == pytest.approx(30, abs=1e-6)
        for k in range(1, 11):
            assert sn_trig(1, k) == pytest.approx(k, abs=1e-9)
        assert sn_trig(9, 6) == pytest.approx(1360, rel=1e-6)

    def test_sn_adds_in_ascending_divisor_order(self):
        # The float terms phi(d) scw_trig(n/d) are added in ascending d, so
        # sn_trig's every bit is fixed, not only its rounding.
        for n in range(1, 61):
            ds = [d for d in range(1, n + 1) if n % d == 0]
            phi = [sum(math.gcd(a, d) == 1 for a in range(1, d + 1))
                   for d in ds]
            for k in range(1, 13):
                total = sum(f * scw_trig(n // d, k) for d, f in zip(ds, phi))
                assert sn_trig(n, k) == total / n

    def test_all_index_form_matches_odd_index_form(self):
        for k in range(1, 13):
            for n in range(1, 21):
                assert sw_trig(n, k) == pytest.approx(
                    sw_trig_all_indices(n, k), rel=1e-9)

    def test_rejects_zero_length(self):
        for fn in (sw_trig, scw_trig, sn_trig):
            with pytest.raises(ValueError):
                fn(0, 3)


class TestRoundValidated:
    def test_examples(self):
        assert round_validated(6.9999999991) == 7
        with pytest.raises(PrecisionExhausted):
            round_validated(7.4)
        assert round_validated(sw_trig(20, 5)) == sw_exact(20, 5)

    def test_window_predicate(self):
        assert in_validated_window(1, 1)
        assert in_validated_window(25, 10)
        assert not in_validated_window(26, 10)
        assert not in_validated_window(25, 11)
        assert not in_validated_window(0, 3)

    def test_round_trip_exactness_over_window(self):
        for k in range(1, 11):
            for n in range(1, 26):
                assert exact_count(sw_trig, n, k) == sw_exact(n, k)
                assert exact_count(scw_trig, n, k) == scw_exact(n, k)
                assert exact_count(sn_trig, n, k) == necklace_exact(n, k)
        refusal = ("spectral method only validated for 1 <= n <= 25 "
                   "and 1 <= k <= 10")
        for n, k in ((0, 3), (26, 3), (25, 11)):
            for trig in (sw_trig, scw_trig, sn_trig):
                with pytest.raises(PrecisionExhausted) as exc:
                    exact_count(trig, n, k)
                assert str(exc.value) == refusal


class TestResidues:
    def test_examples(self):
        assert residues(1) == pytest.approx([0.5])
        assert residues(2) == pytest.approx([0.25, -0.25])

    def test_alternating_signs(self):
        for m in range(1, 21):
            for j, a in enumerate(residues(m), start=1):
                assert (a > 0) == (j % 2 == 1)

    def test_partial_fraction_identity(self):
        # 1/U_m(x) = sum_j A_j / (x - rho_j) away from the zeros
        random.seed(40)
        for m in range(1, 16):
            zeros = u_zeros(m)
            res = residues(m)
            drawn = 0
            while drawn < 100:
                x = random.uniform(-2, 2)
                if min(abs(x - z) for z in zeros) < 1e-3:
                    continue
                drawn += 1
                lhs = 1.0 / eval_poly(u_poly(m), x)
                rhs = sum(a / (x - z) for a, z in zip(res, zeros))
                assert abs(lhs - rhs) < 1e-7

    def test_shifted_partial_fraction_identity(self):
        # (1 + U_{m-1}(x))/U_m(x) doubles the odd residues and kills the rest
        random.seed(41)
        for m in range(1, 16):
            zeros = u_zeros(m)
            weights = [(1 + (-1) ** (j + 1))
                       * math.sin(j * math.pi / (m + 1)) ** 2 / (m + 1)
                       for j in range(1, m + 1)]
            drawn = 0
            while drawn < 100:
                x = random.uniform(-2, 2)
                if min(abs(x - z) for z in zeros) < 1e-3:
                    continue
                drawn += 1
                lhs = (1.0 + eval_poly(u_poly(m - 1), x)) / eval_poly(u_poly(m), x)
                rhs = sum(w / (x - z) for w, z in zip(weights, zeros))
                assert abs(lhs - rhs) < 1e-7


class TestSumIdentities:
    def test_weighted_half_angle_cosines(self):
        # sum over odd j of 2 cos^2(angle_j / 2) = (k+1)/2
        for k in range(1, 31):
            sp = spectrum(k)
            total = sum((1 + (-1) ** (j + 1)) * math.cos(sp.angles[j - 1] / 2) ** 2
                        for j in range(1, k + 1))
            assert total == pytest.approx((k + 1) / 2, abs=1e-9)

    def test_weighted_cotangents_against_eigenvalues(self):
        # sum over odd j of 2 cot^2(angle_j / 2) lambda_j = (k+1)(3k-2)
        for k in range(1, 31):
            sp = spectrum(k)
            total = sum((1 + (-1) ** (j + 1)) * sp.cot2_weights[j - 1]
                        * sp.eigenvalues[j - 1] for j in range(1, k + 1))
            assert total == pytest.approx((k + 1) * (3 * k - 2), abs=1e-9)

    def test_half_angle_totals(self):
        for k in range(1, 31):
            sp = spectrum(k)
            cos2 = sum(math.cos(a / 2) ** 2 for a in sp.angles)
            sin2 = sum(math.sin(a / 2) ** 2 for a in sp.angles)
            assert cos2 == pytest.approx(k / 2, abs=1e-9)
            assert sin2 == pytest.approx(k / 2, abs=1e-9)


class TestAsymptotics:
    def test_scw_estimate(self):
        assert abs(scw_asymptotic(11, 3) - 16239) < 1.0
        assert scw_asymptotic(11, 3) == pytest.approx((1 + math.sqrt(2)) ** 11,
                                                      rel=1e-12)
        # The leading terms read entry j = 1 of the spectrum to the last
        # bit, without building or caching the spectrum of their k.
        for k in range(1, 61):
            sp = spectrum(k)
            assert scw_asymptotic(7, k) == sp.eigenvalues[0] ** 7
            assert sw_asymptotic(7, k) == (2.0 / (k + 1) * sp.cot2_weights[0]
                                           * sp.eigenvalues[0] ** 6)
        cached = spectrum.cache_info().currsize
        scw_asymptotic(5, 10**6)
        sw_asymptotic(5, 10**6)
        assert spectrum.cache_info().currsize == cached

    def test_sw_estimate_ratio(self):
        assert sw_asymptotic(11, 3) / sw_exact(11, 3) == pytest.approx(1, abs=1e-3)

    def test_leading_term_is_not_an_identity(self):
        assert abs(scw_asymptotic(1, 3) - 3) > 0.1

    def test_convergence_is_monotone_until_noise_floor(self):
        # Relative gap to the leading term decays in n; once it reaches the
        # double-precision floor it only wiggles at machine noise.
        for k in range(1, 9):
            prev = None
            for n in range(10, 31):
                gap = abs(sw_trig(n, k) / sw_asymptotic(n, k) - 1)
                if prev is not None:
                    assert gap <= prev or gap < 1e-12
                prev = gap

    def test_converged_at_n60_k3(self):
        assert abs(sw_trig(60, 3) / sw_asymptotic(60, 3) - 1) < 1e-6
        assert abs(sw_exact(60, 3) / sw_asymptotic(60, 3) - 1) < 1e-6

    def test_proportion_limit_values(self):
        assert cyclic_proportion_limit(3) == pytest.approx(
            2 * (math.sqrt(2) - 1), abs=1e-12)
        assert cyclic_proportion_limit(1) == pytest.approx(1.0, abs=1e-12)
        assert cyclic_proportion_limit(1000) == pytest.approx(
            3 * math.pi ** 2 / 8000, rel=0.01)

    def test_proportion_limit_against_table_ratio(self):
        assert scw_exact(11, 3) / sw_exact(11, 3) == pytest.approx(
            cyclic_proportion_limit(3), abs=1e-4)
