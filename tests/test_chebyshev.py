"""Chebyshev and theta polynomials: construction, evaluation, identities.

The polynomial identities are exact, so they are checked with exact
rational arithmetic at randomly drawn rational points; double-precision
Horner in the power basis loses ~1e-5 near |x| -> 1 at degree 30 and
would mask real failures behind loose tolerances.
"""
import math
import random
from fractions import Fraction

import pytest

from smoothwords.chebyshev import (Poly, eval_poly, theta_parts, theta_poly,
                                   u_poly, u_zeros)
from smoothwords.genfunc import RationalSeries, series_coefficient


def u_at(r, x):
    """U_r evaluated at x, honoring the backward convention."""
    return eval_poly(u_poly(r), x)


class TestPoly:
    def test_trims_trailing_zeros(self):
        assert Poly(1, 2, 0, 0).coeffs == (1, 2)
        assert Poly(0, 0).coeffs == ()
        assert Poly().is_zero()

    def test_degree_and_leading_coefficient(self):
        assert Poly().degree == -1
        assert Poly(5).degree == 0
        for r in range(12):
            p = u_poly(r)
            assert p.degree == r
            assert p.coeffs[-1] == 2 ** r  # leading coefficient of U_r

    def test_arithmetic(self):
        a, b = Poly(1, 2), Poly(0, -2, 3)
        assert a + b == Poly(1, 0, 3)
        assert a - b == Poly(1, 4, -3)
        assert a * b == Poly(0, -2, -1, 6)
        assert 3 * a == Poly(3, 6)
        assert a.shift(2) == Poly(0, 0, 1, 2)
        assert a * Poly() == Poly()

    def test_coefficients_follow_the_integer_rule(self):
        # A float or bool coefficient is a ValueError when the Poly is made,
        # not a float series or a TypeError from deep inside the jump.
        for bad in (lambda: Poly(0.5, 2), lambda: Poly(1, 2.0),
                    lambda: Poly(True, 1), lambda: Poly(1, "4"),
                    lambda: RationalSeries(Poly(1, 0.5), Poly(1, -1)),
                    lambda: series_coefficient(
                        RationalSeries(Poly(1), Poly(1, -3.0)), 50)):
            with pytest.raises(ValueError, match="coefficient must be an "
                               "integer"):
                bad()

    def test_sums_take_only_polys(self):
        # An int is no polynomial to add: write Poly(c) for a constant.
        a = Poly(1)
        for bad in (lambda: a + 1, lambda: 1 + a, lambda: a - 1,
                    lambda: 1 - a):
            with pytest.raises(TypeError):
                bad()

    def test_products_take_only_polys_and_ints(self):
        # A float or a bool is no integer scale, on either side.
        a = Poly(1)
        for bad in (lambda: a * 2.0, lambda: 2.0 * a, lambda: a * True,
                    lambda: True * a):
            with pytest.raises(TypeError):
                bad()
        assert a * 3 == 3 * a == Poly(3)


class TestConstruction:
    def test_u_small(self):
        assert u_poly(0) == Poly(1)
        assert u_poly(1) == Poly(0, 2)
        assert u_poly(2) == Poly(-1, 0, 4)
        assert u_poly(3) == Poly(0, -4, 0, 8)  # 8x^3 - 4x

    def test_u_backward_convention(self):
        assert u_poly(-1) == Poly()
        assert u_poly(-2) == Poly(-1)
        with pytest.raises(ValueError):
            u_poly(-3)

    def test_u_recurrence(self):
        for r in range(2, 40):
            assert u_poly(r) == Poly(0, 2) * u_poly(r - 1) - u_poly(r - 2)

    def test_t_cosine_property(self):
        # The first kind, 2 T_r = U_r - U_{r-2}, has T_r(cos t) = cos(r t);
        # at r = 0 and 1 it reads U_{-2} = -1 and U_{-1} = 0.
        random.seed(20)
        for r in range(16):
            twice_t = u_poly(r) - u_poly(r - 2)
            for _ in range(20):
                th = random.uniform(0.1, math.pi - 0.1)
                assert eval_poly(twice_t, math.cos(th)) / 2 == pytest.approx(
                    math.cos(r * th), abs=1e-9)

    def test_theta_small(self):
        assert theta_poly(0) == Poly(1)
        assert theta_poly(1) == Poly(1, -1)
        assert theta_poly(2) == Poly(1, -2)

    def test_theta_shape(self):
        for i in range(30):
            p = theta_poly(i)
            assert p.constant_term() == 1
            assert p.degree <= i


class TestEvaluation:
    def test_examples(self):
        assert eval_poly(u_poly(1), 0.5) == 1.0
        assert eval_poly(u_poly(5), 1.0) == 6.0
        assert abs(eval_poly(u_poly(2), math.cos(math.pi / 3))) < 1e-12

    def test_values_at_plus_minus_one_exact(self):
        for r in range(31):
            assert eval_poly(u_poly(r), 1) == r + 1
            assert eval_poly(u_poly(r), -1) == (-1) ** r * (r + 1)

    def test_sine_ratio_definition(self):
        # Polynomial side evaluated exactly at the float abscissa keeps the
        # comparison within 1e-9 for all theta, including near 0 and pi.
        random.seed(7)
        for r in range(1, 31):
            for _ in range(200):
                th = random.uniform(0.0, math.pi)
                want = math.sin((r + 1) * th) / math.sin(th)
                got = float(eval_poly(u_poly(r), Fraction(math.cos(th))))
                assert abs(got - want) < 1e-9


class TestZeros:
    def test_small(self):
        assert u_zeros(1) == pytest.approx([0.0], abs=1e-15)
        assert u_zeros(2) == pytest.approx([0.5, -0.5])
        assert u_zeros(3) == pytest.approx([math.sqrt(2) / 2, 0.0, -math.sqrt(2) / 2])

    def test_shape(self):
        for m in range(1, 25):
            zs = u_zeros(m)
            assert len(zs) == m
            assert all(-1 < z < 1 for z in zs)
            assert all(a > b for a, b in zip(zs, zs[1:]))
            # symmetric about 0
            for z, z2 in zip(zs, reversed(zs)):
                assert z == pytest.approx(-z2, abs=1e-12)

    def test_zeros_annihilate(self):
        for m in range(1, 16):
            for z in u_zeros(m):
                assert abs(eval_poly(u_poly(m), z)) < 1e-9


class TestIdentities:
    def test_prefix_sum_identity(self):
        # sum_{j<=p} U_j(t) = (U_{p+1}(t) - U_p(t) - 1) / (2(t-1))
        random.seed(11)
        for p in range(26):
            for _ in range(8):
                t = Fraction(random.uniform(-0.99, 0.99))
                lhs = sum(u_at(j, t) for j in range(p + 1))
                rhs = (u_at(p + 1, t) - u_at(p, t) - 1) / (2 * (t - 1))
                assert abs(float(lhs - rhs)) < 1e-9

    def test_product_identity(self):
        # U_i U_j = (U_{i-j} - t U_{i-j-1} - U_{i+j+2} + t U_{i+j+1}) / (2(1-t^2))
        random.seed(12)
        for i in range(21):
            for j in range(i + 1):
                for _ in range(3):
                    t = Fraction(random.uniform(-0.99, 0.99))
                    lhs = u_at(i, t) * u_at(j, t)
                    rhs = (u_at(i - j, t) - t * u_at(i - j - 1, t)
                           - u_at(i + j + 2, t) + t * u_at(i + j + 1, t)) \
                        / (2 * (1 - t * t))
                    assert abs(float(lhs - rhs)) < 1e-8

    def test_theta_u_bridge(self):
        # theta_i(x) = x^i U_i((1-x)/(2x)) exactly, at x = 1/q
        for i in range(21):
            for q in range(2, 12):
                x = Fraction(1, q)
                t = (1 - x) / (2 * x)
                assert eval_poly(theta_poly(i), x) == x ** i * u_at(i, t)

    def test_theta_recurrence(self):
        one_minus_x, x_sq = Poly(1, -1), Poly(0, 0, 1)
        for i in range(2, 30):
            assert theta_poly(i) == one_minus_x * theta_poly(i - 1) \
                - x_sq * theta_poly(i - 2)

    def test_theta_factors_multiply_to_theta(self):
        # Both parities and the k <= 2 base cases, against theta_k built
        # here by the Poly recurrence rather than by `theta_poly`.
        one_minus_x, x_sq = Poly(1, -1), Poly(0, 0, 1)
        prev, cur = Poly(1), Poly(1, -1)  # theta_0, theta_1
        for k in range(1, 401):
            if k > 1:
                prev, cur = cur, one_minus_x * cur - x_sq * prev
            th_km1, th_k, factors = theta_parts(k)
            assert (th_km1, th_k) == (prev, cur), k
            product = Poly(1)
            for f in factors:
                assert f.constant_term() == 1
                product = product * f
            assert product == cur, k
            if k <= 2:
                assert factors == (cur,)
            else:
                assert len(factors) == 2
                assert max(f.degree for f in factors) <= (k + 1) // 2
