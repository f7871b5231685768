"""Rational generating functions: closed forms, series extraction, identities."""
import ast
import collections
import math
import operator
import pathlib
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from smoothwords import _jump, _rotations, chebyshev, genfunc, spectral
from smoothwords.chebyshev import Poly
from smoothwords.genfunc import (RationalSeries, poly_str, scw_gf,
                                 scw_gf_count, series_coefficient,
                                 series_coeffs, series_equal, sn_gf_count,
                                 sw_gf, sw_gf_count, sw_prefix_gf,
                                 usmani_inverse_entry)
from smoothwords.transfer import necklace_row, scw_exact, sw_exact


def rs(num_coeffs, den_coeffs):
    return RationalSeries(Poly(*num_coeffs), Poly(*den_coeffs))


X = rs([0, 1], [1])


def add(a, b):
    """a + b as a rational series, by cross-multiplication."""
    return RationalSeries(a.num * b.den + b.num * a.den, a.den * b.den)


def mul(a, b):
    """a * b as a rational series."""
    return RationalSeries(a.num * b.num, a.den * b.den)


class TestRationalSeries:
    def test_sign_normalization(self):
        s = rs([1, 1], [-1, 2])
        assert s.den.constant_term() == 1
        assert s.num == Poly(-1, -1)

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            rs([1], [0, 1])
        with pytest.raises(ValueError):
            rs([1], [2, 1])

    def test_factors_must_multiply_to_den(self):
        with pytest.raises(ValueError):
            RationalSeries(Poly(1), Poly(1, -2, -3),
                           (Poly(1, -3), Poly(1, -1)))
        with pytest.raises(ValueError):
            RationalSeries(Poly(1), Poly(1, -2, -3), (Poly(1, -3),))

    def test_factors_ignored_by_equality_and_str(self):
        plain = rs([1, 1], [1, -2, -3])
        factored = RationalSeries(plain.num, plain.den,
                                  (Poly(1, -3), Poly(1, 1)))
        assert factored == plain and hash(factored) == hash(plain)
        assert str(factored) == str(plain)
        assert str(sw_gf(4)) == str(RationalSeries(sw_gf(4).num,
                                                   sw_gf(4).den))

    def test_negative_constant_term_with_factors(self):
        # den = -(1 - 3x)(1 + x); each factor is normalized on its own.
        num, den = Poly(2, 5, -1), Poly(-1, 2, 3)
        want = series_coeffs(RationalSeries(num, den), 12)
        for factors in ((Poly(-1, 3), Poly(1, 1)), (Poly(1, -3), Poly(-1, -1))):
            assert series_coeffs(RationalSeries(num, den, factors), 12) == want
        # -(2 + 5x - x^2)(1 + 2x + 7x^2 + ...)
        assert want[:3] == [-2, -9, -23]

    def test_str(self):
        assert str(rs([1, 1], [1, -2, -1])) == "(1 + x)/(1 - 2x - x^2)"
        assert str(rs([0, 0, 2], [1])) == "(2x^2)/(1)"
        assert poly_str(Poly()) == "0"
        assert poly_str(Poly(-1, 0, 4)) == "-1 + 4x^2"


class TestSeriesCoeffs:
    def test_geometric(self):
        assert series_coeffs(rs([1], [1, -3]), 4) == [1, 3, 9, 27, 81]

    def test_sw5_row(self):
        assert series_coeffs(sw_gf(5), 11) == \
            [1, 5, 13, 35, 95, 259, 707, 1931, 5275, 14411, 39371, 107563]

    def test_reduced_k3_form(self):
        assert series_coeffs(rs([1, 1], [1, -2, -1]), 5) == [1, 3, 7, 17, 41, 99]

    def test_cancelled_factor(self):
        # (1 - x) divides the numerator, so only 1 - 3x is divided by.
        s = RationalSeries(Poly(1, -1) * Poly(2, 1), Poly(1, -1) * Poly(1, -3),
                           (Poly(1, -1), Poly(1, -3)))
        assert series_coeffs(s, 4) == [2, 7, 21, 63, 189]

    def test_zero_numerator(self):
        assert series_coeffs(RationalSeries(Poly(), Poly(1, -3),
                                            (Poly(1, -3),)), 3) == [0] * 4

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(st.integers(1, 12), st.integers(13, 300)),
           st.integers(0, 400))
    @example(250, 400)  # even k: sw keeps one half of theta_k
    @example(301, 400)  # odd k: theta_{2m+1} = theta_m (theta_{m+1} - ...)
    def test_factored_matches_single_recurrence(self, k, n):
        for gf in (sw_gf(k), scw_gf(k)):
            whole = RationalSeries(gf.num, gf.den)
            assert whole.factors == (gf.den,)
            assert series_coeffs(gf, n) == series_coeffs(whole, n)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            series_coeffs(sw_gf(3), -1)


def _signed(width, size):
    return st.lists(st.integers(-width, width), min_size=size, max_size=size)


@st.composite
def _synthetic_series(draw):
    """num / prod(factors), signed coefficients, the numerator often longer
    than the denominator; it may be divisible by some or all factors."""
    factors = [Poly(draw(st.sampled_from((1, -1))), *draw(_signed(9, deg)))
               for deg in draw(st.lists(st.integers(0, 4), min_size=1,
                                        max_size=3))]
    num = Poly(*draw(_signed(50, draw(st.integers(0, 16)))))
    for f in factors:
        if draw(st.booleans()):
            num = num * f
    return RationalSeries(num, math.prod(factors, start=Poly(1)),
                          tuple(factors))


@st.composite
def _paper_series(draw):
    k = draw(st.integers(1, 24))
    i, j = draw(st.integers(1, k)), draw(st.integers(1, k))
    return draw(st.sampled_from((sw_gf(k), scw_gf(k), sw_prefix_gf(i, k),
                                 usmani_inverse_entry(i, j, k))))


# num of degree 30 over a denominator of degree d = 2: T = 31, so T-1 is
# read lazily and T, T+d-1 = 32 (r = x^(2d-1) mod chi) and T+d = 33
# (r = x^(2d) mod chi) are jumped to.
_LONG_NUM = RationalSeries(Poly(*range(-15, 16)), Poly(1, -1, -1))
# Every factor cancels: d = 0, and the series is the numerator.
_CANCELLED = RationalSeries(Poly(2, -3, 5) * Poly(1, -3) * Poly(1, 1),
                            Poly(1, -3) * Poly(1, 1), (Poly(1, -3), Poly(1, 1)))
# sw k=40 keeps degree 20; n = 12 * 20 was where an earlier lazy regime
# handed over to the jump.
_SW40_EDGE = 240


class TestSeriesCoefficient:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_paper_series(), _synthetic_series()),
           st.integers(0, 400))
    @example(_LONG_NUM, 30)
    @example(_LONG_NUM, 31)
    @example(_LONG_NUM, 32)
    @example(_LONG_NUM, 33)
    @example(_CANCELLED, 2)
    @example(_CANCELLED, 3)
    @example(_CANCELLED, 400)
    @example(sw_gf(40), _SW40_EDGE - 1)
    @example(sw_gf(40), _SW40_EDGE)
    @example(scw_gf(7), 200)
    def test_matches_series(self, rs, n):
        assert series_coefficient(rs, n) == series_coeffs(rs, n)[n]

    @pytest.mark.parametrize("n, jumps", [(20, False), (21, True),
                                          (239, True)])
    def test_jumps_from_the_head_on(self, n, jumps):
        # sw k=40 keeps degree d = 20 under a numerator of 21 coefficients,
        # so T = 21: n = 20 is read off the series, and every n from 21 on,
        # however close to T, jumps through `_jump._term`.
        with mock.patch.object(genfunc, "_term",
                               wraps=genfunc._term) as jump:
            assert series_coefficient(sw_gf(40), n) == sw_exact(n, 40)
        assert jump.called == jumps

    def test_deep_coefficient(self):
        assert series_coefficient(RationalSeries(Poly(1), Poly(1, -3)),
                                  5000) == 3**5000
        assert series_coefficient(sw_gf(3), 2000) == sw_exact(2000, 3)

    def test_rejects_bad_length(self):
        for n in (-1, 2.0, True):
            with pytest.raises(ValueError, match="word length"):
                series_coefficient(sw_gf(3), n)
        with pytest.raises(ValueError, match="word length must be in 0.."):
            series_coefficient(sw_gf(3), 10**19)


class TestGfCounts:
    @settings(max_examples=25, deadline=None)
    @given(st.one_of(st.integers(1, 12), st.integers(13, 300)),
           st.integers(0, 400), st.sampled_from((0, None)))
    @example(1, 0, None)
    @example(1, 7, None)
    @example(2, 9, None)
    @example(7, 314, None)  # odd k, the last n below 45 k
    @example(7, 315, None)  # the first n from which scw_gf is read
    @example(8, 399, None)  # even k
    @example(301, 400, None)  # odd k: a zero u = 0 and k // 2 pairs
    @example(300, 400, 0)
    def test_scw_matches_series(self, k, n, ratio):
        # ratio 0 reads scw_gf at every n; None keeps the fitted constant,
        # which sums power sums for every n < 45 k.
        if ratio is None:
            ratio = genfunc._POWER_SUMS_OVER_K
        with mock.patch.object(genfunc, "_POWER_SUMS_OVER_K", ratio):
            assert scw_gf_count(n, k) == series_coeffs(scw_gf(k), n)[n]

    def test_examples(self):
        # n = 0 is the empty word, not the trace k; at k = 1 only the
        # words 1...1, and at k = 2 every word is smooth cyclic.
        assert [scw_gf_count(0, k) for k in (1, 2, 5, 10**18)] == [1] * 4
        assert [scw_gf_count(n, 1) for n in range(6)] == [1] * 6
        assert [scw_gf_count(n, 2) for n in range(12)] == \
            [2**n for n in range(12)]
        assert [scw_gf_count(n, 3) for n in range(12)] == \
            [1, 3, 7, 15, 35, 83, 199, 479, 1155, 2787, 6727, 16239]
        assert [scw_gf_count(n, 4) for n in range(8)] == \
            [scw_exact(n, 4) for n in range(8)]
        assert sw_gf_count(11, 3) == 19601

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 29), st.integers(0, 100))
    @example(1, 0)  # n = 1 reads the series at alphabet 1
    @example(2, 0)
    @example(29, 0)  # k = n - 1: the series itself
    @example(29, 1)  # the first alphabet past it
    def test_sw_grows_by_step_sequences_past_n_minus_1(self, n, extra):
        # A smooth word of length n spans at most n letters, so from
        # alphabet n - 1 on each of its 3^(n-1) step sequences gains one
        # placement per letter; sw_gf_count reads the series there and
        # adds the line.
        k = max(n - 1, 1) + extra
        assert sw_exact(n, k) == \
            sw_exact(n, max(n - 1, 1)) + extra * 3 ** (n - 1)
        assert sw_gf_count(n, k) == sw_exact(n, k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 120))
    @example(1, 0)  # the empty necklace
    @example(2, 120)  # divisor 120 >= 45 k reads scw_gf's series
    @example(40, 120)  # every divisor below 45 k: power sums alone
    @example(3, 113)  # a prime length: the identity and n rotations
    def test_sn_is_the_rotation_average_of_scw(self, k, n):
        assert sn_gf_count(n, k) == necklace_row(k, n)[n]

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 9, 10, 31, 60])
    def test_reversed_v_is_rescaled_u(self, k):
        # U_k(u/2) = sum_j a_j u^j / 2^j; coefficient i of R is that of
        # u^(k - 2i), and every lower degree is read from the same list.
        a = chebyshev.u_poly(k).coeffs
        want = [a[k - 2 * i] // 2 ** (k - 2 * i) for i in range(k // 2 + 1)]
        assert all(a[k - 2 * i] % 2 ** (k - 2 * i) == 0
                   for i in range(k // 2 + 1))
        assert all(a[j] == 0 for j in range(k % 2 == 0, k, 2))
        for degree in range(k // 2 + 1):
            assert genfunc._reversed_v(k, degree) == want[:degree + 1]

    def test_checks_the_length_before_any_build(self):
        # Building sw_gf(10**18) would never end; a bad n must not wait.
        for count in (sw_gf_count, scw_gf_count, sn_gf_count):
            for n in (-1, 2.0, True, 10**19):
                with pytest.raises(ValueError, match="word length"):
                    count(n, 10**18)


def _schoolbook_square(r):
    out = [0] * (2 * len(r) - 1)
    for i, a in enumerate(r):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


class TestPackedSquare:
    @pytest.mark.parametrize("width", [1, 2, 5])
    @pytest.mark.parametrize("shape", [
        [0], [1], [-1], ["top"], ["-top"], [0, 0, 0], [1, -1, 1, -1],
        ["top", "-top"], ["-top", "top"], ["top", "top", "-top", "-top"],
        [0, "-top", 0, "top", 0], ["-top", -1, 0, 1, "top"]])
    def test_round_trip(self, width, shape):
        top = 2 ** (8 * width - 1) - 1
        coeffs = [{"top": top, "-top": -top}.get(c, c) for c in shape]
        assert _jump._unpack(_jump._pack(coeffs, width), len(coeffs),
                             width) == coeffs

    @pytest.mark.parametrize("r", [
        [0], [1], [-1], [7], [0, 0, 0], [1, -1, 1, -1],
        [255] * 3, [-255] * 4, [2**64 - 1, -(2**64 - 1)],
        # The middle slot is d * M^2, and 2 * bits(M) + bits(d) is a whole
        # number of bytes: a slot without its spare sign bit overflows.
        [7, 7, 7], [-7, 7, -7], [2**63 - 1] * 3,
        [-(2**100 - 1), 0, 2**100 - 1, 1, -1],
        [3**200, -(5**80), 0, 0, 1]])
    def test_square_is_schoolbook(self, r):
        assert _jump._square(list(r)) == _schoolbook_square(r)


def _unrolled_term(e, low, terms):
    """Term e of the recurrence t_(m+d) = -sum_j low[j] t_(m+j), step by step."""
    t = list(terms)
    while len(t) <= e:
        t.append(-sum(map(operator.mul, low, t[-len(low):])))
    return t[e]


_COEFFICIENTS = st.one_of(st.just(0), st.integers(-3, 3),
                          st.integers(-2**70, 2**70))


@st.composite
def _recurrences(draw):
    """(e, low, terms) of order d = 1..12: e below d, in d..2d-2 (a term
    that the extension to 2d - 1 terms computes itself), or up to 600."""
    d = draw(st.integers(1, 12))
    low = draw(st.lists(_COEFFICIENTS, min_size=d, max_size=d))
    terms = draw(st.lists(_COEFFICIENTS, min_size=d, max_size=d))
    e = draw(st.one_of(st.integers(0, d - 1),
                       st.integers(d, max(d, 2 * d - 2)),
                       st.integers(0, 600)))
    return e, low, terms


class TestJumpTerm:
    @settings(max_examples=300, deadline=None)
    @given(_recurrences())
    @example((0, [0], [0]))
    @example((0, [5], [7]))
    @example((1, [5], [7]))
    @example((3, [0, 0, 0], [1, 2, 3]))  # chi = x^3: every later term is 0
    @example((4, [0, 0, 1], [0, 0, 1]))  # e = 2d - 2, zeros in low and terms
    @example((600, [-1, -1], [0, 1]))  # Fibonacci, even e
    @example((599, [-1, -1], [0, 1]))  # odd e
    @example((597, [3, 0, 0, -2, 0, 0, 0, 0, 0, 0, 0, 1],  # d = 12, sparse
              [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]))
    def test_matches_unrolled_recurrence(self, case):
        e, low, terms = case
        assert _jump._term(e, low, terms) == _unrolled_term(e, low, terms)


def _imported_names(path):
    """Every module name component an import statement of ``path`` uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", [genfunc, chebyshev])
def test_gf_pipeline_imports_no_other_engine(module):
    # The series is an independent cross-check of the transfer engines, so
    # it shares no code with them, with brute force or with the spectral
    # sums.  It shares only the jump helper `_jump` with `transfer`, and
    # each jump has a witness that does not use it: the walk rows for
    # `transfer`, the lazy series `_series` here.
    names = _imported_names(pathlib.Path(module.__file__))
    assert not names & {"transfer", "words", "spectral"}


@pytest.mark.parametrize("module", [spectral, _rotations, _jump])
def test_spectral_sums_and_rotation_average_import_no_engine(module):
    # The spectral sums cross-check every other pipeline, and the rotation
    # average and the jump each serve two or three of them, so none of
    # them reaches into an engine.
    names = _imported_names(pathlib.Path(module.__file__))
    assert not names & {"transfer", "words", "genfunc", "chebyshev",
                        "spectral"}


class TestSeriesEqual:
    def test_common_factor_insensitive(self):
        a = rs([0, 1], [1, -1])
        b = RationalSeries(Poly(0, 1) * Poly(1, -3), Poly(1, -3) * Poly(1, -1))
        assert series_equal(a, b)

    def test_examples(self):
        assert series_equal(sw_gf(4), rs([1, 1, -1], [1, -3, 1]))
        assert not series_equal(sw_gf(3), scw_gf(3))

    def test_detects_differences(self):
        assert not series_equal(rs([1], [1, -3]), rs([1], [1, -2]))

    def test_rejects_what_is_no_series(self):
        # An int or a Poly on either side is a TypeError, not an
        # AttributeError from inside the cross-multiplication.
        for a, b in ((sw_gf(3), 1), (1, sw_gf(3)), (sw_gf(3), Poly(1, 1)),
                     (None, None)):
            with pytest.raises(TypeError,
                               match="^series_equal takes RationalSeries"):
                series_equal(a, b)


class TestClosedForms:
    def test_sw_specializations(self):
        assert series_equal(sw_gf(3), rs([1, 1], [1, -2, -1]))
        assert series_equal(sw_gf(1), rs([1], [1, -1]))
        assert series_equal(sw_gf(4), rs([1, 1, -1], [1, -3, 1]))
        assert series_equal(
            sw_gf(5),
            RationalSeries(Poly(1, 2, -2, -2), Poly(1, -1) * Poly(1, -2, -2)))

    def test_scw_specializations(self):
        assert series_coeffs(scw_gf(3), 11) == \
            [1, 3, 7, 15, 35, 83, 199, 479, 1155, 2787, 6727, 16239]
        assert series_equal(scw_gf(1), rs([1], [1, -1]))
        assert series_equal(scw_gf(2), rs([1], [1, -2]))

    def test_constant_terms(self):
        for k in range(1, 9):
            assert series_coeffs(sw_gf(k), 0) == [1]
            assert series_coeffs(scw_gf(k), 0) == [1]
            assert series_coeffs(sw_prefix_gf(1, k), 0) == [0]

    def test_series_match_matrix_pipeline(self):
        for k in range(1, 9):
            assert series_coeffs(sw_gf(k), 14) == \
                [sw_exact(n, k) for n in range(15)]
            assert series_coeffs(scw_gf(k), 14) == \
                [scw_exact(n, k) for n in range(15)]


class TestPrefixForms:
    def test_single_letter_alphabet(self):
        assert series_equal(sw_prefix_gf(1, 1), rs([0, 1], [1, -1]))

    def test_complement_symmetry(self):
        assert series_equal(sw_prefix_gf(1, 3), sw_prefix_gf(3, 3))
        for k in range(1, 8):
            for i in range(1, k + 1):
                assert series_equal(sw_prefix_gf(i, k),
                                    sw_prefix_gf(k + 1 - i, k))

    def test_length_two_coefficient(self):
        assert series_coeffs(sw_prefix_gf(2, 3), 2)[2] == 3  # 21, 22, 23

    def test_matches_exact_prefix_counts(self):
        # The reference is brute force: every smooth word of length n, made
        # by extending each one of length n - 1 by a letter, by first letter.
        for k in range(1, 7):
            coeffs = [series_coeffs(sw_prefix_gf(i, k), 10)
                      for i in range(1, k + 1)]
            assert [c[0] for c in coeffs] == [0] * k
            words = [(i,) for i in range(1, k + 1)]
            for n in range(1, 11):
                if n > 1:
                    words = [w + (c,) for w in words
                             for c in range(max(1, w[-1] - 1),
                                            min(k, w[-1] + 1) + 1)]
                counts = collections.Counter(w[0] for w in words)
                assert [c[n] for c in coeffs] == \
                    [counts[i] for i in range(1, k + 1)]

    def test_first_step_recurrence(self):
        # f_i = x + x (f_{i-1} + f_i + f_{i+1}), out-of-range terms zero
        zero = rs([0], [1])
        for k in range(1, 8):
            fs = {i: sw_prefix_gf(i, k) for i in range(1, k + 1)}
            fs[0] = fs[k + 1] = zero
            for i in range(1, k + 1):
                rhs = add(X, mul(X, add(add(fs[i - 1], fs[i]), fs[i + 1])))
                assert series_equal(fs[i], rhs)

    def test_decomposition_into_prefixes(self):
        for k in range(1, 9):
            total = rs([1], [1])
            for i in range(1, k + 1):
                total = add(total, sw_prefix_gf(i, k))
            assert series_equal(total, sw_gf(k))

    def test_validation(self):
        with pytest.raises(ValueError):
            sw_prefix_gf(0, 3)
        with pytest.raises(ValueError):
            sw_prefix_gf(4, 3)
