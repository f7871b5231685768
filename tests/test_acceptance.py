"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Known red: the proportion-convergence gate at n = 30 fails for k = 7 and
k = 8.  The finite-n deviation from the limit decays like
(lambda_2/lambda_1)^n; at n = 30 it measures 3.18e-3 for k = 7 and
8.53e-3 for k = 8, both above the 1e-3 gate; the criterion holds only for
k <= 6.  The checks are kept as stated rather than loosened.
"""
import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import TABLE1_SCW, TABLE1_SW, TABLE2_SN
from smoothwords import cli
from smoothwords.chebyshev import eval_poly, u_poly, u_zeros
from smoothwords.genfunc import (RationalSeries, scw_gf, series_coeffs,
                                 series_equal, sw_gf, sw_prefix_gf,
                                 usmani_inverse_entry)
from smoothwords.chebyshev import Poly
from smoothwords.spectral import (cyclic_proportion_limit, exact_count,
                                  residues, scw_trig, sn_trig, spectrum,
                                  sw_asymptotic, sw_trig)
from smoothwords.transfer import necklace_exact, scw_exact, sw_exact
from smoothwords.words import (is_smooth, is_smooth_cyclic, necklace_rows_bf,
                               scw_rows_bf, sw_rows_bf)


def report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_table1_reproduction():
    bad = []
    for k in range(3, 8):
        for n in range(12):
            if sw_exact(n, k) != TABLE1_SW[k][n]:
                bad.append(("sw", n, k))
            if scw_exact(n, k) != TABLE1_SCW[k][n]:
                bad.append(("scw", n, k))
    assert report("table-1 reproduction, 120 cells", not bad, f"bad={bad}" if bad else "")


def test_table2_reproduction():
    bad = [(n, k) for k in range(1, 8) for n in range(12)
           if necklace_exact(n, k) != TABLE2_SN[k][n]]
    assert report("table-2 reproduction, 84 cells", not bad, f"bad={bad}" if bad else "")


def test_four_way_agreement():
    bad = []
    for k in range(1, 7):
        sw_series = series_coeffs(sw_gf(k), 10)
        scw_series = series_coeffs(scw_gf(k), 10)
        [sw_brute] = sw_rows_bf((k,), 10)
        [scw_brute] = scw_rows_bf((k,), 10)
        [sn_brute] = necklace_rows_bf((k,), 10)
        for n in range(11):
            sw, scw, sn = sw_exact(n, k), scw_exact(n, k), necklace_exact(n, k)
            if not (sw_brute[n] == sw_series[n] == sw):
                bad.append(("sw", n, k))
            if not (scw_brute[n] == scw_series[n] == scw):
                bad.append(("scw", n, k))
            if sn_brute[n] != sn:
                bad.append(("sn", n, k))
            if n >= 1:  # spectral window admits every such instance here
                if exact_count(sw_trig, n, k) != sw:
                    bad.append(("sw-spectral", n, k))
                if exact_count(scw_trig, n, k) != scw:
                    bad.append(("scw-spectral", n, k))
                if exact_count(sn_trig, n, k) != sn:
                    bad.append(("sn-spectral", n, k))
    assert report("four-way agreement, n<=10 k<=6", not bad, f"bad={bad}" if bad else "")


def test_closed_form_specializations():
    forms_ok = (
        series_equal(sw_gf(3), RationalSeries(Poly(1, 1), Poly(1, -2, -1)))
        and series_equal(sw_gf(4), RationalSeries(Poly(1, 1, -1), Poly(1, -3, 1)))
        and series_equal(sw_gf(5), RationalSeries(Poly(1, 2, -2, -2),
                                                  Poly(1, -1) * Poly(1, -2, -2))))
    fib = [0, 1]
    while len(fib) < 35:
        fib.append(fib[-1] + fib[-2])
    # The doubled odd-index Fibonacci form counts nonempty words; at n = 0
    # it gives 2 while the table-1 convention fixes the count at 1, so the
    # identity's domain starts at n = 1.
    fib_ok = all(sw_exact(n, 4) == 2 * fib[2 * n + 1] for n in range(1, 16))
    assert report("closed-form specializations k=3,4,5 + doubled-Fibonacci",
                  forms_ok and fib_ok)


def test_first_letter_generating_function():
    # Coefficient n of sw_prefix_gf(i, k) counts the smooth words of length
    # n that start with i, found here among all of [k]^n.
    bad = []
    for k in range(1, 6):
        series = [series_coeffs(sw_prefix_gf(i, k), 8) for i in range(1, k + 1)]
        bad += [(i + 1, 0, k) for i, coeffs in enumerate(series) if coeffs[0]]
        for n in range(1, 9):
            first = [0] * (k + 1)
            for word in product(range(1, k + 1), repeat=n):
                if is_smooth(word, k):
                    first[word[0]] += 1
            bad += [(i, n, k) for i in range(1, k + 1)
                    if series[i - 1][n] != first[i]]
    assert report("first-letter generating function, n<=8 k<=5", not bad,
                  f"bad={bad}" if bad else "")


def test_tridiagonal_inverse_counts_cyclic_words():
    # Coefficient n - 1 of entry (i, j) of (I - xM)^-1 counts the smooth
    # words of length n from i to j.  Those with |i - j| <= 1 are the smooth
    # cyclic words, so their sum is scw(n, k).
    bad = []
    for k in range(1, 5):
        inverse = {(i, j): series_coeffs(usmani_inverse_entry(i, j, k), 6)
                   for i in range(1, k + 1) for j in range(1, k + 1)}
        for n in range(1, 8):
            ends, closed = dict.fromkeys(inverse, 0), dict.fromkeys(inverse, 0)
            for word in product(range(1, k + 1), repeat=n):
                if is_smooth(word, k):
                    ends[word[0], word[-1]] += 1
                if is_smooth_cyclic(word, k):
                    closed[word[0], word[-1]] += 1
            for (i, j), coeffs in inverse.items():
                want = coeffs[n - 1]
                if (ends[i, j], closed[i, j]) != \
                        (want, want if abs(i - j) <= 1 else 0):
                    bad.append(("ends", i, j, n, k))
    for k in range(1, 8):
        near = [series_coeffs(usmani_inverse_entry(i, j, k), 11)
                for i in range(1, k + 1) for j in range(1, k + 1)
                if abs(i - j) <= 1]
        bad += [("scw", n, k) for n in range(1, 13)
                if sum(c[n - 1] for c in near) != scw_exact(n, k)]
    assert report("tridiagonal inverse: word ends n<=7 k<=4, scw n<=12 k<=7",
                  not bad, f"bad={bad}" if bad else "")


def test_spectral_window():
    bad = []
    for k in range(1, 11):
        for n in range(1, 26):
            if exact_count(sw_trig, n, k) != sw_exact(n, k):
                bad.append(("sw", n, k))
            if exact_count(scw_trig, n, k) != scw_exact(n, k):
                bad.append(("scw", n, k))
            if exact_count(sn_trig, n, k) != necklace_exact(n, k):
                bad.append(("sn", n, k))
    outside = [cli.main(["count", fam, "--n", str(n), "--k", str(k),
                         "--method", "spectral"])
               for fam, n, k in (("sw", 26, 3), ("scw", 40, 5), ("sn", 10, 11),
                                 ("sw", 0, 2))]
    exits_ok = all(code == 3 for code in outside)
    assert report("spectral window, 750 round-trips + exit-3 outside",
                  not bad and exits_ok,
                  f"bad={bad} exits={outside}" if bad or not exits_ok else "")


def test_identity_suite():
    random.seed(2024)

    def u_at(r, t):
        return eval_poly(u_poly(r), t)

    prefix_ok = True  # sum_{j<=p} U_j = (U_{p+1} - U_p - 1)/(2(t-1))
    for p in range(26):
        for _ in range(6):
            t = Fraction(random.uniform(-0.99, 0.99))
            lhs = sum(u_at(j, t) for j in range(p + 1))
            rhs = (u_at(p + 1, t) - u_at(p, t) - 1) / (2 * (t - 1))
            prefix_ok &= abs(float(lhs - rhs)) < 1e-9

    product_ok = True  # linearization of U_i U_j
    for i in range(21):
        for j in range(i + 1):
            t = Fraction(random.uniform(-0.99, 0.99))
            lhs = u_at(i, t) * u_at(j, t)
            rhs = (u_at(i - j, t) - t * u_at(i - j - 1, t)
                   - u_at(i + j + 2, t) + t * u_at(i + j + 1, t)) \
                / (2 * (1 - t * t))
            product_ok &= abs(float(lhs - rhs)) < 1e-8

    pf_ok = True  # both partial-fraction expansions over 1/U_m
    for m in range(1, 16):
        zeros = u_zeros(m)
        res = residues(m)
        shifted = [(1 + (-1) ** (j + 1)) * math.sin(j * math.pi / (m + 1)) ** 2
                   / (m + 1) for j in range(1, m + 1)]
        drawn = 0
        while drawn < 100:
            x = random.uniform(-2, 2)
            if min(abs(x - z) for z in zeros) < 1e-3:
                continue
            drawn += 1
            um = eval_poly(u_poly(m), x)
            pf_ok &= abs(1.0 / um - sum(a / (x - z) for a, z in zip(res, zeros))) < 1e-7
            lhs = (1.0 + eval_poly(u_poly(m - 1), x)) / um
            pf_ok &= abs(lhs - sum(w / (x - z) for w, z in zip(shifted, zeros))) < 1e-7

    sums_ok = True  # the four eigenangle sum identities
    for k in range(1, 31):
        sp = spectrum(k)
        odd = [(1 + (-1) ** (j + 1)) for j in range(1, k + 1)]
        s1 = sum(w * math.cos(a / 2) ** 2 for w, a in zip(odd, sp.angles))
        s2 = sum(w * c * lam for w, c, lam in
                 zip(odd, sp.cot2_weights, sp.eigenvalues))
        s3 = sum(math.cos(a / 2) ** 2 for a in sp.angles)
        s4 = sum(math.sin(a / 2) ** 2 for a in sp.angles)
        sums_ok &= abs(s1 - (k + 1) / 2) < 1e-9
        sums_ok &= abs(s2 - (k + 1) * (3 * k - 2)) < 1e-9
        sums_ok &= abs(s3 - k / 2) < 1e-9 and abs(s4 - k / 2) < 1e-9

    assert report(
        "identity suite: prefix-sum, product, partial fractions, angle sums",
        prefix_ok and product_ok and pf_ok and sums_ok,
        f"prefix={prefix_ok} product={product_ok} pf={pf_ok} sums={sums_ok}"
        if not (prefix_ok and product_ok and pf_ok and sums_ok) else "")


@pytest.mark.parametrize("k", range(1, 9))
def test_asymptotics_proportion_convergence(k):
    ratio = float(Fraction(scw_exact(30, k), sw_exact(30, k)))
    dev = abs(ratio - cyclic_proportion_limit(k))
    assert report(f"proportion convergence at n=30, k={k}", dev < 1e-3,
                  f"|dev|={dev:.3e} vs 1e-3")


def test_asymptotics_leading_term():
    gap = abs(sw_exact(60, 3) / sw_asymptotic(60, 3) - 1)
    assert report("leading-term convergence at n=60, k=3", gap < 1e-6,
                  f"gap={gap:.3e}")


def test_asymptotics_limit_expansion():
    rel = abs(cyclic_proportion_limit(1000) / (3 * math.pi ** 2 / 8000) - 1)
    assert report("proportion limit at k=1000 vs 3*pi^2/(8k)", rel < 0.01,
                  f"rel={rel:.3e}")


def test_scale_smoke():
    t0 = time.perf_counter()
    big_sw = sw_exact(2000, 50)
    sw_secs = time.perf_counter() - t0
    t0 = time.perf_counter()
    big_sn = necklace_exact(1200, 30)
    sn_secs = time.perf_counter() - t0
    sane = (50 * 2 ** 1999 <= big_sw <= 50 * 3 ** 1999
            and scw_exact(1200, 30) // 1200 <= big_sn <= scw_exact(1200, 30))
    assert report("scale smoke: sw(2000,50), necklaces(1200,30) < 10s each",
                  sw_secs < 10 and sn_secs < 10 and sane,
                  f"sw={sw_secs:.2f}s sn={sn_secs:.2f}s sane={sane}")
