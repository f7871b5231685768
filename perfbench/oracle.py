"""Independent expected outputs and the pass/fail rule for each request.

Every answer is checked against a pipeline other than the one that served
it:

* ``count`` by transfer (auto, matrix) and the other exact methods are
  checked against `genfunc.series_coeffs` rows; ``--method gf`` answers
  against transfer (sw) or the method of images (scw);
* necklaces by this module's own Burnside sum over a series row;
* ``table`` cells by series rows, in the exact md/csv text or, for jsonl,
  field by field;
* ``check`` by its expected comparison count and ``0 mismatches``.

Outcomes: ``ok``; ``failed`` when the program exits with an error where an
answer was owed; ``wrong`` when it prints a value that differs from the
expected one or breaks the 0/1/2/3 exit contract.  A spectral count may
answer exactly or exit 3 with empty stdout.
"""
from __future__ import annotations

import json
import sys
from functools import lru_cache

from smoothwords import genfunc, spectral, transfer, words

OK, FAILED, WRONG = "ok", "failed", "wrong"
EXIT_CONTRACT = (0, 1, 2, 3)
PRECISION_EXHAUSTED = 3
PRINT_LIMIT_DIGITS = 4300   # CPython's default int-to-str limit


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _totient(m: int) -> int:
    result, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    return result - result // rest if rest > 1 else result


def burnside(scw_row: list[int], n: int) -> int:
    """Necklaces of length n from cyclic counts scw_row[0..n]."""
    if n == 0:
        return 1
    total = sum(_totient(d) * scw_row[n // d] for d in _divisors(n))
    if total % n:
        raise AssertionError(f"Burnside sum {total} not divisible by {n}")
    return total // n


def trinomial_row(n: int) -> list[int]:
    """Coefficients of (1 + x + x^2)^n; index n + m holds [x^m](1+x+1/x)^n."""
    c = [1]
    for j in range(2 * n):
        prev = c[j - 1] if j else 0
        num = (n - j) * c[j] + (2 * n - j + 1) * prev
        if num % (j + 1):
            raise AssertionError(f"trinomial recurrence inexact at n={n}")
        c.append(num // (j + 1))
    return c


def scw_images(n: int, k: int) -> int:
    """Smooth cyclic words by the reflection principle:
    (k+1) sum_r T(n, 2r(k+1)) - (3^n + (-1)^n)/2, T trinomial."""
    if n == 0:
        return 1
    row = trinomial_row(n)
    step = 2 * (k + 1)
    reflected = sum(row[n + m] for m in range(-(n // step) * step, n + 1, step))
    return (k + 1) * reflected - (3 ** n + (-1) ** n) // 2


class Oracle:
    """Expected outputs, cached per (family, k) row or request.

    Creating one lifts the int-to-str digit limit in this process only, so
    the oracle can print and compare counts the program cannot; processes
    that serve requests keep the interpreter's default.
    """

    def __init__(self):
        sys.set_int_max_str_digits(0)
        self._rows: dict[tuple[str, int], list[int]] = {}

    def row(self, family: str, k: int, n_max: int) -> list[int]:
        """Counts for n = 0..n_max from generating-function series."""
        have = self._rows.get((family, k))
        if have is None or len(have) <= n_max:
            if family == "sn":
                scw = self.row("scw", k, n_max)
                have = [burnside(scw, n) for n in range(n_max + 1)]
            else:
                gf = genfunc.sw_gf(k) if family == "sw" else genfunc.scw_gf(k)
                have = genfunc.series_coeffs(gf, n_max)
            self._rows[(family, k)] = have
        return have[:n_max + 1]

    def count(self, family: str, n: int, k: int, method: str) -> int:
        if method == "gf":
            return transfer.sw_exact(n, k) if family == "sw" \
                else scw_images(n, k)
        return self.row(family, k, n)[n]

    def expected(self, req) -> str | None:
        """Expected stdout, or None for jsonl tables (checked by field)."""
        if req.kind == "count":
            return f"{self.count(req.family, req.n, req.k, req.method)}\n"
        if req.kind == "check":
            return f"{check_comparisons(req.n, req.k)} cross-checks, " \
                   f"0 mismatches\n"
        if req.fmt == "jsonl":
            return None
        return _table_text(self._table_rows(req), req)

    def over_print_limit(self, req) -> bool:
        """True iff an answer owed to ``req`` has more than 4300 digits."""
        if req.kind != "count":
            return False
        value = self.count(req.family, req.n, req.k, req.method)
        return len(str(value)) > PRINT_LIMIT_DIGITS

    def judge(self, req, code: int, stdout: str) -> str:
        if code not in EXIT_CONTRACT:
            return WRONG
        if req.method == "spectral" and code == PRECISION_EXHAUSTED \
                and stdout == "":
            return OK
        if code != 0:
            return FAILED
        if req.kind == "table" and req.fmt == "jsonl":
            return OK if _jsonl_matches(stdout, self._table_rows(req)) \
                else WRONG
        return OK if stdout == self.expected(req) else WRONG

    def _table_rows(self, req) -> list[tuple[str, int, list[int]]]:
        families = ("sw", "scw") if req.family == "both" else (req.family,)
        return [(fam, k, self.row(fam, k, req.n))
                for k in range(req.k_min, req.k_max + 1) for fam in families]


def check_comparisons(n_max: int, k_max: int) -> int:
    """Comparisons `check` makes: gf for sw and scw at every cell, plus
    bruteforce and spectral for all three families where each applies."""
    total = 0
    for k in range(1, k_max + 1):
        for n in range(n_max + 1):
            total += 2
            if n == 0 or k * 3 ** (n - 1) <= words.ENUMERATION_LIMIT:
                total += 3
            if spectral.in_validated_window(n, k):
                total += 3
    return total


def _table_text(rows, req) -> str:
    ns = range(req.n + 1)
    if req.fmt == "md":
        lines = [["n"] + [str(n) for n in ns], ["---"] * (req.n + 2)]
        lines += [[f"{fam} k={k}"] + [str(c) for c in counts]
                  for fam, k, counts in rows]
        return "".join("| " + " | ".join(line) + " |\n" for line in lines)
    both = req.family == "both"
    head = ("family,k," if both else "k,") + ",".join(str(n) for n in ns)
    body = [(f"{fam},{k}," if both else f"{k},")
            + ",".join(str(c) for c in counts) for fam, k, counts in rows]
    return "".join(line + "\n" for line in [head] + body)


def _jsonl_matches(stdout: str, rows) -> bool:
    want = [(fam, n, k, str(c)) for fam, k, counts in rows
            for n, c in enumerate(counts)]
    try:
        got = [json.loads(line) for line in stdout.splitlines()]
        return [(g["family"], g["n"], g["k"], g["count"]) for g in got] \
            == want and all(isinstance(g["method"], str) for g in got)
    except (ValueError, KeyError, TypeError):
        return False
