"""Command-line interface: outputs, formats, and the exit-status contract."""
import functools
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from smoothwords import cli, spectral, transfer, words

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_examples(self, capsys):
        assert run_cli(capsys, "count", "sw", "--n", "11", "--k", "3")[:2] == \
            (0, "19601\n")
        assert run_cli(capsys, "count", "sn", "--n", "0", "--k", "5")[:2] == \
            (0, "1\n")
        assert run_cli(capsys, "count", "scw", "--n", "8", "--k", "6",
                       "--method", "spectral")[:2] == (0, "4468\n")
        assert run_cli(capsys, "count", "sw", "--n", "6",
                       "--k", "1000000000000000000")[:2] == \
            (0, "242999999999999999492\n")

    @pytest.mark.parametrize("family, count",
                             [("sw", 1220), ("scw", 872), ("sn", 128)])
    def test_all_methods_agree(self, capsys, family, count):
        # Every cell of the CLI's family table, reached through `count`.
        for method in ("auto", "bruteforce", "matrix", "gf", "spectral"):
            assert run_cli(capsys, "count", family, "--n", "7", "--k", "4",
                           "--method", method)[:2] == (0, f"{count}\n")

    def test_large_count_is_plain_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "count", "sw", "--n", "200", "--k", "3")
        assert code == 0
        assert out.strip().isdigit()
        assert len(out.strip()) > 70  # far beyond 64-bit range, no sci notation

    def test_count_beyond_int_str_limit_prints_every_digit(self, capsys):
        # sw(12000, 3) has 4594 digits, past the 4300-digit int-to-str
        # limit that Python 3.10.7+ applies by default.
        code, out, _ = run_cli(capsys, "count", "sw", "--n", "12000",
                               "--k", "3")
        assert code == 0
        digits = out.strip()
        assert digits.isdigit() and len(digits) > 4300
        assert int(digits) == transfer.sw_exact(12000, 3)

    def test_bruteforce_guard_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "sw", "--n", "25", "--k", "3",
                               "--method", "bruteforce")
        assert code == 2
        assert "brute force" in err

    def test_bruteforce_length_zero_at_a_huge_alphabet(self, capsys):
        for family in ("sw", "scw"):
            assert run_cli(capsys, "count", family, "--n", "0",
                           "--k", str(10**18), "--method", "bruteforce") == \
                (0, "1\n", "")

    def test_gf_scw_count_at_a_huge_alphabet(self, capsys):
        # The power sums build nothing of size k below n = 45 k; the series
        # of scw_gf would first build theta_k of degree 10^18.
        argv = ("count", "scw", "--n", "48", "--k", str(10**18))
        start = time.perf_counter()
        got = run_cli(capsys, *argv, "--method", "gf")
        assert time.perf_counter() - start < 1
        assert got[0] == 0
        assert got == run_cli(capsys, *argv, "--method", "auto")

    def test_gf_sw_count_at_a_large_alphabet(self, capsys):
        # From alphabet n - 1 on the count grows by 3^(n-1) per letter, so
        # the series is read at k = 47; reading it at k = 20000 would first
        # build theta_k of degree 20000, which takes over a minute.
        argv = ("count", "sw", "--n", "48", "--k", "20000")
        start = time.perf_counter()
        got = run_cli(capsys, *argv, "--method", "gf")
        assert time.perf_counter() - start < 1
        assert got[0] == 0
        assert got == run_cli(capsys, *argv, "--method", "auto")

    def test_gf_necklace_count_is_the_rotation_average(self, capsys):
        # Necklaces have no function to print, but their gf count averages
        # scw_gf_count over the divisors of n.  At (240, 3) the divisor 240
        # >= 45 k reads scw_gf's series; at k = 10^18 every divisor sums
        # power sums and builds nothing of size k.
        for n, k in ((720, 12), (240, 3), (48, 10**18)):
            argv = ("count", "sn", "--n", str(n), "--k", str(k))
            start = time.perf_counter()
            got = run_cli(capsys, *argv, "--method", "gf")
            assert time.perf_counter() - start < 1
            assert got[0] == 0
            assert got == run_cli(capsys, *argv)

    def test_spectral_outside_window_exits_3(self, capsys):
        refusal = ("error: spectral method only validated for "
                   "1 <= n <= 25 and 1 <= k <= 10\n")
        for family, n, k in (("sw", "26", "3"), ("sw", "10", "11"),
                             ("scw", "0", "3")):
            assert run_cli(capsys, "count", family, "--n", n, "--k", k,
                           "--method", "spectral") == (3, "", refusal)

    def test_invalid_arguments(self, capsys):
        assert run_cli(capsys, "count", "sw", "--n", "-1", "--k", "3")[0] == 2
        assert run_cli(capsys, "count", "sw", "--n", "3", "--k", "0")[0] == 2
        assert run_cli(capsys, "count", "nope", "--n", "3", "--k", "3")[0] == 2
        assert run_cli(capsys, "count", "sw", "--k", "3")[0] == 2
        # Every method names the argument the user got wrong.
        for method in ("auto", "bruteforce", "matrix", "gf", "spectral"):
            for bad, name in ((("--n", "-1", "--k", "3"), "word length"),
                              (("--n", "3", "--k", "0"), "alphabet size")):
                code, out, err = run_cli(capsys, "count", "sw", *bad,
                                         "--method", method)
                assert (code, out) == (2, "")
                assert name in err
        err = run_cli(capsys, "count", "sw", "--n", str(10**19), "--k", "3",
                      "--method", "gf")[2]
        assert err.startswith("error: word length must be in 0..")

    def test_gf_checks_the_length_before_the_build(self, capsys):
        # Building the k = 3000 function takes seconds; a bad length must
        # not wait for it, and is named first, as by every other method.
        for argv in ("count sw --n -1 --k 3000 --method gf",
                     "count sw --n -1 --k 0 --method gf",
                     "count scw --n -1 --k 3000 --method gf",
                     "count scw --n -1 --k 0 --method gf",
                     "count sn --n -1 --k 3000 --method gf",
                     "count sn --n -1 --k 0 --method gf",
                     "count scw --n 10000000000000000000 --k 3000 "
                     "--method gf"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv.split())
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (2, "")
            assert err.startswith("error: word length must be in 0..")


class TestTable:
    def test_golden_markdown_table_words(self, capsys):
        code, out, _ = run_cli(capsys, "table", "both", "3", "7", "11", "md")
        assert code == 0
        assert out == (GOLDEN / "table1.md").read_text()

    def test_golden_markdown_table_necklaces(self, capsys):
        code, out, _ = run_cli(capsys, "table", "sn", "1", "7", "11", "md")
        assert code == 0
        assert out == (GOLDEN / "table2.md").read_text()

    def test_defaults_match_positional_forms(self, capsys):
        _, via_positional, _ = run_cli(capsys, "table", "both", "3", "7", "11", "md")
        _, via_defaults, _ = run_cli(capsys, "table", "both")
        assert via_defaults == via_positional
        _, sn_positional, _ = run_cli(capsys, "table", "sn", "1", "7", "11", "md")
        _, sn_defaults, _ = run_cli(capsys, "table", "sn")
        assert sn_defaults == sn_positional

    def test_flag_form(self, capsys):
        _, positional, _ = run_cli(capsys, "table", "sw", "2", "4", "6", "csv")
        _, flags, _ = run_cli(capsys, "table", "sw", "--k-min", "2", "--k-max",
                              "4", "--n-max", "6", "--format", "csv")
        assert positional == flags

    def test_conflicting_positional_and_flag(self, capsys):
        assert run_cli(capsys, "table", "sw", "3", "--k-min", "2")[0] == 2

    def test_determinism(self, capsys):
        first = run_cli(capsys, "table", "both", "3", "7", "11", "md")
        second = run_cli(capsys, "table", "both", "3", "7", "11", "md")
        assert first == second

    def test_csv_first_data_row(self, capsys):
        _, out, _ = run_cli(capsys, "table", "sw", "3", "7", "11", "csv")
        lines = out.splitlines()
        assert lines[0] == "k,0,1,2,3,4,5,6,7,8,9,10,11"
        assert lines[1] == "3,1,3,7,17,41,99,239,577,1393,3363,8119,19601"

    def test_specific_cell(self, capsys):
        _, out, _ = run_cli(capsys, "table", "both", "3", "7", "11", "md")
        row = next(line for line in out.splitlines()
                   if line.startswith("| sw k=7 "))
        assert row.split("|")[-2].strip() == "221805"  # n = 11 column

    def test_necklace_row_k1_all_ones(self, capsys):
        _, out, _ = run_cli(capsys, "table", "sn", "1", "1", "11", "csv")
        assert out.splitlines()[1] == "1," + ",".join(["1"] * 12)

    def test_jsonl_cells(self, capsys):
        _, out, _ = run_cli(capsys, "table", "both", "3", "3", "2", "jsonl")
        records = [json.loads(line) for line in out.splitlines()]
        assert {"family": "sw", "n": 2, "k": 3,
                "method": "matrix", "count": "7"} in records
        assert {"family": "scw", "n": 2, "k": 3,
                "method": "matrix", "count": "7"} in records
        assert all(isinstance(r["count"], str) for r in records)
        assert len(records) == 6
        # Necklace rows are rotation averages of the walk rows.
        _, out, _ = run_cli(capsys, "table", "sn", "3", "3", "2", "jsonl")
        assert json.loads(out.splitlines()[2]) == {
            "family": "sn", "n": 2, "k": 3, "method": "burnside", "count": "5"}

    @pytest.mark.parametrize("n_max", [0, 9])
    @pytest.mark.parametrize("family", ["sw", "scw", "sn", "both"])
    def test_jsonl_lines_are_canonical_json(self, capsys, family, n_max):
        # Each line is spelt as json.dumps spells its record: key order and
        # the ", " and ": " separators.
        _, out, _ = run_cli(capsys, "table", family, "1", "4", str(n_max),
                            "jsonl")
        lines = out.splitlines()
        assert len(lines) == 4 * (n_max + 1) * (2 if family == "both" else 1)
        for line in lines:
            assert line == json.dumps(json.loads(line))

    def test_bad_ranges(self, capsys):
        assert run_cli(capsys, "table", "both", "9", "3", "11", "md")[0] == 2
        assert run_cli(capsys, "table", "both", "0", "3", "11", "md")[0] == 2
        assert run_cli(capsys, "table", "both", "3", "7", "-1", "md")[0] == 2
        # At most 1000 alphabets per request, wherever they start.
        assert run_cli(capsys, "table", "sw", "2", "1001", "0", "csv")[0] == 0
        assert run_cli(capsys, "table", "sw", "2", "1002", "0", "csv") == (
            2, "", "error: k-max must be in 2..1001, got 1002\n")

    def test_row_too_large_for_memory_exits_2(self, capsys):
        # A walk row holds k integers, which 10**18 letters cannot.
        code, out, err = run_cli(capsys, "table", "sw", "1000000000000000000",
                                 "1000000000000000000", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "too large" in err

    @pytest.mark.parametrize("family", ["sw", "scw", "sn"])
    def test_row_too_large_to_index_exits_2(self, capsys, family):
        # 10**19 entries overflow a list index before any memory is asked for.
        code, out, err = run_cli(capsys, "table", family, str(10**19),
                                 str(10**19), "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "too large" in err


class TestGf:
    def test_sw3_series_line(self, capsys):
        _, out, _ = run_cli(capsys, "gf", "sw", "--k", "3")
        num_den, series = out.splitlines()
        assert num_den.startswith("(") and ")/(" in num_den
        assert series == "1,3,7,17,41,99,239,577,1393,3363,8119,19601"

    def test_scw1_all_ones(self, capsys):
        _, out, _ = run_cli(capsys, "gf", "scw", "--k", "1")
        assert out.splitlines()[1] == ",".join(["1"] * 12)

    def test_sw4_matches_doubled_odd_fibonacci(self, capsys):
        _, out, _ = run_cli(capsys, "gf", "sw", "--k", "4")
        got = [int(v) for v in out.splitlines()[1].split(",")]
        fib = [0, 1]
        while len(fib) < 25:
            fib.append(fib[-1] + fib[-2])
        assert got[3] == 2 * fib[7] == 26
        assert got[1:] == [2 * fib[2 * n + 1] for n in range(1, 12)]

    def test_rejects_necklace_family_and_bad_k(self, capsys):
        assert run_cli(capsys, "gf", "sn", "--k", "3")[0] == 2
        assert run_cli(capsys, "gf", "sw", "--k", "0")[0] == 2


class TestCheck:
    def test_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "9", "--k-max", "5")
        assert code == 0
        assert "0 mismatches" in out

    def test_trivial_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "0", "--k-max", "1")
        assert code == 0
        assert "0 mismatches" in out

    def test_injected_fault_detected(self, capsys, monkeypatch):
        # An off-by-one wrap condition would inflate the cyclic brute force.
        real = words.scw_rows_bf
        monkeypatch.setattr(words, "scw_rows_bf", lambda ks, n_max: [
            [c + (1 if n >= 2 else 0) for n, c in enumerate(row)]
            for row in real(ks, n_max)])
        code, out, _ = run_cli(capsys, "check", "--n-max", "5", "--k-max", "3")
        assert code == 1
        assert "MISMATCH family=scw" in out

    def test_one_walk_per_alphabet(self, capsys, monkeypatch):
        # Every length of every alphabet comes from one word walk (shared
        # by sw and scw) and one FKM walk per brute-force depth, at the
        # largest k of that depth, not from a walk per alphabet or per
        # cell.  Here every k reaches depth 9.
        word_walks, necklace_walks = [], []
        real_words, real_necklaces = words._word_tally, words._necklace_tally

        def count_words(k, n_max):
            word_walks.append(k)
            return real_words.__wrapped__(k, n_max)

        def count_necklaces(k, n_max):
            necklace_walks.append(k)
            return real_necklaces(k, n_max)

        monkeypatch.setattr(words, "_word_tally",
                            functools.lru_cache(maxsize=1)(count_words))
        monkeypatch.setattr(words, "_necklace_tally", count_necklaces)
        code, out, _ = run_cli(capsys, "check", "--n-max", "9", "--k-max", "5")
        assert code == 0 and out.endswith(" cross-checks, 0 mismatches\n")
        assert word_walks == [5]
        assert necklace_walks == [5]

    def test_rows_stop_at_the_guard(self, capsys, monkeypatch):
        # With a small guard the rows end early at every k; a row past the
        # guard would raise, and a cell past the row would be miscounted.
        monkeypatch.setattr(words, "ENUMERATION_LIMIT", 300)
        cells = [(n, k) for n in range(10) for k in range(1, 6)]
        assert not all(words.admits(n, k) for n, k in cells)
        code, out, _ = run_cli(capsys, "check", "--n-max", "9", "--k-max", "5")
        expected = sum(2 + 3 * words.admits(n, k)
                       + 3 * spectral.in_validated_window(n, k)
                       for n, k in cells)
        assert (code, out) == (0, f"{expected} cross-checks, 0 mismatches\n")

    def test_bad_bounds(self, capsys):
        assert run_cli(capsys, "check", "--n-max", "-1", "--k-max", "3")[0] == 2
        assert run_cli(capsys, "check", "--n-max", "3", "--k-max", "0")[0] == 2
        assert run_cli(capsys, "check", "--n-max", "0", "--k-max", "1001") == (
            2, "", "error: k-max must be in 1..1000, got 1001\n")


class TestAsymptotics:
    def test_proportion_limit(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "proportion", "--k", "3")
        assert code == 0
        assert out.startswith("limit 0.8284271")

    def test_proportion_with_length(self, capsys):
        _, out, _ = run_cli(capsys, "asymptotics", "proportion", "--k", "3",
                            "--n", "11")
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert float(lines["proportion"]) == pytest.approx(16239 / 19601)
        assert float(lines["deviation"]) < 1e-4

    def test_scw_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "scw", "--k", "3",
                               "--n", "11")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert lines["exact"] == "16239"
        assert abs(float(lines["estimate"]) - 16239) < 1.0
        assert abs(float(lines["ratio"]) - 1) < 1e-3

    def test_sw_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "sw", "--k", "3",
                               "--n", "11")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert lines["exact"] == "19601"
        assert abs(float(lines["estimate"]) - 19601) < 1.0
        assert abs(float(lines["ratio"]) - 1) < 1e-6

    def test_proportion_large_k(self, capsys):
        import math
        _, out, _ = run_cli(capsys, "asymptotics", "proportion", "--k", "1000")
        limit = float(out.splitlines()[0].split()[1])
        assert limit == pytest.approx(3 * math.pi ** 2 / 8000, rel=0.01)

    def test_proportion_is_the_correctly_rounded_ratio(self, capsys):
        # The printed proportion and deviation are those of the exact
        # rational scw/sw rounded once to a double.
        from fractions import Fraction
        for k in (*range(1, 13), 50, 1000):
            limit = spectral.cyclic_proportion_limit(k)
            for n in (1, 2, 3, 5, 10, 30, 31, 100, 2000, 20000):
                ratio = float(Fraction(transfer.scw_exact(n, k),
                                       transfer.sw_exact(n, k)))
                assert run_cli(capsys, "asymptotics", "proportion", "--k",
                               str(k), "--n", str(n)) == (
                    0, f"limit {limit!r}\nproportion {ratio!r}\n"
                       f"deviation {abs(ratio - limit)!r}\n", "")

    def test_length_required_for_word_families(self, capsys):
        assert run_cli(capsys, "asymptotics", "sw", "--k", "3")[0] == 2

    @pytest.mark.parametrize("family, n", [("sw", 2000), ("scw", 900)])
    def test_estimate_beyond_double_range_exits_3(self, capsys, family, n):
        # lambda_1^n overflows a double; the exact count is still computed.
        code, out, err = run_cli(capsys, "asymptotics", family, "--k", "3",
                                 "--n", str(n))
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "double range" in err


# Every error path leaves through `main`: its exit status, nothing on
# stdout and exactly one `error: ` line on stderr.
ERROR_PATHS = [
    (3, "count sw --n 26 --k 3 --method spectral"),  # outside the window
    (2, "count sw --n 25 --k 3 --method bruteforce"),  # past the guard
    (2, "count sn --n -1 --k 3000 --method gf"),  # names the length
    (2, "count sw --n 10000000000000000000 --k 3 --method gf"),  # > maxsize
    (2, "count sw --n -1 --k 3000 --method gf"),  # refused before the build
    (2, "count sw --n -1 --k 0 --method gf"),  # both bad: names the length
    (2, "table sw 3 --k-min 2"),  # positional and flag conflict
    (2, "table both 9 3 11"),
    (2, "check --k-max 0"),
    # n-max past the row limit: refused at once, not computed or cut by
    # islice's own message.
    *((2, f"table {family} 1 1 {n_max}")
      for family in ("sw", "scw", "sn", "both") for n_max in (10**18, 10**19)),
    (2, f"check --n-max {10**18} --k-max 1"),
    # More alphabets than one request covers: refused, not computed.
    (2, f"table sw 1 {10**18} 0"),
    (2, f"check --n-max 0 --k-max {10**18}"),
    (2, "gf sw --k 1001"),  # past the gf alphabet limit: refused, not built
    (2, "asymptotics sw --k 0 --n 5"),
    (3, "asymptotics sw --k 3 --n 2000"),  # beyond double range
    # Argv the command line cannot read.
    (2, "frob"),  # no such command
    (2, ""),  # no command at all
    (2, "count nope --n 3 --k 3"),  # no such family
    (2, "count sw --k 3"),  # a required flag left out
    (2, "count sw --n x --k 3"),  # not an int
    (2, "count sw --n 3 --k 3 --bogus"),  # no such flag
    (2, "count sw --k 3 --n"),  # a flag with no value
    (2, "table sw --k 3"),  # a prefix of --k-min and --k-max
    (2, "table sw 1 2 3 md extra"),  # one positional too many
    (2, "count sw --n 3 --k 3 --"),  # a lone "--" is no flag
]


@pytest.mark.parametrize("status, argv", ERROR_PATHS,
                         ids=[argv for _, argv in ERROR_PATHS])
def test_error_paths_exit_through_main(capsys, status, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (status, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


DOUBLE_DASHES = [
    ("count sw --n 3 --k 3 --", "--n, --k, --method"),
    ("gf sw --k 3 --", "--k"),  # the prefix of one flag only
    ("gf sw --=3", "--k"),
]


@pytest.mark.parametrize("argv, flags", DOUBLE_DASHES,
                         ids=[argv for argv, _ in DOUBLE_DASHES])
def test_lone_double_dash_is_an_unknown_option(capsys, argv, flags):
    # "--" is a prefix of every flag, but it names none of them.
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == f"error: unknown option --; choose from {flags}\n"


# Each spelling the command line accepts, beside its canonical form: both
# must print the same bytes and exit with the same status.
SPELLINGS = [
    # The positional and flag forms of `table`, in every format.
    *((f"table both 3 5 9 {fmt}",
       f"table both --k-min 3 --k-max 5 --n-max 9 --format {fmt}")
      for fmt in cli._FORMATS),
    ("table sn --format csv --n-max 9 --k-max 4 --k-min 2",
     "table sn 2 4 9 csv"),
    ("count sw --n 11 --k 3", "count sw --n 11 --k 3 --method auto"),
    ("count sw --n=11 --k 3", "count sw --n 11 --k 3"),
    ("count sw --n 11 --k 3 --meth gf", "count sw --n 11 --k 3 --method gf"),
    ("count sw --n 11 --k 3 --method=gf", "count sw --n 11 --k 3 --method gf"),
    ("check --n-m 5 --k-m 2", "check --n-max 5 --k-max 2"),
    ("count --n 11 --k 3 sw", "count sw --n 11 --k 3"),
    ("count sw --n 4 --k 3 --n 11", "count sw --n 11 --k 3"),
    ("table sw 2 4 6 --format md --format csv", "table sw 2 4 6 csv"),
    # A value may start with "-": -1 is a length, refused by its range check.
    ("count sw --n -1 --k 3", "count sw --n=-1 --k 3"),
]


@pytest.mark.parametrize("spelling, canonical", SPELLINGS,
                         ids=[spelling for spelling, _ in SPELLINGS])
def test_spellings_print_as_their_canonical_form(capsys, spelling,
                                                 canonical):
    got = run_cli(capsys, *spelling.split())
    assert got == run_cli(capsys, *canonical.split())
    assert (got[0] == 0 and got[1]) or got == (
        2, "", "error: word length must be at least 0, got -1\n")


# The registry names each command accepts as an argument's value.
ACCEPTED = {
    "count": (*cli._FAMILIES, *cli._METHODS),
    "table": (*cli._FAMILIES, "both", *cli._FORMATS),
    "gf": cli._having("gf"),
    "check": (),
    "asymptotics": (*cli._having("leading"), "proportion"),
}


@pytest.mark.parametrize("argv", ["--help", "-h", *(
    f"{command} {word}" for command in ACCEPTED for word in ("--help", "-h"))])
def test_help_lists_the_registry(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out.startswith("usage: smoothwords ")
    # Help shows each choice as {a,b,...}; the top-level help shows every
    # command's usage.
    listed = {name for group in re.findall(r"\{([^}]*)\}", out)
              for name in group.split(",")}
    commands = [argv.split()[0]] if " " in argv else list(ACCEPTED)
    assert all(f"smoothwords {command} " in out for command in commands)
    assert listed == {name for command in commands
                      for name in ACCEPTED[command]}


class TestBinary:
    def test_installed_entry_point_contract(self):
        env_cmd = [sys.executable, "-m", "smoothwords"]
        out = subprocess.run(env_cmd + ["count", "sw", "--n", "11", "--k", "3"],
                             capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, "19601\n")
        bad = subprocess.run(env_cmd + ["count", "sw", "--n", "30", "--k", "3",
                                        "--method", "spectral"],
                             capture_output=True, text=True)
        assert bad.returncode == 3
        usage = subprocess.run(env_cmd + ["gf", "sn", "--k", "2"],
                               capture_output=True, text=True)
        assert usage.returncode == 2

    def test_help_survives_docstring_stripping(self):
        # `python -OO` drops docstrings; the help lines live in the grammar.
        helps = {command: entry[0]
                 for command, entry in cli._build_parser().items()}
        for argv, commands in (("--help", helps), ("count --help", ["count"])):
            out = subprocess.run(
                [sys.executable, "-OO", "-m", "smoothwords", *argv.split()],
                capture_output=True, text=True)
            assert (out.returncode, out.stderr) == (0, "")
            lines = [line.strip() for line in out.stdout.splitlines()]
            assert all(helps[command] in lines for command in commands)
            assert "None" not in lines

    def test_closed_stdout_exits_2(self):
        # A reader that stops after 100 bytes of a 1.5 MB table closes the
        # pipe while the writer still prints: one error line, no traceback
        # and no complaint from the interpreter's final flush.
        with subprocess.Popen(
                [sys.executable, "-m", "smoothwords", "table", "sw", "1", "40",
                 "400", "csv"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert head.startswith(b"k,0,1,2,")
        assert proc.returncode == 2
        assert err == "error: stdout closed before the output ended\n"

    def test_repeated_main_matches_fresh_parsers(self, capsys):
        # `main` builds its parser once per process.  Calls that follow
        # others, with argparse errors, a refused count and help among
        # them, print what a call with a newly built parser prints.
        argvs = ["count sw --n 11 --k 3", "count nope --n 3 --k 3",
                 "table both 2 3 4 csv", "count sw --n -1 --k 3",
                 "check --n-max 3 --k-max 2", "gf sn --k 2",
                 "--help", "table --help", "count scw --n 5 --k 4"]
        cli._build_parser.cache_clear()
        got = [run_cli(capsys, *argv.split()) for argv in argvs]
        assert cli._build_parser() is cli._build_parser()
        for argv, result in zip(argvs, got):
            cli._build_parser.cache_clear()
            assert run_cli(capsys, *argv.split()) == result
