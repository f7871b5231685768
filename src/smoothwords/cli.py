"""Command-line front end.

Subcommands:

* ``count``        -- one exact count, any pipeline
* ``table``        -- grids of counts by alphabet size and length
* ``gf``           -- print a rational generating function and its series
* ``check``        -- cross-method consistency sweep
* ``asymptotics``  -- leading-term estimates against exact values

Counts are always printed as full decimal strings.  Exit status: 0 on
success and after ``-h`` or ``--help``, 1 when ``check`` finds a
disagreement, 2 on usage errors (an argv the command line cannot read, or
a value out of range), on requests too large for memory or for an index
and when stdout is closed before the output ends, 3 when a spectral
request falls outside the validated precision window or does not round,
or an ``asymptotics`` estimate exceeds double range.

The argv is read against a grammar that `_build_parser` builds from the
family, method and format registries, so every choice and every help
text follows them.  Subcommands return 0 or 1 and raise for everything
else: `ValueError` (the parser's too, naming the argument),
`MemoryError`, `OverflowError` and `BrokenPipeError` for status 2,
`PrecisionExhausted` for status 3.  `main` alone turns an exception into
its status and one ``error:`` line on stderr.
"""
from __future__ import annotations

import functools
import itertools
import os
import sys
import types

from . import genfunc, spectral, transfer, words
from ._args import check_int

OK, CHECK_FAILED, USAGE_ERROR, PRECISION_EXHAUSTED = 0, 1, 2, 3

_FORMATS = ("md", "csv", "jsonl")

# The words that ask for help: `-h`, and `--help` or any prefix of it.
_HELP = ("-h", "--h", "--he", "--hel", "--help")

# Longest row `table` and `check` compute.  At 3^n a row this long holds
# about 10^10 bits of counts, 2.4 GB as decimal text.  Turning a row into
# text takes time growing as n_max^3: 7 s for n_max = 20000 at k = 3 on
# Python 3.11, so about 15 minutes at this limit.
_N_MAX_LIMIT = 10**5

# Most alphabets one `table` or `check` request covers: k-max - k-min + 1
# for `table`, k-max for `check`.  `check` builds both generating functions
# at every k, so its cost grows as k_max^3 or faster: at n-max 2 on Python
# 3.11, 12 s for k-max 400 and 5 minutes at this limit.  `table both` over
# this many alphabets takes about 1 s at n-max 11.
_ALPHABETS_LIMIT = 1000

# Largest alphabet `gf` prints.  Building the generating function and its
# 12 series coefficients takes time growing faster than k^2.5: on Python
# 3.11, `gf sw --k 1000` takes 0.55 s, 2000 takes 3.3 s and 4000 takes 51 s
# for 5.8 MB of text.  At k = 2000 on a slower Xeon core (5.2 s in all),
# 1.3 s went to the build and 2.3 s to the series.
_GF_K_LIMIT = 1000


# Each family's function in each pipeline, by name; "row" takes (k, n_max)
# and returns the counts for n = 0..n_max, "bruteforce" takes (alphabet
# sizes, n_max) and gives that row for each of them in turn, and "gf count"
# takes (n, k) and returns coefficient n of the "gf" generating function.
# `_pipeline` looks the name up on every call, so a patched or wrapped
# module attribute is the one that runs.  Necklaces have no generating
# function to print: their "gf count" is the rotation average of the
# cyclic one.  "row label" is no function: it is the method `table`'s JSONL
# names for the family's "row".
_FAMILIES = {
    "sw": {"exact": "sw_exact", "row": "sw_row", "bruteforce": "sw_rows_bf",
           "trig": "sw_trig", "leading": "sw_asymptotic", "gf": "sw_gf",
           "gf count": "sw_gf_count", "row label": "matrix"},
    "scw": {"exact": "scw_exact", "row": "scw_row",
            "bruteforce": "scw_rows_bf", "trig": "scw_trig",
            "leading": "scw_asymptotic", "gf": "scw_gf",
            "gf count": "scw_gf_count", "row label": "matrix"},
    "sn": {"exact": "necklace_exact", "row": "necklace_row",
           "bruteforce": "necklace_rows_bf", "trig": "sn_trig",
           "gf count": "sn_gf_count", "row label": "burnside"},
}
_MODULES = {"exact": transfer, "row": transfer, "bruteforce": words,
            "trig": spectral, "leading": spectral, "gf": genfunc,
            "gf count": genfunc}


def _pipeline(family: str, stage: str):
    return getattr(_MODULES[stage], _FAMILIES[family][stage])


def _exact(family: str, n: int, k: int) -> int:
    return _pipeline(family, "exact")(n, k)


# Each `count --method`, in the order `--help` lists them, as a reader of
# count n of a family at alphabet k.  "matrix" is another name for "auto",
# the exact engine; `check` compares the "spectral" reader's cells.
_METHODS = {
    "auto": _exact,
    "bruteforce": lambda f, n, k: _pipeline(f, "bruteforce")((k,), n)[0][n],
    "matrix": _exact,
    "gf": lambda f, n, k: _pipeline(f, "gf count")(n, k),
    "spectral": lambda f, n, k: spectral.exact_count(_pipeline(f, "trig"),
                                                     n, k),
}


def _having(stage: str) -> tuple[str, ...]:
    """The families with a function in ``stage``."""
    return tuple(f for f, names in _FAMILIES.items() if stage in names)


def _cmd_count(args: types.SimpleNamespace) -> int:
    print(_METHODS[args.method](args.family, args.n, args.k))
    return OK


def _cmd_table(args: types.SimpleNamespace) -> int:
    family, k_max, n_max, fmt = (args.family, args.k_max, args.n_max,
                                 args.format)
    k_min = (1 if family == "sn" else 3) if args.k_min is None else args.k_min
    check_int("k-min", k_min, 1, k_max)
    check_int("k-max", k_max, k_min, k_min + _ALPHABETS_LIMIT - 1)
    check_int("n-max", n_max, 0, _N_MAX_LIMIT)

    families = ("sw", "scw") if family == "both" else (family,)
    rows = []  # (family, k, counts for n = 0..n_max)
    for k in range(k_min, k_max + 1):
        for fam in families:
            rows.append((fam, k, _pipeline(fam, "row")(k, n_max)))

    # Output goes out a row at a time: no more than one row's text is held.
    ns = range(n_max + 1)
    if fmt == "md":
        print("| n | " + " | ".join(map(str, ns)) + " |")
        print("|" + " --- |" * (n_max + 2))
        for fam, k, counts in rows:
            print(f"| {fam} k={k} | " + " | ".join(map(str, counts)) + " |")
    elif fmt == "csv":
        lead = "{}," if family == "both" else ""  # "both" adds a family column
        print(lead.format("family") + "k," + ",".join(map(str, ns)))
        for fam, k, counts in rows:
            print(lead.format(fam) + f"{k}," + ",".join(map(str, counts)))
    else:
        # One JSON object per cell, spelt as json.dumps spells it: the
        # family, k and method parts are fixed for the whole row.
        for fam, k, counts in rows:
            label = _FAMILIES[fam]["row label"]
            head = f'{{"family": "{fam}", "n": '
            tail = f', "k": {k}, "method": "{label}", "count": "'
            sys.stdout.writelines(f'{head}{n}{tail}{c}"}}\n'
                                  for n, c in enumerate(counts))
    return OK


def _cmd_gf(args: types.SimpleNamespace) -> int:
    check_int("alphabet size", args.k, 1, _GF_K_LIMIT)
    gf = _pipeline(args.family, "gf")(args.k)
    print(gf)
    print(",".join(str(c) for c in genfunc.series_coeffs(gf, 11)))
    return OK


def _cmd_check(args: types.SimpleNamespace) -> int:
    n_max, k_max = args.n_max, args.k_max
    check_int("n-max", n_max, 0, _N_MAX_LIMIT)
    check_int("k-max", k_max, 1, _ALPHABETS_LIMIT)

    comparisons = 0
    mismatches: list[str] = []

    def compare(family, n, k, method, got, want):
        nonlocal comparisons
        comparisons += 1
        if got != want:
            mismatches.append(f"MISMATCH family={family} n={n} k={k} "
                              f"method={method} got={got} want={want}")

    # Brute force covers the lengths `admits` accepts, 0..depth(k).  It is
    # monotone in n and false past the guard's bit length, so each depth is
    # found within a few dozen steps at any n_max.
    depths = {}
    for k in range(1, k_max + 1):
        depth = 0
        while depth < n_max and words.admits(depth + 1, k):
            depth += 1
        depths[k] = depth
    # The depth falls as k grows, so the alphabets of one depth are a run
    # of k, and each oracle reads a whole run from one walk at its largest
    # k, whose depth the guard admitted.
    brute = {}  # (family, k) -> row
    for depth, run in itertools.groupby(depths, depths.get):
        ks = list(run)
        for family in _FAMILIES:
            rows = _pipeline(family, "bruteforce")(ks, depth)
            brute.update(zip([(family, k) for k in ks], rows))

    for k, depth in depths.items():
        series = {family: genfunc.series_coeffs(_pipeline(family, "gf")(k),
                                                n_max)
                  for family in _having("gf")}
        exact = {family: _pipeline(family, "row")(k, n_max)
                 for family in _FAMILIES}
        for n in range(n_max + 1):
            for family in _FAMILIES:
                want = exact[family][n]
                if family in series:
                    compare(family, n, k, "gf", series[family][n], want)
                if n <= depth:
                    compare(family, n, k, "bruteforce", brute[family, k][n],
                            want)
                if spectral.in_validated_window(n, k):
                    try:
                        got = _METHODS["spectral"](family, n, k)
                    except spectral.PrecisionExhausted as exc:
                        got = f"unroundable ({exc})"
                    compare(family, n, k, "spectral", got, want)

    for line in mismatches:
        print(line)
    print(f"{comparisons} cross-checks, {len(mismatches)} mismatches")
    return CHECK_FAILED if mismatches else OK


def _cmd_asymptotics(args: types.SimpleNamespace) -> int:
    family, k, n = args.family, args.k, args.n
    check_int("alphabet size", k, 1)
    if n is None and family != "proportion":
        raise ValueError(f"--n is required for family {family}")
    if n is not None:
        check_int("word length", n, 1)
    if family == "proportion":
        limit = spectral.cyclic_proportion_limit(k)
        print(f"limit {limit!r}")
        if n is not None:
            # Int true division rounds correctly, as float(Fraction) does.
            ratio = _exact("scw", n, k) / _exact("sw", n, k)
            print(f"proportion {ratio!r}")
            print(f"deviation {abs(ratio - limit)!r}")
        return OK

    exact = _exact(family, n, k)
    try:  # lambda_1^n overflows a double at large n; the exact int does not
        estimate = _pipeline(family, "leading")(n, k)
        ratio = estimate / exact
    except OverflowError:
        raise spectral.PrecisionExhausted(
            f"{family} estimate at n={n} k={k} exceeds double range") from None
    print(f"estimate {estimate!r}")
    print(f"exact {exact}")
    print(f"ratio {ratio!r}")
    return OK


@functools.cache  # parsing leaves the grammar as it was; build it once
def _build_parser() -> dict:
    """Each subcommand's help line, its function and its arguments, in the
    order its usage lists them.

    An argument is (name, values, default).  A name that starts with "--"
    is a flag, any other a positional; positionals are filled in order.
    "values" is `int` or the tuple of the words accepted, and a default of
    ... marks an argument that must be given.  A positional and a flag of
    one name set one field, either way but not both.
    """
    table = (("k-min", int, None), ("k-max", int, 7), ("n-max", int, 11),
             ("format", _FORMATS, "md"))
    return {
        "count": ("Print one count as a decimal string.", _cmd_count,
                  ("family", tuple(_FAMILIES), ...), ("--n", int, ...),
                  ("--k", int, ...), ("--method", tuple(_METHODS), "auto")),
        "table": ("Print counts for k = K-MIN..K-MAX (3..7, sn 1..7), n = "
                  "0..N-MAX (11).", _cmd_table,
                  ("family", (*_FAMILIES, "both"), ...), *table,
                  *((f"--{name}", *rest) for name, *rest in table)),
        "gf": ("Print a generating function and its first 12 coefficients.",
               _cmd_gf, ("family", _having("gf"), ...), ("--k", int, ...)),
        "check": ("Cross-check all methods for n = 0..N-MAX (8) and k = "
                  "1..K-MAX (5).", _cmd_check,
                  ("--n-max", int, 8), ("--k-max", int, 5)),
        "asymptotics": ("Compare the leading-term estimate with the exact "
                        "count.", _cmd_asymptotics,
                        ("family", (*_having("leading"), "proportion"), ...),
                        ("--k", int, ...), ("--n", int, None)),
    }


def _usage(command: str) -> str:
    help_line, _, *arguments = _build_parser()[command]
    words = [f"smoothwords {command}"]
    for name, values, default in arguments:
        shown = (name.lstrip("-").upper() if values is int
                 else "{" + ",".join(values) + "}")
        if name.startswith("--"):
            shown = f"{name} {shown}"
        words.append(shown if default is ... else f"[{shown}]")
    return " ".join(words) + f"\n    {help_line}"


def _read(name: str, values, word: str):
    """``word`` as argument ``name`` takes it: an int or one of ``values``."""
    if values is int:
        try:
            return int(word)
        except ValueError:
            raise ValueError(f"argument {name}: invalid int value {word!r}")
    if word not in values:
        raise ValueError(f"argument {name}: invalid choice {word!r} "
                         f"(choose from {', '.join(values)})")
    return word


def _parse(argv: list[str]) -> types.SimpleNamespace | None:
    """The subcommand's function and fields, or None once help is printed.

    Flags may come before, between or after the positionals, as
    ``--flag value`` or ``--flag=value`` and by any unique prefix of their
    name, and the last of a repeated flag wins.  Raises `ValueError`,
    naming the argument, for any argv the grammar does not accept.
    """
    grammar = _build_parser()
    if not argv:
        raise ValueError("argument command is required "
                         f"(choose from {', '.join(grammar)})")
    if argv[0] in _HELP:
        print("usage: smoothwords COMMAND [ARGUMENTS]\n\nExact and spectral "
              "counts of smooth words, smooth cyclic words and smooth\n"
              "necklaces.  Commands:\n\n" + "\n".join(map(_usage, grammar)))
        return None
    _, func, *arguments = grammar[_read("command", tuple(grammar), argv[0])]
    flags = {arg[0]: arg for arg in arguments if arg[0].startswith("--")}
    positionals = [arg for arg in arguments if arg[0] not in flags]
    fields, by_flag = {"func": func}, {}
    words = iter(argv[1:])
    for word in words:
        if word in _HELP:
            print("usage: " + _usage(argv[0]))
            return None
        is_flag = word.startswith("--")
        if is_flag:
            word, has_value, value = word.partition("=")
            names = [word] if word in flags else [  # "--" names no flag
                f for f in flags if word != "--" and f.startswith(word)]
            if len(names) != 1:
                raise ValueError(f"{'ambiguous' if names else 'unknown'} "
                                 f"option {word}; choose from "
                                 f"{', '.join(names or flags)}")
            name, values, _ = flags[names[0]]
            if not has_value and (value := next(words, None)) is None:
                raise ValueError(f"argument {name}: expected a value")
        elif positionals:
            (name, values, _), value = positionals.pop(0), word
        else:
            raise ValueError(f"unrecognized argument {word!r}")
        field = name.lstrip("-")
        if by_flag.setdefault(field, is_flag) != is_flag:
            raise ValueError(f"{field} given both positionally and as a flag")
        fields[field.replace("-", "_")] = _read(name, values, value)
    for name, _, default in arguments:
        field = name.lstrip("-").replace("-", "_")
        if default is ... and field not in fields:
            raise ValueError(f"argument {name} is required")
        fields.setdefault(field, default)
    return types.SimpleNamespace(**fields)


def main(argv: list[str] | None = None) -> int:
    # Counts can run to tens of thousands of digits; lift the interpreter's
    # int-to-str guard (absent before Python 3.10.7) so they print in full.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        status = OK if args is None else args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to the null
        # device, so that the interpreter's final flush cannot raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status, message = USAGE_ERROR, "stdout closed before the output ended"
    except spectral.PrecisionExhausted as exc:
        status, message = PRECISION_EXHAUSTED, str(exc)
    except ValueError as exc:
        status, message = USAGE_ERROR, str(exc)
    except MemoryError:
        status, message = (USAGE_ERROR,
                           f"{argv[0]} request too large to hold in memory")
    except OverflowError:  # e.g. a row of 10**19 entries cannot be indexed
        status, message = USAGE_ERROR, f"{argv[0]} request too large"
    print(f"error: {message}", file=sys.stderr)
    return status


def run() -> None:
    sys.exit(main())
