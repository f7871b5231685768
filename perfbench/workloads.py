"""Seeded request lists for the three benchmark workloads.

Each workload is a fixed list of strata.  A stratum pins the shape that
sets a request's cost (family, method, alphabet size, order of n); the
seed draws the rest: n, k or n-max within 1 to 2%, output format,
argument spelling and request order.  Different seeds therefore give
different argv lists of nearly the same total cost, so run-to-run spread
measures the program rather than the draw.

A request is a `Request`: the argv the program sees plus the parsed
fields the oracle needs.  ``tiny=True`` shrinks every workload to a few
cheap requests for the benchmark's self-test.
"""
from __future__ import annotations

import dataclasses
import random
import shlex

WHY = {
    "table-grid": "table computes one exact count per cell, so nearly all "
                  "its time is in transfer and grows with n_max^2; the "
                  "row-at-a-time engine should move it.",
    "check-sweep": "check spends about 99% of its time in the words "
                   "brute-force oracles; a cheaper oracle moves it and a "
                   "transfer engine change should not.",
    "count-deep": "single deep counts across all five methods use transfer "
                  "as one deep power rather than many shallow ones and give "
                  "genfunc and chebyshev real weight; sw and scw lengths "
                  "cross the 4300-digit print limit, a known defect that "
                  "shows as failed requests.",
}

FORMATS = ("md", "csv", "jsonl")


@dataclasses.dataclass(frozen=True)
class Request:
    kind: str               # "count", "table" or "check"
    argv: tuple[str, ...]
    family: str = ""
    method: str = ""        # count requests only
    n: int = 0              # count: length; table, check: n-max
    k: int = 0              # count: alphabet size; check: k-max
    k_min: int = 0          # table only
    k_max: int = 0          # table only
    fmt: str = ""           # table only

    def shell(self) -> str:
        """The request as a command line that reruns it on its own."""
        return "python -m smoothwords " + shlex.join(self.argv)


def _jitter(rng: random.Random, centre: int, share: float = 0.02) -> int:
    spread = max(1, round(centre * share))
    return centre + rng.randint(-spread, spread)


def _table(rng: random.Random, family: str, k_min: int, k_max: int,
           n_max: int) -> Request:
    fmt = rng.choice(FORMATS)
    if rng.random() < 0.5:
        argv = ("table", family, str(k_min), str(k_max), str(n_max), fmt)
    else:
        argv = ("table", family, "--k-min", str(k_min), "--k-max", str(k_max),
                "--n-max", str(n_max), "--format", fmt)
    return Request("table", argv, family=family, n=n_max, k_min=k_min,
                   k_max=k_max, fmt=fmt)


def _check(rng: random.Random, n_max: int, k_max: int) -> Request:
    flags = [("--n-max", str(n_max)), ("--k-max", str(k_max))]
    rng.shuffle(flags)
    argv = ("check",) + tuple(part for flag in flags for part in flag)
    return Request("check", argv, n=n_max, k=k_max)


def _count(rng: random.Random, family: str, n: int, k: int,
           method: str) -> Request:
    argv = ["count", family, "--n", str(n), "--k", str(k)]
    if method != "auto" or rng.random() < 0.5:
        argv += ["--method", method]
    return Request("count", tuple(argv), family=family, method=method, n=n,
                   k=k)


# (family, k_min, k_max, n_max centre); one table request each.  With nine
# requests the median latency is the fifth by cost, the sw 24..30 table,
# which sits well apart from its neighbours, so it does not hop between
# strata from one seed to the next.
_TABLE_STRATA = (
    ("sw", 2, 6, 400), ("sw", 24, 30, 300),
    ("scw", 3, 8, 300), ("scw", 22, 26, 150),
    ("sn", 1, 8, 200), ("sn", 26, 30, 60),
    ("both", 4, 10, 250), ("both", 27, 30, 100),
    ("scw", 28, 30, 120),
)

# Each stratum lists (n-max, k-max) pairs of nearly equal cost for the
# brute-force oracles; the seed picks one pair per stratum.  The middle
# request by cost is always from the (10, 7) / (11, 5) stratum, whose pairs
# differ by 1%, so the median latency does not depend on the draw; the
# costliest stratum has one pair, which fixes the peak memory.
_CHECK_STRATA = (
    ((10, 6), (11, 4)),
    ((10, 7), (11, 5)),
    ((10, 7), (11, 5)),
    ((10, 8), (12, 4)),
    ((11, 7),),
)

# (family, method, k, n, which of n and k the seed moves).  With the nine
# spectral and one brute-force request the list has 27 requests; the 14th by
# cost, the median, is the sw k=4 n~8000 stratum, well apart from its
# neighbours.  Matrix-power strata move k: their cost jumps with the binary
# digits of n and, for necklaces, with its divisors, but is smooth in k.
# The sw and scw lengths with k <= 4 sit on both sides of the 4300-digit
# print limit, each well clear of the line so that jitter never moves a
# request across it.
_COUNT_STRATA = (
    ("scw", "auto", 200, 48, "k"), ("sn", "auto", 160, 36, "k"),
    ("scw", "matrix", 120, 150, "k"), ("sn", "matrix", 80, 120, "k"),
    ("scw", "auto", 50, 800, "k"), ("sn", "auto", 30, 600, "k"),
    ("scw", "gf", 300, 1500, "n"), ("sw", "gf", 250, 2500, "n"),
    ("scw", "gf", 120, 4000, "n"), ("sw", "gf", 40, 6000, "n"),
    ("sw", "auto", 2, 2000, "n"), ("sw", "auto", 3, 5000, "n"),
    ("sw", "matrix", 4, 8000, "n"), ("sw", "auto", 3, 12500, "n"),
    ("sw", "auto", 2, 17000, "n"), ("sw", "matrix", 4, 20000, "n"),
    ("scw", "auto", 3, 15000, "n"),
)
_SPECTRAL_INSIDE = 5    # spectral requests with n <= 25 and k <= 10
_SPECTRAL_OUTSIDE = 4   # spectral requests with n in 26..40 or k in 11..20


def _table_grid(rng: random.Random, tiny: bool) -> list[Request]:
    if tiny:
        return [_table(rng, fam, 1, 3, _jitter(rng, 12, 0.1))
                for fam in ("sw", "scw", "sn", "both")]
    return [_table(rng, fam, k_min, k_max, _jitter(rng, n_max, 0.01))
            for fam, k_min, k_max, n_max in _TABLE_STRATA]


def _check_sweep(rng: random.Random, tiny: bool) -> list[Request]:
    if tiny:
        return [_check(rng, rng.randint(3, 5), rng.randint(2, 3))]
    return [_check(rng, *rng.choice(pairs)) for pairs in _CHECK_STRATA]


def _spectral(rng: random.Random, inside: bool) -> Request:
    family = rng.choice(("sw", "scw", "sn"))
    if inside:
        n, k = rng.randint(1, 25), rng.randint(1, 10)
    elif rng.random() < 0.5:
        n, k = rng.randint(26, 40), rng.randint(1, 20)
    else:
        n, k = rng.randint(1, 40), rng.randint(11, 20)
    return _count(rng, family, n, k, "spectral")


def _count_deep(rng: random.Random, tiny: bool) -> list[Request]:
    if tiny:
        return [_count(rng, "scw", 40, 12, "auto"),
                _count(rng, "sw", 60, 7, "gf"),
                _count(rng, "sw", 12000, 3, "auto"),
                _spectral(rng, True), _spectral(rng, False),
                _count(rng, "sn", 6, 3, "bruteforce")]
    out = [_count(rng, fam, _jitter(rng, n) if moved == "n" else n,
                  _jitter(rng, k, 0.01) if moved == "k" else k, method)
           for fam, method, k, n, moved in _COUNT_STRATA]
    out += [_spectral(rng, True) for _ in range(_SPECTRAL_INSIDE)]
    out += [_spectral(rng, False) for _ in range(_SPECTRAL_OUTSIDE)]
    out.append(_count(rng, rng.choice(("sw", "scw", "sn")),
                      rng.randint(6, 8), 3, "bruteforce"))
    return out


_GENERATORS = {"table-grid": _table_grid, "check-sweep": _check_sweep,
               "count-deep": _count_deep}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Request]:
    """The workload's request list for ``seed``, in serving order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(_GENERATORS)}")
    rng = random.Random(f"{workload}/{seed}")
    requests = _GENERATORS[workload](rng, tiny)
    rng.shuffle(requests)
    return requests
