"""End-to-end and per-layer benchmark of the smoothwords command line.

    python3 perfbench/run.py --workload table-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload count-deep --seed 1 --print-requests
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run builds the workload's request list from the seed, computes every
expected output with the independent `oracle`, measures set-up time (plain
runs only), then sends the list to a `server` again and again, one request
at a time (one client, closed loop), for about ``--seconds`` seconds.  Each
request runs in a child forked from a server that has imported the package
and served nothing; each pass over the list has a server of its own.
Every output is judged outside the timed region.

With ``--trace 0`` it reports the end-to-end metrics:

* ``wall_s``      -- seconds to serve the whole list: the sum over requests
                     of each request's median latency across passes;
* ``req_p50_ms``  -- median request latency over all samples;
* ``peak_rss_mb`` -- peak resident memory of a serving process, the median
                     over passes of the largest in the pass;
* ``setup_s``     -- median time for a fresh interpreter to import the
                     package and build the CLI parser, kept out of latency.

In the result line ``correct`` is false if any output was wrong, and
``failed`` counts wrong outputs plus error exits where an answer was owed,
so the failure share is ``failed / attempted``.  With ``--trace 1`` it
alternates plain and traced passes and reports per-layer self times and
counts from the traced passes, plus the tracing overhead; spans go to
``perfbench/out/``.  The last line of stdout is the JSON result; the lines
before it are a readable report.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
MIN_PASSES = 3          # per kind of pass (plain, traced)
LAYERS = ("cli", "transfer", "genfunc", "chebyshev", "spectral", "words")

# Per-layer self-time metrics: (metric, traced functions whose self times
# it sums).  CALLS: traced functions whose call counts are reported.
SELF_TIME = (
    ("transfer.matrix_power.self_s", ("transfer.matrix_power",)),
    ("transfer.matrix_power_apply.self_s", ("transfer.matrix_power_apply",)),
    ("transfer.necklace_exact.self_s", ("transfer.necklace_exact",)),
    ("genfunc.series_coeffs.self_s", ("genfunc.series_coeffs",)),
    ("genfunc.gf_build.self_s", ("genfunc.sw_gf", "genfunc.scw_gf")),
    ("chebyshev.theta_poly.self_s", ("chebyshev.theta_poly",)),
    ("words.count_necklaces_bf.self_s", ("words.count_necklaces_bf",)),
    ("words.canonical_rotation.self_s", ("words.canonical_rotation",)),
    ("words.count_bf.self_s", ("words.count_smooth_bf", "words.count_cyclic_bf")),
    ("spectral.trig.self_s", ("spectral.sw_trig", "spectral.scw_trig",
                              "spectral.sn_trig")),
)
CALLS = (
    "transfer.matrix_power", "transfer.matrix_power_apply",
    "transfer.scw_exact", "transfer.sw_exact", "genfunc.series_coeffs",
    "chebyshev.theta_poly", "words.canonical_rotation",
)


class Server:
    """A running `server.py` process and the client end of its protocol."""

    def __init__(self, trace: bool = False):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = [sys.executable, str(HERE / "server.py")]
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv + (["--trace"] if trace else []),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env,
                                     cwd=ROOT)
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not ready:
            self.close()
            raise RuntimeError("server exited before it was ready")

    def request(self, argv) -> dict:
        """Serve one request; the reply's fields are described in server.py."""
        self.proc.stdin.write(json.dumps({"argv": list(argv)}).encode() + b"\n")
        self.proc.stdin.flush()
        stdout, message = self._chunked(), self._chunked()
        # A child that died before writing its message left it empty.
        reply = json.loads(message) if message else {"stderr": "",
                                                      "trace": None}
        reply.update(json.loads(self._line()))
        reply["stdout"] = stdout.decode("utf-8", "replace")
        return reply

    def _line(self) -> bytes:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited while serving a request")
        return line

    def _chunked(self) -> bytes:
        parts = []
        while size := int(self._line()):
            parts.append(self.proc.stdout.read(size))
        return b"".join(parts)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Fresh-interpreter start, import and parser build, ``samples`` times
    after one untimed start that leaves byte-code caches written."""
    with Server():
        pass
    times = []
    for _ in range(samples):
        with Server() as server:
            times.append(server.setup_s)
    return times


class Run:
    """The outcome of serving one workload's request list repeatedly."""

    def __init__(self, requests, oracle):
        self.requests = requests
        self.oracle = oracle
        self.passes: dict[bool, list[list[dict]]] = {False: [], True: []}
        self.outcomes = {"ok": 0, "failed": 0, "wrong": 0}
        self.examples: list[str] = []

    def serve_pass(self, server: Server, traced: bool) -> float:
        replies = []
        for req in self.requests:
            reply = server.request(req.argv)
            # Judged after the reply is complete: outside the timed region.
            verdict = self.oracle.judge(req, reply["exit"], reply["stdout"])
            self.outcomes[verdict] += 1
            if verdict != "ok" and len(self.examples) < 5:
                self.examples.append(f"{verdict}: {req.shell()} -> exit "
                                     f"{reply['exit']}: "
                                     f"{reply['stderr'].strip()[:160]}")
            reply["output_bytes"] = len(reply.pop("stdout").encode())
            replies.append(reply)
        self.passes[traced].append(replies)
        return sum(r["latency_s"] for r in replies)

    def latencies(self, traced: bool) -> list[list[float]]:
        """Per request, its latency in each pass."""
        return [[p[i]["latency_s"] for p in self.passes[traced]]
                for i in range(len(self.requests))]

    def wall_s(self, traced: bool = False) -> float:
        return sum(statistics.median(ls) for ls in self.latencies(traced))


def serve(requests, oracle, seconds: float, trace: bool) -> Run:
    """Serve the list in passes until ``seconds`` would be exceeded.

    Each pass gets a server process of its own: the speed of CPython code
    shifts by several percent with a process's memory layout, and every
    child inherits its server's, so the median over passes also spans
    layouts.  With ``trace`` plain and traced passes alternate.
    """
    run = Run(requests, oracle)
    kinds = [False, True] if trace else [False]
    start = time.perf_counter()
    longest = 0.0
    while True:
        for kind in kinds:
            with Server(trace=kind) as server:
                longest = max(longest, run.serve_pass(server, kind))
        done = min(len(run.passes[k]) for k in kinds)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed + longest * len(kinds) > seconds:
            return run


def end_to_end(run: Run, setup: list[float]) -> dict:
    samples = [x for ls in run.latencies(False) for x in ls]
    rss = [max(r["maxrss_kb"] for r in p) / 1024 for p in run.passes[False]]
    return {
        "wall_s": (run.wall_s(), "s", len(run.passes[False])),
        "req_p50_ms": (statistics.median(samples) * 1e3, "ms", len(samples)),
        "peak_rss_mb": (statistics.median(rss), "MiB", len(rss)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def per_layer(run: Run) -> dict:
    traced = run.passes[True]

    def per_pass(value_of) -> float:
        return statistics.median(sum(value_of(r) for r in p) for p in traced)

    def self_s(names):
        return per_pass(lambda r: sum(r["trace"]["stats"].get(n, [0, 0, 0])[2]
                                      for n in names))

    def module_self(layer):
        return per_pass(lambda r: module_self_of(r, layer))

    plain_wall, traced_wall = run.wall_s(False), run.wall_s(True)
    metrics = {name: (self_s(names), "s", len(traced))
               for name, names in SELF_TIME}
    for name in CALLS:
        metrics[f"{name}.calls"] = (per_pass(
            lambda r: r["trace"]["stats"].get(name, [0])[0]), "count",
            len(traced))
    metrics["chebyshev.theta_poly.builds"] = (per_pass(
        lambda r: r["trace"]["builds"].get("chebyshev.theta_poly", 0)),
        "count", len(traced))
    spectral = [r for p in traced for req, r in zip(run.requests, p)
                if req.method == "spectral"]
    refused = sum(r["exit"] == 3 for r in spectral)
    metrics["spectral.refused_frac"] = (refused / len(spectral)
                                        if spectral else 0.0, "ratio",
                                        len(spectral))
    metrics["cli.output_bytes"] = (per_pass(lambda r: r["output_bytes"]),
                                   "bytes", len(traced))
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (module_self(layer), "s", len(traced))
    metrics["traced_wall_s"] = (traced_wall, "s", len(traced))
    metrics["attributed_frac"] = (statistics.median(
        sum(module_self_of(r, layer) for r in p for layer in LAYERS)
        / sum(r["latency_s"] for r in p) for p in traced), "ratio", len(traced))
    metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1, "ratio",
                                      len(traced))
    return metrics


def module_self_of(reply: dict, layer: str) -> float:
    return sum(s[2] for name, s in reply["trace"]["stats"].items()
               if name.split(".")[0] == layer)


def write_spans(run: Run, workload: str, seed: int) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as f:
        for pass_no, replies in enumerate(run.passes[True]):
            for req_no, reply in enumerate(replies):
                for sid, parent, name, start, end in reply["trace"]["spans"]:
                    f.write(json.dumps({"pass": pass_no, "request": req_no,
                                        "span": sid, "parent": parent,
                                        "name": name, "start": start,
                                        "end": end}) + "\n")
    return path


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              tiny: bool = False) -> dict:
    """Run one workload; print the report and return the result object."""
    from oracle import Oracle

    requests = workloads.generate(workload, seed, tiny=tiny)
    oracle = Oracle()
    over_limit = sum(oracle.over_print_limit(req) for req in requests)
    for req in requests:
        oracle.expected(req)   # computed now, before anything is timed
    setup = None if trace else measure_setup(3 if tiny else SETUP_SAMPLES)
    run = serve(requests, oracle, seconds, trace)

    attempted = sum(run.outcomes.values())
    failed = run.outcomes["failed"] + run.outcomes["wrong"]
    print(f"workload {workload} seed {seed}: {len(requests)} requests; "
          f"{workloads.WHY[workload]}")
    print(f"fail_frac {failed / attempted:.4f} ratio ({failed} of {attempted} "
          f"requests; wrong answers {run.outcomes['wrong']}; answers over the "
          f"4300-digit print limit {over_limit} of {len(requests)} per pass)")
    for line in run.examples:
        print("  " + line)
    if trace:
        metrics = per_layer(run)
        print(f"spans written to {write_spans(run, workload, seed)}")
    else:
        metrics = end_to_end(run, setup)
    for name, (value, unit, count) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({count} samples)")
    return {"correct": run.outcomes["wrong"] == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-requests", action="store_true",
                        help="print the workload's requests as replayable "
                             "command lines and exit")
    args = parser.parse_args(argv)
    if not (SRC / "smoothwords" / "__init__.py").is_file():
        print(f"error: no smoothwords package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = sorted(workloads.WHY) if args.workload == "all" else [args.workload]
    if args.print_requests:
        for name in names:
            print(f"# {name}: {workloads.WHY[name]}")
            for req in workloads.generate(name, args.seed):
                print(req.shell())
        return 0
    for name in names:
        result = benchmark(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
