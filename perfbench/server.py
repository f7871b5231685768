"""Request server: serves each CLI request in a fresh process state.

The server imports `smoothwords`, builds the CLI parser, reports ready and
then serves requests one at a time.  Each request runs `cli.main(argv)` in
a child forked from the server, which has served nothing, so no
`lru_cache` entry or other state carries over between requests.  The
child's stdout goes to a pipe exactly as the command-line program's would;
its stderr is captured in memory.

The server passes the child's output on in fixed-size chunks and never
holds a whole reply, so its own memory, which every child inherits, does
not grow with the outputs of earlier requests.

Protocol: the client writes one JSON line ``{"argv": [...]}`` per request.
The server first writes the line ``ready``, then for each request

    the child's stdout, as chunks: b"<length>\n" + bytes, ended by b"0\n";
    a JSON message {"stderr": str, "trace": dict | null}, chunked the same;
    a JSON line {"exit": int, "latency_s": float, "maxrss_kb": int}.

``latency_s`` runs from just before the fork until the child's output is
passed on and the child is reaped.  Run as ``python3 server.py [--trace]``
with the package's ``src`` directory on PYTHONPATH; with ``--trace`` the
`tracer` wraps the package's functions before any request is served.
"""
from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback

CHUNK = 1 << 16


def _child(cli, argv: list[str], out_fd: int, msg_fd: int, tracer) -> int:
    """Run one request as ``python -m smoothwords`` would; its exit status."""
    os.dup2(out_fd, 1)
    os.close(out_fd)
    sys.stdout = open(1, "w", encoding="utf-8")
    sys.stderr = io.StringIO()
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except BaseException:  # reported as the interpreter would, then exit 1
        traceback.print_exc()
        status = 1
    if status is None:
        status = 0
    elif not isinstance(status, int):
        print(status, file=sys.stderr)
        status = 1
    try:
        sys.stdout.close()
    except OSError:
        pass
    message = {"stderr": sys.stderr.getvalue(),
               "trace": tracer.snapshot() if tracer else None}
    with io.FileIO(msg_fd, "w") as msg:
        msg.write(json.dumps(message).encode())
    return status & 0xFF


def _write(data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(1, view):]


def _relay(fd: int) -> None:
    """Pass everything readable from ``fd`` on to the client, chunked."""
    while chunk := os.read(fd, CHUNK):
        _write(b"%d\n" % len(chunk))
        _write(chunk)
    _write(b"0\n")
    os.close(fd)


def serve(cli, argv: list[str], tracer) -> None:
    out_r, out_w = os.pipe()
    msg_r, msg_w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # the child never returns to the server loop
        status = 1
        try:
            os.close(out_r)
            os.close(msg_r)
            status = _child(cli, argv, out_w, msg_w, tracer)
        finally:
            os._exit(status)
    os.close(out_w)
    os.close(msg_w)
    _relay(out_r)
    _relay(msg_r)
    _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - start
    _write(json.dumps({"exit": os.waitstatus_to_exitcode(status),
                       "latency_s": latency,
                       "maxrss_kb": usage.ru_maxrss}).encode() + b"\n")


def main() -> None:
    from smoothwords import cli
    cli._build_parser()
    _write(b"ready\n")
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    for line in sys.stdin:
        serve(cli, json.loads(line)["argv"], tracer)


if __name__ == "__main__":
    main()
