"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: python3 -I perfbench/worker.py SRC_DIR TRACE < invocations.json

Times the import of ``pmlog.cli`` plus one ``build_parser()`` (set-up), then
each of the workload's ``cli.main`` calls in order; the pass time is the sum
of the call times.  With TRACE=1 the per-layer tracer is installed between
set-up and the first call and removed after the last.

Everything a call prints is captured and streamed to standard output right
after the call, outside its timed interval, so the interpreter's peak memory
is the program's and not the benchmark's.  The stream is, per call, a JSON
header line ``{"code", "error", "bytes"}`` followed by that many bytes of the
call's stdout, then one JSON summary line holding ``pass_s``.
"""

import sys
import time


def peak_rss_kb():
    """This interpreter's peak resident set size (VmHWM), in KiB.

    Not ru_maxrss: Linux carries the spawning process's peak RSS into
    ru_maxrss across exec, so it would report the benchmark's launcher
    whenever that is the larger of the two.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main():
    src, traced = sys.argv[1], sys.argv[2] == "1"
    request = sys.stdin.buffer.read()
    sys.path.insert(0, src)

    # Import nothing pmlog.cli imports before this point, so set-up time
    # includes all of its imports.
    start = time.perf_counter()
    from pmlog import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    import contextlib
    import io
    import json
    import os

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import layertrace

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"pmlog was imported from {cli.__file__}, not from {src}")
    argvs = json.loads(request)
    stream = sys.stdout.buffer
    tracer = layertrace.Tracer() if traced else None
    patches, untraced = layertrace.install(tracer) if tracer else (None, [])
    pass_s = 0.0
    for argv in argvs:
        out = io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            started = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # any raise is a failed invocation
                error = f"{type(exc).__name__}: {exc}"
            pass_s += time.perf_counter() - started
        data = out.getvalue().encode()
        del out
        stream.write(json.dumps({"code": code, "error": error, "bytes": len(data)}).encode() + b"\n")
        stream.write(data)
        del data
    if patches is not None:
        layertrace.restore(patches)
    summary = {"setup_s": setup_s, "pass_s": pass_s, "peak_rss_kb": peak_rss_kb()}
    if tracer:
        summary["layers"] = layertrace.metrics(tracer)
        summary["untraced"] = untraced
    stream.write(json.dumps(summary).encode() + b"\n")


if __name__ == "__main__":
    main()
