"""pmlog benchmark: closed-loop passes over a fixed, seeded invocation list.

Usage (from the repository root):

    python3 perfbench/run.py --workload {interp,series,scan} --seed N \
        --seconds S --trace {0,1} [--out results.jsonl]

Load model: one client, closed loop.  A pass runs the workload's invocation
list through ``pmlog.cli.main`` in order, inside a fresh interpreter, so
import-time work is paid on every pass as it is on every ``pmlog`` run.
Passes run one at a time until S seconds have gone by (and at least
MIN_PASSES have run).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is the result object; the line before it
is the full record (seed, git SHA, Python, nproc, load average, samples),
which --out also appends to a file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# pass_s.tail is the highest percentile with at least ten passes above it.
TAIL_BEYOND = 10
MIN_PASSES = TAIL_BEYOND + 1
# Two traced passes at least, so call counts can be checked to repeat.
MIN_TRACED = 2
PASS_TIMEOUT_S = 100


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(argvs: list[list[str]], traced: bool) -> dict:
    """Run one pass in a fresh interpreter, check its outputs, return its record."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), str(SRC), "1" if traced else "0"]
    try:
        proc = subprocess.run(
            cmd,
            input=json.dumps(argvs).encode(),
            capture_output=True,
            timeout=PASS_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    # See worker.py for the stream format.
    stream, pos, calls = proc.stdout, 0, []
    for argv in argvs:
        end = stream.index(b"\n", pos)
        header = json.loads(stream[pos:end])
        data = stream[end + 1 : end + 1 + header["bytes"]]
        pos = end + 1 + header["bytes"]
        calls.append(
            {
                "failure": header["error"] or checks.check(argv, header["code"], data.decode()),
                "stdout_sha256": hashlib.sha256(data).hexdigest(),
                "stdout_bytes": len(data),
            }
        )
    record = json.loads(stream[pos:])
    record["calls"] = calls
    return record


def run_passes(argvs, seconds: float, minimum: int, traced_too: bool):
    """Closed loop until ``seconds`` have passed and ``minimum`` passes ran.

    Returns (untraced passes, traced passes); with ``traced_too`` every
    untraced pass is followed by a traced one.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < minimum or time.perf_counter() < deadline:
        plain.append(run_worker(argvs, False))
        if traced_too:
            traced.append(run_worker(argvs, True))
    return plain, traced


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(passes: list[dict]) -> tuple[dict[str, float], dict]:
    pass_s = [p["pass_s"] for p in passes]
    tail_s, tail_pct = tail(pass_s)
    rss_mb = [p["peak_rss_kb"] / 1024 for p in passes]
    values = {
        "pass_s.tail": tail_s,
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(rss_mb),
    }
    # The median pass is recorded but not a gated metric: on a host whose
    # speed shifts between phases it flips between them (see README.md).
    extra = {
        "pass_s.p50": statistics.median(pass_s),
        "tail_percentile": tail_pct,
        "samples": {"pass_s": pass_s, "peak_rss_mb": rss_mb},
    }
    return values, extra


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics plus the problems that make the traced run wrong:
    counts that do not repeat across traced passes."""
    problems = []
    values: dict[str, float] = {}
    for key, first in traced[0]["layers"].items():
        if key.endswith(".self_s"):
            values[key] = statistics.median(t["layers"][key] for t in traced)
            continue
        if any(t["layers"][key] != first for t in traced):
            problems.append(f"{key} differs between traced passes")
        values[key] = first
    stdout_bytes = [sum(c["stdout_bytes"] for c in t["calls"]) for t in traced]
    if len(set(stdout_bytes)) != 1:
        problems.append("cli.stdout_bytes differs between traced passes")
    values["cli.stdout_bytes"] = stdout_bytes[0]
    values["trace.overhead_s"] = statistics.median(t["pass_s"] for t in traced) - statistics.median(
        p["pass_s"] for p in plain
    )
    return values, problems


def count_failures(argvs, passes: list[dict], reference: dict) -> tuple[int, list[str]]:
    """Failed invocations over all passes.  An invocation fails when it raised,
    exited non-zero or failed its check, or when its stdout differs from the
    first untraced pass (runs and tracing must not change the output)."""
    failed, reasons = 0, []
    for record in passes:
        for argv, call, ref in zip(argvs, record["calls"], reference["calls"]):
            reason = call["failure"]
            if reason is None and call["stdout_sha256"] != ref["stdout_sha256"]:
                reason = "stdout differs from the first untraced pass"
            if reason is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{' '.join(argv)}: {reason}")
    return failed, reasons


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} is missing at the repository root")
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    if not (SRC / "pmlog" / "cli.py").is_file():
        raise BenchError(f"no pmlog sources under {SRC}; run from a full checkout")
    spec = load_spec()
    argvs = workloads.invocations(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_unix": time.time(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "invocations": len(argvs),
    }
    # Warm-up, not measured: byte-compiles pmlog once per checkout, as an
    # install would, and pages in the interpreter.
    run_worker([], False)

    if args.trace == 0:
        plain, traced = run_passes(argvs, args.seconds, MIN_PASSES, traced_too=False)
        values, extra = end_to_end(plain)
        problems = []
        record.update(extra)
        wanted = spec["end_to_end"]
    else:
        plain, traced = run_passes(argvs, args.seconds, MIN_TRACED, traced_too=True)
        values, problems = per_layer(plain, traced)
        record["untraced"] = sorted({name for t in traced for name in t["untraced"]})
        wanted = spec["per_layer"]
    failed, reasons = count_failures(argvs, plain + traced, plain[0])
    attempted = len(argvs) * len(plain + traced)

    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise BenchError(f"computed metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record.update(
        passes=len(plain),
        traced_passes=len(traced),
        loadavg_end=os.getloadavg(),
        failed_ratio=failed / attempted,
        failures=reasons,
        problems=problems,
        **result,
    )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    for m in wanted:
        print(f"{args.workload:>7} {m['name']:<40} {values[m['name']]:.6g} {m['unit']}", file=sys.stderr)
    for reason in reasons + problems:
        print(f"FAILED: {reason}", file=sys.stderr)
    for name in record.get("untraced", ()):
        print(f"warning: pmlog has no {name}; its per-layer metrics read 0", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
