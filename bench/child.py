"""One pass of a workload in a fresh interpreter.

    python3 bench/child.py PLAN RESULT

PLAN is a JSON file {"ops": [...], "trace_out": path or null}; the ops run
in order, in-process, through `ocs.cli.run`, from the current directory.
RESULT receives the time `ocs.cli` became ready, the times of a fixed
calibration loop (see `calibrate`), the pass time (the sum of the op
latencies), the peak RSS, and per op its latency, exit code, output digest
and check result.  With `trace_out`
set, the calls into each `ocs` module are traced (see tracer.py), the spans
are written there and the per-layer metrics are added to RESULT.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.environ.get("OCS_CACHE"):
    sys.exit("OCS_CACHE must be unset: no result may come from the disk cache")
sys.path.insert(0, os.path.join(ROOT, "src"))
import ocs.cli  # noqa: E402  (the import is what setup time measures)

T_READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def _run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ocs.cli.run(argv)
        except Exception:  # an escaped traceback is a failed op, not a crash
            rc = None
            err.write(traceback.format_exc())
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def _check(op, rc, stdout, stderr, digest, digests):
    """None if the op did what it should, else a one-line reason."""
    if rc != op["rc"]:
        return f"exit {rc}, expected {op['rc']}: {stderr.strip()[-300:]}"
    if op["check"] == "digest":
        want = digests.get(workloads.op_key(op))
        return None if want == digest else f"digest {digest[:12]} != recorded {str(want)[:12]}"
    try:
        if rc != 0:
            kind = json.loads(stderr)["error"]["type"]
            return None if kind == op["check"] else f"error type {kind}, expected {op['check']}"
        return workloads.CHECKS[op["check"]](op, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


CAL_EVERY_S = 0.5


def calibrate() -> float:
    """Seconds for a fixed pure-Python integer loop.  The parent scales the
    run's timings by the median of these samples, taken about every
    CAL_EVERY_S between ops, so that a machine running slower for a while
    does not read as slower code."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200000):
        total += i * i % 7
    return time.perf_counter() - t0


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    trace = None
    if plan.get("trace_out"):
        trace = tracer.Tracer()
        trace.install()
    runs = []
    cal_s = [calibrate()]
    last_cal = time.perf_counter()
    for i, op in enumerate(plan["ops"]):
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            cal_s.append(calibrate())
            last_cal = time.perf_counter()
        if trace is not None:
            trace.op = i
        runs.append(_run_op(workloads.resolve_argv(op)))
    if plan["ops"]:
        cal_s.append(calibrate())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        digests = json.load(fh)
    ops = []
    for op, (seconds, rc, stdout, stderr) in zip(plan["ops"], runs):
        text = stdout
        if op.get("out") and rc == 0:
            with open(op["out"], encoding="utf-8") as fh:
                text += fh.read()
        digest = hashlib.sha256(text.encode()).hexdigest()
        reason = _check(op, rc, stdout, stderr, digest, digests)
        ops.append({"s": seconds, "rc": rc, "digest": digest, "error": reason})
    result = {"t_ready": T_READY, "cal_s": cal_s, "pass_s": sum(r[0] for r in runs),
              "rss_kb": rss_kb, "ops": ops}
    if trace is not None:
        result["layers"] = trace.metrics()
        trace.write(plan["trace_out"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
