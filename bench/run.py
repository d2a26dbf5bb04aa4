"""Benchmark of the `ocs` command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `ocs` is imported from its `src/`.  One
parent starts fresh interpreters one after another (bench/child.py), each
running one pass over the workload's ops in-process through `ocs.cli.run`,
so every pass starts with cold module-level memos, as a command-line user
does.  `OCS_CACHE` and the caller's PYTHON* variables are removed from the
children's environment and `PYTHONHASHSEED` is fixed.  Passes are started
while the next one, at the median pass time so far, is expected to end
within S seconds; at least one pass (one untraced and one traced with
--trace 1) always runs.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end ones: the median pass time, the slowest op at its median
latency over the passes, the median set-up time (child start until
`ocs.cli` is imported) over all children, the SETUP_PROBES interpreters
that only import `ocs.cli` included, and the median peak RSS.  With --trace 1 untraced and traced passes alternate, and
the metrics are the per-layer ones of tracer.py (times: median over traced
passes; counts: equal on every traced pass) plus the tracing overhead,
traced minus untraced pass time.  Times are scaled to a reference machine
speed; see CAL_REF_S.  Every op's output is checked; `correct` is false
when an op printed a wrong result or when outputs differ between passes,
traced or not.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
HARD_LIMIT_S = 170.0  # every run must end well within 180 s
# Seconds child.calibrate() takes on the reference machine (a 2-core Xeon
# VM, Python 3.11.7, in a quiet period).  A shared machine's speed drifts,
# by up to 2x over minutes, and the drift moves the calibration loop and
# `ocs` in the same direction, so every time a run reports is its measured
# median times CAL_REF_S / (median of the calibration samples its children
# took, spread over the run): seconds at the reference speed.  The unscaled
# values are printed alongside.
CAL_REF_S = 0.013


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    """The caller's environment without OCS_CACHE and without its PYTHON*
    settings, which change what is measured (PYTHONDONTWRITEBYTECODE alone
    doubles the import time), plus a fixed hash seed.  Bytecode is cached
    in the checkout, as for an installed command."""
    env = {k: v for k, v in os.environ.items()
           if k != "OCS_CACHE" and not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(ops: list[dict], work: Path, deadline: float, trace_out: Path | None = None):
    """Run one pass in a fresh interpreter; returns (result, setup seconds)
    with the setup seconds unscaled."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    plan, result = work / "plan.json", work / "result.json"
    plan.write_text(json.dumps({"ops": ops, "trace_out": str(trace_out) if trace_out else None}))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(plan), str(result)],
        cwd=work, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran past the time limit")
    finally:
        if proc.poll() is None:  # timed out, or the parent is being stopped
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(result.read_text())
    return res, res["t_ready"] - t_spawn


def measure(workload: str, ops: list[dict], seconds: float, trace: bool) -> dict:
    """Run passes for about `seconds`; returns the result object."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{os.getpid()}"
    passes = {False: [], True: []}
    rounds = []  # wall seconds of each round: one pass, or an untraced and a traced one
    kinds = [False, True] if trace else [False]
    try:
        children = [run_child([], work, deadline) for _ in range(SETUP_PROBES)]
        while True:
            t0 = time.monotonic()
            for traced in kinds:
                trace_out = WORK / f"{workload}.trace.jsonl" if traced else None
                res, setup = run_child(ops, work, deadline, trace_out)
                children.append((res, setup))
                passes[traced].append(res)
            rounds.append(time.monotonic() - t0)
            if time.monotonic() - start + median(rounds) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(ops, passes, children, trace)


def summarize(ops, passes, children, trace) -> dict:
    """`children`: (result, unscaled setup seconds) of every child the run
    started, set-up probes included."""
    all_passes = passes[False] + passes[True]
    attempted = failed = 0
    correct = True
    problems = []
    for res in all_passes:
        for op, rec in zip(ops, res["ops"]):
            attempted += 1
            if rec["error"] is not None:
                failed += 1
                # A wrong answer, as opposed to a refusal or crash, is incorrect.
                if rec["rc"] == op["rc"]:
                    correct = False
                problems.append(f"{workloads.op_key(op)}: {rec['error']}")
    # The same op must print the same thing on every pass, traced or not.
    for i, op in enumerate(ops):
        if len({res["ops"][i]["digest"] for res in all_passes}) != 1:
            correct = False
            problems.append(f"{workloads.op_key(op)}: output differs between passes")
    plain = passes[False]
    scale = CAL_REF_S / median([c for r, _ in children for c in r["cal_s"]])
    run_s = median([r["pass_s"] for r in plain]) * scale
    if not trace:
        op_s = [median([r["ops"][i]["s"] for r in plain]) for i in range(len(ops))]
        metrics = {
            "run_s": (run_s, "s"),
            "max_op_s": (max(op_s) * scale, "s"),
            "setup_s": (median([setup for _, setup in children]) * scale, "s"),
            "peak_rss_mb": (median([r["rss_kb"] * 1024 / 1e6 for r in plain]), "MB"),
        }
    else:
        traced = passes[True]
        metrics = {}
        for name, unit in tracer.METRICS.items():
            if unit == "s":
                value = median([r["layers"][name] for r in traced]) * scale
            else:
                values = [r["layers"][name] for r in traced]
                if len(set(values)) != 1:
                    correct = False
                    problems.append(f"{name} differs between traced passes: {values}")
                value = values[0]
            metrics[name] = (value, unit)
        overhead = median([r["pass_s"] for r in traced]) * scale - run_s
        metrics["trace.overhead_s"] = (overhead, "s")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled": {
            "untraced pass seconds": [r["pass_s"] for r in plain],
            "traced pass seconds": [r["pass_s"] for r in passes[True]],
            "set-up seconds": [setup for _, setup in children],
            "calibration seconds": [c for r, _ in children for c in r["cal_s"]],
        },
        "problems": sorted(set(problems)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # Stopping the parent stops the child it is waiting on (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "ocs" / "cli.py").is_file():
        print(f"no ocs sources under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    ops = workloads.plan(args.workload, args.seed)
    try:
        result = measure(args.workload, ops, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    unscaled = result.pop("unscaled")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(unscaled['untraced pass seconds'])} untraced and "
          f"{len(unscaled['traced pass seconds'])} traced passes, "
          f"{len(unscaled['set-up seconds'])} set-up samples (unscaled values below)")
    for kind, values in unscaled.items():
        if values:
            print(f"  {kind}: " + " ".join(f"{v:.4g}" for v in values))
    for problem in result.pop("problems"):
        print(f"  op problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
