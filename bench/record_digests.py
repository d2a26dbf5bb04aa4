"""Record the output digests that the benchmark compares ops against.

    python3 bench/record_digests.py

Runs one pass of every workload and writes bench/digests.json: for each op
whose output carries no invariant of its own (check "digest"), the sha256
of its stdout plus the file it wrote.  Record only from a commit whose
outputs are trusted; a later change that alters an output must justify
re-recording it.
"""

import json
import shutil
import time

import run
import workloads


def main() -> None:
    path = run.BENCH / "digests.json"
    if not path.exists():
        path.write_text("{}\n")
    digests = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.plan(workload, 0)
        work = run.WORK / "record"
        res, _ = run.run_child(ops, work, time.monotonic() + 600)
        shutil.rmtree(work)
        for op, rec in zip(ops, res["ops"]):
            if op["check"] != "digest":
                continue
            if rec["rc"] != op["rc"]:
                raise SystemExit(f"{workloads.op_key(op)} exited {rec['rc']}")
            digests[workloads.op_key(op)] = rec["digest"]
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {path}")


if __name__ == "__main__":
    main()
