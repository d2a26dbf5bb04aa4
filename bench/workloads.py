"""The benchmark's workloads: which `ocs` commands one pass runs, and how
each command's output is checked.

An op is a JSON-able dict:

    argv   the `ocs` command line, run in-process through `ocs.cli.run`
    rc     the expected exit code (1 for an expected refusal)
    check  how a successful output is checked (see CHECKS); for rc 1 the
           name of the expected JSON error type
    out    the file the command writes with --out, if any
    needs  files that earlier ops of the pass must have written
    pick   for `dowling interval`: which element of a built poset to factor

The workload seed chooses how the ops of different commands interleave
(keeping every build before its use) and the sampled inputs: the elements that `dowling
interval` factors and the `--j` values of `stability report --verify`.  The
seed itself never reaches `ocs`.
"""

from __future__ import annotations

import json
import random
from math import factorial, prod

WORKLOADS = ("lattice-build", "whitney-homology", "series-stability")

FREE_SPACES = ("rp2free", "typeA_C", "typeA_R1", "typeA_R2", "typeA_R3")
ORBIT_SPACES = ("toricB", "toricC", "toricD", "dowling_mu3", "typeA_R2_punctured")


def _built(spec: str, n: int) -> str:
    return f"built_{spec}_n{n}.json"


def _build(spec: str, n: int) -> dict:
    out = _built(spec, n)
    return {
        "argv": ["dowling", "build", "--spec", spec, "--n", str(n), "--out", out],
        "rc": 0,
        "check": "digest",
        "out": out,
    }


def _op(argv, check="digest", rc=0, needs=(), **extra) -> dict:
    return {"argv": list(argv), "rc": rc, "check": check, "needs": list(needs), **extra}


def dowling_mobius(n: int, group_order: int) -> int:
    """mu(bottom, top) of the Dowling lattice Q_n(G): its characteristic
    polynomial is prod_{i<n} (t - 1 - i|G|), evaluated at t = 0."""
    return (-1) ** n * prod(1 + i * group_order for i in range(n))


def partition_mobius(n: int) -> int:
    """mu(bottom, top) of the partition lattice Pi_n."""
    return (-1) ** (n - 1) * factorial(n - 1)


def _lattice_build(rng: random.Random) -> list[dict]:
    z3, part, b5 = _built("dowling_z3", 5), _built("partition", 7), _built("typeB", 5)
    ops = [_build("dowling_z3", 5), _build("typeC", 5), _build("typeB", 5), _build("partition", 7)]
    ops.append(_op(["poset", "mobius", "--poset", z3], "mobius", needs=[z3],
                   mobius=dowling_mobius(5, 3)))
    ops.append(_op(["poset", "mobius", "--poset", part], "mobius", needs=[part],
                   mobius=partition_mobius(7)))
    for spec in ("typeC", "dowling_z3"):
        ops.append(_op(["dowling", "count", "--spec", spec, "--n", "6", "--cap", "100000"],
                       "agree"))
    # Two intervals, each at a seed-chosen rank of typeB n=5 (ranks 1..5)
    # and a seed-chosen element of that rank, read from the built poset.
    for _ in range(2):
        ops.append(_op(["dowling", "interval", "--spec", "typeB", "--n", "5",
                        "--element", "{pick}"], "isomorphic", needs=[b5],
                       pick={"poset": b5, "rank": rng.randint(1, 5), "u": rng.random()}))
    return ops


def _whitney_homology(rng: random.Random) -> list[dict]:
    ops = []
    for spec, n in [("typeB", 4), ("typeC", 4), ("typeD", 4), ("dowling_z2", 4),
                    ("dowling_z3", 4), ("partition", 5)]:
        ops.append(_build(spec, n))
        ops.append(_op(["poset", "whitney", "--poset", _built(spec, n)], needs=[_built(spec, n)]))
    for spec, n in [("dowling_z3", 4), ("dowling_z2", 4), ("partition", 5)]:
        ops.append(_op(["poset", "homology", "--proper", "--poset", _built(spec, n)],
                       needs=[_built(spec, n)]))
    for spec in ("typeB", "dowling_z3"):
        ops.append(_op(["rep", "decompose", "--rank", "4", "--poset", _built(spec, 4)],
                       needs=[_built(spec, 4)]))
    # nmax 4 is the edge of what orbit spaces reach today: one `config e1`
    # at nmax 5 on an orbit space runs for more than 100 s (ROADMAP D2).
    # Add nmax >= 5 here once that is fixed.
    for space in ORBIT_SPACES:
        ops.append(_op(["config", "e1", "--spec", space, "--nmax", "4"]))
    ops.append(_op(["rep", "stability", "--spec", "typeA_R2", "--rank", "2",
                    "--window", "4..7"]))
    return ops


def _series_stability(rng: random.Random) -> list[dict]:
    ops = []
    for space in FREE_SPACES:
        for size in ("6", "9", "12"):
            for fmt in ("json", "csv"):
                ops.append(_op(["config", "e1", "--spec", space, "--nmax", size,
                                "--format", fmt]))
                ops.append(_op(["config", "betti", "--spec", space, "--n", size,
                                "--format", fmt]))
            ops.append(_op(["config", "euler", "--spec", space, "--nmax", size,
                            "--check-closed-form"], "match"))
        for variant in ("left", "right"):
            for steps in range(1, 5):
                ops.append(_op(["stability", "report", "--spec", space, "--variant",
                                variant, "--steps", str(steps)]))
        if space == "typeA_R1":
            continue  # its steps are all "bounded": --verify has nothing to check
        for steps in range(1, 4):
            ops.append(_op(["stability", "report", "--spec", space, "--verify",
                            "--nmax", "12", "--steps", str(steps),
                            "--j", str(rng.randint(1, 3))], "verified"))
    # Orbit spaces stay at nmax <= 3 here; see the D2 note in whitney-homology.
    for space in ORBIT_SPACES:
        for size in ("1", "2", "3"):
            ops.append(_op(["config", "e1", "--spec", space, "--nmax", size]))
            ops.append(_op(["config", "euler", "--spec", space, "--nmax", size]))
        # The closed-form Euler product exists only for free actions.
        ops.append(_op(["config", "euler", "--spec", space, "--nmax", "3",
                        "--check-closed-form"], "domain", rc=1))
        ops.append(_op(["stability", "report", "--spec", space, "--verify", "--nmax",
                        "3", "--j", str(rng.randint(1, 3))], "verified"))
    # ROADMAP D1: the bottom sweep should end after its two corners (as
    # tests/test_stability.py::test_bottom_exhausts_corners pins); today it
    # exits 1, so this op fails until D1 is fixed.
    ops.append(_op(["stability", "report", "--spec", "typeA_R2", "--variant", "bottom",
                    "--steps", "3"], "bottom_two_steps"))
    return ops


_BUILDERS = {
    "lattice-build": _lattice_build,
    "whitney-homology": _whitney_homology,
    "series-stability": _series_stability,
}


def plan(workload: str, seed: int) -> list[dict]:
    """The ops of one pass, in the order the seed chooses."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    for op in ops:
        op.setdefault("needs", [])
    # A random interleaving: each step takes a uniformly chosen op whose
    # inputs are built and which is the first pending op of its command.
    # Ops of one command keep their listed order, so the op that fills a
    # memo shared with later ops (such as the orbit dimensions behind
    # `config e1`) is the same for every seed, and so are per-op latencies.
    done: set[str] = set()
    pending, ordered = list(ops), []
    while pending:
        heads, ready = set(), []
        for i, op in enumerate(pending):
            command = tuple(op["argv"][:2])
            if command not in heads:
                heads.add(command)
                if set(op["needs"]) <= done:
                    ready.append(i)
        op = pending.pop(ready[rng.randrange(len(ready))])
        ordered.append(op)
        if op.get("out"):
            done.add(op["out"])
    return ordered


def op_key(op: dict) -> str:
    return " ".join(op["argv"])


def resolve_argv(op: dict) -> list[str]:
    """The argv to run; a `pick` reads the element from the built poset."""
    pick = op.get("pick")
    if pick is None:
        return op["argv"]
    with open(pick["poset"], encoding="utf-8") as fh:
        built = json.load(fh)
    names = [name for name, r in zip(built["dowling"]["elements"], built["rank"])
             if r == pick["rank"]]
    element = names[int(pick["u"] * len(names))]
    return [element if a == "{pick}" else a for a in op["argv"]]


# Output checks.  Each takes the op and its parsed JSON output and returns
# None when the output is right, or a one-line reason when it is not.

def _check_agree(op, obj):
    return None if obj.get("agree") is True else f"count disagrees: {obj}"


def _check_isomorphic(op, obj):
    return None if obj.get("isomorphic") is True else "interval is not the factor product"


def _check_match(op, obj):
    return None if obj.get("match") is True else "euler series disagrees with closed form"


def _check_mobius(op, obj):
    want = op["mobius"]
    return None if obj.get("mobius") == want else f"mobius {obj.get('mobius')} != {want}"


def _check_verified(op, obj):
    flags = [s["verified"] for s in obj.get("steps", []) if "verified" in s]
    return None if flags and all(flags) else f"bound not verified: {flags}"


def _check_bottom_two_steps(op, obj):
    steps = obj.get("steps", [])
    if obj.get("variant") == "bottom" and len(steps) == 2 and steps[-1]["terminal"]:
        return None
    return f"expected a terminating two-step bottom report, got {len(steps)} steps"


CHECKS = {
    "agree": _check_agree,
    "isomorphic": _check_isomorphic,
    "match": _check_match,
    "mobius": _check_mobius,
    "verified": _check_verified,
    "bottom_two_steps": _check_bottom_two_steps,
}
