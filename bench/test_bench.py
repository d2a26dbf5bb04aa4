"""Self-tests of the benchmark.

    python3 -m pytest bench -q

They are kept out of the package's own test suite (pyproject's testpaths)
because they start interpreters and run real passes.
"""

import contextlib
import io
import json
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    ops = workloads.plan(workload, 0)[:3]
    result = run.measure(workload, ops, seconds=0, trace=trace)
    assert result["correct"], result["problems"]
    assert result["attempted"] == len(ops) * (2 if trace else 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("per_layer" if trace else "end_to_end")


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_traced_name_resolves_in_ocs():
    for name in tracer.traced_names():
        tracer.resolve(name)  # raises if ocs renamed or removed it
    assert set(tracer.COUNTS) <= set(tracer.traced_names())
    assert tracer.OUTSIDE_ONLY <= set(tracer.traced_names())


def test_install_patches_imported_bindings_but_not_mobius_recursion():
    import ocs.cli
    import ocs.dowling
    import ocs.homology
    import ocs.posets
    import ocs.series
    import ocs.stability
    import ocs.symrep

    t = tracer.Tracer()
    t.install()
    try:
        for bound in (ocs.cli.build_poset, ocs.series.build_poset, ocs.dowling.covers_of,
                      ocs.dowling.from_covers, ocs.homology.mobius, ocs.cli.mobius,
                      ocs.symrep.induced_subposet, ocs.homology.sparse_rank,
                      ocs.stability.e1_series, ocs.series.WeightedSeries.__mul__,
                      ocs.cli.element_to_string):
            assert hasattr(bound, "__wrapped__"), bound
        assert not hasattr(ocs.posets.mobius, "__wrapped__")
        assert not hasattr(ocs.dowling.element_to_string, "__wrapped__")
        with contextlib.redirect_stdout(io.StringIO()):
            assert ocs.cli.run(["config", "e1", "--spec", "toricB", "--nmax", "3"]) == 0
        m = t.metrics()
        assert m["series.mul_calls"] > 0 and m["series.orbit_dim_calls"] > 0
        assert m["cli.self_s"] > 0 and m["homology.rank_calls"] > 0
    finally:
        t.uninstall()
    assert not hasattr(ocs.cli.build_poset, "__wrapped__")
    assert not hasattr(ocs.series.WeightedSeries.__mul__, "__wrapped__")


def test_self_time_subtracts_child_spans():
    names = ["cli.run", "dowling.build_poset", "posets.from_covers"] + [
        n for n in tracer.traced_names()
        if n not in ("cli.run", "dowling.build_poset", "posets.from_covers")]
    spans = [(0, -1, 0, 0.0, 10.0, 0), (1, 0, 0, 1.0, 6.0, 0), (2, 1, 0, 2.0, 5.0, 7)]
    m = tracer.layer_metrics(names, spans)
    assert (m["cli.self_s"], m["dowling.self_s"], m["posets.self_s"]) == (5.0, 2.0, 3.0)
    assert m["posets.from_covers_s"] == 3.0 and m["posets.covers"] == 7


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_seeded_and_builds_before_use(workload):
    orders = set()
    for seed in range(5):
        ops = workloads.plan(workload, seed)
        assert ops == workloads.plan(workload, seed)
        built = set()
        for op in ops:
            assert set(op["needs"]) <= built, op
            if op.get("out"):
                built.add(op["out"])
        orders.add(tuple(workloads.op_key(op) for op in ops))
    assert len(orders) > 1


def test_digests_cover_every_digest_checked_op():
    digests = json.loads((run.BENCH / "digests.json").read_text())
    for workload in workloads.WORKLOADS:
        for seed in range(10):
            for op in workloads.plan(workload, seed):
                if op["check"] == "digest":
                    assert workloads.op_key(op) in digests, op
                else:
                    assert op["check"] in workloads.CHECKS or op["rc"] != 0, op


def test_closed_form_mobius_values():
    assert workloads.dowling_mobius(4, 3) == 280  # Q_4(Z3), as ocs computes it
    assert workloads.partition_mobius(5) == 24
