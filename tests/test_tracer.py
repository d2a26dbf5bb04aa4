"""The benchmark's tracer (bench/tracer.py) names `ocs` functions by
string, so a rename in the package breaks `bench/run.py --trace 1` without
failing any package test.  This test loads the tracer by its path and only
reads it."""

import types
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # compiled from its text, so no bytecode is written under bench/
    tracer = types.ModuleType("ocs_bench_tracer")
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"),
         tracer.__dict__)
    return tracer


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    names = tracer.traced_names()
    assert names
    unresolved = []
    for name in names:
        try:
            tracer.resolve(name)
        except (ImportError, AttributeError, TypeError) as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
