"""Outside-in tracer for `ocs`: times the calls into each module's public
functions without changing the package.

`Tracer.install()` replaces each traced function, at every module binding
in the `ocs` package that holds it (so also the `from .x import y` copies
in cli, dowling, series, symrep, homology and stability), by a wrapper that
records a span: function, parent span, op index, start, end and an optional
count.  Spans stay in memory until `write()`.  A layer is a module; its
self time is the time of its spans minus the time of their child spans.

Two functions are wrapped only at bindings outside their own module:
`posets.mobius`, whose memoized recursion would otherwise put the wrapper
on its hot path, and `dowling.element_to_string`, the sort key of the
enumeration loops.  Their calls inside their own module count as the
caller's time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# layer (module of ocs) -> traced public functions defined there
TRACED = {
    "cli": ["run"],
    "dowling": [
        "covers_of", "enumerate_levels", "build_poset", "count_elements_species",
        "factor_interval", "spec_from_json", "spec_to_json", "parse_element",
        "spec_single_point", "wreath_act", "element_to_string",
    ],
    "posets": [
        "from_covers", "mobius", "lower_interval", "induced_subposet", "proper_part",
        "is_isomorphic", "direct_product", "chain_poset", "poset_from_json",
        "poset_to_json", "canonical_poset_bytes",
    ],
    "homology": [
        "order_complex_chains", "sparse_rank", "reduced_homology",
        "interval_degree_table", "whitney_homology", "lefschetz_character",
    ],
    "symrep": [
        "sym_class_poset_perms", "whitney_character", "decompose",
        "stable_multiplicity_check",
    ],
    "series": [
        "WeightedSeries.__mul__", "series_exp", "main_factor", "orbit_factor",
        "orbit_generator_dim", "e1_series", "e1_table", "bm_betti", "euler_series",
        "closed_form_euler", "space_from_json",
    ],
    "stability": [
        "locus_from_space", "classify_step", "bottom_step", "remove_point",
        "iterate_report", "quotient_series", "verify_generator_bound",
    ],
    "groups": [
        "group_from_json", "gset_from_json", "cyclic_group", "subgroup_table",
        "orbits_and_stabilizers",
    ],
}

OUTSIDE_ONLY = {"posets.mobius", "dowling.element_to_string"}


def _mul_count(args, result):
    """(term pairs, pairs within the truncation order), the second from the
    operands' degree histograms."""
    a, b = args[0], args[1]
    ha, hb = defaultdict(int), defaultdict(int)
    for n, _, _ in a.coeffs:
        ha[n] += 1
    for n, _, _ in b.coeffs:
        hb[n] += 1
    kept = sum(ca * cb for na, ca in ha.items() for nb, cb in hb.items() if na + nb <= a.trunc)
    return (len(a.coeffs) * len(b.coeffs), kept)


# traced function -> count recorded on its span, from (args, result)
COUNTS = {
    "posets.from_covers": lambda args, r: sum(len(h) for h in r.hasse),
    "dowling.enumerate_levels": lambda args, r: sum(len(level) for level in r),
    "homology.order_complex_chains": lambda args, r: sum(len(c) for c in r),
    "homology.sparse_rank": lambda args, r: sum(len(col) for col in args[0]),
    "series.WeightedSeries.__mul__": _mul_count,
}

# Per-layer metrics, in the order they are reported: name -> unit.
METRICS = {
    "dowling.self_s": "s",
    "dowling.covers_of_s": "s",
    "dowling.covers_of_calls": "count",
    "dowling.elements": "count",
    "dowling.covers_per_element": "ratio",
    "posets.self_s": "s",
    "posets.from_covers_s": "s",
    "posets.covers": "count",
    "posets.mobius_s": "s",
    "posets.mobius_calls": "count",
    "posets.interval_s": "s",
    "posets.isomorphism_s": "s",
    "homology.self_s": "s",
    "homology.chains_s": "s",
    "homology.chains": "count",
    "homology.rank_s": "s",
    "homology.rank_calls": "count",
    "homology.rank_nnz": "count",
    "homology.lefschetz_s": "s",
    "symrep.self_s": "s",
    "symrep.perms_s": "s",
    "symrep.character_s": "s",
    "series.self_s": "s",
    "series.mul_s": "s",
    "series.mul_calls": "count",
    "series.mul_pairs": "count",
    "series.mul_kept_ratio": "ratio",
    "series.orbit_dim_s": "s",
    "series.orbit_dim_calls": "count",
    "series.orbit_dim_builds": "count",
    "stability.self_s": "s",
    "stability.verify_s": "s",
    "groups.self_s": "s",
    "cli.self_s": "s",
}


def resolve(qualname: str):
    """The traced object for 'layer.name' or 'layer.Class.method'; raises
    AttributeError when `ocs` no longer defines it."""
    layer, _, rest = qualname.partition(".")
    obj = importlib.import_module(f"ocs.{layer}")
    for part in rest.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{qualname} is not callable")
    return obj


def traced_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


class Tracer:
    def __init__(self):
        self.names = traced_names()
        # One entry per span, in columns of flat arrays: a list of
        # per-span lists would add tens of thousands of objects for the
        # cyclic garbage collector to scan, slowing the traced code.
        self.fid = array("i")
        self.parent = array("q")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count: dict[int, object] = {}
        self.op = -1
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, count):
        stack, clock = self._stack, time.perf_counter
        fids, parents, ops, starts, ends = self.fid, self.parent, self.op_of, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                self.count[i] = count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ocs" or name.startswith("ocs."))]
        for fid, qualname in enumerate(self.names):
            fn = resolve(qualname)
            wrapper = self._wrap(fid, fn, COUNTS.get(qualname))
            layer, _, rest = qualname.partition(".")
            if "." in rest:  # a method: patch the class
                cls_name, meth = rest.split(".")
                cls = getattr(importlib.import_module(f"ocs.{layer}"), cls_name)
                self._set(cls, meth, wrapper)
                continue
            for module in modules:
                if qualname in OUTSIDE_ONLY and module.__name__ == f"ocs.{layer}":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        """One JSON line per span: name, parent index, op, start, end, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps([self.names[span[0]], *span[1:]]) + "\n")

    def spans(self) -> list[tuple]:
        """(name id, parent index, op, start, end, count) per span."""
        return [
            (f, p, o, t0, t1, self.count.get(i, 0))
            for i, (f, p, o, t0, t1) in enumerate(
                zip(self.fid, self.parent, self.op_of, self.start, self.end))
        ]

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.names, self.spans())


def layer_metrics(names: list[str], spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from spans; see METRICS for the names."""
    child = [0.0] * len(spans)
    for fid, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, object] = defaultdict(int)
    for i, (fid, _, _, t0, t1, count) in enumerate(spans):
        name = names[fid]
        self_s[name.partition(".")[0]] += (t1 - t0) - child[i]
        calls[name] += 1
        if isinstance(count, tuple):
            prev = counts[name] or (0,) * len(count)
            counts[name] = tuple(p + c for p, c in zip(prev, count))
        else:
            counts[name] += count

    def outer_time(*group: str) -> float:
        """Time of the spans in `group` not nested in another of them."""
        ids = {names.index(g) for g in group}
        total = 0.0
        for fid, parent, _, t0, t1, _ in spans:
            if fid not in ids:
                continue
            while parent >= 0 and spans[parent][0] not in ids:
                parent = spans[parent][1]
            if parent < 0:
                total += t1 - t0
        return total

    build_id = names.index("dowling.build_poset")
    dim_id = names.index("series.orbit_generator_dim")
    dim_builds = sum(1 for fid, parent, *_ in spans
                     if fid == build_id and parent >= 0 and spans[parent][0] == dim_id)
    elements = counts["dowling.enumerate_levels"]
    pairs, kept = counts["series.WeightedSeries.__mul__"] or (0, 0)
    out = {
        "dowling.self_s": self_s["dowling"],
        "dowling.covers_of_s": outer_time("dowling.covers_of"),
        "dowling.covers_of_calls": calls["dowling.covers_of"],
        "dowling.elements": elements,
        "dowling.covers_per_element": calls["dowling.covers_of"] / elements if elements else 0.0,
        "posets.self_s": self_s["posets"],
        "posets.from_covers_s": outer_time("posets.from_covers"),
        "posets.covers": counts["posets.from_covers"],
        "posets.mobius_s": outer_time("posets.mobius"),
        "posets.mobius_calls": calls["posets.mobius"],
        "posets.interval_s": outer_time(
            "posets.lower_interval", "posets.induced_subposet", "posets.proper_part"),
        "posets.isomorphism_s": outer_time("posets.is_isomorphic"),
        "homology.self_s": self_s["homology"],
        "homology.chains_s": outer_time("homology.order_complex_chains"),
        "homology.chains": counts["homology.order_complex_chains"],
        "homology.rank_s": outer_time("homology.sparse_rank"),
        "homology.rank_calls": calls["homology.sparse_rank"],
        "homology.rank_nnz": counts["homology.sparse_rank"],
        "homology.lefschetz_s": outer_time("homology.lefschetz_character"),
        "symrep.self_s": self_s["symrep"],
        "symrep.perms_s": outer_time("symrep.sym_class_poset_perms"),
        "symrep.character_s": outer_time("symrep.whitney_character"),
        "series.self_s": self_s["series"],
        "series.mul_s": outer_time("series.WeightedSeries.__mul__"),
        "series.mul_calls": calls["series.WeightedSeries.__mul__"],
        "series.mul_pairs": pairs,
        "series.mul_kept_ratio": kept / pairs if pairs else 0.0,
        "series.orbit_dim_s": outer_time("series.orbit_generator_dim"),
        "series.orbit_dim_calls": calls["series.orbit_generator_dim"],
        "series.orbit_dim_builds": dim_builds,
        "stability.self_s": self_s["stability"],
        "stability.verify_s": outer_time("stability.verify_generator_bound"),
        "groups.self_s": self_s["groups"],
        "cli.self_s": self_s["cli"],
    }
    assert list(out) == list(METRICS)
    return out
