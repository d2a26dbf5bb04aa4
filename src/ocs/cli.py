"""Command-line front end.

Every subcommand is declared once, in `COMMANDS`, and the parser is built
from that table once per process, on the first `run`.

Exit codes: 0 success, 1 domain error (a well-posed request whose answer
does not exist or exceeds caps), 2 usage/input error.  Every error,
usage errors included, is emitted as one JSON object on stderr.  All
numeric output is exact: integers, or "p/q" strings for non-integer
rationals.  Output is buffered and written only on success, so error
paths never leave partial files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .dowling import (
    DEFAULT_CAP,
    DowlingSpec,
    _check_cap,
    build_poset,
    count_elements_species,
    element_to_string,
    enumerate_levels,
    factor_interval,
    parse_element,
    spec_from_json,
    spec_to_json,
)
from .errors import CapExceeded, DomainError, InputError
from .groups import GSetSpec, GroupTable
from .homology import reduced_homology, whitney_homology
from .posets import (
    chain_poset,
    direct_product,
    is_isomorphic,
    lower_interval,
    mobius,
    poset_from_json,
    poset_to_json,
    proper_part,
)
from .series import (
    SpaceInput,
    _check_nmax_cap,
    bm_betti,
    closed_form_euler,
    e1_table,
    euler_series,
    space_from_json,
)
from .stability import iterate_report, verify_generator_bound
from .symrep import (
    _whitney_characters,
    decompose,
    partition_lattice_whitney_characters,
    stable_multiplicity_check,
    sym_class_poset_perms,
    whitney_character,
)

__all__ = ["run", "main"]


# serialization helpers -------------------------------------------------------

def _rat(x):
    """Exact encoding of one scalar: a Fraction becomes an int or 'p/q',
    and None, bools, ints and strings stay as they are."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if x is None or isinstance(x, (int, str)):
        return x
    raise AssertionError(f"unserializable value {x!r}")


def _json_text(obj) -> str:
    """obj as sorted, indented JSON, with `_rat` applied to every value json
    cannot encode itself.  Every dict key must be a str: json.dumps sorts
    the keys before it converts them, so int keys would sort as numbers."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_rat) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_rat(v) for v in row])
    return buf.getvalue()


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# spec resolution --------------------------------------------------------------

def _load_descriptor(arg: str, kind: str) -> dict:
    """Read a JSON descriptor from a path, falling back to the bundled
    specs/<kind>/ directory when no file is at that path and the argument
    is a bare name (no directory part), so no argument reaches outside it."""
    # a ValueError is a name with a NUL byte, which no file can have
    no_file = (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError)
    not_found = InputError(f"spec not found: {arg} (no file, no bundled {kind} spec)")
    try:
        fh = open(arg, encoding="utf-8")
    except no_file:
        if Path(arg).name != arg:
            raise not_found from None
        name = arg if arg.endswith(".json") else arg + ".json"
        try:
            fh = resources.files("ocs").joinpath("specs", kind, name).open(encoding="utf-8")
        except no_file:
            raise not_found from None
    with fh:
        try:
            return json.loads(fh.read())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"malformed JSON in {arg}: {exc}") from exc


def _load_space(arg: str) -> SpaceInput:
    return space_from_json(_load_descriptor(arg, "spaces"))


def _load_poset_file(arg: str):
    obj = _load_descriptor(arg, "posets")
    if isinstance(obj, dict) and "covers" not in obj and ("group" in obj or "gset" in obj):
        raise InputError(
            "this descriptor is a dowling family spec; build it first with "
            "'ocs dowling build'"
        )
    return poset_from_json(obj), obj


# dowling ----------------------------------------------------------------------

def _cmd_dowling_build(args) -> str:
    spec = spec_from_json(_load_descriptor(args.spec, "posets"), n=args.n)
    p, elems = build_poset(spec, cap=args.cap)
    obj = poset_to_json(p)
    obj["dowling"] = {
        "spec": spec_to_json(spec),
        "elements": [element_to_string(e) for e in elems],
    }
    return _json_text(obj)


def _cmd_dowling_count(args) -> str:
    spec = spec_from_json(_load_descriptor(args.spec, "posets"), n=args.n)
    levels = enumerate_levels(spec, cap=args.cap)
    enumerated = sum(len(lv) for lv in levels)
    species = count_elements_species(spec)
    return _json_text(
        {
            "n": spec.n,
            "enumerated": enumerated,
            "species": species,
            "agree": enumerated == species,
            "levels": [len(lv) for lv in levels],
        }
    )


def _cmd_dowling_interval(args) -> str:
    spec = spec_from_json(_load_descriptor(args.spec, "posets"), n=args.n)
    elem = parse_element(spec, args.element)
    p, elems = build_poset(spec, cap=args.cap)
    idx = elems.index(elem)
    interval, _ = lower_interval(p, idx)
    factors = factor_interval(spec, elem)
    product = chain_poset(1)
    described = []
    for f in factors:
        fp, _ = build_poset(f.spec, cap=args.cap)
        product = direct_product(product, fp)
        entry = {
            "kind": f.kind,
            "points": len(f.ground),
            "ground": list(f.ground),
            "posetSize": fp.n_elems,
        }
        if f.kind == "orbit":
            entry["stabilizerOrder"] = f.spec.group.order
            entry["inT"] = bool(f.spec.gset.t_subset)
        described.append(entry)
    iso = is_isomorphic(interval, product) is not None
    return _json_text(
        {
            "element": element_to_string(elem),
            "intervalSize": interval.n_elems,
            "productSize": product.n_elems,
            "factors": described,
            "isomorphic": iso,
        }
    )


# poset ------------------------------------------------------------------------

def _cmd_poset_mobius(args) -> str:
    p, _ = _load_poset_file(args.poset)
    a = p.bottom() if args.a is None else args.a
    b = p.top() if args.b is None else args.b
    return _json_text({"a": a, "b": b, "mobius": mobius(p, a, b)})


def _cmd_poset_homology(args) -> str:
    p, _ = _load_poset_file(args.poset)
    q = proper_part(p) if args.proper else p
    pairs = [[k, r] for k, r in sorted(reduced_homology(q).items())]
    if args.format == "csv":
        return _csv_text(["degree", "rank"], pairs)
    return _json_text({"proper": bool(args.proper), "betti": pairs})


def _cmd_poset_whitney(args) -> str:
    p, _ = _load_poset_file(args.poset)
    triples = [[r, k, d] for (r, k), d in sorted(whitney_homology(p).items())]
    if args.format == "csv":
        return _csv_text(["rank", "degree", "dim"], triples)
    return _json_text({"whitney": triples})


# config -----------------------------------------------------------------------

def _cmd_config_e1(args) -> str:
    space = _load_space(args.spec)
    table = e1_table(space, args.nmax)
    if args.format == "csv":
        rows = [
            [n, p, q, d]
            for n in sorted(table)
            for (p, q), d in sorted(table[n].items())
        ]
        return _csv_text(["n", "p", "q", "dim"], rows)
    return _json_text(
        {
            "space": space.name,
            "weight": space.group.order,
            "table": [
                {"n": n, "entries": [[p, q, d] for (p, q), d in sorted(table[n].items())]}
                for n in sorted(table)
            ],
        }
    )


def _cmd_config_betti(args) -> str:
    space = _load_space(args.spec)
    bet = bm_betti(space, args.n)
    pairs = [[m, r] for m, r in sorted(bet.items())]
    if args.format == "csv":
        return _csv_text(["degree", "rank"], pairs)
    return _json_text({"space": space.name, "n": args.n, "betti": pairs})


def _cmd_config_euler(args) -> str:
    space = _load_space(args.spec)
    seq = euler_series(space, args.nmax)
    obj = {"space": space.name, "euler": seq}
    if args.check_closed_form:
        closed = closed_form_euler(space, args.nmax)
        if closed is None:
            raise DomainError(
                "closed-form Euler product requires a free action (no orbit data)"
            )
        obj["closedForm"] = closed
        obj["match"] = closed == seq
        if closed != seq:
            raise DomainError(
                f"euler series {seq} disagrees with closed form {closed}"
            )
    return _json_text(obj)


# stability --------------------------------------------------------------------

def _cmd_stability_report(args) -> str:
    space = _load_space(args.spec)
    if args.verify:
        _check_nmax_cap(args.nmax)
    report = iterate_report(space, variant=args.variant, steps=args.steps)
    steps_json = []
    for i, step in enumerate(report.steps):
        entry = {
            "point": {"x": step.x, "y": step.y},
            "factor": step.factor,
            "classification": step.classification,
            "norm": step.norm,
            "epsilon": step.epsilon,
            "epsilonAttained": step.epsilon_attained,
            "slope": step.slope,
            "terminal": step.terminal,
        }
        if step.classification == "absolute" and step.epsilon:
            entry["j"] = args.j
            entry["generatorBound"] = step.bound(args.j, 0)
        if args.verify and step.classification == "absolute" and step.epsilon:
            ok, info = verify_generator_bound(space, report, i, args.j, args.nmax)
            entry["verified"] = ok
            entry["sizesChecked"] = info["sizes_checked"]
            if not ok:
                raise DomainError(
                    f"generator bound violated at step {i}: {info['violations']}"
                )
        steps_json.append(entry)
    return _json_text(
        {
            "space": report.label,
            "variant": report.variant,
            "validity": report.validity,
            "steps": steps_json,
        }
    )


# rep --------------------------------------------------------------------------

def _built_dowling_poset(arg: str):
    obj = _load_descriptor(arg, "posets")
    if isinstance(obj, dict) and "dowling" not in obj:
        raise DomainError(
            "rep commands need group provenance: build the poset with "
            "'ocs dowling build' and pass its output file"
        )
    p = poset_from_json(obj)
    d = obj["dowling"]
    if not (
        isinstance(d, dict) and "spec" in d and isinstance(d.get("elements"), list)
        and len(d["elements"]) == p.n_elems and all(isinstance(s, str) for s in d["elements"])
    ):
        raise InputError("'dowling' block needs 'spec' and one element string per poset element")
    spec = spec_from_json(d["spec"])
    elements = [parse_element(spec, s) for s in d["elements"]]
    if len(set(elements)) != len(elements):
        raise InputError("'dowling' element strings must name distinct elements")
    return p, spec, elements


def _check_rank(rank: int | None) -> None:
    if rank is not None and rank < 0:
        raise InputError(f"rank must be nonnegative, got {rank}")


def _cmd_rep_decompose(args) -> str:
    _check_rank(args.rank)
    p, spec, elements = _built_dowling_poset(args.poset)
    perms = sym_class_poset_perms(spec, elements)
    ranks = [args.rank] if args.rank is not None else None
    out = []
    for r, cf in _whitney_characters(p, perms, ranks, spec.n).items():
        mult = decompose(cf)
        out.append(
            {
                "rank": r,
                "character": [[list(mu), v] for mu, v in cf.values],
                "multiplicities": [[list(lam), m] for lam, m in sorted(mult.items())],
            }
        )
    return _json_text({"action": args.action, "n": spec.n, "ranks": out})


def _gset_from_orbit_data(group: GroupTable, orbit_data) -> GSetSpec:
    """Reassemble a G-set from per-orbit (stabilizer, inT) data.  Only the
    extreme stabilizers determine the action without an embedding: trivial
    (a free orbit) and full (a fixed point)."""
    size = 0
    blocks = []  # (start, orbit_size, in_t)
    for stab, in_t in orbit_data:
        if stab.order == 1:
            blocks.append((size, group.order, in_t))
            size += group.order
        elif stab.order == group.order:
            blocks.append((size, 1, in_t))
            size += 1
        else:
            raise DomainError(
                "cannot reconstruct the singular G-set: orbit stabilizer is "
                "neither trivial nor the full group"
            )
    action = []
    for g in range(group.order):
        row = [0] * size
        for start, osize, _ in blocks:
            if osize == 1:
                row[start] = start
            else:
                for h in range(group.order):
                    row[start + h] = start + group.mul[g][h]
        action.append(tuple(row))
    t_points = frozenset(
        start + k
        for start, osize, in_t in blocks
        if in_t
        for k in range(osize)
    )
    return GSetSpec(group=group, size=size, action=tuple(action), t_subset=t_points)


def _parse_window(text: str) -> list[int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise InputError("window must look like 4..6")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError("window bounds must be integers") from exc
    if not 1 <= lo <= hi:
        raise InputError("window bounds must satisfy 1 <= lo <= hi")
    return list(range(lo, hi + 1))


def _poset_characters(space: SpaceInput, rank: int, window: list[int], cap: int) -> dict:
    """{n: rank-Whitney character} over the window, from each built poset."""
    gset = _gset_from_orbit_data(space.group, space.orbit_data)
    chars = {}
    for n in window:
        spec = DowlingSpec(group=space.group, gset=gset, n=n, name=space.name)
        p, elements = build_poset(spec, cap=cap)
        perms = sym_class_poset_perms(spec, elements)
        chars[n] = whitney_character(p, perms, rank, n)
    return chars


def _series_characters(space: SpaceInput, rank: int, window: list[int], cap: int) -> dict:
    """`_poset_characters` for a space whose poset is the partition lattice
    Pi_n, with no poset: the characters come from Lehrer's product formula
    (`partition_lattice_whitney_characters`), and the cap is checked as
    `build_poset` checks it, against the rank levels of Pi_n, which have
    d_r(n) = S(n, n - r) elements (Stirling numbers of the second kind).
    The space is not read; it is taken so that both paths have one
    signature.

    The levels are computed one diagonal at a time, from d_0 = 1 and
    d_r(m) = d_r(m - 1) + (m - r) d_(r-1)(m - 1).  Element counts only grow
    with n, so the first n of the window over the cap at rank r bounds the
    n that refuses, and no diagonal is taken past it: a refusal at a large
    n costs a few diagonals, not the whole Stirling triangle."""
    lo, top = window[0], window[-1]
    level = [1] * (top + 1)  # level[m] = d_r(m), here r = 0
    totals = [1] * (top + 1)  # totals[m]: elements of Pi_m up to rank r
    refusal = None
    r = 0
    while r + 1 < top and lo <= top:
        r += 1
        below, level = level, [0] * (r + 1)
        for m in range(r + 1, top + 1):
            level.append(level[m - 1] + (m - r) * below[m - 1])
            totals[m] += level[m]
            if m >= lo and totals[m] > cap:
                refusal, top = (r, totals[m]), m - 1
                break
    if refusal:
        _check_cap(cap, *refusal)
    chars = partition_lattice_whitney_characters(rank, window[-1])
    return {n: chars[n] for n in window}


def _cmd_rep_stability(args) -> str:
    """Multiplicity stability of the rank-r Whitney characters over a window
    of n.  A space with the trivial group and no orbits (the typeA_* specs)
    has the partition lattice Pi_n as its poset, and takes its characters
    from Lehrer's product formula, with no poset (`_series_characters`);
    every other space builds its poset for each n (`_poset_characters`)."""
    _check_rank(args.rank)
    space = _load_space(args.spec)
    window = _parse_window(args.window)
    partition_lattice = space.group.order == 1 and not space.orbit_data
    characters = _series_characters if partition_lattice else _poset_characters
    chars = characters(space, args.rank, window, args.cap)
    epsilon = None
    primary = iterate_report(space, "left", 1).steps[0]
    if primary.classification == "absolute" and primary.epsilon:
        epsilon = primary.epsilon
    report = stable_multiplicity_check(chars, degree=args.rank, epsilon=epsilon)
    obj = {
        "space": space.name,
        "rank": args.rank,
        "window": report["window"],
        "stable": report["stable"],
        "firstViolation": report["first_violation"],
        "names": {
            str(n): [[list(name), m] for name, m in sorted(names.items())]
            for n, names in report["names"].items()
        },
    }
    if "size_bound" in report:
        obj["sizeBound"] = report["size_bound"]
        obj["sizeBoundOk"] = report["size_bound_ok"]
    return _json_text(obj)


# command table ----------------------------------------------------------------

# Options that several commands share, as (flag, add_argument kwargs) pairs.
SPEC = ("--spec", {"required": True})
POSET = ("--poset", {"required": True})
N = ("--n", {"type": int})
NMAX = ("--nmax", {"type": int, "required": True})
CAP = ("--cap", {"type": int, "default": DEFAULT_CAP})
FORMAT = ("--format", {"choices": ["json", "csv"], "default": "json"})
OUT = ("--out", {"default": "-", "help": "output path, or - for stdout"})
FLAG = {"action": "store_true"}  # the kwargs of an on/off option


def _with(option, **kwargs):
    """A shared option with some of its add_argument kwargs replaced."""
    flag, base = option
    return flag, {**base, **kwargs}


# group -> (help, {command: (handler, help, options)}); every command also
# takes --out, after its own options.
COMMANDS = {
    "dowling": ("Dowling poset enumeration", {
        "build": (_cmd_dowling_build, "enumerate and emit the poset as JSON", [SPEC, N, CAP]),
        "count": (_cmd_dowling_count, "BFS count vs species count", [SPEC, N, CAP]),
        "interval": (_cmd_dowling_interval, "factor a lower interval",
                     [SPEC, N, ("--element", {"required": True}), CAP]),
    }),
    "poset": ("poset invariants", {
        "mobius": (_cmd_poset_mobius, "Mobius function value",
                   [POSET, ("--a", {"type": int}), ("--b", {"type": int})]),
        "homology": (_cmd_poset_homology, "reduced homology of the order complex",
                     [POSET, ("--proper", FLAG), FORMAT]),
        "whitney": (_cmd_poset_whitney, "bigraded Whitney homology table", [POSET, FORMAT]),
    }),
    "config": ("configuration-space series", {
        "e1": (_cmd_config_e1, "first-page dimension table", [SPEC, NMAX, FORMAT]),
        "betti": (_cmd_config_betti, "Borel-Moore Betti numbers (i-acyclic)",
                  [SPEC, _with(N, required=True), FORMAT]),
        "euler": (_cmd_config_euler, "compactly supported Euler characteristics",
                  [SPEC, NMAX, ("--check-closed-form", FLAG)]),
    }),
    "stability": ("generation-locus analysis", {
        "report": (_cmd_stability_report, "iterative stabilization report", [
            SPEC,
            ("--variant", {"choices": ["left", "right", "bottom"], "default": "left"}),
            ("--steps", {"type": int, "default": 1}),
            ("--verify", FLAG),
            _with(NMAX, required=False, default=8),
            ("--j", {"type": int, "default": 1}),
        ]),
    }),
    "rep": ("symmetric-group representations", {
        "decompose": (_cmd_rep_decompose, "decompose Whitney characters",
                      [POSET, ("--action", {"choices": ["sym"], "default": "sym"}),
                       ("--rank", {"type": int})]),
        "stability": (_cmd_rep_stability, "multiplicity stability over a window",
                      [SPEC, ("--rank", {"type": int, "required": True}),
                       ("--window", {"required": True}), CAP]),
    }),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as InputError instead of printing usage and
    exiting; the subparsers inherit the class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ocs",
        description="Exact combinatorics of orbit configuration spaces: "
        "Dowling posets, Whitney homology, first-page series, stability.",
    )
    groups = parser.add_subparsers(dest="command", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        subs = groups.add_parser(group, help=group_help).add_subparsers(dest="sub", required=True)
        for command, (handler, command_help, options) in commands.items():
            sp = subs.add_parser(command, help=command_help)
            for flag, kwargs in options + [OUT]:
                sp.add_argument(flag, **kwargs)
            sp.set_defaults(handler=handler)
    return parser


def _emit_error(kind: str, exc: BaseException) -> None:
    payload = {"error": {"type": kind, "message": str(exc)}}
    if isinstance(exc, CapExceeded) and exc.partial_count is not None:
        payload["error"]["partialCount"] = exc.partial_count
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _write_output(args.handler(args), args.out)
    except SystemExit as exc:  # --help
        return exc.code
    except (InputError, OSError) as exc:
        _emit_error("input", exc)
        return 2
    except CapExceeded as exc:
        _emit_error("cap", exc)
        return 1
    except DomainError as exc:
        _emit_error("domain", exc)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
