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
    _check_window_cap,
    _cover_lists,
    _levels,
    build_poset,
    count_elements_species,
    element_to_string,
    factor_interval,
    parse_element,
    spec_from_json,
    spec_to_json,
)
from .errors import CapExceeded, DomainError, InputError
from .homology import reduced_homology, whitney_homology
from .posets import (
    Poset,
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
    _check_nmax_cap,
    bm_betti,
    closed_form_euler,
    e1_table,
    euler_series,
    space_from_json,
)
from .stability import iterate_report, verify_generator_bound
from .symrep import (
    ClassFunction,
    decompose,
    dowling_whitney_characters,
    dowling_whitney_numbers,
    stable_multiplicity_check,
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


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """obj as sorted, indented JSON, with `_rat` applied to every value json
    cannot encode itself: the text of ``json.dumps(obj, sort_keys=True,
    indent=2, default=_rat) + "\\n"``, written directly, since json.dumps
    encodes indented output in pure Python.

    Raises:
        TypeError: on a dict key that is not a str, from the str encoder
            (json.dumps would sort int keys as numbers and then write them
            as strings).
    """
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    """The JSON text of obj, which starts a line after `newline`: a line
    break and the indent of obj's depth.  The types are tested in json's
    order, so bools are not ints; an exact int in a list is written
    without a call, and so is a list of pairs of exact ints, one row
    template per pair."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        first = obj[0]
        if (type(first) is list and len(first) == 2 and type(first[0]) is int
                and type(first[1]) is int
                and all([type(x) is list and len(x) == 2 and type(x[0]) is int
                         and type(x[1]) is int for x in obj])):
            # a list of int pairs, such as the covers: one template per row
            row = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
            items = [row % (a, b) for a, b in obj]
        else:
            items = [int.__repr__(x) if type(x) is int else _json_value(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [_encode_str(k) + ": " + _json_value(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return _json_value(_rat(obj), newline)


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


def _check_nonnegative(name: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise InputError(f"{name} must be nonnegative, got {value}")


def _load_space(arg: str):
    return space_from_json(_load_descriptor(arg, "spaces"))


def _poset_descriptor(arg: str):
    """A --poset descriptor, refused when it names a Dowling family spec
    rather than a built poset."""
    obj = _load_descriptor(arg, "posets")
    if isinstance(obj, dict) and "covers" not in obj and ("group" in obj or "gset" in obj):
        raise InputError(
            "this descriptor is a dowling family spec; build it first with "
            "'ocs dowling build'"
        )
    return obj


# dowling ----------------------------------------------------------------------

def _cmd_dowling_build(args) -> str:
    spec = spec_from_json(_load_descriptor(args.spec, "posets"), n=args.n)
    p, _, names = build_poset(spec, cap=args.cap)
    obj = poset_to_json(p)
    obj["dowling"] = {"spec": spec_to_json(spec), "elements": names}
    return _json_text(obj)


def _cmd_dowling_count(args) -> str:
    """The level sizes of D_n, each element generated once from its
    canonical parent (`_levels`), against the species count."""
    spec = spec_from_json(_load_descriptor(args.spec, "posets"), n=args.n)
    levels = [len(level) for level in _levels(spec, args.cap)]
    enumerated = sum(levels)
    species = count_elements_species(spec)
    return _json_text(
        {
            "n": spec.n,
            "enumerated": enumerated,
            "species": species,
            "agree": enumerated == species,
            "levels": levels,
        }
    )


def _cmd_dowling_interval(args) -> str:
    spec = spec_from_json(_load_descriptor(args.spec, "posets"), n=args.n)
    elem = parse_element(spec, args.element)
    p, elems, _ = build_poset(spec, cap=args.cap)
    idx = elems.index(elem)
    interval, _ = lower_interval(p, idx)
    factors = factor_interval(spec, elem)
    product = chain_poset(1)
    described = []
    for f in factors:
        fp = build_poset(f.spec, cap=args.cap)[0]
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

def _dowling_spec(d, p: Poset) -> DowlingSpec:
    """The spec of a poset file's `dowling` block d, refused unless the
    file's poset p is D_n of that spec: its elements are D_n's, each once,
    and each carries its own rank and exactly its own upper covers, in any
    order.  So an answer computed from the spec, or from what every D_n
    is, is an answer about the file.

    The file is checked against D_n regenerated by `_cover_lists`, with
    the file's size for its cap, so a larger D_n is refused from counts
    before it is built.  When D_n has as many elements as the file has
    strings, each string is looked up among D_n's canonical names, and only
    a string that is not one is parsed (`parse_element`), to find its
    element's name or refuse it.  Ranks and covers are compared through
    that map, as whole tuples when it is the identity, as it is for every
    file `ocs dowling build` writes.  Any other file is parsed string by
    string, so its refusals come in one order: a string that does not
    parse, then a repeated element, then the mismatch."""
    if not (
        isinstance(d, dict) and "spec" in d and isinstance(d.get("elements"), list)
        and len(d["elements"]) == p.n_elems and all(isinstance(s, str) for s in d["elements"])
    ):
        raise InputError("'dowling' block needs 'spec' and one element string per poset element")
    spec, strings = spec_from_json(d["spec"]), d["elements"]
    not_distinct = InputError("'dowling' element strings must name distinct elements")
    not_its_spec = InputError(
        "the poset does not match its 'dowling' spec; build it with 'ocs dowling build'")
    try:  # a D_n larger than the file is refused from its counts, unbuilt
        names, elements, rank, up = _cover_lists(spec, cap=len(strings))
    except CapExceeded:
        names = elements = None
    if names is None or len(names) != len(strings):
        elements = [parse_element(spec, s) for s in strings]
        raise not_distinct if len(set(elements)) != len(elements) else not_its_spec
    del elements  # only names, ranks and covers are compared
    index = dict(zip(names, range(len(names))))
    del names
    at = [index[s] if s in index else index[element_to_string(parse_element(spec, s))]
          for s in strings]
    del index
    if len(set(at)) != len(at):
        raise not_distinct
    if p.rank is None:
        raise not_its_spec
    if at == list(range(len(at))):
        same = p.rank == tuple(rank) and p.hasse == tuple(up)
    else:
        where = [0] * len(at)  # where[k]: the file index of D_n's element k
        for i, k in enumerate(at):
            where[k] = i
        same = all(p.rank[i] == rank[k] and p.hasse[i] == tuple(sorted([where[j] for j in up[k]]))
                   for i, k in enumerate(at))
    if not same:
        raise not_its_spec
    return spec


def _load_poset(arg: str, provenance: bool = False) -> tuple[Poset, DowlingSpec | None]:
    """A --poset file's poset, parsed once, and its `dowling` spec when the
    file is D_n of that spec (`_dowling_spec`), else None.  With
    provenance, a file that is not is refused instead: exit 1 without a
    `dowling` block, exit 2 with a block that fails the check."""
    obj = _poset_descriptor(arg)
    if provenance and isinstance(obj, dict) and "dowling" not in obj:
        raise DomainError(
            "rep commands need group provenance: build the poset with "
            "'ocs dowling build' and pass its output file"
        )
    p = poset_from_json(obj)
    if "dowling" not in obj:
        return p, None
    try:
        return p, _dowling_spec(obj["dowling"], p)
    except InputError:
        if provenance:
            raise
        return p, None


def _cmd_poset_mobius(args) -> str:
    p = poset_from_json(_poset_descriptor(args.poset))
    a = p.bottom() if args.a is None else args.a
    b = p.top() if args.b is None else args.b
    return _json_text({"a": a, "b": b, "mobius": mobius(p, a, b)})


def _cmd_poset_homology(args) -> str:
    """Reduced homology of the order complex.  A poset with exactly one
    minimal or exactly one maximal element has a cone for its order
    complex, so without --proper its reduced homology is zero and no chain
    is built.  The proper part of a D_n file with a top and more than one
    element is the open interval (bottom, top), Cohen-Macaulay like every
    interval of D_n, so its homology is |mu(bottom, top)| in degree
    rank(top) - 2: the signless Whitney number at that rank, the only one
    there, read off the spec's product (`dowling_whitney_numbers`) with no
    Mobius row and no order complex.  Every other file is reduced as it
    stands."""
    if not args.proper:
        p = poset_from_json(_poset_descriptor(args.poset))
        cone = 1 in (len(p.minimal_elements()), len(p.maximal_elements()))
        betti = {} if cone else reduced_homology(p)
    else:
        p, spec = _load_poset(args.poset)
        if spec is not None and p.n_elems > 1 and len(p.maximal_elements()) == 1:
            r = p.rank[p.top()]
            mu = dowling_whitney_numbers(spec.group, spec.orbit_data, spec.n)[r]
            betti = {r - 2: mu} if mu else {}
        else:
            betti = reduced_homology(proper_part(p))
    pairs = [[k, r] for k, r in sorted(betti.items())]
    if args.format == "csv":
        return _csv_text(["degree", "rank"], pairs)
    return _json_text({"proper": bool(args.proper), "betti": pairs})


def _cmd_poset_whitney(args) -> str:
    """Whitney homology: for a D_n file, whose lower intervals are all
    Cohen-Macaulay, the signless Whitney number w_r in bidegree (r, r),
    from the cycle-length product of its spec (`dowling_whitney_numbers`);
    for any other file, from the order complex of every lower interval."""
    p, spec = _load_poset(args.poset)
    if spec is None:
        table = whitney_homology(p)
    else:
        w = dowling_whitney_numbers(spec.group, spec.orbit_data, spec.n)
        table = {(r, r): wr for r, wr in enumerate(w) if wr}
    triples = [[r, k, d] for (r, k), d in sorted(table.items())]
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

def _cmd_rep_decompose(args) -> str:
    """The S_n characters of the Whitney homology of the file's D_n, from
    the cycle-length product of its spec (`dowling_whitney_characters`);
    `_load_poset` checks that the file is that D_n.  No order complex is
    built: every lower interval of D_n is a product of geometric lattices,
    so Cohen-Macaulay, and its homology lies in its top degree."""
    _check_nonnegative("rank", args.rank)
    p, spec = _load_poset(args.poset, provenance=True)
    out = []
    for r in sorted(set(p.rank)) if args.rank is None else [args.rank]:
        if spec.n:
            cf = dowling_whitney_characters(spec.group, spec.orbit_data, r, spec.n)[spec.n]
        else:  # D_0 is one point, of rank 0
            cf = ClassFunction.from_dict(0, {(): int(r == 0)})
        mult = decompose(cf)
        out.append(
            {
                "rank": r,
                "character": [[list(mu), v] for mu, v in cf.values],
                "multiplicities": [[list(lam), m] for lam, m in sorted(mult.items())],
            }
        )
    return _json_text({"action": args.action, "n": spec.n, "ranks": out})


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


# The largest top of a `rep stability` window, set from the 5 s budget of
# `series.NMAX_CAP`.  With `--cap` raised past every |D_n|, the work is the
# S_n character table: the slowest bundled window 1..18 (rank 9 of
# dowling_mu3) takes about 1.7 s on a shared 2-core VM, 1..19 about 3.5 s
# and 1..20 about 5 s.
WINDOW_CAP = 18


def _cmd_rep_stability(args) -> str:
    """Multiplicity stability of the rank-r Whitney characters over a window
    of n, with no poset: `--cap` is checked against the element counts of
    each D_n (`_check_window_cap`), then the top of the window against
    `WINDOW_CAP`, and the characters come from the cycle-length product
    (`dowling_whitney_characters`)."""
    _check_nonnegative("rank", args.rank)
    space = _load_space(args.spec)
    window = _parse_window(args.window)
    _check_window_cap(space.group, space.orbit_data, window, args.cap)
    if window[-1] > WINDOW_CAP:
        raise DomainError(f"window cap is {WINDOW_CAP}, got {window[-1]}")
    chars = dowling_whitney_characters(space.group, space.orbit_data, args.rank, window[-1])
    epsilon = None
    primary = iterate_report(space, "left", 1).steps[0]
    if primary.classification == "absolute" and primary.epsilon:
        epsilon = primary.epsilon
    report = stable_multiplicity_check({n: chars[n] for n in window}, degree=args.rank,
                                       epsilon=epsilon)
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
        "count": (_cmd_dowling_count, "enumerated count vs species count", [SPEC, N, CAP]),
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
        _check_nonnegative("cap", getattr(args, "cap", None))  # the commands with --cap
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
