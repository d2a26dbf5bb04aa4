"""The validating record classes: GroupTable, GSetSpec, WreathElement,
DowlingSpec, WeightedSeries, SpaceInput and ClassFunction.  They compare and
hash by their fields, refuse each invalid input with its own message, and
importing the command line loads no code generator for them."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ocs
from ocs.dowling import DowlingSpec, spec_partition
from ocs.errors import InputError
from ocs.groups import GroupTable, GSetSpec, WreathElement, cyclic_group, group_from_table
from ocs.series import SpaceInput, WeightedSeries
from ocs.symrep import ClassFunction

Z2 = cyclic_group(2)
KLEIN = group_from_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


def _group():
    return cyclic_group(3)


def _gset():
    return GSetSpec(group=Z2, size=2, action=((0, 1), (1, 0)), t_subset=frozenset({0, 1}))


def _spec():
    spec = spec_partition(3)
    return DowlingSpec(spec.group, spec.gset, 3, "partition")


# (constructor of a fresh object, the fields its constructor takes)
RECORDS = [
    pytest.param(_group, ("order", "mul", "identity", "inv"), id="GroupTable"),
    pytest.param(_gset, ("group", "size", "action", "t_subset"), id="GSetSpec"),
    pytest.param(lambda: WreathElement(colors=(0, 1), perm=(1, 0)), ("colors", "perm"),
                 id="WreathElement"),
    pytest.param(_spec, ("group", "gset", "n", "name"), id="DowlingSpec"),
    pytest.param(lambda: WeightedSeries(2, 2, {(1, 0, 1): Fraction(1, 2)}),
                 ("w", "trunc", "_dims"), id="WeightedSeries"),
    pytest.param(lambda: SpaceInput((1, 0, 1), Z2, ((Z2, True),), False, "plane"),
                 ("betti", "group", "orbit_data", "i_acyclic", "name"), id="SpaceInput"),
    pytest.param(lambda: ClassFunction.from_dict(2, {(2,): 1, (1, 1): Fraction(-1, 2)}),
                 ("m", "values"), id="ClassFunction"),
]


@pytest.mark.parametrize("make,fields", RECORDS)
def test_records_compare_and_hash_by_their_fields(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if isinstance(a, WeightedSeries):  # mutable: comparable, not hashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for field in fields:
        changed = make()
        # each field is read back under its constructor name
        assert getattr(changed, field) == getattr(a, field)
        object.__setattr__(changed, field, object())
        assert a != changed and changed != a, field
    assert a != tuple(getattr(a, f) for f in fields)


def test_a_spec_remembers_its_cached_tables_apart_from_its_value():
    a, b = _spec(), _spec()
    assert a._orbit_table == b._orbit_table
    assert "_orbit_table" in vars(a) and "_orbit_table" not in vars(_spec())
    assert a == _spec() and hash(a) == hash(_spec())


@pytest.mark.parametrize("build,message", [
    (lambda: GroupTable(0, (), 0, ()), "group order must be positive"),
    (lambda: GroupTable(2, ((0, 1),), 0, (0, 1)), "multiplication table must be order x order"),
    (lambda: GroupTable(2, ((0, 1), (1, 2)), 0, (0, 1)), "table entry out of range"),
    (lambda: GroupTable(2, ((0, 1), (1, 0)), 1, (1, 0)), "identity is not two-sided"),
    (lambda: GroupTable(2, ((0, 1), (1, 0)), 0, (0, 0)), "inverse table is not two-sided"),
    (lambda: GroupTable(3, ((0, 1, 2), (1, 0, 0), (2, 0, 0)), 0, (0, 1, 2)),
     "multiplication table is not associative"),
    (lambda: GSetSpec(Z2, -1, ((), ()), frozenset()), "G-set size must be nonnegative"),
    (lambda: GSetSpec(Z2, 1, ((0,),), frozenset()), "action table must be order x size"),
    (lambda: GSetSpec(Z2, 1, ((0,), (1,)), frozenset()), "action entry out of range"),
    (lambda: GSetSpec(Z2, 2, ((1, 0), (0, 1)), frozenset()), "identity must act trivially"),
    (lambda: GSetSpec(Z2, 2, ((0, 1), (0, 0)), frozenset()),
     "group element 1 does not act by a permutation"),
    (lambda: GSetSpec(cyclic_group(3), 2, ((0, 1), (1, 0), (1, 0)), frozenset()),
     "action is not a group homomorphism"),
    (lambda: GSetSpec(Z2, 1, ((0,), (0,)), frozenset({1})), "T contains a point outside S"),
    (lambda: GSetSpec(Z2, 2, ((0, 1), (1, 0)), frozenset({0})), "T is not G-invariant"),
    (lambda: WreathElement((0,), (0, 1)), "colors and perm must have equal length"),
    (lambda: WreathElement((0, 0), (0, 0)), "perm is not a bijection"),
    (lambda: DowlingSpec(_spec().group, _spec().gset, -1), "ground set size must be nonnegative"),
    (lambda: DowlingSpec(Z2, _spec().gset, 2), "gset must act under the same group"),
    (lambda: WeightedSeries(0, 1), "weight must be a positive group order"),
    (lambda: WeightedSeries(1, -1), "truncation order must be nonnegative"),
    (lambda: WeightedSeries(1, 1, {(2, 0, 0): 1}), "coefficient beyond truncation order"),
    (lambda: WeightedSeries(1, 1, {(0, -1, 0): 1}), "negative exponent"),
    (lambda: SpaceInput((0,), Z2, (), True), "betti table must have a nonzero entry"),
    (lambda: SpaceInput((1, -1), Z2, (), True), "betti numbers must be nonnegative"),
    (lambda: SpaceInput((1,), Z2, ((cyclic_group(3), False),), True),
     "orbit stabilizer order must divide the group order"),
    (lambda: SpaceInput((1,), cyclic_group(4), ((KLEIN, False),), True),
     "orbit stabilizer is not isomorphic to a subgroup of the group"),
    (lambda: ClassFunction(2, (((2,), Fraction(1)), ((2,), Fraction(1)))),
     "duplicate conjugacy class in class function"),
    (lambda: ClassFunction(2, (((2,), Fraction(1)),)),
     "class function must be defined on all partitions of 2"),
])
def test_each_construction_check_keeps_its_message(build, message):
    with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
        build()


def test_importing_the_cli_loads_no_code_generator():
    # `dataclasses` (and the `inspect` it imports) cost about a quarter of
    # the start-up of every `ocs` process
    script = ("import sys, ocs.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ocs.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
