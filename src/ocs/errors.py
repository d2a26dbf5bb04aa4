"""Error taxonomy shared across the package.

Two kinds of failure are distinguished so the command line front end can
map them to distinct exit codes:

* ``InputError``: the caller handed us something malformed (bad JSON,
  broken invariants, values out of range).  CLI exit code 2.
* ``DomainError``: the input was well formed but the requested operation
  refuses on mathematical grounds (a cap was exceeded, a poset is not
  bounded, a space is not i-acyclic).  CLI exit code 1.
"""


class InputError(ValueError):
    """Malformed or invalid input supplied by the caller."""


class DomainError(RuntimeError):
    """Well-formed input for which the operation declines to produce a result."""


class CapExceeded(DomainError):
    """An enumeration grew past its configured cap.

    Attributes:
        partial_count: number of elements discovered before giving up.
    """

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


def is_int(obj) -> bool:
    """Whether a parsed JSON value is an integer: true and false, which
    Python counts as the ints 1 and 0, are not.  Parsed JSON holds no
    subclass of int but bool, so the exact type decides."""
    return type(obj) is int


def is_int_list(obj, length: int | None = None) -> bool:
    """Whether a parsed JSON value is a list of integers (of the given length)."""
    return (type(obj) is list and (length is None or len(obj) == length)
            and all(type(v) is int for v in obj))
