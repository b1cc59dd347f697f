"""Exception types shared across the toolkit, and how a message prints a
number.

The CLI maps InputError to exit code 2 and SolverError to exit code 3.
"""


class Nh3EconError(Exception):
    """Base class for all toolkit errors."""


class InputError(Nh3EconError):
    """Invalid user input: bad values, malformed files, unknown keys."""


class SolverError(Nh3EconError):
    """The LP solver failed to terminate normally."""


def number_text(value: float) -> str:
    """A number as a message prints it: as `:g` writes it where that reads
    back as the same float and is no longer than its repr, else as its repr,
    so that a message never rounds the value it names into a tabulated one
    and never writes a subnormal at more digits than it was given."""
    text = f"{value:g}"
    return text if float(text) == value and len(text) <= len(repr(value)) else repr(value)
