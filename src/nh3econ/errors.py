"""Exception types shared across the toolkit.

The CLI maps InputError to exit code 2 and SolverError to exit code 3.
"""


class Nh3EconError(Exception):
    """Base class for all toolkit errors."""


class InputError(Nh3EconError):
    """Invalid user input: bad values, malformed files, unknown keys."""


class SolverError(Nh3EconError):
    """The LP solver failed to terminate normally."""
