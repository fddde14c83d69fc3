"""Exception taxonomy shared by the library and the command line tool.

The CLI maps these onto process exit codes: UsageError -> 2,
PreconditionError -> 3, SolverError -> 4.
"""


class UsageError(Exception):
    """Malformed input: mesh file, scenario JSON, bad CLI arguments."""


class PreconditionError(Exception):
    """Mathematical precondition violated (sign condition, compatibility,
    non-harmonic input where harmonicity is required)."""


class SolverError(Exception):
    """Numerical failure: a singular factorization or a collapsed time
    step."""
