"""Error taxonomy shared by the library and the CLI.

Each class carries the process exit code the CLI maps it to, so library
call sites can raise the precise failure kind without knowing about the CLI.
SearchPassCapWarning is a warning, not an error: a run that emits it goes on.
"""


class BalletError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(BalletError):
    """Invalid configuration: bad flag values, inconsistent options."""

    exit_code = 2


class DataIOError(BalletError):
    """Missing, unreadable, or malformed input files."""

    exit_code = 3


class NumericError(BalletError):
    """Numeric failure: non-finite values where finite ones are required."""

    exit_code = 4


class InfeasibleError(BalletError):
    """Structurally valid inputs that do not fit together (e.g. size mismatch)."""

    exit_code = 5


class SearchPassCapWarning(UserWarning):
    """A search restart stopped at its sweetening pass cap while points still moved."""
