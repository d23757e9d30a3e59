"""Exception taxonomy and number predicates shared across the package.

CLI exit codes: config problems exit 2, data problems exit 3, verification
failures exit 4 (see cli.main).
"""

import numbers

import numpy as np


def is_int(value) -> bool:  # a bool is an int to Python, but not here
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:  # nor is it a real number here
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class GscnetError(Exception):
    """Base class for all package errors."""


class InputError(GscnetError, ValueError):
    """Structurally invalid argument: bad index, shape mismatch, bad range."""


class DegenerateInputError(InputError):
    """Input is well-formed but degenerate for the operation (e.g. no edges)."""


class DataError(GscnetError):
    """Malformed or inconsistent dataset files; carries file/line context."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}"
            if line is not None:
                loc += f":{line}"
            loc = f" [{loc}]"
        super().__init__(message + loc)
        self.path = path
        self.line = line


class ConfigError(GscnetError):
    """Invalid experiment configuration."""
