"""Exception and warning types shared across the toolkit, and the reader
of JSON input files that refuses a file holding no JSON object."""

from __future__ import annotations

import json
from pathlib import Path


class ContractError(ValueError):
    """An input violates an operation's precondition (shape, range, symmetry...)."""


class NumericalError(ArithmeticError):
    """A computation produced or received non-finite values and was aborted."""


class GenerationError(RuntimeError):
    """Synthetic-world construction failed (e.g. rank-deficient mixing map)."""


class FrozenParameterError(RuntimeError):
    """Attempted update of a frozen checkpoint's parameters."""


class DegenerateVectorWarning(UserWarning):
    """A (near-)zero-norm vector entered a similarity computation; the
    convention sim = 0 was applied instead of producing NaN."""


def load_json_object(path: str | Path) -> dict:
    """The JSON object in the file at ``path``. A file whose top level is
    another JSON value (an array, a number...) raises ContractError naming
    the path, before any caller indexes into it."""
    with open(path) as f:
        value = json.load(f)
    if not isinstance(value, dict):
        raise ContractError(f"{path}: expected a JSON object at the top level, "
                            f"got {type(value).__name__}")
    return value
