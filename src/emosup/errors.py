"""Exception types shared across the toolkit, the one writer of
each output format (CSV, JSON) and the one reader of JSON input files."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Callable, Iterable

_JSON_FORM = {"indent": 2, "sort_keys": True}  # the one JSON output form


class ContractError(ValueError):
    """An input violates an operation's precondition (shape, range, symmetry...)."""


class NumericalError(ArithmeticError):
    """A computation produced or received non-finite values and was aborted."""


class GenerationError(RuntimeError):
    """Synthetic-world construction failed (e.g. rank-deficient mixing map)."""


def canonical_json(value) -> str:
    """The text ``write_json`` writes: indent 2, sorted keys, a trailing newline."""
    return json.dumps(value, **_JSON_FORM) + "\n"


def write_json(path: str | Path, value) -> None:
    with open(path, "w") as f:  # streamed, so a large manifest is never one string
        json.dump(value, f, **_JSON_FORM)
        f.write("\n")


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """The header, then ``rows``. A float cell (np.float64 too) is written as
    ``repr(float(x))``, which reads back to the same double; any other as csv does."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, float) else x for x in row]
                         for row in rows)


def load_json_object(path: str | Path, parse: Callable[[dict], Any]) -> Any:
    """``parse`` of the JSON object in the file at ``path``. A file that is not
    JSON, holds no object at the top level, or that ``parse`` finds malformed
    (a KeyError, TypeError, AttributeError or ValueError) raises ContractError
    naming the path; a ContractError of ``parse`` passes through unchanged."""
    with open(path) as f:
        try:
            value = json.load(f)
            if not isinstance(value, dict):
                raise ContractError(f"{path}: expected a JSON object at the top level, "
                                    f"got {type(value).__name__}")
            return parse(value)
        except ContractError:
            raise
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise ContractError(f"{path}: malformed ({type(exc).__name__}: {exc})") from exc
