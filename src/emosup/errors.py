"""Exception types shared across the toolkit, the one writer of
each output format (CSV, JSON) and the one reader of JSON input files."""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, Callable, Iterable

import numpy as np

_JSON_FORM = {"indent": 2, "sort_keys": True}  # the one JSON output form
_CSV_QUOTED = frozenset(',"\r\n')  # a CSV cell holding any of these is quoted


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
    """Write ``canonical_json(value)``, byte for byte, streamed so a large
    manifest or checkpoint is never one string. An ndarray value is written
    as its ``tolist()``, one 1-D row at a time."""
    _write_replacing(path, None, lambda f: stream_json(f.write, value))


def stream_json(write: Callable[[str], Any], value) -> None:
    """Pass ``canonical_json(value)`` to ``write``, piece by piece."""
    _write_json_node(write, value, "\n")
    write("\n")


def _write_replacing(path: str | Path, newline: str | None, fill: Callable) -> None:
    """``fill`` an open text file, UTF-8 whatever the locale, that then
    replaces the one at ``path``: it is a hidden sibling until ``fill``
    returns, so a write that fails leaves the old file as it was and no
    temporary file behind."""
    import os
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as f:
            fill(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json_node(write, value, newline: str) -> None:
    """Write ``value`` as json.dumps does under ``_JSON_FORM`` at the nesting
    whose line break (with indentation) is ``newline``. A non-empty list of
    finite floats is one joined ``float.__repr__`` string and a string is
    json's C-escaped text, as json would write them; an ndarray is its
    ``tolist()``, converted one 1-D row at a time; any other scalar or an
    empty container is json's own text, which the indent does not change; a
    dict with a non-string key is json's indented text, re-indented."""
    if isinstance(value, str):
        write(_json_string(value))
        return
    inner = newline + "  "
    if isinstance(value, (list, tuple)) and value:
        text = None
        if isinstance(value[0], float):
            try:
                text = ("," + inner).join(map(float.__repr__, value))
            except TypeError:  # a later item that is not a float
                pass
        if text is not None and "n" not in text:  # no nan or inf, which json spells out
            write("[" + inner + text + newline + "]")
            return
        write("[")
        for i, item in enumerate(value):
            write(("," if i else "") + inner)
            _write_json_node(write, item, inner)
        write(newline + "]")
    elif isinstance(value, dict) and value:
        if not all(isinstance(k, str) for k in value):
            # json escapes every line break inside a string, so only indents change
            write(json.dumps(value, **_JSON_FORM).replace("\n", newline))
            return
        write("{")
        for i, key in enumerate(sorted(value)):
            write(("," if i else "") + inner + _json_string(key) + ": ")
            _write_json_node(write, value[key], inner)
        write(newline + "}")
    elif isinstance(value, np.ndarray):  # its 1-D rows as lists, one at a time
        rows = list(value) if value.ndim > 1 else value.tolist()
        _write_json_node(write, rows, newline)
    else:  # the default encoder: no indent, so no per-call encoder to collect
        write(json.dumps(value))


def _csv_field(x) -> str:
    """One cell as csv's default dialect writes it, but a float (np.float64
    too) as ``float.__repr__``: None as nothing, any other value as ``str``,
    quoted when it holds a comma, a quote or a line break."""
    if isinstance(x, float):
        return float.__repr__(x)
    text = "" if x is None else str(x)
    if _CSV_QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """The header, then ``rows``, each as one joined line: the bytes
    ``csv.writer`` writes once every float cell (np.float64 too) is
    ``repr(float(x))``, which reads back to the same double."""
    def fill(f):
        for row in itertools.chain([header], rows):
            # a plain float, most cells of a float table, skips the call
            cells = [float.__repr__(x) if type(x) is float else _csv_field(x) for x in row]
            # csv quotes a row's one empty cell, so that the line is not blank
            f.write((",".join(cells) if cells != [""] else '""') + "\r\n")

    _write_replacing(path, "", fill)


def load_json_object(path: str | Path, parse: Callable[[dict], Any],
                     object_hook: Callable[[dict], Any] | None = None) -> Any:
    """``parse`` of the JSON object in the file at ``path``, read as UTF-8
    whatever the locale, each object of which ``object_hook`` (json's) may
    replace as the parser closes it. A file that is not UTF-8 JSON, holds no
    object at the top level, or that ``parse`` finds malformed (a KeyError,
    TypeError, AttributeError, ValueError, or the OverflowError of an integer
    too large for a float) raises ContractError naming the path. A
    ContractError of ``parse`` is raised again with the path before its
    message, so a parse never names the file itself."""
    with open(path, encoding="utf-8") as f:
        try:
            value = json.load(f, object_hook=object_hook)
            if isinstance(value, dict):
                return parse(value)
        except ContractError as exc:
            raise ContractError(f"{path}: {exc}") from exc
        except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
            raise ContractError(f"{path}: malformed ({type(exc).__name__}: {exc})") from exc
    raise ContractError(f"{path}: expected a JSON object at the top level, "
                        f"got {type(value).__name__}")
