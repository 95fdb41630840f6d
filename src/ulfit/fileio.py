"""Atomic output files, the JSON reader, and the rule for JSON numbers.

Every file the command line writes goes through ``atomic_open``: the
content is written to ``<path>.tmp`` and moved over ``path`` with
``os.replace`` only once the write has finished, so a failure part way
leaves the previous file intact and no temporary file behind. Every JSON
file goes through ``write_json``, which fixes its layout. Every JSON
document read, a scenario, a fit or a sidecar, goes through
``read_json``, and every number read from one, a scenario's or a fit's,
through ``finite_number``.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

from .errors import ParseError

__all__ = ["atomic_open", "write_json", "read_json", "finite_number"]


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``<path>.tmp`` for writing and replace ``path`` with it on exit.

    Args:
        path: final file path.
        mode: "w" for UTF-8 text (newlines written as given) or "wb".

    Yields:
        The open temporary file.

    Raises:
        OSError: naming ``path``, not ``<path>.tmp``, if either is unwritable.
    """
    path = str(path)
    tmp = f"{path}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def write_json(path, doc) -> None:
    """Write ``doc`` atomically as JSON: indent 2, sorted keys, final newline."""
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The JSON document in the UTF-8 file at ``path``.

    Raises:
        ParseError: naming the path, if the file is not UTF-8 or not JSON.
            An OSError from opening or reading it propagates.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParseError(f"{path}: {exc}") from exc


def finite_number(val) -> float | None:
    """A JSON number as a finite float, None for anything else.

    Strings, booleans and integers too large for a float are not numbers
    here, so no document value is coerced.
    """
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        x = float(val)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None
