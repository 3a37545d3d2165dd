"""JSON file formats and a byte-deterministic dumper.

Matrix schema: ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
entries row-major.  Reports are emitted through ``dumps_canonical``, which
formats every float with 17 significant digits so identical inputs produce
byte-identical output.  A float array renders in chunks of rows, each in one
``%`` call through a template per chunk length, to the bytes of its ``tolist()``;
``csv_rows`` formats sample rows the same way.  Pair files stream, holding one
chunk's text at a time to write and one matrix's number lists to read,
flattened once to be checked and read; the reader pauses the cyclic collector.
"""

from __future__ import annotations

import gc
import json
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from .numkernel import as_cmatrix


def matrix_to_json(m) -> dict:
    m = as_cmatrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.ascontiguousarray(m).view(np.float64).reshape(-1, 2),
    }


_NUMBERS = {int, float}  # not bool: JSON's true and false are no numbers
_NOT_PAIRS = "matrix data entries must be [re, im] pairs of numbers"


def matrix_from_json(obj) -> np.ndarray:
    """The matrix of an object in the schema above; a ``ValueError`` names
    the first way ``obj`` departs from it."""
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= obj.keys():
        raise ValueError("a matrix must be an object with rows, cols and data")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not all(type(v) is int and v >= 0 for v in (rows, cols)):
        raise ValueError(f"rows and cols must be ints >= 0, got {rows!r} and {cols!r}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"matrix data must be a list of {rows * cols} entries")
    if not (
        set(map(type, data)) <= {list}
        and set(map(len, data)) <= {2}
        and set(map(type, flat := list(chain.from_iterable(data)))) <= _NUMBERS
    ):
        raise ValueError(_NOT_PAIRS)
    try:
        array = np.fromiter(flat, float, len(flat))
    except OverflowError:  # an int beyond the float range
        raise ValueError(_NOT_PAIRS) from None
    return as_cmatrix(array.view(np.complex128).reshape(rows, cols))


def write_pair(path, p, q) -> None:
    pair = {"P": matrix_to_json(p), "Q": matrix_to_json(q)}  # checked before the file opens
    with open(path, "w") as handle:
        handle.writelines(chain(_parts(pair, 0), "\n"))


def _early_matrix(obj: dict):
    """The array of a valid matrix with no other keys, else ``obj``."""
    try:
        return matrix_from_json(obj) if obj.keys() == {"rows", "cols", "data"} else obj
    except ValueError:  # read_pair judges it, if it is P or Q
        return obj


def read_pair(path) -> tuple[np.ndarray, np.ndarray]:
    """The matrices ``P`` and ``Q`` of a pair file.  The parse pauses the cyclic
    collector, whose passes over its many small lists could free nothing: JSON
    makes no reference cycles.  The caller's setting is restored afterwards.  A
    file that nests past the parser's recursion limit raises ``ValueError``."""
    text = Path(path).read_text()
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj = json.loads(text, object_hook=_early_matrix)
    except RecursionError:
        raise ValueError("pair file nests deeper than the JSON parser allows") from None
    finally:
        if enabled:
            gc.enable()
    if not isinstance(obj, dict) or not {"P", "Q"} <= obj.keys():
        raise ValueError("a pair must be an object with P and Q")
    p, q = (m if isinstance(m, np.ndarray) else matrix_from_json(m) for m in (obj["P"], obj["Q"]))
    return p, q


_FLOAT = "%.17g"
_CHUNK_ENTRIES = 4096  # floats per ``%`` call: bounds what a pair file's write holds


def _format_scalar(x) -> str:
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not np.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        return _FLOAT % float(x)
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x)!r}")


def _array_template(shape: tuple, indent: int) -> str:
    """The text ``dumps_canonical`` gives a nested list of this shape, with
    a float placeholder for each entry."""
    if not shape:
        return _FLOAT
    if not shape[0]:
        return "[]"
    item = " " * (indent + 2) + _array_template(shape[1:], indent + 2)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + " " * indent + "]"


def _array_parts(a: np.ndarray, indent: int) -> Iterator[str]:
    """A float array's text in parts of ``_CHUNK_ENTRIES`` entries or one row each."""
    if a.ndim == 0 or not len(a):
        yield _array_template(a.shape, indent) % tuple(a.ravel().tolist())
        return
    item = " " * (indent + 2) + _array_template(a.shape[1:], indent + 2)
    rows = max(1, _CHUNK_ENTRIES // max(a[0].size, 1))
    full = ",\n".join([item] * rows)
    for start in range(0, len(a), rows):
        chunk = a[start:start + rows]
        template = full if len(chunk) == rows else ",\n".join([item] * len(chunk))
        yield (",\n" if start else "[\n") + template % tuple(chunk.ravel().tolist())
    yield "\n" + " " * indent + "]"


def csv_rows(rows: np.ndarray) -> str:
    """The lines ``csv.writer`` writes for the rows of a 2-d float array
    formatted with 17 significant digits."""
    line = ",".join([_FLOAT] * rows.shape[1]) + "\r\n"
    return (line * rows.shape[0]) % tuple(rows.ravel().tolist())


def dumps_canonical(obj) -> str:
    """JSON text with floats pinned to 17 significant digits.

    Dict insertion order is preserved, so a report built the same way
    serializes to the same bytes.  A real float ``ndarray`` renders as its
    ``tolist()`` would.
    """
    return "".join(_parts(obj, 0))


def _parts(obj, indent: int) -> Iterator[str]:
    """The text of ``obj`` at this indent, in parts: brackets, heads with scalars, float arrays."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        finite = np.isfinite(obj)
        if not finite.all():
            _format_scalar(obj[~finite][0].item())  # raises
        yield from _array_parts(obj, indent)
    elif not isinstance(obj, (dict, list, tuple)):
        yield _format_scalar(obj)
    elif not len(obj):
        yield "{}" if isinstance(obj, dict) else "[]"
    else:
        keyed = isinstance(obj, dict)
        heads = (f"{json.dumps(str(k))}: " for k in obj) if keyed else repeat("")
        sep, inner = "{\n" if keyed else "[\n", " " * (indent + 2)
        for head, v in zip(heads, obj.values() if keyed else obj):
            if isinstance(v, (dict, list, tuple, np.ndarray)):
                yield sep + inner + head
                yield from _parts(v, indent + 2)
            else:  # a scalar joins its head: no generator per scalar
                yield sep + inner + head + _format_scalar(v)
            sep = ",\n"
        yield "\n" + " " * indent + ("}" if keyed else "]")
