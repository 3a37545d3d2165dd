"""JSON file formats and a byte-deterministic dumper.

Matrix schema: ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
entries row-major.  Reports are emitted through ``dumps_canonical``, which
formats every float with 17 significant digits so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .numkernel import as_cmatrix


def matrix_to_json(m) -> dict:
    m = as_cmatrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(
            f"matrix data has {len(data)} entries, expected {rows * cols}"
        )
    flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    return as_cmatrix(flat.reshape(rows, cols))


def pair_to_json(p, q) -> dict:
    return {"P": matrix_to_json(p), "Q": matrix_to_json(q)}


def pair_from_json(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    return matrix_from_json(obj["P"]), matrix_from_json(obj["Q"])


def write_pair(path, p, q) -> None:
    Path(path).write_text(dumps_canonical(pair_to_json(p, q)) + "\n")


def read_pair(path) -> tuple[np.ndarray, np.ndarray]:
    return pair_from_json(json.loads(Path(path).read_text()))


def _format_scalar(x) -> str:
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not np.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        return format(float(x), ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x)!r}")


def dumps_canonical(obj, indent: int = 0) -> str:
    """JSON text with floats pinned to 17 significant digits.

    Dict insertion order is preserved, so a report built the same way
    serializes to the same bytes.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_canonical(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{dumps_canonical(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _format_scalar(obj)
