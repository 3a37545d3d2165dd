"""Span tracer that wraps projgeo's functions from outside the package.

Nothing under ``src/`` is modified.  ``Tracer.install`` replaces, for the
duration of a traced phase, every function and method defined in the layer
modules with a recording wrapper, in every namespace that holds it: the
defining module, each module that re-bound it through ``from .x import f``,
the package namespace and module-level dicts such as ``suites.SUITES``.  The
LAPACK entry points the package calls through module attributes
(``numpy.linalg.svd/eigh/eigvalsh/qr`` and ``scipy.linalg.schur``) are wrapped
too and attributed to the ``numkernel`` layer.  ``uninstall`` restores every
original binding.

While ``recording`` is set, each wrapped call records one span (name, start,
end, parent span, op id) in flat typed arrays; ``save`` writes them out and
``SpanStats`` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("numkernel", "projections", "geodesics", "blockmodel", "suites", "serialize", "cli")

# (module, attribute) pairs of the LAPACK routines projgeo reaches via attribute access
LAPACK_ENTRIES = (
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "qr"),
    ("scipy.linalg", "schur"),
)
LAPACK_PREFIX = "numkernel.lapack."


def _mnk(a) -> float:
    """m * n * min(m, n) of a matrix argument: the computed cubic work of a
    dense factorization (stacked inputs count once per matrix)."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return float(batch * m * n * min(m, n))


def _owned_functions(module):
    """(qualified name, owner, attribute, function) for every plain function
    and class method whose code lives in ``module``'s source file."""
    filename = module.__file__
    out = []
    for attr, value in vars(module).items():
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            out.append((attr, module, attr, value))
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for mattr, mval in vars(value).items():
                # dataclass-generated methods are compiled from "<string>"
                if inspect.isfunction(mval) and mval.__code__.co_filename == filename:
                    out.append((f"{value.__name__}.{mattr}", value, mattr, mval))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}  # span name -> wrapped callable
        # spans are recorded only while an op runs, not while it is checked
        self.recording = False
        self.op_id = -1
        self.clear()

    # -- recording -----------------------------------------------------------

    def clear(self) -> None:
        self.name_col = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, lapack: bool):
        nid = self._name_id(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            stack = tr._stack
            idx = len(tr.start)
            tr.name_col.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.op.append(tr.op_id)
            tr.work.append(_mnk(args[0]) if lapack and args else 0.0)
            tr.end.append(0.0)
            stack.append(idx)
            tr.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                stack.pop()

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer function and the LAPACK entry points."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"projgeo.{layer}") for layer in LAYERS]
        replacement: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for qual, owner, attr, fn in _owned_functions(module):
                name = f"{layer}.{qual}"
                wrapper = self._wrap(fn, name, lapack=False)
                replacement[id(fn)] = wrapper
                self.originals[name] = fn
                self._set(owner, attr, wrapper)
        for modname, attr in LAPACK_ENTRIES:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            name = LAPACK_PREFIX + attr
            wrapper = self._wrap(fn, name, lapack=True)
            self.originals[name] = fn
            self._set(module, attr, wrapper)
        # re-bound copies: `from .numkernel import op_norm`, the package
        # namespace, and module-level tables of functions
        pkg_modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "projgeo" or n.startswith("projgeo."))]
        for module in pkg_modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in replacement:
                    self._set(module, attr, replacement[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replacement:
                            self._set(value, key, replacement[id(item)])

    def uninstall(self) -> None:
        """Restore every binding replaced by ``install``, newest first."""
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans as an ``.npz`` with a ``names`` table."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Reductions over recorded spans: per-name and per-layer call counts and
    self times (duration minus the time covered by child spans)."""

    def __init__(self, names, arrays: dict[str, np.ndarray]):
        self.names = [str(n) for n in names]
        self.name = arrays["name"]
        self.parent = arrays["parent"]
        self.work = arrays["work"]
        dur = arrays["end"] - arrays["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self.dur = dur
        self.self_time = dur - child
        k = len(self.names)
        self.calls_by_name = np.bincount(self.name, minlength=k)
        self.self_by_name = np.bincount(self.name, weights=self.self_time, minlength=k)
        self.layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names],
                                      dtype=np.int64)

    @classmethod
    def of(cls, tracer: Tracer) -> "SpanStats":
        return cls(tracer.names, tracer.arrays())

    @classmethod
    def load(cls, path) -> "SpanStats":
        """Stats of a spans file written by ``Tracer.save``."""
        with np.load(path) as data:
            return cls(data["names"], {k: data[k] for k in data.files if k != "names"})

    def calls(self, name: str) -> int:
        if name not in self.names:
            return 0
        return int(self.calls_by_name[self.names.index(name)])

    def self_s(self, name: str) -> float:
        if name not in self.names:
            return 0.0
        return float(self.self_by_name[self.names.index(name)])

    def _layer_mask(self, layer: str) -> np.ndarray:
        return self.layer_of_name == LAYERS.index(layer)

    def layer_calls(self, layer: str) -> int:
        return int(self.calls_by_name[self._layer_mask(layer)].sum())

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_by_name[self._layer_mask(layer)].sum())

    def lapack(self) -> tuple[int, float]:
        """(call count, summed m*n*min(m, n)) over the LAPACK spans."""
        ids = [i for i, n in enumerate(self.names) if n.startswith(LAPACK_PREFIX)]
        mask = np.isin(self.name, ids)
        return int(mask.sum()), float(self.work[mask].sum())

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` with a span of ``ancestor`` above them."""
        if name not in self.names or ancestor not in self.names:
            return 0
        nid, aid = self.names.index(name), self.names.index(ancestor)
        count = 0
        for i in np.flatnonzero(self.name == nid):
            j = self.parent[i]
            while j >= 0 and self.name[j] != aid:
                j = self.parent[j]
            count += j >= 0
        return int(count)

    def root_time_s(self) -> float:
        return float(self.dur[self.parent < 0].sum())
