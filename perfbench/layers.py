"""Outside-in layer trace of the qfock package.

``LayerTrace`` replaces the public functions and methods of the library
modules with timing wrappers, inside the calling process only, and puts the
originals back on exit.  Every call becomes a span (name, parent, start,
end) kept in compact in-memory arrays; nothing is written until the caller
asks for it.  Counters that must repeat exactly between runs (calls, reuse
keys, computed floating-point work) are gathered at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import itertools
import time
import weakref
from array import array

import numpy as np

LIBRARY_MODULES = ("spaces", "fock", "wick", "quantize", "toeplitz", "haagerup")

# Accessors that only return a cached array or an int: wrapping them would
# cost more than the work they do and would hide nothing worth timing.
SKIPPED = {
    ("fock", "FockContext", "block_size"),
    ("fock", "FockContext", "sym"),
    ("fock", "FockContext", "metric"),
    ("fock", "FockContext", "metric_diag_free"),
    ("fock", "GradedOperator", "block"),
}

# Methods renamed so that the span name says what the user wrote.
RENAMED = {"__init__": None, "__matmul__": "matmul"}


def _matmul_flops(left, right) -> int:
    """Real floating-point operations of the block GEMMs in ``left @ right``
    (complex blocks: 8 per multiply-add)."""
    cols_by_in = {}
    for (p, _n), B in right.blocks.items():
        cols_by_in[p] = cols_by_in.get(p, 0) + B.shape[1]
    total = 0
    for (_m, p), A in left.blocks.items():
        cols = cols_by_in.get(p)
        if cols:
            total += 8 * A.shape[0] * A.shape[1] * cols
    return total


def _adjoint_flops(op) -> int:
    """``metric_inv(n) @ B^H @ metric(m)`` per block of shape (r, c)."""
    total = 0
    for B in op.blocks.values():
        r, c = B.shape
        total += 8 * r * c * (r + c)
    return total


class LayerTrace:
    """Context manager that traces calls into the library modules.

    ``span(name)`` opens a span from the caller's side (used for the
    per-suite ``reports`` spans); everything else is recorded by wrappers.
    """

    def __init__(self, package):
        self._package = package
        self.names = []
        self._index = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_nested = array("b")  # inside a span of the same name
        self._stack = [-1]
        self._active = []
        self._patches = []
        self.keys = {}
        self.flops = {}
        self._serials = weakref.WeakKeyDictionary()
        self._serial_counter = itertools.count()

    # -- span recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._index[name]

    def _open(self, idx: int) -> int:
        span = len(self.span_start)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1])
        self.span_nested.append(1 if self._active[idx] else 0)
        self._active[idx] += 1
        self._stack.append(span)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        return span

    def _close(self, span: int, idx: int) -> None:
        self.span_end[span] = time.perf_counter()
        self._active[idx] -= 1
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._name_id(name)
        span = self._open(idx)
        try:
            yield
        finally:
            self._close(span, idx)

    def serial(self, ctx) -> int:
        """Stable per-run number of a context object, in order of first use."""
        value = self._serials.get(ctx)
        if value is None:
            value = next(self._serial_counter)
            self._serials[ctx] = value
        return value

    # -- instrumentation -----------------------------------------------------

    def _wrap(self, name: str, fn, key=None, flops=None):
        idx = self._name_id(name)
        open_, close = self._open, self._close
        keys = self.keys.setdefault(name, set()) if key else None
        if flops:
            self.flops.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span, idx)
                if key:
                    keys.add(key(*args, **kwargs))
                if flops:
                    self.flops[name] += flops(*args)

        return wrapper

    def _extras(self, name: str):
        """Reuse-key and flop functions for the layers that have them."""
        degree_key = lambda ctx, n: (self.serial(ctx), n)  # noqa: E731
        extras = {
            "fock.metric_inv": {"key": degree_key},
            "fock.metric_sqrt": {"key": degree_key},
            "fock.metric_invsqrt": {"key": degree_key},
            "haagerup.degree_norms": {"key": lambda ctx, T: (
                self.serial(ctx), np.asarray(T).shape, np.asarray(T).dtype.str,
                hashlib.sha1(np.ascontiguousarray(T).tobytes()).hexdigest())},
            "fock.matmul": {"flops": _matmul_flops},
            "fock.adjoint": {"flops": _adjoint_flops},
        }
        return extras.get(name, {})

    def _targets(self):
        """(owner, attribute, span name, raw attribute) for every public
        function and method defined in the library modules."""
        targets = []
        functions = {}
        for modname in LIBRARY_MODULES:
            module = getattr(self._package, modname)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    functions[(modname, attr)] = obj
                    targets.append((module, attr, f"{modname}.{attr}", obj))
        methods = []
        for modname in LIBRARY_MODULES:
            module = getattr(self._package, modname)
            for cls_name, cls in vars(module).items():
                if cls_name.startswith("_") or not inspect.isclass(cls) \
                        or cls.__module__ != module.__name__:
                    continue
                for attr, raw in vars(cls).items():
                    if (modname, cls_name, attr) in SKIPPED:
                        continue
                    if attr in RENAMED:
                        short = RENAMED[attr] or cls_name
                    elif attr.startswith("_"):
                        continue
                    else:
                        short = attr
                    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if not inspect.isfunction(func) or inspect.isgeneratorfunction(func):
                        continue
                    methods.append((modname, cls_name, short, cls, attr, raw))
        # a method keeps its short name unless a function or another method
        # of the same module has it already
        taken = {}
        for modname, _cls_name, short, *_ in methods:
            taken[(modname, short)] = taken.get((modname, short), 0) + 1
        for modname, cls_name, short, cls, attr, raw in methods:
            if (modname, short) in functions or taken[(modname, short)] > 1:
                short = f"{cls_name}.{short}"
            targets.append((cls, attr, f"{modname}.{short}", raw))
        return targets

    def __enter__(self):
        originals = {}
        for owner, attr, name, raw in self._targets():
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapped = self._wrap(name, func, **self._extras(name))
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if inspect.ismodule(owner):
                originals[id(raw)] = wrapped
        # names imported with ``from .module import name`` are bound again in
        # every importing module; point those bindings at the wrappers too
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and getattr(module, attr) is not originals[id(obj)]:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, originals[id(obj)])
        return self

    def _modules(self):
        yield self._package
        for name in dir(self._package):
            obj = getattr(self._package, name)
            if inspect.ismodule(obj) and obj.__name__.startswith(self._package.__name__ + "."):
                yield obj

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        return False

    # -- aggregation -----------------------------------------------------------

    def stats(self) -> dict:
        """Per span name: calls, self_s (span minus child spans) and total_s
        (outermost spans of that name only, so recursion is not counted twice)."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        total_s = [0.0] * n_names
        child = [0.0] * len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends, nested = self.span_start, self.span_end, self.span_nested
        for span in range(len(starts) - 1, -1, -1):
            dur = ends[span] - starts[span]
            idx = names[span]
            calls[idx] += 1
            self_s[idx] += dur - child[span]
            if not nested[span]:
                total_s[idx] += dur
            if parents[span] >= 0:
                child[parents[span]] += dur
        return {name: {"calls": calls[i], "self_s": self_s[i], "total_s": total_s[i]}
                for i, name in enumerate(self.names)}

    def covered_s(self) -> float:
        """Seconds inside the outermost library spans: spans whose parent is
        a caller-side ``reports.*`` span or that have no parent."""
        outer = {i for i, name in enumerate(self.names) if name.startswith("reports.")}
        total = 0.0
        for span in range(len(self.span_start)):
            if self.span_name[span] in outer:
                continue
            parent = self.span_parent[span]
            if parent < 0 or self.span_name[parent] in outer:
                total += self.span_end[span] - self.span_start[span]
        return total

    def reuse_ratio(self, name: str, stats: dict) -> float:
        """Distinct keys per call, given ``stats()``; 1.0 when nothing is
        recomputed, and when the layer was not called."""
        calls = stats.get(name, {}).get("calls", 0)
        return len(self.keys.get(name, ())) / calls if calls else 1.0

    def save(self, path: str) -> None:
        """Write every span (compressed arrays) for offline inspection."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
