"""Span tracer that instruments xlingmap from the outside.

:func:`install` replaces every public function and method of the package's
modules with a wrapper that records a span: name, start, end, parent span
and a few shape attributes read from the arguments. Functions imported by
name into another module (``from .sampling import sample_batch``) are
patched where they are looked up as well, so every call path is seen.

Wrappers only read clocks and argument shapes: they draw from no ``Rng``
and change no value, so a traced run follows exactly the trajectory of an
untraced one. Spans are kept in memory and written out once, at the end.
"""
from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from array import array
from contextlib import contextmanager

# The repository's layers, in dependency order.
MODULES = ("embed_io", "numerics", "layers", "models", "optim", "sampling",
           "training", "evaluation", "cli")

def _rows(args):
    return {"rows": int(args[1].shape[0])}


def _block(args):
    return {"rows": int(args[1].shape[0]), "k": int(args[0].weight.value.shape[0])}


def _draws(args, kwargs):
    size = kwargs.get("size", args[1] if len(args) > 1 else None)
    if size is None:
        return {"draws": 1}
    return {"draws": math.prod(size) if isinstance(size, tuple) else int(size)}


# Attributes recorded per span name; each reads shapes or paths, nothing else.
ATTRIBUTES = {
    "models.Discriminator.forward": lambda a, k: _rows(a),
    "models.Discriminator.backward": lambda a, k: _rows(a),
    "layers.ResBlock.forward": lambda a, k: _block(a),
    "layers.ResBlock.backward": lambda a, k: _block(a),
    "numerics.Rng.uniform": _draws,
    "numerics.Rng.normal": _draws,
    "embed_io.load_embeddings": lambda a, k: {"path": str(a[0])},
    "embed_io.save_embeddings": lambda a, k: {"path": str(a[1])},
}


class Tracer:
    """In-memory span recorder.

    Spans are stored column-wise, in flat arrays of numbers and a list of
    names, so that recording creates no container object the garbage
    collector would have to walk. ``labels`` maps ``id(obj)`` to a
    role name the caller assigns (for example which optimizer an ``Adam``
    is); method spans on a labelled object carry that role.
    """

    def __init__(self):
        self.names: list = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.attrs: dict = {}     # span index -> attributes, for spans with any
        self.stack: list = []
        self.labels: dict = {}

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str, attrs) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        if attrs:
            self.attrs[i] = attrs
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, method: bool):
        labels = self.labels
        attrs_of = ATTRIBUTES.get(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of is not None else None
            if method and labels:
                role = labels.get(id(args[0]))
                if role is not None:
                    attrs = dict(attrs or (), role=role)
            i = open_(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself, e.g. one CLI command."""
        i = self._open(name, None)
        try:
            yield
        finally:
            self._close(i)

    def write(self, path) -> None:
        """One JSON line per span: name, parent, start, end, attributes."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                rec = [name, self.parents[i], self.starts[i], self.ends[i],
                       self.attrs.get(i)]
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def install(tracer: Tracer, package: str = "xlingmap") -> int:
    """Wrap the public functions and methods of every module; returns the
    number of wrapped callables."""
    modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    replaced = {}
    count = 0
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[obj] = tracer.wrap(f"{short}.{attr}", obj, method=False)
                count += 1
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    name = f"{short}.{attr}.{mname}"
                    if isinstance(member, classmethod):
                        setattr(obj, mname, classmethod(
                            tracer.wrap(name, member.__func__, method=False)))
                    elif isinstance(member, staticmethod):
                        setattr(obj, mname, staticmethod(
                            tracer.wrap(name, member.__func__, method=False)))
                    elif inspect.isfunction(member):
                        setattr(obj, mname, tracer.wrap(name, member, method=True))
                    else:
                        continue
                    count += 1
    # Rebind every module-level name that refers to a wrapped function,
    # including names imported from a sibling module.
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    return count


class SpanTree:
    """Derived views of a tracer's spans: durations, self times, and for
    every span its root region and its nearest enclosing span of a given
    name."""

    def __init__(self, tracer: Tracer, scope: str):
        self.names = tracer.names
        self.parents = tracer.parents
        self.starts = tracer.starts
        self.ends = tracer.ends
        self.attrs = tracer.attrs
        n = len(self.names)
        self.dur = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * n
        self.root = [0] * n
        self.scope = [-1] * n
        for i, (name, p) in enumerate(zip(self.names, self.parents)):
            if p >= 0:
                child_time[p] += self.dur[i]
                self.root[i] = self.root[p]
                self.scope[i] = i if name == scope else self.scope[p]
            else:
                self.root[i] = i
                self.scope[i] = i if name == scope else -1
        self.self_time = [d - c for d, c in zip(self.dur, child_time)]

    def select(self, names, roots=None, in_scope=None, parent=None, **attrs):
        """Indices of spans whose name is in ``names``, optionally filtered by
        the name of their root region, by lying inside a scope span, by
        parent name and by attribute values."""
        out = []
        for i, name in enumerate(self.names):
            if name not in names:
                continue
            if roots is not None and self.names[self.root[i]] not in roots:
                continue
            if in_scope is not None and (self.scope[i] >= 0) != in_scope:
                continue
            p = self.parents[i]
            if parent is not None and (p < 0 or self.names[p] != parent):
                continue
            if attrs:
                a = self.attrs.get(i, {})
                if any(a.get(k) != v for k, v in attrs.items()):
                    continue
            out.append(i)
        return out

    def total(self, idx, self_time: bool = False) -> float:
        src = self.self_time if self_time else self.dur
        return sum(src[i] for i in idx)

    def attr_sum(self, idx, key: str):
        return sum(self.attrs.get(i, {}).get(key, 0) for i in idx)

    def consistency(self, window_start: float, window_end: float) -> dict:
        """Check the tree is well nested and that self times plus the time
        outside every span add up to the window's wall time."""
        starts, ends, parents = self.starts, self.ends, self.parents
        nested = True
        last_end = {}
        roots = []
        for i, p in enumerate(parents):
            if p >= 0:
                if starts[i] < starts[p] or ends[i] > ends[p]:
                    nested = False
            elif window_start <= starts[i]:
                roots.append(i)
            if starts[i] < last_end.get(p, -math.inf):
                nested = False
            last_end[p] = ends[i]
        gaps = 0.0
        cursor = window_start
        for i in roots:
            gaps += starts[i] - cursor
            cursor = ends[i]
        gaps += window_end - cursor
        sum_self = sum(t for i, t in enumerate(self.self_time)
                       if window_start <= starts[self.root[i]])
        wall = window_end - window_start
        return {
            "nested": nested,
            "wall_s": wall,
            "sum_self_s": sum_self,
            "untraced_s": gaps,
            "residual_s": wall - (sum_self + gaps),
        }
