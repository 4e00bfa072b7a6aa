"""Run one ``mf`` command with every mfatlas layer wrapped, from outside.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 mfbench/tracer.py OUT.json -- atlas --n 3 --element s

A layer is one module of the ``mfatlas`` package (``errors``, which holds only
exception classes, is not one).  Every function defined in a
layer module, and every method of a class defined there (including the
arithmetic operators of ``Scalar``, ``ExactMatrix`` and ``MPoly``), is replaced
by a wrapper.  Names bound with ``from .linalg import mat_rank`` are re-bound in
every importing module, so a call that crosses a layer boundary always passes
through a wrapper.  Nothing under ``src/`` is edited.

The wrappers keep their state in memory and the totals are written to OUT.json
when the command returns:

* ``layers``: per layer, ``self_s`` (time inside the layer minus time in nested
  calls into other layers) and ``busy_s`` (time from entering the outermost
  call into the layer until it returns);
* ``calls``: the number of calls of every wrapped function, keyed
  ``layer.Qualname``;
* ``timed``: busy time of the few functions the benchmark reports by name, and
  of each verify and corpus check, keyed by the check's reported name;
* ``spans``: the outermost spans (depth at most ``SPAN_DEPTH``) with their
  parent, start and end;
* ``unwrapped``: places where an original function object is still reachable
  after wrapping.  The benchmark fails the traced run if this is not empty.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from pathlib import Path

LAYERS = (
    "scalar", "linalg", "mpoly", "unipoly", "lie", "sampling", "flags",
    "mfsystem", "components", "corpus", "verify", "cli",
)
# Functions whose own busy time is reported, besides the verify/corpus checks.
TIMED = {
    "lie.is_regular",
    "flags.enumerate_atlas",
    "mfsystem.build_system",
}
# Elimination entry points whose argument size feeds linalg.max_cells.
ELIMINATION = {"linalg.mat_rank", "linalg.mat_det", "linalg.rref", "linalg.mat_kernel"}
# MPoly operations whose result size feeds mpoly.max_terms.
POLY_RESULTS = {"mpoly.MPoly.__mul__", "mpoly.MPoly.subs", "mpoly.MPoly.__pow__",
                "mpoly.mpoly_det"}
SPAN_DEPTH = 2


class Tracer:
    """Per-layer time and call accounting for one process."""

    def __init__(self) -> None:
        # The layer running now, the clock reading of its last switch, and
        # the nesting depth of layer switches.
        self.state = {"layer": "-", "last": 0.0, "level": 0, "span": -1}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.self_s["-"] = 0.0
        self.busy_s = dict.fromkeys(LAYERS, 0.0)
        self.depth = dict.fromkeys(LAYERS, 0)
        self.calls: dict[str, int] = {}
        self.timed: dict[str, float] = {}
        self.spans: list[list] = []
        self.max_cells = 0
        self.max_terms = 0
        self.t0 = time.perf_counter()
        self.originals: dict[int, str] = {}  # id(original) -> key

    # -- wrappers -------------------------------------------------------------------

    def layer_wrapper(self, layer: str, key: str, fn):
        """Count every call; when it enters ``layer`` from another layer, charge
        the time since the last switch to the layer that was running."""
        state = self.state
        calls = self.calls
        calls.setdefault(key, 0)
        self_s, busy_s, depth, spans = self.self_s, self.busy_s, self.depth, self.spans
        clock = time.perf_counter
        t_origin = self.t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            caller = state["layer"]
            if caller == layer:
                return fn(*args, **kwargs)
            start = clock()
            self_s[caller] += start - state["last"]
            state["last"] = start
            state["layer"] = layer
            level = state["level"]
            state["level"] = level + 1
            parent_span = state["span"]
            span = -1
            if level < SPAN_DEPTH:
                span = len(spans)
                spans.append([key, parent_span, start - t_origin, 0.0])
                state["span"] = span
            outer = depth[layer] == 0
            depth[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[layer] += end - state["last"]
                state["last"] = end
                state["layer"] = caller
                state["level"] = level
                state["span"] = parent_span
                depth[layer] -= 1
                if outer:
                    busy_s[layer] += end - start
                if span >= 0:
                    spans[span][3] = end - t_origin

        return wrapper

    def timed_wrapper(self, key: str, fn, name_of_result: bool = False):
        """Add busy time of the outermost call of ``fn`` under ``key`` (or under
        ``key`` plus the name of the returned check result)."""
        timed = self.timed
        active = [0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                active[0] -= 1
            d = clock() - start
            name = f"{key}.{result.name}" if name_of_result else key
            timed[name] = timed.get(name, 0.0) + d
            return result

        return wrapper

    def size_wrapper(self, key: str, fn):
        """Record the largest matrix given to elimination, or the largest
        polynomial an MPoly operation returns."""
        if key in ELIMINATION:
            @functools.wraps(fn)
            def wrapper(m, *args, **kwargs):
                cells = m.rows * m.cols
                if cells > self.max_cells:
                    self.max_cells = cells
                return fn(m, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                terms = getattr(out, "terms", None)
                if terms is not None and len(terms) > self.max_terms:
                    self.max_terms = len(terms)
                return out
        return wrapper

    def wrap(self, layer: str, key: str, fn):
        self.originals[id(fn)] = key
        inner = fn
        if key in ELIMINATION or key in POLY_RESULTS:
            inner = self.size_wrapper(key, inner)
        out = self.layer_wrapper(layer, key, inner)
        short = key.split(".")[-1]
        if key in TIMED:
            out = self.timed_wrapper(key, out)
        elif layer in ("verify", "corpus") and (
                short.startswith("check_") or short == "run_tamper_self_test"):
            out = self.timed_wrapper(layer, out, name_of_result=True)
        return out

    # -- installation ------------------------------------------------------------------

    def install(self, package: str = "mfatlas") -> list:
        """Wrap every layer and re-bind every imported name; return the modules."""
        modules = [importlib.import_module(f"{package}.{name}") for name in LAYERS]
        modules.append(importlib.import_module(package))
        replaced: dict[int, object] = {}
        for mod in modules[:-1]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, replaced)
                elif _is_plain_function(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(layer, f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    setattr(mod, name, new)
        return modules

    def _wrap_class(self, layer: str, cls: type, replaced: dict) -> None:
        for name, attr in list(vars(cls).items()):
            key = f"{layer}.{cls.__name__}.{name}"
            if name in ("__setattr__", "__getattribute__"):
                continue
            if _is_plain_function(attr):
                new = self.wrap(layer, key, attr)
            elif isinstance(attr, staticmethod):
                new = staticmethod(self.wrap(layer, key, attr.__func__))
            elif isinstance(attr, classmethod):
                new = classmethod(self.wrap(layer, key, attr.__func__))
            elif isinstance(attr, property) and attr.fget is not None:
                new = property(self.wrap(layer, key, attr.fget), attr.fset, attr.fdel,
                               attr.__doc__)
            else:
                continue
            replaced[id(attr)] = new
            setattr(cls, name, new)

    def unwrapped(self, modules: list) -> list[str]:
        """Every place an original (unwrapped) function is still reachable from:
        module globals, containers held in module globals, class attributes and
        default arguments of wrapped functions."""
        found = []

        def scan(where: str, obj) -> None:
            key = self.originals.get(id(obj))
            if key is not None:
                found.append(f"{where} -> {key}")

        for mod in modules:
            for name, obj in vars(mod).items():
                where = f"{mod.__name__}.{name}"
                scan(where, obj)
                if isinstance(obj, dict):
                    for k, v in obj.items():
                        scan(f"{where}[{k!r}]", v)
                elif isinstance(obj, (list, tuple, set, frozenset)):
                    for v in obj:
                        scan(f"{where}[]", v)
                elif isinstance(obj, type) and obj.__module__.startswith("mfatlas"):
                    for attr_name, attr in vars(obj).items():
                        inner = (getattr(attr, "__func__", None) or getattr(attr, "fget", None)
                                 or getattr(attr, "func", None))
                        scan(f"{where}.{attr_name}", attr)
                        if inner is not None and not hasattr(inner, "__wrapped__"):
                            scan(f"{where}.{attr_name}", inner)
                elif callable(obj) and hasattr(obj, "__wrapped__"):
                    for v in (getattr(_innermost(obj), "__defaults__", None) or ()):
                        scan(f"{where} default", v)
        return found

    def report(self) -> dict:
        return {
            "layers": {k: {"self_s": self.self_s[k], "busy_s": self.busy_s[k]}
                       for k in LAYERS},
            "calls": self.calls,
            "timed": self.timed,
            "spans": self.spans,
            "max_cells": self.max_cells,
            "max_terms": self.max_terms,
        }


def _is_plain_function(obj) -> bool:
    return isinstance(obj, types.FunctionType)


def _innermost(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- MF_ARGS...", file=sys.stderr)
        return 2
    out_path, mf_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    modules = tracer.install()
    cli = sys.modules["mfatlas.cli"]
    start_unix = time.time()
    start = time.perf_counter()
    try:
        rc = cli.main(mf_args)
    finally:
        main_s = time.perf_counter() - start
        end_unix = time.time()
        data = tracer.report()
        data.update(
            main_s=main_s,
            main_start_unix=start_unix,
            main_end_unix=end_unix,
            unwrapped=tracer.unwrapped(modules),
        )
        out_path.write_text(json.dumps(data))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
