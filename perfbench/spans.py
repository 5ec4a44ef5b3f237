"""Span recorder for the traced pass.

``Recorder.install()`` replaces every public function of the ``smg``
package, in every ``smg`` module namespace that binds it, with a wrapper
that records a span, plus the ``Diagram.canonical_code`` and
``Diagram.faces`` methods.  Calls between ``smg`` functions go through
module globals, so they are caught too and nest.  Spans stay in memory as
``[name, start, end, parent, task, error, value]``; ``layer_metrics``
reduces them to per-function self time, call counts and work counts.

Self time is a span's duration minus the durations of its direct children.
``faces()`` builds ``Faces``, which canonicalises every piece today, so
``diagram.faces.self_s`` includes that piece canonicalisation and
``diagram.canonical_code.self_s`` excludes it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("diagram", "catalog", "moves", "resolution", "groups", "quandles",
           "transforms", "cli", "fixtures")

#: functions whose result is kept on the span, reduced by the given function
_VALUES = {
    "moves.find_sites": len,
    "diagram.enumerate_orientations": len,
    "diagram.canonical_code": lambda code: code,
}

_NAME, _START, _END, _PARENT, _TASK, _ERROR, _VALUE = range(7)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        #: ``<module>.<function>`` of every function wrapped by ``install``
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = _VALUES.get(name)
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[_ERROR] = type(exc).__name__
                raise
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if keep is not None:
                span[_VALUE] = keep(out)
            return out

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("smg")
        modules = [pkg] + [importlib.import_module(f"smg.{m}") for m in MODULES]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or not fn.__module__.startswith("smg."):
                    continue
                if id(fn) not in wrapped:
                    name = f"{fn.__module__[4:]}.{fn.__name__}"
                    wrapped[id(fn)] = self._wrap(name, fn)
                self._undo.append((mod, attr, fn))
                setattr(mod, attr, wrapped[id(fn)])
        diagram = pkg.Diagram
        for attr in ("canonical_code", "faces"):
            fn = vars(diagram)[attr]
            self._undo.append((diagram, attr, fn))
            setattr(diagram, attr, self._wrap(f"diagram.{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.self_s`` and ``.calls`` for every traced
        function, the same summed per module as ``<module>.all``, and the
        work counts of the moves and diagram layers."""
        spans = self.spans
        child = [0.0] * len(spans)
        search_of = [-1] * len(spans)   # enclosing search_equivalence span
        out: dict[str, float] = {}
        codes: dict[int, set] = {}
        applies = stale = sites = orientations = 0
        for i, (name, start, end, parent, _, error, value) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                search_of[i] = search_of[parent]
            if name == "moves.search_equivalence":
                search_of[i] = i
            if name == "moves.apply_move":
                stale += error == "StaleSiteError"
                applies += search_of[i] >= 0
            elif name == "moves.find_sites" and value is not None:
                sites += value
            elif name == "diagram.enumerate_orientations" and value is not None:
                orientations += value
            elif name == "diagram.canonical_code" and search_of[i] >= 0:
                codes.setdefault(search_of[i], set()).add(value)
        for i, (name, start, end, *_rest) in enumerate(spans):
            layer = name.split(".")[0] + ".all"
            for key in (name, layer):
                out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + (end - start - child[i])
                out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
        distinct = sum(len(c) for c in codes.values())
        out["moves.find_sites.sites_out"] = sites
        out["moves.apply_move.stale"] = stale
        out["moves.search_equivalence.applies"] = applies
        out["moves.search_equivalence.distinct_codes"] = distinct
        out["moves.search_equivalence.new_per_apply"] = distinct / applies if applies else 0.0
        out["diagram.enumerate_orientations.orientations_out"] = orientations
        return out
