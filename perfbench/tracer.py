"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions and class methods of the ``repro``
package from the outside: every wrapped call records one span (name,
start, end, parent span, op id) in memory, and counting hooks add
per-op counts at the same boundaries.  Nothing under ``src/`` changes;
the wrappers exist only while a traced op runs.

Targets are installed on the *attribute the caller looks up*: a name
bound with ``from .x import f`` is patched in the importing module's
namespace, a name resolved through a package at call time is patched on
the package.  Modules that are not imported yet are patched right after
their first import through a ``sys.meta_path`` finder, so a traced CLI
process pays no import it would not pay anyway.

This module imports only the standard library: a traced CLI child loads
it before ``repro`` under ``python -X importtime``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import sys
import time
from collections import defaultdict

__all__ = ["Tracer", "LAYERS", "SPAN_LAYER", "layer_of", "self_times",
           "wchar", "importtime_rows", "import_breakdown"]

#: The benchmark's layers, named after the modules they cover, in the
#: order the traced report prints them.
LAYERS = (
    "import",
    "cli",
    "core",
    "reporting",
    "stats.parallel",
    "traffic.fleet",
    "traffic.simulator",
    "traffic.encounters",
    "traffic.engine",
    "traffic.records",
    "traffic.checkpoint, io",
    "obs.events, obs.status",
    "obs.session, obs.manifest",
    "obs.budget_monitor, traffic.incidents",
    "traffic.acceleration, stats.importance, stats.splitting",
    "process",
)

#: Span-name prefix -> layer.
SPAN_LAYER = {
    "cli": "cli",
    "core": "core",
    "reporting": "reporting",
    "parallel": "stats.parallel",
    "fleet": "traffic.fleet",
    "simulator": "traffic.simulator",
    "encounters": "traffic.encounters",
    "engine": "traffic.engine",
    "records": "traffic.records",
    "checkpoint": "traffic.checkpoint, io",
    "io": "traffic.checkpoint, io",
    "events": "obs.events, obs.status",
    "status": "obs.events, obs.status",
    "telemetry": "obs.session, obs.manifest",
    "budget": "obs.budget_monitor, traffic.incidents",
    "accel": "traffic.acceleration, stats.importance, stats.splitting",
}


def layer_of(span_name: str) -> str:
    return SPAN_LAYER[span_name.split(".", 1)[0]]


def wchar() -> int:
    """Bytes this process (and its reaped children) passed to write()."""
    with open("/proc/self/io", "rb") as handle:
        for line in handle:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def importtime_rows(stderr_text: str) -> list:
    """``(module, self seconds)`` per line of ``-X importtime`` output."""
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if fields[0].strip().isdigit():  # skips the header line
            rows.append((fields[2].strip(), int(fields[0]) / 1e6))
    return rows


def import_breakdown(rows) -> dict:
    """Import seconds in total and per top-level package."""
    totals: dict = defaultdict(float)
    for module, seconds in rows:
        totals["total"] += seconds
        totals[module.split(".")[0]] += seconds
    return dict(totals)


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self) -> None:
        #: One list per span: [name, start, end, parent index, op id].
        self.spans: list = []
        #: op id -> count name -> value.
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        #: Module name -> index of the innermost span open when it was
        #: first imported (-1: outside every span).
        self.imports: dict = {}
        self.op = None
        self._stack: list = []
        self._undo: list = []
        self._pending: dict = {}
        self._finder = None

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[self.op][name] += value

    def high(self, name: str, value: float) -> None:
        counts = self.counts[self.op]
        counts[name] = max(counts[name], value)

    # -- installation -----------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every ``(module, attribute, span, hook)`` target.

        Targets in modules that are not imported yet are wrapped right
        after their import.
        """
        for target in targets:
            module = sys.modules.get(target[0])
            if module is not None:
                self._patch(module, *target[1:])
            else:
                self._pending.setdefault(target[0], []).append(target[1:])
        self._finder = _PatchAfterImport(self)
        sys.meta_path.insert(0, self._finder)

    def uninstall(self) -> None:
        if self._finder is not None:
            sys.meta_path.remove(self._finder)
            self._finder = None
        self._pending.clear()
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def _imported(self, module) -> None:
        for target in self._pending.pop(module.__name__, ()):
            self._patch(module, *target)

    def _patch(self, module, attribute, span, hook) -> None:
        owner = module
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        function = original
        if isinstance(original, (classmethod, staticmethod)):
            function = original.__func__
        wrapped = self._wrap(function, span, hook)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        elif isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original))

    def _wrap(self, function, span, hook):
        tracer = self
        if isinstance(hook, str):
            @functools.wraps(function)
            def counted(*args, **kwargs):
                tracer.counts[tracer.op][hook] += 1
                return function(*args, **kwargs)
            return counted
        if hook is None:
            @functools.wraps(function)
            def spanned(*args, **kwargs):
                return tracer.call(span, function, args, kwargs)
            return spanned

        def run(*args, **kwargs):
            if span is None:
                return function(*args, **kwargs)
            return tracer.call(span, function, args, kwargs)

        @functools.wraps(function)
        def hooked(*args, **kwargs):
            return hook(tracer, run, args, kwargs)
        return hooked

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "counts": {str(op): dict(values)
                                  for op, values in self.counts.items()},
                       "imports": self.imports},
                      handle)


class _PatchAfterImport:
    """``sys.meta_path`` finder that wraps targets once a module ran.

    It also notes which span was open when each module was first
    imported, so import time inside a span can be taken out of the
    span's self time and counted in the import layer.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def find_spec(self, name, path=None, target=None):
        stack = self._tracer._stack
        self._tracer.imports.setdefault(name, stack[-1] if stack else -1)
        if name not in self._tracer._pending:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module
        tracer = self._tracer

        def exec_module(module):
            execute(module)
            tracer._imported(module)
        spec.loader.exec_module = exec_module
        return spec


def self_times(spans, op=None, imported=None) -> dict:
    """Span name -> summed self time.

    A span's self time is its duration minus its direct children and
    minus ``imported[index]``, the import time spent inside it.  ``op``
    restricts the sum to the spans of one op id.
    """
    children = [0.0] * len(spans)
    for index, seconds in (imported or {}).items():
        if index >= 0:
            children[index] += seconds
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: dict = defaultdict(float)
    for index, (name, start, end, _, span_op) in enumerate(spans):
        if op is None or span_op == op:
            totals[name] += end - start - children[index]
    return totals
