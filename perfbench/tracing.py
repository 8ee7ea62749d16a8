"""In-memory spans around calls into ribfill's public functions.

A span is (name, start, end, parent).  :class:`Tracer` keeps them in a
list; :func:`traced_package` swaps every public function of the library's
modules for a wrapper that opens a span named ``<module>.<function>``, in
every ribfill namespace that binds it, so calls the library makes to its
own public functions (say ``metric_report`` -> ``directed_hausdorff`` ->
``edt_sq``) nest as child spans.  Private helpers are never touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from statistics import median

#: library modules whose public functions get spans; ``cli`` only parses
#: arguments around them
LAYERS = ("grid", "phantom", "defects", "losses", "metrics", "net", "nifti", "manifest", "train")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- reading spans back -------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def median_ms(self, name: str) -> float:
        """Median inclusive milliseconds per call; 0.0 when never called."""
        d = self.durations(name)
        return 1000.0 * median(d) if d else 0.0

    def children(self) -> dict[int, list[list]]:
        """Parent index -> its direct child spans."""
        kids: dict[int, list[list]] = {}
        for s in self.spans:
            kids.setdefault(s[3], []).append(s)
        return kids

    def indices(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def child_time(self, idx: int, kids: dict[int, list[list]], names: tuple[str, ...] | None = None) -> float:
        """Seconds of span ``idx`` covered by its direct children (only ``names``, if given)."""
        return sum(k[2] - k[1] for k in kids.get(idx, ()) if names is None or k[0] in names)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in self.spans
        ]


@contextmanager
def traced_package(tracer: Tracer, package):
    """Route every public library function through ``tracer`` until exit."""
    modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
    wrappers = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                wrappers[obj] = tracer.wrap(f"{short}.{name}", obj)
    namespaces = [package, *modules.values()]
    try:
        namespaces.append(importlib.import_module(f"{package.__name__}.cli"))
    except ImportError:
        pass
    undo = []
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(ns, name, wrappers[obj])
                undo.append((ns, name, obj))
    try:
        yield tracer
    finally:
        for ns, name, obj in undo:
            setattr(ns, name, obj)
