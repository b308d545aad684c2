"""Per-layer spans recorded from outside the `tyz` package.

`install()` wraps every public function of every `tyz` module and rebinds the
wrapper in every `tyz.*` namespace that holds the original, because modules
import functions by name (`enumeration` calls its own binding of
`canonical_key`, not `graphs.canonical_key`).  Spans are aggregated in memory
per function, as calls, inclusive time and self time (inclusive time minus
the time of nested spans), and handed to the caller at exit.

A few functions get a hook outside their span that derives workload counters
from their arguments and results: classes and keys per class for
`enumerate_stable`, cache hit/miss/rebuilt for `stable_records`, records read,
bytes written and verify cases.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive ns, self ns]
        self.stats: dict[str, list[int]] = {}
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []

    def span(self, name: str, fn):
        stat = _stat(self, name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def report(self) -> dict:
        return {"stats": self.stats, "counts": dict(self.counts)}


def _stat(tracer: Tracer, name: str) -> list[int]:
    return tracer.stats.setdefault(name, [0, 0, 0])


def _enumerate_stable_hook(tracer: Tracer, call):
    keys = _stat(tracer, "graphs.canonical_key")
    seen = set()

    def hooked(*args, **kwargs):
        arguments = (args, tuple(sorted(kwargs.items())))
        before = keys[0]
        result = call(*args, **kwargs)
        if arguments not in seen:  # later calls are served by the function's cache
            seen.add(arguments)
            tracer.counts["enumeration.classes"] += len(result)
            tracer.counts["enumeration.keys"] += keys[0] - before
        return result

    return hooked


def _stable_records_hook(tracer: Tracer, call):
    reads = _stat(tracer, "catalog.read_catalog")
    builds = _stat(tracer, "enumeration.enumerate_stable")

    def hooked(*args, **kwargs):
        read, built = reads[0], builds[0]
        result = call(*args, **kwargs)
        if reads[0] > read:
            event = "rebuilt" if builds[0] > built else "hit"
        else:
            event = "miss" if builds[0] > built else "memo"
        tracer.counts["catalog.cache." + event] += 1
        return result

    return hooked


def _read_catalog_hook(tracer: Tracer, call):
    def hooked(*args, **kwargs):
        result = call(*args, **kwargs)
        tracer.counts["catalog.read_catalog.records"] += len(result)
        return result

    return hooked


def _write_catalog_hook(tracer: Tracer, call):
    def hooked(records, path, *args, **kwargs):
        result = call(records, path, *args, **kwargs)
        tracer.counts["catalog.write_catalog.bytes"] += os.path.getsize(path)
        return result

    return hooked


def _verify_hook(tracer: Tracer, call):
    def hooked(*args, **kwargs):
        report = call(*args, **kwargs)
        tracer.counts["catalog.verify.cases"] += len(report.cases)
        return report

    return hooked


HOOKS = {
    "enumeration.enumerate_stable": _enumerate_stable_hook,
    "catalog.stable_records": _stable_records_hook,
    "catalog.read_catalog": _read_catalog_hook,
    "catalog.write_catalog": _write_catalog_hook,
    "catalog.verify": _verify_hook,
}


def _is_public_function(name: str, obj) -> bool:
    if name.startswith("_") or inspect.isclass(obj):
        return False
    return inspect.isfunction(inspect.unwrap(obj)) and obj.__module__.startswith("tyz.")


def install() -> Tracer:
    """Import every `tyz` module and trace every public function in it."""
    import tyz

    modules = [tyz] + [
        importlib.import_module(f"tyz.{info.name}")
        for info in pkgutil.iter_modules(tyz.__path__)
        if info.name != "__main__"
    ]
    tracer = Tracer()
    wrappers = {}  # id(original) -> wrapper
    for module in modules:
        for name, obj in list(vars(module).items()):
            if not _is_public_function(name, obj):
                continue
            if id(obj) not in wrappers:
                qualified = f"{obj.__module__.removeprefix('tyz.')}.{obj.__name__}"
                wrapped = tracer.span(qualified, obj)
                hook = HOOKS.get(qualified)
                wrappers[id(obj)] = hook(tracer, wrapped) if hook else wrapped
            setattr(module, name, wrappers[id(obj)])
    return tracer
