"""Run one branchwiener CLI command with span recorders around the public
functions of the library modules.

Usage::

    python perfbench/tracer.py SPANS.npz <branchwiener arguments...>

The recorders are installed by rebinding module attributes, so nothing in
the package changes: every public function of the traced modules is
replaced by a wrapper, and every module that imported such a function by
name (``martingales.hermite_table``, ``inference.expansion_value``, ...)
gets the wrapper too.  ``cli.main`` is wrapped as the root span, so its
self time is argument parsing, input parsing, output formatting and
manifests.

Spans stay in memory as (name, start, end, parent) and are written to
SPANS.npz when the command ends, whatever its exit status.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import threading
import time
from array import array

import numpy as np

TRACED_MODULES = (
    "simulator",
    "hermite",
    "martingales",
    "regions",
    "expansion",
    "inference",
    "kernel_expansion",
)
# multiindex is left out on purpose: its helpers run tens of times per
# region inside the expansion loops, where a span would cost more than the
# work it times.  Their time shows as self time of the calling function.

#: Methods traced besides module functions: (module, class, method).
TRACED_METHODS = (("simulator", "SnapshotWriter", "write"),)


def _step_extra(args, kwargs, result):
    return args[0].n, result.n


def _read_extra(args, kwargs, result):
    return os.path.getsize(args[0]), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


#: Per-span values recorded as two integers next to the span.
EXTRAS = {
    "simulator.step": _step_extra,  # parent n, child n
    "simulator.read_snapshot_file": _read_extra,  # file bytes, max RSS in KiB
}


class Recorder:
    """Spans of the main thread, in start order (parents precede children).

    Calls from other threads run unrecorded; the simulator's worker threads
    only run private helpers, so nothing is lost at present.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extras: list[tuple[int, int, int]] = []
        self._stack: list[int] = []
        self._main = threading.get_ident()

    def _enter(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        extra = EXTRAS.get(name)
        main = self._main
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the time the consumer spends
            # between items is not charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if threading.get_ident() != main:
                    yield from inner
                    return
                try:
                    while True:
                        idx = enter(name_id)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            exit_(idx)
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            idx = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if extra is not None:
                self.extras.append((idx, *extra(args, kwargs, result)))
            return result

        return wrapper

    def save(self, path: str) -> None:
        extras = np.array(self.extras, dtype=np.int64).reshape(-1, 3)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            extras=extras,
        )


def install(rec: Recorder):
    """Wrap the traced functions and rebind every branchwiener module
    attribute that refers to one of them; returns the wrapped cli.main."""
    from branchwiener import cli

    wrappers: dict[int, tuple[object, object]] = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"branchwiener.{short}")
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            wrappers[id(fn)] = (fn, rec.wrap(fn, f"{short}.{attr}"))
    wrappers[id(cli.main)] = (cli.main, rec.wrap(cli.main, "cli.main"))
    for short, cls_name, meth in TRACED_METHODS:
        cls = getattr(importlib.import_module(f"branchwiener.{short}"), cls_name)
        setattr(cls, meth, rec.wrap(vars(cls)[meth], f"{short}.{cls_name}.{meth}"))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "branchwiener" and not mod_name.startswith("branchwiener."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return cli.main


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.npz <branchwiener arguments...>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    traced_main = install(rec)
    try:
        return traced_main(cli_args)
    finally:
        rec.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
