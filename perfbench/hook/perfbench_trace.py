"""Span recorder for one traced stormfields command and its pool workers.

``install`` wraps the public functions of each stormfields layer (and the
``rho`` method of every correlation model) so that each call records a span:
name, start, end, parent span and, for some calls, a few counts.  Every
module that imported a wrapped function by name gets the wrapper, so calls
from one layer into another are seen too.

The command process has one root span, ``cli.command``, from the moment the
recorder starts until the interpreter runs its exit handlers.  Work handed
to a ``ProcessPoolExecutor`` runs inside a ``cli.task`` span in the worker,
whose parent is the span that submitted it.  Each process appends its spans
to ``spans-<pid>.jsonl`` in the trace directory: the command at exit, a
worker after each task (forked workers leave through ``os._exit`` and run no
exit handlers).  All times come from ``time.perf_counter``, a system-wide
monotonic clock on Linux, so spans of different processes share one axis.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("config", "covmodels", "gaussfield", "streams", "numerics", "maxstable", "extremal")
ROOT_ENV = "PERFBENCH_TRACE_ROOT"

# The recorder of this process.  A hook entered through ``sitecustomize`` and
# through unpickled pool tasks has no caller to receive it as an argument.
_RECORDER = None


class Recorder:
    """Spans of one process, kept in memory until ``flush``."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.next_id = 0
        self.stack = []
        self.done = []

    def current(self):
        return self.stack[-1]["id"] if self.stack else None

    def open(self, name: str, parent=None) -> dict:
        self.next_id += 1
        span = {
            "id": f"{self.pid}.{self.next_id}",
            "parent": self.current() if parent is None else parent,
            "name": name,
            "pid": self.pid,
            "start": time.perf_counter(),
        }
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.remove(span)
        self.done.append(span)

    def flush(self) -> None:
        if not self.done:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.done:
                handle.write(json.dumps(span) + "\n")
        self.done = []


def _size(array) -> int:
    import numpy as np

    return int(np.size(array))


# Counts read off a call's result, keyed by the wrapped function's name.
# Flops and bytes are computed from array shapes, not measured.
COUNTS = {
    "rho": lambda r: {"evals": _size(r)},
    "cholesky": lambda f: {"jitter": float(f.jitter_used), "factor_bytes": int(f.lower.nbytes)},
    "sample_replications": lambda r: {"normals": int(r.size), "flops": 2 * int(r.shape[1]) * int(r.size)},
    "sample_field": lambda s: {"normals": int(s.values.size), "flops": 2 * int(s.values.size) ** 2},
    "std_normal_cdf": lambda r: {"values": _size(r)},
}


def _wrap(rec: Recorder, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if count is not None:
            span["counts"] = count(result)
        return result

    return traced


class TracedTask:
    """A pool task that records a ``cli.task`` span in the worker running it."""

    def __init__(self, fn, parent):
        self.fn = fn
        self.parent = parent

    def __call__(self, *args, **kwargs):
        rec = _RECORDER
        span = rec.open("cli.task", parent=self.parent)
        try:
            return self.fn(*args, **kwargs)
        finally:
            rec.close(span)
            rec.flush()


def _patch_layers(rec: Recorder) -> None:
    import stormfields  # noqa: F401  (imports every layer but cli and config)
    import stormfields.config  # noqa: F401

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"stormfields.{layer}"]
        for attr in module.__all__:
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[id(obj)] = (obj, _wrap(rec, f"{layer}.{attr}", obj, COUNTS.get(attr)))
            elif inspect.isclass(obj) and "rho" in vars(obj):
                obj.rho = _wrap(rec, f"{layer}.{attr}.rho", vars(obj)["rho"], COUNTS["rho"])
    for name, module in list(sys.modules.items()):
        if name != "stormfields" and not name.startswith("stormfields."):
            continue
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])


def _patch_pool(rec: Recorder) -> None:
    submit = ProcessPoolExecutor.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        return submit(self, TracedTask(fn, rec.current()), *args, **kwargs)

    ProcessPoolExecutor.submit = traced_submit


def install(out_dir: str) -> None:
    """Start recording in this process."""
    global _RECORDER
    rec = _RECORDER = Recorder(out_dir)
    os.register_at_fork(after_in_child=rec.reset)
    # A spawned worker inherits the variable and so records no root span.
    if os.environ.get(ROOT_ENV) is None:
        os.environ[ROOT_ENV] = str(os.getpid())
        rec.open("cli.command")

    def finish():
        while rec.stack:
            rec.close(rec.stack[-1])
        rec.flush()

    atexit.register(finish)
    _patch_layers(rec)
    _patch_pool(rec)
