"""Layer tracing installed from outside the package under test.

The tracer replaces functions with timing wrappers in every module namespace
that binds them, so a call made through a `from .x import y` binding is seen
as well as one made through the defining module.  Nothing in the package is
edited; `uninstall` puts every original back.

Each wrapped call opens a span.  A span's self time is its duration minus the
durations of the spans opened directly inside it.  Spans are kept in memory as
flat arrays (name, start, end, parent, op id) and written out when the run
ends.  Functions wrapped with `counted` get a call count only: they are the hot
scalar functions whose spans would cost more than the work they time.
Generator functions are timed per `next`, so the time a consumer spends
between items is not charged to the generator.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

SPAN_CAP = 2_000_000  # spans kept for the trace file; aggregates are exact beyond it


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.depth: list[int] = []
        self.extra: dict[str, float] = {}
        self.op = 0
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self.span_cap = span_cap
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.spans_dropped = 0

    # -- aggregates -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.depth.append(0)
        return nid

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def reset_aggregates(self) -> None:
        """Zero calls, times and extra counts; spans already recorded stay."""
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
            self.total_s[i] = 0.0
        self.extra = {}

    def snapshot(self) -> dict[str, float]:
        """Flat `<name>.calls`, `<name>.self_s`, `<name>.total_s` plus extra counts."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.total_s"] = self.total_s[nid]
        out.update(self.extra)
        return out

    # -- spans ------------------------------------------------------------

    def open(self, nid: int, record: bool = True) -> None:
        start = perf_counter()
        index = -1
        if record:
            if len(self.span_name) < self.span_cap:
                index = len(self.span_name)
                self.span_name.append(nid)
                self.span_start.append(start)
                self.span_end.append(0.0)
                self.span_parent.append(self._stack[-1][3] if self._stack else -1)
                self.span_op.append(self.op)
            else:
                self.spans_dropped += 1
        self.depth[nid] += 1
        self._stack.append([nid, start, 0.0, index])

    def close(self) -> None:
        end = perf_counter()
        nid, start, child, index = self._stack.pop()
        duration = end - start
        self.depth[nid] -= 1
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        self.total_s[nid] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.span_end[index] = end

    # -- wrappers ---------------------------------------------------------

    def timed(self, name: str, fn: Callable, before: Callable | None = None) -> Callable:
        """Wrap fn in a span; `before(args, kwargs)` may add domain counts first."""
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):
            return self._timed_generator(nid, name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    def _timed_generator(self, nid: int, name: str, fn: Callable) -> Callable:
        items = f"{name}.items"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self.open(nid, record=False)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close()
                self.add(items, 1)
                yield item

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package: str, replacements: dict[Callable, Callable],
                class_attrs: list[tuple[type, str, Callable]]) -> None:
        """Rebind each original function to its wrapper in every module of
        `package`, and set each (class, attribute, wrapper) triple."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for owner, attr, wrapper in class_attrs:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write_spans(self, stem: Path) -> None:
        """Write `<stem>.json` (names, layout) and `<stem>.bin` (the span arrays)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        fields = [
            ("name", self.span_name),
            ("start", self.span_start),
            ("end", self.span_end),
            ("parent", self.span_parent),
            ("op", self.span_op),
        ]
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        header = {
            "count": len(self.span_name),
            "dropped": self.spans_dropped,
            "names": self.names,
            "fields": [[field, arr.typecode, arr.itemsize] for field, arr in fields],
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")


def load_spans(stem: Path) -> tuple[list[str], dict[str, array]]:
    """Read back a span file pair written by `Tracer.write_spans`."""
    header = json.loads(stem.with_suffix(".json").read_text())
    count = header["count"]
    out: dict[str, array] = {}
    with open(stem.with_suffix(".bin"), "rb") as fh:
        for field, typecode, _ in header["fields"]:
            arr = array(typecode)
            arr.fromfile(fh, count)
            out[field] = arr
    return header["names"], out
