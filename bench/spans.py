"""Outside-in tracing: wrap the program's public functions and methods.

A name is patched where its caller looks it up (``moldiff.harness.train.
backward``, not ``moldiff.diffcore.backward``), so the wrapper sees every
call the program makes. Each call records a span (name, parent, root,
start, end) in flat arrays; the spans are written out when the run ends.
A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer:
    """Spans in memory plus event counters. Single-threaded by design."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[int, int] = {}      # span -> molecules it produced
        self.tensors: dict[int, int] = {}   # span -> Tensor objects built inside
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches = Patches()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else idx)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, work: int = 0):
        """Context manager for the benchmark's own spans (rounds, set-up)."""
        return _Span(self, name, work)

    # -- patching ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around ``owner.attr``; ``after(args, result)`` may
        update counters from the call's inputs and output."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        opened, closed = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                closed(idx)
            if after is not None:
                after(args, out)
            return out

        self._patches.set(owner, attr, traced)

    def wrap_tape_split(self, owner, attr: str, name: str, tensor_module) -> None:
        """Like :meth:`wrap`, but names the span ``<name>.taped`` when a tape
        is recording and ``<name>.untaped`` otherwise."""
        fn = getattr(owner, attr)
        taped, untaped = self.name_id(f"{name}.taped"), self.name_id(f"{name}.untaped")
        opened, closed = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(untaped if tensor_module._ACTIVE_TAPE is None else taped)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        self._patches.set(owner, attr, traced)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        self._patches.set(owner, attr, counted)

    def unwrap(self) -> None:
        self._patches.undo()

    # -- read-out ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        out = {
            "name": np.frombuffer(self.name, dtype=np.int32)[:n].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[:n].copy(),
            "root": np.frombuffer(self.root, dtype=np.int32)[:n].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[:n].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[:n].copy(),
        }
        dur = out["end"] - out["start"]
        has_parent = out["parent"] >= 0
        child = np.bincount(out["parent"][has_parent], weights=dur[has_parent], minlength=n)
        out["duration"] = dur
        out["self"] = dur - child
        return out

    def write(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name=a["name"], parent=a["parent"],
                 root=a["root"], start=a["start"], end=a["end"])


class _Span:
    __slots__ = ("tracer", "name", "work", "idx", "tensors0")

    def __init__(self, tracer: Tracer, name: str, work: int):
        self.tracer, self.name, self.work = tracer, name, work

    def __enter__(self):
        self.tensors0 = self.tracer.counts["tensors"]
        self.idx = self.tracer.open(self.tracer.name_id(self.name))
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        self.tracer.work[self.idx] = self.work
        self.tracer.tensors[self.idx] = self.tracer.counts["tensors"] - self.tensors0
        return False


class SpanTable:
    """Queries over a finished trace: spans selected by name and by the
    name prefix of their root (the benchmark span that started them)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.a = tracer.arrays()
        self.root_name = self.a["name"][self.a["root"]]

    def _ids(self, prefix: str) -> list[int]:
        return [i for i, nm in enumerate(self.tracer.names) if nm.startswith(prefix)]

    def select(self, name: str, root_prefix: str = "") -> np.ndarray:
        nid = self.tracer._ids.get(name, -1)
        mask = self.a["name"] == nid
        if root_prefix:
            mask &= np.isin(self.root_name, self._ids(root_prefix))
        return mask

    def durations(self, name: str, root_prefix: str = "") -> np.ndarray:
        return self.a["duration"][self.select(name, root_prefix)]

    def count(self, name: str, root_prefix: str = "") -> int:
        return int(self.select(name, root_prefix).sum())

    def median(self, name: str, root_prefix: str = "", scale: float = 1e6) -> float:
        """Median inclusive duration per call, in seconds times ``scale``."""
        d = self.durations(name, root_prefix)
        return float(np.median(d)) * scale if d.size else 0.0

    def roots(self, prefix: str) -> list[int]:
        """Benchmark spans whose name starts with ``prefix``."""
        ids = set(self._ids(prefix))
        return [i for i in self.tracer.work if self.a["name"][i] in ids]

    def self_time_by_name(self, root_prefix: str) -> dict[str, tuple[int, float]]:
        """Calls and summed self seconds per span name under matching roots."""
        mask = np.isin(self.root_name, self._ids(root_prefix))
        names = self.a["name"][mask]
        calls = np.bincount(names, minlength=len(self.tracer.names))
        secs = np.bincount(names, weights=self.a["self"][mask], minlength=len(self.tracer.names))
        return {nm: (int(calls[i]), float(secs[i]))
                for i, nm in enumerate(self.tracer.names) if calls[i]}
