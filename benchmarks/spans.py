"""Span recording for the traced benchmark run.

A span is one call across a layer boundary: name, start, end, parent span and
trial id. Spans stay in memory in columnar arrays and are written out once,
when the run ends. A call that happens many times under one parent (resonator
steps, cleanups, readouts) is folded into one group record per (parent, name)
holding the call count and the summed duration, which keeps a traced sweep
within a few tens of MB. Self time is computed the same way for plain spans
and groups: a record's summed duration minus the summed duration of the
records whose parent it is.

Spans are recorded around calls into the library from the benchmark's own
files, by replacing a function under the name its caller looks it up by
(``hdscene.harness.decode_scene``, ``hdscene.resonator.cleanup``, ...) for the
duration of a ``patched`` block. The library itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

NO_PARENT = -1
NO_TRIAL = -1

# Trial roles of a trace point: the call opens a new trial, the call lies
# outside any trial, or (None) the call keeps the trial currently open.
TRIAL_START = "start"
OUTSIDE_TRIAL = "outside"


class Tracer:
    """In-memory span store with per-name counters and sample lists."""

    def __init__(self, grouped=(), clock=perf_counter):
        self.grouped = frozenset(grouped)
        self.clock = clock
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.trial = array("q")
        self.calls = array("q")
        self.start = array("d")
        self.end = array("d")
        self.total = array("d")
        self.trial_id = NO_TRIAL
        self._next_trial = 0
        # counts repeat exactly for a given input; samples keep distributions
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        # open spans: [record id, {name index: group record id}]
        self._stack: list[list] = []

    def begin_trial(self) -> None:
        self.trial_id = self._next_trial
        self._next_trial += 1

    def _index(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def _new_record(self, name: int, parent: int, start: float) -> int:
        self.name.append(name)
        self.parent.append(parent)
        self.trial.append(self.trial_id)
        self.calls.append(0)
        self.start.append(start)
        self.end.append(start)
        self.total.append(0.0)
        return len(self.name) - 1

    def open(self, name: str, role: str | None = None) -> float:
        """Open a span; returns its start time for the matching ``close``."""
        if role == TRIAL_START:
            self.begin_trial()
        elif role == OUTSIDE_TRIAL:
            self.trial_id = NO_TRIAL
        self.counts[name] += 1
        index = self._index(name)
        frame = self._stack[-1] if self._stack else None
        parent = frame[0] if frame else NO_PARENT
        start = self.clock()
        if name in self.grouped and frame is not None:
            record = frame[1].get(index)
            if record is None:
                record = frame[1][index] = self._new_record(index, parent, start)
        else:
            record = self._new_record(index, parent, start)
        self._stack.append([record, {}])
        return start

    def close(self, start: float) -> None:
        end = self.clock()
        record = self._stack.pop()[0]
        self.calls[record] += 1
        self.total[record] += end - start
        self.end[record] = end

    @contextlib.contextmanager
    def span(self, name: str, role: str | None = None):
        start = self.open(name, role)
        try:
            yield
        finally:
            self.close(start)

    def snapshot(self) -> tuple[dict, dict]:
        """Counts so far, and the length of every sample list."""
        return dict(self.counts), {key: len(values) for key, values in self.samples.items()}

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        names = np.frombuffer(self.name, dtype=np.int32)
        calls = np.frombuffer(self.calls, dtype=np.int64)
        total = np.frombuffer(self.total, dtype=np.float64)
        own = self_times(np.frombuffer(self.parent, dtype=np.int64), total)
        table = {}
        for index, name in enumerate(self.names):
            mask = names == index
            table[name] = {
                "calls": int(calls[mask].sum()),
                "total_s": float(total[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return table

    def durations(self, name: str) -> np.ndarray:
        """Seconds of every plain (ungrouped) span of one name, in call order."""
        if name in self.grouped:
            raise ValueError(f"{name} spans are grouped per parent")
        index = self._name_index.get(name)
        if index is None:
            return np.zeros(0)
        mask = np.frombuffer(self.name, dtype=np.int32) == index
        return np.frombuffer(self.total, dtype=np.float64)[mask]

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            trial=np.frombuffer(self.trial, dtype=np.int64),
            calls=np.frombuffer(self.calls, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            total=np.frombuffer(self.total, dtype=np.float64),
        )


def self_times(parent: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Each record's duration minus the time its child records cover.

    Spans come from one thread and nest, so the children of one span never
    overlap and the time they cover is the sum of their durations.
    """
    parent = np.asarray(parent)
    total = np.asarray(total, dtype=np.float64)
    has_parent = parent != NO_PARENT
    covered = np.bincount(parent[has_parent], weights=total[has_parent],
                          minlength=total.size)
    return total - covered


def samples_needed(q: float, min_beyond: int = 10) -> int:
    """Samples to collect so that ``min_beyond`` of them lie above the q-th percentile."""
    return math.ceil(min_beyond * 100.0 / (100.0 - q))


def tail_percentile(samples, q: float, min_beyond: int = 10) -> float:
    """The q-th percentile, provided at least ``min_beyond`` samples lie above it."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no samples")
    value = float(np.percentile(values, q))
    beyond = int(np.count_nonzero(values > value))
    if beyond < min_beyond:
        raise ValueError(f"p{q:g} of {values.size} samples has {beyond} beyond it, "
                         f"fewer than {min_beyond}")
    return value


def _resolve(path: str):
    """Import ``package.module`` and walk the remaining dotted attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            obj = getattr(obj, attribute)
        return obj
    raise ModuleNotFoundError(path)


def traced(tracer: Tracer, name: str, fn, role: str | None = None, on_result=None):
    """``fn`` wrapped in a span; ``on_result(tracer, args, result)`` records counts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = tracer.open(name, role)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(start)
        if on_result is not None:
            on_result(tracer, args, result)
        return result
    return wrapper


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner path, attribute, make_replacement)`` triples; restore on exit.

    ``make_replacement`` receives the current function. Classmethods are
    unwrapped before and rewrapped after, so the replacement sees a plain
    function.
    """
    saved = []
    try:
        for owner_path, attribute, make in replacements:
            owner = _resolve(owner_path)
            # a class's __dict__ holds the classmethod object itself
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            if isinstance(original, classmethod):
                setattr(owner, attribute, classmethod(make(original.__func__)))
            else:
                setattr(owner, attribute, make(original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
