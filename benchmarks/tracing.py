"""Spans around calls into the program's public functions.

A Tracer replaces module attributes with wrappers. Each call through a
wrapper records one span: name, start, end (monotonic nanoseconds, so
comparable across processes on one machine), parent span and run id. Spans
are kept in compact arrays until the run ends; ``restore`` puts every
original function back.

A function is patched where its caller looks it up: ``training`` imports
``encode`` by name, so ``pairtune.training.encode`` is wrapped as well as
``pairtune.encoder.encode``. Each wrapper calls the original function, never
another wrapper, so one call records one span.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    """Records spans for every call through the functions it wraps."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self.counts: dict[str, float] = {}
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, module, attr: str, span: str, count=None) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``count(counts, args, kwargs, result)``, when given, runs after each
        call returns and adds to ``self.counts``; its cost is outside the span.
        """
        original = getattr(module, attr)
        if any(m is module and a == attr for m, a, _ in self._patched):
            raise ValueError(f"{module.__name__}.{attr} is already wrapped")
        name_id = self._name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        stack, counts, clock = self._stack, self.counts, time.monotonic_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped function, last wrapped first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as parallel arrays (name index into ``names``)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end": np.frombuffer(self._end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans as an ``.npz`` file with the name table and run id."""
        with open(path, "wb") as f:
            np.savez(
                f,
                names=np.array(self.names, dtype=str),
                run_id=np.array(self.run_id),
                **self.spans(),
            )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    their durations add up to the time they cover.
    """
    duration = (end - start).astype(np.int64)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def totals_by_name(spans: dict[str, np.ndarray], n_names: int):
    """Per span name: call count, total seconds and self seconds."""
    name = spans["name"]
    duration = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    calls = np.bincount(name, minlength=n_names)
    total_s = np.bincount(name, weights=duration, minlength=n_names) / 1e9
    self_s = np.bincount(name, weights=own, minlength=n_names) / 1e9
    return calls, total_s, self_s
