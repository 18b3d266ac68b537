"""In-memory span log and the wrappers that feed it.

A span is one call into a layer: a name, the span that was open when it
started (its parent), a start and an end. Spans are appended to flat
arrays while the traced pass runs and reduced only when it ends, so
recording costs two clock reads and four appends per call.

The simulator is single-threaded and, in the campaign service's inline
mode, never suspends inside a traced call, so a plain stack gives every
span its parent.

:class:`Patcher` installs wrappers on public functions and methods for
the traced pass only and puts the originals back afterwards. A function
imported by name into other modules (``from x import f``) is bound in
several namespaces; the patcher replaces every ``repro.*`` binding that
is the same object.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``observe(log, args, kwargs, result)`` — called after a traced call.
Observer = Callable[["SpanLog", tuple, dict, Any], None]


class SpanLog:
    """Flat, append-only record of spans plus benchmark-side tallies."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        #: Tallies only the wrappers can see (e.g. bursts that flipped).
        self.tallies: Dict[str, float] = {}
        #: Timing samples only the wrappers can see (e.g. queue waits).
        self.samples: Dict[str, List[float]] = {}
        #: Start marks keyed by object id, consumed by a later wrapper.
        self.marks: Dict[int, float] = {}

    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def inside(self, name_id: int) -> bool:
        """Whether the innermost open span is called ``name_id``."""
        return bool(self._stack) and self.name_ids[self._stack[-1]] == name_id

    def tally(self, key: str, amount: float = 1.0) -> None:
        self.tallies[key] = self.tallies.get(key, 0.0) + amount

    def span_count(self) -> int:
        return len(self.starts)

    def clear_tallies(self) -> None:
        """Forget tallies and samples (spans stay; see ``reduce(first=)``)."""
        self.tallies.clear()
        self.samples.clear()
        self.marks.clear()

    def reduce(self, first: int = 0) -> "SpanSummary":
        """Summarise the spans recorded from index ``first`` on."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        parents = np.array(self.parents[first:], dtype=np.int32)
        return reduce_spans(
            self.names,
            np.array(self.name_ids[first:], dtype=np.int32),
            np.where(parents >= first, parents - first, -1),
            np.array(self.starts[first:], dtype=np.float64),
            np.array(self.ends[first:], dtype=np.float64),
        )

    def save(self, path: str) -> None:
        """Write every span out (compressed numpy archive)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.array(self.name_ids, dtype=np.int32),
            parents=np.array(self.parents, dtype=np.int32),
            starts=np.array(self.starts, dtype=np.float64),
            ends=np.array(self.ends, dtype=np.float64),
        )


class _Span:
    __slots__ = ("_log", "_name_id", "_index")

    def __init__(self, log: SpanLog, name_id: int):
        self._log = log
        self._name_id = name_id
        self._index = -1

    def __enter__(self) -> "_Span":
        self._index = self._log.open(self._name_id)
        return self

    def __exit__(self, *exc: object) -> None:
        self._log.close(self._index)


class SpanSummary:
    """Per-name self time and call count, plus per-root coverage."""

    def __init__(
        self,
        names: List[str],
        self_s: np.ndarray,
        calls: np.ndarray,
        duration: np.ndarray,
        covered: np.ndarray,
        name_ids: np.ndarray,
        parents: np.ndarray,
    ):
        self.names = names
        self._self_s = self_s
        self._calls = calls
        self._duration = duration
        self._covered = covered
        self._name_ids = name_ids
        self._parents = parents

    def _index(self, name: str) -> Optional[int]:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def self_s(self, name: str) -> float:
        index = self._index(name)
        return 0.0 if index is None else float(self._self_s[index])

    def calls(self, name: str) -> int:
        index = self._index(name)
        return 0 if index is None else int(self._calls[index])

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name`` (children included)."""
        index = self._index(name)
        if index is None:
            return 0.0
        return float(self._duration[self._name_ids == index].sum())

    def coverage(self, root: str) -> Tuple[float, float]:
        """(covered seconds, wall seconds) summed over spans named ``root``.

        Covered time is the part of each root span that its direct
        children account for.
        """
        index = self._index(root)
        if index is None:
            return 0.0, 0.0
        mask = self._name_ids == index
        return float(self._covered[mask].sum()), float(self._duration[mask].sum())

    def top_level_s(self) -> float:
        """Summed duration of spans with no parent."""
        return float(self._duration[self._parents < 0].sum())


def reduce_spans(
    names: List[str],
    name_ids: np.ndarray,
    parents: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> SpanSummary:
    """Self time per name: each span's duration minus its children's.

    Children of one parent never overlap (a stack produced them), so the
    time they cover inside the parent is the sum of their durations.
    """
    count = len(names)
    duration = ends - starts
    nested = parents >= 0
    covered = np.bincount(
        parents[nested], weights=duration[nested], minlength=len(duration)
    )
    own = duration - covered
    return SpanSummary(
        names,
        np.bincount(name_ids, weights=own, minlength=count),
        np.bincount(name_ids, minlength=count),
        duration,
        covered,
        name_ids,
        parents,
    )


def traced(
    log: SpanLog, name: str, fn: Callable[..., Any], observe: Optional[Observer] = None
) -> Callable[..., Any]:
    """``fn`` wrapped in a span called ``name``.

    ``observe`` runs after the outermost call of ``name`` only, so a
    traced method calling another traced method of the same layer is
    counted once.
    """
    name_id = log.name_id(name)
    open_span = log.open
    close_span = log.close

    if observe is None:

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

    else:

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if not log.inside(name_id):
                observe(log, args, kwargs, result)
            return result

    return wrapper


def resolve(reference: str) -> Any:
    """``"package.module:Qual.Name"`` -> object (``"package.module"`` -> module)."""
    module_name, _, qualname = reference.partition(":")
    target: Any = import_module(module_name)
    for part in filter(None, qualname.split(".")):
        target = getattr(target, part)
    return target


class Patcher:
    """Installs traced wrappers and restores the originals."""

    def __init__(self, log: SpanLog):
        self._log = log
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, reference: str, name: str, observe: Optional[Observer] = None) -> None:
        """Trace the function or method at ``"module:Qual.attr"``."""
        owner_ref, _, attr = reference.rpartition(".")
        if ":" not in owner_ref:
            # A module-level function: "module:function".
            owner_ref, _, attr = reference.partition(":")
        owner = resolve(owner_ref)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                replacement: Any = type(raw)(traced(self._log, name, raw.__func__, observe))
            else:
                replacement = traced(self._log, name, raw, observe)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return
        original = getattr(owner, attr)
        wrapper = traced(self._log, name, original, observe)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
