"""In-memory span tracing around the program's public layer calls.

:class:`Tracer` keeps one aggregate per ``(name, parent)`` pair: call
count, total wall time and the part of that time covered by child
spans, so a layer's *self* time is its total minus its children.
:func:`traced_layers` installs wrappers on the public entry points of
each layer for the duration of a ``with`` block and removes them
afterwards; untraced runs never install anything.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class SpanStats:
    name: str
    parent: str | None
    count: int = 0
    wall_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.wall_s - self.child_s


class Tracer:
    """Nested span aggregates; each span records the span open at entry."""

    def __init__(self) -> None:
        # One frame per open span: [name, start, time covered by children].
        self._stack: list[list] = []
        self._stats: dict[tuple[str, str | None], SpanStats] = {}
        #: Work counted at span boundaries (e.g. candidates returned).
        self.counts: dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        wall = _clock() - start
        parent = self._stack[-1] if self._stack else None
        key = (name, parent[0] if parent else None)
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = SpanStats(name, key[1])
        stats.count += 1
        stats.wall_s += wall
        stats.child_s += child
        if parent is not None:
            parent[2] += wall

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def stats(self) -> list[SpanStats]:
        return list(self._stats.values())

    def total(self, name: str) -> tuple[int, float, float]:
        """``(count, wall_s, self_s)`` of ``name`` summed over parents."""
        count = wall = self_s = 0.0
        for stats in self._stats.values():
            if stats.name == name:
                count += stats.count
                wall += stats.wall_s
                self_s += stats.self_s
        return int(count), wall, self_s

    def top_level_wall(self) -> float:
        return sum(s.wall_s for s in self._stats.values() if s.parent is None)


def _wrap(tracer: Tracer, original, name: str, count=None):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            result = original(*args, **kwargs)
        finally:
            exit_()
        if count is not None:
            tracer.add(name, count(result))
        return result

    return wrapper


def _candidates(result) -> int:
    return 0 if result is None else result.n_candidates


def _grouped_candidates(groups) -> int:
    return sum(group.n_candidates for _, group in groups)


def _layer_targets():
    """``(owner, attribute, span name, counter)`` per wrapped layer call."""
    import repro.core.prediction as prediction
    from repro.core.matching import SubsequenceMatcher
    from repro.core.segmentation import OnlineSegmenter
    from repro.database.backend import LoggedBackend
    from repro.database.index import StateSignatureIndex
    from repro.database.ingest import StreamIngestor
    from repro.database.store import MotionDatabase
    from repro.service.manager import SessionManager
    from repro.service.sharding import ShardCoordinator

    return [
        (SessionManager, "tick", "service.manager.tick"),
        (SessionManager, "predict_ahead_all", "service.manager.predict_all"),
        (SessionManager, "open_session", "service.manager.open_session"),
        (SessionManager, "close_session", "service.manager.close_session"),
        (OnlineSegmenter, "add_point", "core.segmentation.add_point"),
        (StreamIngestor, "add_point", "database.ingest.add_point"),
        (MotionDatabase, "commit_vertices", "database.backend.commit"),
        (SubsequenceMatcher, "find_matches", "core.matching.find"),
        (StateSignatureIndex, "candidates", "database.index.candidates", _candidates),
        (
            StateSignatureIndex,
            "coarse_groups",
            "database.index.coarse_groups",
            _grouped_candidates,
        ),
        (StateSignatureIndex, "restore_buffers", "database.index.restore"),
        (prediction, "build_prediction_plan", "core.prediction.plan_build"),
        (ShardCoordinator, "tick", "service.sharding.tick"),
        (ShardCoordinator, "predict_ahead_all", "service.sharding.predict_all"),
        (ShardCoordinator, "open_session", "service.sharding.open_session"),
        (ShardCoordinator, "close_session", "service.sharding.close_session"),
        (LoggedBackend, "add_patient", "database.backend.add_patient"),
        (LoggedBackend, "add_stream", "database.backend.add_stream"),
        (LoggedBackend, "compact", "database.backend.compact"),
        (LoggedBackend, "close", "database.backend.close"),
    ]


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Wrap every layer call with a span of ``tracer`` inside the block."""
    installed = []
    try:
        for owner, attr, name, *count in _layer_targets():
            original = getattr(owner, attr)
            installed.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, _wrap(tracer, original, name, *count))
        yield tracer
    finally:
        for owner, attr, original, own in reversed(installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
