"""The durable archive: bulk ingest, compaction, reopen, retrieval, analytics.

Each *storage cycle* ingests the whole archive cohort into a fresh
:class:`~repro.database.backend.LoggedBackend` directory, serves one
warm-up query batch (so the signature index holds every queried window
length), compacts with the index, closes and reopens through the first
answered query.  The part runs in ``ROUNDS`` rounds; a storage cycle
opens every ``ROUNDS // STORAGE_CYCLES``-th round, and every round runs
a slice of the held-out queries in every match mode against the last
reopened archive, then motif and anomaly mining over the memory-mapped
snapshot of a separate, smaller slice of the archive, since the pairwise
motif scan grows faster than linearly with the archive.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import statistics
import time
from pathlib import Path

import numpy as np

from repro.analytics import SnapshotHarvest, discover_motifs, score_anomalies
from repro.core.matching import SubsequenceMatcher
from repro.core.similarity import MatchMode, SimilarityParams
from repro.database.backend import LoggedBackend, open_snapshot_scan
from repro.database.store import MotionDatabase
from repro.testing.oracle import (
    EquivalenceError,
    check_equivalence,
    reference_distance,
    reference_matches_for_mode,
)

from common import percentile
from inputs import Cohort
from tracing import Tracer, traced_layers

_clock = time.perf_counter

MODES = {
    "rigid": SimilarityParams(),
    "normalized": SimilarityParams(mode=MatchMode.NORMALIZED),
    "warped": SimilarityParams(mode=MatchMode.WARPED, warp_band=1),
}

#: Motif / anomaly window length (vertices) over the analytics slice.
MOTIF_LENGTH = 4

#: Ingest / compact / reopen cycles per run (storage timings are
#: medians over them: they ride on fsync latency).  Cycle directories
#: are only deleted when the run ends, so no timed fsync pays for
#: discarding an earlier cycle's blocks.
STORAGE_CYCLES = 2

#: Query slices and analytics scans per run, spread over the part so
#: their figures are not sampled in one burst.
ROUNDS = 6


def _collect() -> float:
    start = _clock()
    gc.collect()
    return _clock() - start


def _bytes_under(directory: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in directory.rglob(pattern) if p.is_file())


def ingest(cohort: Cohort, directory: Path) -> tuple[MotionDatabase, list[str]]:
    db = MotionDatabase(backend=LoggedBackend(directory))
    for profile in cohort.profiles:
        db.add_patient(profile.patient_id, profile.attributes)
    stream_ids = [
        db.add_stream(patient_id, session_id, series=series).stream_id
        for patient_id, session_id, series in cohort.history
    ]
    return db, stream_ids


def reopen(directory: Path, tracer: Tracer | None = None):
    """Reopen a compacted directory: backend, store and restored index."""
    with tracer.span("database.backend.reopen") if tracer else contextlib.nullcontext():
        backend = LoggedBackend(directory)
    db = MotionDatabase(backend=backend)
    return db, SubsequenceMatcher(db)


class ArchiveResult:
    """Per-cycle timings plus what the traced run reads off them."""

    def __init__(self) -> None:
        self.ingest_s: list[float] = []
        self.compact_s: list[float] = []
        self.reopen_s: list[float] = []
        self.analytics_s: list[float] = []
        self.latencies = {mode: [] for mode in MODES}
        self.matches = {mode: 0 for mode in MODES}
        self.candidates = {mode: 0 for mode in MODES}
        self.journal_bytes = self.snapshot_bytes = 0
        self.windows = 0
        self.wall_s = 0.0


class Archive:
    def __init__(self, cohort, queries, slice_cohort, ops, workdir, tracer=None):
        self.cohort = cohort
        self.queries = queries
        self.ops = ops
        self.workdir = workdir
        self.tracer = tracer
        self.n_vertices = cohort.n_vertices
        self.slice_dir = workdir / "slice"
        self.slice_cohort = slice_cohort
        # One query per distinct length indexes every window length the
        # batch (and warped mode's neighbouring lengths) will look up.
        by_length = {}
        for query in queries:
            by_length.setdefault(query.n_vertices, query)
        self.warm_up = [by_length[n] for n in sorted(by_length)]
        db, _ = ingest(slice_cohort, self.slice_dir)
        db.compact()
        db.close()

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _storage_cycle(self, directory: Path, out: ArchiveResult):
        """Ingest, serve a warm-up batch, compact, close and reopen.

        Returns the reopened store, its matcher and the stream ids, plus
        the seconds spent on measurement bookkeeping (excluded from the
        wall time).
        """
        ops, queries = self.ops, self.queries
        # A full collection before each timed step (not timed itself), so
        # collections inside it start from the same heap state each cycle.
        paused = _collect()
        start = _clock()
        db, stream_ids = ingest(self.cohort, directory)
        out.ingest_s.append(_clock() - start)
        ops.attempt(len(stream_ids))
        if self.tracer:
            a = _clock()
            out.journal_bytes += _bytes_under(directory, "*.jsonl")
            paused += _clock() - a
        matcher = SubsequenceMatcher(db)
        for params in (MODES["rigid"], MODES["warped"]):
            for query in self.warm_up:
                matcher.find_matches(query, params=params)
        ops.attempt(2 * len(self.warm_up))
        a = _clock()
        db.compact(index=matcher.index)
        out.compact_s.append(_clock() - a)
        ops.attempt(1)
        db.close()
        if self.tracer:
            a = _clock()
            out.snapshot_bytes += _bytes_under(directory / "snapshots", "*")
            paused += _clock() - a
        paused += _collect()
        a = _clock()
        db, matcher = reopen(directory, self.tracer)
        matcher.find_matches(self.warm_up[0])
        out.reopen_s.append(_clock() - a)
        ops.attempt(1)
        return db, matcher, stream_ids, paused

    def run(self) -> ArchiveResult:
        """``ROUNDS`` rounds, each a slice of the query batch (modes
        interleaved) and one analytics scan, with a storage cycle opening
        every ``ROUNDS // STORAGE_CYCLES``-th round, so every figure is
        sampled across the whole part rather than in one burst.
        """
        out = ArchiveResult()
        ops, tracer = self.ops, self.tracer
        start = _clock()
        paused = 0.0
        db = None
        for r in range(ROUNDS):
            check = r == 0
            if r % (ROUNDS // STORAGE_CYCLES) == 0:
                if db is not None:
                    db.close()
                directory = self.workdir / f"archive-{r}"
                db, matcher, stream_ids, bookkeeping = self._storage_cycle(directory, out)
                paused += bookkeeping
            if check:
                b = _clock()
                for (_, _, series), stream_id in zip(self.cohort.history, stream_ids):
                    back = db.stream(stream_id).series
                    ops.check(
                        np.array_equal(back.times, series.times)
                        and np.array_equal(back.positions, series.positions)
                        and np.array_equal(back.states, series.states),
                        f"stream {stream_id} did not round-trip through compact + reopen",
                    )
                paused += _clock() - b
            for i, query in enumerate(self.queries[r::ROUNDS]):
                for mode, params in MODES.items():
                    before = sum(tracer.counts.values()) if tracer else 0
                    a = _clock()
                    found = matcher.find_matches(query, params=params)
                    out.latencies[mode].append(_clock() - a)
                    out.matches[mode] += len(found)
                    if tracer:
                        out.candidates[mode] += sum(tracer.counts.values()) - before
                    ops.attempt(1)
                    if check and i < 2:
                        b = _clock()
                        self._check_query(db, query, params, found, mode)
                        paused += _clock() - b

            paused += _collect()
            a = _clock()
            with self._span("analytics.scan"):
                harvest = SnapshotHarvest(open_snapshot_scan(self.slice_dir))
            with self._span("analytics.motif"):
                motifs = discover_motifs(harvest, MOTIF_LENGTH)
            with self._span("analytics.anomaly"):
                report = score_anomalies(harvest, MOTIF_LENGTH)
            out.analytics_s.append(_clock() - a)
            out.windows = report.n_windows
            ops.attempt(2)
            if check:
                b = _clock()
                self._check_analytics(motifs, report)
                paused += _clock() - b
        db.close()
        out.wall_s = _clock() - start - paused
        return out

    def _check_query(self, db, query, params, found, mode) -> None:
        reference = reference_matches_for_mode(db, query, params=params)
        try:
            check_equivalence(found, reference)
        except EquivalenceError as exc:
            self.ops.check(False, f"{mode} query: {exc}")
        else:
            self.ops.check(True, "")

    def _check_analytics(self, motifs, report) -> None:
        """Sampled windows against a brute-force Definition 2 count."""
        params = dataclasses.replace(SimilarityParams(), use_source_weights=False)
        windows = []
        for patient_id, session_id, series in self.slice_cohort.history:
            for start in range(len(series) - MOTIF_LENGTH + 1):
                windows.append(
                    (
                        (f"{patient_id}/{session_id}", start),
                        series.subsequence(start, start + MOTIF_LENGTH),
                    )
                )

        def brute(key, window):
            return {
                other
                for other, candidate in windows
                if other != key
                and reference_distance(window, candidate, params)
                <= params.distance_threshold
            }

        lookup = dict(windows)
        anomalies = set(report.anomalies)
        if motifs:
            top = motifs[0]
            matched = brute(top.key, lookup[top.key])
            self.ops.check(
                top.count == len(matched) and set(top.matches) == matched,
                f"top motif {top.key} disagrees with the brute-force match set",
            )
        step = max(1, len(windows) // 8)
        for key, window in windows[::step]:
            matched = brute(key, window)
            self.ops.check(
                (key in anomalies) == (not matched),
                f"anomaly status of window {key} disagrees with brute force",
            )
            if motifs:
                self.ops.check(
                    len(matched) <= motifs[0].count,
                    f"window {key} has more matches than the top motif",
                )


def archive_phase(cohort, queries, slice_cohort, ops, trace, workdir) -> dict:
    """The archive part of a run: storage cycles, queries, analytics."""
    tracer = Tracer() if trace else None
    with traced_layers(tracer) if trace else contextlib.nullcontext():
        archive = Archive(cohort, queries, slice_cohort, ops, workdir, tracer)
        result = archive.run()
    median = statistics.median
    out: dict = {"layers": {}}
    p50 = {mode: 1e3 * percentile(result.latencies[mode], 50) for mode in MODES}
    out["metrics"] = {
        "rigid_query_p50_ms": (p50["rigid"], "ms"),
        "warped_query_p50_ms": (p50["warped"], "ms"),
        "motif_windows_per_s": (result.windows / median(result.analytics_s), "windows/s"),
    }
    # Storage figures ride on fsync and discard latency, which on the
    # reference host moved 2x from run to run, and the normalized p50
    # (allocation-heavy: about a thousand matches per query) spread more
    # than the 25% any bound allows: per-layer only (README).
    unbounded = {
        "core.matching.normalized.query_p50_ms": (p50["normalized"], "ms"),
        "database.backend.ingest_vertices_per_s": (
            median(archive.n_vertices / x for x in result.ingest_s),
            "vertices/s",
        ),
        "database.backend.compact_s": (median(result.compact_s), "s"),
        "database.backend.reopen_s": (median(result.reopen_s), "s"),
    }
    if trace:
        out["layers"] = {**unbounded, **archive_layers(tracer, archive, result)}
    out["unbounded"] = unbounded
    return out


def archive_layers(tracer: Tracer, archive: Archive, result: ArchiveResult) -> dict:
    cycles = STORAGE_CYCLES
    vertices = archive.n_vertices
    adds, add_s, _ = tracer.total("database.backend.add_stream")
    compacts, compact_s, _ = tracer.total("database.backend.compact")
    reopens, reopen_s, _ = tracer.total("database.backend.reopen")
    restores, restore_s, _ = tracer.total("database.index.restore")
    layers = {
        "database.backend.add_stream_ms": (1e3 * add_s / adds, "ms"),
        "database.backend.journal_bytes_per_vertex": (
            result.journal_bytes / (cycles * vertices),
            "B",
        ),
        "database.backend.compact_ms": (1e3 * compact_s / compacts, "ms"),
        "database.backend.snapshot_bytes_per_vertex": (
            result.snapshot_bytes / (cycles * vertices),
            "B",
        ),
        "database.backend.reopen_ms": (1e3 * reopen_s / reopens, "ms"),
        "database.index.restore_ms": (1e3 * restore_s / max(restores, 1), "ms"),
        "analytics.scan_ms": (1e3 * tracer.total("analytics.scan")[1] / ROUNDS, "ms"),
        "analytics.motif_ms": (1e3 * tracer.total("analytics.motif")[1] / ROUNDS, "ms"),
        "analytics.anomaly_ms": (1e3 * tracer.total("analytics.anomaly")[1] / ROUNDS, "ms"),
        "analytics.windows": (result.windows, "count"),
        "tracing.coverage.archive": (tracer.top_level_wall() / result.wall_s, "ratio"),
    }
    for mode in MODES:
        n_queries = len(result.latencies[mode])
        candidates = result.candidates[mode]
        matches = result.matches[mode]
        layers[f"core.matching.{mode}.candidates_per_query"] = (candidates / n_queries, "count")
        layers[f"core.matching.{mode}.matches_per_query"] = (matches / n_queries, "count")
        layers[f"core.matching.{mode}.yield"] = (
            matches / candidates if candidates else 0.0,
            "ratio",
        )
    return layers
