"""Live fleet serving: in-process (SessionManager) and sharded tiers.

A *round* opens one live session per tenant, feeds every tenant's raw
30 Hz frames in lock step — one ``tick`` plus one fleet
``predict_ahead_all`` per acquisition instant, closed loop — and closes
the sessions again, dropping their streams.  Round ``r`` of a phase replays
tenant set ``r``; every set has as many tenants and ticks as the others,
so rounds are equal units of work and a run attempts whole rounds only,
while the tail figures draw on distinct inputs in every round.

Checks run between steps with the clock paused, against the frozen
oracles in :mod:`repro.testing.oracle` (in-process tier) and against an
in-process manager replaying the same rounds (sharded tier).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import multiprocessing
import os
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import Telemetry
from repro.service.builder import PipelineBuilder
from repro.service.manager import SessionManager
from repro.service.sharding import ShardCoordinator, partition_database
from repro.testing.oracle import (
    EquivalenceError,
    check_equivalence,
    reference_matches_for_mode,
    reference_prediction,
    reference_segment,
)

from common import Ops, own_peak_rss_mb, peak_rss_mb_of, percentile
from inputs import Cohort, Tenant
from tracing import Tracer, traced_layers

#: Look-ahead of every served prediction (s): the system latency the
#: paper's gating controller compensates.
LATENCY = 0.2

_clock = time.perf_counter


def series_digest(series) -> str:
    """Byte-level fingerprint of a series (the shard workers' digest)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(series.times).tobytes())
    h.update(np.ascontiguousarray(series.positions).tobytes())
    h.update(np.ascontiguousarray(series.states).tobytes())
    return h.hexdigest()


@dataclass
class RoundResult:
    wall_s: float = 0.0
    steps_s: list = field(default_factory=list)
    predictions: list = field(default_factory=list)
    matches: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    stream_ids: list = field(default_factory=list)
    recovery_s: list | None = None
    refed_frames: list | None = None
    first_step_end: float | None = None
    opened_at: float | None = None


class Fleet:
    """Tenants' frames laid out per tick, shared by every round."""

    def __init__(self, tenants: tuple[Tenant, ...], seconds: float) -> None:
        self.tenants = tenants
        raw0 = tenants[0].raw
        self.n_ticks = int(round(seconds * raw0.sample_rate))
        self.times = raw0.times
        # (n_samples, n_tenants, ndim): one row is one tick's samples.
        self.values = np.stack([t.raw.values for t in tenants], axis=1)
        self.lag = int(round(LATENCY * raw0.sample_rate))

    @property
    def frames_per_round(self) -> int:
        return self.n_ticks * len(self.tenants)

    def quality(self, predictions: list) -> tuple[int, float, int]:
        """``(served, summed abs error, scored)`` against recorded frames.

        A prediction made at tick ``i`` for ``LATENCY`` ahead is scored
        against the frame recorded ``LATENCY`` later, when the tenant's
        recording has it.
        """
        served = 0
        error = 0.0
        scored = 0
        n_samples = len(self.times)
        for i, row in enumerate(predictions):
            for k, position in enumerate(row.values()):
                if position is None:
                    continue
                served += 1
                if i + self.lag < n_samples:
                    error += float(
                        np.linalg.norm(position - self.values[i + self.lag, k])
                    )
                    scored += 1
        return served, error, scored


class OracleChecks:
    """Sampled in-process checks against the frozen references."""

    def __init__(self, ops: Ops, n_tenants: int, n_ticks: int):
        self.ops = ops
        self.sampled = sorted({0, n_tenants // 2, n_tenants - 1})
        self.predict_every = max(1, n_ticks // 6)
        # Two refreshes from the round's second half, when tenants hold
        # matches (the naive oracle scans the whole archive per check).
        self.refresh_from = n_ticks // 2
        self.refresh_budget = 2

    def after_step(self, manager, fleet, sids, i, committed, predicted) -> None:
        t = float(fleet.times[i])
        for k in self.sampled:
            sid = sids[k]
            session = manager.session(sid)
            if i % self.predict_every == self.predict_every - 1:
                self._check_prediction(manager, session, sid, t, predicted[sid])
            if (
                self.refresh_budget > 0
                and i >= self.refresh_from
                and committed.get(sid)
                and session.query is not None
            ):
                self.refresh_budget -= 1
                self._check_refresh(manager, session, sid, sids)

    def _check_prediction(self, manager, session, sid, t, served) -> None:
        config = session.config
        if session.query is None or not session.matches:
            expected = None
        else:
            horizon = t + LATENCY - session.ingestor.series.end_time
            if horizon < 0:
                return
            expected = reference_prediction(
                manager.database,
                session.query,
                session.matches,
                horizon,
                params=config.similarity,
                min_matches=config.min_matches,
                anchor=manager.builder.anchor,
            )
        same = (expected is None and served is None) or (
            expected is not None
            and served is not None
            and np.array_equal(expected, served)
        )
        self.ops.check(same, f"prediction of {sid} at t={t:.3f} != reference_prediction")

    def _check_refresh(self, manager, session, sid, sids) -> None:
        config = session.config
        others = set(sids) - {sid}
        reference = [
            m
            for m in reference_matches_for_mode(
                manager.database,
                session.query,
                query_stream_id=sid,
                max_matches=config.max_matches,
                params=config.similarity,
            )
            if m.stream_id not in others
        ]
        try:
            check_equivalence(session.matches, reference, max_matches=config.max_matches)
        except EquivalenceError as exc:
            self.ops.check(False, f"refresh of {sid}: {exc}")
        else:
            self.ops.check(True, "")

    def after_round(self, fleet, sessions) -> None:
        n = fleet.n_ticks
        for k in self.sampled:
            live = sessions[k].ingestor.series
            ref = reference_segment(fleet.times[:n], fleet.values[:n, k])
            same = (
                len(live) == len(ref)
                and np.array_equal(live.states, ref.states)
                and np.allclose(live.times, ref.times, rtol=1e-9, atol=1e-9)
                and np.allclose(live.positions, ref.positions, rtol=1e-7, atol=1e-9)
            )
            self.ops.check(same, f"tenant {k} vertices != reference_segment")


def manager_round(manager, fleet, tag, ops, checks=None, keep=False) -> RoundResult:
    """One fleet round through an in-process :class:`SessionManager`."""
    result = RoundResult()
    gc.collect()
    paused = 0.0
    start = _clock()
    sessions = [
        manager.open_session(t.patient_id, f"{tag}T{k:02d}")
        for k, t in enumerate(fleet.tenants)
    ]
    sids = [s.stream_id for s in sessions]
    result.stream_ids = sids
    values, times = fleet.values, fleet.times
    for i in range(fleet.n_ticks):
        samples = dict(zip(sids, values[i]))
        a = _clock()
        committed = manager.tick(float(times[i]), samples)
        predicted = manager.predict_ahead_all(LATENCY)
        b = _clock()
        result.steps_s.append(b - a)
        result.predictions.append(predicted)
        if checks is not None:
            checks.after_step(manager, fleet, sids, i, committed, predicted)
            paused += _clock() - b
    ops.attempt(2 * fleet.n_ticks)
    if keep:
        b = _clock()
        result.matches = {sid: list(manager.session(sid).matches) for sid in sids}
        result.digests = {
            sid: series_digest(manager.session(sid).ingestor.series) for sid in sids
        }
        paused += _clock() - b
    for sid in sids:
        manager.close_session(sid, keep_stream=False)
    result.wall_s = _clock() - start - paused
    if checks is not None:
        checks.after_round(fleet, sessions)
    return result


def _shard_process(shard: int):
    for proc in multiprocessing.active_children():
        if proc.name == f"repro-shard-{shard}":
            return proc
    raise RuntimeError(f"no live worker process for shard {shard}")


def _loopback_bytes() -> int:
    """Bytes sent over loopback so far (this network namespace).

    The coordinator talks to its workers over 127.0.0.1 sockets, whose
    traffic ``/proc/self/io`` does not count (it sees read/write calls,
    not send/recv), so the wire volume is read off the ``lo`` device.
    """
    with open("/proc/net/dev") as fh:
        for line in fh:
            name, _, fields = line.partition(":")
            if name.strip() == "lo":
                return int(fields.split()[8])
    return 0


def _root_busy_s(snapshots) -> float:
    """Worker time inside top-level spans, summed over workers."""
    return sum(
        span["wall_s"]
        for payload in snapshots.values()
        if payload is not None
        for span in payload["spans"]
        if span["parent"] is None
    )


def coordinator_round(coordinator, fleet, tag, ops, kills=()) -> RoundResult:
    """One fleet round through a :class:`ShardCoordinator`.

    For each tick index in ``kills``, the shards are compacted 30 ticks
    earlier (bounding the frame log the recovery re-feeds), the worker
    hosting tenant 0 is SIGKILLed before that tick, and the tick's call
    — which detects the crash and recovers the shard — is timed into
    ``recovery_s``.  The round then continues on the recovered shard.
    """
    result = RoundResult(recovery_s=[], refed_frames=[])
    gc.collect()
    start = _clock()
    paused = 0.0
    sids = [
        coordinator.open_session(t.patient_id, f"{tag}T{k:02d}")
        for k, t in enumerate(fleet.tenants)
    ]
    result.stream_ids = sids
    result.opened_at = _clock()
    compact_at = {kill - 30 for kill in kills}
    values, times = fleet.values, fleet.times
    for i in range(fleet.n_ticks):
        samples = dict(zip(sids, values[i]))
        if i in compact_at:
            a = _clock()
            coordinator.compact()
            ops.attempt(1)
            paused += _clock() - a
        if i in kills:
            a = _clock()
            shard = coordinator.shard_of_stream(sids[0])
            victim = _shard_process(shard)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            b = _clock()
            coordinator.tick(float(times[i]), samples)
            result.recovery_s.append(_clock() - b)
            predicted = coordinator.predict_ahead_all(LATENCY)
            c = _clock()
            snapshot = coordinator.worker_snapshots()[shard]
            if snapshot is not None:
                on_shard = sum(coordinator.shard_of_stream(s) == shard for s in sids)
                frames = snapshot["merged"]["counters"].get("service.frames", 0)
                result.refed_frames.append(int(frames) - on_shard)
            paused += _clock() - a - (c - b)
            result.predictions.append(predicted)
            continue
        a = _clock()
        coordinator.tick(float(times[i]), samples)
        predicted = coordinator.predict_ahead_all(LATENCY)
        b = _clock()
        if result.first_step_end is None:
            result.first_step_end = b
        result.steps_s.append(b - a)
        result.predictions.append(predicted)
    ops.attempt(2 * fleet.n_ticks)
    a = _clock()
    result.matches = {sid: coordinator.matches_of(sid) for sid in sids}
    by_shard: dict[int, list[str]] = {}
    for sid in sids:
        by_shard.setdefault(coordinator.shard_of_stream(sid), []).append(sid)
    for shard, members in by_shard.items():
        result.digests.update(coordinator.digests(shard, members))
    paused += _clock() - a
    for sid in sids:
        coordinator.close_session(sid, keep_stream=False)
    result.wall_s = _clock() - start - paused
    return result


def same_predictions(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        if list(row_a) != list(row_b):
            return False
        for x, y in zip(row_a.values(), row_b.values()):
            if (x is None) != (y is None):
                return False
            if x is not None and not np.array_equal(x, y):
                return False
    return True


def fleet_metrics(served_rounds: list[tuple[Fleet, RoundResult]]) -> dict:
    """Fleet figures over ``(tenant set, round)`` pairs."""
    rounds = [r for _, r in served_rounds]
    steps = np.asarray([s for r in rounds for s in r.steps_s]) * 1e3
    wall = sum(r.wall_s for r in rounds)
    frames = served = error = scored = 0
    for fleet, r in served_rounds:
        s, e, n = fleet.quality(r.predictions)
        frames += fleet.frames_per_round
        served += s
        error += e
        scored += n
    return {
        "frames_per_s": (frames / wall, "frames/s"),
        "tick_p50_ms": (percentile(steps, 50), "ms"),
        "tick_p99_ms": (percentile(steps, 99), "ms"),
        "prediction_error_mm": (error / scored if scored else math.nan, "mm"),
        "predictions_served": (served / len(rounds), "count"),
    }


def run_rounds(serve_round, seconds: float) -> list:
    """A warm-up round, then timed rounds until their wall time reaches
    ``seconds`` (at least one).

    The warm-up round pays the signature index's lazy catch-up over the
    whole archive, once per server; the timed rounds measure serving.
    """
    rounds = [serve_round(0), serve_round(1)]
    while sum(r.wall_s for r in rounds[1:]) < seconds:
        rounds.append(serve_round(len(rounds)))
    return rounds


# -- in-process tier --------------------------------------------------------------


def open_manager(cohort: Cohort, builder: PipelineBuilder, telemetry=None):
    return SessionManager(cohort.store(), builder=builder, telemetry=telemetry)


def time_open_manager(cohort: Cohort, builder: PipelineBuilder, fleet: Fleet) -> float:
    """Seconds to open the live tier: store, manager (index) and sessions."""
    start = _clock()
    manager = open_manager(cohort, builder)
    sids = [
        manager.open_session(t.patient_id, f"O{k:02d}").stream_id
        for k, t in enumerate(fleet.tenants)
    ]
    elapsed = _clock() - start
    for sid in sids:
        manager.close_session(sid, keep_stream=False)
    return elapsed


def in_process_phase(cohort, fleet_of, builder, seconds, ops, trace) -> dict:
    """The live tier: timed rounds through one in-process manager.

    ``fleet_of(r)`` is the tenant set of round ``r``.
    """
    out: dict = {"layers": {}}
    fleet0 = fleet_of(0)
    if trace:
        # Tracing overhead: the same first round, untraced, on its own manager.
        baseline = manager_round(open_manager(cohort, builder), fleet0, "B", ops)
    tracer = Tracer()
    telemetry = Telemetry() if trace else None
    checks = OracleChecks(ops, len(fleet0.tenants), fleet0.n_ticks)
    with traced_layers(tracer) if trace else contextlib.nullcontext():
        manager = open_manager(cohort, builder, telemetry)
        rounds = run_rounds(
            lambda r: manager_round(
                manager, fleet_of(r), f"R{r:02d}", ops, checks if r == 0 else None
            ),
            seconds,
        )
    # Taken before any other part of the run can raise the peak.
    out["peak_rss_mb"] = own_peak_rss_mb()
    out["metrics"] = fleet_metrics([(fleet_of(r), rounds[r]) for r in range(1, len(rounds))])
    out["rounds"] = len(rounds)
    if trace:
        out["layers"] = manager_layers(tracer, telemetry, rounds)
        out["layers"]["tracing.overhead"] = (rounds[0].wall_s / baseline.wall_s - 1, "ratio")
    return out


def manager_layers(tracer: Tracer, telemetry, rounds) -> dict:
    merged = telemetry.snapshot().merged
    ticks, tick_s, _ = tracer.total("service.manager.tick")
    preds, pred_s, _ = tracer.total("service.manager.predict_all")
    points, seg_s, _ = tracer.total("core.segmentation.add_point")
    ingests, _, ingest_self_s = tracer.total("database.ingest.add_point")
    commits, commit_s, _ = tracer.total("database.backend.commit")
    finds, find_s, _ = tracer.total("core.matching.find")
    builds, build_s, _ = tracer.total("core.prediction.plan_build")
    catch_up = merged.histograms.get("index.catch_up_s")
    hits = merged.counter("prediction.plan_cache_hits")
    n_builds = merged.counter("prediction.plan_builds")
    wall = sum(r.wall_s for r in rounds)
    return {
        "service.manager.tick_ms": (1e3 * tick_s / ticks, "ms"),
        "service.manager.predict_all_ms": (1e3 * pred_s / preds, "ms"),
        "core.segmentation.add_point_us": (1e6 * seg_s / points, "us"),
        "core.segmentation.vertices": (merged.counter("segmenter.vertices") / len(rounds), "count"),
        "database.ingest.add_point_us": (1e6 * ingest_self_s / ingests, "us"),
        "database.backend.commit_us": (1e6 * commit_s / max(commits, 1), "us"),
        "database.backend.commits": (commits / len(rounds), "count"),
        "core.matching.find_ms": (1e3 * find_s / max(finds, 1), "ms"),
        "core.matching.finds": (finds / len(rounds), "count"),
        "database.index.catch_up_ms": (
            1e3 * catch_up.total / len(rounds) if catch_up else 0.0,
            "ms",
        ),
        "database.index.windows_indexed": (
            merged.counter("index.windows_indexed") / len(rounds),
            "count",
        ),
        "core.prediction.plan_build_ms": (1e3 * build_s / max(builds, 1), "ms"),
        "core.prediction.plan_builds": (builds / len(rounds), "count"),
        "core.prediction.plan_hit_ratio": (hits / (hits + n_builds) if hits + n_builds else 0.0, "ratio"),
        "tracing.coverage.live": (tracer.top_level_wall() / wall, "ratio"),
    }


# -- sharded tier -----------------------------------------------------------------


def open_coordinator(root, n_workers, builder, trace):
    telemetry = Telemetry() if trace else None
    return ShardCoordinator(
        root, n_workers, builder=builder, telemetry=telemetry, worker_telemetry=trace
    )


def _kills(fleet: Fleet) -> tuple[int, ...]:
    """Three worker kills per crash round, at 1/2, 2/3 and 5/6 of it."""
    n = fleet.n_ticks
    return (n // 2, 2 * n // 3, 5 * n // 6)


def _compare(ops, reference, mine, tag) -> None:
    ops.check(
        same_predictions(mine.predictions, reference.predictions),
        f"sharded predictions of round {tag} differ from the in-process manager",
    )
    ops.check(mine.matches == reference.matches, f"sharded matches of round {tag} differ")
    ops.check(mine.digests == reference.digests, f"sharded series of round {tag} differ")


def sharded_phase(
    cohort, fleet_of, crash_fleet, builder, seconds, ops, trace, workdir,
    timed=True, scatter_workers=0,
) -> dict:
    """The sharded tier: cold start, timed rounds, then a crash round.

    One coordinator with one worker serves everything timed: the cold
    start, the rounds (only when ``timed``) and the crash round, which
    replays ``crash_fleet`` and kills the worker three times
    (``recovery_s`` is the median recovery call).  With
    ``scatter_workers`` > 1 a second coordinator replays the crash round
    over that many shards (one kill), so queries scatter across shards
    and merge, for the byte-identity checks only.  Each compared round is replayed
    through an in-process manager, which the sampled oracle checks
    cover; the sharded predictions, final match sets and series must be
    byte-identical to it, after every recovery too.  ``fleet_of(r)`` is
    the tenant set of round ``r``.
    """
    out: dict = {"metrics": {}, "layers": {}}
    fleet0 = fleet_of(0)
    root = workdir / "shards"
    store = cohort.store()
    partition_database(store, root, 1)
    if trace and timed:
        # Tracing overhead: the same first round, untraced, on its own
        # coordinator (worker telemetry cannot be switched off later).
        coordinator = open_coordinator(root, 1, builder, False)
        try:
            baseline = coordinator_round(coordinator, fleet0, "B", ops)
        finally:
            coordinator.close()
    tracer = Tracer()
    with traced_layers(tracer) if trace else contextlib.nullcontext():
        t0 = _clock()
        coordinator = open_coordinator(root, 1, builder, trace)
        spawn_s = _clock() - t0
        try:
            wire0 = _loopback_bytes()
            # The probe (not ``timed``) skips the plain rounds unless the
            # traced run needs one to attribute per-step layer time.
            rounds = (
                run_rounds(
                    lambda r: coordinator_round(coordinator, fleet_of(r), f"R{r:02d}", ops),
                    seconds,
                )
                if timed
                else [coordinator_round(coordinator, fleet0, "R00", ops)]
                if trace
                else []
            )
            wire_bytes = _loopback_bytes() - wire0
            # Coordinator plus worker peaks while serving the rounds, taken
            # before the crash round (which respawns the worker) and the
            # in-process replays below.
            rss = own_peak_rss_mb() + peak_rss_mb_of(
                p.pid for p in multiprocessing.active_children()
            )
            if trace:
                spans = {
                    s.name: (s.count, s.wall_s) for s in tracer.stats() if s.parent is None
                }
                busy_s = _root_busy_s(coordinator.worker_snapshots())
                workers = coordinator.fleet_registry()
                router = coordinator.telemetry.snapshot().merged
            crash = coordinator_round(coordinator, crash_fleet, "RX", ops, _kills(crash_fleet))
            first = (rounds or [crash])[0]
            cold_start_s = first.first_step_end - t0
        finally:
            coordinator.close()
    compared = [("R00", fleet0, rounds[0])] if rounds else []
    compared.append(("RX", crash_fleet, crash))
    if scatter_workers > 1:
        scatter_root = workdir / "scatter"
        partition_database(store, scatter_root, scatter_workers)
        coordinator = open_coordinator(scatter_root, scatter_workers, builder, trace)
        try:
            scattered = coordinator_round(
                coordinator, crash_fleet, "RX", ops, _kills(crash_fleet)[:1]
            )
            if trace:
                router = coordinator.telemetry.snapshot().merged
        finally:
            coordinator.close()
    ref_tracer = Tracer()
    ref_telemetry = Telemetry() if trace else None
    refs = {}
    with traced_layers(ref_tracer) if trace else contextlib.nullcontext():
        reference = open_manager(cohort, builder, ref_telemetry)
        for tag, replayed, _ in compared:
            checks = OracleChecks(ops, len(replayed.tenants), replayed.n_ticks)
            refs[tag] = manager_round(reference, replayed, tag, ops, checks, keep=True)
    for tag, _, mine in compared:
        _compare(ops, refs[tag], mine, tag)
    if scatter_workers > 1:
        _compare(ops, refs["RX"], scattered, f"RX over {scatter_workers} shards")
    out["metrics"] = {"recovery_s": (statistics.median(crash.recovery_s), "s")}
    # One cold start per run: a single fresh interpreter's import, whose
    # ten-run spread exceeded any bound of at most 25% (README).
    out["unbounded"] = {"service.sharding.cold_start_s": (cold_start_s, "s")}
    out["open_s"] = first.opened_at - t0
    out["rounds"] = len(rounds)
    out["peak_rss_mb"] = rss
    if timed:
        out["metrics"].update(
            fleet_metrics([(fleet_of(r), rounds[r]) for r in range(1, len(rounds))])
        )
    if trace:
        out["reference_layers"] = manager_layers(
            ref_tracer, ref_telemetry, list(refs.values())
        )
        steps = sum(len(r.steps_s) for r in rounds)
        frames = fleet0.frames_per_round * len(rounds)
        tick_n, tick_s = spans["service.sharding.tick"]
        pred_n, pred_s = spans["service.sharding.predict_all"]
        wall = sum(r.wall_s for r in rounds)
        out["layers"] = {
            "service.sharding.tick_ms": (1e3 * tick_s / tick_n, "ms"),
            "service.sharding.predict_all_ms": (1e3 * pred_s / pred_n, "ms"),
            "service.sharding.worker_busy_ms": (1e3 * busy_s / steps, "ms"),
            # The rest of the coordinator's call time is wire: encoding,
            # socket transfer, decoding and the merge.
            "service.sharding.wire_ms": (1e3 * (tick_s + pred_s - busy_s) / steps, "ms"),
            "service.sharding.wire_bytes_per_frame": (wire_bytes / frames, "B"),
            "service.sharding.rpcs": (workers.counter("shard.rpcs") / len(rounds), "count"),
            # Per crash round over ``scatter_workers`` shards (zero with
            # one shard: nothing scatters).
            "service.sharding.scatter_finds": (router.counter("router.scatter_finds"), "count"),
            "service.sharding.series_shipped": (router.counter("router.series_shipped"), "count"),
            "service.sharding.spawn_s": (spawn_s, "s"),
            "service.sharding.cold_start_s": (cold_start_s, "s"),
            "service.sharding.refed_frames": (statistics.median(crash.refed_frames), "count"),
            "tracing.coverage.sharded": (sum(w for _, w in spans.values()) / wall, "ratio"),
        }
        if timed:
            out["layers"]["tracing.overhead"] = (rounds[0].wall_s / baseline.wall_s - 1, "ratio")
    return out
