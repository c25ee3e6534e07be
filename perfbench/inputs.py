"""Seeded inputs for every workload, generated with ``repro.signals``.

The archive is fixed: the patient population and each patient's
historical raw sessions, segmented into PLR series by the program's own
offline segmenter (the way an archive is built).  What arrives depends
only on the workload seed: the live tenants' raw 30 Hz streams and the
held-out sessions the queries come from.  None of it is timed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import PLRSeries, Subsequence
from repro.core.query import generate_query
from repro.core.segmentation import segment_signal
from repro.database.index import StateSignatureIndex
from repro.database.store import MotionDatabase
from repro.signals.patients import PatientProfile, generate_population
from repro.signals.respiratory import RawStream, RespiratorySimulator, SessionConfig


@dataclass(frozen=True)
class Cohort:
    """Patients plus their segmented historical sessions."""

    profiles: tuple[PatientProfile, ...]
    #: ``(patient_id, session_id, series)`` in insertion order.
    history: tuple[tuple[str, str, PLRSeries], ...]

    @property
    def n_vertices(self) -> int:
        return sum(len(series) for _, _, series in self.history)

    def head(self, n_patients: int) -> "Cohort":
        """The first ``n_patients`` patients and their sessions."""
        profiles = self.profiles[:n_patients]
        kept = {profile.patient_id for profile in profiles}
        return Cohort(profiles, tuple(h for h in self.history if h[0] in kept))

    def store(self) -> MotionDatabase:
        """The cohort as a fresh in-memory store."""
        db = MotionDatabase()
        for profile in self.profiles:
            db.add_patient(profile.patient_id, profile.attributes)
        for patient_id, session_id, series in self.history:
            db.add_stream(patient_id, session_id, series=series)
        return db


@dataclass(frozen=True)
class Tenant:
    """One live session: a patient and its raw frames."""

    patient_id: str
    raw: RawStream


def _mix(seed: int, *parts: int) -> int:
    """A child seed that depends on the workload seed and a stream tag."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


#: Seed of the archive: the patient population and its historical
#: sessions are fixed, like a clinic's records; what arrives (live
#: tenants' frames, held-out queries) depends on the workload seed.
ARCHIVE_SEED = 20050614


def make_cohort(n_patients: int, sessions: int, duration: float) -> Cohort:
    """``n_patients`` x ``sessions`` historical sessions of ``duration`` s.

    Patients and sessions are drawn in order from the fixed seed, so a
    smaller cohort is exactly the :meth:`Cohort.head` of a larger one.
    """
    profiles = tuple(generate_population(n_patients, seed=ARCHIVE_SEED))
    history = []
    for p, profile in enumerate(profiles):
        simulator = RespiratorySimulator(profile, SessionConfig(duration=duration))
        for k in range(sessions):
            raw = simulator.generate_session(k, seed=_mix(ARCHIVE_SEED, 1, p, k))
            history.append(
                (profile.patient_id, f"S{k:02d}", segment_signal(raw.times, raw.values))
            )
    return Cohort(profiles, tuple(history))


def make_tenants(
    seed: int, cohort: Cohort, n_tenants: int, duration: float, round_: int = 0
) -> tuple[Tenant, ...]:
    """Fresh live sessions for one fleet round, tenant ``j`` belonging to
    patient ``j mod n``; every round gets its own sessions."""
    tenants = []
    for j in range(n_tenants):
        profile = cohort.profiles[j % len(cohort.profiles)]
        raw = RespiratorySimulator(
            profile, SessionConfig(duration=duration)
        ).generate_session(900 + j, seed=_mix(seed, 2, round_, j))
        tenants.append(Tenant(profile.patient_id, raw))
    return tuple(tenants)


def make_queries(
    seed: int, cohort: Cohort, n_queries: int, duration: float = 90.0, n_patients: int = 16
) -> tuple[Subsequence, ...]:
    """Dynamic queries over held-out sessions of the cohort's patients.

    One held-out session per patient (of the first ``n_patients``) is
    segmented and the program's query generator
    runs on its successive prefixes, exactly as a live session asks
    after each committed vertex; ``n_queries`` of all those queries are
    drawn at random (seeded), stratified by candidate count.
    """
    pool: list[Subsequence] = []
    for p, profile in enumerate(cohort.profiles[:n_patients]):
        raw = RespiratorySimulator(
            profile, SessionConfig(duration=duration)
        ).generate_session(700, seed=_mix(seed, 3, p))
        series = segment_signal(raw.times, raw.values)
        times, positions, states = series.times, series.positions, series.states
        for end in range(12, len(series) + 1, 2):
            prefix = PLRSeries.from_dense(
                times[:end].copy(), positions[:end].copy(), states[:end].copy()
            )
            query = generate_query(prefix)
            if query is not None:
                pool.append(query)
    # Stratified by cost: one random query from each of ``n_queries``
    # equal-count bins of the pool ordered by candidate count (windows of
    # the archive sharing the query's state signature), so every seed
    # asks the same mix of cheap and expensive queries.
    index = StateSignatureIndex(cohort.store())
    cost = []
    for query in pool:
        found = index.candidates(query.segment_states)
        cost.append(0 if found is None else found.n_candidates)
    rng = np.random.default_rng(_mix(seed, 4))
    order = sorted(range(len(pool)), key=lambda i: (cost[i], rng.random()))
    bins = np.array_split(np.asarray(order), min(n_queries, len(pool)))
    picked = [int(rng.choice(b)) for b in bins]
    rng.shuffle(picked)
    return tuple(pool[i] for i in picked)
