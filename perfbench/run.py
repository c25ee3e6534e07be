"""Repository benchmark: live serving, the sharded tier and the archive.

Run from the repository root::

    python3 perfbench/run.py --workload live_fleet --seed 1 --seconds 8 --trace 0

Every run serves timed fleet rounds in the workload's tier, runs the
sharded tier's crash round (cold start and recovery) and the archive
part, so every end-to-end metric is measured on every workload (see
README.md).  ``--trace 1`` wraps the program's public layer calls with
in-memory spans and reports the per-layer metrics instead.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host fingerprint, seed, sizes and per-phase operation
counts.  The exit code is 0 only when the run completed (its checks may
still have failed; ``correct`` says so).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter imports per run (this process's own counts as
#: one); their median is ``import_s``.
IMPORT_REPEATS = 2

#: The archive: 48 patients x 3 historical sessions of 120 s (about 16k
#: vertices), which the archive part bulk-ingests, compacts and queries.
ARCHIVE_COHORT = dict(n_patients=48, sessions=3, duration=120.0)

#: The serving tiers' cohort: the archive's first 24 patients (about
#: 7.6k vertices), so a fleet round stays within the run's time.
FLEET_PATIENTS = 24

#: Per workload: which tier serves the timed fleet rounds, and sizes.
#: Every run also runs the sharded tier's crash round and the archive
#: part, so every end-to-end metric is measured on every workload.
WORKLOADS = {
    "live_fleet": dict(
        focus="live",
        live=dict(tenants=32, round_s=40.0),
        sharded=dict(tenants=8, round_s=24.0),
    ),
    "sharded_fleet": dict(
        focus="sharded",
        sharded=dict(tenants=24, round_s=32.0, scatter_workers=2),
    ),
}

#: The archive part of every run: held-out queries per match mode.
ARCHIVE_QUERIES = 180

#: Length (s) of the sharded tier's crash round: most tenants hold
#: matches by its first worker kill, half way through.
CRASH_ROUND_S = 24.0

#: Tenants replayed in the crash rounds (the first of the tier's tenants).
CRASH_TENANTS = 8

#: Streams of the archive cohort that form the analytics slice.
SLICE_STREAMS = 12

END_TO_END = (
    "setup_s",
    "peak_rss_mb",
    "frames_per_s",
    "tick_p50_ms",
    "tick_p99_ms",
    "prediction_error_mm",
    "predictions_served",
    "recovery_s",
    "rigid_query_p50_ms",
    "warped_query_p50_ms",
    "motif_windows_per_s",
)


def measure_import() -> float:
    """``import repro`` in a fresh interpreter, timed inside it."""
    code = (
        "import time; t = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def stop_children() -> None:
    """End every process the run started and wait for each.

    Shard workers are closed by their coordinators; any left over (a
    failed run) are terminated here.  Spawning them also started
    multiprocessing's resource tracker, which would otherwise only
    notice this process's exit and outlive it while shutting down.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()


def host_fingerprint(usable_cpus: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    import_s: float,
    usable_cpus: int,
) -> dict:
    import archive
    import fleet
    import inputs
    from common import Ops
    from repro.service.builder import PipelineBuilder

    spec = WORKLOADS[workload]
    focus = spec["focus"]
    builder = PipelineBuilder()
    phases: dict[str, dict] = {}
    ops: dict[str, Ops] = {}
    marks = [("start", time.perf_counter())]

    archive_cohort = inputs.make_cohort(**ARCHIVE_COHORT)
    cohort = archive_cohort.head(FLEET_PATIENTS)
    sizes = {
        "cohort_vertices": cohort.n_vertices,
        "archive_vertices": archive_cohort.n_vertices,
    }
    marks.append(("inputs", time.perf_counter()))

    def fleets(tier_seed: int, tier: dict):
        """Round ``r`` -> that round's tenant set (made when first asked)."""

        @functools.cache
        def fleet_of(r: int):
            tenants = inputs.make_tenants(
                tier_seed, cohort, tier["tenants"], tier["round_s"] + 1, r
            )
            return fleet.Fleet(tenants, tier["round_s"])

        return fleet_of

    if "live" in spec:
        live = fleets(seed, spec["live"])
        ops["live"] = Ops()
        phases["live"] = fleet.in_process_phase(
            cohort, live, builder, seconds, ops["live"], trace
        )
        sizes["live_tenants"] = spec["live"]["tenants"]
        marks.append(("live", time.perf_counter()))

    shard_spec = spec["sharded"]
    shard_fleet = fleets(seed + 7919, shard_spec)
    ops["sharded"] = Ops()
    (workdir / "sharded").mkdir()
    phases["sharded"] = fleet.sharded_phase(
        cohort,
        shard_fleet,
        fleet.Fleet(shard_fleet(0).tenants[:CRASH_TENANTS], CRASH_ROUND_S),
        builder,
        seconds,
        ops["sharded"],
        trace,
        workdir / "sharded",
        timed=focus == "sharded",
        scatter_workers=min(shard_spec.get("scatter_workers", 0), usable_cpus),
    )
    sizes["sharded_tenants"] = shard_spec["tenants"]
    marks.append(("sharded", time.perf_counter()))

    queries = inputs.make_queries(seed, archive_cohort, ARCHIVE_QUERIES)
    marks.append(("archive_inputs", time.perf_counter()))
    slice_cohort = inputs.Cohort(
        archive_cohort.profiles, archive_cohort.history[:SLICE_STREAMS]
    )
    ops["archive"] = Ops()
    (workdir / "archive").mkdir()
    phases["archive"] = archive.archive_phase(
        archive_cohort,
        queries,
        slice_cohort,
        ops["archive"],
        trace,
        workdir / "archive",
    )
    marks.append(("archive", time.perf_counter()))
    sizes.update(
        queries_per_mode=len(queries),
        slice_vertices=slice_cohort.n_vertices,
    )

    # Set-up: a fresh interpreter's import plus opening the focus tier's
    # store, index, sessions and workers (median of several opens where
    # the tier is cheap to reopen).
    imports = [import_s] + [measure_import() for _ in range(IMPORT_REPEATS - 1)]
    if focus == "live":
        opens = [fleet.time_open_manager(cohort, builder, live(0)) for _ in range(3)]
    else:
        opens = [phases[focus]["open_s"]]
    setup_s = statistics.median(imports) + statistics.median(opens)
    marks.append(("setup", time.perf_counter()))

    # The focus tier's peak, taken right after its timed rounds.
    rss = phases[focus]["peak_rss_mb"]
    fleet_source = "sharded" if focus == "sharded" else "live"
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB")}
    for phase in (fleet_source, "sharded", "archive"):
        for name, value in phases[phase]["metrics"].items():
            metrics.setdefault(name, value)

    if trace:
        layers: dict = {}
        for phase in (focus, "live", "sharded", "archive"):
            if phase in phases:
                for name, value in phases[phase]["layers"].items():
                    layers.setdefault(name, value)
        for name, value in phases["sharded"].get("reference_layers", {}).items():
            layers.setdefault(name, value)
        coverage = [v for k, (v, _) in layers.items() if k.startswith("tracing.coverage.")]
        layers = {k: v for k, v in layers.items() if not k.startswith("tracing.coverage.")}
        layers["tracing.coverage"] = (min(coverage), "ratio")
        layers["process.import_s"] = (statistics.median(imports), "s")
        reported = layers
    else:
        reported = {name: metrics[name] for name in END_TO_END}

    attempted = sum(o.attempted for o in ops.values())
    failed = sum(o.failed for o in ops.values())
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_fingerprint(usable_cpus),
        "sizes": sizes,
        "rounds": {k: p.get("rounds") for k, p in phases.items()},
        "unbounded": {
            k: v
            for phase in ("sharded", "archive")
            for k, (v, _) in phases[phase]["unbounded"].items()
        },
        "phase_wall_s": {
            name: round(t - marks[i][1], 3) for i, (name, t) in enumerate(marks[1:])
        },
        "operations": {
            k: {"attempted": o.attempted, "failed": o.failed, "checks": o.checks}
            for k, o in ops.items()
        },
        "errors": [e for o in ops.values() for e in o.errors][:20],
    }
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in reported.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the whole run, workers included (they inherit it): the
    # measured tiers are single-threaded or strictly alternate between
    # coordinator and worker, and on a virtual machine the cross-CPU
    # wake-ups of that ping-pong otherwise swamp the sharded figures
    # (README.md, "Host noise").
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[0]})
    # Spawned shard workers inherit this path.
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: this process is a fresh interpreter)

    import_s = time.perf_counter() - start
    try:
        out = run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            import_s,
            len(usable),
        )
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
