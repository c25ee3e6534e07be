"""Operation accounting and small measurement helpers."""

from __future__ import annotations

import resource

import numpy as np


class Ops:
    """Operations attempted and failed, plus the failed checks' reasons.

    An operation fails when it raises or when a check on its output
    fails; a failed check marks the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.errors: list[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, reason: str) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            self.errors.append(reason)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pids) -> float:
    """Summed peak resident sets (``VmHWM``) of other live processes."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except FileNotFoundError:
            continue
    return total
