"""Two sets of runs of one checkout: each end-to-end metric against its bound.

Run from the repository root::

    python3 perfbench/compare.py --workload live_fleet --runs 10

Each of the two sets runs the benchmark once per seed (1 to ``--runs``),
untraced, for ``run_seconds`` from ``BENCHMARK.json``.  Per metric it
prints each set's median and its spread — the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median — and how much worse the second set's median is
than the first's.  A metric passes when both spreads stay within its
bound and the second median is not worse than the first by more than
the bound; the failed-operation share must be identical in both sets.
Each run's outcome goes to standard error.  Exit code 0 when
everything passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Sets of runs compared.
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"run failed (seed {seed}):\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sets = []
    for s in range(SETS):
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(args.workload, seed, bench["run_seconds"])
            results.append(result)
            print(f"set {s} seed {seed}: {json.dumps(result)}", file=sys.stderr)
        sets.append(results)

    ok = True
    shares = {
        sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        for results in sets
    }
    correct = all(r["correct"] for results in sets for r in results)
    print(f"workload {args.workload}: {args.runs} runs x {SETS} sets, "
          f"all correct: {correct}, failed shares: {sorted(shares)}")
    ok &= correct and len(shares) == 1
    print(f"{'metric':26s} {'unit':10s} {'bound':>6s} "
          + " ".join(f"{'median' + str(s):>12s} {'spread' + str(s):>8s}" for s in range(len(sets)))
          + f" {'worse':>7s}  verdict")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        medians, spreads = [], []
        for results in sets:
            values = [r["metrics"][name]["value"] for r in results]
            medians.append(statistics.median(values))
            spreads.append(spread(values))
        worse = sign * (medians[1] - medians[0]) / medians[0]
        passed = worse <= bound and all(s <= bound for s in spreads)
        ok &= passed
        cells = " ".join(f"{m:12.5g} {s:8.3f}" for m, s in zip(medians, spreads))
        print(
            f"{name:26s} {metric['unit']:10s} {bound:6.2f} {cells} {worse:7.3f}  "
            f"{'ok' if passed else 'FAIL'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
