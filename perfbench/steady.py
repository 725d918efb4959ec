"""Steadiness check: run each workload N times and judge the spread.

    python3 perfbench/steady.py --runs 10 [--workloads query churn] [--seed-base 100]
                                [--compare .bench_build/perfbench/steady-A.json]

Run from the repository root.  Each run is one ``run.py`` invocation with
its own seed (``seed-base``, ``seed-base + 1``, ...).  For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and whether the spread fits the metric's bound in
``BENCHMARK.json`` and a third of it.  With ``--compare`` it also
prints how far each median moved against an earlier summary, in the
metric's worse direction, and whether that fits the bound.  The summary
is written to ``.bench_build/perfbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".bench_build" / "perfbench"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    summary: dict = {}
    worst_ok = True
    for workload in args.workloads:
        results = []
        for k in range(args.runs):
            results.append(run_once(workload, args.seed_base + k, spec["run_seconds"]))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {args.runs} runs, correct={correct}, failed shares={shares}")
        print(f"  {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
              f"{'bound':>6}  fits  /3   moved")
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            fits = spread <= bound
            third = spread <= bound / 3
            moved = ""
            before = earlier.get(workload, {}).get(name)
            if before is not None:
                change = (mid - before["median"]) / before["median"]
                worse = change if metric["better"] == "lower" else -change
                moved = f"{worse:+.3f} {'ok' if worse <= bound else 'WORSE'}"
                worst_ok &= worse <= bound
            worst_ok &= fits and correct
            print(f"  {name:<16} {mid:>11.4f} {q1:>11.4f} {q3:>11.4f} {spread:>7.3f} "
                  f"{bound:>6.2f}  {'yes' if fits else 'NO ':<4} {'yes' if third else 'no ':<4} {moved}")
            rows[name] = {"median": mid, "q1": q1, "q3": q3, "spread": spread, "values": values}
        rows["failed_shares"] = shares
        summary[workload] = rows
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=2))
    print(f"\nsummary: {path}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
