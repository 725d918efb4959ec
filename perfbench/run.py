"""The repository's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload runs in fresh worker
processes (``worker.py``): set-up is sampled ``SETUPS`` times — the last
sample is the measured run itself — and ``setup_s`` is their median.
The C kernel is compiled (or loaded from its cache under ``.bench_build``)
once per invocation, before any set-up is timed.

Standard output ends with one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``).  The line
before it holds the run's provenance.  Exits non-zero without a result
when the program's sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_build" / "perfbench"
SETUPS = 5
#: seconds the workers of one invocation may take in all (it must end
#: within 180 s, compile aside).
WORKER_BUDGET = 170.0
WORKLOADS = ("query", "batch", "churn")


def bench_env() -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["REPRO_KERNEL_CACHE"] = str(OUT / "kernels")
    env["PYTHONHASHSEED"] = "0"
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    """HEAD when the root is a git work tree of its own, else ``None``."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def warm_kernels(env: dict[str, str]) -> dict:
    """Compile the C kernel into the checkout's cache; report what runs."""
    probe = (
        "import json, numpy, sys\n"
        "from repro.kernels import available_kernels, ensure_warm\n"
        "ready = available_kernels()\n"
        "'c' in ready and ensure_warm('c')\n"
        "print(json.dumps({'kernels': list(ready), 'numpy': numpy.__version__}))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"kernel warm-up failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_worker(args: argparse.Namespace, env: dict[str, str], setup_only: bool,
               deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    # Its own process group, so a timeout also stops the pool workers
    # the worker started.
    worker = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        out, _ = worker.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise
    if worker.returncode != 0:
        raise RuntimeError(f"worker exited with {worker.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["t_first"] - spawned
    return result


def metrics_of(entries: list[dict], values: dict) -> dict:
    """``{name: {value, unit}}`` for every metric of one BENCHMARK.json list."""
    return {entry["name"]: {"value": values.get(entry["name"], 0), "unit": entry["unit"]}
            for entry in entries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = bench_env()
    try:
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": commit(),
            "source_digest": source_digest(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            **warm_kernels(env),
        }
        deadline = time.monotonic() + WORKER_BUDGET
        runs = [run_worker(args, env, i < SETUPS - 1, deadline) for i in range(SETUPS)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    result = runs[-1]
    for message in result["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    if "trace_file" in result:
        print(f"spans: {result['trace_file']}", file=sys.stderr)
    setup = statistics.median(run["setup_s"] for run in runs)
    if not args.trace:
        values = {name: value for name, (value, _) in result["end_to_end"].items()}
        metrics = metrics_of(spec["end_to_end"], {**values, "setup_s": setup})
    else:
        # Every per-layer metric is printed; a layer this workload does
        # not run reads 0.
        metrics = metrics_of(spec["per_layer"], result["layers"])
    provenance["setup_samples_s"] = [run["setup_s"] for run in runs]
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
