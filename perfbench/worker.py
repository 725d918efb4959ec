"""One workload in one fresh process: set up, run the timed operations, check.

Started by ``run.py``; prints one JSON object as its last stdout line.
With ``--setup-only`` it stops after set-up and warm-up, so the parent can
take several set-up samples per run.  ``time.monotonic`` is system-wide on
Linux, so the parent measures set-up from before it started this process
to ``t_first``, the moment the first timed operation begins.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer

OUT = Path(".bench_build") / "perfbench"

#: operations a run must hold so that its p95 has ten samples beyond it.
MIN_OPS = 200


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it has reaped (batch's
    pool workers run the diffusions)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def no_span(*_args, **_kwargs):
    return contextlib.nullcontext()


class Workload:
    """Shared shape: ``setup`` (untimed warm-up included), ``run``, ``check``."""

    name = ""
    #: operations per second on the reference host; sets the op count.
    rate = 10.0

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        salt = sum(map(ord, self.name))
        self.rng = np.random.default_rng([salt, args.seed])
        self.ops = max(MIN_OPS, math.ceil(args.seconds * self.rate))
        self.tracer = Tracer() if args.trace else None
        self.latencies: list[float] = []  # seconds, untraced operations
        self.traced_latencies: list[float] = []
        self.timed = 0.0  # summed timed wall seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.layers: dict[str, float] = {}
        self.peak_rss_mb = 0.0

    def traced(self, index: int) -> bool:
        """In a traced run every other operation is traced; the rest give
        the untraced p50 the tracing overhead is measured against."""
        return self.tracer is not None and index % 2 == 1

    def spans(self, index: int):
        """The span factory for operation ``index``: the tracer's when it is
        traced, else one that records nothing, so both run the same code."""
        return self.tracer.span if self.traced(index) else no_span

    def record(self, index: int, seconds: float) -> None:
        (self.traced_latencies if self.traced(index) else self.latencies).append(seconds)
        self.timed += seconds

    def verify(self, what: str, check, *args, **kwargs) -> None:
        try:
            check(*args, **kwargs)
        except checks.CheckError as error:
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {error}")
            elif self.errors[-1] != "...":
                self.errors.append("...")

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        samples = np.asarray(self.latencies) * 1e3
        completed = len(self.latencies) + len(self.traced_latencies)
        return {
            "latency_p50_ms": (percentile(samples, 50), "ms"),
            "latency_p95_ms": (percentile(samples, 95), "ms"),
            "throughput_ops": (completed / self.timed if self.timed else 0.0, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
        }

    def trace_layers(self) -> None:
        if self.tracer is None:
            return
        untraced = percentile(np.asarray(self.latencies) * 1e3, 50)
        traced = percentile(np.asarray(self.traced_latencies) * 1e3, 50)
        self.layers["trace.overhead_ms_p50"] = traced - untraced
        self.layers["trace.coverage_p50"] = median(self.tracer.coverage())

    def draw_seeds(self, graph, count: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """``count`` distinct seeds from the vertices with an edge (warm-up
        seeds excluded), stratified by degree: one uniform pick from each
        of ``count`` equal degree strata, in random order.  Every run's
        query mix then has the same degree profile, which keeps the spread
        between seeds down without fixing the seeds."""
        rng = self.rng if rng is None else rng
        degrees = np.diff(graph.offsets)
        candidates = np.setdiff1d(np.flatnonzero(degrees), self.warm_seeds(graph))
        candidates = candidates[np.argsort(degrees[candidates], kind="stable")]
        picks = [stratum[rng.integers(len(stratum))]
                 for stratum in np.array_split(candidates, count)]
        return rng.permutation(np.asarray(picks, dtype=np.int64))

    def catalogue(self, graph, count: int) -> np.ndarray:
        """A degree-stratified seed set that is the same for every
        ``--seed``; workloads whose figures hang on a few costly seeds use
        it, and take only their order from the seed."""
        return self.rng.permutation(self.draw_seeds(graph, count, np.random.default_rng(1)))

    @staticmethod
    def warm_seeds(graph, count: int = 10) -> np.ndarray:
        """Warm-up seeds, the same for every ``--seed``: warm-up is part of
        set-up, whose time should not depend on the seed."""
        candidates = np.flatnonzero(np.diff(graph.offsets))
        return np.random.default_rng(0).choice(candidates, count, replace=False)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# query: one closed-loop caller, PR-Nibble on the default (BSP) path
# ----------------------------------------------------------------------
class Query(Workload):
    name = "query"
    rate = 8.0
    graph_name = "Twitter"
    alpha = 0.01
    eps = 1e-5
    warmup = 2
    ppr_sample = 2

    def setup(self) -> None:
        import repro
        from repro.core import PRNibbleParams, pr_nibble, sweep_cut

        self.repro = repro
        self.pr_nibble, self.sweep_cut = pr_nibble, sweep_cut
        self.params = PRNibbleParams(alpha=self.alpha, eps=self.eps)
        start = time.perf_counter()
        self.graph = repro.load_proxy(self.graph_name)
        self.layers["graph.build_s"] = time.perf_counter() - start
        self.seeds = [int(s) for s in self.draw_seeds(self.graph, self.ops)]
        for seed in self.warm_seeds(self.graph)[: self.warmup]:
            repro.local_cluster(self.graph, int(seed), alpha=self.alpha, eps=self.eps)

    def _traced_query(self, index: int, seed: int):
        tracer = self.tracer
        with tracer.span("op", rid=index) as root:
            with self.repro.track() as tracker:
                with tracer.span("core.diffusion"):
                    diffusion = self.pr_nibble(self.graph, seed, self.params)
                with tracer.span("core.sweep"):
                    sweep = self.sweep_cut(self.graph, diffusion.vector)
        self.layers["runtime.work"] += tracker.work
        self.layers["runtime.depth"] += tracker.depth
        return np.sort(sweep.best_cluster), sweep.best_conductance, diffusion, tracer.duration(root)

    def run(self) -> None:
        from repro.core.result import vector_items

        graph = self.graph
        for name in ("core.pushes", "core.touched_edges", "core.iterations"):
            self.layers[name] = 0
        self.layers["runtime.work"] = self.layers["runtime.depth"] = 0.0
        self.samples = []
        for index, seed in enumerate(self.seeds):
            self.attempted += 1
            if self.traced(index):
                cluster, phi, diffusion, seconds = self._traced_query(index, seed)
            else:
                start = time.perf_counter()
                result = self.repro.local_cluster(graph, seed, alpha=self.alpha, eps=self.eps)
                seconds = time.perf_counter() - start
                cluster, phi, diffusion = result.cluster, result.conductance, result.diffusion
            self.record(index, seconds)
            # Untimed from here on.
            self.layers["core.pushes"] += diffusion.pushes
            self.layers["core.touched_edges"] += diffusion.touched_edges
            self.layers["core.iterations"] += diffusion.iterations
            what = f"query seed={seed}"
            self.verify(what, checks.check_conductance, graph.offsets, graph.neighbors, cluster, phi, what)
            p_keys, p_values = vector_items(diffusion.vector)
            _, r_values = vector_items(diffusion.extras["residual"])
            self.verify(what, checks.check_mass, p_values, r_values, what)
            if len(self.samples) < self.ppr_sample:
                self.samples.append((seed, p_keys, p_values))
        if self.tracer is not None:
            self.layers["core.diffusion_ms_p50"] = median(self.tracer.durations_ms("core.diffusion"))
            self.layers["core.sweep_ms_p50"] = median(self.tracer.durations_ms("core.sweep"))

    def check(self) -> None:
        graph = self.graph
        for seed, keys, values in self.samples:
            lower, tail = checks.ppr_power_iteration(graph.offsets, graph.neighbors, [seed], self.alpha)
            what = f"query ppr seed={seed}"
            self.verify(what, checks.check_ppr_bound, graph.offsets, graph.neighbors,
                        lower, tail, keys, values, self.eps, what)


# ----------------------------------------------------------------------
# batch: one BatchEngine with two pool workers, a fixed mixed job grid
# ----------------------------------------------------------------------
PPR_FAST = {"alpha": 0.01, "eps": 1e-3}
PPR_SLOW = {"alpha": 0.01, "eps": 1e-5}
#: one round: (method, params, kernel, copies).  Job costs span ~5 ms to
#: ~100 ms; the ``kernel="c"`` jobs run on the BSP engine, which ignores
#: the kernel, yet the scheduler prices them as compiled.
GRID = (
    ("nibble", {"max_iterations": 10, "eps": 1e-4}, None, 2),
    ("pr-nibble", PPR_FAST, None, 2),
    ("pr-nibble", PPR_SLOW, None, 2),
    ("pr-nibble", PPR_SLOW, "c", 2),
    ("hk-pr", {"eps": 1e-4}, None, 1),
    ("rand-hk-pr", {"num_walks": 10_000}, None, 1),
)
METHODS = ("nibble", "pr-nibble", "hk-pr", "rand-hk-pr")


class Batch(Workload):
    name = "batch"
    rate = 4.0  # rounds per second
    graph_name = "soc-LJ"
    workers = 2

    def __init__(self, args: argparse.Namespace) -> None:
        super().__init__(args)
        self.rounds = max(math.ceil(MIN_OPS / self.round_size()), math.ceil(args.seconds * self.rate))
        self.ops = self.rounds * self.round_size()

    @staticmethod
    def round_size() -> int:
        return sum(copies for *_, copies in GRID)

    def jobs(self, seeds):
        from repro.engine import DiffusionJob

        jobs = []
        seeds = iter(seeds)
        for method, params, kernel, copies in GRID:
            for _ in range(copies):
                rng = int(self.rng.integers(2**31))
                jobs.append(DiffusionJob.make(int(next(seeds)), method=method, params=params,
                                              rng=rng, kernel=kernel))
        return jobs

    def setup(self) -> None:
        import repro
        from repro.engine import BatchEngine, DiffusionJob
        from repro.kernels import ensure_warm

        start = time.perf_counter()
        self.graph = repro.load_proxy(self.graph_name)
        self.layers["graph.build_s"] = time.perf_counter() - start
        size = self.round_size()
        # The rounds are a catalogue (see ``catalogue``): a round's makespan
        # hangs on its heaviest seeds, and drawn rounds made the p95 swing
        # with the seed.  The seed orders the rounds and seeds rand-HK-PR.
        picks = self.draw_seeds(self.graph, self.rounds * size, np.random.default_rng(1))
        rounds = [picks[r * size : (r + 1) * size] for r in range(self.rounds)]
        self.round_jobs = [self.jobs(rounds[r]) for r in self.rng.permutation(self.rounds)]
        # Warm-up starts both workers on cheap jobs; the grid's heavy jobs
        # would make set-up time swing with the host.
        warm_jobs = [DiffusionJob.make(int(seed), params=PPR_FAST, kernel=kernel)
                     for seed, kernel in zip(self.warm_seeds(self.graph, 4), (None, None, "c", "c"))]
        ensure_warm("c")  # loaded before the fork, so workers inherit it
        self.engine = BatchEngine(self.graph, workers=self.workers)
        start = time.perf_counter()
        self.session = self.engine.open_session()
        self.layers["engine.session_open_s"] = time.perf_counter() - start
        for _ in self.session.run(warm_jobs):
            pass

    def run(self) -> None:
        stats = self.engine.dispatch_stats
        busy0, idle0 = stats.busy_seconds, stats.idle_seconds
        self.outcomes = []
        for index, jobs in enumerate(self.round_jobs):
            span = self.spans(index)
            arrivals = []
            start = time.perf_counter()
            with span("op", rid=index):
                stream = self.session.run(jobs)
                with span("engine.dispatch"):
                    self.outcomes.append(next(stream))
                    arrivals.append(time.perf_counter())
                with span("engine.stream"):
                    for outcome in stream:
                        arrivals.append(time.perf_counter())
                        self.outcomes.append(outcome)
            seconds = time.perf_counter() - start
            self.attempted += len(jobs)
            # A job's latency: from its batch's submission to its outcome.
            target = self.traced_latencies if self.traced(index) else self.latencies
            target.extend(arrival - start for arrival in arrivals)
            self.timed += seconds
        self.layers["engine.busy_s"] = stats.busy_seconds - busy0
        self.layers["engine.idle_s"] = stats.idle_seconds - idle0

    def record_layers(self) -> None:
        from repro.engine import estimate_cost

        outcomes = self.outcomes
        self.layers["core.pushes"] = sum(o.pushes for o in outcomes)
        self.layers["core.touched_edges"] = sum(o.touched_edges for o in outcomes)
        self.layers["core.iterations"] = sum(o.iterations for o in outcomes)
        self.layers["runtime.work"] = float(sum(o.work for o in outcomes))
        self.layers["runtime.depth"] = float(sum(o.depth for o in outcomes))
        for method in METHODS:
            self.layers[f"engine.job_ms_p50.{method}"] = median(
                o.wall_seconds * 1e3 for o in outcomes if o.job.method == method
            )
        classes: dict[tuple, list[float]] = {}
        for o in outcomes:
            key = (o.job.method, tuple(sorted(o.job.params.items())), o.job.kernel)
            classes.setdefault(key, []).append(o.wall_seconds / estimate_cost(o.job))
        ratios = [median(values) for values in classes.values()]
        self.layers["engine.cost_spread"] = max(ratios) / min(ratios)

    def check(self) -> None:
        self.record_layers()
        graph = self.graph
        sample = None
        for o in self.outcomes:
            what = f"batch {o.job.describe()} kernel={o.job.kernel}"
            self.verify(what, checks.check_conductance, graph.offsets, graph.neighbors,
                        o.cluster, o.conductance, what)
            if o.job.method == "pr-nibble":
                self.verify(what, checks.check_mass, o.vector_values, [o.residual_mass], what)
                if sample is None and o.job.params == PPR_SLOW and o.job.kernel == "c":
                    sample = o
        lower, tail = checks.ppr_power_iteration(graph.offsets, graph.neighbors,
                                                 sample.job.seeds, PPR_SLOW["alpha"])
        what = f"batch ppr {sample.job.describe()}"
        self.verify(what, checks.check_ppr_bound, graph.offsets, graph.neighbors, lower, tail,
                    sample.vector_keys, sample.vector_values, PPR_SLOW["eps"], what)

    def close(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()


# ----------------------------------------------------------------------
# churn: localized update batches beside reads on an evolving graph
# ----------------------------------------------------------------------
class Churn(Workload):
    name = "churn"
    rate = 20.0  # rounds per second
    graph_name = "Twitter"
    tracked = 12
    alpha = 0.01
    eps = 1e-3
    insertions = 12
    deletions = 2
    region = 40
    #: ``EvolvingGraph`` keeps every version (a 5.3 MB CSR each here), so
    #: one chain over a whole run would hold gigabytes.  The chain is
    #: re-rooted at its latest version every this many rounds: peak RSS
    #: carries up to this many retained versions, not all of them.
    reroot = 16

    def setup(self) -> None:
        import repro
        from repro.cache import ResultCache
        from repro.core import PRNibbleParams
        from repro.core.pr_nibble import pr_nibble_sequential
        from repro.engine import DiffusionJob

        start = time.perf_counter()
        graph = repro.load_proxy(self.graph_name)
        self.layers["graph.build_s"] = time.perf_counter() - start
        self.params = PRNibbleParams(alpha=self.alpha, eps=self.eps)
        self.n = graph.num_vertices
        # The benchmark's own copy of the edge set: the base arrays, the
        # rows it has changed since, and the net inserted/deleted pairs.
        self.base_offsets = graph.offsets.copy()
        self.base_neighbors = graph.neighbors.copy()
        self.degrees = np.diff(self.base_offsets)
        self.rows: dict[int, set[int]] = {}
        self.net_inserted: set[tuple[int, int]] = set()
        self.net_deleted: set[tuple[int, int]] = set()
        # A catalogue: the tracked set decides which rounds are heavy, and
        # a drawn set made the p95 swing with the seed.
        self.seeds = [int(s) for s in self.catalogue(graph, self.tracked)]
        self.solutions = {s: pr_nibble_sequential(graph, s, self.params) for s in self.seeds}
        self.jobs = [DiffusionJob.make(s, params={"alpha": self.alpha, "eps": self.eps})
                     for s in self.seeds]
        # The program's default cache: ``advance_version`` keeps every
        # old-version entry, and peak RSS and advance time carry them.
        self.cache = ResultCache()
        self._reroot(graph)
        self.engine.run(self.jobs)
        for name in ("graph.splices", "core.pushes", "core.touched_edges", "core.iterations"):
            self.layers[name] = 0
        self.survived = self.examined = self.hits = 0
        self._step(-1)  # warm-up round, checked but not counted

    def _reroot(self, graph) -> None:
        from repro.engine import BatchEngine
        from repro.graph import EvolvingGraph

        self.chain = EvolvingGraph(graph)
        self.engine = BatchEngine(self.chain, cache=self.cache, graph_version=0)

    def _row(self, vertex: int) -> set[int]:
        row = self.rows.get(vertex)
        if row is None:
            start, end = self.base_offsets[vertex], self.base_offsets[vertex + 1]
            row = self.rows[vertex] = set(self.base_neighbors[start:end].tolist())
        return row

    def _batch(self, index: int):
        """One insert-heavy batch inside the neighbourhood of a tracked seed
        (each in turn), drawn against (and applied to) the benchmark's own
        edge set.  Returns the pairs and the expected new row of every
        changed vertex."""
        hot = self.seeds[index % len(self.seeds)]
        ball, frontier = [hot], [hot]
        while len(ball) < self.region and frontier:
            frontier = sorted({v for u in frontier for v in self._row(u)} - set(ball))
            ball.extend(frontier)
        region = np.asarray(ball[: self.region])
        inserted: list[tuple[int, int]] = []
        while len(inserted) < self.insertions:
            u, v = sorted(int(x) for x in self.rng.choice(region, 2, replace=False))
            if v not in self._row(u) and (u, v) not in inserted:
                inserted.append((u, v))
        deleted: list[tuple[int, int]] = []
        for u in self.rng.permutation(region).tolist():
            if len(deleted) == self.deletions:
                break
            for v in sorted(self._row(u)):
                edge = (min(u, v), max(u, v))
                if len(self._row(u)) > 1 and len(self._row(v)) > 1 and edge not in deleted:
                    deleted.append(edge)
                    break
        for u, v in inserted:
            self._row(u).add(v)
            self._row(v).add(u)
            if (u, v) in self.net_deleted:
                self.net_deleted.discard((u, v))
            else:
                self.net_inserted.add((u, v))
        for u, v in deleted:
            self._row(u).discard(v)
            self._row(v).discard(u)
            if (u, v) in self.net_inserted:
                self.net_inserted.discard((u, v))
            else:
                self.net_deleted.add((u, v))
        changed = {x for edge in inserted + deleted for x in edge}
        expected = {v: np.fromiter(sorted(self._row(v)), dtype=np.int64) for v in changed}
        return inserted, deleted, expected

    def _round(self, index: int, inserted, deleted):
        from repro.cache import advance_version
        from repro.core import pr_nibble_update

        span = self.spans(index)
        start = time.perf_counter()
        with span("op", rid=index):
            with span("graph.apply"):
                version = self.chain.apply_updates(insertions=inserted, deletions=deleted)
            with span("core.update"):
                solutions = {s: pr_nibble_update(version, self.solutions[s], s, params=self.params)
                             for s in self.seeds}
            with span("cache.advance"):
                migration = advance_version(self.cache, version)
            with span("engine.requery"):
                outcomes = self.engine.at_version(version.version).run(self.jobs)
        seconds = time.perf_counter() - start
        return version, solutions, migration, outcomes, seconds

    def _step(self, index: int) -> float:
        """One round: draw the batch, run it timed, then count and check."""
        from repro.core.result import vector_items

        inserted, deleted, expected = self._batch(index)
        previous = self.chain.latest.graph
        version, solutions, migration, outcomes, seconds = self._round(index, inserted, deleted)
        # Untimed from here on.
        self.solutions = solutions
        graph = version.graph
        for vertex, row in expected.items():
            self.degrees[vertex] = len(row)
        what = f"churn round {index} v{version.version}"
        self.verify(what, checks.check_csr_step, previous.offsets, previous.neighbors,
                    graph.offsets, graph.neighbors, self.degrees, expected, what)
        for seed, result in solutions.items():
            _, p_values = vector_items(result.vector)
            r_keys, r_values = vector_items(result.extras["residual"])
            label = f"{what} seed={seed}"
            self.verify(label, checks.check_terminal, graph.offsets, r_keys, r_values,
                        self.eps, label)
            self.verify(label, checks.check_mass, p_values, r_values, label)
        for o in outcomes:
            label = f"{what} requery seed={o.job.seeds[0]}"
            self.verify(label, checks.check_conductance, graph.offsets, graph.neighbors,
                        o.cluster, o.conductance, label)
        if index >= 0:
            self.survived += migration.survived
            self.examined += migration.examined
            self.hits += sum(o.cached for o in outcomes)
            self.layers["graph.splices"] += int(not version.rebuilt)
            for result in solutions.values():
                self.layers["core.pushes"] += result.pushes
                self.layers["core.touched_edges"] += result.touched_edges
                self.layers["core.iterations"] += result.iterations
        if (index + 1) % self.reroot == 0:
            self._reroot(graph)
        return seconds

    def run(self) -> None:
        for index in range(self.ops):
            self.attempted += 1
            self.record(index, self._step(index))
        self.layers["cache.survival_ratio"] = self.survived / self.examined if self.examined else 0.0
        self.layers["cache.hit_ratio"] = self.hits / (len(self.seeds) * self.ops)
        if self.tracer is not None:
            for span, metric in (("graph.apply", "graph.apply_ms_p50"),
                                 ("core.update", "core.update_ms_p50"),
                                 ("cache.advance", "cache.advance_ms_p50"),
                                 ("engine.requery", "engine.requery_ms_p50")):
                self.layers[metric] = median(self.tracer.durations_ms(span))

    def check(self) -> None:
        """The last version equals a CSR the benchmark builds from scratch."""
        n = self.n
        source = np.repeat(np.arange(n), np.diff(self.base_offsets))
        keep = source < self.base_neighbors
        pairs = source[keep] * n + self.base_neighbors[keep]
        deleted = np.array([u * n + v for u, v in self.net_deleted], dtype=np.int64)
        inserted = np.array([u * n + v for u, v in self.net_inserted], dtype=np.int64)
        pairs = np.concatenate([pairs[~np.isin(pairs, deleted)], inserted])
        offsets, neighbors = checks.csr_from_edges(n, np.stack([pairs // n, pairs % n], axis=1))
        graph = self.chain.latest.graph
        self.verify("churn final version", checks.check_csr_equal, graph.offsets, graph.neighbors,
                    offsets, neighbors, "churn final version")


WORKLOADS = {cls.name: cls for cls in (Query, Batch, Churn)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args)
    try:
        workload.setup()
        t_first = time.monotonic()
        if args.setup_only:
            print(json.dumps({"t_first": t_first}))
            return 0
        workload.run()
    finally:
        workload.close()
    # After close, which reaps the pool workers; before the final checks,
    # which allocate for themselves.  Churn's per-round checks run inside
    # ``run`` and are included.
    workload.peak_rss_mb = peak_rss_mb()
    workload.check()
    workload.trace_layers()
    result = {
        "t_first": t_first,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors,
        "end_to_end": workload.end_to_end(),
        "layers": workload.layers,
    }
    if workload.tracer is not None:
        path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        workload.tracer.write(path, {"workload": args.workload, "seed": args.seed})
        result["trace_file"] = str(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
