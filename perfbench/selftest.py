"""Each output checker accepts a real output and rejects a perturbed one.

    python3 perfbench/selftest.py

Run from the repository root.  The real outputs come from the program on
small graphs; every perturbation is one the checker exists to catch.
Exits non-zero on the first checker that lets a perturbed input through
or rejects a good one.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path.cwd() / "src")]

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def rejects(check, *args) -> None:
    try:
        check(*args)
    except CheckError:
        return
    raise AssertionError(f"{check.__name__} accepted a perturbed input")


def graph():
    import repro

    return repro.graph.barbell_graph(8)


def test_conductance() -> None:
    import repro

    g = graph()
    result = repro.local_cluster(g, 0, alpha=0.05, eps=1e-4)
    checks.check_conductance(g.offsets, g.neighbors, result.cluster, result.conductance)
    rejects(checks.check_conductance, g.offsets, g.neighbors, result.cluster,
            result.conductance * (1 + 1e-9))
    rejects(checks.check_conductance, g.offsets, g.neighbors, result.cluster[:-1],
            result.conductance)
    rejects(checks.check_conductance, g.offsets, g.neighbors, [], 0.0)


def pr_nibble_state(g, alpha=0.05, eps=1e-4):
    import repro
    from repro.core.result import vector_items

    diffusion = repro.pr_nibble(g, 0, repro.PRNibbleParams(alpha=alpha, eps=eps))
    p_keys, p_values = vector_items(diffusion.vector)
    r_keys, r_values = vector_items(diffusion.extras["residual"])
    return p_keys, p_values, r_keys, r_values


def test_mass() -> None:
    _, p_values, _, r_values = pr_nibble_state(graph())
    checks.check_mass(p_values, r_values)
    bumped = p_values.copy()
    bumped[0] += 1e-6
    rejects(checks.check_mass, bumped, r_values)


def test_ppr_bound() -> None:
    g = graph()
    alpha, eps = 0.05, 1e-4
    p_keys, p_values, _, _ = pr_nibble_state(g, alpha, eps)
    lower, tail = checks.ppr_power_iteration(g.offsets, g.neighbors, [0], alpha)
    checks.check_ppr_bound(g.offsets, g.neighbors, lower, tail, p_keys, p_values, eps)
    too_much = p_values.copy()
    too_much[0] += 1e-3  # more mass than the exact PPR holds
    rejects(checks.check_ppr_bound, g.offsets, g.neighbors, lower, tail, p_keys, too_much, eps)
    too_little = p_values * 0.9  # further below the exact PPR than eps * d
    rejects(checks.check_ppr_bound, g.offsets, g.neighbors, lower, tail, p_keys, too_little, eps)


def test_terminal() -> None:
    g = graph()
    eps = 1e-4
    _, _, r_keys, r_values = pr_nibble_state(g, eps=eps)
    checks.check_terminal(g.offsets, r_keys, r_values, eps)
    raised = r_values.copy()
    vertex = int(r_keys[0])
    raised[0] = -eps * (g.offsets[vertex + 1] - g.offsets[vertex])  # |r| at the threshold
    rejects(checks.check_terminal, g.offsets, r_keys, raised, eps)


def test_csr() -> None:
    from repro.graph import EvolvingGraph

    g = graph()
    n = g.num_vertices
    source = np.repeat(np.arange(n), np.diff(g.offsets))
    keep = source < g.neighbors
    edges = np.stack([source[keep], g.neighbors[keep]], axis=1)
    offsets, neighbors = checks.csr_from_edges(n, edges)
    checks.check_csr_equal(g.offsets, g.neighbors, offsets, neighbors)
    swapped = neighbors.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    rejects(checks.check_csr_equal, g.offsets, g.neighbors, offsets, swapped)

    chain = EvolvingGraph(g)
    version = chain.apply_updates(insertions=[(0, 15)], deletions=[(0, 1)])
    new = version.graph
    degrees = np.diff(g.offsets).copy()
    rows = {}
    for vertex in (0, 1, 15):
        rows[vertex] = new.neighbors[new.offsets[vertex] : new.offsets[vertex + 1]]
        degrees[vertex] = len(rows[vertex])
    checks.check_csr_step(g.offsets, g.neighbors, new.offsets, new.neighbors, degrees, rows)
    wrong_row = dict(rows)
    wrong_row[15] = rows[15][1:]
    rejects(checks.check_csr_step, g.offsets, g.neighbors, new.offsets, new.neighbors,
            degrees, wrong_row)
    stray = new.neighbors.copy()
    stray[new.offsets[5]] = 6  # a row outside the batch changes
    rejects(checks.check_csr_step, g.offsets, g.neighbors, new.offsets, stray, degrees, rows)


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
