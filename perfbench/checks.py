"""Independent output checks: numpy over raw CSR arrays, no program code.

Every checker takes plain arrays (``offsets``/``neighbors`` of a symmetric
CSR graph, vertex ids, vector entries) and raises :class:`CheckError` on
the first property that fails.  None of them imports ``repro``: each
recomputes what it checks from the definition, so a fault in the program
cannot hide behind the same fault in the check.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """An output failed an independent check."""


def _rows(offsets: np.ndarray, neighbors: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The concatenated adjacency rows of ``vertices``."""
    starts = offsets[vertices]
    lengths = offsets[vertices + 1] - starts
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return neighbors[np.arange(int(lengths.sum())) + shift]


def conductance_from_csr(offsets: np.ndarray, neighbors: np.ndarray, cluster) -> float:
    """phi(S) = cut(S) / min(vol(S), 2m - vol(S)), from the CSR arrays alone.

    A set whose smaller side has no volume gets 1.0, the worst value.
    """
    members = np.unique(np.asarray(cluster, dtype=np.int64))
    n = len(offsets) - 1
    if len(members) and (members[0] < 0 or members[-1] >= n):
        raise CheckError(f"cluster names a vertex outside 0..{n - 1}")
    degrees = np.diff(offsets)
    volume = int(degrees[members].sum())
    total = int(len(neighbors))
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    cut = int((~inside[_rows(offsets, neighbors, members)]).sum())
    denominator = min(volume, total - volume)
    return 1.0 if denominator == 0 else cut / denominator


def check_conductance(offsets, neighbors, cluster, reported: float, what: str = "cluster") -> None:
    """The reported conductance equals the one recomputed from the CSR."""
    if len(cluster) == 0:
        raise CheckError(f"{what}: empty cluster")
    actual = conductance_from_csr(offsets, neighbors, cluster)
    if not math.isclose(actual, float(reported), rel_tol=1e-12, abs_tol=1e-15):
        raise CheckError(f"{what}: reported conductance {reported!r}, recomputed {actual!r}")


def check_mass(p_values, r_values, what: str = "diffusion") -> None:
    """PR-Nibble pushes conserve mass: sum(p) + sum(r) = 1."""
    total = float(np.sum(p_values, dtype=np.float64) + np.sum(r_values, dtype=np.float64))
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise CheckError(f"{what}: sum(p) + sum(r) = {total!r}, expected 1")


def _adjacency_product(offsets: np.ndarray, neighbors: np.ndarray):
    """``z -> A z`` for the symmetric CSR adjacency (scipy when present)."""
    n = len(offsets) - 1
    try:
        from scipy.sparse import csr_matrix
    except ImportError:  # numpy fallback: gather, then sum each row
        row_of = np.repeat(np.arange(n), np.diff(offsets))
        return lambda z: np.bincount(row_of, weights=z[neighbors], minlength=n)
    matrix = csr_matrix((np.ones(len(neighbors)), neighbors, offsets), shape=(n, n))
    return lambda z: matrix @ z


def ppr_power_iteration(
    offsets: np.ndarray, neighbors: np.ndarray, seeds, alpha: float, iterations: int = 800
) -> tuple[np.ndarray, float]:
    """A lower bound on the exact PPR vector of the optimized push rule.

    PR-Nibble's optimized rule approximates ``ppr = c1 (I - c2 W)^-1 s``
    with ``c1 = 2a/(1+a)``, ``c2 = (1-a)/(1+a)`` and ``W = A D^-1``.  The
    power series ``x_k = c1 sum_{j<k} (c2 W)^j s`` has only non-negative
    terms, so ``x_k <= ppr`` entrywise, and the missing tail has total
    mass ``c2^k``.  Returns ``(x_k, c2^k)``: ``ppr`` lies between ``x_k``
    and ``x_k + c2^k`` in every entry.
    """
    n = len(offsets) - 1
    degrees = np.diff(offsets).astype(np.float64)
    c1 = 2.0 * alpha / (1.0 + alpha)
    c2 = (1.0 - alpha) / (1.0 + alpha)
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    term = np.zeros(n)
    term[seeds] = c1 / len(seeds)
    total = term.copy()
    scale = c2 * np.divide(1.0, degrees, out=np.zeros(n), where=degrees > 0)
    product = _adjacency_product(offsets, neighbors)
    for _ in range(iterations - 1):
        term = product(term * scale)
        total += term
    return total, c2**iterations


def check_ppr_bound(
    offsets, neighbors, lower: np.ndarray, tail: float, p_keys, p_values, eps: float,
    what: str = "pr-nibble",
) -> None:
    """``0 <= ppr - p <= eps * d`` entrywise, against the power iteration.

    With ``lower <= ppr <= lower + tail`` from :func:`ppr_power_iteration`,
    a violation is reported only where it is certain: ``p > lower + tail``
    (then ``p > ppr``) or ``lower - p > eps * d`` (then ``ppr - p > eps * d``).
    """
    n = len(offsets) - 1
    p = np.zeros(n)
    np.add.at(p, np.asarray(p_keys, dtype=np.int64), np.asarray(p_values, dtype=np.float64))
    slack = 1e-12
    over = p - (lower + tail)
    if (over > slack).any():
        worst = int(np.argmax(over))
        raise CheckError(f"{what}: p[{worst}] = {p[worst]!r} exceeds the exact PPR")
    degrees = np.diff(offsets).astype(np.float64)
    gap = lower - p - eps * degrees
    if (gap > slack).any():
        worst = int(np.argmax(gap))
        raise CheckError(
            f"{what}: ppr - p at vertex {worst} exceeds eps * d = {eps * degrees[worst]!r}"
        )


def check_terminal(offsets, r_keys, r_values, eps: float, what: str = "solution") -> None:
    """A converged push state has ``|r(v)| < eps * d(v)`` at every vertex."""
    keys = np.asarray(r_keys, dtype=np.int64)
    degrees = (offsets[keys + 1] - offsets[keys]).astype(np.float64)
    live = degrees > 0
    bad = np.abs(np.asarray(r_values, dtype=np.float64)[live]) >= eps * degrees[live]
    if bad.any():
        vertex = int(keys[live][np.argmax(bad)])
        raise CheckError(f"{what}: residual at vertex {vertex} is not below eps * d")


def csr_from_edges(num_vertices: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical symmetric CSR (sorted rows, no duplicates) of ``u < v`` pairs."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    sources = np.concatenate([edges[:, 0], edges[:, 1]])
    targets = np.concatenate([edges[:, 1], edges[:, 0]])
    keys = np.unique(sources * num_vertices + targets)
    counts = np.bincount(keys // num_vertices, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, keys % num_vertices


def check_csr_equal(offsets, neighbors, expected_offsets, expected_neighbors, what="graph") -> None:
    """Two CSR graphs hold the same rows."""
    if not np.array_equal(np.asarray(offsets), np.asarray(expected_offsets)):
        raise CheckError(f"{what}: degrees differ from the expected edge set")
    if not np.array_equal(np.asarray(neighbors), np.asarray(expected_neighbors)):
        raise CheckError(f"{what}: adjacency differs from the expected edge set")


def check_csr_step(
    old_offsets, old_neighbors, offsets, neighbors, expected_degrees, expected_rows, what="version"
) -> None:
    """A new version equals the previous one with ``expected_rows`` replaced.

    ``expected_rows`` maps each vertex whose adjacency the benchmark
    changed to its sorted neighbour array; ``expected_degrees`` is the
    benchmark's full degree array.  Every other row must be unchanged.  If
    the previous version matched the benchmark's edge set, so does this
    one (the first version is checked whole with :func:`check_csr_equal`).
    """
    if not np.array_equal(np.diff(offsets), expected_degrees):
        raise CheckError(f"{what}: degrees differ from the expected edge set")
    n = len(offsets) - 1
    changed = np.zeros(n, dtype=bool)
    changed[np.fromiter(expected_rows, dtype=np.int64, count=len(expected_rows))] = True
    for vertex, row in expected_rows.items():
        if not np.array_equal(neighbors[offsets[vertex] : offsets[vertex + 1]], row):
            raise CheckError(f"{what}: row {vertex} differs from the expected edge set")
    keep_old = np.repeat(~changed, np.diff(old_offsets))
    keep_new = np.repeat(~changed, np.diff(offsets))
    if not np.array_equal(old_neighbors[keep_old], neighbors[keep_new]):
        raise CheckError(f"{what}: a row outside the update batch changed")
