from __future__ import annotations

import random
import re

from affwgraph import (
    LabeledWGraph,
    Partition,
    RowStandardTableau,
    affine_descents,
    build_affine_graph,
    finite_descents,
    mo,
)
from affwgraph.regress import RegressResult, _sweep


def two_row_shapes(min_n: int, max_n: int) -> list[Partition]:
    return [
        Partition((n - b, b))
        for n in range(min_n, max_n + 1)
        for b in range(1, n // 2 + 1)
    ]


def check_verification_sweep(max_n: int = 8) -> RegressResult:
    """
    The verification sweep of run_regression alone: both verification paths
    pass on the affine graph of every shape with n <= max_n.
    """
    return _sweep(max_n, {"verification_sweep"})["verification_sweep"]


def exactly(message: str) -> str:
    """A pytest.raises match pattern that accepts this whole message and nothing else."""
    return "^" + re.escape(message) + r"\Z"


def all_partitions(n: int) -> list[tuple[int, ...]]:
    """Every partition of n, as tuples (independent of the library)."""
    result = []

    def extend(prefix: list[int], remaining: int, cap: int):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(prefix + [part], remaining - part, part)

    extend([], n, n)
    return result


def count_ssyt(shape: tuple[int, ...], content: tuple[int, ...], cap: int | None = None) -> int:
    """
    Brute-force count of semistandard fillings of `shape` with `content[k]`
    copies of k+1: weakly increasing rows, strictly increasing columns.
    """
    rows = len(shape)
    grid = [[0] * shape[r] for r in range(rows)]
    remaining = list(content)
    cells = [(r, c) for r in range(rows) for c in range(shape[r])]
    found = 0

    def fill(pos: int) -> int:
        nonlocal found
        if pos == len(cells):
            found += 1
            return found
        r, c = cells[pos]
        low = grid[r][c - 1] if c > 0 else 1
        low = max(low, grid[r - 1][c] + 1 if r > 0 else 1)
        for value in range(low, len(remaining) + 1):
            if remaining[value - 1] == 0:
                continue
            grid[r][c] = value
            remaining[value - 1] -= 1
            fill(pos + 1)
            remaining[value - 1] += 1
            grid[r][c] = 0
            if cap is not None and found >= cap:
                return found
        return found

    fill(0)
    return found


def dominance_leq(mu: Partition, nu: Partition) -> bool:
    """True when every prefix sum of mu is at most the one of nu."""
    if mu.n != nu.n:
        raise ValueError(f"sizes differ: {mu} vs {nu}")
    total_mu = total_nu = 0
    for k in range(max(mu.length, nu.length)):
        total_mu += mu.parts[k] if k < mu.length else 0
        total_nu += nu.parts[k] if k < nu.length else 0
        if total_mu > total_nu:
            return False
    return True


def omega_shift(t: RowStandardTableau) -> RowStandardTableau:
    """
    Replace every entry i with mo(i+1) and re-sort the rows: the oracle of
    tableaux.shift_permutation.
    """
    n = t.n
    return RowStandardTableau(tuple(tuple(sorted(mo(e + 1, n) for e in row)) for row in t.rows))


def swapped(t: RowStandardTableau, x: int, y: int) -> RowStandardTableau:
    """t with the entries x and y interchanged, through the validated constructor."""
    return RowStandardTableau(tuple(tuple(y if e == x else x if e == y else e for e in row) for row in t.rows))


def is_knuth_move(t, u) -> bool:
    """
    True when u arises from t by interchanging mo(i) and mo(i+1) for some i
    and the affine descent sets of t and u are incomparable: the oracle of
    build_dual_equiv.
    """
    if t.shape != u.shape:
        raise ValueError("tableaux must have the same shape")
    dt, du = affine_descents(t), affine_descents(u)
    if dt <= du or du <= dt:
        return False
    n = t.n
    for i in range(1, n + 1):
        x, y = mo(i, n), mo(i + 1, n)
        if t.row_of(x) != t.row_of(y) and swapped(t, x, y) == u:
            return True
    return False


def finite_knuth(t, u) -> bool:
    """Interchange of i, i+1 (i < n) with incomparable finite descent sets."""
    if t.shape != u.shape:
        return False
    dt, du = finite_descents(t), finite_descents(u)
    if dt <= du or du <= dt:
        return False
    for i in range(1, t.n):
        if t.row_of(i) != t.row_of(i + 1) and swapped(t, i, i + 1) == u:
            return True
    return False


# the shapes of n = 8, 9 (those of the benchmark's corrupted graphs)
BENCH_SHAPES = ((6, 2), (5, 3), (4, 4), (7, 2), (6, 3), (5, 4))


def bench_size_damaged_graphs() -> list[LabeledWGraph]:
    """
    One seeded damaged graph per shape of BENCH_SHAPES: 1-3 edges deleted
    and one direction of a mutual pair with incomparable tau labels
    re-weighted to 2, 3 or -1.  None is shift-invariant, so every check
    scans in full.
    """
    graphs = []
    for parts in BENCH_SHAPES:
        g = build_affine_graph(Partition(parts))
        rng = random.Random(f"bench-size-{parts[0]}-{parts[1]}")
        tau = g.tau
        mutual = [
            (u, v) for u, v in sorted(g.weights)
            if (v, u) in g.weights and not (tau[u] <= tau[v] or tau[v] <= tau[u])
        ]
        reweighted = rng.choice(mutual)
        weights = dict(g.weights)
        for edge in rng.sample([e for e in sorted(weights) if e != reweighted], rng.randint(1, 3)):
            del weights[edge]
        weights[reweighted] = rng.choice((2, 3, -1))
        graphs.append(LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights))
    return graphs
