"""
The two-row graph constructions: moves of the first and second kind on
row-standard tableaux, the affine graph they generate, the dual equivalence
graph of Knuth moves, the equal-row variants, and the finite graph on
standard tableaux.

A move swaps one entry of row 1 with one entry of row 2.  First kind:
mo(i) in row 1 trades places with mo(i+1) in row 2.  Second kind: mo(i) in
row 2 trades places with mo(j) in row 1, gated by the parity and cyclic
interval conditions (a)-(e) below.

A two-row tableau is determined by its row 2 (row 1 is the complement in
1..n), so the builders read and index each vertex by the frozenset of its
row 2.  The affine gate folds (d) and (e) into one count.  The finite gate
keeps its plain-interval sums, so it is not derived from the affine one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tableaux import (
    Partition,
    RowStandardTableau,
    affine_descents,
    enumerate_rsyt,
    enumerate_syt,
    finite_descents,
    mo,
)
from .wgraph import LabeledWGraph, simple_component_ids

__all__ = [
    "Move", "first_kind_target", "second_kind_valid", "second_kind_target",
    "enumerate_moves", "build_affine_graph", "build_dual_equiv",
    "build_equal_variant", "build_finite_graph",
]


@dataclass(frozen=True)
class Move:
    kind: str  # "first" | "second"
    i: int
    j: int  # equals i + 1 for first-kind moves
    source: int
    target: int


def _require_two_row(shape: Partition) -> None:
    if not shape.is_two_row:
        raise ValueError(f"shape must have exactly two rows: {shape}")


def first_kind_target(s: RowStandardTableau, i: int) -> RowStandardTableau | None:
    """Swap mo(i) in row 1 with mo(i+1) in row 2, or None if not applicable."""
    _require_two_row(s.shape)
    n = s.n
    x, y = mo(i, n), mo(i + 1, n)
    if x not in s.rows[1] and y in s.rows[1]:
        return s.with_swapped(x, y)
    return None


def second_kind_valid(s: RowStandardTableau, i: int, j: int) -> bool:
    """
    Decide conditions (a)-(e) for the second-kind swap of mo(i) in row 2
    with mo(j) in row 1.  Raises if (s, i, j) is not even a candidate.
    """
    _require_two_row(s.shape)
    n = s.n
    row2 = frozenset(s.rows[1])
    if mo(i, n) not in row2 or mo(j, n) in row2 or mo(i, n) == mo(j + 1, n):
        raise ValueError(f"not a second-kind candidate: i={i}, j={j} on {s}")
    return _second_kind_ok(row2, i, j, n)


def _second_kind_ok(row2, i: int, j: int, n: int) -> bool:
    """Conditions (a)-(e) on the second row of a second-kind candidate (i, j)."""
    d = mo(j - i, n)
    # (a) cyclic distance from i to j is odd
    if d % 2 == 0:
        return False
    # (b); row 1 is the complement of row 2
    if mo(i + 1, n) in row2 or mo(j - 1, n) not in row2:
        return False
    # (c)
    if mo(i - 1, n) in row2 and mo(j + 1, n) not in row2:
        return False
    # (d) the k-th window mo(j-1-2k)..mo(j-2) holds 2k <= d - 3 < n residues,
    # two more than the (k-1)-th; count is the number of them in row 2
    count = 0
    for k in range(1, (d - 3) // 2 + 1):
        count += (mo(j - 2 * k, n) in row2) + (mo(j - 1 - 2 * k, n) in row2)
        if count < k:
            return False
    # (e) the window mo(i+2)..mo(j-2) is the last window of (d), k = (d-3)//2,
    # since j-1-(d-3) = i+2 mod n (empty for d == 3); for d == 1 (mo(j) = mo(i+1))
    # there is no condition
    return d == 1 or count == (d - 3) // 2


def second_kind_target(s: RowStandardTableau, i: int, j: int) -> RowStandardTableau | None:
    """The result of the second-kind move, or None when (a)-(e) fail."""
    if second_kind_valid(s, i, j):
        return s.with_swapped(mo(i, s.n), mo(j, s.n))
    return None


def _moves(vertices, n: int):
    """The moves between the given two-row tableaux of size n, by source index."""
    index = {frozenset(t.rows[1]): k for k, t in enumerate(vertices)}
    for src, s in enumerate(vertices):
        row2 = frozenset(s.rows[1])
        for i in range(1, n + 1):
            x, y = mo(i, n), mo(i + 1, n)
            if x not in row2 and y in row2:
                yield Move("first", i, y, src, index[row2 ^ {x, y}])
        # rows are sorted, so i and j run through 1..n in increasing order
        for i in s.rows[1]:
            for j in s.rows[0]:
                if i != mo(j + 1, n) and _second_kind_ok(row2, i, j, n):
                    yield Move("second", i, j, src, index[row2 ^ {i, j}])


def enumerate_moves(shape: Partition) -> list[Move]:
    """
    All moves between row-standard tableaux of the shape, with source and
    target given as indices into enumerate_rsyt(shape).
    """
    _require_two_row(shape)
    return list(_moves(enumerate_rsyt(shape), shape.n))


def build_affine_graph(shape: Partition) -> LabeledWGraph:
    """The [1,n]-labeled graph on RSYT(shape) generated by the two moves."""
    _require_two_row(shape)
    n = shape.n
    vertices = tuple(enumerate_rsyt(shape))
    weights = {(m.source, m.target): 1 for m in _moves(vertices, n)}
    return LabeledWGraph(
        n=n,
        index_set=frozenset(range(1, n + 1)),
        vertices=vertices,
        tau=tuple(affine_descents(t) for t in vertices),
        weights=weights,
    )


def build_dual_equiv(shape: Partition) -> LabeledWGraph:
    """The graph of Knuth moves on RSYT(shape), all edges mutual of weight 1."""
    _require_two_row(shape)
    n = shape.n
    vertices = tuple(enumerate_rsyt(shape))
    tau = tuple(affine_descents(t) for t in vertices)
    index = {frozenset(t.rows[1]): k for k, t in enumerate(vertices)}
    # a Knuth move swaps mo(i) and mo(i+1) from different rows and leaves
    # incomparable descent sets (see is_knuth_move)
    pairs = []
    for u, t in enumerate(vertices):
        row2 = frozenset(t.rows[1])
        for i in range(1, n + 1):
            x, y = mo(i, n), mo(i + 1, n)
            if (x in row2) != (y in row2):
                v = index[row2 ^ {x, y}]
                if u < v and not (tau[u] <= tau[v] or tau[v] <= tau[u]):
                    pairs.append((u, v))
    weights: dict[tuple[int, int], int] = {}
    for u, v in sorted(pairs):
        weights[(u, v)] = 1
        weights[(v, u)] = 1
    return LabeledWGraph(
        n=n,
        index_set=frozenset(range(1, n + 1)),
        vertices=vertices,
        tau=tau,
        weights=weights,
    )


def build_equal_variant(shape: Partition, p: int) -> LabeledWGraph:
    """
    For shape (a,a): the affine graph with every directed edge joining the
    two simple components re-weighted to p (p=0 removes them, p=1 is the
    affine graph itself).
    """
    if not shape.is_equal_row:
        raise ValueError(f"shape must have two equal rows: {shape}")
    if p < 0:
        raise ValueError(f"variant weight must be nonnegative: {p}")
    g = build_affine_graph(shape)
    comp = simple_component_ids(g)
    weights = {}
    for (u, v), w in g.weights.items():
        if comp[u] != comp[v]:
            if p == 0:
                continue
            w = p
        weights[(u, v)] = w
    return LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights)


def _finite_second_kind_valid(row2, i: int, j: int) -> bool:
    """
    Non-cyclic conditions (a)-(e), with plain intervals, for the swap of i
    in row 2 with j in row 1 of a two-row tableau of size n >= j.
    """
    if not 1 < i < j or (j - i) % 2 == 0:
        return False
    # row 1 is the complement of row 2
    if i + 1 in row2 or j - 1 not in row2:
        return False
    # j+1 is not in row 2 by convention when j = n, and n+1 is in no row
    if i - 1 in row2 and j + 1 not in row2:
        return False
    for m in range(1, (j - i - 3) // 2 + 1):
        if sum(1 for e in row2 if j - 1 - 2 * m <= e <= j - 2) < m:
            return False
    if j != i + 1 and sum(1 for e in row2 if i + 2 <= e <= j - 2) != (j - i - 3) // 2:
        return False
    return True


def build_finite_graph(shape: Partition) -> LabeledWGraph:
    """
    The [1,n-1]-labeled graph on the standard tableaux of the shape.

    Moves whose target is not standard produce no edge: the target's row 2
    is not in the index.  One-row shapes give the single-vertex graph (the
    restriction cells of the affine graph are keyed by such shapes as well).
    """
    if shape.length > 2:
        raise ValueError(f"shape must have at most two rows: {shape}")
    n = shape.n
    vertices = tuple(enumerate_syt(shape))
    weights: dict[tuple[int, int], int] = {}
    if shape.is_two_row:
        index = {frozenset(t.rows[1]): k for k, t in enumerate(vertices)}
        for src, s in enumerate(vertices):
            row2 = frozenset(s.rows[1])
            targets = [row2 ^ {i, i + 1} for i in range(1, n) if i not in row2 and i + 1 in row2]
            targets += [
                row2 ^ {i, j} for i in s.rows[1] for j in s.rows[0]
                if _finite_second_kind_valid(row2, i, j)
            ]
            for target in targets:
                if target in index:
                    weights[(src, index[target])] = 1
    return LabeledWGraph(
        n=n,
        index_set=frozenset(range(1, n)),
        vertices=vertices,
        tau=tuple(finite_descents(t) for t in vertices),
        weights=weights,
    )
