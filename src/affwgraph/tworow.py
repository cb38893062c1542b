"""
The two-row graph constructions: moves of the first and second kind on
row-standard tableaux, the affine graph they generate, the dual equivalence
graph of Knuth moves, the equal-row variants, and the finite graph on
standard tableaux.

A move swaps one entry of row 1 with one entry of row 2.  First kind:
mo(i) in row 1 trades places with mo(i+1) in row 2.  Second kind: mo(i) in
row 2 trades places with mo(j) in row 1, gated by the parity and cyclic
interval conditions (a)-(e) below.

A two-row tableau of size n is determined by its row 2 (row 1 is the
complement in 1..n), which the affine builders hold as an int mask: entry e
is bit e - 1.  Vertex k of the shape (a, b) is the k-th b-subset of 1..n in
lexicographic order, which is the enumerate_rsyt order (reading words begin
with row 2).  Descents, moves and the second-kind gate are bit operations
on the mask and its cyclic rotations.  The tableaux are built once, by
enumerate_rsyt, at the boundary: the builders read each one's mask and hand
the tableaux to the graph unchanged.  The finite builder keeps its own
row-2 masks, bit helper and non-cyclic gate with plain intervals, so it is
not derived from the affine one.

Every builder hands its fresh fields to LabeledWGraph._trusted: distinct
tableaux of one shape from an enumeration, descent sets inside the index
set and weights 1 (or the variant's int p) on vertex pairs, so the graph
is neither copied nor checked again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tableaux import (
    Partition,
    RowStandardTableau,
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


def _row2_mask(s: RowStandardTableau) -> int:
    """The mask of row 2 of a two-row tableau: bit e - 1 for each entry e."""
    if len(s.rows) != 2:
        raise ValueError(f"tableau must have exactly two rows: {s}")
    m = 0
    for e in s.rows[1]:
        m |= 1 << (e - 1)
    return m


def _entries(m: int) -> tuple[int, ...]:
    """The entries whose bits are set, in increasing order."""
    entries = []
    while m:
        low = m & -m
        entries.append(low.bit_length())
        m ^= low
    return tuple(entries)


def _rotate(m: int, s: int, n: int) -> int:
    """The n-bit mask whose bit p is bit (p + s) mod n of m, for 0 <= s < n."""
    return ((m >> s) | (m << (n - s))) & ((1 << n) - 1)


def _descent_mask(m: int, n: int) -> int:
    """The affine descents i: mo(i) in row 1 and mo(i+1) in row 2."""
    return _rotate(m, 1, n) & ~m


def _second_kind_ends(m: int, n: int) -> tuple[int, int]:
    """
    Condition (b) as two masks: the i in row 2 with mo(i+1) in row 1, and
    the j in row 1 with mo(j-1) in row 2.
    """
    return m & ~_rotate(m, 1, n), ~m & _rotate(m, n - 1, n)


def _second_kind_gate(m: int, i: int, j: int, n: int) -> bool:
    """Conditions (a) and (c)-(e) on the row-2 mask m for i, j that meet (b)."""
    d = (j - i) % n
    # (a) cyclic distance from i to j is odd
    if not d & 1:
        return False
    # (c) not both mo(i-1) in row 2 and mo(j+1) in row 1
    if m >> ((i - 2) % n) & 1 and not m >> (j % n) & 1:
        return False
    # (d) bit p of r holds mo(j-1+p), so the k-th window mo(j-1-2k)..mo(j-2),
    # of 2k <= d - 3 < n residues, is the top 2k bits of r
    r = _rotate(m, (j - 2) % n, n)
    count = 0
    for k in range(1, (d - 3) // 2 + 1):
        count = (r >> (n - 2 * k)).bit_count()
        if count < k:
            return False
    # (e) the window mo(i+2)..mo(j-2) is the last window of (d), k = (d-3)//2,
    # since j-1-(d-3) = i+2 mod n (empty for d == 3); for d == 1 (mo(j) = mo(i+1))
    # there is no condition
    return d == 1 or count == (d - 3) // 2


def first_kind_target(s: RowStandardTableau, i: int) -> RowStandardTableau | None:
    """Swap mo(i) in row 1 with mo(i+1) in row 2, or None if not applicable."""
    m = _row2_mask(s)
    n = s.n
    if _descent_mask(m, n) >> (mo(i, n) - 1) & 1:
        return s.with_swapped(mo(i, n), mo(i + 1, n))
    return None


def second_kind_valid(s: RowStandardTableau, i: int, j: int) -> bool:
    """
    Decide conditions (a)-(e) for the second-kind swap of mo(i) in row 2
    with mo(j) in row 1.  Raises if (s, i, j) is not even a candidate.
    """
    m = _row2_mask(s)
    n = s.n
    x, y = mo(i, n), mo(j, n)
    if not m >> (x - 1) & 1 or m >> (y - 1) & 1 or x == mo(j + 1, n):
        raise ValueError(f"not a second-kind candidate: i={i}, j={j} on {s}")
    ends_i, ends_j = _second_kind_ends(m, n)
    return bool(ends_i >> (x - 1) & 1 and ends_j >> (y - 1) & 1) and _second_kind_gate(m, x, y, n)


def second_kind_target(s: RowStandardTableau, i: int, j: int) -> RowStandardTableau | None:
    """The result of the second-kind move, or None when (a)-(e) fail."""
    if second_kind_valid(s, i, j):
        return s.with_swapped(mo(i, s.n), mo(j, s.n))
    return None


def _moves(masks: list[int], n: int):
    """
    The moves between the given row-2 masks of size n as (kind, i, j,
    source, target) tuples, by source; per source the first kind by i, then
    the second kind by i and j.
    """
    index = {m: k for k, m in enumerate(masks)}
    top = 1 << (n - 1)
    for src, m in enumerate(masks):
        descents = _descent_mask(m, n)
        while descents:
            low = descents & -descents
            descents ^= low
            i = low.bit_length()
            yield "first", i, mo(i + 1, n), src, index[m ^ low ^ (1 if low == top else low << 1)]
        ends_i, ends_j = _second_kind_ends(m, n)
        candidates_j = _entries(ends_j)
        for i in _entries(ends_i):
            for j in candidates_j:
                # j = mo(i-1) would be the first-kind move back
                if (i - j) % n != 1 and _second_kind_gate(m, i, j, n):
                    yield "second", i, j, src, index[m ^ (1 << (i - 1)) ^ (1 << (j - 1))]


def _descent_sets(descents: list[int]) -> tuple[frozenset[int], ...]:
    """The descent masks as sets, one frozenset per distinct mask."""
    sets: dict[int, frozenset[int]] = {}
    for d in descents:
        if d not in sets:
            sets[d] = frozenset(_entries(d))
    return tuple(sets[d] for d in descents)


def enumerate_moves(shape: Partition) -> list[Move]:
    """
    All moves between row-standard tableaux of the shape, with source and
    target given as indices into enumerate_rsyt(shape).
    """
    _require_two_row(shape)
    masks = [_row2_mask(t) for t in enumerate_rsyt(shape)]
    return [Move(*fields) for fields in _moves(masks, shape.n)]


def build_affine_graph(shape: Partition) -> LabeledWGraph:
    """The [1,n]-labeled graph on RSYT(shape) generated by the two moves."""
    _require_two_row(shape)
    n = shape.n
    vertices = tuple(enumerate_rsyt(shape))
    masks = [_row2_mask(t) for t in vertices]
    weights = {(src, dst): 1 for _, _, _, src, dst in _moves(masks, n)}
    tau = _descent_sets([_descent_mask(m, n) for m in masks])
    return LabeledWGraph._trusted(n, frozenset(range(1, n + 1)), vertices, tau, weights)


def build_dual_equiv(shape: Partition) -> LabeledWGraph:
    """The graph of Knuth moves on RSYT(shape), all edges mutual of weight 1."""
    _require_two_row(shape)
    n = shape.n
    vertices = tuple(enumerate_rsyt(shape))
    masks = [_row2_mask(t) for t in vertices]
    index = {m: k for k, m in enumerate(masks)}
    descents = [_descent_mask(m, n) for m in masks]
    top = 1 << (n - 1)
    # a Knuth move swaps mo(i) and mo(i+1) from different rows and leaves
    # incomparable descent sets (see is_knuth_move)
    pairs = []
    for u, m in enumerate(masks):
        split = m ^ _rotate(m, 1, n)
        while split:
            low = split & -split
            split ^= low
            v = index[m ^ low ^ (1 if low == top else low << 1)]
            if u < v and descents[u] & ~descents[v] and descents[v] & ~descents[u]:
                pairs.append((u, v))
    weights: dict[tuple[int, int], int] = {}
    for u, v in sorted(pairs):
        weights[(u, v)] = 1
        weights[(v, u)] = 1
    return LabeledWGraph._trusted(n, frozenset(range(1, n + 1)), vertices, _descent_sets(descents), weights)


def build_equal_variant(shape: Partition, p: int) -> LabeledWGraph:
    """
    For shape (a,a): the affine graph with every directed edge joining the
    two simple components re-weighted to p (p=0 removes them, p=1 is the
    affine graph itself).
    """
    if not shape.is_equal_row:
        raise ValueError(f"shape must have two equal rows: {shape}")
    # the graph is not checked again, so p must be an exact int
    if type(p) is not int:
        raise ValueError(f"variant weight must be an integer: {p!r}")
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
    return LabeledWGraph._trusted(g.n, g.index_set, g.vertices, g.tau, weights)


def _finite_entries(m: int) -> list[int]:
    """The entries whose bits are set in the mask m, in increasing order."""
    return [e for e in range(1, m.bit_length() + 1) if m >> (e - 1) & 1]


def _finite_second_kind_valid(m: int, i: int, j: int) -> bool:
    """
    Non-cyclic conditions (a)-(e), with plain intervals, for the swap of i
    in row 2 with j in row 1 of a two-row tableau of size n >= j whose row 2
    has the mask m (entry e is bit e - 1, no bit at or above n).
    """
    # (a) 1 < i < j at odd distance
    if not 1 < i < j or (j - i) % 2 == 0:
        return False
    # (b) i + 1 in row 1 and j - 1 in row 2 (row 1 is the complement of row 2)
    if m >> i & 1 or not m >> (j - 2) & 1:
        return False
    # (c) not both i - 1 in row 2 and j + 1 outside row 2 (as it is for
    # j = n: m has no bit n)
    if m >> (i - 2) & 1 and not m >> j & 1:
        return False
    # (d) each window j-1-2k..j-2 holds at least k entries of row 2: below
    # keeps the entries up to j - 2, and the window is its top 2k bits
    below = m & ((1 << (j - 2)) - 1)
    for k in range(1, (j - i - 3) // 2 + 1):
        if (below >> (j - 2 - 2 * k)).bit_count() < k:
            return False
    # (e) the window i+2..j-2 (empty for j = i + 3) holds (j-i-3)/2 entries;
    # no condition for j = i + 1
    return j == i + 1 or (below >> (i + 1)).bit_count() == (j - i - 3) // 2


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
        # row 2 of each vertex as a mask, entry e at bit e - 1
        masks = [sum(1 << (e - 1) for e in t.rows[1]) for t in vertices]
        index = {m: k for k, m in enumerate(masks)}
        full, below_n = (1 << n) - 1, (1 << (n - 1)) - 1
        for src, m in enumerate(masks):
            # first kind: i in row 1 and i + 1 in row 2, for i < n
            targets = [m ^ (3 << (i - 1)) for i in _finite_entries(~m & m >> 1 & below_n)]
            # second kind: (b) as a pre-filter, i in row 2 with i + 1 in row 1,
            # i > 1, and j in row 1 with j - 1 in row 2
            ends_j = _finite_entries(~m & m << 1 & full)
            targets += [
                m ^ (1 << (i - 1)) ^ (1 << (j - 1))
                for i in _finite_entries(m & ~(m >> 1) & below_n & ~1) for j in ends_j
                if _finite_second_kind_valid(m, i, j)
            ]
            for target in targets:
                if target in index:
                    weights[(src, index[target])] = 1
    return LabeledWGraph._trusted(
        n, frozenset(range(1, n)), vertices, tuple(finite_descents(t) for t in vertices), weights
    )
