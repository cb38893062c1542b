"""
The two-row graph constructions: the affine graph generated by the moves
of the first and second kind on row-standard tableaux, the dual
equivalence graph of Knuth moves, the equal-row variants, and the finite
graph on standard tableaux.

A move swaps one entry of row 1 with one entry of row 2.  First kind:
mo(i) in row 1 trades places with mo(i+1) in row 2.  Second kind: mo(i) in
row 2 trades places with mo(j) in row 1, gated by the parity and cyclic
interval conditions (a)-(e) below.

A two-row tableau of size n is determined by its row 2 (row 1 is the
complement in 1..n), held as an int mask, its row code: entry e is bit
e - 1.  Vertex k of the shape (a, b) is the k-th b-subset of 1..n in
lexicographic order, the enumerate_rsyt order (reading words begin with
row 2).  Descents, moves and the second-kind gate are bit operations on
the mask and its cyclic rotations.  The affine graph and the dual
equivalence graph enumerate the masks straight from the b-subsets, build
no tableau, run their moves at the least vertex of each orbit of the
shift, and carry that row round the orbit by rho, the vertex permutation
of the one-step rotation of the masks (bit e - 1 to bit e mod n).  The
finite builder takes the masks of the standard tableaux it enumerates and
has its own bit helper and non-cyclic gate with plain intervals, so it is
not derived from the affine one; one mask per vertex, the i < n with i in
row 1 and i + 1 in row 2, gives both its label and its first-kind moves.

Every builder hands its fresh fields to LabeledWGraph._trusted, which
neither copies, checks nor sorts them: the parts of the shape and the
masks (and the finite builder its tableaux), the descent sets, one
frozenset per distinct descent mask, and the out-edge rows.  Each builder
reaches the sources in order and sorts one source's targets into its
row, as (target, 1) pairs, one per target vertex, shared by the rows it
is in (the variant keeps its affine graph's pairs and shares one (target,
p) pair per target).  No builder hands over a derived value: the graph
derives the shift's vertex permutation from the masks, not from rho, and
its tableaux when they are first read.
"""

from __future__ import annotations

from itertools import combinations

from .tableaux import Partition, _check_size, enumerate_syt, mo, row_codes
from .wgraph import Edges, LabeledWGraph, _shared_labels, _shared_rows, simple_component_ids

__all__ = ["build_affine_graph", "build_dual_equiv", "build_equal_variant", "build_finite_graph"]


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


def _moves(m: int, n: int):
    """
    The moves out of the tableau of size n with row-2 mask m as (kind, i, j,
    target) tuples, target the row-2 mask after the move: the first kind by
    i, then the second kind by i and j.
    """
    descents = _descent_mask(m, n)
    top = 1 << (n - 1)
    while descents:
        low = descents & -descents
        descents ^= low
        i = low.bit_length()
        yield "first", i, mo(i + 1, n), m ^ low ^ (1 if low == top else low << 1)
    ends_i, ends_j = _second_kind_ends(m, n)
    candidates_j = _entries(ends_j)
    for i in _entries(ends_i):
        for j in candidates_j:
            # j = mo(i-1) would be the first-kind move back
            if (i - j) % n != 1 and _second_kind_gate(m, i, j, n):
                yield "second", i, j, m ^ (1 << (i - 1)) ^ (1 << (j - 1))


def _knuth_moves(m: int, n: int):
    """
    The Knuth moves out of the tableau of size n with row-2 mask m, as
    _moves gives moves: the swaps of mo(i) and mo(i+1) from different rows
    that leave incomparable descent sets, by i (the swap back is one too).
    """
    descents = _descent_mask(m, n)
    top = 1 << (n - 1)
    split = m ^ _rotate(m, 1, n)
    while split:
        low = split & -split
        split ^= low
        target = m ^ low ^ (1 if low == top else low << 1)
        moved = _descent_mask(target, n)
        if descents & ~moved and moved & ~descents:
            i = low.bit_length()
            yield "knuth", i, mo(i + 1, n), target


def _orbit_weights(masks: tuple[int, ...], n: int, moves) -> tuple[Edges, ...]:
    """
    The out-edge rows on the row-2 masks of size n, each a tuple of (target,
    1) pairs sorted by target, one per move that moves(m, n) gives, for
    moves that turn with the shift: run at the least vertex of each orbit
    only, with the row carried round the orbit by rho.  A function of its
    own, so that its index is freed before the builder's next step.
    """
    index = {m: k for k, m in enumerate(masks)}
    full = (1 << n) - 1
    # rho[k] is the vertex of k's mask rotated one step (bit e - 1 to bit e
    # mod n); the targets of rho[k] are those of k under rho
    rho = [index[(m << 1 | m >> (n - 1)) & full] for m in masks]
    # one (target, 1) pair per vertex, shared by the rows it is in
    ones = [(k, 1) for k in range(len(masks))]
    rows: list[Edges | None] = [None] * len(masks)
    for k, m in enumerate(masks):
        if rows[k] is None:
            targets = sorted([index[move[3]] for move in moves(m, n)])
            rows[k], v = tuple([ones[t] for t in targets]), rho[k]
            # the walk stops at k, so an orbit shorter than n is walked once
            while v != k:
                targets = sorted(map(rho.__getitem__, targets))
                rows[v], v = tuple([ones[t] for t in targets]), rho[v]
    return tuple(rows)


def _two_row_masks(shape: Partition) -> tuple[int, ...]:
    """
    The row-2 masks of the tableaux of a two-row shape (a, b) in the
    enumerate_rsyt order: the b-subsets of 1..n in lexicographic order.  A
    shape that enumerate_rsyt rejects as too large is rejected here too,
    before anything is allocated.
    """
    if not shape.is_two_row:
        raise ValueError(f"shape must have exactly two rows: {shape}")
    _check_size(shape)
    n, b = shape.n, shape.parts[1]
    # the positions go in a tuple allocated at once, as enumerate_rsyt's
    # entries do, so a shape too large to hold fails there, before any mask
    bits = [1 << e for e in tuple(range(n))]
    # the b-subsets of the bits of 1..n, in lexicographic order, each summed
    return tuple(map(sum, combinations(bits, b)))


def _graph(shape: Partition, moves) -> LabeledWGraph:
    """The [1,n]-labeled graph on the row-2 masks of the two-row shape, with the edges of moves."""
    masks, n = _two_row_masks(shape), shape.n
    rows = _orbit_weights(masks, n, moves)  # first, so that the kernel's index is freed before the labels are made
    tau = _shared_labels([_descent_mask(m, n) for m in masks], lambda d: frozenset(_entries(d)))
    return LabeledWGraph._trusted(n, frozenset(range(1, n + 1)), shape.parts, masks, tau, rows)


def build_affine_graph(shape: Partition) -> LabeledWGraph:
    """
    The [1,n]-labeled graph on RSYT(shape) generated by the two moves.

    The moves are computed at one vertex per orbit of the shift omega (entry
    e becomes mo(e+1)) and carried round the orbit.  This is exact because
    every move condition is stated in residues mod n, so omega maps the
    moves out of s onto the moves out of omega(s).
    """
    return _graph(shape, _moves)


def build_dual_equiv(shape: Partition) -> LabeledWGraph:
    """
    The graph of Knuth moves on RSYT(shape), all edges mutual of weight 1,
    built as the affine graph is: a Knuth move is stated in residues mod n.
    """
    return _graph(shape, _knuth_moves)


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
    rows = []
    for u, row in enumerate(g.adjacency):
        kept = []
        for e in row:
            if comp[e[0]] != comp[u]:
                if p == 0:
                    continue
                e = (e[0], p)
            kept.append(e)
        rows.append(kept)
    return g._derived(g.index_set, g.tau, _shared_rows(rows))


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
    # row 2 of each vertex as a mask, entry e at bit e - 1: its row code (0 for one row, with no move)
    masks = row_codes(vertices)[1]
    rows = []
    index = {m: k for k, m in enumerate(masks)}
    # one (target, 1) pair per vertex, shared by the rows it is in
    ones = [(k, 1) for k in range(len(masks))]
    full, below_n = (1 << n) - 1, (1 << (n - 1)) - 1
    # each vertex's descents i < n, i in row 1 and i + 1 in row 2: its label and its first-kind moves
    descents = [~m & m >> 1 & below_n for m in masks]
    for m, d in zip(masks, descents):
        targets = [m ^ (3 << (i - 1)) for i in _finite_entries(d)]
        # second kind: (b) as a pre-filter, i in row 2 with i + 1 in row 1,
        # i > 1, and j in row 1 with j - 1 in row 2
        ends_j = _finite_entries(~m & m << 1 & full)
        targets += [
            m ^ (1 << (i - 1)) ^ (1 << (j - 1))
            for i in _finite_entries(m & ~(m >> 1) & below_n & ~1) for j in ends_j
            if _finite_second_kind_valid(m, i, j)
        ]
        rows.append(tuple([ones[dst] for dst in sorted(index[target] for target in targets if target in index)]))
    tau = _shared_labels(descents, lambda d: frozenset(_finite_entries(d)))
    return LabeledWGraph._trusted(n, frozenset(range(1, n)), shape.parts, masks, tau, tuple(rows), vertices)
