import copy
import hashlib
import json
import pickle
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import pytest

import affwgraph.tworow as tworow
from affwgraph import (
    LabeledWGraph,
    Partition,
    RowStandardTableau,
    affine_descents,
    build_affine_graph,
    build_dual_equiv,
    build_equal_variant,
    build_finite_graph,
    check_all_rules,
    check_hecke_relations,
    enumerate_rsyt,
    enumerate_syt,
    finite_descents,
    mo,
    restrict_parabolic,
)
from affwgraph.cli import main
from affwgraph.fixtures import load_fixture
from affwgraph.regress import _Shape, check_mutation_sensitivity
from affwgraph.tableaux import pint, row_codes
from affwgraph.tworow import (
    _finite_second_kind_valid,
    _moves,
    _second_kind_ends,
    _second_kind_gate,
)
from affwgraph.wgraph import (
    EdgeWeights,
    _scc_partition,
    cells,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    simple_component_ids,
    simple_underlying,
)

from conftest import exactly, is_knuth_move, omega_shift, swapped, two_row_shapes


def T(*rows):
    return RowStandardTableau(tuple(tuple(r) for r in rows))


def row2_mask(s: RowStandardTableau) -> int:
    """The mask of row 2 of a two-row tableau, read from its rows: bit e - 1 for each entry e."""
    return sum(1 << (e - 1) for e in s.rows[1])


@dataclass(frozen=True)
class Move:
    kind: str  # "first" | "second"
    i: int
    j: int  # equals i + 1 for first-kind moves
    source: int
    target: int


def enumerate_moves(shape: Partition) -> list[Move]:
    """
    The moves the affine builder draws its edges from, with source and
    target given as indices into enumerate_rsyt(shape).
    """
    masks = [row2_mask(t) for t in enumerate_rsyt(shape)]
    index = {m: k for k, m in enumerate(masks)}
    return [
        Move(kind, i, j, src, index[target])
        for src, m in enumerate(masks) for kind, i, j, target in _moves(m, shape.n)
    ]


def first_kind_target(s: RowStandardTableau, i: int) -> RowStandardTableau | None:
    """
    Swap mo(i) in row 1 with mo(i+1) in row 2, or None if not applicable:
    the first-kind move on one tableau, read from its rows.
    """
    n = s.n
    x, y = mo(i, n), mo(i + 1, n)
    if s.row_of(x) == 1 and s.row_of(y) == 2:
        return swapped(s, x, y)
    return None


def second_kind_valid(s: RowStandardTableau, i: int, j: int) -> bool:
    """
    The affine builder's decision on conditions (a)-(e) for the second-kind
    swap of mo(i) in row 2 with mo(j) in row 1.  Raises if (s, i, j) is not
    even a candidate.
    """
    m = row2_mask(s)
    n = s.n
    x, y = mo(i, n), mo(j, n)
    if not m >> (x - 1) & 1 or m >> (y - 1) & 1 or x == mo(j + 1, n):
        raise ValueError(f"not a second-kind candidate: i={i}, j={j} on {s}")
    ends_i, ends_j = _second_kind_ends(m, n)
    return bool(ends_i >> (x - 1) & 1 and ends_j >> (y - 1) & 1) and _second_kind_gate(m, x, y, n)


class TestFirstKind:
    def test_examples(self):
        assert first_kind_target(T([2, 4, 5], [1, 3]), 2) == T([3, 4, 5], [1, 2])
        assert first_kind_target(T([1, 2, 3], [4, 5]), 3) == T([1, 2, 4], [3, 5])
        assert first_kind_target(T([1, 2, 3], [4, 5]), 1) is None

    def test_wraps_cyclically(self):
        # i = n swaps n in row 1 with 1 in row 2
        assert first_kind_target(T([2, 3, 5], [1, 4]), 5) == T([1, 2, 3], [4, 5])


class TestSecondKind:
    def test_known_swap(self):
        s = T([2, 4, 5], [1, 3])
        assert second_kind_valid(s, 1, 4)
        # the move is an edge of the affine graph
        g = build_affine_graph(s.shape)
        index = g.vertex_index()
        assert (index[s], index[T([1, 2, 5], [3, 4])]) in g.weights

    def test_reverse_of_first_kind(self):
        assert second_kind_valid(T([2, 4, 5], [1, 3]), 3, 4)

    def test_rejects_first_kind_shape(self):
        with pytest.raises(ValueError):
            second_kind_valid(T([1, 2, 3], [4, 5]), 4, 3)

    def test_parity_gate(self):
        # distance 2 is even, so no move regardless of the interval counts
        s = T([1, 2, 5], [3, 4])
        assert not second_kind_valid(s, 3, 5)


class TestAffineGraph:
    def test_triangle_at_n3(self):
        g = build_affine_graph(Partition((2, 1)))
        assert len(g.vertices) == 3
        assert g.weights == {(u, v): 1 for u in range(3) for v in range(3) if u != v}

    def test_sizes(self):
        assert len(build_affine_graph(Partition((3, 2))).weights) == 30
        assert len(build_affine_graph(Partition((4, 2))).weights) == 48
        assert len(build_affine_graph(Partition((3, 3))).weights) == 66

    def test_tau_is_affine_descents(self):
        g = build_affine_graph(Partition((3, 2)))
        assert all(g.tau[k] == affine_descents(t) for k, t in enumerate(g.vertices))

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            build_affine_graph(Partition((3,)))
        with pytest.raises(ValueError):
            build_affine_graph(Partition((2, 2, 1)))

    def test_descent_change_of_moves(self):
        # first kind: loses exactly mo(i), gains within {mo(i-1), mo(i+1)};
        # second kind: loses within {mo(i-1), mo(j)} (never empty), gains
        # {mo(i)} when mo(j) = mo(i+1) and nothing otherwise
        for shape in two_row_shapes(3, 7):
            n = shape.n
            g = build_affine_graph(shape)
            for move in enumerate_moves(shape):
                dv = g.tau[move.source]
                dw = g.tau[move.target]
                if move.kind == "first":
                    assert dv - dw == {mo(move.i, n)}
                    assert dw - dv <= {mo(move.i - 1, n), mo(move.i + 1, n)}
                else:
                    lost = dv - dw
                    assert lost and lost <= {mo(move.i - 1, n), mo(move.j, n)}
                    if mo(move.j, n) == mo(move.i + 1, n):
                        assert dw - dv == {mo(move.i, n)}
                    else:
                        assert dw - dv == frozenset()


class TestDualEquiv:
    def test_triangle(self):
        g = build_dual_equiv(Partition((2, 1)))
        assert g.weights == {(u, v): 1 for u in range(3) for v in range(3) if u != v}

    def test_equals_simple_underlying(self):
        for shape in two_row_shapes(3, 6):
            assert (
                build_dual_equiv(shape).weights
                == simple_underlying(build_affine_graph(shape)).weights
            )

    def test_knuth_edges_only(self):
        g = build_dual_equiv(Partition((3, 2)))
        for (u, v) in g.weights:
            assert is_knuth_move(g.vertices[u], g.vertices[v])


class TestEqualVariant:
    def test_p1_is_affine_graph(self):
        shape = Partition((3, 3))
        assert build_equal_variant(shape, 1).weights == build_affine_graph(shape).weights

    def test_p0_removes_cross_edges(self):
        shape = Partition((3, 3))
        g = build_affine_graph(shape)
        comp = simple_component_ids(g)
        variant = build_equal_variant(shape, 0)
        assert len(variant.weights) == 54
        assert all(comp[u] == comp[v] for (u, v) in variant.weights)

    def test_p2_doubles_cross_edges(self):
        shape = Partition((2, 2))
        g = build_affine_graph(shape)
        comp = simple_component_ids(g)
        variant = build_equal_variant(shape, 2)
        for (u, v), w in variant.weights.items():
            assert w == (2 if comp[u] != comp[v] else g.weights[(u, v)])

    def test_rejects_unequal(self):
        with pytest.raises(ValueError):
            build_equal_variant(Partition((3, 2)), 0)

    @pytest.mark.parametrize("p", [True, 2.0, -1])
    def test_rejects_weights_other_than_nonnegative_ints(self, p):
        # the variant is not checked again by the graph constructor
        with pytest.raises(ValueError, match="variant weight must be"):
            build_equal_variant(Partition((2, 2)), p)


class TestFiniteGraph:
    def test_two_vertex_example(self):
        g = build_finite_graph(Partition((2, 1)))
        assert [t.rows for t in g.vertices] == [((1, 3), (2,)), ((1, 2), (3,))]
        assert g.weights == {(0, 1): 1, (1, 0): 1}
        assert g.index_set == {1, 2}

    def test_standard_vertex_graph_size(self):
        g = build_finite_graph(Partition((3, 2)))
        assert len(g.vertices) == 5
        # ten directed edges among the five standard vertices
        assert len(g.weights) == 10

    def test_vertex_count_is_ballot_number(self):
        from math import comb

        for shape in two_row_shapes(3, 8):
            n, b = shape.n, shape.parts[1]
            expected = comb(n, b) - comb(n, b - 1)
            assert len(build_finite_graph(shape).vertices) == expected
            assert len(enumerate_syt(shape)) == expected

    def test_one_row_trivial(self):
        g = build_finite_graph(Partition((4,)))
        assert len(g.vertices) == 1
        assert g.weights == {}

    def test_rejects_three_rows(self):
        with pytest.raises(ValueError, match=exactly("shape must have at most two rows: (2,2,1)")):
            build_finite_graph(Partition((2, 2, 1)))


def test_omega_equivariance():
    for shape in two_row_shapes(3, 7):
        g = build_affine_graph(shape)
        index = g.vertex_index()
        sigma = [index[omega_shift(t)] for t in g.vertices]
        assert {(sigma[u], sigma[v]): w for (u, v), w in g.weights.items()} == g.weights


def test_strong_connectivity():
    from affwgraph import cells

    for shape in two_row_shapes(3, 8):
        assert len(cells(build_affine_graph(shape))) == 1


def test_affine_labels_and_first_kind_edges_match_tableau_functions():
    # every two-row shape with n <= 12: tau is affine_descents, and the edges
    # whose entry entering row 1 follows the one leaving it (mo(i+1) after
    # mo(i)) are the first-kind moves
    for shape in two_row_shapes(3, 12):
        n = shape.n
        g = build_affine_graph(shape)
        index = g.vertex_index()
        expected = set()
        for u, t in enumerate(g.vertices):
            assert g.tau[u] == affine_descents(t), t
            for i in range(1, n + 1):
                target = first_kind_target(t, i)
                if target is not None:
                    expected.add((u, index[target]))
        first = set()
        for u, v in g.weights:
            (leaving,) = set(g.vertices[u].rows[0]) - set(g.vertices[v].rows[0])
            (entering,) = set(g.vertices[v].rows[0]) - set(g.vertices[u].rows[0])
            if entering == mo(leaving + 1, n):
                first.add((u, v))
        assert first == expected


def test_finite_labels_and_first_kind_edges_match_tableau_functions():
    # every two-row shape with n <= 12: tau is finite_descents, and the edges
    # whose entry entering row 1 follows the one leaving it (i + 1 after i)
    # are the first-kind moves to a standard tableau
    for shape in two_row_shapes(3, 12):
        g = build_finite_graph(shape)
        index = g.vertex_index()
        expected = set()
        for u, t in enumerate(g.vertices):
            assert g.tau[u] == finite_descents(t), t
            for i in range(1, shape.n):
                if t.row_of(i) == 1 and t.row_of(i + 1) == 2 and swapped(t, i, i + 1) in index:
                    expected.add((u, index[swapped(t, i, i + 1)]))
        first = set()
        for u, v in g.weights:
            (leaving,) = set(g.vertices[u].rows[0]) - set(g.vertices[v].rows[0])
            (entering,) = set(g.vertices[v].rows[0]) - set(g.vertices[u].rows[0])
            if entering == leaving + 1:
                first.add((u, v))
        assert first == expected


def _moves_oracle(shape):
    """Every first-kind i and every second-kind candidate (i, j), tried one by one."""
    n = shape.n
    vertices = enumerate_rsyt(shape)
    index = {t: k for k, t in enumerate(vertices)}
    moves = []
    for src, s in enumerate(vertices):
        for i in range(1, n + 1):
            t = first_kind_target(s, i)
            if t is not None:
                moves.append(Move("first", i, mo(i + 1, n), src, index[t]))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                try:
                    valid = second_kind_valid(s, i, j)
                except ValueError:  # not a second-kind candidate
                    continue
                if valid:
                    moves.append(Move("second", i, j, src, index[swapped(s, mo(i, n), mo(j, n))]))
    return moves


def test_enumerate_moves_matches_candidate_oracle():
    for shape in two_row_shapes(3, 9):
        assert enumerate_moves(shape) == _moves_oracle(shape)


def test_dual_equiv_matches_all_pairs_knuth_scan():
    for shape in two_row_shapes(3, 8):
        vertices = enumerate_rsyt(shape)
        expected = {}
        for u in range(len(vertices)):
            for v in range(u + 1, len(vertices)):
                if is_knuth_move(vertices[u], vertices[v]):
                    expected[(u, v)] = 1
                    expected[(v, u)] = 1
        weights = build_dual_equiv(shape).weights
        assert weights == expected
        assert list(weights) == sorted(expected)


def test_builders_byte_identical():
    # pins the JSON and DOT exports and the move lists for n <= 10 byte for byte
    affine, dual, moves = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for shape in two_row_shapes(3, 10):
        for digest, g in ((affine, build_affine_graph(shape)), (dual, build_dual_equiv(shape))):
            digest.update((json.dumps(graph_to_json(g), indent=1, sort_keys=True) + "\n").encode())
            digest.update(graph_to_dot(g).encode())
        moves.update(repr(enumerate_moves(shape)).encode())
    assert affine.hexdigest() == "3f25d6a52832e1502a7f1602133ead8ff0038e4079cb931152445aa0aa6f60d2"
    assert dual.hexdigest() == "dfef95500c3240fcbd03915ba63bba758735fadb472d0ae39acf512c5a59ebb0"
    assert moves.hexdigest() == "46da4ce8ce58142d15ab9671943e071e0d8537d40248c3117b61a52dc2031b4e"


def _knuth_targets_oracle(shape):
    """
    The Knuth move targets of each tableau of the shape, sorted, by the rule
    of is_knuth_move (a swap of mo(i) and mo(i+1) from different rows that
    leaves incomparable affine descent sets), read from the tableaux' rows.
    """
    n = shape.n
    vertices = enumerate_rsyt(shape)
    index = {t: k for k, t in enumerate(vertices)}
    descents = [affine_descents(t) for t in vertices]
    rows = []
    for u, t in enumerate(vertices):
        targets = []
        for x, y in ((mo(i, n), mo(i + 1, n)) for i in range(1, n + 1)):
            if t.row_of(x) != t.row_of(y):
                v = index[swapped(t, x, y)]
                if not (descents[u] <= descents[v] or descents[v] <= descents[u]):
                    targets.append(v)
        rows.append(sorted(targets))
    return rows


@pytest.mark.parametrize("shape", [Partition((3, 3)), Partition((4, 4)), *two_row_shapes(11, 14)], ids=str)
def test_orbit_built_graph_equals_the_per_vertex_one(shape):
    # both builders run their move kernel at the least vertex of each shift
    # orbit and carry its row round the orbit; run at every vertex, the
    # affine kernel gives the same edges in the same order, and so does a
    # Knuth scan on the tableaux, so the moves turn with the shift (n <= 10
    # is pinned byte for byte above; in (3,3) and (4,4) the masks 010101 and
    # 00110011 lie on orbits shorter than n)
    by_source: dict[int, list[int]] = {}
    for move in enumerate_moves(shape):
        by_source.setdefault(move.source, []).append(move.target)
    expected = [((src, dst), 1) for src in sorted(by_source) for dst in sorted(by_source[src])]
    assert list(build_affine_graph(shape).weights.items()) == expected
    knuth = _knuth_targets_oracle(shape)
    expected = [((src, dst), 1) for src, targets in enumerate(knuth) for dst in targets]
    assert list(build_dual_equiv(shape).weights.items()) == expected


@pytest.mark.parametrize(("build", "kernel"), [(build_affine_graph, "_moves"), (build_dual_equiv, "_knuth_moves")])
def test_builders_run_their_moves_once_per_orbit(monkeypatch, build, kernel):
    # the moves run at the least vertex of each orbit of the shift, and
    # nowhere else: the rest of each row is carried round the orbit
    original, ran = getattr(tworow, kernel), []

    def counted(m, n):
        ran.append(m)
        return original(m, n)

    monkeypatch.setattr(tworow, kernel, counted)
    for shape in (Partition((3, 3)), Partition((4, 4)), Partition((5, 3)), Partition((6, 6))):
        ran.clear()
        g = build(shape)
        masks = g.row_codes()[1]
        assert ran == [masks[k] for k in g.shift_orbit_representatives], shape


def _builder_graphs(shape):
    graphs = {
        "affine": build_affine_graph(shape),
        "dual-equiv": build_dual_equiv(shape),
        "finite": build_finite_graph(shape),
    }
    if shape.is_equal_row:
        graphs.update((f"p={p}", build_equal_variant(shape, p)) for p in (0, 2))
    return graphs


# what a graph derives and keeps on itself when a check first reads it (its
# out-edge rows, adjacency, are held from where it is made)
DERIVED = {"shift_automorphism", "shift_orbit_representatives"}


@pytest.mark.parametrize("shape", two_row_shapes(3, 10), ids=str)
def test_builders_hand_over_well_formed_fields(shape):
    # the builders skip the constructor's copy and checks, so their fields
    # must be what the checked constructor would have made of them; and they
    # hand over no derived value, so verify derives the shift's vertex
    # permutation from the vertices (their row codes), never from the affine builder's rotation
    graphs = _builder_graphs(shape)
    for name, g in graphs.items():
        assert not DERIVED & vars(g).keys(), name
        rebuilt = LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, dict(g.weights))
        assert g == rebuilt and list(g.weights.items()) == list(rebuilt.weights.items()), name
        assert (type(g.n), type(g.index_set), type(g.vertices), type(g.tau)) == (int, frozenset, tuple, tuple)
        assert all(type(i) is int for i in g.index_set)
        assert all(type(t) is RowStandardTableau for t in g.vertices)
        assert all(type(t) is frozenset and all(type(i) is int for i in t) for t in g.tau)
        # the weights are a read-only view over the rows, which are tuples
        assert type(g.weights) is EdgeWeights and len(g.weights) == sum(map(len, g.adjacency))
        assert type(g.adjacency) is tuple and all(type(row) is tuple for row in g.adjacency)
        # one pair object per (target, weight), in the built and the checked graph alike
        for h in (g, rebuilt):
            pairs = [e for row in h.adjacency for e in row]
            assert len(set(map(id, pairs))) == len(set(pairs)), name
        assert all(type(u) is type(v) is type(w) is int for (u, v), w in g.weights.items())
        with pytest.raises(TypeError):
            g.weights[(0, 0)] = 1
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g and list(clone.weights.items()) == list(g.weights.items()), name
    # a derived value is kept on the graph once it is read
    assert graphs["affine"].shift_automorphism is not None and "shift_automorphism" in vars(graphs["affine"])


@pytest.mark.parametrize("shape", two_row_shapes(3, 10), ids=str)
def test_graphs_hold_one_label_object_per_distinct_label(shape):
    # a label recurs at many vertices: the builders and the checking
    # constructor hold one frozenset per distinct label, and a restriction at
    # most one per distinct label of its parent
    for name, g in _builder_graphs(shape).items():
        loaded = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
        for h in (g, loaded):
            assert len(set(map(id, h.tau))) == len(set(h.tau)), name
        restricted = restrict_parabolic(g, range(1, g.n))
        assert len(set(map(id, restricted.tau))) <= len(set(g.tau)), name


def test_finite_builder_byte_identical():
    # pins the JSON and DOT exports of the finite graphs for n <= 10 byte for byte
    digest = hashlib.sha256()
    for shape in two_row_shapes(3, 10):
        g = build_finite_graph(shape)
        digest.update((json.dumps(graph_to_json(g), indent=1, sort_keys=True) + "\n").encode())
        digest.update(graph_to_dot(g).encode())
    assert digest.hexdigest() == "622d412b7206bcf7af181e579f3d4f2fd44bbc0f1f2db599ae9c4ebee1aa8c09"


def _literal_second_kind_ok(row1, row2, i: int, j: int, n: int) -> bool:
    """Conditions (a)-(e) as stated: both rows, every window a pint interval."""
    d = mo(j - i, n)
    # (a) cyclic distance from i to j is odd
    if d % 2 == 0:
        return False
    # (b)
    if mo(i + 1, n) not in row1 or mo(j - 1, n) not in row2:
        return False
    # (c)
    if mo(i - 1, n) not in row1 and mo(j + 1, n) not in row2:
        return False
    # (d)
    for k in range(1, (d - 3) // 2 + 1):
        window = pint(mo(j - 1 - 2 * k, n), mo(j - 2, n), n)
        if len(row2 & window) < k:
            return False
    # (e); for d == 3 the interval is empty by the pint convention
    if mo(j, n) != mo(i + 1, n):
        window = pint(mo(i + 2, n), mo(j - 2, n), n)
        if len(row2 & window) != (d - 3) // 2:
            return False
    return True


def _literal_finite_second_kind_valid(s: RowStandardTableau, i: int, j: int) -> bool:
    """Non-cyclic conditions (a)-(e) as stated: both rows, plain intervals, 1 < i < j <= n."""
    n = s.n
    row1, row2 = set(s.rows[0]), set(s.rows[1])
    if not (1 < i < j <= n) or (j - i) % 2 == 0:
        return False
    if i not in row2 or j not in row1:
        return False
    if i + 1 not in row1 or j - 1 not in row2:
        return False
    # j+1 is not in row 2 by convention when j = n
    if i - 1 not in row1 and (j == n or j + 1 not in row2):
        return False
    for m in range(1, (j - i - 3) // 2 + 1):
        if sum(1 for e in row2 if j - 1 - 2 * m <= e <= j - 2) < m:
            return False
    if j != i + 1:
        if sum(1 for e in row2 if i + 2 <= e <= j - 2) != (j - i - 3) // 2:
            return False
    return True


def test_second_kind_gates_match_literal_oracles():
    # every candidate (i in row 2, j in row 1) of every row-standard tableau, n <= 12
    valid = Counter()
    for shape in two_row_shapes(3, 12):
        n = shape.n
        for s in enumerate_rsyt(shape):
            row1, row2 = set(s.rows[0]), set(s.rows[1])
            for i in s.rows[1]:
                for j in s.rows[0]:
                    if i != mo(j + 1, n):
                        affine = second_kind_valid(s, i, j)
                        assert affine == _literal_second_kind_ok(row1, row2, i, j, n), (s, i, j)
                        valid["affine", affine] += 1
                    finite = _finite_second_kind_valid(sum(1 << (e - 1) for e in row2), i, j)
                    assert finite == _literal_finite_second_kind_valid(s, i, j), (s, i, j)
                    valid["finite", finite] += 1
    # both gates accept and reject somewhere
    assert all(valid[kind, verdict] for kind in ("affine", "finite") for verdict in (True, False))


# the two-row builders hand over the row-2 masks of their vertices: a graph
# makes its tableaux from them when it first reads them, and a graph derived
# from it holds the same masks and makes its own tableaux alike


@pytest.fixture
def made(monkeypatch):
    """The rows of each RowStandardTableau made, by the checking constructor or by _trusted."""
    made = []
    init, trusted = RowStandardTableau.__init__, RowStandardTableau._trusted.__func__

    def counted_init(self, rows):
        made.append(rows)
        init(self, rows)

    def counted_trusted(cls, rows):
        made.append(rows)
        return trusted(cls, rows)

    monkeypatch.setattr(RowStandardTableau, "__init__", counted_init)
    monkeypatch.setattr(RowStandardTableau, "_trusted", classmethod(counted_trusted))
    return made


def test_building_and_verifying_makes_no_tableau(made):
    g = build_affine_graph(Partition((6, 6)))
    reports = check_all_rules(g) + [check_hecke_relations(g)]
    assert all(r.passed for r in reports) and g.shift_automorphism is not None
    assert made == [] and "vertices" not in vars(g)
    # made in one pass on first read, and never again
    assert len(g.vertices) == 924 and len(made) == 924
    assert g.vertices is g.vertices and len(made) == 924


def _without_first_edge(g):
    """A single-edge deletion, as the mutation check of regress makes it: one row replaced, the others shared."""
    u = next(u for u, row in enumerate(g.adjacency) if row)
    return g._derived(g.index_set, g.tau, g.adjacency[:u] + (g.adjacency[u][1:],) + g.adjacency[u + 1:])


DERIVED_GRAPHS = {
    "restriction": lambda g: restrict_parabolic(g, range(1, g.n)),
    "simple underlying": simple_underlying,
    "single-edge deletion": _without_first_edge,
}


@pytest.mark.parametrize("parent_first", [True, False], ids=["parent first", "derived first"])
@pytest.mark.parametrize("derive", DERIVED_GRAPHS.values(), ids=DERIVED_GRAPHS.keys())
@pytest.mark.parametrize("build", [build_affine_graph, build_dual_equiv], ids=["affine", "dual-equiv"])
def test_derived_graphs_read_the_parents_tableaux(made, build, derive, parent_first):
    # no tableau until a graph reads its vertices, then one per vertex, and
    # the derived graph's are equal to the parent's
    g = build(Partition((4, 3)))
    h = derive(g)
    assert made == []
    first, second = (g, h) if parent_first else (h, g)
    assert len(first.vertices) == len(made) == 35
    assert len(second.vertices) == 35 and len(made) == 70
    assert h.vertices == g.vertices


def test_cells_share_the_parents_tableaux_only_once_made(made):
    # the cells of a graph that holds only row codes hold only theirs; once
    # the parent has made its tableaux, each cell holds the same objects
    g = build_affine_graph(Partition((5, 5)))
    assert all("vertices" not in vars(cell) for cell in cells(g)) and made == []
    vertices = g.vertices
    for cell, ids in zip(cells(g), _scc_partition(g), strict=True):
        assert all(t is vertices[k] for t, k in zip(cell.vertices, sorted(ids), strict=True))
    assert len(made) == 252


@pytest.mark.parametrize("p", [0, 2])
def test_equal_variant_reads_its_affine_graphs_tableaux(made, monkeypatch, p):
    parents = []

    def kept(shape):
        parents.append(build_affine_graph(shape))
        return parents[-1]

    monkeypatch.setattr(tworow, "build_affine_graph", kept)
    variant = build_equal_variant(Partition((3, 3)), p)
    assert made == []
    assert len(variant.vertices) == len(made) == 20
    assert variant.vertices == parents[0].vertices and len(made) == 40


def test_mutation_check_makes_no_tableau(made):
    silent, total = check_mutation_sensitivity(_Shape(Partition((4, 2)), build_finite_graph))
    assert silent == [] and total > 0 and made == []


def test_comparing_with_a_fixture_makes_no_tableau_for_the_built_graph(made):
    fixture = load_fixture("gamma_3_2")
    assert len(made) == 10
    g = build_affine_graph(Partition((3, 2)))
    assert g == fixture and fixture == g
    assert len(made) == 10 and "vertices" not in vars(g)


# the most tableaux each command may make: verify reads no vertex, regress
# and cells read the vertices for rsk (which makes the insertion tableaux),
# and cells prints them
MADE_AT_MOST = {
    "verify 7 6": 0,
    "regress --max-n 10": 5942,
    "cells 6 6 --restrict 1..11": 1848,
}


@pytest.mark.parametrize("command", MADE_AT_MOST)
def test_commands_make_at_most_their_tableaux(made, capsys, command):
    assert main(command.split()) == 0
    assert capsys.readouterr().out
    assert len(made) <= MADE_AT_MOST[command]


@pytest.mark.parametrize("shape", two_row_shapes(3, 12), ids=str)
def test_mask_held_vertices_are_the_enumeration(shape):
    tableaux = enumerate_rsyt(shape)
    for g in (build_affine_graph(shape), build_dual_equiv(shape)):
        # the masks the graph holds are the row codes of the enumeration
        assert g.row_codes() == row_codes(tableaux) and "vertices" not in vars(g)
        assert list(g.vertices) == tableaux


MASK_HELD = {
    "affine": lambda: build_affine_graph(Partition((4, 3))),
    "dual-equiv": lambda: build_dual_equiv(Partition((4, 3))),
    "p=0": lambda: build_equal_variant(Partition((3, 3)), 0),
    "p=2": lambda: build_equal_variant(Partition((3, 3)), 2),
}


def test_built_graph_holds_at_most_100_bytes_per_edge():
    # the out-edge rows are the one edge store: reading adjacency makes
    # nothing, and the rows, their shared pairs, the row codes and the
    # labels come to about 41 B per edge at (7,6) (192 B when the weights
    # were a (src, dst)-keyed dict and adjacency a second copy of the edges)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = build_affine_graph(Partition((7, 6)))
        g.adjacency
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(g.weights) == 13572 and held <= 100 * len(g.weights), held / len(g.weights)


COPIES = {"pickle": lambda g: pickle.loads(pickle.dumps(g)), "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("fresh", MASK_HELD.values(), ids=MASK_HELD.keys())
def test_mask_held_graph_behaves_as_rebuilt(made, fresh):
    # each fresh() is a graph that has not read its vertices yet
    g = fresh()
    rebuilt = LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, dict(g.weights))
    assert fresh() == rebuilt and rebuilt == fresh()
    assert repr(fresh()) == repr(rebuilt)
    assert pickle.dumps(fresh()) == pickle.dumps(rebuilt)
    for copy_of in COPIES.values():
        for graph in (fresh(), rebuilt):
            # no tableau is made until the clone reads its vertices; the clone is equal
            before = len(made)
            clone = copy_of(graph)
            assert type(clone) is LabeledWGraph and len(made) == before
            assert clone == rebuilt and list(clone.weights.items()) == list(rebuilt.weights.items())
            assert clone.vertices == rebuilt.vertices
    for graph in (fresh(), rebuilt):
        with pytest.raises(TypeError, match="unhashable type: 'EdgeWeights'"):
            hash(graph)


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES.keys())
def test_copying_a_built_graph_makes_no_tableau(made, copy_of):
    # a graph is rebuilt from its row codes and rows, not from its tableaux
    g = build_affine_graph(Partition((6, 6)))
    clone = copy_of(g)
    assert made == [] and clone == g
    assert len(pickle.dumps(g)) < 108112  # the size when a graph was pickled through its tableaux
