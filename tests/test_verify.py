import functools
import hashlib
import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affwgraph.verify as verify
from affwgraph import (
    LabeledWGraph,
    Partition,
    RowStandardTableau,
    build_affine_graph,
    build_dual_equiv,
    build_equal_variant,
    build_finite_graph,
    check_all_rules,
    check_bonding,
    check_compatibility,
    check_hecke_relations,
    check_polygon,
    check_simplicity,
    classify_restriction_cells,
    finsh,
    restrict_parabolic,
)
from affwgraph.verify import CellMismatchError, _restriction_fibers, hecke_holds, rules_hold
from affwgraph.wgraph import _scc_partition, dynkin_adjacent, full_subgraph, is_nb_admissible, is_reduced

from conftest import all_partitions, bench_size_damaged_graphs, count_ssyt, dominance_leq, exactly, two_row_shapes
from hecke_oracle import ONE, Q, V, ZERO, laurent_matrices, lp_monomial


@pytest.fixture(scope="module")
def g32():
    return build_affine_graph(Partition((3, 2)))


def _with_edge(g, src_rows, dst_rows, w=1):
    index = {t.rows: k for k, t in enumerate(g.vertices)}
    weights = dict(g.weights)
    weights[(index[src_rows], index[dst_rows])] = w
    return LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights)


def _without_edge(g, edge):
    weights = dict(g.weights)
    del weights[edge]
    return LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights)


WEIGHTS = (1, -1, 2, 3, 10**9, -(10**9))


@functools.cache
def _base_graph(parts):
    return build_affine_graph(Partition(parts))


@st.composite
def damaged_graphs(draw):
    """A small affine graph with up to 3 edges deleted and up to 3 re-weighted."""
    g = _base_graph(draw(st.sampled_from(((3, 2), (4, 2), (3, 3)))))
    deleted = draw(st.sets(st.sampled_from(sorted(g.weights)), max_size=3))
    weights = {e: w for e, w in g.weights.items() if e not in deleted}
    weights.update(
        draw(st.dictionaries(st.sampled_from(sorted(weights)), st.sampled_from(WEIGHTS), max_size=3))
    )
    return LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights)


@st.composite
def grown_graphs(draw):
    """
    A small affine graph with 1 to 3 mutual weight-1 pairs added, so a
    vertex can have more than one mutual partner.
    """
    g = _base_graph(draw(st.sampled_from(((3, 2), (4, 2), (3, 3)))))
    pairs = itertools.combinations(range(len(g.vertices)), 2)
    added = draw(st.sets(st.sampled_from(list(pairs)), min_size=1, max_size=3))
    weights = dict(g.weights)
    weights.update(((u, v), 1) for pair in added for u, v in (pair, pair[::-1]))
    return LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights)


FOUR_ENTRY_TABLEAUX = tuple(
    RowStandardTableau((row, tuple(sorted({1, 2, 3, 4} - set(row)))))
    for row in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
)


@st.composite
def three_generator_graphs(draw):
    """
    4-6 vertices of shape (2,2) on the finite index set {1, 2, 3} (one
    commuting pair, two adjacent ones) with any tau labels and weights, so
    every case of the relation kernel occurs, i and j both in tau(u) for an
    adjacent pair included (two-row affine graphs never have that).
    """
    count = draw(st.integers(4, 6))
    tau = draw(st.lists(st.frozensets(st.sampled_from((1, 2, 3))), min_size=count, max_size=count))
    weights = draw(
        st.dictionaries(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
            st.sampled_from(WEIGHTS),
            max_size=12,
        )
    )
    return LabeledWGraph(4, frozenset({1, 2, 3}), FOUR_ENTRY_TABLEAUX[:count], tuple(tau), weights)


def _times(matrix, x):
    """The dense LaurentPoly matrix times the vector x."""
    out = [ZERO] * len(x)
    for k, xk in enumerate(x):
        if xk:
            for w in range(len(x)):
                if matrix[w][k]:
                    out[w] = out[w] + matrix[w][k] * xk
    return out


def _oracle_hecke_witnesses(g):
    """The relations applied to each basis vector with the dense LaurentPoly matrices."""
    count = len(g.vertices)
    matrices = laurent_matrices(g)
    generators = sorted(g.index_set)
    witnesses = []
    for u in range(count):
        e = [ONE if k == u else ZERO for k in range(count)]
        for i in generators:
            te = _times(matrices[i], e)
            residual = [
                a + (ONE - Q) * b - Q * c for a, b, c in zip(_times(matrices[i], te), te, e)
            ]
            if any(residual):
                witnesses.append(("quadratic", i, i, u))
        for x, i in enumerate(generators):
            for j in generators[x + 1:]:
                ti, tj = matrices[i], matrices[j]
                if dynkin_adjacent(g, i, j):
                    relation = "braid"
                    left = _times(ti, _times(tj, _times(ti, e)))
                    right = _times(tj, _times(ti, _times(tj, e)))
                else:
                    relation = "commutation"
                    left = _times(ti, _times(tj, e))
                    right = _times(tj, _times(ti, e))
                if left != right:
                    witnesses.append((relation, i, j, u))
    return sorted(witnesses)


def _brute_force_bonding(g):
    """The bonding rule as defined: every vertex is a candidate partner."""
    count = len(g.vertices)
    witnesses = []
    for a in g.index_set:
        for b in g.index_set:
            if a == b or not dynkin_adjacent(g, a, b):
                continue
            for u in range(count):
                if a in g.tau[u] and b not in g.tau[u]:
                    partners = sum(
                        1
                        for v in range(count)
                        if b in g.tau[v] and a not in g.tau[v] and (u, v) in g.weights and (v, u) in g.weights
                    )
                    if partners != 1:
                        witnesses.append((u, a, b, partners))
    return sorted(witnesses)


def _brute_force_polygon(g):
    """The polygon rule as stated: every source against every sink, through every middle vertex."""
    count = len(g.vertices)

    def m(u, v):
        return g.weights.get((u, v), 0)

    generators = sorted(g.index_set)
    witnesses = []
    for x, i in enumerate(generators):
        for j in generators[x + 1:]:
            v_ij = [w for w in range(count) if i in g.tau[w] and j not in g.tau[w]]
            v_ji = [w for w in range(count) if j in g.tau[w] and i not in g.tau[w]]
            for u in range(count):
                if i not in g.tau[u] or j not in g.tau[u]:
                    continue
                for v in range(count):
                    if i in g.tau[v] or j in g.tau[v]:
                        continue
                    lhs = sum(m(u, w) * m(w, v) for w in v_ij)
                    rhs = sum(m(u, w) * m(w, v) for w in v_ji)
                    if lhs != rhs:
                        witnesses.append((u, v, i, j, 2, lhs, rhs))
                    if dynkin_adjacent(g, i, j):
                        lhs = sum(m(u, a) * m(a, b) * m(b, v) for a in v_ij for b in v_ji)
                        rhs = sum(m(u, a) * m(a, b) * m(b, v) for a in v_ji for b in v_ij)
                        if lhs != rhs:
                            witnesses.append((u, v, i, j, 3, lhs, rhs))
    return sorted(witnesses)


def _full_scan_compatibility(g):
    """check_compatibility as one scan of every edge, before the orbit reduction."""
    witnesses = []
    for (u, v) in g.weights:
        for i in g.tau[u] - g.tau[v]:
            for j in g.tau[v] - g.tau[u]:
                if not dynkin_adjacent(g, i, j):
                    witnesses.append((u, v, i, j))
    return sorted(witnesses)


def _full_scan_simplicity(g):
    """check_simplicity as one scan of every edge, before the orbit reduction."""
    witnesses = []
    for (u, v), w in g.weights.items():
        tu, tv = g.tau[u], g.tau[v]
        if tu > tv:
            if g.weights.get((v, u), 0) != 0:
                witnesses.append((u, v))
        elif not (tu <= tv or tv <= tu):
            if w != 1 or g.weights.get((v, u), 0) != 1:
                witnesses.append((u, v))
        else:
            witnesses.append((u, v))  # tau(u) <= tau(v): not even reduced
    return sorted(witnesses)


EDGE_RULES = {
    "compatibility": (check_compatibility, _full_scan_compatibility),
    "simplicity": (check_simplicity, _full_scan_simplicity),
}


@st.composite
def chain_draws(draw):
    """
    Labels and weights of the 4-vertex chain of TestPolygonPathCounts.  In
    about half the draws the labels are a source 0, V_{1/2} = {1}, V_{2/1} =
    {2} and a sink 3, and the path 0 -> 1 -> 2 -> 3 is planted with nonzero
    weights, so that the 3-step sum at the sink has a nonzero term; any
    other edge may join it.
    """
    weight = st.sampled_from((1, -1, 2, 3, 5))
    tau_by_vertex = draw(st.lists(st.sets(st.sampled_from((1, 2))), min_size=4, max_size=4))
    weights = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), weight, max_size=16))
    if draw(st.booleans()):
        tau_by_vertex = [{1, 2}, {1}, {2}, set()]
        for edge in ((0, 1), (1, 2), (2, 3)):
            weights[edge] = draw(weight)
    return tau_by_vertex, weights


class TestCompatibility:
    def test_passes(self, g32):
        assert check_compatibility(g32).passed

    def test_triangle_always_adjacent(self):
        assert check_compatibility(build_affine_graph(Partition((2, 1)))).passed

    def test_fabricated_edge_fails(self, g32):
        # tau {3} against tau {1}: residues 3 and 1 are not adjacent at n=5
        bad = _with_edge(g32, ((1, 2, 3), (4, 5)), ((1, 4, 5), (2, 3)))
        report = check_compatibility(bad)
        assert not report.passed
        assert any(w[2:] == (3, 1) for w in report.witnesses)


class TestSimplicity:
    def test_passes(self):
        assert check_simplicity(build_affine_graph(Partition((4, 2)))).passed

    def test_weight_two_mutual_edge_fails(self, g32):
        mutual = next((u, v) for (u, v) in g32.weights if (v, u) in g32.weights)
        weights = dict(g32.weights)
        weights[mutual] = 2
        bad = LabeledWGraph(g32.n, g32.index_set, g32.vertices, g32.tau, weights)
        assert not check_simplicity(bad).passed

    def test_edgeless_passes(self, g32):
        empty = LabeledWGraph(g32.n, g32.index_set, g32.vertices, g32.tau, {})
        assert check_simplicity(empty).passed


class TestBonding:
    def test_passes(self, g32):
        assert check_bonding(g32).passed

    def test_dual_equiv_passes(self):
        assert check_bonding(build_dual_equiv(Partition((3, 3)))).passed

    def test_deleted_mutual_edge_fails(self, g32):
        mutual = next((u, v) for (u, v) in sorted(g32.weights) if (v, u) in g32.weights)
        bad = _without_edge(_without_edge(g32, mutual), (mutual[1], mutual[0]))
        assert not check_bonding(bad).passed

    @settings(max_examples=40, deadline=None)
    @given(damaged_graphs())
    def test_matches_brute_force(self, g):
        assert list(check_bonding(g).witnesses) == _brute_force_bonding(g)

    @settings(max_examples=40, deadline=None)
    @given(grown_graphs())
    def test_matches_brute_force_with_added_pairs(self, g):
        assert list(check_bonding(g).witnesses) == _brute_force_bonding(g)

    def test_second_partner_fails(self, g32):
        # u in V_{a/b} keeps its one mutual partner and gains a second one
        tau = g32.tau
        u, a, b, v = next(
            (u, a, b, v)
            for u, v in itertools.permutations(range(len(tau)), 2)
            for a, b in itertools.permutations(sorted(g32.index_set), 2)
            if dynkin_adjacent(g32, a, b) and a in tau[u] - tau[v] and b in tau[v] - tau[u]
            and (u, v) not in g32.weights and (v, u) not in g32.weights
        )
        weights = {**g32.weights, (u, v): 1, (v, u): 1}
        grown = LabeledWGraph(g32.n, g32.index_set, g32.vertices, tau, weights)
        witnesses = check_bonding(grown).witnesses
        assert (u, a, b, 2) in witnesses
        assert list(witnesses) == _brute_force_bonding(grown)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sets(st.sampled_from((1, 2))), min_size=4, max_size=4),
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.just(1), max_size=16),
    )
    def test_chain_matches_brute_force(self, tau_by_vertex, weights):
        # any labels, so a mutual neighbour of u in V_{1/2} can have both 1
        # and 2 in tau (never in a two-row graph), and is then no partner
        g = TestPolygonPathCounts._chain(tau_by_vertex, weights)
        assert list(check_bonding(g).witnesses) == _brute_force_bonding(g)


class TestPolygon:
    def test_passes(self, g32):
        assert check_polygon(g32).passed

    def test_adjacent_pairs_vacuous_for_two_rows(self, g32):
        # no vertex carries two cyclically adjacent residues, so every
        # adjacent pair has no sources and contributes nothing
        n = g32.n
        for u in range(len(g32.vertices)):
            tau = g32.tau[u]
            assert not any(i in tau and (i % n) + 1 in tau for i in range(1, n + 1))

    def test_deleted_arrow_fails(self, g32):
        one_way = next(
            (u, v) for (u, v) in sorted(g32.weights) if (v, u) not in g32.weights
        )
        report = check_polygon(_without_edge(g32, one_way))
        assert not report.passed
        assert report.witnesses  # carries (u, v, i, j, r, lhs, rhs) tuples


class TestPolygonPathCounts:
    """Synthetic graphs pin the two- and three-step path arithmetic."""

    @staticmethod
    def _chain(tau_by_vertex, weights):
        # four tableaux of one shape; only tau and the weights matter here
        vertices = (
            RowStandardTableau(((1,), (2,), (3,))),
            RowStandardTableau(((1,), (3,), (2,))),
            RowStandardTableau(((2,), (1,), (3,))),
            RowStandardTableau(((2,), (3,), (1,))),
        )
        return LabeledWGraph(
            n=3,
            index_set=frozenset({1, 2}),  # finite: 1 and 2 adjacent
            vertices=vertices,
            tau=tuple(frozenset(s) for s in tau_by_vertex),
            weights=weights,
        )

    def test_two_step_imbalance_detected(self):
        # u -> a -> v with a in V_{1/2}; nothing through V_{2/1}
        g = self._chain(
            tau_by_vertex=({1, 2}, {1}, {2}, set()),
            weights={(0, 1): 1, (1, 3): 1},
        )
        report = check_polygon(g)
        assert (0, 3, 1, 2, 2, 1, 0) in report.witnesses

    def test_three_step_products_detected(self):
        # u -> w1 -> w2 -> v routes V_{1/2} then V_{2/1}: 2*3*5 = 30
        g = self._chain(
            tau_by_vertex=({1, 2}, {1}, {2}, set()),
            weights={(0, 1): 2, (1, 2): 3, (2, 3): 5},
        )
        report = check_polygon(g)
        assert (0, 3, 1, 2, 3, 30, 0) in report.witnesses

    def test_balanced_paths_pass(self):
        # symmetric routes: both N2 counts are 1, both N3 counts are 1
        g = self._chain(
            tau_by_vertex=({1, 2}, {1}, {2}, set()),
            weights={(0, 1): 1, (1, 3): 1, (0, 2): 1, (2, 3): 1, (1, 2): 1, (2, 1): 1},
        )
        assert check_polygon(g).passed

    @settings(max_examples=40, deadline=None)
    @given(damaged_graphs())
    def test_matches_brute_force(self, g):
        assert list(check_polygon(g).witnesses) == _brute_force_polygon(g)

    @settings(max_examples=200, deadline=None)
    @given(chain_draws())
    def test_chain_matches_brute_force(self, draw):
        # finite index set {1, 2}: the only pair is adjacent, so N^3 is compared
        g = self._chain(*draw)
        assert list(check_polygon(g).witnesses) == _brute_force_polygon(g)


class TestPolygonComparesOnlySinks:
    """
    The rule compares path sums at the sinks only: sums elsewhere are never
    compared, and a sum that cancels counts as absent.  On the chain, vertex
    0 is the source of the pair (1, 2) and 3 the sink.
    """

    @staticmethod
    def _witnesses(tau_by_vertex, weights):
        g = TestPolygonPathCounts._chain(tau_by_vertex, weights)
        witnesses = list(check_polygon(g).witnesses)
        assert witnesses == _brute_force_polygon(g)
        return witnesses

    def test_cancelled_sum_is_no_witness(self):
        # 1 and 2 both lie in V_{1/2}: 1 * 1 + 1 * -1 = 0 at the sink, which
        # V_{2/1} (empty) never reaches
        weights = {(0, 1): 1, (1, 3): 1, (0, 2): 1, (2, 3): -1}
        assert self._witnesses(({1, 2}, {1}, {1}, set()), weights) == []

    def test_sums_off_the_sinks_are_not_compared(self):
        # 1 lies in V_{1/2}, 2 in V_{2/1}.  The 2-step sums differ at 0 (5
        # against 0), at 2 (1 against 0) and at 1 (0 against 1), each flagged
        # for 1 or 2; at the sink both 2-step and both 3-step sums are 1
        weights = {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): 1, (1, 0): 5, (1, 2): 1, (2, 1): 1}
        assert self._witnesses(({1, 2}, {1}, {2}, set()), weights) == []

    THREE_STEP_ONLY = {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): 1, (1, 2): 1}

    def test_three_step_differs_where_two_step_agrees(self):
        # both 2-step sums at the sink are 1; only 0 -> 1 -> 2 -> 3 runs
        # through V_{1/2} then V_{2/1}
        assert self._witnesses(({1, 2}, {1}, {2}, set()), self.THREE_STEP_ONLY) == [(0, 3, 1, 2, 3, 1, 0)]

    @staticmethod
    def _stored(monkeypatch, g) -> int:
        """
        The entries _step stores while check_polygon(g) runs, each checked
        to be a sink or, in the dict a 3-step reads, of the next middle class.
        """
        step = verify._step
        stored = []

        def counted(adj, vec, yes, no, onward=None):
            if onward is None:
                sinks = step(adj, vec, yes, no)
            else:
                before = len(onward)
                sinks = step(adj, vec, yes, no, onward)
                assert all(no[v] and not yes[v] for v in onward)
                stored.append(len(onward) - before)
            assert not any(yes[v] or no[v] for v in sinks)
            stored.append(len(sinks))
            return sinks

        monkeypatch.setattr(verify, "_step", counted)
        check_polygon(g)
        monkeypatch.setattr(verify, "_step", step)
        return sum(stored)

    # the entries the step kernel stored on (6,6) when it kept a sum at every
    # vertex a 2-step path reached
    STORED_AT_EVERY_REACHED_VERTEX = 12988

    def test_stores_only_sinks_and_next_middle_class(self, monkeypatch):
        # the chain's pair is adjacent: the sink 3 on each step, and 2 kept
        # for the 3-step on the left; no two-row graph has an adjacent source
        chain = TestPolygonPathCounts._chain(({1, 2}, {1}, {2}, set()), self.THREE_STEP_ONLY)
        assert self._stored(monkeypatch, chain) == 4
        assert 0 < self._stored(monkeypatch, _base_graph((6, 6))) < self.STORED_AT_EVERY_REACHED_VERTEX


class TestHecke:
    def test_matrix_of_inactive_generator_is_scalar(self):
        g = build_affine_graph(Partition((2, 1)))
        matrices = laurent_matrices(g)
        for i, matrix in matrices.items():
            for u in range(3):
                if i not in g.tau[u]:
                    assert matrix[u][u] == Q
                    assert all(matrix[w][u] == ZERO for w in range(3) if w != u)

    def test_triangle_column_expansion(self):
        g = build_affine_graph(Partition((2, 1)))
        index = {t.rows: k for k, t in enumerate(g.vertices)}
        u = index[((1, 2), (3,))]  # tau = {2}
        matrix = laurent_matrices(g)[2]
        assert matrix[u][u] == -ONE
        others = [index[((1, 3), (2,))], index[((2, 3), (1,))]]
        for w in others:
            assert matrix[w][u] == V

    def test_entry_range(self, g32):
        for matrix in laurent_matrices(g32).values():
            for row in matrix:
                for entry in row:
                    assert entry in (ZERO, Q, -ONE) or entry.coeffs.keys() == {1}

    def test_passes_on_affine_graphs(self, g32):
        assert check_hecke_relations(g32).passed

    def test_passes_on_variant(self):
        assert check_hecke_relations(build_equal_variant(Partition((3, 3)), 0)).passed

    def test_matrix_text_pinned(self):
        # str() of every entry for (3,2), (4,2), (3,3): public output, kept byte-identical
        text = repr([
            (parts, [
                (i, [[str(entry) for entry in row] for row in matrix])
                for i, matrix in sorted(laurent_matrices(_base_graph(parts)).items())
            ])
            for parts in ((3, 2), (4, 2), (3, 3))
        ])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "14658241923b050ff0e6ff554f98eb9ac119eaf424c92cec3433fd3c4e3af03f"
        )

    def test_deleted_edge_fails(self, g32):
        one_way = next(
            (u, v) for (u, v) in sorted(g32.weights) if (v, u) not in g32.weights
        )
        report = check_hecke_relations(_without_edge(g32, one_way))
        assert not report.passed
        assert report.witnesses
        assert all(w[0] in ("quadratic", "commutation", "braid") for w in report.witnesses)


def _laurent_column(u, col, count):
    """
    Column u of a generator matrix, read from its column col: q on the
    diagonal when col is None, and otherwise the -1 on the diagonal that
    activity implies, with v * m off it for each pair (w, m) of col.
    """
    column = [ZERO] * count
    if col is None:
        column[u] = Q
        return column
    column[u] = -ONE
    for w, m in col:
        assert w != u and column[w] == ZERO  # each row once, none on the diagonal
        column[w] = lp_monomial(m, 1)
    return column


# (2,2) tableaux on the finite index set {1, 2, 3}, with negative weights
# on edges that enter columns
NEGATIVE_WEIGHT_GRAPH = LabeledWGraph(
    4,
    frozenset({1, 2, 3}),
    FOUR_ENTRY_TABLEAUX[:5],
    (frozenset({1}), frozenset({2, 3}), frozenset(), frozenset({1, 2}), frozenset({3})),
    {(0, 1): -1, (0, 2): 2, (1, 0): -(10**9), (1, 2): 1, (3, 2): 3, (3, 4): -1, (4, 0): -2},
)


class TestColumnsMatchLaurentMatrices:
    """The integer columns of the relation check against the oracle built from tau and weights."""

    @staticmethod
    def _assert_agree(g):
        count = len(g.vertices)
        matrices = laurent_matrices(g)
        assert sorted(g.index_set) == sorted(matrices)
        for i in sorted(matrices):
            cols, active = verify._generator_columns(g.tau, g.adjacency, i)
            assert len(cols) == count
            assert active == [u for u in range(count) if i in g.tau[u]]
            for u, col in enumerate(cols):
                assert _laurent_column(u, col, count) == [row[u] for row in matrices[i]], (i, u)

    @pytest.mark.parametrize("shape", two_row_shapes(3, 8), ids=str)
    def test_affine_graphs(self, shape):
        self._assert_agree(build_affine_graph(shape))

    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("shape", [s for s in two_row_shapes(3, 8) if s.is_equal_row], ids=str)
    def test_equal_row_variants(self, shape, p):
        self._assert_agree(build_equal_variant(shape, p))

    def test_negative_weights(self):
        assert any(m < 0 for m in NEGATIVE_WEIGHT_GRAPH.weights.values())
        self._assert_agree(NEGATIVE_WEIGHT_GRAPH)


def _commuting_graph(tau_by_vertex, weights):
    """(2,2) tableaux on the finite index set {1, 3}, whose one pair commutes."""
    tau = tuple(frozenset(s) for s in tau_by_vertex)
    return LabeledWGraph(4, frozenset({1, 3}), FOUR_ENTRY_TABLEAUX[: len(tau)], tau, weights)


# one small graph per reduced form of the relation kernel (verify's module
# docstring): the relation, the pair, the number of its generators active at
# the two basis vertices, and a vertex whose residual is zero and one whose
# residual is nonzero
REDUCED_FORMS = {
    # zero: at 1 only 3 is active, and 1 is not in tau(2), 2 the one w of
    # out_3(1); nonzero: at 0 only 1 is active, and 3 is in tau(1)
    "commutation, one active": (
        lambda: _commuting_graph(({1}, {3}, set()), {(0, 1): 1, (1, 2): 1}),
        "commutation", (1, 3), 1, 1, 0,
    ),
    # zero: 3, where neither is active, drops out, and the paths 0 -> 1 -> 3
    # and 0 -> 2 -> 3 cancel between the two sums; nonzero: only 4 -> 1 -> 3
    "commutation, both active": (
        lambda: _commuting_graph(
            ({1, 3}, {1}, {3}, set(), {1, 3}),
            {(0, 1): 1, (0, 2): 1, (0, 3): 2, (1, 3): 1, (2, 3): 1, (4, 1): 1},
        ),
        "commutation", (1, 3), 2, 0, 4,
    ),
    # zero: a mutual weight-1 pair, where q (1 + q) e_0 cancels against the
    # diagonal at z = 0; nonzero: the pair 2, 3 with weights 2 and 1
    "braid, one active": (
        lambda: TestPolygonPathCounts._chain(({1}, {2}, {1}, {2}), {(0, 1): 1, (1, 0): 1, (2, 3): 2, (3, 2): 1}),
        "braid", (1, 2), 1, 0, 2,
    ),
    # zero: an edge into a vertex where neither is active; nonzero: an
    # edge into one where only 1 is active
    "braid, both active": (
        lambda: TestPolygonPathCounts._chain(({1, 2}, {1, 2}, set(), {1}), {(0, 2): 1, (1, 3): 1}),
        "braid", (1, 2), 2, 0, 1,
    ),
}


@pytest.mark.parametrize("make, relation, pair, active, zero, nonzero", REDUCED_FORMS.values(), ids=REDUCED_FORMS)
def test_each_reduced_form_matches_laurent_oracle(make, relation, pair, active, zero, nonzero):
    g = make()
    i, j = pair
    assert g.index_set == {i, j} and dynkin_adjacent(g, i, j) == (relation == "braid")
    assert len(g.tau[zero] & {i, j}) == len(g.tau[nonzero] & {i, j}) == active
    report = check_hecke_relations(g)
    assert list(report.witnesses) == _oracle_hecke_witnesses(g)
    assert (relation, i, j, zero) not in report.witnesses
    assert (relation, i, j, nonzero) in report.witnesses
    assert hecke_holds(g) == report.passed


def _braid_graph(tau_by_vertex, weights):
    """(2,2) tableaux on the finite index set {1, 2}, whose one pair is Dynkin adjacent."""
    tau = tuple(frozenset(s) for s in tau_by_vertex)
    return LabeledWGraph(4, frozenset({1, 2}), FOUR_ENTRY_TABLEAUX[: len(tau)], tau, weights)


# the parity split of the residual on e_u when only one generator of the pair
# is active at u (verify's module docstring): P_even A + P_odd B, with the
# vertex u and the parities of the powers of v in the residual: {0} when
# only A is nonzero, {1} when only B is.  Two such cases cannot occur.  In
# the braid form A = e_u - the sum of a_z e_z and B = -out_p(u) + the sum of
# a_z out_p(z), so A = 0 (a_u = 1, every other a_z = 0) forces B = 0.  In
# the commutation form every term of A comes through an r-active w, which
# puts its weight, nonzero, at w in B alone, so B = 0 forces A = 0.
PARITY_CASES = {
    # A = -e_2: the path 0 -> 1 -> 2 ends where out_1(2) is empty; B =
    # -e_1 + e_1 through the mutual pair 0, 1
    "braid, only A": (
        lambda: _braid_graph(({1}, {2}, {1}), {(0, 1): 1, (1, 0): 1, (1, 2): 1}),
        "braid", (1, 2), 0, {0},
    ),
    # the mutual pair 0, 1 cancels e_0 in A, and -out_1(0) in B, where 2 is
    # a w of out_1(0) at which 2 is not active
    "braid, zero": (
        lambda: _braid_graph(({1}, {2}, set()), {(0, 1): 1, (1, 0): 1, (0, 2): 5}),
        "braid", (1, 2), 0, set(),
    ),
    # B = e_1 + e_2; A = -(1 - 1) e_3 from the paths 0 -> 1 -> 3 and 0 -> 2 -> 3
    "commutation, only B": (
        lambda: _commuting_graph(({1}, {3}, {3}, set()), {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): -1}),
        "commutation", (1, 3), 0, {1},
    ),
    # the one w of out_1(0) has 3 not in its tau
    "commutation, zero": (
        lambda: _commuting_graph(({1}, set(), {3}), {(0, 1): 2, (2, 1): 1}),
        "commutation", (1, 3), 0, set(),
    ),
}


@pytest.mark.parametrize("make, relation, pair, u, parities", PARITY_CASES.values(), ids=PARITY_CASES)
def test_each_parity_part_matches_laurent_oracle(make, relation, pair, u, parities):
    g = make()
    i, j = pair
    assert g.index_set == {i, j} and dynkin_adjacent(g, i, j) == (relation == "braid")
    assert len(g.tau[u] & {i, j}) == 1
    # the parities of the powers of v in the oracle's residual on e_u
    ti, tj = (laurent_matrices(g)[k] for k in pair)
    e = [ONE if k == u else ZERO for k in range(len(g.vertices))]
    if relation == "braid":
        left, right = _times(ti, _times(tj, _times(ti, e))), _times(tj, _times(ti, _times(tj, e)))
    else:
        left, right = _times(ti, _times(tj, e)), _times(tj, _times(ti, e))
    assert {p % 2 for a, b in zip(left, right) for p in (a - b).coeffs} == parities
    report = check_hecke_relations(g)
    assert list(report.witnesses) == _oracle_hecke_witnesses(g)
    assert ((relation, i, j, u) in report.witnesses) == bool(parities)
    assert hecke_holds(g) == report.passed


def test_braid_both_active_on_the_regular_w_graph_of_s3():
    # the W-graph of the regular representation of S_3: e, s1, s2, s1s2,
    # s2s1 and w0, the one vertex where both generators are active, with tau
    # the left descents and weight 1 on every Bruhat cover, mutual between
    # incomparable labels and downwards otherwise
    edges = {(1, 0): 1, (2, 0): 1, (1, 4): 1, (4, 1): 1, (2, 3): 1, (3, 2): 1, (5, 3): 1, (5, 4): 1}
    tau = (set(), {1}, {2}, {1}, {2}, {1, 2})
    g = _braid_graph(tau, edges)
    assert rules_hold(g)
    assert _oracle_hecke_witnesses(g) == [] and check_hecke_relations(g).passed and hecke_holds(g)
    # weight 2 on one edge out of w0 breaks the relation there
    broken = _braid_graph(tau, {**edges, (5, 3): 2})
    witnesses = list(check_hecke_relations(broken).witnesses)
    assert ("braid", 1, 2, 5) in witnesses and witnesses == _oracle_hecke_witnesses(broken)


class TestIntegerHeckeCheck:
    @settings(max_examples=40, deadline=None)
    @given(damaged_graphs())
    def test_witnesses_match_laurent_oracle(self, g):
        report = check_hecke_relations(g)
        assert list(report.witnesses) == _oracle_hecke_witnesses(g)
        assert hecke_holds(g) == report.passed

    @settings(max_examples=200, deadline=None)
    @given(three_generator_graphs())
    def test_every_kernel_case_matches_laurent_oracle(self, g):
        report = check_hecke_relations(g)
        oracle = _oracle_hecke_witnesses(g)
        assert list(report.witnesses) == oracle
        assert hecke_holds(g) == report.passed
        # the quadratic relation holds by construction of the columns
        assert all(w[0] != "quadratic" for w in oracle)

    @pytest.mark.parametrize("x", [2**k for k in range(1, 25)])
    def test_residual_vanishing_at_a_fixed_point_is_caught(self, x):
        # The only nonzero row of (T1 T2 T1 - T2 T1 T2) e_3 here is row 2,
        # a*(v^4 + v^2) + b*v^3 for a = m(3>0), b = m(3>1).  With a = x and
        # b = -(x^2 + 1) it vanishes at v = x, so no evaluation point that
        # ignores the size of the weights decides every graph.
        g = TestPolygonPathCounts._chain(
            tau_by_vertex=({1}, {2}, set(), {1, 2}),
            weights={(0, 1): -1, (0, 2): -1, (1, 0): -1, (2, 0): -1, (3, 0): x, (3, 1): -(x * x + 1)},
        )
        report = check_hecke_relations(g)
        assert ("braid", 1, 2, 3) in report.witnesses
        assert list(report.witnesses) == _oracle_hecke_witnesses(g)


    def test_negative_weight_enters_the_columns(self):
        # m(2 > 1) = -1 is in T_1 e_2 and T_2 e_2 and gives the braid witness
        # at 2; columns without the negative out-edges would lose it
        g = TestPolygonPathCounts._chain(
            tau_by_vertex=(set(), {1}, {1, 2}, set()),
            weights={(2, 1): -1},
        )
        witnesses = list(check_hecke_relations(g).witnesses)
        assert witnesses == _oracle_hecke_witnesses(g) == [("braid", 1, 2, 1), ("braid", 1, 2, 2)]


def test_hecke_check_peak_is_below_half_the_adjacency():
    # the columns are tuples of the adjacency's own pairs, so the check's
    # traced peak (the columns of n/2 + 1 generators and the vertices where
    # each is active) stays well below the adjacency it reads.  The graph
    # holds its rows from where it is made, so their size is that of a
    # fresh copy of the rows and their pairs
    g = build_affine_graph(Partition((7, 6)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rows = tuple(tuple([(v, w) for v, w in row]) for row in g.adjacency)
        adjacency = tracemalloc.get_traced_memory()[0] - start
        assert rows == g.adjacency
        del rows
        g.shift_automorphism  # derived before the check, as a run of the rules leaves it
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert check_hecke_relations(g).passed
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < adjacency / 2, (peak, adjacency)


class TestRulesMatchHeckeOnAdmissibleGraphs:
    def test_constructed_graphs(self):
        graphs = [build_affine_graph(shape) for shape in two_row_shapes(3, 7)]
        graphs += [
            build_equal_variant(Partition((a, a)), p)
            for a in (2, 3)
            for p in (0, 2, 3)
        ]
        for g in graphs:
            assert is_nb_admissible(g) and is_reduced(g)
            assert rules_hold(g) and hecke_holds(g)

    def test_random_mutilations(self):
        rng = random.Random(7)
        for shape in two_row_shapes(3, 7):
            g = build_affine_graph(shape)
            edges = sorted(g.weights)
            for _ in range(20):
                removed = rng.sample(edges, rng.randint(1, min(3, len(edges))))
                weights = {e: w for e, w in g.weights.items() if e not in removed}
                mutated = LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights)
                if is_nb_admissible(mutated) and is_reduced(mutated):
                    assert rules_hold(mutated) == hecke_holds(mutated), (shape, removed)
                else:
                    assert not rules_hold(mutated), (shape, removed)


def _simplicity_failing(g):
    """g without one direction of an incomparable mutual pair: compatible, not simple."""
    tau = g.tau
    edge = next((u, v) for u, v in sorted(g.weights) if not (tau[u] <= tau[v] or tau[v] <= tau[u]))
    return _without_edge(g, edge)


def test_rules_hold_stops_at_first_failing_rule(monkeypatch):
    # check_all_rules runs the rules through the module attributes, so
    # patched ones are called; rules_hold reads the rule kernels instead
    calls = []
    for name in ("check_bonding", "check_polygon"):
        original = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda g, name=name, original=original: calls.append(name) or original(g)
        )
    g = build_affine_graph(Partition((3, 2)))
    rules = [r.rule for r in check_all_rules(g)]
    assert rules == ["compatibility", "simplicity", "bonding", "polygon"]
    assert calls == ["check_bonding", "check_polygon"]
    mutated = _simplicity_failing(g)
    assert check_compatibility(mutated).passed and not check_simplicity(mutated).passed
    calls.clear()
    assert not rules_hold(mutated)
    assert calls == []


def test_rules_hold_takes_one_simplicity_witness_and_no_compatibility_edge(monkeypatch):
    # simplicity is read first and decides at its first witness, so the
    # compatibility kernel never runs
    calls, taken = Counter(), Counter()

    def counted(name, kernel):
        def call(g, sources):
            calls[name] += 1

            def tapped():
                for witness in kernel(g, sources):
                    taken[name] += 1
                    yield witness
            return tapped()
        return call

    for name in ("_compatibility_edges", "_simplicity_edges"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    mutated = _simplicity_failing(build_affine_graph(Partition((3, 2))))
    assert mutated.shift_automorphism is None  # one full scan, no representatives first
    assert not rules_hold(mutated)
    assert calls == {"_simplicity_edges": 1} and taken == {"_simplicity_edges": 1}
    # the reports still scan both rules in full
    calls.clear()
    taken.clear()
    compatibility, simplicity = check_all_rules(mutated)[:2]
    assert calls == {"_compatibility_edges": 1, "_simplicity_edges": 1}
    assert compatibility.passed and taken == {"_simplicity_edges": len(simplicity.witnesses)}


def _perturbations(g, rng, count):
    """
    A seeded sample of single-edge perturbations of g, `count` of each kind:
    an edge deleted, an edge re-weighted to 2 or -1, a weight-1 edge added.
    """
    edges = sorted(g.weights)
    absent = [(u, v) for u in range(len(g.tau)) for v in range(len(g.tau)) if u != v and (u, v) not in g.weights]
    perturbed = []
    for edge in rng.sample(edges, min(count, len(edges))):
        perturbed.append(_without_edge(g, edge))
    for w in (2, -1):
        for edge in rng.sample(edges, min(count, len(edges))):
            perturbed.append(LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, {**g.weights, edge: w}))
    for edge in rng.sample(absent, min(count, len(absent))):
        perturbed.append(LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, {**g.weights, edge: 1}))
    return perturbed


def test_rules_hold_agrees_with_the_reports():
    # every shape with n <= 6, the equal-row variants p = 0 and 2, and a
    # seeded sample of single-edge perturbations of each; and, per graph, a
    # whole sigma-orbit of a mutual and of a one-way edge re-weighted to 2,
    # which stays shift-invariant, so its representatives fail before the
    # full scan
    graphs = [build_affine_graph(shape) for shape in two_row_shapes(3, 6)]
    graphs += [build_equal_variant(Partition((a, a)), p) for a in (2, 3) for p in (0, 2)]
    verdicts = Counter()
    orbit_failures = 0
    for k, g in enumerate(graphs):
        damaged = _perturbations(g, random.Random(f"rules-hold-{k}"), 6)
        tau = g.tau
        edges = sorted(g.weights)
        mutual = next((e for e in edges if not (tau[e[0]] <= tau[e[1]] or tau[e[1]] <= tau[e[0]])), None)
        one_way = next((e for e in edges if tau[e[1]] < tau[e[0]]), None)
        for edge in (mutual, one_way):
            if edge is not None:
                h = _orbit_perturbed(g, [edge], 2)
                assert h.shift_automorphism is not None
                damaged.append(h)
                orbit_failures += not all(r.passed for r in check_all_rules(h))
        for h in [g, *damaged]:
            verdict = rules_hold(h)
            assert verdict == all(r.passed for r in check_all_rules(h)), (k, sorted(h.weights.items()))
            verdicts[verdict] += 1
    assert verdicts[True] >= len(graphs) and verdicts[False] > 0 and orbit_failures > 0


def test_witness_lists_pinned_on_mutants():
    # digest of both witness lists and hecke_holds on 30 damaged n = 7, 8
    # graphs (each fails both paths: 770 polygon and 772 Hecke witnesses)
    graphs = []
    for a, b in ((4, 3), (5, 3), (4, 4)):
        g = build_affine_graph(Partition((a, b)))
        rng = random.Random(f"polygon-hecke-{a}-{b}")
        for _ in range(10):
            weights = dict(g.weights)
            for edge in rng.sample(sorted(weights), 3):
                del weights[edge]
            weights[rng.choice(sorted(weights))] = rng.choice((2, 3, -1))
            graphs.append(LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights))
    rows = [
        (check_polygon(h).witnesses, check_hecke_relations(h).witnesses, hecke_holds(h))
        for h in graphs
    ]
    assert sum(len(p) for p, _, _ in rows) == 770
    assert sum(len(h) for _, h, _ in rows) == 772
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "34b16f3656ed7345642bcf0b7afc4e10fadfe3c21550f507dd5c54887268b287"
    )


def test_full_scan_reports_pinned_at_bench_size():
    # digest of the five reports and hecke_holds on the six damaged graphs
    rows = []
    for h in bench_size_damaged_graphs():
        assert h.shift_automorphism is None
        reports = check_all_rules(h) + [check_hecke_relations(h)]
        rows.append(([(r.rule, r.passed, r.witnesses) for r in reports], hecke_holds(h)))
    assert [sum(len(r[2]) for r in reports) for reports, _ in rows] == [35, 21, 75, 20, 55, 56]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "20df15affc005ad2c69340cfbe8be91689fefe97d68bdf067f387d755f3465bf"
    )


def _orbit_perturbed(g, edges, weight):
    """g with the sigma-orbit of each edge deleted (weight None) or re-weighted."""
    sigma = g.shift_automorphism
    weights = dict(g.weights)
    for u, v in edges:
        for _ in range(g.n):
            if weight is None:
                weights.pop((u, v), None)
            else:
                weights[(u, v)] = weight
            u, v = sigma[u], sigma[v]
    return LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights)


def _orbit_representatives(g, pairs=None):
    """One pair of each sigma-orbit of the given vertex pairs, by default the edges."""
    sigma, seen, reps = g.shift_automorphism, set(), []
    for u, v in sorted(g.weights if pairs is None else pairs):
        if (u, v) not in seen:
            reps.append((u, v))
            for _ in range(g.n):
                seen.add((u, v))
                u, v = sigma[u], sigma[v]
    return reps


def _orbit_added(g, pair):
    """g with the sigma-orbit of an absent vertex pair added as edges of weight 1."""
    sigma = g.shift_automorphism
    weights = dict(g.weights)
    u, v = pair
    for _ in range(g.n):
        weights[(u, v)] = 1
        u, v = sigma[u], sigma[v]
    return LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights)


@pytest.fixture
def edge_scans(monkeypatch):
    """
    The edges each call of the compatibility and simplicity kernels reads,
    by rule: the out-edges (u, v) of each source u, when the kernel takes u.
    """
    scans = {name: [] for name in EDGE_RULES}

    def counted(name, kernel):
        def call(g, sources):
            read = []
            scans[name].append(read)

            def tapped():
                for u in sources:
                    read.extend((u, v) for v, _ in g.adjacency[u])
                    yield u
            return kernel(g, tapped())
        return call

    for name in EDGE_RULES:
        kernel = f"_{name}_edges"
        monkeypatch.setattr(verify, kernel, counted(name, getattr(verify, kernel)))
    return scans


def _assert_edge_rules_match_oracles(g, edge_scans):
    """
    Both edge rules give the full scan's witnesses.  A shift-invariant graph
    is scanned on the representatives' out-edges first and in full only
    when those fail; any other graph is scanned once, in full.
    """
    witnesses = {}
    for name, (check, oracle) in EDGE_RULES.items():
        edge_scans[name].clear()
        expected = oracle(g)
        assert list(check(g).witnesses) == expected, name
        scans = edge_scans[name]
        if g.shift_automorphism is not None:
            assert len(scans) == 1 + bool(expected), name
            reps = g.shift_orbit_representatives
            out = [(u, v) for u in reps for v, _ in g.adjacency[u]]
            # stops at the first witness of the representatives' edges
            assert scans[0] == out[:len(scans[0])] and (expected or scans[0] == out), name
        else:
            assert len(scans) == 1, name
        if len(scans) > 1 or g.shift_automorphism is None:
            assert scans[-1] == list(g.weights), name
        witnesses[name] = expected
    return witnesses


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the generator pairs the bonding, polygon and Hecke checks evaluate."""
    calls = Counter()

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)
        return call

    for name in ("bonding", "polygon", "hecke"):
        kernel = f"_{name}_pair"
        monkeypatch.setattr(verify, kernel, counted(name, getattr(verify, kernel)))
    return calls


@pytest.fixture
def built_generators(monkeypatch):
    """The generators whose Hecke columns are built, in order."""
    built = []
    build = verify._generator_columns

    def counted(tau, adjacency, i):
        built.append(i)
        return build(tau, adjacency, i)

    monkeypatch.setattr(verify, "_generator_columns", counted)
    return built


@pytest.fixture
def built_classes(monkeypatch):
    """The generators whose rule-side vertex classes are built, in order."""
    built = []
    build = verify._generator_class

    def counted(tau, i):
        built.append(i)
        return build(tau, i)

    monkeypatch.setattr(verify, "_generator_class", counted)
    return built


def _pairs_evaluated(n, failing, stop_on_first=False, invariant=True):
    """
    The pairs evaluated, in order, on a graph whose failing generator pairs
    are `failing`.  On a shift-invariant graph, the representatives
    (1, 1 + d) up to the first failing one, and the full loop only if one
    fails; on any other graph, the full loop.  The full loop is every pair
    i < j, or those up to the first failing one.
    """
    evaluated = []
    if invariant:
        reps = [(1, 1 + d) for d in range(1, n // 2 + 1)]
        first = next((k for k, pair in enumerate(reps) if pair in failing), None)
        if first is None:
            return reps
        evaluated = reps[: first + 1]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if stop_on_first:
        pairs = pairs[: pairs.index(min(failing)) + 1]
    return evaluated + pairs


def _pair_calls(n, failing, stop_on_first=False):
    """The number of pairs evaluated on a shift-invariant graph (_pairs_evaluated)."""
    return len(_pairs_evaluated(n, failing, stop_on_first))


def _assert_matches_oracles(g):
    assert list(check_bonding(g).witnesses) == _brute_force_bonding(g)
    polygon = check_polygon(g)
    assert list(polygon.witnesses) == _brute_force_polygon(g)
    hecke = check_hecke_relations(g)
    assert list(hecke.witnesses) == _oracle_hecke_witnesses(g)
    assert hecke_holds(g) == hecke.passed
    return polygon.witnesses, hecke.witnesses


class TestOrbitReduction:
    """
    When the shift is an automorphism, the bonding, polygon and Hecke checks
    evaluate one generator pair per rotation orbit, and every pair if one of
    those fails; compatibility and simplicity scan the out-edges of one
    vertex per orbit, and every edge if one of those fails.  The Hecke
    check builds the columns of the generators its pairs read.
    """

    @pytest.mark.parametrize("weight", [None, 2, -1, 3])
    @pytest.mark.parametrize("parts", [(3, 2), (4, 2), (2, 2), (3, 3)])
    def test_invariant_failing_graphs_match_the_oracles(self, parts, weight, kernel_calls):
        # odd n = 5, even n = 6, and the (a, a) shapes, whose d = n/2 orbit has n/2 pairs
        g = _base_graph(parts)
        n = g.n
        found = Counter()
        for edge in _orbit_representatives(g):
            h = _orbit_perturbed(g, [edge], weight)
            assert h.shift_automorphism == g.shift_automorphism
            kernel_calls.clear()
            polygon, hecke = _assert_matches_oracles(h)
            bonding = {(min(a, b), max(a, b)) for _, a, b, _ in _brute_force_bonding(h)}
            hecke_pairs = {w[1:3] for w in hecke}
            assert kernel_calls == {
                "bonding": _pair_calls(n, bonding),
                "polygon": _pair_calls(n, {w[2:4] for w in polygon}),
                "hecke": _pair_calls(n, hecke_pairs) + _pair_calls(n, hecke_pairs, stop_on_first=True),
            }
            found["bonding"] += len(bonding)
            found["polygon"] += len(polygon)
            found["hecke"] += len(hecke)
            found["polygon, d = n/2"] += sum(2 * (w[3] - w[2]) == n for w in polygon)
            found["hecke, d = n/2"] += sum(2 * (w[2] - w[1]) == n for w in hecke)
        assert found["hecke"]
        assert bool(found["bonding"]) == (weight is None)  # bonding reads no weight values
        if n % 2 == 0 and n > 4:
            # witnesses come back on the half-size orbit too (none at n = 4)
            assert found["polygon, d = n/2"] and found["hecke, d = n/2"]

    def test_several_orbits_perturbed_at_once(self):
        rng = random.Random(11)
        for parts in ((3, 2), (4, 2), (3, 3)):
            g = _base_graph(parts)
            reps = _orbit_representatives(g)
            for _ in range(3):
                h = _orbit_perturbed(g, rng.sample(reps, 2), rng.choice((None, 2, -1, 3)))
                assert h.shift_automorphism is not None
                _assert_matches_oracles(h)

    def test_built_graphs_take_the_reduced_path(self, kernel_calls):
        graphs = [build_affine_graph(shape) for shape in two_row_shapes(3, 9)]
        graphs += [build_equal_variant(Partition((a, a)), p) for a in (2, 3, 4) for p in (0, 2)]
        for g in graphs:
            assert g.shift_automorphism is not None
            kernel_calls.clear()
            assert check_bonding(g).passed and check_polygon(g).passed
            assert check_hecke_relations(g).passed and hecke_holds(g)
            assert kernel_calls == {"bonding": g.n // 2, "polygon": g.n // 2, "hecke": 2 * (g.n // 2)}

    def test_built_graphs_scan_the_representative_edges(self, edge_scans):
        graphs = [build_affine_graph(shape) for shape in two_row_shapes(3, 9)]
        graphs += [build_equal_variant(Partition((a, a)), p) for a in (2, 3, 4) for p in (0, 2)]
        for g in graphs:
            sigma = g.shift_automorphism
            least = set()
            for u in range(len(sigma)):
                orbit = [u]
                while sigma[orbit[-1]] != u:
                    orbit.append(sigma[orbit[-1]])
                least.add(min(orbit))
            assert g.shift_orbit_representatives == tuple(sorted(least))
            assert _assert_edge_rules_match_oracles(g, edge_scans) == {name: [] for name in EDGE_RULES}
            scanned = len(edge_scans["compatibility"][0])
            assert scanned < len(g.weights) <= g.n * scanned

    @pytest.mark.parametrize("change", [None, 2, -1, 3, "added"])
    @pytest.mark.parametrize("parts", [(3, 2), (4, 2), (2, 2), (3, 3)])
    def test_orbit_damaged_graphs_match_the_full_scan(self, parts, change, edge_scans):
        # a whole sigma-orbit of edges deleted, re-weighted or added keeps sigma
        g = _base_graph(parts)
        if change == "added":
            count = len(g.vertices)
            absent = [(u, v) for u in range(count) for v in range(count) if (u, v) not in g.weights]
            graphs = [_orbit_added(g, pair) for pair in _orbit_representatives(g, absent)]
        else:
            graphs = [_orbit_perturbed(g, [edge], change) for edge in _orbit_representatives(g)]
        failed = Counter()
        for h in graphs:
            assert h.shift_automorphism == g.shift_automorphism
            witnesses = _assert_edge_rules_match_oracles(h, edge_scans)
            failed.update(name for name, found in witnesses.items() if found)
        assert failed["simplicity"]
        if change == "added":
            # some added orbit joins tau labels that separate a non-adjacent pair
            assert failed["compatibility"]

    def test_other_damaged_graphs_match_the_full_scan(self, edge_scans):
        rng = random.Random(13)
        graphs = list(self._full_path_inputs().values())
        for parts in ((3, 2), (4, 2), (3, 3), (4, 3)):
            g = _base_graph(parts)
            for _ in range(8):
                weights = dict(g.weights)
                for edge in rng.sample(sorted(weights), rng.randint(1, 3)):
                    del weights[edge]
                for edge in rng.sample(sorted(weights), rng.randint(0, 3)):
                    weights[edge] = rng.choice(WEIGHTS)
                pair = (rng.randrange(len(g.vertices)), rng.randrange(len(g.vertices)))
                weights[pair] = weights.get(pair, 1)
                graphs.append(LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights))
        failed = Counter()
        for h in graphs:
            assert h.shift_automorphism is None
            witnesses = _assert_edge_rules_match_oracles(h, edge_scans)
            failed.update(name for name, found in witnesses.items() if found)
        assert failed["compatibility"] and failed["simplicity"]

    def test_passing_check_builds_the_representative_generators(self, built_generators):
        graphs = [build_affine_graph(shape) for shape in two_row_shapes(3, 9)]
        graphs += [build_equal_variant(Partition((a, a)), p) for a in (2, 3, 4) for p in (0, 2)]
        for g in graphs:
            built_generators.clear()
            assert check_hecke_relations(g).passed
            assert built_generators == list(range(1, g.n // 2 + 2))
            # each check builds its own columns, and the graph keeps none
            assert hecke_holds(g)
            assert built_generators == list(range(1, g.n // 2 + 2)) * 2

    def test_failing_graphs_build_every_generator(self, built_generators):
        graphs = []
        for parts in ((3, 2), (4, 2), (3, 3)):
            g = _base_graph(parts)
            edge = next(
                edge for edge in _orbit_representatives(g)
                if not check_hecke_relations(_orbit_perturbed(g, [edge], None)).passed
            )
            graphs.append(_orbit_perturbed(g, [edge], None))  # fresh, no columns built yet
            graphs.append(_without_edge(g, sorted(g.weights)[0]))
        for h in graphs:
            built_generators.clear()
            report = check_hecke_relations(h)
            assert not report.passed
            assert built_generators == sorted(h.index_set)
            # hecke_holds builds its own columns, those of the pairs up to its first witness
            assert not hecke_holds(h)
            failing = {(i, j) for _, i, j, _ in report.witnesses}
            pairs = _pairs_evaluated(h.n, failing, True, h.shift_automorphism is not None)
            assert built_generators == sorted(h.index_set) + list(dict.fromkeys(itertools.chain(*pairs)))
        assert {h.shift_automorphism is None for h in graphs} == {True, False}

    def test_rules_build_each_generator_class_once_per_check(self, built_classes):
        # bonding reads only the adjacent pairs, and the one adjacent representative is (1, 2)
        for g in (_base_graph((3, 2)), _base_graph((4, 4)), build_affine_graph(Partition((5, 4)))):
            for check, reps in ((check_bonding, [1, 2]), (check_polygon, list(range(1, g.n // 2 + 2)))):
                built_classes.clear()
                assert check(g).passed
                assert built_classes == reps
        # the full pair loop builds every generator's classes, once
        for h in bench_size_damaged_graphs():
            assert h.shift_automorphism is None
            for check in (check_bonding, check_polygon):
                built_classes.clear()
                check(h)
                assert sorted(built_classes) == sorted(h.index_set)

    @staticmethod
    def _full_path_inputs():
        g = _base_graph((3, 2))
        n = g.n
        first = sorted(g.weights)[0]
        u, v = g.shift_automorphism[first[0]], g.shift_automorphism[first[1]]
        off_orbit = _orbit_perturbed(g, [first], None)
        return {
            "non-affine index set": restrict_parabolic(g, range(1, n)),
            # tau and weights are shift-invariant, but 3 is not a generator
            "index set {1, 2}": LabeledWGraph(
                n, frozenset({1, 2}), g.vertices, (frozenset(),) * len(g.vertices), g.weights,
            ),
            "chain": TestPolygonPathCounts._chain(
                ({1, 2}, {1}, {2}, set()), {(0, 1): 1, (1, 3): 1, (0, 2): 1},
            ),
            "finite": build_finite_graph(Partition((3, 2))),
            "vertex missing": full_subgraph(g, range(1, len(g.vertices))),
            "tau not shifted": LabeledWGraph(
                n, g.index_set, g.vertices, tuple(frozenset(n + 1 - i for i in t) for t in g.tau),
                g.weights,
            ),
            "one edge off the orbit": LabeledWGraph(
                n, g.index_set, g.vertices, g.tau, {**off_orbit.weights, (u, v): g.weights[(u, v)]},
            ),
        }

    @pytest.mark.parametrize(
        "name",
        ["non-affine index set", "index set {1, 2}", "chain", "finite", "vertex missing", "tau not shifted",
         "one edge off the orbit"],
    )
    def test_other_graphs_take_the_full_path(self, name, kernel_calls):
        g = self._full_path_inputs()[name]
        assert g.shift_automorphism is None
        pairs = len(g.index_set) * (len(g.index_set) - 1) // 2
        _assert_matches_oracles(g)
        assert kernel_calls["bonding"] == kernel_calls["polygon"] == pairs
        kernel_calls.clear()
        check_hecke_relations(g)
        assert kernel_calls["hecke"] == pairs


def _finite_restriction(shape):
    return restrict_parabolic(build_affine_graph(shape), range(1, shape.n))


class TestRestrictionCells:
    def test_keys_for_small_shapes(self):
        keys = set(classify_restriction_cells(_finite_restriction(Partition((3, 2)))))
        assert keys == {Partition((3, 2)), Partition((4, 1)), Partition((5,))}
        keys = set(classify_restriction_cells(_finite_restriction(Partition((2, 1)))))
        assert keys == {Partition((2, 1)), Partition((3,))}

    def test_rejects_unrestricted_graph(self, g32):
        with pytest.raises(ValueError, match="restricted to 1..4"):
            classify_restriction_cells(g32)
        with pytest.raises(ValueError, match="restricted to 1..4"):
            classify_restriction_cells(restrict_parabolic(g32, range(2, 6)))

    def test_rejects_fibers_that_share_an_insertion_shape(self):
        # one recording tableau per strongly connected component, so the
        # fibers are the components, but each of shape (3,): no shape keys them
        restricted = _finite_restriction(Partition((3, 2)))
        cell = {k: c for c, comp in enumerate(_scc_partition(restricted)) for k in comp}
        recording = [((cell[k],) * 3,) for k in range(len(restricted.vertices))]
        assert len(set(recording)) == 3
        with pytest.raises(CellMismatchError, match=exactly("insertion shapes do not separate the fibers for (3,2)")):
            _restriction_fibers(restricted, recording)

    def test_cell_count_against_ssyt_enumeration(self):
        for shape in two_row_shapes(3, 7):
            expected = sum(
                1
                for mu in all_partitions(shape.n)
                if dominance_leq(shape, Partition(mu))
                and count_ssyt(mu, shape.op, cap=1) > 0
            )
            assert len(classify_restriction_cells(_finite_restriction(shape))) == expected
            assert expected == shape.parts[1] + 1

    def test_cell_sizes_are_fiber_sizes(self):
        cell_map = classify_restriction_cells(_finite_restriction(Partition((3, 2))))
        assert {
            tuple(k.parts): len(c.vertices) for k, c in cell_map.items()
        } == {(3, 2): 5, (4, 1): 4, (5,): 1}

    def test_surviving_edges_respect_dominance(self):
        for shape in two_row_shapes(3, 7):
            g = build_affine_graph(shape)
            restricted = restrict_parabolic(g, range(1, g.n))
            for (u, v) in restricted.weights:
                fu = finsh(restricted.vertices[u])
                fv = finsh(restricted.vertices[v])
                if fu != fv:
                    assert dominance_leq(fu, fv), (shape, u, v)


def test_report_serialization(g32):
    report = check_compatibility(g32)
    data = report.to_json()
    assert data == {"rule": "compatibility", "passed": True, "witnesses": []}
