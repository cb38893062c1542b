import copy
import json
import pickle
import time

import pytest

import affwgraph.verify as verify
from affwgraph import (
    LabeledWGraph,
    Partition,
    RowStandardTableau,
    affine_descents,
    build_affine_graph,
    build_dual_equiv,
    build_equal_variant,
    build_finite_graph,
    cells,
    enumerate_rsyt,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_nb_admissible,
    is_reduced,
    restrict_parabolic,
    simple_underlying,
)
from affwgraph.verify import check_all_rules, check_hecke_relations, hecke_holds
from affwgraph.wgraph import EdgeWeights, full_subgraph, simple_component_ids

from conftest import exactly, two_row_shapes


@pytest.fixture(scope="module")
def g32():
    return build_affine_graph(Partition((3, 2)))


@pytest.fixture(scope="module")
def g33():
    return build_affine_graph(Partition((3, 3)))


class TestEdgeWeights:
    """The weights of a graph are a read-only Mapping, a view over its out-edge rows."""

    def test_views_of_equal_rows_are_equal(self, g33):
        # equal rows, not the same objects
        rows = tuple(tuple([(v, w) for v, w in row]) for row in g33.adjacency)
        view, other = EdgeWeights(g33.adjacency), EdgeWeights(rows)
        edges = {(u, v): w for u, row in enumerate(rows) for v, w in row}
        assert view == other and other == view and not view != other
        assert view == edges and edges == view and dict(view) == edges
        back = graph_from_json(json.loads(json.dumps(graph_to_json(g33))))
        assert back.weights == g33.weights == view and back == g33
        # as many edges on as many rows, one weight changed
        changed = (rows[0][1:] + ((rows[0][0][0], 2),),) + rows[1:]
        assert EdgeWeights(tuple(tuple(sorted(row)) for row in changed)) != view
        # views on different numbers of rows compare as the maps they are
        assert EdgeWeights(((), ())) == EdgeWeights(((),)) == {}
        assert EdgeWeights((((1, 1),), (), ())) == EdgeWeights((((1, 1),), ())) == {(0, 1): 1}

    def test_reads_as_the_dict_of_its_edges(self, g33):
        view = g33.weights
        edges = {(u, v): w for u, row in enumerate(g33.adjacency) for v, w in row}
        assert len(view) == len(edges) and list(view) == list(edges) == sorted(edges)
        assert list(view.items()) == list(edges.items()) and list(view.values()) == list(edges.values())
        assert all(view[key] == view.get(key) == w and key in view for key, w in edges.items())
        count = len(g33.tau)
        for missing in [(0, 0), (0, count), (-1, 0), (count, 0), (0, "1"), ("0", 1), (0,), (0, 1, 2), 0, None]:
            assert missing not in view and view.get(missing) is None, missing
            with pytest.raises(KeyError):
                view[missing]

    def test_read_only_and_unhashable(self, g33):
        with pytest.raises(TypeError):
            g33.weights[(0, 1)] = 1
        with pytest.raises(TypeError):
            del g33.weights[next(iter(g33.weights))]
        with pytest.raises(TypeError, match="unhashable type: 'EdgeWeights'"):
            hash(g33.weights)


class TestRestriction:
    def test_surviving_edge(self, g32):
        index = g32.vertex_index()
        src = next(k for k, t in enumerate(g32.vertices) if t.rows == ((2, 3, 5), (1, 4)))
        dst = next(k for k, t in enumerate(g32.vertices) if t.rows == ((3, 4, 5), (1, 2)))
        restricted = restrict_parabolic(g32, [1, 2, 3, 4])
        assert restricted.weights.get((src, dst)) == 1
        # reverse direction loses its justification: tau'(dst) is empty
        assert (dst, src) not in restricted.weights

    def test_full_index_set_is_identity_on_reduced(self, g32):
        assert restrict_parabolic(g32, g32.index_set).weights == g32.weights

    def test_empty_index_set_removes_everything(self, g32):
        restricted = restrict_parabolic(g32, [])
        assert restricted.weights == {}
        assert all(s == frozenset() for s in restricted.tau)

    def test_rejects_bad_subset(self, g32):
        with pytest.raises(ValueError):
            restrict_parabolic(g32, [0, 1])

    def test_preserves_reduced(self):
        for shape in two_row_shapes(3, 6):
            g = build_affine_graph(shape)
            assert is_reduced(restrict_parabolic(g, range(1, g.n)))


class TestSimpleUnderlying:
    def test_mutual_pair_count(self, g32):
        u = simple_underlying(g32)
        assert len(u.weights) == 20  # ten undirected edges
        assert all(u.weights[(b, a)] == 1 for (a, b) in u.weights)

    def test_one_way_arrows_removed(self):
        g = _tiny(tau=({1}, {1, 2}), weights={(1, 0): 1})
        assert simple_underlying(g).weights == {}

    def test_idempotent(self, g33):
        u = simple_underlying(g33)
        assert simple_underlying(u).weights == u.weights


class TestCells:
    def test_single_cell(self, g33):
        assert len(cells(g33)) == 1
        assert len(cells(g33)[0].vertices) == 20

    def test_three_cells_after_restriction(self, g32):
        assert len(cells(restrict_parabolic(g32, [1, 2, 3, 4]))) == 3

    def test_edgeless(self):
        g = _tiny(tau=({1}, {2}), weights={})
        assert [len(c.vertices) for c in cells(g)] == [1, 1]

    def test_cells_partition_vertices(self, g32):
        restricted = restrict_parabolic(g32, [1, 2, 3, 4])
        seen = [t for c in cells(restricted) for t in c.vertices]
        assert sorted(t.rows for t in seen) == sorted(t.rows for t in restricted.vertices)

    def test_cells_of_cell_is_itself(self, g32):
        for cell in cells(restrict_parabolic(g32, [1, 2, 3, 4])):
            again = cells(cell)
            assert len(again) == 1
            assert again[0].weights == cell.weights

    def test_against_reachability_closure(self):
        # cells: mutual reachability; simple components: undirected
        # reachability over the mutual weight-1 pairs; both by brute force
        import random

        from affwgraph import enumerate_rsyt

        def closure(related):
            reach = [[u == v or related(u, v) for v in range(count)] for u in range(count)]
            for k in range(count):
                for u in range(count):
                    for v in range(count):
                        reach[u][v] = reach[u][v] or (reach[u][k] and reach[k][v])
            return reach

        rng = random.Random(3)
        vertices = tuple(enumerate_rsyt(Partition((4, 4)))[:8])
        count = len(vertices)
        for _ in range(25):
            density = rng.choice((0.18, 0.5, 0.9))
            weights = {
                (u, v): rng.choice((1, 2))
                for u in range(count)
                for v in range(count)
                if rng.random() < density
            }
            g = LabeledWGraph(
                8, frozenset(range(1, 9)), vertices,
                tuple(frozenset() for _ in vertices), weights,
            )
            reach = closure(lambda u, v: (u, v) in weights)
            expected = {
                frozenset(v for v in range(count) if reach[u][v] and reach[v][u])
                for u in range(count)
            }
            index = g.vertex_index()
            got = {frozenset(index[t] for t in c.vertices) for c in cells(g)}
            assert got == expected

            reach = closure(lambda u, v: u != v and weights.get((u, v)) == weights.get((v, u)) == 1)
            components = sorted({tuple(v for v in range(count) if reach[u][v]) for u in range(count)})
            ids = simple_component_ids(g)
            assert all(ids[v] == k for k, comp in enumerate(components) for v in comp)

        # known answers: the depth-first walk goes thousands of frames deep
        # on a path and a cycle, and comes back through nested cycles and
        # self-loops
        def graph(vertices, weights):
            n = vertices[0].n
            tau = tuple(frozenset() for _ in vertices)
            return LabeledWGraph(n, frozenset(range(1, n + 1)), vertices, tau, weights)

        def partition(g):
            index = g.vertex_index()
            return [sorted(index[t] for t in c.vertices) for c in cells(g)]

        long = tuple(enumerate_rsyt(Partition((7, 7))))
        count = len(long)
        assert count == 3432
        path = {(k, k + 1): 1 for k in range(count - 1)}
        assert partition(graph(long, path)) == [[k] for k in range(count)]
        assert simple_component_ids(graph(long, path)) == list(range(count))
        assert partition(graph(long, {**path, (count - 1, 0): 1})) == [list(range(count))]
        mutual = {**path, **{(k + 1, k): 1 for k in range(count - 1)}}
        assert simple_component_ids(graph(long, mutual)) == [0] * count

        nested = {
            (0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1, (2, 1): 1, (1, 1): 2,  # a cycle around a 2-cycle
            (3, 4): 1, (4, 4): 1, (4, 5): 1,  # a self-loop alone in its cell
            (5, 6): 1, (6, 7): 1, (7, 5): 1, (6, 5): 1, (7, 7): 1,  # nested cycles through 5
        }
        assert partition(graph(vertices, nested)) == [[0, 1, 2, 3], [4], [5, 6, 7]]
        assert simple_component_ids(graph(vertices, nested)) == [0, 1, 1, 2, 3, 4, 4, 5]


def _component_sizes(g):
    ids = simple_component_ids(g)
    return [ids.count(k) for k in range(max(ids) + 1)]


class TestSimpleComponents:
    def test_two_components_equal_rows(self, g33):
        assert _component_sizes(g33) == [10, 10]

    def test_connected_unequal_rows(self, g32):
        assert _component_sizes(g32) == [10]

    def test_edgeless(self):
        g = _tiny(tau=({1}, {2}), weights={})
        assert _component_sizes(g) == [1, 1]

    def test_component_inside_cell(self):
        for shape in two_row_shapes(3, 6):
            g = build_affine_graph(shape)
            cell_sets = [frozenset(t.rows for t in c.vertices) for c in cells(g)]
            ids = simple_component_ids(g)
            for k in set(ids):
                members = frozenset(t.rows for t, c in zip(g.vertices, ids) if c == k)
                assert any(members <= cell for cell in cell_sets)


class TestPredicates:
    def test_affine_graphs_reduced_and_admissible(self):
        for shape in two_row_shapes(3, 6):
            g = build_affine_graph(shape)
            assert is_reduced(g)
            assert is_nb_admissible(g)

    def test_self_loop_not_reduced(self):
        g = _tiny(tau=({1}, {2}), weights={(0, 0): 1})
        assert not is_reduced(g)
        assert simple_underlying(g).weights == {}

    def test_not_reduced(self):
        g = _tiny(tau=({1}, {1, 2}), weights={(0, 1): 1})
        assert not is_reduced(g)

    def test_one_way_incomparable_not_admissible(self, g32):
        weights = dict(g32.weights)
        mutual = next((u, v) for (u, v) in weights if (v, u) in weights)
        del weights[mutual]
        broken = LabeledWGraph(g32.n, g32.index_set, g32.vertices, g32.tau, weights)
        assert not is_nb_admissible(broken)

    def test_edgeless_passes_both(self):
        g = _tiny(tau=({1}, {2}), weights={})
        assert is_reduced(g) and is_nb_admissible(g)


# the row codes and shift permutation of the graphs of
# test_json_graph_of_one_or_three_rows_keeps_codes_and_shift
ROW_CODES_READ = {
    (5,): ((0, (0,)), (0,)),
    (2, 1, 1): (
        (2, (6, 18, 66, 9, 24, 72, 33, 36, 96, 129, 132, 144)),
        (4, 5, 3, 7, 8, 6, 10, 11, 9, 0, 1, 2),
    ),
    (2, 2, 1): (
        (
            2,
            (
                22, 70, 262, 82, 274, 322, 25, 73, 265, 88, 280, 328, 37, 97, 289,
                100, 292, 352, 133, 145, 385, 148, 388, 400, 517, 529, 577, 532, 580, 592,
            ),
        ),
        (
            9, 10, 6, 11, 7, 8, 15, 16, 12, 17, 13, 14, 21, 22, 18,
            23, 19, 20, 27, 28, 24, 29, 25, 26, 0, 1, 2, 3, 4, 5,
        ),
    ),
}


class TestSerialization:
    def test_json_round_trip(self, g32):
        data = graph_to_json(g32)
        back = graph_from_json(data)
        assert back.weights == g32.weights
        assert back.tau == g32.tau
        assert back.vertices == g32.vertices
        assert data["edges"] == sorted(data["edges"], key=lambda e: (e["src"], e["dst"]))
        # the constructor puts the edges of a file in any order into (src, dst) order
        loaded = graph_from_json({**data, "edges": data["edges"][::-1]})
        assert list(loaded.weights) == sorted(g32.weights)
        assert graph_to_json(loaded) == data

    def test_dot_output(self, g32):
        dot = graph_to_dot(g32, "g")
        assert dot.count("dir=none") == 10
        # 10 mutual pairs render once, 10 one-way arrows render once
        lines = [ln for ln in dot.splitlines() if "->" in ln]
        assert len(lines) == 20

    def test_dot_self_loops_are_arrows(self, g32):
        weights = {**g32.weights, (0, 0): 1, (1, 1): 2}
        g = LabeledWGraph(g32.n, g32.index_set, g32.vertices, g32.tau, weights)
        lines = [ln for ln in graph_to_dot(g).splitlines() if "->" in ln]
        assert "  v0 -> v0;" in lines
        assert '  v1 -> v1 [label="2"];' in lines
        assert len(lines) == 22 and sum("dir=none" in ln for ln in lines) == 10

    def test_dot_deterministic(self, g32):
        assert graph_to_dot(g32) == graph_to_dot(g32)

    def test_rejects_duplicate_edge(self, g32):
        data = graph_to_json(g32)
        data["edges"].append(dict(data["edges"][0], w=2))
        with pytest.raises(ValueError, match=exactly("duplicate edge (0, 6)")):
            graph_from_json(data)

    def test_dual_equiv_matches_underlying(self, g32):
        assert build_dual_equiv(Partition((3, 2))).weights == simple_underlying(g32).weights

    @pytest.mark.parametrize("parts", list(ROW_CODES_READ), ids=str)
    def test_json_graph_of_one_or_three_rows_keeps_codes_and_shift(self, parts):
        # every tableau of the shape, labelled by its affine descents, no edge:
        # the codes are computed from the tableaux read, and the shift's
        # vertex permutation from the codes
        tableaux = enumerate_rsyt(Partition(parts))
        n = sum(parts)
        g = LabeledWGraph(n, range(1, n + 1), tableaux, [affine_descents(t) for t in tableaux], {})
        read = graph_from_json(graph_to_json(g))
        codes, sigma = ROW_CODES_READ[parts]
        assert read.row_codes() == codes and read.shift_automorphism == sigma
        assert read == g and read.vertices == g.vertices


def _tiny(tau, weights):
    from affwgraph import RowStandardTableau

    vertices = (
        RowStandardTableau(((1, 2), (3,))),
        RowStandardTableau(((1, 3), (2,))),
    )
    return LabeledWGraph(
        n=3,
        index_set=frozenset({1, 2, 3}),
        vertices=vertices,
        tau=tuple(frozenset(s) for s in tau),
        weights=weights,
    )


def test_full_subgraph_keeps_internal_weights(g32):
    sub = full_subgraph(g32, [0, 1, 2])
    for (u, v), w in sub.weights.items():
        assert g32.weights[
            g32.vertex_index()[sub.vertices[u]], g32.vertex_index()[sub.vertices[v]]
        ] == w


def test_empty_full_subgraph_is_the_empty_graph(g32):
    # a graph with no vertex has no shape, however it is made
    empty = full_subgraph(g32, [])
    assert empty == LabeledWGraph(g32.n, g32.index_set, [], [], {})
    assert empty.vertices == () and empty.row_codes() == (0, ())


@pytest.mark.parametrize(
    "ids",
    # True == 1 and 1.0 == 1 would pass a range check, and a string would not compare with 0
    [[0, 0, 1], [0, 99], [-1, 0], [1.0, 2], ["a"], [True, 2]],
    ids=["repeated", "too large", "negative", "float", "string", "bool"],
)
def test_full_subgraph_rejects_bad_vertex_ids(g32, ids):
    with pytest.raises(ValueError, match="vertex ids"):
        full_subgraph(g32, ids)


class TestTrustedGraphs:
    """Restrictions, subgraphs and simple underlying graphs are built unchecked."""

    @staticmethod
    def _same_as_checked(h):
        checked = LabeledWGraph(h.n, h.index_set, h.vertices, h.tau, dict(h.weights))
        kinds = (type(h.index_set), type(h.vertices), type(h.tau), type(h.weights))
        # one pair object per (target, weight), kept from the parent or shared anew
        pairs = [e for row in h.adjacency for e in row]
        return (
            len(set(map(id, pairs))) == len(set(pairs))
            and checked == h
            and list(checked.weights.items()) == list(h.weights.items())
            and kinds == (frozenset, tuple, tuple, EdgeWeights)
        )

    def test_derived_graphs_equal_validated_ones(self):
        for shape in two_row_shapes(3, 9):
            g = build_affine_graph(shape)
            restricted = restrict_parabolic(g, range(1, shape.n))
            derived = [restricted, simple_underlying(g), *cells(restricted), *cells(g)]
            assert all(self._same_as_checked(h) for h in derived), shape
            with pytest.raises(TypeError):
                restricted.weights[(0, 1)] = 1

    @pytest.mark.parametrize("j_set", [{True, 2}, {1.0, 2}])
    def test_restriction_rejects_look_alike_integers(self, g32, j_set):
        with pytest.raises(ValueError, match="not a subset"):
            restrict_parabolic(g32, j_set)


class TestConstruction:
    @pytest.mark.parametrize("edge", [(0, 2), (-1, 0), (1, "0"), (0, 1.0)])
    def test_rejects_endpoint_outside_vertices(self, edge):
        with pytest.raises(ValueError, match=exactly(f"edge {edge!r} has an endpoint outside 0..1")):
            _tiny(({1}, {2}), {edge: 1})

    def test_rejects_tau_length_mismatch(self):
        with pytest.raises(ValueError, match=exactly("1 tau labels for 2 vertices")):
            _tiny(({1},), {})

    def test_rejects_non_integer_weight(self):
        with pytest.raises(ValueError, match=exactly("weight of edge (0, 1) is not an integer: 0.5")):
            _tiny(({1}, {2}), {(0, 1): 0.5})

    def test_rejects_repeated_vertex(self, g32):
        vertices = g32.vertices[:-1] + g32.vertices[:1]
        with pytest.raises(ValueError, match=exactly("vertex 9 (345/12) is repeated")):
            LabeledWGraph(g32.n, g32.index_set, vertices, g32.tau, g32.weights)

    def test_rejects_vertex_of_other_size(self, g32):
        with pytest.raises(ValueError, match=exactly("vertex 0 (345/12) has 5 entries, not 6")):
            LabeledWGraph(6, frozenset(range(1, 7)), g32.vertices, g32.tau, g32.weights)

    @pytest.mark.parametrize("rows", [((1, 2, 3, 4), (5,)), ((1, 2, 3, 4, 5),)])
    def test_rejects_vertex_of_other_shape(self, g32, rows):
        vertices = (RowStandardTableau(rows),) + g32.vertices[1:]
        message = f"vertex 1 (245/13) has shape (3, 2), not {tuple(map(len, rows))} as vertex 0"
        with pytest.raises(ValueError, match=exactly(message)):
            LabeledWGraph(g32.n, g32.index_set, vertices, g32.tau, g32.weights)

    def test_rejects_index_set_outside_one_to_n(self):
        with pytest.raises(ValueError, match=exactly("index set {0, 1, 2} is not a subset of 1..3")):
            LabeledWGraph(
                n=3,
                index_set=frozenset({0, 1, 2}),
                vertices=(RowStandardTableau(((1, 2), (3,))),),
                tau=(frozenset(),),
                weights={},
            )

    def test_huge_n_rejected_without_allocating(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=exactly(f"vertex 0 (12/3) has 3 entries, not {10**18}")):
            LabeledWGraph(
                n=10**18,
                index_set=frozenset({1, 2, 3}),
                vertices=(RowStandardTableau(((1, 2), (3,))),),
                tau=(frozenset(),),
                weights={},
            )
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("n", [True, "3", 3.0, 0])
    def test_rejects_n_not_a_positive_int(self, n):
        with pytest.raises(ValueError, match=exactly(f"n must be a positive integer, not {n!r}")):
            LabeledWGraph(n, frozenset(), (), (), {})

    @pytest.mark.parametrize(
        "tau, weights, message",
        [
            (({1}, {2}), {(0, 1): True}, "weight of edge (0, 1) is not an integer: True"),
            (({1}, {2}), {(True, 0): 1}, "edge (True, 0) has an endpoint outside 0..1"),
            (({True}, {2}), {(0, 1): 1}, "tau value {True} outside index set"),
            (({1.0}, {2}), {(0, 1): 1}, "tau value {1.0} outside index set"),
            # {True} == {1}, so a check of each distinct tau set would pass it
            (({1}, {True}), {(0, 1): 1}, "tau value {True} outside index set"),
        ],
        ids=["bool weight", "bool endpoint", "bool tau label", "float tau label", "bool after int"],
    )
    def test_rejects_look_alike_integers(self, tau, weights, message):
        # True == 1 and 1.0 == 1, so only a type check tells them apart
        with pytest.raises(ValueError, match=exactly(message)):
            _tiny(tau, weights)

    def test_weights_read_only(self, g32):
        with pytest.raises(TypeError):
            g32.weights[(0, 99)] = 1
        with pytest.raises(TypeError):
            del g32.weights[next(iter(g32.weights))]

    def test_weights_copied_from_caller(self):
        weights = {(0, 1): 1}
        g = _tiny(({1}, {2}), weights)
        weights[(1, 0)] = 1
        assert g.weights == {(0, 1): 1}

    def test_containers_copied_from_caller(self, g33):
        index_set, vertices, tau = set(g33.index_set), list(g33.vertices), [set(t) for t in g33.tau]
        g = LabeledWGraph(g33.n, index_set, vertices, tau, g33.weights)
        assert (type(g.index_set), type(g.vertices), type(g.tau)) == (frozenset, tuple, tuple)
        assert all(type(t) is frozenset for t in g.tau)
        derived = _derived(g)
        assert derived["shift_automorphism"] is not None
        index_set.discard(g33.n)
        vertices.pop()
        for t in tau:
            t.clear()
        assert g == g33
        assert _derived(g) == derived
        assert derived == _derived(g33)

    def test_exact_containers_kept(self, g33):
        g = LabeledWGraph(g33.n, g33.index_set, g33.vertices, g33.tau, g33.weights)
        assert g.index_set is g33.index_set and g.vertices is g33.vertices
        assert all(a is b for a, b in zip(g.tau, g33.tau))


# what a graph derives and keeps on itself (its out-edge rows, adjacency,
# are held from where it is made)
DERIVED = ("shift_automorphism", "shift_orbit_representatives")


def _derived(g) -> dict:
    """
    The out-edge rows and derived values of g, with the Hecke check's
    columns of every generator, which must be nested tuples of ints and None
    whose every entry is the adjacency's own pair object.
    """
    values = {name: getattr(g, name) for name in ("adjacency", *DERIVED)}
    for i in sorted(g.index_set):
        cols, active = values["columns", i] = verify._generator_columns(g.tau, g.adjacency, i)
        assert _frozen(cols) and active == [u for u, col in enumerate(cols) if col is not None], i
        for u in active:
            row = {id(e) for e in g.adjacency[u]}
            assert all(id(e) in row for e in cols[u]), (i, u)
    return values


def _frozen(value) -> bool:
    """Nested tuples of ints and None only."""
    if isinstance(value, tuple):
        return all(_frozen(item) for item in value)
    return value is None or type(value) is int


def _without_first_edge(g):
    u = next(u for u, row in enumerate(g.adjacency) if row)
    return g._derived(g.index_set, g.tau, g.adjacency[:u] + (g.adjacency[u][1:],) + g.adjacency[u + 1:])


BUILDERS = {
    "affine": lambda: build_affine_graph(Partition((3, 3))),
    "dual-equiv": lambda: build_dual_equiv(Partition((3, 3))),
    "finite": lambda: build_finite_graph(Partition((3, 3))),
    "p=0": lambda: build_equal_variant(Partition((3, 3)), 0),
    "p=2": lambda: build_equal_variant(Partition((3, 3)), 2),
}
DERIVED_FROM = {
    "restriction": lambda g: restrict_parabolic(g, range(1, g.n)),
    "simple underlying": simple_underlying,
    "single-edge deletion": _without_first_edge,
    "cell": lambda g: cells(g)[0],
}
FROM_BUILDERS = {
    **BUILDERS,
    **{
        f"{derived} of {built}": (lambda build=build, derive=derive: derive(build()))
        for built, build in BUILDERS.items()
        for derived, derive in DERIVED_FROM.items()
    },
}


class TestDerivedValues:
    def test_computed_once_and_immutable(self, g33):
        for name in ("adjacency", *DERIVED):
            value = getattr(g33, name)
            assert value is not None and getattr(g33, name) is value
            assert _frozen(value), name
            with pytest.raises(AttributeError, match=exactly(f"cannot assign to field {name!r}")):
                setattr(g33, name, ())
            with pytest.raises(AttributeError, match=exactly(f"cannot delete field {name!r}")):
                delattr(g33, name)

    @pytest.mark.parametrize("damaged", [False, True])
    def test_checks_leave_only_frozen_values(self, g33, damaged):
        # a fresh graph, on which the checks derive all that they keep; the
        # damaged one fails every check but compatibility, on the full scans
        weights = dict(g33.weights)
        if damaged:
            del weights[next(iter(weights))]
        g = LabeledWGraph(g33.n, g33.index_set, g33.vertices, g33.tau, weights)
        assert [r.passed for r in check_all_rules(g)] == [True, not damaged, not damaged, not damaged]
        assert check_hecke_relations(g).passed == hecke_holds(g) == (not damaged)
        assert set(DERIVED) <= vars(g).keys()
        for name, value in vars(g).items():
            assert value is g.weights or type(value) in (tuple, frozenset, int, type(None)), name
        assert type(g.weights) is EdgeWeights and _frozen(g.adjacency)

    @pytest.mark.parametrize("name", FROM_BUILDERS)
    def test_builder_and_derived_graphs_leave_only_frozen_values(self, name):
        # the graphs of every builder and the graphs derived from them, after
        # the checks and a read of the vertices and row codes
        g = FROM_BUILDERS[name]()
        check_all_rules(g), check_hecke_relations(g), hecke_holds(g)
        assert g.vertices and g.row_codes()
        for key, value in vars(g).items():
            assert value is g.weights or type(value) in (tuple, frozenset, int, type(None)), (name, key)
        assert type(g.weights) is EdgeWeights and _frozen(g.adjacency)

    def test_pickle_and_copy(self, g33):
        derived = _derived(g33)
        for clone in (pickle.loads(pickle.dumps(g33)), copy.copy(g33), copy.deepcopy(g33)):
            assert clone == g33 and clone.vertices == g33.vertices
            assert _derived(clone) == derived
            with pytest.raises(TypeError):
                clone.weights[(0, 1)] = 1
