"""
I-labeled graphs: tableau vertices, descent labels tau, and a sparse
nonnegative integer weight map, together with the structural operations
(parabolic restriction, simple underlying graph, cells, simple component
numbers, reducedness, nb-admissibility) and JSON/DOT export.

The index set is {1..n} for affine graphs and {1..n-1} for finite ones.
Every graph holds its edges once, as its out-edge rows (adjacency): the
row of u is a tuple of (v, m(u > v)) pairs sorted by v, set where the
graph is made.  The rows share one pair object per (v, weight), and the
labels one frozenset per distinct label (_shared_labels).  The weights
are EdgeWeights, a read-only Mapping view over the rows with the (src,
dst) keys in that order and a lookup by bisection in the row of the
source, so the JSON and DOT never sort the edges and exports are
reproducible.  The walks of the package read the rows, not the view.  A
graph holds its vertices as the parts of their shape and their row codes
(tableaux.row_codes; for two rows, the row-2 masks), which equality
compares, with the rows.  What a graph derives (its tableaux, made from
the codes, its shift automorphism and orbit representatives) is computed
once, on first use, and kept on it: a graph holds nothing mutable.  The
public constructor copies and checks its fields, the vertices in one
pass that names the first one at fault, keeps the tableaux it checked and
their row codes, shares the labels once it has checked them all, and
files each edge into the row of its source.  The JSON format of a graph
is written and read here only: graph_from_json reads it top down in one
pass, naming each container of the wrong JSON kind before anything in it
is read (the graph, the index set, vertices, tau and edges, each edge,
each vertex, its rows and each row, and each vertex's label list), and
each JSON list or object where a number of a set or key belongs.  It
finds a repeated edge by its (src, dst) key, the only such keys made,
builds the vertices with the tableau constructor (naming the vertex whose
rows it rejects), checks the graph with the public constructor, and last
each vertex's copy of n and that neither the index set nor a label list
repeats an entry.  The builders and the graphs derived from a valid one
are made by LabeledWGraph._trusted from rows, unchecked; derived graphs
keep the edge order by filtering their parent's rows, and share the
rows, pairs and labels they keep (a restriction, one label per label of
its parent); a subgraph shares its parent's tableaux only if the parent
has made them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import ItemsView, Mapping
from functools import cached_property

from .tableaux import RowStandardTableau, _Frozen, from_row_codes, row_codes, shift_permutation, tableau_text

# (w, coefficient) pairs, such as the out-edges (w, m(u > w)) of a vertex
Edges = tuple[tuple[int, int], ...]

__all__ = [
    "LabeledWGraph", "full_subgraph",
    "restrict_parabolic", "simple_underlying", "cells", "simple_component_ids",
    "is_reduced", "is_nb_admissible", "dynkin_adjacent",
    "graph_to_json", "graph_from_json", "graph_to_dot",
]


class EdgeWeights(Mapping):
    """
    The read-only (src, dst) -> weight map of a graph, a view over its
    out-edge rows: the keys in (src, dst) order, the weight of (u, v) found
    by bisection in row u, its size kept, and equality with another view
    on as many rows decided by the rows.  Like a dict it is unhashable, so
    a graph, whose key holds it, is unhashable too.
    """

    __slots__ = ("_rows", "_count")

    def __init__(self, rows: tuple[Edges, ...]):
        self._rows, self._count = rows, sum(map(len, rows))

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for u, row in enumerate(self._rows):
            for v, _ in row:
                yield u, v

    def __getitem__(self, key) -> int:
        try:
            u, v = key
            w = _weight(self._rows[u], v) if u >= 0 else 0
        except (TypeError, ValueError, IndexError):  # not a pair of vertex numbers
            w = 0
        if not w:  # no stored weight is 0
            raise KeyError(key)
        return w

    def items(self):
        return _EdgeItems(self)

    def __eq__(self, other):
        if type(other) is EdgeWeights and len(other._rows) == len(self._rows):
            return self._rows == other._rows
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"EdgeWeights({dict(self.items())!r})"


class _EdgeItems(ItemsView):
    """The ((src, dst), weight) pairs of an EdgeWeights view, read off its rows."""

    def __iter__(self):
        for u, row in enumerate(self._mapping._rows):
            for v, w in row:
                yield (u, v), w


def _shared_rows(rows) -> tuple[Edges, ...]:
    """The rows as tuples, holding one pair object per (target, weight), as a target recurs in many rows."""
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    return tuple(tuple([pairs.setdefault(e, e) for e in row]) for row in rows)


def _shared_labels(keys, label) -> tuple[frozenset[int], ...]:
    """The label(k) of each key in a sequence, made once per distinct key, as a label recurs at many vertices."""
    made = dict.fromkeys(keys)
    for k in made:
        made[k] = label(k)
    return tuple(map(made.__getitem__, keys))


def _weight(row: Edges, v: int) -> int:
    """The weight of target v in a row of (target, weight) pairs sorted by target, 0 when v is not there."""
    k = bisect_left(row, (v,))  # (v,) sorts just before every pair (v, w)
    return row[k][1] if k < len(row) and row[k][0] == v else 0


class LabeledWGraph(_Frozen):
    n: int
    index_set: frozenset[int]
    vertices: tuple[RowStandardTableau, ...]
    tau: tuple[frozenset[int], ...]
    weights: Mapping[tuple[int, int], int]  # (src, dst) -> nonzero weight, an EdgeWeights view of adjacency

    def __init__(self, n, index_set, vertices, tau, weights):
        # own copies, so that the caller's containers cannot change the graph
        # (a frozenset or tuple of an exact frozenset or tuple is itself)
        index_set, vertices, tau = frozenset(index_set), tuple(vertices), tuple(tau)
        count = len(vertices)
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be a positive integer, not {n!r}")
        if not all(type(i) is int and 1 <= i <= n for i in index_set):
            raise ValueError(f"index set {set(index_set)} is not a subset of 1..{n}")
        if len(tau) != count:
            raise ValueError(f"{len(tau)} tau labels for {count} vertices")
        # each label list is made a set once they are counted, so that one
        # past the last vertex is counted, whatever it holds
        tau = tuple(map(frozenset, tau))
        # vertex 0's size, then each vertex's shape against vertex 0's (a
        # vertex of that shape has its size), then whether it is repeated
        first = tuple(map(len, vertices[0].rows)) if count else ()
        seen = set()
        for k, t in enumerate(vertices):
            rows = t.rows
            shape = tuple(map(len, rows))
            if shape != first or not k and sum(shape) != n:
                if sum(shape) != n:
                    raise ValueError(f"vertex {k} ({tableau_text(t)}) has {sum(shape)} entries, not {n}")
                raise ValueError(
                    f"vertex {k} ({tableau_text(t)}) has shape {shape}, not {first} as vertex 0"
                )
            if rows in seen:
                raise ValueError(f"vertex {k} ({tableau_text(t)}) is repeated")
            seen.add(rows)
        # each edge is checked and filed into the row of its source
        out: list[list[tuple[int, int]]] = [[] for _ in vertices]
        for (u, v), w in weights.items():
            if not (type(u) is int and type(v) is int and 0 <= u < count and 0 <= v < count):
                raise ValueError(f"edge {(u, v)} has an endpoint outside 0..{count - 1}")
            if type(w) is not int:
                raise ValueError(f"weight of edge {(u, v)} is not an integer: {w!r}")
            if w == 0:
                raise ValueError(f"stored weight must be nonzero: {(u, v)}")
            out[u].append((v, w))
        # True == 1 and 1.0 == 1 pass the subset test, so check types too
        # (and every set: {True} == {1}, so the labels are shared only once all are checked)
        for s in tau:
            if not (s <= index_set and set(map(type, s)) <= {int}):
                raise ValueError(f"tau value {set(s)} outside index set")
        tau = _shared_labels(tau, frozenset)
        # a row's targets are distinct ints, so sorting its pairs sorts them by target
        rows = _shared_rows(sorted(row) for row in out)
        self._hold(n, index_set, first, row_codes(vertices)[1], tau, rows, vertices)

    @classmethod
    def _trusted(cls, n, index_set, parts, codes, tau, rows, tableaux=None) -> "LabeledWGraph":
        """
        The graph with these fields, not copied or checked again: only for a
        graph derived from a valid one or made by a builder, with n a
        positive int, index_set a frozenset of ints in 1..n, parts the shape
        of the vertices (() for none), codes their distinct row codes in any
        order, tau a tuple of frozensets of the index set, one per distinct
        label, and rows a tuple with the out-edges of each vertex, a tuple of
        (target, nonzero int weight) pairs sorted by target.  The tableaux
        of the codes, if given, are the vertices.
        """
        g = object.__new__(cls)
        g._hold(n, index_set, parts, codes, tau, rows, tableaux)
        return g

    def _hold(self, n, index_set, parts, codes, tau, rows, tableaux) -> None:
        """Set the fields, as _trusted takes them; the rows are held as the weights view over them."""
        vars(self).update(n=n, index_set=index_set, _parts=parts, _codes=codes, tau=tau, weights=EdgeWeights(rows))
        if tableaux is not None:
            vars(self)["vertices"] = tableaux

    def _derived(self, index_set, tau, rows) -> "LabeledWGraph":
        """The graph on this graph's vertices with these fields, as _trusted takes them."""
        return LabeledWGraph._trusted(self.n, index_set, self._parts, self._codes, tau, rows)

    @cached_property
    def vertices(self) -> tuple[RowStandardTableau, ...]:
        """Made from the row codes on first read, unless the graph was made with its tableaux."""
        return from_row_codes(self._parts, self._codes)

    def _key(self) -> tuple:
        # the shape and the row codes stand for the vertices, so that no tableau is made to compare
        return self.n, self.index_set, self._parts, self._codes, self.tau, self.weights

    def __reduce__(self):
        # rebuilt from the held fields, so that no tableau is made to copy
        # or pickle; the derived values are recomputed on demand
        return (self._trusted, (self.n, self.index_set, self._parts, self._codes, self.tau, self.adjacency))

    @property
    def is_affine(self) -> bool:
        return self.n in self.index_set

    @property
    def adjacency(self) -> tuple[Edges, ...]:
        """The out-edges of each vertex as (target, weight) pairs sorted by target: the rows weights views."""
        return self.weights._rows

    @cached_property
    def shift_automorphism(self) -> tuple[int, ...] | None:
        """
        The vertex permutation sigma of the shift when it is an
        automorphism, else None: the index set is 1..n, every shifted vertex
        is a vertex, m(sigma u > sigma v) = m(u > v) for every edge (tested
        first, one adjacency row at a time up to the first mismatch) and
        tau(sigma u) = tau(u) + 1 mod n (each distinct tau set shifted once).
        """
        n = self.n
        # the members lie in 1..n, so the size decides (n may be too large for a range)
        if len(self.index_set) != n:
            return None
        sigma = shift_permutation(n, *self.row_codes())
        if sigma is None:
            return None
        # the image {sigma v: w} of each row lies in the row of sigma u; as
        # sigma is a bijection, that maps the edge set onto itself
        adj = self.adjacency
        for row, image in zip(adj, map(adj.__getitem__, sigma)):
            get = dict(image).get
            for v, w in row:
                if get(sigma[v]) != w:
                    return None
        tau = self.tau
        shifted = {t: frozenset(i % n + 1 for i in t) for t in set(tau)}
        if list(map(shifted.__getitem__, tau)) != [tau[k] for k in sigma]:
            return None
        return sigma

    @cached_property
    def shift_orbit_representatives(self) -> tuple[int, ...] | None:
        """
        The least vertex of each orbit of shift_automorphism, in increasing
        order, or None when the shift is not an automorphism.
        """
        sigma = self.shift_automorphism
        if sigma is None:
            return None
        seen = [False] * len(sigma)
        representatives = []
        for u in range(len(sigma)):
            if not seen[u]:
                representatives.append(u)
                v = u
                while not seen[v]:
                    seen[v] = True
                    v = sigma[v]
        return tuple(representatives)

    def row_codes(self) -> tuple[int, tuple[int, ...]]:
        """The width and the row code of each vertex, as tableaux.row_codes gives them."""
        parts = self._parts
        return (len(parts) - 1).bit_length() if parts else 0, self._codes

    def vertex_index(self) -> dict[RowStandardTableau, int]:
        return {t: k for k, t in enumerate(self.vertices)}


def dynkin_adjacent(g: LabeledWGraph, i: int, j: int) -> bool:
    """
    Type-A adjacency of two generators: cyclic distance 1 for the affine
    index set {1..n}, |i-j| = 1 for the finite one.
    """
    if g.is_affine:
        return (i - j) % g.n in (1, g.n - 1)
    return abs(i - j) == 1


def full_subgraph(g: LabeledWGraph, vertex_ids: list[int]) -> LabeledWGraph:
    """
    Subgraph on the given vertices keeping all internal weights.  It shares
    the parent's tableaux only if the parent has made them.
    """
    codes, made = g._codes, vars(g).get("vertices")
    # True == 1 and 1.0 == 1 would pass the range check, and "a" would not sort
    if not all(type(k) is int and 0 <= k < len(codes) for k in vertex_ids) or len(set(vertex_ids)) != len(vertex_ids):
        raise ValueError(f"vertex ids must be distinct and in 0..{len(codes) - 1}")
    ids = sorted(vertex_ids)
    renumber = {old: new for new, old in enumerate(ids)}
    # the out-edges of the kept vertices only; renumbering keeps their order
    adj = g.adjacency
    rows = _shared_rows([(renumber[v], w) for v, w in adj[u] if v in renumber] for u in ids)
    # a graph with no vertex has no shape, as the public constructor makes it
    return LabeledWGraph._trusted(
        g.n, g.index_set, g._parts if ids else (), tuple(codes[k] for k in ids), tuple(g.tau[k] for k in ids),
        rows, None if made is None else tuple(made[k] for k in ids),
    )


def restrict_parabolic(g: LabeledWGraph, j_set) -> LabeledWGraph:
    """
    Intersect every tau with J and delete each edge u->v whose restricted
    label tau'(u) became a subset of tau'(v).
    """
    j_set = frozenset(j_set)
    # True == 1 and 1.0 == 1 pass the subset test, so check types too
    if not (j_set <= g.index_set and all(type(i) is int for i in j_set)):
        raise ValueError(f"J = {set(j_set)} is not a subset of the index set")
    tau = _shared_labels(g.tau, j_set.__and__)
    rows = tuple(tuple([e for e in row if not tu <= tau[e[0]]]) for tu, row in zip(tau, g.adjacency))
    return g._derived(j_set, tau, rows)


def simple_underlying(g: LabeledWGraph) -> LabeledWGraph:
    """Keep exactly the pairs joined by weight 1 in both directions."""
    adj = g.adjacency
    # each kept pair is (v, 1), the parent's own
    rows = tuple(
        tuple([e for e in row if e[1] == 1 and e[0] != u and _weight(adj[e[0]], u) == 1])
        for u, row in enumerate(adj)
    )
    return g._derived(g.index_set, g.tau, rows)


def _scc_partition(g: LabeledWGraph) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan), sorted canonically."""
    count = len(g.tau)
    adj = g.adjacency
    index = [-1] * count
    lowlink = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(count):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # a frame is a vertex and the iterator over its out-edges, resumed after a descent
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for w, _ in edges:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
    comps.sort(key=lambda c: c[0])
    return comps


def cells(g: LabeledWGraph) -> list[LabeledWGraph]:
    """Strongly connected components as full subgraphs, by least vertex."""
    return [full_subgraph(g, comp) for comp in _scc_partition(g)]


# simple_underlying keeps (u, v) exactly when (v, u) is kept too, so its
# edge relation is symmetric and its strongly connected components are its
# connected components: _scc_partition serves both, sorted by least vertex.


def simple_component_ids(g: LabeledWGraph) -> list[int]:
    """Per-vertex component number in the simple underlying graph."""
    return _component_ids(simple_underlying(g))


def _component_ids(simple: LabeledWGraph) -> list[int]:
    """Per-vertex component number in a graph returned by simple_underlying."""
    ids = [0] * len(simple.tau)
    for k, comp in enumerate(_scc_partition(simple)):
        for v in comp:
            ids[v] = k
    return ids


def is_reduced(g: LabeledWGraph) -> bool:
    """No nonzero weight u->v with tau(u) a subset of tau(v)."""
    tau = g.tau
    return all(not tau[u] <= tau[v] for u, row in enumerate(g.adjacency) for v, _ in row)


def is_nb_admissible(g: LabeledWGraph) -> bool:
    """
    Nonnegative integer weights, and symmetric weights on every pair whose
    tau-labels are incomparable (bipartiteness is not required).
    """
    adj, tau = g.adjacency, g.tau
    for u, row in enumerate(adj):
        for v, w in row:
            tu, tv = tau[u], tau[v]
            if w < 0 or not (tu <= tv or tv <= tu) and _weight(adj[v], u) != w:
                return False
    return True


def graph_to_json(g: LabeledWGraph) -> dict:
    n = g.n
    return {
        "n": n,
        "index_set": sorted(g.index_set),
        # the JSON of a vertex, which graph_from_json reads back
        "vertices": [{"rows": list(map(list, t.rows)), "n": n} for t in g.vertices],
        "tau": [sorted(s) for s in g.tau],
        "edges": [{"src": u, "dst": v, "w": w} for u, row in enumerate(g.adjacency) for v, w in row],
    }


def graph_from_json(data: dict) -> LabeledWGraph:
    # top down, each container checked before anything in it is read: a JSON
    # object or string where a list belongs would be read as its keys or characters
    if type(data) is not dict:
        raise ValueError(f"graph {_must_be('object', data)}")
    index_set, vertices, tau, edges = data["index_set"], data["vertices"], data["tau"], data["edges"]
    for name, value in (("index_set", index_set), ("vertices", vertices), ("tau", tau), ("edges", edges)):
        if type(value) is not list:
            raise ValueError(f"{name} {_must_be('list', value)}")
    weights: dict[tuple[int, int], int] = {}
    for k, e in enumerate(edges):
        if type(e) is not dict:
            raise ValueError(f"edge {k} {_must_be('object', e)}")
        edge = (e["src"], e["dst"])
        try:
            repeated = edge in weights
        except TypeError:
            _name_unhashable((f"{key} of edge {k}", end) for key, end in zip(("src", "dst"), edge))
            raise
        if repeated:
            raise ValueError(f"duplicate edge {edge}")
        weights[edge] = e["w"]
    tableaux = []
    for k, v in enumerate(vertices):
        if type(v) is not dict:
            raise ValueError(f"vertex {k} {_must_be('object', v)}")
        rows = v["rows"]
        if type(rows) is not list:
            raise ValueError(f"rows of vertex {k} {_must_be('list', rows)}")
        for a, row in enumerate(rows):
            if type(row) is not list:
                raise ValueError(f"row {a} of vertex {k} {_must_be('list', row)}")
        try:  # the tableau constructor checks the rows and copies them into tuples
            tableaux.append(RowStandardTableau(rows))
        except ValueError as err:
            raise ValueError(f"vertex {k}: {err}") from err
    # the label list of each vertex; one past the last vertex is left for the constructor to count
    for k, (t, listed) in enumerate(zip(tableaux, tau)):
        if type(listed) is not list:
            raise ValueError(f"tau of vertex {k} ({tableau_text(t)}) {_must_be('list', listed)}")
    try:
        g = LabeledWGraph(n=data["n"], index_set=index_set, vertices=tableaux, tau=tau, weights=weights)
    except TypeError:  # raised where the constructor makes the index set or a label list a set
        _name_unhashable((f"entry {a} of index_set", i) for a, i in enumerate(index_set))
        _name_unhashable(
            (f"label {a} of tau of vertex {k} ({tableau_text(t)})", label)
            for k, (t, listed) in enumerate(zip(tableaux, tau)) for a, label in enumerate(listed)
        )
        raise
    # each vertex repeats n; read once the graph is accepted, so that the
    # constructor names a vertex of another size first
    for k, (t, v) in enumerate(zip(tableaux, vertices)):
        m = v["n"]
        if type(m) is not int or m != g.n:
            raise ValueError(f"vertex {k} ({tableau_text(t)}) has n = {m!r}, not {g.n}")
    # a label equal to an earlier one of its list (true or 1.0 after 1, or
    # 1 again) collapses into it in the set the constructor checked
    if len(g.index_set) != len(index_set):
        raise ValueError(f"index set {index_set} repeats an entry")
    for k, (t, labels, listed) in enumerate(zip(tableaux, g.tau, tau)):
        if len(labels) != len(listed):
            raise ValueError(f"tau of vertex {k} ({tableau_text(t)}) repeats a label: {listed}")
    return g


_JSON_KINDS = {
    dict: "an object", list: "a list", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _must_be(kind: str, value) -> str:
    """The end of the message for a value of graph_from_json where a JSON `kind` belongs."""
    return f"must be a JSON {kind}, not {_JSON_KINDS.get(type(value), type(value).__name__)}"


def _name_unhashable(places) -> None:
    """Name the first (place, value) pair whose value is a JSON list or object, which no set or key holds."""
    for where, value in places:
        if type(value) in (list, dict):
            raise ValueError(f"{where} {_must_be('number', value)}") from None


def graph_to_dot(g: LabeledWGraph, name: str = "wgraph") -> str:
    """
    DOT rendering: mutual weight-1 pairs appear once with dir=none, every
    other edge, self-loops included, as an arrow; vertex labels = compact
    tableau text plus tau.
    """
    lines = [f'digraph "{name}" {{', '  node [shape=box fontname="monospace"];']
    for k, t in enumerate(g.vertices):
        tau = "{" + ",".join(str(i) for i in sorted(g.tau[k])) + "}"
        lines.append(f'  v{k} [label="{tableau_text(t)}\\n{tau}"];')
    mutual = simple_underlying(g).adjacency
    for u, row in enumerate(mutual):
        for v, _ in row:
            if u < v:
                lines.append(f"  v{u} -> v{v} [dir=none];")
    for u, (row, kept) in enumerate(zip(g.adjacency, mutual)):
        for v, w in row:
            if (v, w) not in kept:
                attr = "" if w == 1 else f' [label="{w}"]'
                lines.append(f"  v{u} -> v{v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
