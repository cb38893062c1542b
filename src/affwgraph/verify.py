"""
Two independent ways to certify that a labeled graph is a W-graph, plus the
restriction-cell classifier.

The four local rules (compatibility, simplicity, bonding, polygon)
characterize the nb-admissible reduced graphs carrying a Hecke module; the
matrix check instead builds the generator action

    T_i(u) = q*u                                    if i not in tau(u)
    T_i(u) = -u + v * sum m(u > w) * w over w with i not in tau(w)
                                                    if i in tau(u)

and verifies the quadratic, commutation and braid relations on every basis
vector (the quadratic one holds by construction, see below).  Rule checkers
report every witness they find.

The polygon rule compares path sums from each source u into the sinks v,
the vertices flagged for neither i nor j.  It walks the paths out of u and
keeps sums only where it compares them: a sink that no path reaches has 0
on both sides and cannot be a witness, so the work is the number of
paths, not |sources| * |sinks|.  One path step, _step, extends a vector of
(w, sum) pairs by the out-edges of the kept w's and adds each path's
product at its end only when that end is a sink, or, when a 3-step
follows (i and j adjacent), a vertex of the next middle class.  The
2-step sums through V_{i/j} are _step of the out-edges of u, and the
3-step sums through V_{i/j} then V_{j/i} are _step of the 2-step sums that
the first step kept on V_{j/i} (and the same with i and j swapped), so no
path out of u is walked twice.  Per source and path length, one equality
of the two sides' sink sums decides that there is no witness; only when
they differ are the sinks walked, a sink missing on one side, or whose sum
cancels to 0, counting as 0 there.

Bonding and polygon read per-generator vertex classes: for a generator i,
the flags (i in tau(u)) of every vertex u and the list of the vertices
flagged, _generator_class, built once per check when a pair first reads i.
A pair (i, j) reads V_{i/j} as the vertices flagged for i and not for j,
the polygon sources as the members of i flagged for j and the sinks as the
vertices flagged for neither; bonding walks the members of i and of j,
and counts, for each u of V_{i/j} or V_{j/i} only, the out-edges of u
into the other class whose reverse edge exists, found by bisection in the
row of its target.  So no V-length list is
built per pair, and a graph that gets the full pair loop (below) pays per
generator, not per generator pair.  The Hecke check builds its own
classes: the columns of a generator come with the vertices where it is
active, and a pair visits only the vertices where i or j is active.  Each
path builds what it reads, and the two share none of it.

Every check goes over its items (edges or generator pairs i < j) orbit
first, in one driver, _orbit_first.  When the shift is an automorphism of
the graph (the checked precondition LabeledWGraph.shift_automorphism: the
index set is 1..n, the vertex permutation sigma of the shift exists,
m(sigma u > sigma v) = m(u > v) on every edge and
tau(sigma u) = tau(u) + 1 mod n), every item has the verdict of an item
among given representatives, as shown below.  So the driver first
evaluates the representatives; if none fails there are no witnesses, and
otherwise, and without the precondition, it evaluates every item, so the
witness lists are the full scan's.

Bonding, polygon and the Hecke check go over the generator pairs i < j,
with the representatives (1, 1 + d) for d = 1..n/2, one pair per orbit of
rho(i) = i + 1 mod n.  sigma carries V_{i/j}, the mutual edges, the path
counts and the relation residuals of (i, j) onto those of (rho i, rho j),
as T_{rho i} e_{sigma u} = sigma T_i e_u, and rho keeps Dynkin adjacency,
so an orbit fails exactly when its representative does.

Compatibility and simplicity are conditions on one edge (u, v) at a time,
and sigma carries each edge's verdict onto the edge (sigma u, sigma v):
sigma preserves weights, so m(sigma v > sigma u) = m(v > u) and the edge
keeps its weight and its reverse; tau(sigma u) = tau(u) + 1 mod n shifts
tau(u) - tau(v) and tau(v) - tau(u) by rho and keeps the order between
tau(u) and tau(v); and rho keeps cyclic Dynkin adjacency.  So (u, v) fails
exactly when (sigma u, sigma v) does.  Every edge (u', v') is sigma^k of
an edge (u, sigma^-k v') out of the least vertex u of the orbit of u',
because sigma maps the edge set onto itself.  So the representatives are
the edges out of one vertex per orbit,
LabeledWGraph.shift_orbit_representatives.  The two edge kernels are
given the sources whose out-edges they scan in the graph's rows (those
vertices, or every vertex), and simplicity finds m(v > u) by bisection in
the row of v.

The quadratic relation holds by construction, for any weights.  If i is
not in tau(u), T_i^2 e_u = q^2 e_u = (q - 1) T_i e_u + q e_u.  Otherwise
T_i e_u = -e_u + o, where every w in o has i not in tau(w), so T_i o = q o
and T_i^2 e_u = e_u - o + q o = (q - 1) T_i e_u + q e_u.  So only the
commutation and braid relations are evaluated, each on e_u in a reduced
form: the same vector, with only the terms expanded that can be nonzero.
Write out_p(z), for p in tau(z), for the pairs (y, v m(z > y)) with p not
in tau(y), so that T_p e_z = -e_z + out_p(z); then (T_p - q) e_z is
out_p(z) - (1 + q) e_z, and 0 when p is not in tau(z).  With p a generator
of the pair in tau(u) and r the other one:

* neither i nor j in tau(u): both sides are q^2 e_u (q^3 e_u); skipped.
* commutation, r not in tau(u): T_r e_u = q e_u, so the residual is
  -(T_r - q) T_p e_u = -(T_r - q)(-e_u + out_p(u)).  T_r - q sends e_u and
  every w of out_p(u) with r not in tau(w) to 0, which leaves the sum of
  c ((1 + q) e_w - out_r(w)) over (w, c) in out_p(u) with r in tau(w).
* braid, r not in tau(u): the residual is (T_p - q) T_r T_p e_u, and
  T_r T_p e_u = -q e_u + the sum of c T_r e_w over (w, c) in out_p(u), where
  T_r e_w = q e_w or -e_w + out_r(w).  T_p - q sends every w to 0 (p is not
  in tau(w)), and every z of out_r(w) with p not in tau(z), which leaves
  q (1 + q) e_u - q out_p(u) + the sum of c d (out_p(z) - (1 + q) e_z) over
  (w, c) in out_p(u) with r in tau(w) and (z, d) in out_r(w) with p in
  tau(z).
* commutation, both in tau(u): T_i T_j e_u = e_u - out_i(u) + the sum of
  c T_i e_w over (w, c) in out_j(u).  Against T_j T_i e_u the e_u terms
  cancel, and so does each w where neither is active: it is in out_i(u)
  and out_j(u) with the same c, and gives c (1 + q) e_w on both sides.  At
  a w of out_j(u) with i in tau(w), c T_i e_w = -c e_w + c out_i(w), and
  its -c e_w cancels the c e_w of out_j(u) (the diagonal of T_i + 1).
  That leaves the sum of c out_i(w) over (w, c) in out_j(u) with i in
  tau(w), minus the same with i and j swapped.
* braid, both in tau(u): both sides are computed in full.  This stays
  general: it never occurs on a two-row graph (no two-row tableau has two
  adjacent descents), so no reduction of it would pay for itself.

The relations are checked exactly, in small integers, with no evaluation
point.  Every matrix entry is q = v^2, -1 or v m, so in each reduced form
every term carries a power of v that the form fixes, and the residual is
P_even(v) A + P_odd(v) B: A and B are integer vectors, and P_even and
P_odd are fixed nonzero polynomials, one with even and one with odd powers
of v only.  No power of v occurs in both, so the residual is zero exactly
when A = 0 and B = 0, and the witnesses are those of the polynomial check.
With c, d, e now the weights m of the successive column entries, each
entry's v counted in the polynomials:

* braid, only p active: (q + q^2) [e_u - sum c d e_z]
  + v^3 [-sum c e_w + sum c d e e_y];
* commutation, only p active: (v + v^3) [sum c e_w] - q [sum c d e_z];
* commutation, both active: q [the two sums above, with the weights m];
* braid, both active: computed in full on a vector keyed by (vertex,
  power of v), which is exact polynomial arithmetic.

The kernel keeps A at key z and B at key ~z = -1 - z of one dict, so the
two parts never share a key.  The columns of a generator i, with the
vertices where i is active, are _generator_columns: column u holds the
adjacency's own (w, m) pairs of u with i not in tau(w), so a column
allocates no pair.  They are built when a pair of the check first reads i
and freed when the check returns; the graph keeps none of them.  So a
check that passes on the representatives (1, 1 + d) builds the generators
1..n/2 + 1 only, the full loop builds the rest, and hecke_holds after
check_hecke_relations builds what it reads again.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import cache, partial
from itertools import chain, combinations, compress, starmap

from .rsk import rsk
from .tableaux import Partition, _Frozen
from .wgraph import Edges, LabeledWGraph, _scc_partition, _weight, dynkin_adjacent, full_subgraph

__all__ = [
    "RuleReport", "check_compatibility", "check_simplicity", "check_bonding",
    "check_polygon", "check_all_rules", "rules_hold",
    "check_hecke_relations", "hecke_holds",
    "classify_restriction_cells", "CellMismatchError",
]


class RuleReport(_Frozen):
    rule: str
    passed: bool
    witnesses: tuple

    def __init__(self, rule, passed, witnesses=()):
        # a copy, so that the caller's lists cannot change the report (a tuple of a tuple is itself)
        vars(self).update(rule=rule, passed=passed, witnesses=tuple(map(tuple, witnesses)))

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "passed": self.passed,
            "witnesses": [list(w) for w in self.witnesses],
        }


def _report(rule: str, witnesses: list) -> RuleReport:
    return RuleReport(rule, not witnesses, sorted(witnesses))


def _orbit_first(g: LabeledWGraph, evaluate, representatives: Iterable, everything: Iterable):
    """
    The witnesses evaluate(everything) yields, or none when the shift is an
    automorphism of g and evaluate(representatives) yields none (module
    docstring).  evaluate is called at most twice and read lazily, so a
    caller that stops at the first witness evaluates no further.
    """
    if g.shift_automorphism is None or next(evaluate(representatives), None) is not None:
        yield from evaluate(everything)


def _edge_witnesses(g: LabeledWGraph, kernel) -> list:
    """
    The witnesses kernel(g, sources) yields over the out-edges of the given
    sources, orbit first: the orbit representatives, then every vertex.
    """
    representatives = g.shift_orbit_representatives or ()
    return list(_orbit_first(g, partial(kernel, g), representatives, range(len(g.tau))))


def _compatibility_edges(g: LabeledWGraph, sources):
    """The compatibility witnesses (u, v, i, j) of the out-edges of the given sources."""
    tau, adj = g.tau, g.adjacency
    for u in sources:
        for v, _ in adj[u]:
            for i in tau[u] - tau[v]:
                for j in tau[v] - tau[u]:
                    if not dynkin_adjacent(g, i, j):
                        yield (u, v, i, j)


def check_compatibility(g: LabeledWGraph) -> RuleReport:
    """Every edge only separates Dynkin-adjacent pairs of tau labels."""
    return _report("compatibility", _edge_witnesses(g, _compatibility_edges))


def _simplicity_edges(g: LabeledWGraph, sources):
    """The simplicity witnesses (u, v) of the out-edges of the given sources."""
    tau, adj = g.tau, g.adjacency
    for u in sources:
        tu = tau[u]
        for v, w in adj[u]:
            tv = tau[v]
            if tu > tv:
                if _weight(adj[v], u) != 0:
                    yield (u, v)
            elif not (tu <= tv or tv <= tu):
                if w != 1 or _weight(adj[v], u) != 1:
                    yield (u, v)
            else:
                yield (u, v)  # tau(u) <= tau(v): not even reduced


def check_simplicity(g: LabeledWGraph) -> RuleReport:
    """One-way edges go strictly down in tau; incomparable edges are mutual of weight 1."""
    return _report("simplicity", _edge_witnesses(g, _simplicity_edges))


def _pair_witnesses(g: LabeledWGraph, kernel):
    """The witnesses kernel(i, j) yields over the generator pairs i < j, orbit first."""
    def evaluate(pairs):
        return chain.from_iterable(starmap(kernel, pairs))

    representatives = ((1, 1 + d) for d in range(1, g.n // 2 + 1))
    return _orbit_first(g, evaluate, representatives, combinations(sorted(g.index_set), 2))


def _generator_class(tau, i: int) -> tuple[list[bool], list[int]]:
    """The flags (i in tau(u)) of every vertex u, and the vertices flagged, in order."""
    flags = [i in t for t in tau]
    return flags, list(compress(range(len(flags)), flags))


def _rule_classes(g: LabeledWGraph):
    """_generator_class of each generator of g, built when a pair of one check first reads it."""
    return cache(partial(_generator_class, g.tau))


def _bonding_pair(g: LabeledWGraph, classes, i: int, j: int) -> list[tuple]:
    """The bonding witnesses (u, a, b, partners) of the generator pair i < j."""
    if not dynkin_adjacent(g, i, j):
        return []
    adj = g.adjacency
    (flag_i, members_i), (flag_j, members_j) = classes(i), classes(j)
    witnesses = []
    sides = ((i, j, flag_i, flag_j, members_i), (j, i, flag_j, flag_i, members_j))
    for a, b, flag_a, flag_b, members in sides:
        for u in members:
            if not flag_b[u]:
                # the mutual partners of u in V_{b/a} (stored weights are nonzero)
                partners = 0
                for v, _ in adj[u]:
                    if flag_b[v] and not flag_a[v] and _weight(adj[v], u):
                        partners += 1
                if partners != 1:
                    witnesses.append((u, a, b, partners))
    return witnesses


def check_bonding(g: LabeledWGraph) -> RuleReport:
    """Adjacent i,j: each u in V_{i/j} has exactly one mutual partner in V_{j/i}."""
    return _report("bonding", list(_pair_witnesses(g, partial(_bonding_pair, g, _rule_classes(g)))))


def _step(
    adj, vec: Iterable[tuple[int, int]], yes: list[bool], no: list[bool], onward: dict[int, int] | None = None
) -> dict[int, int]:
    """
    One path step, kept at the sinks: v -> the sum over the pairs (w, a) of
    vec with yes[w] and not no[w] of a * m(w > v), for the v flagged neither
    yes nor no.  With a dict onward, the sums at the v flagged no and not
    yes, the middle class of the next step, are added into onward.  Nothing
    is kept at any other v.
    """
    sinks: dict[int, int] = {}
    get = sinks.get
    for w, a in vec:
        if yes[w] and not no[w]:
            for v, m in adj[w]:
                if yes[v]:
                    continue
                if not no[v]:
                    sinks[v] = get(v, 0) + a * m
                elif onward is not None:
                    onward[v] = onward.get(v, 0) + a * m
    return sinks


def _polygon_pair(g: LabeledWGraph, classes, i: int, j: int) -> list[tuple]:
    """The polygon witnesses (u, v, i, j, r, lhs, rhs) of the generator pair i < j."""
    (flag_i, members_i), (flag_j, _) = classes(i), classes(j)
    sources = [u for u in members_i if flag_j[u]]
    if not sources:
        return []
    adj = g.adjacency
    adjacent = dynkin_adjacent(g, i, j)
    witnesses = []
    for u in sources:
        # the middle vertices lie in V_{i/j}, then V_{j/i} (left), and the
        # other way round (right); the 2-step keeps sums on the next middle
        # class only when a 3-step follows
        mid_left, mid_right = ({}, {}) if adjacent else (None, None)
        left = _step(adj, adj[u], flag_i, flag_j, mid_left)
        right = _step(adj, adj[u], flag_j, flag_i, mid_right)
        counts = [(2, left, right)]
        if adjacent:
            counts.append(
                (3, _step(adj, mid_left.items(), flag_j, flag_i), _step(adj, mid_right.items(), flag_i, flag_j))
            )
        for r, lhs, rhs in counts:
            # equal sums at every sink: no witness.  Otherwise a sink that
            # one side misses, or where a sum cancels, has 0 on that side
            if lhs != rhs:
                for v in lhs.keys() | rhs.keys():
                    a, b = lhs.get(v, 0), rhs.get(v, 0)
                    if a != b:
                        witnesses.append((u, v, i, j, r, a, b))
    return witnesses


def check_polygon(g: LabeledWGraph) -> RuleReport:
    """
    N^2_{ij}(u,v) = N^2_{ji}(u,v) for all i != j, and N^3 agreement when i,j
    are adjacent, over all u with i,j in tau(u) and v with i,j outside tau(v).
    """
    return _report("polygon", list(_pair_witnesses(g, partial(_polygon_pair, g, _rule_classes(g)))))


def _rule_reports(g: LabeledWGraph):
    """The four rule reports in order, each computed when it is asked for."""
    # the rules are looked up by name on each call, so a patched module
    # attribute (a tracer's wrapper, say) is the one that runs
    yield check_compatibility(g)
    yield check_simplicity(g)
    yield check_bonding(g)
    yield check_polygon(g)


def check_all_rules(g: LabeledWGraph) -> list[RuleReport]:
    return list(_rule_reports(g))


def rules_hold(g: LabeledWGraph) -> bool:
    """Whether all four rules pass; stops at the first failing rule."""
    return all(r.passed for r in _rule_reports(g))


def _generator_columns(tau, adjacency, i: int) -> tuple[tuple[Edges | None, ...], list[int]]:
    """
    The columns of the generator i, and the vertices u with i in tau(u), in
    order: cols[u] is None when i is not in tau(u), where T_i e_u = q e_u,
    and otherwise the adjacency's own pairs (w, m(u > w)) of the out-edges
    with i not in tau(w), so that T_i e_u = -e_u + v * (the sum of m e_w).
    """
    # off[w] is i not in tau(w), read once per vertex, not per edge; each w
    # occurs once in adjacency[u], and a kept w is not u, as i is in tau(u)
    off = [i not in t for t in tau]
    cols = tuple(
        None if skip else tuple([e for e in row if off[e[0]]]) for skip, row in zip(off, adjacency)
    )
    return cols, [u for u, col in enumerate(cols) if col is not None]


def _act(cols, vec: Counter) -> Counter:
    """T vec, for the generator T with the columns cols, on a vector keyed by (vertex, power of v)."""
    out = Counter()
    for (k, e), a in vec.items():
        if cols[k] is None:
            out[k, e + 2] += a
        else:
            out[k, e] -= a
            for w, m in cols[k]:
                out[w, e + 1] += a * m
    return out


def _hecke_pair(g: LabeledWGraph, columns, i: int, j: int):
    """
    The witnesses (relation, i, j, u) of the pair i < j, one per basis
    vertex u where the residual is nonzero.  Each residual is computed in
    the reduced form of its case (module docstring), with p a generator
    active at u and r the other one: only p active (braid, commutation), or
    both active, where (p, r) = (i, j) (braid in full, commutation).  The
    even part of a residual is kept at key z, the odd part at key ~z.
    """
    adjacent = dynkin_adjacent(g, i, j)
    (ci, active_i), (cj, active_j) = columns(i), columns(j)
    # e_u with neither i nor j in tau(u) is skipped (module docstring)
    for p, r, units in ((ci, cj, active_i), (cj, ci, [u for u in active_j if ci[u] is None])):
        for u in units:
            out, other = p[u], r[u]
            residual: dict[int, int] = {}
            get = residual.get
            if other is None and adjacent:
                residual[u] = 1
                for w, c in out:
                    residual[~w] = get(~w, 0) - c
                    if (col := r[w]) is not None:
                        for z, d in col:
                            if (zcol := p[z]) is not None:
                                d *= c
                                residual[z] = get(z, 0) - d
                                for y, e in zcol:
                                    residual[~y] = get(~y, 0) + d * e
            elif other is None:
                for w, c in out:
                    if (col := r[w]) is not None:
                        residual[~w] = c  # the only odd term at w: w occurs once in out
                        for z, d in col:
                            residual[z] = get(z, 0) - c * d
            elif adjacent:
                # never on a two-row graph: T_i T_j T_i e_u - T_j T_i T_j e_u
                residual = _act(p, _act(r, _act(p, Counter({(u, 0): 1}))))
                residual.subtract(_act(r, _act(p, _act(r, Counter({(u, 0): 1})))))
            else:
                for s, vec, sign in ((p, other, 1), (r, out, -1)):
                    for w, c in vec:
                        if (col := s[w]) is not None:
                            for y, e in col:
                                residual[y] = get(y, 0) + sign * c * e
            if residual and any(residual.values()):
                yield ("braid" if adjacent else "commutation", i, j, u)


def _hecke_witnesses(g: LabeledWGraph):
    """
    The Hecke witnesses, orbit first.  Each generator's columns are built
    when a pair first reads them, kept for the other pairs of this check
    and freed with it.
    """
    columns = cache(partial(_generator_columns, g.tau, g.adjacency))
    return _pair_witnesses(g, partial(_hecke_pair, g, columns))


def check_hecke_relations(g: LabeledWGraph) -> RuleReport:
    """
    Verify commutation for non-adjacent pairs and the length-3 braid
    relation for adjacent ones on every basis vector; the quadratic relation
    (T_i - q)(T_i + 1) = 0 holds by construction (module docstring).
    Witnesses are (relation, i, j, basis vertex).
    """
    return _report("hecke", list(_hecke_witnesses(g)))


def hecke_holds(g: LabeledWGraph) -> bool:
    """Same as check_hecke_relations but stops at the first failure."""
    return next(_hecke_witnesses(g), None) is None


class CellMismatchError(RuntimeError):
    """The SCC partition of the restriction disagrees with the RSK fibers."""


def classify_restriction_cells(restricted: LabeledWGraph) -> dict[Partition, LabeledWGraph]:
    """
    Check that the cells of an affine graph restricted to [1, n-1] are
    exactly the fibers of the RSK recording tableau, and return them keyed
    by the insertion shape (which determines the recording tableau for
    two-row content).
    """
    # the members lie in 1..n, so the size decides (n may be too large for a range)
    if len(restricted.index_set) != restricted.n - 1 or restricted.n in restricted.index_set:
        raise ValueError(f"expected a graph restricted to 1..{restricted.n - 1}")
    fibers = _restriction_fibers(restricted, [rsk(t).q for t in restricted.vertices])
    return {key: full_subgraph(restricted, ids) for key, ids in fibers.items()}


def _restriction_fibers(restricted: LabeledWGraph, recording: Iterable[tuple]) -> dict[Partition, list[int]]:
    """
    classify_restriction_cells on a graph known to be restricted to 1..n-1,
    with recording[k] the rows of the recording tableau of vertex k,
    returning each cell as its sorted vertex indices; a vertex is read only
    to name the shape in an error.
    """
    # rows of the recording tableau -> the vertices it records, in order
    fibers: dict[tuple, list[int]] = {}
    for k, q in enumerate(recording):
        fibers.setdefault(q, []).append(k)
    components = {frozenset(comp) for comp in _scc_partition(restricted)}
    if {frozenset(ids) for ids in fibers.values()} != components:
        fault = "RSK fibers differ from strongly connected components"
    else:
        result = {Partition(tuple(map(len, q))): ids for q, ids in fibers.items()}
        if len(result) == len(fibers):
            return result
        fault = "insertion shapes do not separate the fibers"
    raise CellMismatchError(f"{fault} for {restricted.vertices[0].shape}")
