import gc
import random
import sys
from itertools import combinations
from math import factorial, prod

import pytest

from affwgraph import (
    Partition,
    RowStandardTableau,
    affine_descents,
    enumerate_rsyt,
    enumerate_syt,
    finite_descents,
    mo,
    pint,
    rsk,
)
from affwgraph.tableaux import _check_size, from_row_codes, row_codes, shift_permutation, tableau_text
from affwgraph.wgraph import graph_from_json

from conftest import all_partitions, dominance_leq, exactly, is_knuth_move, omega_shift, two_row_shapes


def T(*rows):
    return RowStandardTableau(tuple(tuple(r) for r in rows))


class TestPartition:
    def test_validation(self):
        assert Partition((3, 2)).n == 5
        assert Partition((3, 2)).op == (2, 3)
        with pytest.raises(ValueError):
            Partition((2, 3))
        with pytest.raises(ValueError):
            Partition((1, 1))  # size below 3
        with pytest.raises(ValueError):
            Partition((3, 0))
        for parts in [(2.5, 0.5), (True, True, True)]:
            with pytest.raises(ValueError):
                Partition(parts)

    def test_dominance(self):
        assert dominance_leq(Partition((3, 2)), Partition((4, 1)))
        assert not dominance_leq(Partition((4, 1)), Partition((3, 2)))
        assert dominance_leq(Partition((3, 2)), Partition((3, 2)))
        with pytest.raises(ValueError):
            dominance_leq(Partition((3, 2)), Partition((3, 3)))


class TestResidues:
    def test_mo(self):
        assert mo(0, 5) == 5
        assert mo(-1, 5) == 4
        assert mo(7, 5) == 2

    def test_pint(self):
        assert pint(1, 5, 5) == frozenset()
        assert pint(2, 1, 5) == frozenset()
        assert pint(3, 3, 5) == {3}
        assert pint(4, 2, 5) == {4, 5, 1, 2}

    def test_pint_wrap_one_short_of_full(self):
        # from a+1 around to a-1: everything except a
        assert pint(3, 1, 5) == {3, 4, 5, 1}

    @pytest.mark.parametrize(
        "a, b, n",
        # True == 1 and 1.0 == 1 would pass the range check
        [(0, 3, 5), (1, 6, 5), (1.0, 3, 5), (True, 3, 5), (1, 3.0, 5), (1, True, 5), (1, 3, 5.0)],
        ids=["a 0", "b n + 1", "a float", "a bool", "b float", "b bool", "n float"],
    )
    def test_pint_rejects_a_residue_out_of_range_or_not_an_int(self, a, b, n):
        with pytest.raises(ValueError, match="residues out of range"):
            pint(a, b, n)


class TestDescents:
    def test_affine_examples(self):
        assert affine_descents(T([1, 2, 3], [4, 5])) == {3}
        assert affine_descents(T([2, 4, 5], [1, 3])) == {2, 5}
        assert affine_descents(T([1, 3, 5], [2, 4, 6])) == {1, 3, 5}

    def test_finite_examples(self):
        assert finite_descents(T([1, 2, 3], [4, 5])) == {3}
        assert finite_descents(T([2, 3], [1])) == frozenset()
        assert finite_descents(T([1, 3], [2])) == {1}

    def test_two_row_no_cyclically_adjacent_descents(self):
        for shape in two_row_shapes(3, 7):
            for t in enumerate_rsyt(shape):
                des = affine_descents(t)
                for i in des:
                    assert mo(i + 1, t.n) not in des


class TestOmega:
    def test_examples(self):
        assert omega_shift(T([1, 2, 3], [4, 5])) == T([2, 3, 4], [1, 5])
        assert omega_shift(T([2, 3], [1])) == T([1, 3], [2])

    def test_full_cycle_is_identity(self):
        for shape in two_row_shapes(3, 6):
            for t in enumerate_rsyt(shape):
                u = t
                for _ in range(t.n):
                    u = omega_shift(u)
                assert u == t

    def test_bijection(self):
        for shape in two_row_shapes(3, 6):
            tabs = enumerate_rsyt(shape)
            assert sorted(omega_shift(t).rows for t in tabs) == sorted(t.rows for t in tabs)

    def test_shift_permutation_matches_omega_shift(self):
        for shape in two_row_shapes(3, 10):
            tabs = enumerate_rsyt(shape)
            index = {t: k for k, t in enumerate(tabs)}
            assert shift_permutation(shape.n, *row_codes(tabs)) == tuple(index[omega_shift(t)] for t in tabs)

    def test_shift_permutation_needs_every_image(self):
        tabs = enumerate_rsyt(Partition((3, 2)))
        assert shift_permutation(5, *row_codes(tabs[1:])) is None

    def test_descent_equivariance(self):
        for shape in two_row_shapes(3, 7):
            for t in enumerate_rsyt(shape):
                shifted = frozenset(mo(i + 1, t.n) for i in affine_descents(t))
                assert affine_descents(omega_shift(t)) == shifted


@pytest.mark.parametrize("n", range(3, 9))
def test_from_row_codes_inverts_row_codes(n):
    # every shape of size n, its codes in the enumeration order and shuffled
    rng = random.Random(n)
    for parts in all_partitions(n):
        tabs = enumerate_rsyt(Partition(parts))
        _, codes = row_codes(tabs)
        made = from_row_codes(parts, codes)
        assert type(made) is tuple and list(made) == tabs, parts
        assert all(type(t) is RowStandardTableau and type(t.rows) is tuple for t in made)
        order = list(range(len(tabs)))
        rng.shuffle(order)
        assert list(from_row_codes(parts, [codes[k] for k in order])) == [tabs[k] for k in order], parts
    assert from_row_codes((n,), []) == ()


class TestKnuth:
    def test_examples(self):
        assert is_knuth_move(T([1, 2, 3], [4, 5]), T([1, 2, 4], [3, 5]))
        t = T([1, 2, 3], [4, 5])
        assert not is_knuth_move(t, t)
        assert not is_knuth_move(t, T([3, 4, 5], [1, 2]))

    def test_symmetric(self):
        tabs = enumerate_rsyt(Partition((3, 2)))
        for a in tabs:
            for b in tabs:
                assert is_knuth_move(a, b) == is_knuth_move(b, a)


class TestEnumeration:
    def test_small_shape(self):
        assert [t.rows for t in enumerate_rsyt(Partition((2, 1)))] == [
            ((2, 3), (1,)),
            ((1, 3), (2,)),
            ((1, 2), (3,)),
        ]

    def test_counts_against_subset_enumeration(self):
        for a in range(2, 9):
            for b in range(2, a + 1):
                if a + b > 10:
                    continue
                count = sum(1 for _ in combinations(range(a + b), b))
                assert len(enumerate_rsyt(Partition((a, b)))) == count

    def test_reference_graph_sizes(self):
        assert len(enumerate_rsyt(Partition((3, 2)))) == 10
        assert len(enumerate_rsyt(Partition((3, 3)))) == 20

    def test_reading_word_order(self):
        tabs = enumerate_rsyt(Partition((3, 2)))
        # the rows from bottom to top
        words = [sum(reversed(t.rows), ()) for t in tabs]
        assert words == sorted(words)

    def test_standard_tableaux_against_the_hook_length_formula(self):
        # an oracle reading neither enumerate_rsyt nor is_standard: as many
        # tableaux as the hook-length formula counts, each with rows and
        # columns strictly increasing, distinct, in reading-word order
        for n in range(3, 10):
            for parts in all_partitions(n):
                tabs = enumerate_syt(Partition(parts))
                assert len(tabs) == _hook_length_count(parts), parts
                for t in tabs:
                    rows = t.rows
                    assert tuple(map(len, rows)) == parts
                    assert sorted(e for row in rows for e in row) == list(range(1, n + 1))
                    assert all(row[c] < row[c + 1] for row in rows for c in range(len(row) - 1)), t
                    assert all(
                        rows[a - 1][c] < rows[a][c] for a in range(1, len(rows)) for c in range(len(rows[a]))
                    ), t
                words = [sum(reversed(t.rows), ()) for t in tabs]
                assert len(set(words)) == len(words) and words == sorted(words), parts

    # the row-standard tableaux of each shape against the largest size a
    # sequence can index; the shapes over it are rejected before anything
    # is allocated, so none of these is enumerated
    SIZES = {
        (33, 33): 7219428434016265740,  # C(66, 33): fits
        (34, 33): 14226520737620288370,  # C(67, 33): does not
        (20, 20, 20): factorial(60) // factorial(20) ** 3,
        (10**19, 1): 10**19 + 1,  # more entries than a sequence can index
    }

    @pytest.mark.parametrize("parts", SIZES, ids=str)
    def test_size_checked_before_enumerating(self, parts):
        shape = Partition(parts)
        if self.SIZES[parts] <= sys.maxsize:
            assert _check_size(shape) is None
        elif shape.n > sys.maxsize:
            with pytest.raises(ValueError, match=exactly(f"shape {shape} is too large: {shape.n} entries")):
                enumerate_rsyt(shape)
        else:
            message = f"shape {shape} is too large: more than {sys.maxsize} row-standard tableaux"
            with pytest.raises(ValueError, match=exactly(message)):
                enumerate_rsyt(shape)

    def test_leaves_no_reference_cycles(self):
        # a recursive closure would leave a cycle holding the result list
        # for the cyclic collector on every call
        gc.collect()
        gc.disable()
        try:
            enumerate_syt(Partition((4, 3, 2)))
            assert gc.collect() == 0
        finally:
            gc.enable()


def _hook_length_count(parts: tuple[int, ...]) -> int:
    """n! over the product of the hook lengths of the cells of the diagram."""
    column_lengths = [sum(1 for p in parts if p > c) for c in range(parts[0])]
    # the hook of cell (a, c): its arm (parts[a] - c - 1), its leg and itself
    hooks = prod(parts[a] - c + column_lengths[c] - a - 1 for a in range(len(parts)) for c in range(parts[a]))
    return factorial(sum(parts)) // hooks


# rows, and the whole message they are rejected with
BAD_ROWS = [
    (([1, 2], [3, 4], [5, 6, 7]), "parts must be weakly decreasing: (2, 2, 3)"),
    (([2, 1], [2, 3]), "entries must be exactly 1..n: ((1, 2), (2, 3))"),  # duplicate entry
    (([3, 1, 2], [5, 6]), "entries must be exactly 1..n: ((1, 2, 3), (5, 6))"),  # 4 missing
    (([1.0, 2, 3], [4, 5]), "tableau entries must be integers: ((1.0, 2, 3), (4, 5))"),  # look-alikes
    (([True, 2, 3], [4, 5]), "tableau entries must be integers: ((True, 2, 3), (4, 5))"),
    (([3, 2, "1"], [4, 5]), "tableau entries must be integers: ((3, 2, '1'), (4, 5))"),
    (([1, 2], []), "parts must be positive integers: (2, 0)"),
    (([1], [2]), "partition size must be at least 3: (1, 1)"),
]


def _one_vertex_graph(rows: list) -> dict:
    """The JSON of an edgeless graph whose one vertex has these rows."""
    n = sum(map(len, rows))
    return {"n": n, "index_set": [], "vertices": [{"rows": rows, "n": n}], "tau": [[]], "edges": []}


class TestTableauValue:
    def test_rows_are_sorted_and_validated(self):
        assert T([3, 1, 2]).rows == ((1, 2, 3),)
        for rows, message in BAD_ROWS:
            with pytest.raises(ValueError, match=exactly(message)):
                T(*rows)

    def test_row_of_names_a_missing_entry(self):
        t = T([1, 2, 3], [4, 5])
        assert [t.row_of(e) for e in range(1, 6)] == [1, 1, 1, 2, 2]
        with pytest.raises(ValueError, match=exactly("6 not in tableau ((1, 2, 3), (4, 5))")):
            t.row_of(6)

    def test_derived_tableaux_equal_validated_ones(self):
        # enumerate_rsyt and the insertion tableau of rsk store their rows
        # unchecked
        def same(t):
            u = RowStandardTableau(t.rows)
            return u == t and hash(u) == hash(t) and u.rows == t.rows

        for n in range(3, 10):
            for parts in all_partitions(n):
                if len(parts) > 3:
                    continue
                for t in enumerate_rsyt(Partition(parts)):
                    assert same(t) and same(omega_shift(t)) and same(rsk(t).p), t

    def test_json_boundary_validates(self):
        # the vertex JSON format is read by graph_from_json, which builds
        # each vertex with the checking constructor and names the vertex
        # before the constructor's message
        for rows, message in BAD_ROWS:
            with pytest.raises(ValueError, match=exactly("vertex 0: " + message)):
                graph_from_json(_one_vertex_graph([list(row) for row in rows]))

    def test_text_and_json(self):
        t = T([1, 2, 3], [4, 5])
        assert tableau_text(t) == "123/45"
        assert graph_from_json(_one_vertex_graph([[1, 2, 3], [4, 5]])).vertices == (t,)

    def test_text_wide_entries(self):
        t = T(list(range(2, 12)), [1])
        assert tableau_text(t) == "2 3 4 5 6 7 8 9 10 11/1"
