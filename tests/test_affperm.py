import gc
import random
from itertools import permutations

import pytest

from affwgraph import (
    AffinePermutation,
    Partition,
    RowStandardTableau,
    affine_descents,
    enumerate_rsyt,
    finite_descents,
    min_coset_reps,
)
from affwgraph.affperm import canonical_tableau, inverse, tableau_action
from affwgraph.tableaux import mo

from conftest import all_partitions, exactly, omega_shift, swapped, two_row_shapes


def T(*rows):
    return RowStandardTableau(tuple(tuple(r) for r in rows))


# Window arithmetic beyond the inverse, which only the tests use: values
# at any integer, the generators, products and descent sets that the tableau action and the
# coset correspondence are checked against.


def identity(n: int) -> AffinePermutation:
    return AffinePermutation(tuple(range(1, n + 1)))


def simple_reflection(i: int, n: int) -> AffinePermutation:
    """s_i for 1 <= i <= n-1; s_0 = s_n is [0, 2, ..., n-1, n+1]."""
    r = mo(i, n)
    window = list(range(1, n + 1))
    if r == n:
        window[0], window[n - 1] = 0, n + 1
    else:
        window[r - 1], window[r] = r + 1, r
    return AffinePermutation(tuple(window))


def cyclic_shift(n: int) -> AffinePermutation:
    """The element [2, 3, ..., n+1] whose conjugation realizes omega."""
    return AffinePermutation(tuple(range(2, n + 2)))


def value(w: AffinePermutation, k: int) -> int:
    """w(k) at any integer k, via the periodic extension w(k+n) = w(k)+n."""
    r = mo(k, w.n)
    return w.window[r - 1] + (k - r)


def compose(u: AffinePermutation, w: AffinePermutation) -> AffinePermutation:
    """(u o w)(k) = u(w(k))."""
    if u.n != w.n:
        raise ValueError(f"sizes differ: {u.n} vs {w.n}")
    return AffinePermutation(tuple(value(u, x) for x in w.window))


def right_descents(w: AffinePermutation) -> frozenset[int]:
    """{i in [1,n] : w(i) > w(i+1)}, reading i = n through the extension."""
    return frozenset(i for i in range(1, w.n + 1) if value(w, i) > value(w, i + 1))


def left_descents(w: AffinePermutation) -> frozenset[int]:
    return right_descents(inverse(w))


class TestWindows:
    def test_validation(self):
        AffinePermutation((0, 2, 4))
        with pytest.raises(ValueError):
            AffinePermutation((1, 1, 3))

    @pytest.mark.parametrize("window", [(1.0, 2, 3), (True, 2, 3)])
    def test_rejects_entries_that_are_not_ints(self, window):
        # both have distinct residues: 1.0 would then fail to index in
        # inverse, and True would equal and hash as the window (1, 2, 3)
        with pytest.raises(ValueError, match=exactly(f"window entries must be integers: {window}")):
            AffinePermutation(window)

    def test_is_affine(self):
        # the non-extended affine group: windows summing to n(n+1)/2
        assert sum(identity(4).window) == 10
        assert sum(simple_reflection(0, 3).window) == 6
        assert sum(cyclic_shift(4).window) != 10

    def test_periodic_extension(self):
        w = AffinePermutation((0, 2, 4))
        assert value(w, 4) == value(w, 1) + 3
        assert value(w, 0) == value(w, 3) - 3


class TestCompose:
    def test_identity(self):
        w = AffinePermutation((3, 1, 2))
        assert compose(identity(3), w) == w
        assert compose(w, identity(3)) == w

    def test_involution(self):
        s1 = simple_reflection(1, 3)
        assert compose(s1, s1) == identity(3)

    def test_inverse(self):
        omega = cyclic_shift(4)
        assert compose(omega, inverse(omega)) == identity(4)
        for window in [(0, 2, 4), (2, 3, 1), (4, 2, 0)]:
            w = AffinePermutation(window)
            assert compose(w, inverse(w)) == identity(3)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))


class TestDescents:
    def test_examples(self):
        assert right_descents(identity(4)) == frozenset()
        assert right_descents(AffinePermutation((2, 1, 3))) == {1}
        assert right_descents(simple_reflection(0, 3)) == {3}

    def test_left_descents_of_reflection(self):
        s2 = simple_reflection(2, 4)
        assert left_descents(s2) == right_descents(s2) == {2}


class TestCosetReps:
    def test_small_example(self):
        reps = [w.window for w in min_coset_reps(Partition((2, 1)))]
        assert reps == [(1, 2, 3), (2, 1, 3), (3, 1, 2)]

    def test_cardinality(self):
        assert len(min_coset_reps(Partition((3, 2)))) == 10

    def test_single_block(self):
        assert [w.window for w in min_coset_reps(Partition((4,)))] == [(1, 2, 3, 4)]

    def test_blocks_increasing(self):
        for w in min_coset_reps(Partition((3, 2))):
            assert w.window[0] < w.window[1]
            assert w.window[2] < w.window[3] < w.window[4]

    def test_matches_brute_force(self):
        for n in range(3, 7):
            for parts in all_partitions(n):
                shape = Partition(parts)
                starts = [sum(shape.op[:k]) for k in range(len(shape.op) + 1)]
                expected = [
                    w for w in permutations(range(1, n + 1))
                    if all(list(w[a:b]) == sorted(w[a:b]) for a, b in zip(starts, starts[1:]))
                ]
                assert [w.window for w in min_coset_reps(shape)] == expected, parts

    @pytest.mark.parametrize("shape", two_row_shapes(3, 8), ids=str)
    def test_matches_literal_oracle_on_two_row_shapes(self, shape):
        # every permutation of 1..n that increases on each block of shape.op, sorted
        starts = [0]
        for size in shape.op:
            starts.append(starts[-1] + size)
        expected = sorted(
            w for w in permutations(range(1, shape.n + 1))
            if all(w[k] < w[k + 1] for a, b in zip(starts, starts[1:]) for k in range(a, b - 1))
        )
        assert [w.window for w in min_coset_reps(shape)] == expected

    def test_windows_are_the_reading_words_of_the_enumeration(self):
        # the reading word (bottom row first) of each row-standard tableau,
        # in enumerate_rsyt order, is the window sending the canonical tableau to it
        for n in range(3, 9):
            for parts in all_partitions(n):
                shape = Partition(parts)
                words = [tuple(e for row in reversed(t.rows) for e in row) for t in enumerate_rsyt(shape)]
                assert [w.window for w in min_coset_reps(shape)] == words, parts

    def test_too_large_a_shape_fails_at_once(self):
        # C(80, 40) windows, more than a list can index: the shape is rejected
        # as enumerate_rsyt rejects it, before anything is allocated
        shape = Partition((40, 40))
        with pytest.raises(ValueError) as rejected:
            enumerate_rsyt(shape)
        with pytest.raises(ValueError, match=exactly(str(rejected.value))):
            min_coset_reps(shape)

    def test_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            min_coset_reps(Partition((5, 4)))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestUpsilon:
    """upsilon, the map sending w to w applied to the canonical tableau."""

    def test_canonical(self):
        assert canonical_tableau(Partition((2, 1))) == T([2, 3], [1])
        assert tableau_action(identity(3), canonical_tableau(Partition((2, 1)))) == T([2, 3], [1])

    def test_swap(self):
        canonical = canonical_tableau(Partition((2, 1)))
        assert tableau_action(AffinePermutation((2, 1, 3)), canonical) == T([1, 3], [2])

    def test_bijectivity(self):
        for shape in two_row_shapes(3, 7):
            images = {tableau_action(w, canonical_tableau(shape)) for w in min_coset_reps(shape)}
            assert images == set(enumerate_rsyt(shape))


class TestTableauAction:
    def test_s0_examples(self):
        s0 = simple_reflection(0, 5)
        assert tableau_action(s0, T([1, 2, 3], [4, 5])) == T([2, 3, 5], [1, 4])
        assert tableau_action(s0, T([2, 3, 4], [1, 5])) == T([2, 3, 4], [1, 5])

    def test_rejects_a_window_of_another_size(self):
        with pytest.raises(ValueError, match=exactly("sizes differ: 4 vs 3")):
            tableau_action(identity(4), T([2, 3], [1]))

    def test_s0_involution(self):
        s0 = simple_reflection(0, 5)
        for t in enumerate_rsyt(Partition((3, 2))):
            assert tableau_action(s0, tableau_action(s0, t)) == t

    def test_generators_match_closed_form(self):
        # a word in the generators, applied step by step, agrees with the
        # entry-wise action of the window product
        rng = random.Random(11)
        for shape in two_row_shapes(3, 6):
            n = shape.n
            for _ in range(25):
                word = [rng.randrange(n) for _ in range(rng.randint(0, 12))]
                for t in (canonical_tableau(shape), enumerate_rsyt(shape)[-1]):
                    stepped = t
                    w = identity(n)
                    for i in word:
                        gen = simple_reflection(i, n)
                        # s_0 switches 1 and n, s_i switches i and i + 1
                        stepped = swapped(stepped, i, i + 1) if i else swapped(stepped, 1, n)
                        w = compose(gen, w)
                    assert tableau_action(w, t) == stepped

    def test_cyclic_shift_acts_as_omega(self):
        for shape in two_row_shapes(3, 6):
            omega = cyclic_shift(shape.n)
            for t in enumerate_rsyt(shape):
                assert tableau_action(omega, t) == omega_shift(t)


class TestDescentCorrespondence:
    def test_finite_part(self):
        for shape in two_row_shapes(3, 7):
            n = shape.n
            for w in min_coset_reps(shape):
                image = tableau_action(w, canonical_tableau(shape))
                expected = frozenset(i for i in left_descents(w) if i < n)
                assert finite_descents(image) == expected

    def test_affine_part(self):
        for shape in two_row_shapes(3, 7):
            n = shape.n
            for w in min_coset_reps(shape):
                image = tableau_action(w, canonical_tableau(shape))
                winv = inverse(w)
                predicted = image.row_of(1) != image.row_of(n) and value(winv, 1) < value(winv, n)
                assert (n in affine_descents(image)) == predicted


class TestTrustedValues:
    """Coset representatives, inverses, products and images are built unchecked."""

    def test_derived_permutations_equal_validated_ones(self):
        def same(w):
            u = AffinePermutation(w.window)
            return type(w.window) is tuple and u == w and hash(u) == hash(w)

        for shape in two_row_shapes(3, 9):
            reps = min_coset_reps(shape)
            s0 = simple_reflection(0, shape.n)  # window entries 0 and n + 1
            for w, u in zip(reps, reps[1:] + reps[:1]):
                assert same(w) and same(inverse(w)) and same(inverse(compose(w, u))), (shape, w, u)
                assert same(inverse(compose(s0, w))) and same(inverse(compose(w, s0))), (shape, w)

    def test_images_equal_validated_tableaux(self):
        for shape in two_row_shapes(3, 9):
            for w in min_coset_reps(shape):
                image = tableau_action(w, canonical_tableau(shape))
                assert image == RowStandardTableau(image.rows) and type(image.rows) is tuple
