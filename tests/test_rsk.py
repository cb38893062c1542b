import pytest

from affwgraph import (
    Partition,
    RowStandardTableau,
    enumerate_rsyt,
    enumerate_syt,
    finsh,
    is_standard,
    rsk,
)

from conftest import all_partitions, dominance_leq, finite_knuth, omega_shift, two_row_shapes


def T(*rows):
    return RowStandardTableau(tuple(tuple(r) for r in rows))


def component_index(t: RowStandardTableau) -> int:
    """
    For equal-row shapes (a,a): 0 when the second row of finsh(t) has the
    same parity as a, else 1.  Constant on connected components of the
    Knuth-move graph, and 0 exactly on the component of the standard tableaux.
    """
    shape = t.shape
    if not shape.is_equal_row:
        raise ValueError(f"shape must have two equal rows: {shape}")
    a = shape.parts[0]
    fs = finsh(t).parts
    second = fs[1] if len(fs) > 1 else 0
    return (a - second) % 2


def check_recording_tableau(t, pair):
    """Q is a semistandard tableau of P's shape with content sh(T) reversed."""
    q, depth = pair.q, len(t.rows)
    assert type(q) is tuple and all(type(row) is tuple for row in q)
    assert all(row[c] <= row[c + 1] for row in q for c in range(len(row) - 1))
    assert all(q[a][c] > q[a - 1][c] for a in range(1, len(q)) for c in range(len(q[a])))
    entries = [e for row in q for e in row]
    assert all(type(e) is int and 1 <= e <= depth for e in entries)
    assert tuple(map(len, q)) == pair.p.shape.parts
    assert tuple(entries.count(v) for v in range(1, depth + 1)) == t.shape.op


def test_worked_example():
    t = T([2, 4, 5, 7], [3, 6, 9], [1, 8])
    pair = rsk(t)
    assert pair.p.rows == ((1, 2, 4, 5, 7), (3, 6, 9), (8,))
    assert pair.q == ((1, 1, 2, 2, 3), (2, 3, 3), (3,))
    check_recording_tableau(t, pair)
    assert finsh(t) == Partition((5, 3, 1))


def test_recording_tableau_is_semistandard():
    for n in range(3, 8):
        for parts in all_partitions(n):
            for t in enumerate_rsyt(Partition(parts)):
                check_recording_tableau(t, rsk(t))


def test_standard_is_fixed():
    for shape in two_row_shapes(3, 7):
        for t in enumerate_syt(shape):
            assert rsk(t).p == t
    assert finsh(T([1, 2, 4], [3, 5])) == Partition((3, 2))


def test_single_row_collapse():
    assert rsk(T([2, 3], [1])).p == T([1, 2, 3])
    assert finsh(T([2, 3], [1])) == Partition((3,))


def test_dominance_and_standard_equivalence():
    shapes = [Partition(p) for p in all_partitions(6) if len(p) >= 1] + two_row_shapes(7, 8)
    for shape in shapes:
        for t in enumerate_rsyt(shape):
            fs = finsh(t)
            assert dominance_leq(shape, fs)
            assert (fs == shape) == is_standard(t)


def test_injectivity():
    shapes = [Partition(p) for p in all_partitions(6)] + two_row_shapes(7, 8)
    for shape in shapes:
        seen = set()
        for t in enumerate_rsyt(shape):
            pair = rsk(t)
            key = (pair.p.rows, pair.q)
            assert key not in seen
            seen.add(key)


def test_component_index():
    assert component_index(T([1, 3, 5], [2, 4, 6])) == 0
    assert component_index(T([2, 4, 6], [1, 3, 5])) == 1
    for a in (2, 3, 4):
        for t in enumerate_syt(Partition((a, a))):
            assert component_index(t) == 0
    with pytest.raises(ValueError):
        component_index(T([1, 2, 3], [4, 5]))


def test_shift_case_table():
    # insertion-shape change under the cyclic shift, split by the row of n
    for shape in two_row_shapes(3, 8):
        n = shape.n
        lam = shape.parts
        for t in enumerate_rsyt(shape):
            before = finsh(t).parts
            after = finsh(omega_shift(t)).parts
            a, b = before[0], before[1] if len(before) > 1 else 0
            if before == lam:
                expected = lam if n in t.rows[0] else (a + 1, b - 1)
            elif b == 0:
                assert n in t.rows[0]
                expected = (n - 1, 1)
            elif n in t.rows[0]:
                expected = (a - 1, b + 1)
            else:
                expected = (a + 1, b - 1)
            assert after == tuple(p for p in expected if p), (shape, t)
            if after == before:
                assert is_standard(t) and is_standard(omega_shift(t))


def test_unequal_rows_have_consecutive_standard_shifts():
    for shape in two_row_shapes(3, 8):
        if shape.is_equal_row:
            continue
        for t in enumerate_rsyt(shape):
            orbit = [t]
            for _ in range(shape.n - 1):
                orbit.append(omega_shift(orbit[-1]))
            flags = [is_standard(u) for u in orbit]
            assert any(
                flags[k] and flags[(k + 1) % shape.n] for k in range(shape.n)
            ), (shape, t)


def test_equal_rows_have_standard_shift():
    for a in (2, 3, 4):
        shape = Partition((a, a))
        for t in enumerate_rsyt(shape):
            orbit = [t]
            for _ in range(shape.n - 1):
                orbit.append(omega_shift(orbit[-1]))
            assert any(is_standard(u) for u in orbit), (shape, t)


def test_knuth_move_matches_insertion_recording():
    # a pair with incomparable finite descents is Knuth-connected exactly
    # when the recording tableaux agree and the insertion tableaux are
    for shape in two_row_shapes(3, 7):
        tabs = enumerate_rsyt(shape)
        pairs = {t: rsk(t) for t in tabs}
        for t in tabs:
            for u in tabs:
                if t == u:
                    continue
                lhs = finite_knuth(t, u)
                rhs = pairs[t].q == pairs[u].q and finite_knuth(pairs[t].p, pairs[u].p)
                assert lhs == rhs, (shape, t, u)
