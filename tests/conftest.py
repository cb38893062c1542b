from __future__ import annotations

from affwgraph import Partition, RowStandardTableau, affine_descents, finite_descents, mo


def two_row_shapes(min_n: int, max_n: int) -> list[Partition]:
    return [
        Partition((n - b, b))
        for n in range(min_n, max_n + 1)
        for b in range(1, n // 2 + 1)
    ]


def all_partitions(n: int) -> list[tuple[int, ...]]:
    """Every partition of n, as tuples (independent of the library)."""
    result = []

    def extend(prefix: list[int], remaining: int, cap: int):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(prefix + [part], remaining - part, part)

    extend([], n, n)
    return result


def count_ssyt(shape: tuple[int, ...], content: tuple[int, ...], cap: int | None = None) -> int:
    """
    Brute-force count of semistandard fillings of `shape` with `content[k]`
    copies of k+1: weakly increasing rows, strictly increasing columns.
    """
    rows = len(shape)
    grid = [[0] * shape[r] for r in range(rows)]
    remaining = list(content)
    cells = [(r, c) for r in range(rows) for c in range(shape[r])]
    found = 0

    def fill(pos: int) -> int:
        nonlocal found
        if pos == len(cells):
            found += 1
            return found
        r, c = cells[pos]
        low = grid[r][c - 1] if c > 0 else 1
        low = max(low, grid[r - 1][c] + 1 if r > 0 else 1)
        for value in range(low, len(remaining) + 1):
            if remaining[value - 1] == 0:
                continue
            grid[r][c] = value
            remaining[value - 1] -= 1
            fill(pos + 1)
            remaining[value - 1] += 1
            grid[r][c] = 0
            if cap is not None and found >= cap:
                return found
        return found

    fill(0)
    return found


def dominance_leq(mu: Partition, nu: Partition) -> bool:
    """True when every prefix sum of mu is at most the one of nu."""
    if mu.n != nu.n:
        raise ValueError(f"sizes differ: {mu} vs {nu}")
    total_mu = total_nu = 0
    for k in range(max(mu.length, nu.length)):
        total_mu += mu.parts[k] if k < mu.length else 0
        total_nu += nu.parts[k] if k < nu.length else 0
        if total_mu > total_nu:
            return False
    return True


def omega_shift(t: RowStandardTableau) -> RowStandardTableau:
    """
    Replace every entry i with mo(i+1) and re-sort the rows: the oracle of
    tableaux.shift_permutation.
    """
    n = t.n
    return RowStandardTableau(tuple(tuple(sorted(mo(e + 1, n) for e in row)) for row in t.rows))


def swapped(t: RowStandardTableau, x: int, y: int) -> RowStandardTableau:
    """t with the entries x and y interchanged, through the validated constructor."""
    return RowStandardTableau(tuple(tuple(y if e == x else x if e == y else e for e in row) for row in t.rows))


def is_knuth_move(t, u) -> bool:
    """
    True when u arises from t by interchanging mo(i) and mo(i+1) for some i
    and the affine descent sets of t and u are incomparable: the oracle of
    build_dual_equiv.
    """
    if t.shape != u.shape:
        raise ValueError("tableaux must have the same shape")
    dt, du = affine_descents(t), affine_descents(u)
    if dt <= du or du <= dt:
        return False
    n = t.n
    for i in range(1, n + 1):
        x, y = mo(i, n), mo(i + 1, n)
        if t.row_of(x) != t.row_of(y) and swapped(t, x, y) == u:
            return True
    return False


def finite_knuth(t, u) -> bool:
    """Interchange of i, i+1 (i < n) with incomparable finite descent sets."""
    if t.shape != u.shape:
        return False
    dt, du = finite_descents(t), finite_descents(u)
    if dt <= du or du <= dt:
        return False
    for i in range(1, t.n):
        if t.row_of(i) != t.row_of(i + 1) and swapped(t, i, i + 1) == u:
            return True
    return False
