"""
Elements of the extended affine symmetric group in window notation and
their inverses, the minimal coset representatives of S_n modulo a
row-stabilizer (the reading words of the one enumeration of row-standard
fillings, in tableaux), and the coset/tableau correspondence sending a
representative w to w applied to the canonical tableau.

A window [w(1), ..., w(n)] extends to all of Z by w(k+n) = w(k)+n.
"""

from __future__ import annotations

from .tableaux import Partition, RowStandardTableau, _fillings, _Frozen, mo

__all__ = ["AffinePermutation", "inverse", "min_coset_reps", "canonical_tableau", "tableau_action"]


class AffinePermutation(_Frozen):
    window: tuple[int, ...]

    def __init__(self, window):
        window = tuple(window)
        n = len(window)
        # True == 1 and 1.0 == 1 would pass the residue check, and 1.0 cannot index
        if not all(type(w) is int for w in window):
            raise ValueError(f"window entries must be integers: {window}")
        if sorted(mo(w, n) for w in window) != list(range(1, n + 1)):
            raise ValueError(f"window entries must have distinct residues: {window}")
        object.__setattr__(self, "window", window)

    @classmethod
    def _trusted(cls, window: tuple[int, ...]) -> "AffinePermutation":
        """
        The permutation with this window, stored as given: only for a tuple
        whose entries have distinct residues, derived from a valid permutation
        (its inverse) or the reading word of a row-standard filling, so it is
        not checked again.
        """
        w = object.__new__(cls)
        object.__setattr__(w, "window", window)
        return w

    @property
    def n(self) -> int:
        return len(self.window)

    def __str__(self) -> str:
        return "[" + ",".join(str(w) for w in self.window) + "]"


def inverse(w: AffinePermutation) -> AffinePermutation:
    n = w.n
    window = [0] * n
    # w(i) = value = r + (value - r), so the inverse sends r to i - (value - r)
    for i, value in enumerate(w.window, start=1):
        r = mo(value, n)
        window[r - 1] = i + (r - value)
    return AffinePermutation._trusted(tuple(window))


def min_coset_reps(shape: Partition) -> list[AffinePermutation]:
    """
    The shortest representatives of the cosets modulo the stabilizer of the
    canonical tableau: the finite windows increasing on each block of
    shape.op, which are the reading words (bottom row first) of
    enumerate_rsyt(shape), in its order, which is lexicographic.
    """
    return [AffinePermutation._trusted(sum(reversed(rows), ())) for rows in _fillings(shape)]


def canonical_tableau(shape: Partition) -> RowStandardTableau:
    """The tableau whose reading word (bottom row first) is 1, 2, ..., n."""
    rows = []
    stop = shape.n
    for size in shape.parts:
        rows.append(tuple(range(stop - size + 1, stop + 1)))
        stop -= size
    return RowStandardTableau(tuple(rows))


def tableau_action(w: AffinePermutation, t: RowStandardTableau) -> RowStandardTableau:
    """
    Entry-wise action e -> mo(w(e)) with rows re-sorted.  On the finite
    group this permutes entries; s_0 switches 1 and n; the cyclic-shift
    element acts as the omega shift.
    """
    n = t.n
    if w.n != n:
        raise ValueError(f"sizes differ: {w.n} vs {n}")
    # mo(w(e), n) with w(e) = window[e - 1] for the entries 1..n; w permutes
    # the residues, so the image is again a filling by 1..n
    window = w.window
    rows = tuple(tuple(sorted((window[e - 1] - 1) % n + 1 for e in row)) for row in t.rows)
    return RowStandardTableau._trusted(rows)
