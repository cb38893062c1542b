"""
Robinson-Schensted-Knuth insertion on row-standard tableaux.

The biword of a tableau T has the reading word of T (bottom row to top row)
as its second row; the first row records, for each entry, the number of
rows of T minus the row number plus one, so the bottom row is labeled 1.
P is the insertion tableau of the reading word (standard), Q the recording
tableau, returned as its rows: they increase weakly, its columns strictly,
and its content is sh(T) reversed.  Row insertion of the entries 1..n keeps
every row of P increasing and its row lengths weakly decreasing, so P is
built from its rows without checking them again.
"""

from __future__ import annotations

from bisect import bisect_right

from .tableaux import Partition, RowStandardTableau, _Frozen

__all__ = ["RskPair", "rsk", "finsh"]


class RskPair(_Frozen):
    p: RowStandardTableau
    q: tuple[tuple[int, ...], ...]

    def __init__(self, p, q):
        # a copy, so that the caller's lists cannot change the pair (a tuple of a tuple is itself)
        vars(self).update(p=p, q=tuple(map(tuple, q)))


def _row_insert(rows: list[list[int]], labels: list[list[int]], entry: int, label: int) -> None:
    """Bump `entry` through `rows`, recording `label` at the new box."""
    a = 0
    while True:
        if a == len(rows):
            rows.append([entry])
            labels.append([label])
            return
        row = rows[a]
        # the first entry of the increasing row above `entry`
        pos = bisect_right(row, entry)
        if pos == len(row):
            row.append(entry)
            labels[a].append(label)
            return
        row[pos], entry = entry, row[pos]
        a += 1


def rsk(t: RowStandardTableau) -> RskPair:
    """Insertion and recording tableaux of the biword of t."""
    depth = len(t.rows)
    rows: list[list[int]] = []
    labels: list[list[int]] = []
    for a in range(depth, 0, -1):
        for entry in t.rows[a - 1]:
            _row_insert(rows, labels, entry, depth + 1 - a)
    p = RowStandardTableau._trusted(tuple(tuple(row) for row in rows))
    return RskPair(p, labels)


def finsh(t: RowStandardTableau) -> Partition:
    """The shape of the insertion tableau of t."""
    return rsk(t).p.shape
