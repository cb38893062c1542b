"""
Partitions, row-standard Young tableaux, cyclic residues and intervals,
descent sets, standardness, the row codes of tableaux (the row of each
entry packed bitwise), the tableaux of row codes and the vertex permutation
of the cyclic shift on them; and _Frozen, the base of the value classes.

Conventions: rows are numbered from the top starting at 1, a "higher" row
has a smaller row number, and every tableau stores its rows sorted.
Residues live in {1, ..., n}.  Tableaux from outside are validated by the
constructor, which graph_from_json (wgraph, where the vertex JSON format
lives) calls on each vertex's rows; enumerate_rsyt, the insertion tableau
of rsk, the tableaux of row codes and the tableau action of affperm derive
their rows from valid ones and store them without checking them again.
One walk fills the row-standard tableaux of a shape: enumerate_rsyt makes
them, enumerate_syt keeps the standard ones in order, and affperm reads
their reading words as the minimal coset representatives.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence
from functools import total_ordering
from itertools import chain, combinations, filterfalse

__all__ = [
    "Partition", "RowStandardTableau",
    "mo", "pint", "affine_descents", "finite_descents",
    "row_codes", "from_row_codes", "shift_permutation", "enumerate_rsyt", "enumerate_syt", "is_standard",
    "tableau_text",
]


class _Frozen:
    """
    The base of the package's value classes: their fields are the names
    annotated in the class body, in order, which only __init__ sets (in
    __dict__); any other assignment or deletion raises AttributeError.
    Values of one class are equal when their fields are, and hash as the
    tuple of their fields.  No __slots__: pickle and copy restore a value
    through its __dict__, where cached_property keeps what it computes.
    """

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__annotations__)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__annotations__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Partition(_Frozen):
    """Weakly decreasing positive parts summing to n >= 3, ordered as their parts."""

    parts: tuple[int, ...]

    def __init__(self, parts):
        parts = tuple(parts)
        # True == 1 and 2.5 > 0 would pass the check on the parts
        if not parts or any(type(p) is not int or p <= 0 for p in parts):
            raise ValueError(f"parts must be positive integers: {parts}")
        if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        if sum(parts) < 3:
            raise ValueError(f"partition size must be at least 3: {parts}")
        object.__setattr__(self, "parts", parts)

    # one compare or hash of the parts, not of a tuple built per call
    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __lt__(self, other):
        return self.parts < other.parts if other.__class__ is self.__class__ else NotImplemented

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def op(self) -> tuple[int, ...]:
        """The reversed sequence (a composition, not a partition in general)."""
        return tuple(reversed(self.parts))

    @property
    def is_two_row(self) -> bool:
        return len(self.parts) == 2

    @property
    def is_equal_row(self) -> bool:
        return len(self.parts) == 2 and self.parts[0] == self.parts[1]

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class RowStandardTableau(_Frozen):
    """Rows of a Young diagram filled with {1..n}, each row strictly increasing."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        entries = list(chain.from_iterable(rows))
        # True == 1 and 1.0 == 1 would pass the check on the entries
        if not set(map(type, entries)) <= {int}:
            raise ValueError(f"tableau entries must be integers: {rows}")
        rows = tuple(map(tuple, map(sorted, rows)))
        Partition(tuple(map(len, rows)))  # validates weakly decreasing, size >= 3
        entries.sort()
        if entries != list(range(1, len(entries) + 1)):
            raise ValueError(f"entries must be exactly 1..n: {rows}")
        object.__setattr__(self, "rows", rows)

    # tableaux key the vertex index and the cell caches
    def __eq__(self, other):
        return self.rows == other.rows if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows,))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "RowStandardTableau":
        """
        The tableau with these rows, stored as given: only for sorted rows of
        a shape, filled with exactly 1..n, that come from a valid tableau or
        an enumeration of valid ones, so they are not checked again.
        """
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(row) for row in self.rows))

    def row_of(self, entry: int) -> int:
        """1-based row number containing the entry."""
        for a, row in enumerate(self.rows, start=1):
            if entry in row:
                return a
        raise ValueError(f"{entry} not in tableau {self.rows}")

    def __str__(self) -> str:
        return tableau_text(self)


def mo(k: int, n: int) -> int:
    """The unique element of {1..n} congruent to k modulo n."""
    return (k - 1) % n + 1


def pint(a: int, b: int, n: int) -> frozenset[int]:
    """
    Cyclic interval of residues from a to b.

    Empty when b is congruent to a-1 (so the interval from a+1 to a is empty
    rather than everything); otherwise {mo(a+x) : 0 <= x <= (b-a) mod n}.
    """
    # True == 1 and 1.0 == 1 would pass the range check
    if not (type(a) is type(b) is type(n) is int and 1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"residues out of range: a={a}, b={b}, n={n}")
    if mo(a, n) == mo(b + 1, n):
        return frozenset()
    return frozenset(mo(a + x, n) for x in range((b - a) % n + 1))


def affine_descents(t: RowStandardTableau) -> frozenset[int]:
    """Residues i such that mo(i) sits in a strictly higher row than mo(i+1)."""
    n = t.n
    # row[e] is the row of e, and row[n + 1] that of mo(n + 1) = 1
    row = [0] * (n + 2)
    for a, entries in enumerate(t.rows, start=1):
        for e in entries:
            row[e] = a
    row[n + 1] = row[1]
    return frozenset(i for i in range(1, n + 1) if row[i] < row[i + 1])


def finite_descents(t: RowStandardTableau) -> frozenset[int]:
    """The affine descent set with n removed."""
    return affine_descents(t) - {t.n}


def row_codes(tableaux: Sequence[RowStandardTableau]) -> tuple[int, tuple[int, ...]]:
    """
    The width w and the row code of each tableau of one shape: the row of
    each entry e, counted from 0, packed in the w bits from (e - 1)w, with
    w the bit length of the number of rows less one.  For two rows the code
    is the row-2 mask (w = 1), and for one row it is 0 (w = 0).
    """
    width = (len(tableaux[0].rows) - 1).bit_length() if tableaux else 0
    codes = []
    for t in tableaux:
        code = 0
        for a, row in enumerate(t.rows[1:], start=1):
            for e in row:
                code |= a << (e - 1) * width
        codes.append(code)
    return width, tuple(codes)


def from_row_codes(parts: tuple[int, ...], codes: Sequence[int]) -> tuple[RowStandardTableau, ...]:
    """The inverse of row_codes: the tableau of each code, in order, for tableaux of the shape with these parts."""
    width = (len(parts) - 1).bit_length()
    low = (1 << width) - 1
    # each entry and the bit offset of its row in a code
    offsets = [(e, (e - 1) * width) for e in range(1, sum(parts) + 1)]
    tableaux = []
    for code in codes:
        rows: list[list[int]] = [[] for _ in parts]
        for e, offset in offsets:
            rows[code >> offset & low].append(e)
        tableaux.append(RowStandardTableau._trusted(tuple(map(tuple, rows))))
    return tuple(tableaux)


def shift_permutation(n: int, width: int, codes: Sequence[int]) -> tuple[int, ...] | None:
    """
    The vertex permutation of the shift omega, which replaces every entry
    i with mo(i+1) and re-sorts the rows, on tableaux of size n given by
    their row codes of width w (row_codes): sigma[k] is the position of
    omega of the k-th tableau, or None when some image is not among them.
    Whether sigma also preserves labels and weights is for the caller to
    test.
    """
    # the shift moves the row of e to e + 1 and that of n to 1: the code
    # turns by w bits
    top = (n - 1) * width
    full = (1 << n * width) - 1
    index = {code: k for k, code in enumerate(codes)}
    sigma = tuple([index.get((code << width | code >> top) & full) for code in codes])
    return None if None in sigma else sigma


def _check_size(shape: Partition) -> None:
    """
    Reject, before anything is allocated, a shape with more entries or more
    row-standard tableaux than a sequence can index.
    """
    if shape.n > sys.maxsize:
        raise ValueError(f"shape {shape} is too large: {shape.n} entries")
    # the tableaux are counted as the rows are filled from the bottom, a
    # factor C(rest, part) per row below the first; C(rest, k) grows with k
    # up to min(part, rest - part) and is at least 2^k there, so the count
    # passes the bound at its first step past it, within 64 steps a row
    count, rest = 1, shape.n
    for part in shape.parts[:0:-1]:
        for k in range(min(part, rest - part)):
            count = count * (rest - k) // (k + 1)
            if count > sys.maxsize:
                raise ValueError(f"shape {shape} is too large: more than {sys.maxsize} row-standard tableaux")
        rest -= part


def _fillings(shape: Partition) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The rows, top row first, of each row-standard filling of the shape, sorted by reading word."""
    # the reading words of one shape sort by the last row, then the row above
    # it, and so on: the order of filling the rows from the bottom.  A frame
    # is the entries not in the rows below row a >= 1 (0-based) and the iterator
    # over the candidates for row a, resumed after the rows above it; row 1 leaves row 0
    _check_size(shape)
    rows = [()] * shape.length
    rows[0] = entries = tuple(range(1, shape.n + 1))
    work = [(entries, combinations(entries, shape.parts[-1]))] if shape.length > 1 else []
    if not work:  # one row, one filling
        yield tuple(rows)
    while work:
        a = shape.length - len(work)
        pool, candidates = work[-1]
        for row in candidates:
            rows[a] = row
            rest = tuple(filterfalse(set(row).__contains__, pool))
            if a == 1:
                rows[0] = rest
                yield tuple(rows)
            else:
                work.append((rest, combinations(rest, shape.parts[a - 1])))
                break
        else:
            work.pop()


def enumerate_rsyt(shape: Partition) -> list[RowStandardTableau]:
    """
    All row-standard tableaux of the shape, sorted by reading word.

    The order is the canonical vertex order used by every graph builder.
    """
    return list(map(RowStandardTableau._trusted, _fillings(shape)))


def is_standard(t: RowStandardTableau) -> bool:
    """Rows and columns strictly increasing, entries exactly {1..n}."""
    for a in range(1, len(t.rows)):
        for c in range(len(t.rows[a])):
            if t.rows[a][c] <= t.rows[a - 1][c]:
                return False
    return True


def enumerate_syt(shape: Partition) -> list[RowStandardTableau]:
    """The standard tableaux among enumerate_rsyt(shape), in its order."""
    return [t for t in enumerate_rsyt(shape) if is_standard(t)]


def tableau_text(t: RowStandardTableau) -> str:
    """Compact one-line form, e.g. "123/45" (rows separated by "/")."""
    if t.rows and max(e for row in t.rows for e in row) > 9:
        return "/".join(" ".join(str(e) for e in row) for row in t.rows)
    return "/".join("".join(str(e) for e in row) for row in t.rows)
