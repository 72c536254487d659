"""Exact dense linear algebra over the prime fields GF(3) and GF(5).

Everything in this module is immutable: each operation returns a new matrix.
The one row reduction, ``row_reduce``, works on plain lists of rows:
``GFMatrix.rref`` wraps it, and ``matroid.verify_witness`` calls it directly
on columns it reads, so that the verifier builds no matrix.
Entries are kept, and written by ``to_text``, as least non-negative residues.
Matrices with zero rows or zero columns are legal everywhere, the text format
included, and stand for empty blocks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

SUPPORTED_FIELDS = (3, 5)


def _check_field(p: int) -> int:
    if p not in SUPPORTED_FIELDS:
        raise ValueError(f"unsupported field GF({p}); only GF(3) and GF(5) are supported")
    return p


def row_reduce(rows: Iterable[Sequence[int]], ncols: int, p: int) -> tuple[list[list[int]], tuple[int, ...]]:
    """The reduced row echelon form of rows, each ncols least residues mod
    p, as new lists, together with its pivot columns, in order.  Its first
    len(pivots) rows are the nonzero ones: they give every column's
    coordinates in the greedy basis of the columns, which is the pivots."""
    work = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        k = next((k for k in range(r, len(work)) if work[k][c]), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        inv = pow(work[r][c], p - 2, p)
        top = work[r] = [x * inv % p for x in work[r]]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                work[i] = [(a - f * b) % p for a, b in zip(row, top)]
        pivots.append(c)
    return work, tuple(pivots)


class GFMatrix:
    """A dense matrix over GF(p) for p in {3, 5}, stored row-major.

    Instances are value objects: equality and hashing look at the field and
    the entries, and no method mutates ``self``.
    """

    def __init__(self, p: int, rows: Iterable[Iterable[int]], ncols: int | None = None):
        self.p = _check_field(int(p))
        body = tuple(tuple(int(x) % self.p for x in row) for row in rows)
        if body:
            width = len(body[0])
            if any(len(row) != width for row in body):
                raise ValueError("rows have unequal lengths")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} does not match row width {width}")
        else:
            width = int(ncols) if ncols is not None else 0
            if width < 0:
                raise ValueError("ncols must be non-negative")
        self.rows: tuple[tuple[int, ...], ...] = body
        self.nrows = len(body)
        self.ncols = width

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, p: int, nrows: int, ncols: int) -> "GFMatrix":
        return cls(p, [[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, p: int, columns: Sequence[Sequence[int]], nrows: int | None = None) -> "GFMatrix":
        cols = [tuple(c) for c in columns]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise ValueError("columns have unequal lengths")
            return cls(p, zip(*cols), ncols=len(cols))
        return cls(p, [()] * (int(nrows) if nrows is not None else 0), ncols=0)

    # -- basic accessors -------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.ncols:
            raise IndexError(f"column index {j} out of range")
        return tuple(row[j] for row in self.rows)

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        cached = self.__dict__.get("_columns")
        if cached is None:
            cached = tuple(tuple(row[j] for row in self.rows) for j in range(self.ncols))
            self.__dict__["_columns"] = cached
        return cached

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GFMatrix)
            and self.p == other.p
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.p, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"GFMatrix(p={self.p}, {self.nrows}x{self.ncols})"

    # -- elimination -----------------------------------------------------------

    def rref(self) -> tuple["GFMatrix", tuple[int, ...]]:
        """Reduced row echelon form together with the pivot column indices."""
        rows, pivots = row_reduce(self.rows, self.ncols, self.p)
        return GFMatrix(self.p, rows, ncols=self.ncols), pivots

    def pivot_columns(self) -> tuple[int, ...]:
        cached = self.__dict__.get("_pivots")
        if cached is None:
            _, cached = self.rref()
            self.__dict__["_pivots"] = cached
        return cached

    def rank(self) -> int:
        return len(self.pivot_columns())

    # -- row and column operations ----------------------------------------------

    def take_cols(self, indices: Sequence[int]) -> "GFMatrix":
        if any(not 0 <= j < self.ncols for j in indices):
            raise IndexError("column index out of range")
        return GFMatrix(self.p, [[row[j] for j in indices] for row in self.rows], ncols=len(indices))

    def take_rows(self, indices: Sequence[int]) -> "GFMatrix":
        if any(not 0 <= i < self.nrows for i in indices):
            raise IndexError("row index out of range")
        return GFMatrix(self.p, [self.rows[i] for i in indices], ncols=self.ncols)

    def append_rows(self, new_rows: Iterable[Iterable[int]]) -> "GFMatrix":
        extra = [list(r) for r in new_rows]
        if any(len(r) != self.ncols for r in extra):
            raise ValueError("appended rows must match the column count")
        return GFMatrix(self.p, list(self.rows) + extra, ncols=self.ncols)


def weight(v: Iterable[int]) -> int:
    """Number of nonzero entries of a column."""
    return sum(1 for x in v if x != 0)


# -- matrix file format --------------------------------------------------------
#
# Canonical layout (writer output, parser accepts '#' comment lines and any
# integer entries, which are reduced modulo the field):
#
#   field 3
#   rows 2
#   cols 3
#   0 1 2
#   1 0 1
#
# Blank lines are skipped, so a matrix with no columns has no data lines.
# The rows and cols counts are at most MAX_DIMENSION each, checked before
# anything is allocated: with the other count 0 a header alone would
# otherwise ask for any amount of memory.

MAX_DIMENSION = 10_000


def to_text(m: GFMatrix) -> str:
    lines = [f"field {m.p}", f"rows {m.nrows}", f"cols {m.ncols}"]
    if m.ncols:
        lines.extend(" ".join(str(x) for x in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> GFMatrix:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3:
        raise ValueError("matrix text too short: expected field/rows/cols headers")

    def header(line: str, key: str) -> int:
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"expected '{key} <n>', got {line!r}")
        return int(parts[1])

    p = header(lines[0], "field")
    nrows = header(lines[1], "rows")
    ncols = header(lines[2], "cols")
    if not (0 <= nrows <= MAX_DIMENSION and 0 <= ncols <= MAX_DIMENSION):
        raise ValueError(f"rows and cols must be between 0 and {MAX_DIMENSION}")
    data = lines[3:]
    want = nrows if ncols else 0
    if len(data) != want:
        raise ValueError(f"expected {want} data lines, got {len(data)}")
    rows = []
    for ln in data:
        vals = [int(tok) for tok in ln.split()]
        if len(vals) != ncols:
            raise ValueError(f"expected {ncols} entries per row, got {len(vals)}")
        rows.append(vals)
    return GFMatrix(p, rows if ncols else [()] * nrows, ncols=ncols)


def write_file(m: GFMatrix, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_text(m))


def read_file(path: str) -> GFMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return from_text(fh.read())
