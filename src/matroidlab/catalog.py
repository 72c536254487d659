"""Named matrices and matroids for the verification suites.

Integer master copies live here and get reduced into GF(3) or GF(5) on
demand; that is what makes the cross-field isomorphism checks meaningful.
Ids are the CLI's stable public contract.

Element labeling convention for built matroids: columns are labeled
0, 1, ..., n-1 from left to right, identity block first, then the pair
columns in lexicographic (i, j) order, then the payload columns.  The
contract hints attached to the forbidden matrices are only valid under
this ordering.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .gf import GFMatrix, hstack
from .matroid import LinearMatroid

# -- T-matrices and their zero-row-sum extensions ---------------------------------

T1 = ((-1, 1, 0), (-1, 1, 0), (1, 0, 1), (1, 0, 1))
T2 = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
T3 = ((-1, -1, 0), (-1, -1, 0), (1, 0, -1), (1, 0, -1), (0, 1, 1))
T2PLUS = T2 + ((-1, -1, -1),)
T3PLUS = T3 + ((0, 1, 1),)

# -- small payloads used by the non-Fano and classifier suites -----------------------

F7M_COL3 = ((1,), (1,), (-1,))
F7M_PAIRS = ((1, 0), (1, 0), (0, 1), (0, 1))
F7M_TRIPLE = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
ONES3 = ((1,), (1,), (1,))

# -- forbidden submatrices with their contract hints --------------------------------
#
# Hints index elements of M([I|D|P]) labeled left to right as above.

FORBIDDEN: dict[str, tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = {
    "A": (((1,), (1,), (1,), (1,)), (10,)),
    "B": (((1, 0), (1, 0), (1, 0), (0, 1), (0, 1)), (15, 16)),
    "C": (((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 18, 23)),
    "D": (((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0), (0, 1, 1)), (0, 15)),
    "E": (((1, 0), (1, 0), (1, 1), (0, 1), (0, -1), (0, -1)), (0, 4, 22)),
    "F": (((1, 0), (1, 1), (1, -1), (0, 1), (0, -1)), (0, 16)),
    "G": (((1, 0), (1, 0), (-1, 0), (-1, 1), (0, 1), (0, -1), (0, -1)), (0, 1, 28, 29)),
    "H": (((-1, 1), (-1, -1), (1, 0), (1, 0), (0, 1), (0, -1)), (0, 15, 22)),
    "I": (((-1, 1), (-1, -1), (1, -1), (1, 0), (0, 1)), (0, 16)),
    "J": (((-1, 1, 1), (-1, 1, 0), (1, 1, 1), (1, 0, 1)), (0,)),
    "K": (((-1, 1, 1), (-1, 1, 0), (1, 0, 1), (1, 0, 1), (0, 1, 0)), (0, 13)),
    "L": (((-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 0)), (0,)),
    "M": (((-1, -1, 1), (-1, 1, 1), (1, -1, 0), (1, 1, 1)), (0,)),
    "N": (((-1, -1, 0), (-1, -1, 0), (1, 1, 1), (1, 0, 1), (0, 1, 1)), (0, 17)),
    "O": (((-1, 0), (-1, -1), (1, 1), (1, 0), (0, -1), (0, 1)), (0, 15, 22)),
}

# -- the eight-point affine witness and its construction forms ------------------------
#
# AG23E: the rank-3 affine geometry over GF(3) minus a point, elements 1..8.
# AG23E_Y0: a 4x9 pre-contraction form; contracting element 9 gives AG23E.
# AG23E_X: a direct 3x8 representation whose bottom two rows are a frame block.

AG23E_ROWS = (
    (1, 0, 0, 1, 1, 1, 1, 1),
    (0, 1, 0, -1, 0, 1, -1, 1),
    (0, 0, 1, 0, -1, 1, 1, -1),
)
AG23E_LABELS = (1, 2, 3, 4, 5, 6, 7, 8)

AG23E_Y0_ROWS = (
    (0, 0, 0, 0, 0, 1, 1, 1, 1),
    (1, 0, 0, 1, 1, 0, 0, 0, 1),
    (0, 1, 0, -1, 0, 0, -1, 0, 1),
    (0, 0, 1, 0, -1, 0, 0, -1, 1),
)
AG23E_Y0_LABELS = (1, 2, 3, 4, 5, 6, 7, 8, 9)

AG23E_X_ROWS = (
    (0, 0, -1, 0, 1, 1, -1, 1),
    (1, 0, 1, 1, 1, 0, 0, 1),
    (0, 1, 0, -1, 0, 1, 1, -1),
)
AG23E_X_LABELS = (1, 2, 3, 4, 5, 6, 7, 8)

# -- non-Fano forms ---------------------------------------------------------------------

F7MINUS_ROWS = (
    (1, 0, 0, 0, 1, 1, 1),
    (0, 1, 0, 1, 0, 1, 1),
    (0, 0, 1, 1, 1, 0, 1),
)

# direct form whose top row is a payload row over a frame block
F7MINUS_XY0_ROWS = (
    (1, 0, 0, -1, -1, 0, 1),
    (0, 1, 0, 1, 0, 1, 1),
    (0, 0, 1, 0, 1, -1, -1),
)

U24_ROWS = ((1, 0, 1, 1), (0, 1, 1, -1))


# -- generators ---------------------------------------------------------------------------


def build_D(r: int, p: int = 3) -> GFMatrix:
    """r x C(r,2) matrix whose columns are e_i - e_j for i < j, lexicographic."""
    if r < 0:
        raise ValueError("r must be non-negative")
    cols = []
    for i, j in itertools.combinations(range(r), 2):
        col = [0] * r
        col[i] = 1
        col[j] = -1
        cols.append(col)
    return GFMatrix.from_columns(p, cols, nrows=r)


def clique_matrix(n: int, p: int = 3) -> GFMatrix:
    if n < 1:
        raise ValueError("clique needs n >= 1")
    return universal_matrix((), n - 1, p)


def clique(n: int, p: int = 3) -> LinearMatroid:
    """Cycle matroid of the complete graph on n vertices, as [I | D]."""
    return LinearMatroid(clique_matrix(n, p))


def dowling_matrix(r: int, p: int = 3) -> GFMatrix:
    if r < 1:
        raise ValueError("rank must be at least 1")
    pairs = list(itertools.combinations(range(r), 2))
    return universal_matrix([[int(k in pair) for pair in pairs] for k in range(r)], r, p)


def dowling(r: int, p: int = 3) -> LinearMatroid:
    """Rank-r frame geometry [I | D | D'] on r*r elements; D' has columns e_i + e_j."""
    return LinearMatroid(dowling_matrix(r, p))


def universal_matrix(P, r: int, p: int = 3) -> GFMatrix:
    """[I_r | D_r | P-over-zeros]; P occupies the first rows of its block."""
    if isinstance(P, GFMatrix):
        if P.p != p:
            # residues are field-specific; re-reduce from signed integers instead
            raise ValueError("payload matrix field does not match requested field")
    else:
        P = GFMatrix(p, P)
    if P.nrows > r:
        raise ValueError(f"payload has {P.nrows} rows, more than rank {r}")
    pad = GFMatrix.zeros(p, r - P.nrows, P.ncols)
    payload = GFMatrix(p, list(P.rows) + list(pad.rows), ncols=P.ncols)
    return hstack(GFMatrix.identity(p, r), build_D(r, p), payload)


def universal_matroid(P, r: int, p: int = 3) -> LinearMatroid:
    return LinearMatroid(universal_matrix(P, r, p))


def universal_block_labels(r: int, m: int, payload_cols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Label sets of the two glued blocks inside universal_matrix(P, r).

    Returns (clique_labels, payload_block_labels): the full [I|D] block, and
    the copy of [I_m | D_m | P] sitting in the first m rows (identity columns
    0..m-1, the pair columns with both indices below m, and the payload).
    """
    n_pairs = r * (r - 1) // 2
    clique_labels = tuple(range(r + n_pairs))
    sub = list(range(m))
    for idx, (i, j) in enumerate(itertools.combinations(range(r), 2)):
        if j < m:
            sub.append(r + idx)
    sub.extend(range(r + n_pairs, r + n_pairs + payload_cols))
    return clique_labels, tuple(sub)


def pi(r: int, p: int = 3) -> LinearMatroid:
    if r < 4:
        raise ValueError("this family starts at rank 4")
    return universal_matroid(T1, r, p)


def sigma(r: int, p: int = 3) -> LinearMatroid:
    if r < 3:
        raise ValueError("this family starts at rank 3")
    return universal_matroid(T2, r, p)


def omega(r: int, p: int = 3) -> LinearMatroid:
    if r < 5:
        raise ValueError("this family starts at rank 5")
    return universal_matroid(T3, r, p)


def t_r_1(r: int, p: int = 3) -> LinearMatroid:
    """[I_r | D_r | ones-row over I_{r-1}]: column j of the payload is e_0 + e_{j+1}."""
    if r < 2:
        raise ValueError("rank must be at least 2")
    return universal_matroid([[1] * (r - 1)] + [[int(i == j) for j in range(r - 1)] for i in range(r - 1)], r, p)


# -- the catalog --------------------------------------------------------------------------


@dataclass(frozen=True)
class NamedEntry:
    id: str
    kind: str  # "matrix" or "matroid"
    matrix: GFMatrix
    labels: tuple[int, ...] | None = None
    contract_hint: tuple[int, ...] | None = None
    note: str = ""

    def matroid(self) -> LinearMatroid:
        return LinearMatroid(self.matrix, self.labels)


@dataclass(frozen=True)
class TableRow:
    id: str
    matrix: GFMatrix
    contract_hint: tuple[int, ...]


_PARAM = re.compile(r"^(MK|DOWLING|PI|SIGMA|OMEGA|T1_)(\d+)$")
# the largest family parameter ``named`` builds; larger ones are unknown ids,
# so that a mistyped MK99999 fails at once instead of building a 99,998-row
# identity block
MAX_FAMILY_PARAM = 12


@functools.cache
def _fixed_entries(p: int) -> Mapping[str, NamedEntry]:
    """The fixed entries over GF(p), built once per field and read-only;
    entries are frozen and ``NamedEntry.matroid()`` returns a fresh matroid,
    so sharing them is safe."""
    e: dict[str, NamedEntry] = {}

    def put(id_, kind, rows, labels=None, hint=None, note=""):
        e[id_] = NamedEntry(id_, kind, GFMatrix(p, rows), labels, hint, note)

    put("T1", "matrix", T1, note="4x3 payload matrix behind the PI family")
    put("T2", "matrix", T2, note="3x3 payload matrix behind the SIGMA family")
    put("T3", "matrix", T3, note="5x3 payload matrix behind the OMEGA family")
    put("T2PLUS", "matrix", T2PLUS, note="T2 with the appended zero-sum row [-1,-1,-1]")
    put("T3PLUS", "matrix", T3PLUS, note="T3 with the appended zero-sum row [0,1,1]")
    put("F7M_COL3", "matrix", F7M_COL3,
        note="3x1 payload; [I3|D3|payload] equals F7MINUS_XY0 up to column scaling")
    put("F7M_PAIRS", "matrix", F7M_PAIRS, hint=(10,),
        note="4x2 payload of doubled unit columns; M([I|D|payload]) has a non-Fano minor")
    put("F7M_TRIPLE", "matrix", F7M_TRIPLE,
        note="3x3 payload; M([I|D|payload]) is the rank-3 ternary Dowling geometry")
    put("ONES3", "matrix", ONES3, note="3x1 all-ones payload; classifies as signed-graphic")
    for key, (rows, hint) in FORBIDDEN.items():
        put(
            f"FORBIDDEN_{key}",
            "matrix",
            rows,
            hint=hint,
            note=f"forbidden payload submatrix {key}; hint indexes M([I|D|{key}])",
        )
    put("AG23E", "matroid", AG23E_ROWS, labels=AG23E_LABELS,
        note="rank-3 ternary affine plane minus a point, 8 elements")
    put("AG23E_Y0", "matroid", AG23E_Y0_ROWS, labels=AG23E_Y0_LABELS, hint=(9,),
        note="4x9 pre-contraction form; contracting 9 gives AG23E")
    put("AG23E_X", "matroid", AG23E_X_ROWS, labels=AG23E_X_LABELS,
        note="3x8 form whose bottom two rows are a trivial-group frame block")
    put("F7MINUS", "matroid", F7MINUS_ROWS,
        note="non-Fano plane: 7 points, rank 3, six 3-point lines")
    put("F7MINUS_XY0", "matroid", F7MINUS_XY0_ROWS,
        note="non-Fano form with a payload top row over a frame block")
    put("U24", "matroid", U24_ROWS, note="4-point line")
    ag = LinearMatroid(GFMatrix(p, AG23E_ROWS), AG23E_LABELS).dual()
    e["AG23E_DUAL"] = NamedEntry("AG23E_DUAL", "matroid", ag.matrix, ag.labels,
                                 note="dual of AG23E, rank 5")
    f7d = LinearMatroid(GFMatrix(p, F7MINUS_ROWS)).dual()
    e["F7MINUS_DUAL"] = NamedEntry("F7MINUS_DUAL", "matroid", f7d.matrix, f7d.labels,
                                   note="dual of the non-Fano plane, rank 4")
    return MappingProxyType(e)


def named(id_: str, field: int = 3) -> NamedEntry:
    """Catalog lookup; parameterized families accept MK<n>, DOWLING<r>, PI<r>,
    SIGMA<r>, OMEGA<r>, T1_<r> up to MAX_FAMILY_PARAM."""
    fixed = _fixed_entries(field)
    if id_ in fixed:
        return fixed[id_]
    m = _PARAM.match(id_)
    if m and int(m.group(2)) <= MAX_FAMILY_PARAM:
        return _family_entry(id_, field)
    raise KeyError(f"unknown catalog id {id_!r}")


@functools.lru_cache(maxsize=128)
def _family_entry(id_: str, field: int) -> NamedEntry:
    m = _PARAM.match(id_)
    head, num = m.group(1), int(m.group(2))
    try:
        if head == "MK":
            mat = clique(num, field)
            note = f"cycle matroid of the complete graph on {num} vertices"
        elif head == "DOWLING":
            mat = dowling(num, field)
            note = f"rank-{num} frame geometry on {num * num} elements"
        elif head == "PI":
            mat = pi(num, field)
            note = f"rank-{num} universal matroid over the T1 payload"
        elif head == "SIGMA":
            mat = sigma(num, field)
            note = f"rank-{num} universal matroid over the T2 payload"
        elif head == "OMEGA":
            mat = omega(num, field)
            note = f"rank-{num} universal matroid over the T3 payload"
        else:
            mat = t_r_1(num, field)
            note = f"rank-{num} member of the T^1 family"
    except ValueError as exc:
        raise KeyError(f"unknown catalog id {id_!r}: {exc}") from None
    return NamedEntry(id_, "matroid", mat.matrix, mat.labels, note=note)


def catalog_ids() -> tuple[str, ...]:
    """All fixed ids plus representative parameterized ones."""
    fixed = tuple(sorted(_fixed_entries(3).keys()))
    families = ("MK4", "MK5", "MK6", "DOWLING3", "DOWLING4", "DOWLING5",
                "PI4", "PI5", "SIGMA3", "SIGMA4", "OMEGA5", "T1_2", "T1_3", "T1_4")
    return fixed + families


def table_rows(p: int = 3) -> tuple[TableRow, ...]:
    return tuple(
        TableRow(key, GFMatrix(p, rows), hint) for key, (rows, hint) in FORBIDDEN.items()
    )
