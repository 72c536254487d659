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
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .gf import GFMatrix
from .matroid import LinearMatroid

# -- T-matrices and their zero-row-sum extensions ---------------------------------

T1 = ((-1, 1, 0), (-1, 1, 0), (1, 0, 1), (1, 0, 1))
T2 = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
T3 = ((-1, -1, 0), (-1, -1, 0), (1, 0, -1), (1, 0, -1), (0, 1, 1))
T2PLUS = T2 + ((-1, -1, -1),)
T3PLUS = T3 + ((0, 1, 1),)

# -- small payloads used by the non-Fano and classifier suites -----------------------
#
# [I3|D3|F7M_COL3] is F7MINUS_XY0 up to column scaling; M([I4|D4|F7M_PAIRS])
# has a non-Fano minor; M([I3|D3|F7M_TRIPLE]) is the rank-3 ternary Dowling
# geometry; ONES3 classifies as signed-graphic.

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
    payload = list(P.rows) + [(0,) * P.ncols] * (r - P.nrows)
    rows = [[int(i == j) for j in range(r)] + [*d, *pay]
            for i, (d, pay) in enumerate(zip(build_D(r, p).rows, payload))]
    return GFMatrix(p, rows, ncols=r + r * (r - 1) // 2 + P.ncols)


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


# -- the catalog --------------------------------------------------------------------------


@dataclass(frozen=True)
class NamedEntry:
    id: str
    matrix: GFMatrix
    labels: tuple[int, ...] | None = None
    contract_hint: tuple[int, ...] | None = None

    def matroid(self) -> LinearMatroid:
        return LinearMatroid(self.matrix, self.labels)


# the largest family parameter ``named`` builds; larger ones are unknown ids,
# so that a mistyped MK99999 fails at once instead of building a 99,998-row
# identity block
MAX_FAMILY_PARAM = 12

# head -> (least parameter n, n minus the rank r, payload of rank r): the
# member with parameter n is M(universal_matrix(payload(r), r)).  MK<n> is
# the clique M(K_n); DOWLING<r> the frame geometry whose payload columns are
# e_i + e_j; T1_<r> has a ones row over I_{r-1} as its payload.
_FAMILIES = {
    "MK": (1, 1, lambda r: ()),
    "DOWLING": (1, 0, lambda r: [[int(k in ij) for ij in itertools.combinations(range(r), 2)] for k in range(r)]),
    "PI": (4, 0, lambda r: T1),
    "SIGMA": (3, 0, lambda r: T2),
    "OMEGA": (5, 0, lambda r: T3),
    "T1_": (2, 0, lambda r: [[1] * (r - 1)] + [[int(i == j) for j in range(r - 1)] for i in range(r - 1)]),
}

# every family id ``named`` accepts, with its head and parameter; written
# without leading zeros, so each member has exactly one id
_FAMILY_IDS = {
    f"{head}{n}": (head, n)
    for head, (least, _, _) in _FAMILIES.items()
    for n in range(least, MAX_FAMILY_PARAM + 1)
}


@functools.cache
def _fixed_entries(p: int) -> Mapping[str, NamedEntry]:
    """The fixed entries over GF(p), built once per field and read-only;
    entries are frozen and ``NamedEntry.matroid()`` returns a fresh matroid,
    so sharing them is safe."""
    e: dict[str, NamedEntry] = {}

    def put(id_, rows, labels=None, hint=None):
        e[id_] = NamedEntry(id_, GFMatrix(p, rows), labels, hint)

    for id_, rows in (("T1", T1), ("T2", T2), ("T3", T3), ("T2PLUS", T2PLUS), ("T3PLUS", T3PLUS),
                      ("F7M_COL3", F7M_COL3), ("F7M_TRIPLE", F7M_TRIPLE), ("ONES3", ONES3)):
        put(id_, rows)
    put("F7M_PAIRS", F7M_PAIRS, hint=(10,))
    for key, (rows, hint) in FORBIDDEN.items():
        put(f"FORBIDDEN_{key}", rows, hint=hint)
    put("AG23E", AG23E_ROWS, AG23E_LABELS)
    put("AG23E_Y0", AG23E_Y0_ROWS, AG23E_Y0_LABELS, hint=(9,))
    put("AG23E_X", AG23E_X_ROWS, AG23E_X_LABELS)
    put("F7MINUS", F7MINUS_ROWS)
    put("F7MINUS_XY0", F7MINUS_XY0_ROWS)
    put("U24", U24_ROWS)
    for id_ in ("AG23E", "F7MINUS"):
        dual = e[id_].matroid().dual()
        e[f"{id_}_DUAL"] = NamedEntry(f"{id_}_DUAL", dual.matrix, dual.labels)
    return MappingProxyType(e)


def named(id_: str, field: int = 3) -> NamedEntry:
    """The one entry point to the catalog: the fixed entries, and the family
    members MK<n>, DOWLING<r>, PI<r>, SIGMA<r>, OMEGA<r>, T1_<r> from each
    family's least parameter up to MAX_FAMILY_PARAM.  Unknown ids raise
    KeyError."""
    fixed = _fixed_entries(field)
    if id_ in fixed:
        return fixed[id_]
    if id_ in _FAMILY_IDS:
        return _family_entry(id_, field)
    raise KeyError(f"unknown catalog id {id_!r}")


@functools.cache
def _family_entry(id_: str, field: int) -> NamedEntry:
    head, n = _FAMILY_IDS[id_]
    _, shift, payload = _FAMILIES[head]
    mat = universal_matrix(payload(n - shift), n - shift, field)
    return NamedEntry(id_, mat, tuple(range(mat.ncols)))


def catalog_ids() -> tuple[str, ...]:
    """All fixed ids plus representative parameterized ones."""
    fixed = tuple(sorted(_fixed_entries(3).keys()))
    families = ("MK4", "MK5", "MK6", "DOWLING3", "DOWLING4", "DOWLING5",
                "PI4", "PI5", "SIGMA3", "SIGMA4", "OMEGA5", "T1_2", "T1_3", "T1_4")
    return fixed + families
