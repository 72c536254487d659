"""Frame templates over GF(3) and the Y-template classifier.

The first half implements presented frame templates: the sign group, the
column classes C, Y0, Y1, Z, the row class X, the fixed block A1 and the
two vector collections, the six minimal templates, and the respects
predicate for explicit matrices carrying explicit placements.

The second half classifies complete lifted Y-templates.  Such a template
is determined by one GF(3) matrix P; classify_Y_template sorts P into
SignedGraphic, Pi, Sigma, Omega or ContainsAG23e and returns a
certificate that verify_classification can replay from scratch.  The
moves the classifier is allowed to make on P (appending the row that
makes column sums vanish, removing a row when column sums vanish,
dropping graphic or duplicate columns, scaling columns) all preserve the
family of matroids the template generates, so a verdict for the
normalized matrix is a verdict for the input.  The classifier and its
replay, apply_moves, make every move through one table, _MOVES, in which
each move checks its own legality; one more table, _CERTIFIES, says which
verdict each certificate proves.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .catalog import FORBIDDEN, named, universal_matrix, universal_matroid
from .gf import GFMatrix, row_reduce, weight
from .matroid import LinearMatroid, MinorWitness, has_minor, verify_witness

# classifier verdicts
SIGNED_GRAPHIC = "SignedGraphic"
PI = "Pi"
SIGMA = "Sigma"
OMEGA = "Omega"
CONTAINS_AG23E = "ContainsAG23e"
UNCLASSIFIED = "Unclassified"

# column kinds
ZERO = "zero"
GRAPHIC = "graphic"
TYPE3 = "type3"
TYPE4 = "type4"
OTHER = "other"


# -- column taxonomy ---------------------------------------------------------------


def classify_column(col: Sequence[int], p: int = 3) -> tuple[str, int | None]:
    """Sort one GF(3) column into zero/graphic/type3/type4/other.

    The second component is a signed unit s such that s*col is in normal
    form: a unit or a difference of two units for graphic, all ones for
    type 3, two -1 entries against two 1 entries for type 4.  When both
    units work the smaller signed scalar wins, so ties go to -1.  Zero
    columns get 1 and other columns get None.
    """
    if p != 3:
        raise ValueError("the column taxonomy is specific to GF(3)")
    nz = [x % 3 for x in col if x % 3]
    ones = nz.count(1)
    twos = len(nz) - ones
    w = len(nz)
    if w == 0:
        return ZERO, 1
    if w == 1:
        return GRAPHIC, 1 if ones else -1
    if w == 2:
        if ones == 1:
            # difference of two units; both scalars keep the shape
            return GRAPHIC, -1
        return OTHER, None
    if w == 3 and (ones == 3 or twos == 3):
        return TYPE3, 1 if ones == 3 else -1
    if w == 4 and ones == 2 and twos == 2:
        return TYPE4, -1
    return OTHER, None


# -- moves on determining matrices ----------------------------------------------------


def add_zero_sum_row(P: GFMatrix) -> GFMatrix:
    """Append the unique row that makes every column sum vanish."""
    new = tuple((-sum(col)) % P.p for col in P.columns)
    return P.append_rows([new])


def remove_row(P: GFMatrix, i: int) -> GFMatrix:
    """Drop row i.  Legal only while every column sum vanishes, which is
    what keeps the move reversible by add_zero_sum_row."""
    if not 0 <= i < P.nrows:
        raise ValueError("row index out of range")
    if any(sum(col) % P.p for col in P.columns):
        raise ValueError("row removal needs vanishing column sums")
    return P.take_rows([k for k in range(P.nrows) if k != i])


def _scalar_multiple(a: Sequence[int], b: Sequence[int], p: int) -> bool:
    return any(all(x == (s * y) % p for x, y in zip(a, b)) for s in range(1, p))


def _dedupe_indices(P: GFMatrix) -> list[int]:
    """The first column of every parallel class of scalar multiples."""
    kept: list[int] = []
    for j, col in enumerate(P.columns):
        if not any(_scalar_multiple(col, P.column(k), P.p) for k in kept):
            kept.append(j)
    return kept


def _scale_columns(P: GFMatrix, scalars: Sequence[int]) -> GFMatrix:
    """Multiply column j by scalars[j]; needs one unit scalar per column."""
    scalars = [s % P.p for s in scalars]
    if len(scalars) != P.ncols or 0 in scalars:
        raise ValueError("need one unit scalar per column")
    cols = [tuple((x * s) % P.p for x in col) for col, s in zip(P.columns, scalars)]
    return GFMatrix.from_columns(P.p, cols, nrows=P.nrows)


def _keep(P: GFMatrix, kept: Sequence[int], what: str, droppable: Callable[[int], bool], why: str) -> GFMatrix:
    """P's rows or columns (what names which) at the strictly increasing
    indices kept; every index dropped must be droppable, else ValueError
    saying why not."""
    n = P.nrows if what == "row" else P.ncols
    if list(kept) != [j for j in range(n) if j in kept]:
        raise ValueError(f"kept {what} indices must be strictly increasing and in range")
    for j in range(n):
        if j not in kept and not droppable(j):
            raise ValueError(f"{what} {j} {why}")
    return P.take_rows(kept) if what == "row" else P.take_cols(kept)


# Every move the classifier may make, by op: each checks that the move is
# legal on P, raising ValueError if not, then makes it.  The kept tuples
# are strictly increasing index lists into P.
_MOVES: dict[str, Callable[..., GFMatrix]] = {
    "append_zero_sum_row": add_zero_sum_row,
    "remove_row": remove_row,
    "strip_columns": lambda P, kept: _keep(
        P, kept, "column", lambda j: classify_column(P.columns[j], P.p)[0] in (ZERO, GRAPHIC),
        "is neither zero nor graphic",
    ),
    "dedupe_columns": lambda P, kept: _keep(
        P, kept, "column", lambda j: any(_scalar_multiple(P.columns[j], P.columns[k], P.p) for k in kept),
        "duplicates no kept column",
    ),
    "scale_columns": _scale_columns,
    "drop_zero_rows": lambda P, kept: _keep(P, kept, "row", lambda i: not any(P.rows[i]), "is not zero"),
}


def apply_moves(P: GFMatrix, moves: Sequence[tuple]) -> GFMatrix:
    """Replay a move trail, re-checking the legality of every step.

    Each move is (op, *args) for an op of _MOVES: ("append_zero_sum_row",),
    ("remove_row", i), ("strip_columns", kept), ("dedupe_columns", kept),
    ("scale_columns", scalars), ("drop_zero_rows", kept).  Dropped
    material must be droppable (graphic or zero columns, duplicate
    columns, zero rows).  Raises ValueError, and only ValueError, on any
    illegal or malformed step.
    """
    cur = P
    try:
        for mv in moves:
            move = _MOVES.get(mv[0])
            if move is None:
                raise ValueError(f"unknown move {mv[0]!r}")
            cur = move(cur, *mv[1:])
    except (IndexError, TypeError) as exc:
        # a move of the wrong shape: missing arguments, or ones of the wrong type
        raise ValueError(f"malformed move: {exc}") from None
    return cur


# -- submatrix search --------------------------------------------------------------


@dataclass(frozen=True)
class SubmatrixHit:
    """Placement of a needle inside a haystack matrix.

    Needle row i sits at haystack row row_map[i]; needle column j,
    scaled by scalars[j], sits at haystack column col_map[j].  Scalars
    are signed units.
    """

    row_map: tuple[int, ...]
    col_map: tuple[int, ...]
    scalars: tuple[int, ...]


def check_submatrix_hit(haystack: GFMatrix, needle: GFMatrix, hit: SubmatrixHit) -> bool:
    """Entry by entry validation of a SubmatrixHit."""
    p = haystack.p
    if needle.p != p:
        return False
    if len(hit.row_map) != needle.nrows or len(hit.col_map) != needle.ncols:
        return False
    if len(hit.scalars) != needle.ncols:
        return False
    if len(set(hit.row_map)) != needle.nrows or len(set(hit.col_map)) != needle.ncols:
        return False
    if any(not 0 <= r < haystack.nrows for r in hit.row_map):
        return False
    if any(not 0 <= c < haystack.ncols for c in hit.col_map):
        return False
    if any(s % p == 0 for s in hit.scalars):
        return False
    for j in range(needle.ncols):
        s = hit.scalars[j] % p
        for i in range(needle.nrows):
            if haystack.entry(hit.row_map[i], hit.col_map[j]) != (s * needle.entry(i, j)) % p:
                return False
    return True


@dataclass(frozen=True)
class _Counts:
    """What ``_screen`` reads of a matrix, as needle or as haystack.

    As a needle: counts[j][v] counts the entries v of column j, and weights
    lists each row's weight.  As a haystack, in masks of columns or rows:
    holding[v][k] marks the columns with at least k entries v, for
    k = 0 .. nrows; at_least[w] and at_most[w] mark the rows of weight
    >= w and <= w, for w = 0 .. ncols."""

    counts: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    holding: tuple[tuple[int, ...], ...]
    at_least: tuple[int, ...]
    at_most: tuple[int, ...]


# the classifier's 18 needles and 3 T targets stay while its payloads pass through
@functools.lru_cache(maxsize=128)
def _value_counts(m: GFMatrix) -> _Counts:
    """m's counts, once per matrix: the classifier screens one payload
    against every needle, and every payload against the same needles and
    T targets."""
    counts = tuple(tuple(map(col.count, range(m.p))) for col in m.columns)
    weights = tuple(map(weight, m.rows))
    return _Counts(
        counts,
        weights,
        tuple(tuple(sum(1 << h for h, c in enumerate(counts) if c[v] >= k) for k in range(m.nrows + 1))
              for v in range(m.p)),
        tuple(sum(1 << r for r, have in enumerate(weights) if have >= w) for w in range(m.ncols + 1)),
        tuple(sum(1 << r for r, have in enumerate(weights) if have <= w) for w in range(m.ncols + 1)),
    )


def _saturates(fits: Sequence[int]) -> bool:
    """Can every left vertex i take its own right vertex among the bits of
    fits[i]?  Kuhn's augmenting paths on bitmasks, each vertex first trying
    a right vertex nobody holds."""
    owner: dict[int, int] = {}  # right vertex bit -> the left vertex holding it
    taken = 0
    for i, fit in enumerate(fits):
        free = fit & ~taken
        if free:
            owner[free & -free] = i
        elif not _augment(i, fits, owner, [0]):
            return False
        taken = sum(owner)
    return True


def _augment(i: int, fits: Sequence[int], owner: dict[int, int], seen: list[int]) -> bool:
    """Find left vertex i a right vertex along an augmenting path that
    avoids the bits of seen[0], and take it."""
    while free := fits[i] & ~seen[0]:
        bit = free & -free
        seen[0] |= bit
        if bit not in owner or _augment(owner[bit], fits, owner, seen):
            owner[bit] = i
            return True
    return False


def _screen(haystack: GFMatrix, needle: GFMatrix) -> list[int] | None:
    """Ullmann's degree refinement carried over to matrices: for each
    needle column, the mask of the haystack columns that can play it, or
    None when needle cannot occur in haystack, found from counts alone.

    An occurrence maps needle column j, scaled by some unit s, onto its
    own haystack column h, with needle zeros on haystack zeros: so h holds
    at least as many zeros as j, and at least as many entries s * v as j
    holds entries v, for every nonzero v.  It maps needle row i onto its
    own haystack row r, where each needle column meets r in s * needle[i][j],
    zero exactly when needle[i][j] is: so r holds at least i's weight and
    at least i's number of zeros.  Each condition asks for a matching that
    covers the needle's columns, or rows, and an occurrence is one.  The
    masks hold every column that an occurrence can put in each place.
    """
    hay, ndl = _value_counts(haystack), _value_counts(needle)
    # the rows first, as their test is the cheaper; a haystack row of weight
    # w has ncols - w zeros, so r's weight lies in [want, want + spare]
    spare = haystack.ncols - needle.ncols
    if not _saturates([hay.at_least[want] & hay.at_most[want + spare] for want in ndl.weights]):
        return None
    p = haystack.p
    col_fits = []
    for want in ndl.counts:
        fit = 0
        for s in range(1, p):
            # the columns holding want[v] entries s * v for every v
            scaled = -1
            for v, k in enumerate(want):
                scaled &= hay.holding[s * v % p][k]
            fit |= scaled
        col_fits.append(fit)
    return col_fits if _saturates(col_fits) else None


def find_submatrix(haystack: GFMatrix, needle: GFMatrix) -> SubmatrixHit | None:
    """First occurrence of needle inside haystack, up to row injection,
    column injection and column scaling.

    Row scaling is deliberately not among the allowed identifications.
    The search is deterministic: needle columns are placed left to
    right, candidate haystack columns, scalars and rows are tried in
    ascending order, and the first complete placement wins.  Placing
    column j places the needle rows first nonzero there; the rows zero in
    every needle column are placed last.  One rule places every row:
    haystack row r may play needle row i when r is free and every placed
    column agrees on it, hay[h][r] = s * needle[i][j] for each needle
    column j placed at haystack column h with scalar s.  Before any
    placement, ``_screen`` rejects from value counts and row weights,
    which it does only when no placement exists, and gives each needle
    column the haystack columns whose counts let them play it.
    """
    if haystack.p != needle.p:
        raise ValueError("field mismatch between haystack and needle")
    p = haystack.p
    if needle.nrows > haystack.nrows or needle.ncols > haystack.ncols:
        return None
    col_fits = _screen(haystack, needle)
    if col_fits is None:
        return None
    hay_cols = haystack.columns
    ndl_cols = needle.columns

    # rows_at[h][v]: the haystack rows where column h holds v
    rows_at = [[{r for r, x in enumerate(col) if x == v} for v in range(p)] for col in hay_cols]

    row_of: list[int | None] = [None] * needle.nrows
    col_map: list[int] = []
    col_scalar: list[int] = []

    def place_rows(pend: list[int], k: int, j: int) -> bool:
        if k == len(pend):
            return j == needle.ncols or place_col(j + 1)
        i = pend[k]
        # the free rows where every placed column agrees with needle row i;
        # a row unplaced so far is zero in the earlier needle columns, so
        # there those columns must vanish
        fits = set(range(haystack.nrows)).difference(row_of)
        for c, (h, s) in enumerate(zip(col_map, col_scalar)):
            fits &= rows_at[h][s * ndl_cols[c][i] % p]
        for r in sorted(fits):
            row_of[i] = r
            if place_rows(pend, k + 1, j):
                return True
        row_of[i] = None
        return False

    def place_col(j: int) -> bool:
        if j == needle.ncols:
            # the rows left are zero in every needle column
            return place_rows([i for i in range(needle.nrows) if row_of[i] is None], 0, j)
        col = ndl_cols[j]
        for h in range(haystack.ncols):
            if h in col_map or not col_fits[j] >> h & 1:
                continue
            for s in range(1, p):
                if any(r is not None and hay_cols[h][r] != s * x % p for r, x in zip(row_of, col)):
                    continue
                col_map.append(h)
                col_scalar.append(s)
                if place_rows([i for i in range(needle.nrows) if row_of[i] is None and col[i]], 0, j):
                    return True
                col_scalar.pop()
                col_map.pop()
        return False

    if not place_col(0):
        return None
    signed = tuple(s if s <= p // 2 else s - p for s in col_scalar)
    return SubmatrixHit(tuple(row_of), tuple(col_map), signed)


# -- forbidden matrices ------------------------------------------------------------


@dataclass(frozen=True)
class ScanHit:
    id: str
    hit: SubmatrixHit


def forbidden_scan(P: GFMatrix) -> tuple[ScanHit, ...]:
    """Every catalog forbidden matrix A-O occurring in P, in catalog order:
    the needles of the classifier's list that no trail crops.

    A matrix that occurs several times is still reported once, with the
    first placement find_submatrix finds.
    """
    if P.p != 3:
        raise ValueError("the forbidden catalog lives over GF(3)")
    hits = ((key, find_submatrix(P, needle)) for key, _, trail, needle in _classifier_needles() if not trail)
    return tuple(ScanHit(key, hit) for key, hit in hits if hit is not None)


# Cropped variants of catalog matrices that the classifier also scans
# for.  Each is reproduced from its base matrix by a replayable move
# trail, so a hit on the variant certifies the base just as well.
_DERIVED: dict[str, tuple[str, tuple[tuple, ...]]] = {
    "A'": ("A", (("append_zero_sum_row",), ("remove_row", 0))),
    "E'": ("E", (("remove_row", 2),)),
    "G'": ("G", (("remove_row", 3),)),
}


def _needle(base: str, trail: tuple) -> GFMatrix:
    return apply_moves(named(f"FORBIDDEN_{base}").matrix, trail)


@functools.cache
def _classifier_needles() -> tuple[tuple[str, str, tuple, GFMatrix], ...]:
    """(name, base, trail, needle) for every catalog matrix, then every
    cropped variant."""
    trails = {key: (key, ()) for key in FORBIDDEN} | _DERIVED
    return tuple((name, base, trail, _needle(base, trail)) for name, (base, trail) in trails.items())


def _table_host(base: str) -> LinearMatroid:
    """M([I|D|X]) for the catalog matrix X, labeled as its contract hint is."""
    mat = named(f"FORBIDDEN_{base}").matrix
    return universal_matroid(mat, mat.nrows)


@functools.cache
def _table_witness(base: str) -> MinorWitness:
    """Minor witness tying a catalog matrix to the eight-point affine
    witness, computed once per letter."""
    hint = named(f"FORBIDDEN_{base}").contract_hint
    w = has_minor(_table_host(base), named("AG23E").matroid(), hint)
    if w is None:
        raise RuntimeError(f"catalog matrix {base} lost its minor")
    return w


# the family each completed T payload stands for
_T_FAMILIES = {1: PI, 2: SIGMA, 3: OMEGA}


def _t_target(t_index: int) -> GFMatrix:
    """The catalog payload T<t_index> with its zero-sum row appended."""
    return add_zero_sum_row(named(f"T{t_index}").matrix)


# -- the classifier ----------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Outcome of classify_Y_template.

    moves carries the normalization trail from the input to normalized;
    certificate is a tagged tuple that verify_classification re-derives.
    """

    verdict: str
    moves: tuple
    normalized: GFMatrix
    certificate: tuple
    notes: tuple[str, ...] = ()


def _main_case(P: GFMatrix) -> tuple[int, int, tuple[int, ...]] | None:
    """Look for two rows where every column is nonzero with equal values.

    Returns the lexicographically first such pair plus the per-column
    scalars that put -1 entries there for the 4-nonzero columns, or
    None.  Assumes columns are in normal form.
    """
    for r1, r2 in itertools.combinations(range(P.nrows), 2):
        if all(col[r1] and col[r1] == col[r2] for col in P.columns):
            orient = tuple(-1 if col[r1] == 1 and weight(col) == 4 else 1 for col in P.columns)
            return r1, r2, orient
    return None


def classify_Y_template(P: GFMatrix) -> Classification:
    """Sort the complete lifted Y-template determined by P.

    The cascade: bring P to a zero-sum normal form, scan for forbidden
    matrices, then try the two shapes whose members are signed-graphic
    (a pair of full rows with matching signs; all-ones columns sharing a
    row), then match what is left against the payload matrices behind
    the Pi, Sigma and Omega families.  Every verdict except Unclassified
    carries a replayable certificate.
    """
    if P.p != 3:
        raise ValueError("Y-template classification works over GF(3)")
    moves: list[tuple] = []
    notes: list[str] = []
    cur = P

    def move(*mv: object, note: str | None = None) -> None:
        # the replay's own table makes the move, so it passed the replay's test
        nonlocal cur
        moves.append(mv)
        cur = _MOVES[mv[0]](cur, *mv[1:])
        if note is not None:
            notes.append(note)

    def result(verdict: str, certificate: tuple, note: str) -> Classification:
        return Classification(verdict, tuple(moves), cur, certificate, (*notes, note))

    if any(sum(col) % 3 for col in cur.columns):
        move("append_zero_sum_row", note="appended the zero-sum row")

    kept = tuple(j for j, col in enumerate(cur.columns) if classify_column(col)[0] not in (ZERO, GRAPHIC))
    if len(kept) != cur.ncols:
        move("strip_columns", kept, note="stripped graphic or zero columns")
    kept = tuple(_dedupe_indices(cur))
    if len(kept) != cur.ncols:
        move("dedupe_columns", kept, note="merged duplicate columns")

    graded = [classify_column(col) for col in cur.columns]
    scalars = tuple(1 if s is None else s for _, s in graded)
    if any(s != 1 for s in scalars):
        move("scale_columns", scalars)
    kinds = tuple(k for k, _ in graded)

    for name, base, trail, needle in _classifier_needles():
        sub = find_submatrix(cur, needle)
        if sub is not None:
            cert = ("forbidden_hit", name, base, trail, sub, _table_witness(base))
            return result(CONTAINS_AG23E, cert, f"forbidden matrix {name} found")

    if OTHER in kinds:
        # a zero-sum column outside the taxonomy always carries a
        # forbidden pattern, so this arm should be unreachable; kept so
        # a scanner defect degrades loudly instead of misclassifying
        return result(UNCLASSIFIED, ("none",), "column outside the type taxonomy survived the scan")

    nz_rows = tuple(i for i in range(cur.nrows) if any(cur.rows[i]))
    if len(nz_rows) != cur.nrows:
        move("drop_zero_rows", nz_rows)

    if cur.ncols == 0:
        cert = ("frame_form", universal_matrix(cur, cur.nrows))
        return result(SIGNED_GRAPHIC, cert, "no columns survive normalization")

    mc = _main_case(cur)
    if mc is not None:
        r1, r2, orient = mc
        if any(s != 1 for s in orient):
            move("scale_columns", orient)
        move("remove_row", r1)
        border = r2 - 1  # r1 < r2, so the partner row moves up once
        pre = universal_matrix(cur, cur.nrows)
        cert = ("main_case", border, pre, signed_graphic_reduce(pre, border))
        return result(SIGNED_GRAPHIC, cert, f"rows {r1} and {r2} cover every column with equal signs")

    if kinds and all(k == TYPE3 for k in kinds):
        common = set(range(cur.nrows))
        for col in cur.columns:
            common &= {i for i, x in enumerate(col) if x}
        if common:
            r = min(common)
            move("remove_row", r)
            cert = ("frame_form", universal_matrix(cur, cur.nrows))
            return result(SIGNED_GRAPHIC, cert, f"all-ones columns share row {r}")

    for t_index, verdict in _T_FAMILIES.items():
        sub = find_submatrix(_t_target(t_index), cur)
        if sub is not None:
            return result(verdict, ("t_embedding", t_index, sub), f"embeds in the completed T{t_index} payload")

    return result(UNCLASSIFIED, ("none",), "no cascade rule matched")


def signed_graphic_reduce(A: GFMatrix, border_row: int = 0) -> GFMatrix:
    """Subtract every other row from the border row.

    For a matrix [I | D | P] whose payload splits, under a full border
    row of units, into unit columns and two-ones columns, this leaves at
    most two nonzero entries in every column.  The operation is an
    invertible row transformation, so column dependences are untouched.
    Raises ValueError when some column stays heavier than two.
    """
    if not 0 <= border_row < A.nrows:
        raise ValueError("border row out of range")
    border = list(A.rows[border_row])
    for i, row in enumerate(A.rows):
        if i != border_row:
            border = [(b - x) % A.p for b, x in zip(border, row)]
    rows = [tuple(border) if i == border_row else A.rows[i] for i in range(A.nrows)]
    out = GFMatrix(A.p, rows, ncols=A.ncols)
    for j, col in enumerate(out.columns):
        if weight(col) > 2:
            raise ValueError(f"column {j} keeps {weight(col)} nonzero entries")
    return out


def is_signed_graphic_form(A: GFMatrix) -> bool:
    """At most two nonzero entries in every column."""
    return all(weight(col) <= 2 for col in A.columns)


def verify_classification(P: GFMatrix, cls: Classification) -> tuple[bool, str]:
    """Re-check a Classification against its input from scratch.

    Replays the move trail (every move re-validates its own legality),
    compares the outcome with cls.normalized, then re-derives whatever
    the certificate asserts.  Returns (ok, reason) for every input: a
    malformed trail or certificate is rejected, never raised.
    """
    try:
        cur = apply_moves(P, cls.moves)
    except ValueError as exc:
        return False, f"move replay failed: {exc}"
    if cur != cls.normalized:
        return False, "replayed moves do not reproduce the normalized matrix"
    try:
        return _check_certificate(cur, cls)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # a certificate of the wrong shape, with parts of the wrong type, or
        # naming a catalog matrix, trail or border row that does not exist
        return False, f"certificate check raised {exc!r}"


# the verdict each certificate tag proves; a t_embedding proves the family
# of its payload, which _T_FAMILIES names
_CERTIFIES = {
    "frame_form": SIGNED_GRAPHIC,
    "main_case": SIGNED_GRAPHIC,
    "forbidden_hit": CONTAINS_AG23E,
    "none": UNCLASSIFIED,
}


def _check_certificate(cur: GFMatrix, cls: Classification) -> tuple[bool, str]:
    """verify_classification's check of what cls.certificate asserts about
    the replayed matrix cur; may raise on a malformed certificate."""
    tag, *args = cls.certificate
    if tag == "t_embedding":
        proves = _T_FAMILIES.get(args[0])
    elif tag in _CERTIFIES:
        proves = _CERTIFIES[tag]
    else:
        return False, f"unknown certificate tag {tag!r}"
    if proves != cls.verdict:
        return False, f"{tag} certificate does not prove the verdict {cls.verdict}"

    if tag == "none":
        return True, "ok"

    if tag == "t_embedding":
        t_index, sub = args
        if not check_submatrix_hit(_t_target(t_index), cur, sub):
            return False, "embedding does not check out entry by entry"
        return True, "ok"

    if tag == "forbidden_hit":
        _, base, trail, sub, witness = args
        if not check_submatrix_hit(cur, _needle(base, trail), sub):
            return False, "forbidden hit does not check out entry by entry"
        if witness is None:
            return False, "missing minor witness"
        if not verify_witness(_table_host(base), named("AG23E").matroid(), witness):
            return False, "minor witness fails"
        return True, "ok"

    # frame_form stores the universal matrix of cur, which is in frame
    # shape; main_case stores it between its border row and its reduction
    if tag == "frame_form":
        (uni,) = args
        framed = uni
    else:
        border, uni, framed = args
    if uni != universal_matrix(cur, cur.nrows):
        return False, "stored universal matrix does not match the normalized matrix"
    if tag == "main_case" and signed_graphic_reduce(uni, border) != framed:
        return False, "border reduction does not reproduce the stored matrix"
    if not is_signed_graphic_form(framed):
        return False, f"{tag} matrix is not in frame shape"
    return True, "ok"


# -- frame templates ---------------------------------------------------------------


def _in_row_space(basis: GFMatrix, v: Sequence[int]) -> bool:
    vec = tuple(x % 3 for x in v)
    if len(vec) != basis.ncols:
        raise ValueError("vector length does not match the collection")
    # the basis rows are independent (FrameTemplate checks it)
    return len(row_reduce([*basis.rows, vec], basis.ncols, 3)[1]) == basis.nrows


@dataclass(frozen=True)
class FrameTemplate:
    """A frame template over GF(3).

    gamma is the sign group as residues, frozenset({1}) or
    frozenset({1, 2}).  c, x, y0, y1 are disjoint label tuples.  a1 has
    one row per X label and one column per C, Y0, Y1 label in that
    order.  delta_basis rows span the row collection (coordinates
    C, Y0, Y1) and lambda_basis rows span the column collection
    (coordinates X); either basis may have zero rows, meaning the
    trivial collection.
    """

    gamma: frozenset
    c: tuple[int, ...]
    x: tuple[int, ...]
    y0: tuple[int, ...]
    y1: tuple[int, ...]
    a1: GFMatrix
    delta_basis: GFMatrix
    lambda_basis: GFMatrix

    def __post_init__(self) -> None:
        if self.gamma not in (frozenset({1}), frozenset({1, 2})):
            raise ValueError("gamma must be {1} or {1,-1} as residues mod 3")
        labels = (*self.c, *self.x, *self.y0, *self.y1)
        if len(set(labels)) != len(labels):
            raise ValueError("C, X, Y0, Y1 must be disjoint")
        ncols = len(self.c) + len(self.y0) + len(self.y1)
        if self.a1.p != 3 or self.delta_basis.p != 3 or self.lambda_basis.p != 3:
            raise ValueError("template matrices live over GF(3)")
        if self.a1.nrows != len(self.x) or self.a1.ncols != ncols:
            raise ValueError("A1 must be |X| by |C|+|Y0|+|Y1|")
        if self.delta_basis.ncols != ncols:
            raise ValueError("delta basis width must be |C|+|Y0|+|Y1|")
        if self.lambda_basis.ncols != len(self.x):
            raise ValueError("lambda basis width must be |X|")
        if self.delta_basis.rank() != self.delta_basis.nrows:
            raise ValueError("delta basis rows are dependent")
        if self.lambda_basis.rank() != self.lambda_basis.nrows:
            raise ValueError("lambda basis rows are dependent")

    def in_delta(self, v: Sequence[int]) -> bool:
        return _in_row_space(self.delta_basis, v)

    def in_lambda(self, v: Sequence[int]) -> bool:
        return _in_row_space(self.lambda_basis, v)


_SIGNS = frozenset({1, 2})


_ONE = GFMatrix(3, [[1]])
_EMPTY = GFMatrix.zeros(3, 0, 0)

# the six minimal templates, by id
_TEMPLATES = {
    "PHI2": FrameTemplate(_SIGNS, (), (), (), (), _EMPTY, _EMPTY, _EMPTY),
    "PHI_C": FrameTemplate(_SIGNS, (0,), (), (), (), GFMatrix.zeros(3, 0, 1), _ONE, _EMPTY),
    "PHI_X": FrameTemplate(_SIGNS, (), (0,), (), (), GFMatrix.zeros(3, 1, 0), _EMPTY, _ONE),
    "PHI_Y0": FrameTemplate(_SIGNS, (), (), (0,), (), GFMatrix.zeros(3, 0, 1), _ONE, _EMPTY),
    "PHI_CX": FrameTemplate(_SIGNS, (0,), (1,), (), (), _ONE, _ONE, _ONE),
    "PHI_CX2": FrameTemplate(_SIGNS, (0,), (1,), (), (), GFMatrix(3, [[-1]]), _ONE, _ONE),
}


def named_template(id_: str) -> FrameTemplate:
    """The six minimal templates: PHI2, PHI_C, PHI_X, PHI_Y0, PHI_CX,
    PHI_CX2."""
    try:
        return _TEMPLATES[id_]
    except KeyError:
        raise KeyError(f"unknown template id {id_!r}") from None


# -- placements and respects -------------------------------------------------------


@dataclass(frozen=True)
class Placement:
    """Row and column roles for testing a matrix against a template.

    x_rows lists the rows playing X, in template order; the column
    tuples likewise.  Columns in none of the tuples are the frame
    columns.
    """

    x_rows: tuple[int, ...] = ()
    c_cols: tuple[int, ...] = ()
    y0_cols: tuple[int, ...] = ()
    y1_cols: tuple[int, ...] = ()
    z_cols: tuple[int, ...] = ()


@dataclass(frozen=True)
class RespectsReport:
    ok: bool
    reason: str


def _is_frame_column(entries: Sequence[int], gamma: frozenset) -> bool:
    nz = [x for x in entries if x]
    if len(nz) == 0:
        return True
    if len(nz) == 1:
        return nz[0] == 1
    if len(nz) == 2:
        a, b = nz
        return (a == 1 and (-b) % 3 in gamma) or (b == 1 and (-a) % 3 in gamma)
    return False


def respects(A: GFMatrix, pl: Placement, t: FrameTemplate) -> RespectsReport:
    """Check the structural requirements for A to respect t under pl.

    In order: the A1 block equals t.a1; Z columns vanish on X and are
    unit or zero below; the frame columns form a gamma-frame matrix
    below X; the frame columns restricted to X lie in the lambda
    collection; the non-X rows of the C, Y0, Y1 block lie in the delta
    collection.  The first failure is reported.  Malformed placements
    raise ValueError.
    """
    if A.p != 3:
        raise ValueError("templates operate over GF(3)")
    if (
        len(pl.x_rows) != len(t.x)
        or len(pl.c_cols) != len(t.c)
        or len(pl.y0_cols) != len(t.y0)
        or len(pl.y1_cols) != len(t.y1)
    ):
        raise ValueError("placement sizes disagree with the template")
    if len(set(pl.x_rows)) != len(pl.x_rows) or any(not 0 <= i < A.nrows for i in pl.x_rows):
        raise ValueError("X rows out of range or repeated")
    special = (*pl.c_cols, *pl.y0_cols, *pl.y1_cols)
    taken = (*special, *pl.z_cols)
    if len(set(taken)) != len(taken) or any(not 0 <= j < A.ncols for j in taken):
        raise ValueError("placement columns out of range or overlapping")

    x_set = set(pl.x_rows)
    rest_rows = tuple(i for i in range(A.nrows) if i not in x_set)
    frame_cols = tuple(j for j in range(A.ncols) if j not in set(taken))

    for jj, j in enumerate(special):
        for ii, i in enumerate(pl.x_rows):
            if A.entry(i, j) != t.a1.entry(ii, jj):
                return RespectsReport(False, f"A1 block differs at X position {ii}, column {j}")
    for j in pl.z_cols:
        col = A.column(j)
        if any(col[i] for i in pl.x_rows):
            return RespectsReport(False, f"Z column {j} is nonzero on an X row")
        below = [col[i] for i in rest_rows]
        w = weight(below)
        if w > 1 or (w == 1 and 1 not in below):
            return RespectsReport(False, f"Z column {j} is not unit or zero below X")
    for j in frame_cols:
        col = A.column(j)
        if not _is_frame_column([col[i] for i in rest_rows], t.gamma):
            return RespectsReport(False, f"column {j} breaks the frame shape below X")
    for j in frame_cols:
        if not t.in_lambda([A.entry(i, j) for i in pl.x_rows]):
            return RespectsReport(False, f"column {j} leaves the lambda collection on X")
    for i in rest_rows:
        if not t.in_delta([A.entry(i, j) for j in special]):
            return RespectsReport(False, f"row {i} leaves the delta collection")
    return RespectsReport(True, "ok")
