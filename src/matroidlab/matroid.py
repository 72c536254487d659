"""Linear matroids presented by matrices over GF(3) or GF(5).

A LinearMatroid is a GFMatrix plus distinct integer labels, one per column.
The isomorphism and embedding searches run on the simplifications, pruning
with the lines through the columns' projective points; loops and parallel
classes are mapped around them.  Every answer is re-checked from the columns
alone, in one of two ways.  Over one field, a linear map that sends each
column to a nonzero multiple of its image certifies it.  Otherwise, and
always across fields, subset independence decides: a depth-first walk over
subsets that eliminates once per prefix and keeps both sides' later columns
reduced modulo the prefix's span, so each one-element extension is a zero
test.  In a walk of rank at least 3, the node with three elements left to
place settles the last two levels without eliminating: for each element,
which later columns are parallel modulo it, read off cross products (line
keys).  A walk of rank 2 eliminates.  A rejection always comes from the
walk.  Results are matroid-level statements even though all the arithmetic
is exact linear algebra.

The search also prunes by the host's symmetry, the orbit pruning of McKay
and Piperno (Practical graph isomorphism, II, J. Symb. Comput. 2014), at
every depth: a node whose failed subtrees have grown large skips each
remaining candidate that is not the least label of its orbit under the
host's monomial automorphisms that map each parallel class of the host onto
one of the same size and fix every image placed above the node.  Only the
maps that merge two orbits are kept, and each of them only once
``verify_bijection`` has certified it an automorphism of the host's
simplification; the maps are enumerated only until the orbits are the
classes of an invariant that no such automorphism can merge further.  If f
is an embedding that extends the node's prefix and sends its element to y,
then for each such automorphism g, g . f is one that extends the same
prefix and sends it to g(y).  So if a candidate has an embedding, so has
the least label of its orbit, which passes every filter that the candidate
passes, is tried first, and whose subtree is searched in full.  Skipping
every other label of the orbit therefore loses no answer: a negative stays
a proof, and the first embedding in the search's order, the
lexicographically least isomorphism when sizes are equal, is still the one
found, byte for byte.

Determinism contract: every search in this module iterates labels and
candidates in a fixed order, so repeated runs agree byte for byte; the
isomorphism search's order is sorted, so its witness is the
lexicographically least isomorphism.  The search's node loop runs on the
host's point indices, whose ascending order is sorted label order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .gf import GFMatrix, row_reduce


def _insert_into_basis(v: Sequence[int], basis: list, p: int) -> bool:
    """Reduce v against an echelon basis; insert if independent.

    basis holds (lead_index, normalized_vector) pairs.  Returns True when v
    was independent of the span and got inserted.
    """
    w = list(v)
    for lead, row in basis:
        c = w[lead]
        if c:
            w = [(a - c * b) % p for a, b in zip(w, row)]
    for i, x in enumerate(w):
        if x:
            inv = pow(x, p - 2, p)
            w = [(a * inv) % p for a in w]
            basis.append((i, w))
            return True
    return False


@functools.lru_cache(maxsize=1 << 16)  # every vector of GF(5)^6 fits
def _normalize(v: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """v scaled so its first nonzero entry is 1: its projective point, or
    None for the zero vector.  Memoized per (v, p)."""
    lead = next((c for c in v if c), 0)
    if not lead:
        return None
    inv = pow(lead, p - 2, p)
    return tuple((c * inv) % p for c in v)


@functools.lru_cache(maxsize=1 << 14)  # catalog-sized inputs use at most about 1,300 point pairs
def _line_rest(u: tuple[int, ...], v: tuple[int, ...], p: int) -> tuple[tuple[int, ...], ...]:
    """The points of the line through the points u and v other than u and
    v: u + t*v for t = 1 .. p - 1, normalized.  Memoized per (u, v, p)."""
    return tuple(_normalize(tuple((c + t * d) % p for c, d in zip(u, v)), p) for t in range(1, p))


@functools.lru_cache(maxsize=1 << 14)  # a minor_sweep pass meets about 1,200 point pairs
def _project(x: tuple[int, ...], y: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """The point of y in M/x, for the points x and y of M: y less the
    multiple of x that zeroes y's entry at x's lead, without that entry,
    normalized; None when y is parallel to x.  Row by row this pivots on x
    at its lead, and contraction is projection from x (Oxley, Matroid
    Theory, 3.1), so y and z are parallel in M/x exactly when x, y and z
    span a line.  It is the package's one contraction step.  Memoized per
    (x, y, p)."""
    lead = next(i for i, c in enumerate(x) if c)  # x[lead] is 1
    f = y[lead]
    if not f:
        return _normalize(y[:lead] + y[lead + 1:], p)
    return _normalize(y[:lead] + tuple((a - f * b) % p for a, b in zip(y[lead + 1:], x[lead + 1:])), p)


def _contract_points(points: Mapping[int, tuple[int, ...] | None], x: int,
                     p: int) -> dict[int, tuple[int, ...] | None]:
    """label -> point of M/x (None for a loop), from label -> point of M, in
    the same order: each other point projected from x's by ``_project``.  A
    loop x is dropped and nothing else changes."""
    px = points[x]
    if px is None:
        return {y: pt for y, pt in points.items() if y != x}
    return {y: None if pt is None else _project(px, pt, p) for y, pt in points.items() if y != x}


def _least_points(points: Mapping[int, tuple[int, ...] | None]) -> dict[int, tuple[int, ...]]:
    """The least label of each point with its point, in points' order: the
    points of the simplification."""
    least: dict[tuple[int, ...], int] = {}
    for y, pt in points.items():
        if pt is not None and least.get(pt, y) >= y:
            least[pt] = y
    return {y: pt for y, pt in points.items() if pt is not None and least[pt] == y}


def _from_points(points: Mapping[int, tuple[int, ...] | None], height: int, p: int) -> "LinearMatroid":
    """The matroid on points' labels, in order, whose columns are their
    points, a zero column of the given height for each loop.  It is handed
    the points, so it never normalizes them again."""
    zero = (0,) * height
    m = LinearMatroid(GFMatrix.from_columns(p, [zero if pt is None else pt for pt in points.values()], nrows=height),
                      list(points))
    m._points = points
    return m


class LinearMatroid:
    """Vector matroid of a matrix, with stable integer column labels."""

    def __init__(self, matrix: GFMatrix, labels: Sequence[int] | None = None):
        if labels is None:
            labels = range(matrix.ncols)
        labels = tuple(int(x) for x in labels)
        if len(labels) != matrix.ncols:
            raise ValueError("need exactly one label per column")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        self.matrix = matrix
        self.labels = labels
        self._col_of = {lab: j for j, lab in enumerate(labels)}
        self._rank: int | None = None
        self._points: dict[int, tuple[int, ...] | None] | None = None
        self._simple: LinearMatroid | None = None
        self._pair_table: _PairTable | None = None
        self._orbits: dict[tuple[int, ...], dict[int, int]] = {}  # fixed labels -> _orbit_minima
        self._certified: set[tuple[int, ...]] = set()  # the maps _orbit_minima has certified
        self._patterns: dict[bool, _Pattern] = {}

    # -- basics ---------------------------------------------------------------

    @property
    def p(self) -> int:
        return self.matrix.p

    @property
    def size(self) -> int:
        return len(self.labels)

    def column_of(self, label: int) -> tuple[int, ...]:
        return self.matrix.columns[self._col_index(label)]

    def _col_index(self, label: int) -> int:
        try:
            return self._col_of[label]
        except KeyError:
            raise KeyError(f"unknown element label {label}") from None

    def __repr__(self) -> str:
        return f"LinearMatroid(GF({self.p}), rank {self.rank()}, {self.size} elements)"

    # -- rank oracle ------------------------------------------------------------

    def rank(self, subset: Iterable[int] | None = None) -> int:
        """The rank of subset's columns, read as the rows of a matrix, or of
        the matrix.  Only the full rank, the one rank asked for again, is
        kept."""
        if subset is not None:
            return len(row_reduce([self.column_of(x) for x in set(subset)], self.matrix.nrows, self.p)[1])
        if self._rank is None:
            self._rank = len(row_reduce(self.matrix.rows, self.matrix.ncols, self.p)[1])
        return self._rank

    # -- minors -----------------------------------------------------------------

    def delete(self, labels: Iterable[int]) -> "LinearMatroid":
        drop = {self._col_index(x) for x in set(labels)}
        return self._take([j for j in range(self.matrix.ncols) if j not in drop])

    def restrict(self, labels: Iterable[int]) -> "LinearMatroid":
        keep_set = set(labels)
        for x in keep_set:
            self._col_index(x)
        return self._take([j for j, lab in enumerate(self.labels) if lab in keep_set])

    def _take(self, keep: list[int]) -> "LinearMatroid":
        """The restriction to the columns at positions keep."""
        return LinearMatroid(self.matrix.take_cols(keep), [self.labels[j] for j in keep])

    def contract(self, labels: Iterable[int]) -> "LinearMatroid":
        """Contract one label at a time, in sorted order, by
        ``_contract_points``; each label that is not a loop when its turn
        comes takes one row with it.  The matrix's columns are the points of
        the contraction, a zero column for each loop (``_from_points``).
        self when labels is empty."""
        labels = sorted(set(labels))
        if not labels:
            return self
        points = self._point_map()
        height = self.matrix.nrows
        for x in labels:
            self._col_index(x)
            height -= points[x] is not None
            points = _contract_points(points, x, self.p)
        return _from_points(points, height, self.p)

    # -- points and simplification -----------------------------------------------

    def _point_map(self) -> dict[int, tuple[int, ...] | None]:
        """label -> its projective point (the column scaled so its first
        nonzero entry is 1), or None for a loop.  Computed once."""
        if self._points is None:
            p = self.p
            self._points = {lab: _normalize(col, p) for lab, col in zip(self.labels, self.matrix.columns)}
        return self._points

    def simplify(self) -> "LinearMatroid":
        """The restriction to the least label of each parallel class, with
        its points as columns (``_from_points``), built once; self when
        already simple, so that what is cached on it is kept."""
        if self.is_simple():
            return self
        if self._simple is None:
            self._simple = _from_points(_least_points(self._point_map()), self.matrix.nrows, self.p)
        return self._simple

    def is_simple(self) -> bool:
        pts = self._point_map().values()
        return None not in pts and len(set(pts)) == len(pts)

    # -- duality ------------------------------------------------------------------

    def dual(self) -> "LinearMatroid":
        rref, piv = self.matrix.rref()
        n = self.matrix.ncols
        nonpiv = [j for j in range(n) if j not in piv]
        p = self.p
        cols: list[list[int]] = [[0] * len(nonpiv) for _ in range(n)]
        for i, j in enumerate(piv):
            cols[j] = [(-rref.rows[i][q]) % p for q in nonpiv]
        for k, q in enumerate(nonpiv):
            cols[q] = [1 if t == k else 0 for t in range(len(nonpiv))]
        dual_matrix = GFMatrix.from_columns(p, cols, nrows=len(nonpiv))
        return LinearMatroid(dual_matrix, self.labels)


# -- witnesses ---------------------------------------------------------------------


@dataclass(frozen=True)
class MinorWitness:
    """Certificate that N is isomorphic to M/contracted\\deleted.

    mapping is a sorted tuple of (target label, surviving M label) pairs.
    """

    contracted: tuple[int, ...]
    deleted: tuple[int, ...]
    mapping: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)


def _eliminate(pivot: list, cols: Sequence[list], p: int) -> list:
    """cols reduced by the nonzero column pivot, then without the entry at
    pivot's first nonzero position (the lead), which the reduction made 0.

    Each column loses the multiple of pivot that zeroes its lead entry, so
    it becomes zero exactly when it lay in the span of pivot and of what it
    had been reduced by before.  pivot is 0 above its lead, so the entries
    there are unchanged.
    """
    for lead, x in enumerate(pivot):
        if x:
            break
    inv = pow(x, p - 2, p)
    rest = pivot[lead + 1:]
    out = []
    for w in cols:
        c = w[lead]
        if c:
            f = c * inv % p
            out.append(w[:lead] + [(a - f * b) % p for a, b in zip(w[lead + 1:], rest)])
        else:
            out.append(w[:lead] + w[lead + 1:])
    return out


def _same_independent_sets(a_cols: Sequence, a_p: int, b_cols: Sequence, b_p: int, r: int) -> bool:
    """Do the columns a_cols[i] <-> b_cols[i] give the same independent sets
    of size at most r?  When r >= 3 each column has r entries, as the
    coordinates ``verify_witness`` passes do.

    Subsets are walked depth first by increasing index.  Each node, an
    independent prefix, carries both sides' later columns reduced modulo the
    prefix's span, so extending the prefix by one of them keeps it
    independent exactly when its reduced column is nonzero; the walk returns
    False at the first node whose two nonzero patterns differ.  A child
    reduces the columns after its new element by that element's reduced
    column, one elimination per side, which also drops an entry, so a node
    with r elements left to place holds r-entry columns.  A column that is
    zero on both sides makes the prefix dependent on both sides, and every
    superset too, so it is dropped from the subtree; every subset of size at
    most r is therefore decided, and the test is complete.  When r >= 3 the
    last two levels make no child: a node with three elements left to place
    compares, for each element j, both sides' ``_line_keys`` of the columns
    after j: a child's grandchild compares which of them are parallel
    modulo j, and those are the ones whose cross products with j are
    parallel.  A walk with r = 2 eliminates at its root.
    """
    return r == 0 or _same_below(r, [list(v) for v in a_cols], a_p, [list(w) for w in b_cols], b_p)


def _same_below(r: int, a: list, a_p: int, b: list, b_p: int) -> bool:
    """``_same_independent_sets`` at one node, with r more elements to
    place: a and b are both sides' later columns reduced modulo the
    prefix."""
    live = [any(v) for v in a]
    if live != [any(w) for w in b]:
        return False
    if r == 1:
        return True
    a = [v for v, keep in zip(a, live) if keep]
    b = [w for w, keep in zip(b, live) if keep]
    if r == 3:
        return all(_line_keys(a[j], a[j + 1:], a_p) == _line_keys(b[j], b[j + 1:], b_p) for j in range(len(a)))
    for j in range(len(a)):
        if not _same_below(r - 1, _eliminate(a[j], a[j + 1:], a_p), a_p, _eliminate(b[j], b[j + 1:], b_p), b_p):
            return False
    return True


def _line_keys(j: Sequence[int], cols: Sequence, p: int) -> list[int]:
    """For each of the 3-entry columns cols, -1 if it is parallel to the
    nonzero j, else the index of the first column whose cross product with
    j is parallel to its own.

    u x j = 0 exactly when u is parallel to j, and u -> u x j is linear with
    kernel span(j), so u and v are parallel modulo j (u - cv in span(j) for
    a nonzero c) exactly when u x j and v x j are parallel: the cross
    products name the planes through j, the lines of PG(2, p) through its
    point.  Each cross product is scaled so that its first nonzero entry is
    1.
    """
    j0, j1, j2 = j
    first: dict[tuple[int, int, int], int] = {}
    out = []
    for i, (u0, u1, u2) in enumerate(cols):
        x, y, z = (u1 * j2 - u2 * j1) % p, (u2 * j0 - u0 * j2) % p, (u0 * j1 - u1 * j0) % p
        lead = x or y or z
        if not lead:
            out.append(-1)
            continue
        if lead != 1:
            inv = pow(lead, p - 2, p)
            x, y, z = x * inv % p, y * inv % p, z * inv % p
        out.append(first.setdefault((x, y, z), i))
    return out


def _linear_map_certifies(a: tuple, b: tuple, p: int) -> bool:
    """For a and b, the pivots and nonzero rows that ``row_reduce`` gives
    for columns a_cols and b_cols of one length, their greedy basis and
    every column's coordinates in it: is b_cols[j] = d_j * L(a_cols[j]) for
    every j, for one injective linear map L on the span of a_cols and
    nonzero scalars d_j?  Then every subset of the columns has the same
    rank on both sides.

    Both sides must have the same greedy basis B.  With C and C' their
    columns' coordinates in B, L sends a_cols[B_i] to b_cols[B_i] / d_{B_i}
    exactly when C'[i][j] = C[i][j] * d_j / d_{B_i}: C' is C with nonzero
    row and column scalars, which a basis column's single 1 ties together.
    So C and C' need the same support; the scalars are fixed along a
    spanning forest of its bipartite graph (rows against columns), each
    tree's first row scaled by 1, and then every entry is compared.
    """
    (basis, c), (b_basis, d) = a, b
    if basis != b_basis:
        return False
    if any(bool(x) != bool(y) for row, b_row in zip(c, d) for x, y in zip(row, b_row)):
        return False
    row_scale: list = [None] * len(c)
    col_scale: dict[int, int] = {}
    for root in range(len(c)):
        if row_scale[root] is not None:
            continue
        row_scale[root], todo = 1, [root]
        while todo:
            i = todo.pop()
            for j, x in enumerate(c[i]):
                if x and j not in col_scale:
                    col_scale[j] = d[i][j] * pow(row_scale[i] * x, p - 2, p) % p
                    for k, row in enumerate(c):
                        if row[j] and row_scale[k] is None:
                            row_scale[k] = d[k][j] * pow(row[j] * col_scale[j], p - 2, p) % p
                            todo.append(k)
    return all(
        y == row_scale[i] * x * col_scale[j] % p
        for i, (row, b_row) in enumerate(zip(c, d)) for j, (x, y) in enumerate(zip(row, b_row)) if x
    )


def verify_bijection(m: LinearMatroid, n: LinearMatroid, mapping: Mapping[int, int]) -> bool:
    """Full check that mapping (labels of m -> labels of n) is an isomorphism.

    An isomorphism is an embedding onto all of n, and at equal sizes an
    embedding's distinct images inside n are all of n, so this is
    verify_embedding under the size test.
    """
    return m.size == n.size and verify_embedding(m, n, mapping)


def verify_embedding(m: LinearMatroid, n: LinearMatroid, mapping: Mapping[int, int]) -> bool:
    """Full check that mapping embeds m into n preserving every subset rank:
    a restriction is the minor of n that contracts nothing."""
    deleted = tuple(set(n.labels) - set(mapping.values()))
    return verify_witness(n, m, MinorWitness((), deleted, tuple(mapping.items())))


def verify_witness(m: LinearMatroid, n: LinearMatroid, witness: MinorWitness) -> bool:
    """Recheck a minor witness using only m's columns, never contraction code.

    r_{M/T}(S) = r_M(S + T) - r_M(T), so S is independent in M/T exactly
    when its columns are independent modulo the span of T.  Each side is
    row reduced once (``row_reduce``): n's columns, and m's columns of T
    followed by the image columns.  In the second form the pivots below |T|
    are T's rank, and the nonzero rows after them, cut to the image
    columns, are the images' coordinates modulo span(T) in their greedy
    basis; n's nonzero rows are its columns' coordinates in its own.  A
    coordinate map is injective on the span, so every subset keeps its
    rank, and only the coordinates are compared.  The image must have n's
    rank in M/T (M/T itself may have more: deleting can lower the rank),
    and every subset of n of size at most that rank must be independent
    exactly when its image is independent in M/T.

    That is shown in one of two ways.  When m and n share a field, a linear
    map that sends each of n's columns to a nonzero multiple of its image
    modulo span(T) (``_linear_map_certifies``) shows it at once; over GF(3)
    one exists for every valid witness, since ternary matroids are uniquely
    representable.  Otherwise, and always across fields, the subsets of
    the coordinates are walked depth first (``_same_independent_sets``); a
    prefix dependent on both sides has only dependent supersets on both
    sides, so skipping its subtree leaves no subset unchecked.  So every
    rejection comes from the walk.  A witness that repeats a label, names
    one m does not have, or holds a mapping entry that is not a pair, is
    rejected.
    """
    contracted = set(witness.contracted)
    deleted = set(witness.deleted)
    try:
        mapping = witness.as_dict()
    except (TypeError, ValueError):
        return False
    # the sets and as_dict would silently merge a repeated label
    if len(contracted) != len(witness.contracted) or len(deleted) != len(witness.deleted):
        return False
    if len(mapping) != len(witness.mapping):
        return False
    if contracted & deleted or not (contracted | deleted) <= set(m.labels):
        return False
    if set(mapping.keys()) != set(n.labels):
        return False
    image = set(mapping.values())
    if len(image) != n.size:
        return False
    survivors = set(m.labels) - contracted - deleted
    if not image <= survivors:
        return False
    if len(survivors) != n.size:
        return False
    seed = [m.column_of(x) for x in sorted(contracted)]
    k = len(seed)
    rows, pivots = row_reduce(zip(*seed, *(m.column_of(mapping[x]) for x in n.labels)), k + n.size, m.p)
    image_basis = tuple(c - k for c in pivots if c >= k)
    images = [row[k:] for row in rows[len(pivots) - len(image_basis):len(pivots)]]
    rows, basis = row_reduce(n.matrix.rows, n.size, n.p)
    coordinates, r = rows[:len(basis)], len(basis)
    # the image's rank in M/T is its coordinates' rank; ranks above n's
    # inside the image would otherwise go unnoticed
    if len(image_basis) != r:
        return False
    if m.p == n.p and _linear_map_certifies((basis, coordinates), (image_basis, images), m.p):
        return True
    return _same_independent_sets(list(zip(*coordinates)), n.p, list(zip(*images)), m.p, r)


# -- pair table for the rank-preserving search -----------------------------------------


class _PairTable:
    """A matroid's sorted loops, its classes, keys and lines over the least
    label of each parallel class, and on first use the closure of every
    pair: what both sides of a search read.

    classes maps each least label to its class, and keys to (sizes of the
    lines of >= 3 points through it, descending; class size).  The points
    are indexed in sorted label order: index[x] is the index i of the least
    label x, labels[i] is x, and points[i] is its projective point, whose
    subsets have the ranks of the columns of their labels.  lines lists
    each line once, as an int bitmask whose bit i marks the point at index
    i.  closure holds one list per point, of the lines through it indexed
    by point index: for distinct i, j, closure[i][j] is cl({i, j}), the
    line through points i and j, as a mask (closure[i][i] is 0).  closure is
    built on first read: by ``_Pattern``'s one pass over the pattern's
    points, which builds its order, pair checks and anchors from it, and on
    the host's side by the search's candidates and pair checks and by
    ``_orbit_minima``.  A search its key counts reject never reads it.

    The table is built from a label -> projective point map (None for a
    loop) and p, with no rank calls: the lines and keys come from the
    points in one pass, and the line through points u and v holds u, v and
    u + t*v for t = 1 .. p - 1.  ``of(m)`` builds m's table from its points
    once per matroid; ``has_minor``'s walk builds a stage's table from the
    stage's points before the stage is a matroid (see ``_flat_stages``).
    """

    @classmethod
    def of(cls, m: LinearMatroid) -> "_PairTable":
        if m._pair_table is None:
            m._pair_table = cls(m._point_map(), m.p)
        return m._pair_table

    def __init__(self, points: Mapping[int, tuple[int, ...] | None], p: int):
        self.loops: list[int] = []
        members: list[list[int]] = []  # point index -> its class, in label order
        index: dict[tuple[int, ...], int] = {}  # point -> its index
        for x in sorted(points):
            pt = points[x]
            if pt is None:
                self.loops.append(x)
            elif pt in index:
                members[index[pt]].append(x)
            else:
                index[pt] = len(members)
                members.append([x])
        # the points' indices run in the order of their least labels, so
        # index i is labels[i] and indices run in sorted label order
        self.labels = [c[0] for c in members]
        self.classes = {c[0]: tuple(c) for c in members}
        self.index = {x: i for i, x in enumerate(self.labels)}
        self.points = pts = list(index)
        met = [0] * len(pts)  # i -> the points on a line found through point i
        sizes: list[list[int]] = [[] for _ in pts]  # i -> sizes of its lines of >= 3 points
        self.lines: list[int] = []
        for i, u in enumerate(pts):
            for j in range(i + 1, len(pts)):
                if met[i] >> j & 1:
                    continue
                on_line = [i, j]
                line = 1 << i | 1 << j
                for w in _line_rest(u, pts[j], p):
                    k = index.get(w)
                    if k is not None:
                        on_line.append(k)
                        line |= 1 << k
                for k in on_line:
                    met[k] |= line
                if len(on_line) >= 3:
                    for k in on_line:
                        sizes[k].append(len(on_line))
                self.lines.append(line)
        self.keys = {x: (tuple(sorted(s, reverse=True)), len(self.classes[x])) for x, s in zip(self.labels, sizes)}

    @functools.cached_property
    def closure(self) -> list[list[int]]:
        closure = [[0] * len(self.labels) for _ in self.labels]
        for line in self.lines:
            for i, j in itertools.permutations(_bit_indices(line), 2):
                closure[i][j] = line
        return closure


def _bit_indices(mask: int) -> list[int]:
    """The indices of the bits set in mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _dominates(want: tuple, have: tuple) -> bool:
    """Can y, keyed have, take x, keyed want, in an embedding?  Keys are
    (line sizes, descending; class size): each line through x needs its own
    line through y, and y's class must be at least as large as x's."""
    (want_lines, want_size), (have_lines, have_size) = want, have
    return have_size >= want_size and len(have_lines) >= len(want_lines) and all(
        h >= w for h, w in zip(have_lines, want_lines)
    )


def _count_rules(tm: _PairTable, tn: _PairTable, exact: bool) -> dict[int, int] | None:
    """The counting rules of a search of m in n, from their tables; exact
    says that m and n have equal sizes.  None when the rules reject the
    search, else x -> bitmask of the admissible images y in si(n) of each
    x in si(m).

    Equal sizes need equal sorted key multisets and admit only equal keys;
    other sizes admit y when y's key dominates x's.  The keys depend on x
    and y alone, so each candidate's key test is decided once per search.
    The map induced between the simplifications is injective, so the
    search is rejected when the admissible images number fewer than si(m)'s
    points.
    """
    if exact and sorted(tm.keys.values()) != sorted(tn.keys.values()):
        return None
    fits = operator.eq if exact else _dominates
    by_key: dict = {}
    for y in tn.labels:
        by_key[tn.keys[y]] = by_key.get(tn.keys[y], 0) | 1 << tn.index[y]
    mask_of = {}
    for want in set(tm.keys.values()):
        mask_of[want] = sum(mask for have, mask in by_key.items() if fits(want, have))
    admissible = {x: mask_of[tm.keys[x]] for x in tm.labels}
    if functools.reduce(operator.or_, admissible.values(), 0).bit_count() < len(tm.labels):
        return None
    return admissible


# -- host symmetry -----------------------------------------------------------------------


def _orbit_minima(n: LinearMatroid, fixed: Iterable[int] = ()) -> dict[int, int]:
    """label -> least label of its orbit, for every label of si(n) that is
    not the least of its orbit, under the group generated by the monomial
    automorphisms of si(n)'s matrix that map each parallel class of n onto
    one of the same size and fix each label of si(n) in fixed; a map that
    moves class sizes need not carry an embedding into n to another.  Built
    once per set fixed and cached on n.

    A monomial automorphism is a row permutation with row scalars that maps
    the set of column points onto itself; it fixes a point only if its
    permutation maps the point's support onto itself, so only those
    permutations are enumerated.  The maps enumerated are every one with the
    identity permutation that fixes fixed, plus the first working scalars
    that fix it for each other permutation; any two maps with one
    permutation differ by one of the first kind, which fixes fixed as well,
    so these generate the whole stabilizer.  A map joins the orbits (each
    label's least orbit-mate so far) only if it keeps class sizes, merges
    at least two orbits, and is an automorphism of si(n) that
    ``verify_bijection`` has accepted, in that order, so only merging maps
    are certified, and each of them once per host: the maps certified are
    kept on n for every later table.  A map that merges nothing when its
    turn comes merges nothing after later unions either, so skipping it
    leaves the partition as it is.

    The enumeration stops once the orbits are the classes of the labels not
    fixed by their key in ``_PairTable.of(n)`` and the sizes of their lines
    through the fixed labels, plus one class for each fixed label.  A kept
    map is an automorphism of si(n) that keeps class sizes, so it keeps
    every point's key (its line sizes and class size), and it fixes each
    label f in fixed, so it maps the line through x and f onto the line
    through its image and f: the orbits refine those classes, and once they
    are those classes no later map can merge anything.  The maps kept and
    the partition are those of the full enumeration.

    Permutations are chosen source row by source row, each column's image
    support checked against the columns' supports once its own support is
    placed; the scalars of a permutation then image row by image row (row 0
    scaled by 1, since scaling every row moves no point), each column's image
    point looked up once its image support is fixed.  About r! * n * r steps
    at most: 720 * 30 * 6 at rank 6.

    si(n)'s labels, points, class sizes and point indices are read from
    ``_PairTable.of(n)``; the matroid si(n) is built only to be handed to
    ``verify_bijection``.  A column and its point span one point, and
    label_of holds every nonzero multiple of each point, so the points give
    the same maps, in the same order, as the columns.
    """
    fixed = tuple(sorted(set(fixed)))
    if fixed in n._orbits:
        return n._orbits[fixed]
    table = _PairTable.of(n)
    labels, points, r, p = table.labels, table.points, n.matrix.nrows, n.p
    # every nonzero multiple of each point -> its label
    label_of = {tuple(k * c % p for c in v): x for x, v in zip(labels, points) for k in range(1, p)}
    entries = [[(i, c) for i, c in enumerate(v) if c] for v in points]
    support_rows = [[i for i, _ in e] for e in entries]
    host_supports = {sum(1 << i for i in support) for support in support_rows}
    ends: list[set[tuple[int, ...]]] = [set() for _ in range(r)]  # source row -> supports ending there
    for support in support_rows:
        ends[support[-1]].add(tuple(support))
    # source row -> the supports of fixed points ending there, which must map onto themselves
    kept: list[set[tuple[int, ...]]] = [set() for _ in range(r)]
    pinned = {j: x for j, x in enumerate(labels) if x in fixed}  # column -> the label it must keep
    for j in pinned:
        kept[support_rows[j][-1]].add(tuple(support_rows[j]))
    least = {x: x for x in labels}  # label -> least label of its orbit so far

    def maps() -> Iterator[tuple]:
        for rows in _row_permutations([], r, ends, host_supports, kept):
            ready: list[list[int]] = [[] for _ in range(r)]  # image row -> columns fixed there
            for j, support in enumerate(support_rows):
                ready[max(map(rows.__getitem__, support))].append(j)
            every = _row_scalings(0, rows, [0] * r, [None] * len(points), ready, entries, label_of, p, pinned)
            yield from every if rows == tuple(range(r)) else itertools.islice(every, 1)

    through = [table.closure[table.index[f]] for f in fixed]  # each fixed point's lines, by point index
    classes = {(table.keys[x], tuple(lines[i].bit_count() for lines in through))
               for i, x in enumerate(labels) if x not in fixed}
    unions_left = len(labels) - len(classes) - len(fixed)
    size = {x: len(c) for x, c in table.classes.items()}
    s = n.simplify()
    for images in maps() if unions_left else ():
        g = dict(zip(labels, images))
        if (all(size[x] == size[y] for x, y in g.items()) and any(least[x] != least[y] for x, y in g.items())
                and (images in n._certified or verify_bijection(s, s, g))):
            n._certified.add(images)
            for x, y in g.items():
                a, b = sorted((least[x], least[y]))
                if a != b:
                    least = {z: a if c == b else c for z, c in least.items()}
                    unions_left -= 1
            if not unions_left:
                break
    n._orbits[fixed] = {x: c for x, c in least.items() if c != x}
    return n._orbits[fixed]


def _row_permutations(rows: list[int], r: int, ends: Sequence[set], host_supports: set,
                      kept: Sequence[set]) -> Iterator[tuple[int, ...]]:
    """The row permutations that extend rows (source row -> image row) and
    send each column's support, once placed, onto some column's support,
    and each support in kept onto itself: ends[i] and kept[i] hold the
    supports whose last row is i, and host_supports every support as a
    bitmask of rows."""
    i = len(rows)
    if i == r:
        yield tuple(rows)
        return
    for t in range(r):
        if t in rows:
            continue
        rows.append(t)
        if (all(sum(1 << rows[k] for k in s) in host_supports for s in ends[i])
                and all(sum(1 << rows[k] for k in s) == sum(1 << k for k in s) for s in kept[i])):
            yield from _row_permutations(rows, r, ends, host_supports, kept)
        rows.pop()


def _row_scalings(t: int, rows: tuple[int, ...], scalars: list[int], images: list, ready: Sequence[list[int]],
                  entries: Sequence, label_of: Mapping, p: int,
                  pinned: Mapping[int, int]) -> Iterator[tuple]:
    """The image label of each column, for every working choice of
    the scalars of image rows t, t + 1, ... under the permutation rows:
    ready[t] holds the columns whose image support is fixed once row t is
    scaled, entries each column's nonzero (row, entry) pairs, label_of
    every nonzero multiple of each column's label, and pinned the label
    that each fixed column must map to."""
    r = len(rows)
    if t == r:
        yield tuple(images)
        return
    for c in range(1, 2 if t == 0 else p):
        scalars[t] = c
        for j in ready[t]:
            w = [0] * r
            for i, a in entries[j]:
                w[rows[i]] = scalars[rows[i]] * a % p
            images[j] = label_of.get(tuple(w))
            if images[j] is None or pinned.get(j, images[j]) != images[j]:
                break
        else:
            yield from _row_scalings(t + 1, rows, scalars, images, ready, entries, label_of, p, pinned)


class _Pattern:
    """m's half of a search for one order kind, which no host changes: the
    element order, anchors, pair checks and, on first use, prefix ranks,
    from the table's points.  Anchors and pair checks name placed elements
    by their depths in the order.  ``of`` builds it once per matroid and
    order kind and caches it on m.

    One pass over the points builds the order, the pair checks and the
    anchors: placing point i reads ``closure[i][a]`` once for each placed
    point a, which gives i's pair checks and marks the points on a line
    through two placed ones as covered.  An isomorphism places the points
    in sorted order; otherwise the next point is the first covered one not
    yet placed, or, when there is none, the most line-covered one.  A
    point's anchor is the first row of its pair checks with two placed
    points: the depths of the first placed pair whose line holds it."""

    @classmethod
    def of(cls, m: LinearMatroid, bijective: bool) -> "_Pattern":
        if bijective not in m._patterns:
            m._patterns[bijective] = cls(m, bijective)
        return m._patterns[bijective]

    def __init__(self, m: LinearMatroid, bijective: bool):
        table = _PairTable.of(m)
        lines = [table.keys[x][0] for x in table.labels]  # point index -> its line sizes
        points: list[int] = []  # depth -> point index
        self.checks: list[list[tuple[int, int]]] = []
        left = (1 << len(lines)) - 1  # the points not yet placed
        covered = 0  # the points on a line through two placed ones
        while left:
            ahead = left if bijective else covered & left
            if ahead:
                i = (ahead & -ahead).bit_length() - 1
            else:
                i = max(_bit_indices(left), key=lambda i: (len(lines[i]), sum(lines[i])))
            through = table.closure[i]
            on_line: dict[int, list[int]] = {}  # line -> its placed depths, up to two
            for q, a in enumerate(points):
                line = through[a]
                covered |= line
                placed = on_line.setdefault(line, [])
                if len(placed) < 2:
                    placed.append(q)
            # (p, q) for the depth p of the first placed point on each line
            # through i and the depth q of the second, or -1 when p is its only one
            self.checks.append([(placed[0], placed[1] if len(placed) > 1 else -1) for placed in on_line.values()])
            points.append(i)
            left ^= 1 << i
        self.order = [table.labels[i] for i in points]
        # depth -> (depths a, b) of the first placed pair whose line holds it
        self.anchors = [next(((a, b) for a, b in rows if b >= 0), None) for rows in self.checks]
        # the ordered points, not m: holding m would make a cycle with m
        self.points, self.p = [table.points[i] for i in points], m.p

    @functools.cached_property
    def prefix_rank(self) -> list[int]:
        """The rank of each prefix of the order, from one running basis."""
        basis: list = []
        return list(itertools.accumulate(int(_insert_into_basis(v, basis, self.p)) for v in self.points))


class _RankPreservingSearch:
    """Backtracking search for rank-preserving injections m -> n.

    Such an injection maps loops to loops and each parallel class into a
    class, and induces one between the simplifications, whose labels are the
    classes' least labels.  So ``run`` searches si(m) -> si(n), keying each
    point by its line sizes and class size, and the leaf expands the map:
    m's loops in sorted order onto n's least loops, each class in sorted
    order onto the least members of its image's class.  The leaf check runs
    on m and n.  Loops, classes and keys are read from both sides'
    ``_PairTable``, and m's order, anchors, pair checks and prefix ranks
    from its cached ``_Pattern``, whose one pass over m's points builds the
    order, checks and anchors.

    The node loop runs on indices: the assignment lists each depth's image
    as a point index of n's table, the anchors and pair checks name placed
    elements by depth, and the candidates are the bits of a mask, taken in
    ascending order, which is sorted label order.

    The prefix-rank test (the placed images span as much as the placed
    elements) runs only in hosts of rank >= 4: in the simple si(n), once the
    pair checks pass, an unanchored x's image y grows a prefix of rank <= 2 as
    x does (y is nonzero, a second point, or off the images' line), and at
    rank r(n) neither side grows; so it can fail only at ranks 3 to r(n) - 1.

    Equal sizes make the injection a bijection, so ``run`` then requires
    equal ranks and loop counts.  Its counting rules on the two tables,
    ``_count_rules``, which ``has_minor``'s walk also screens its stages
    with, require equal key multisets at equal sizes and stop the search
    when the admissible images of si(m)'s points number fewer than the
    points; m's pattern is built only once they admit the search.
    bijective=True requires equal sizes and yields the lexicographically
    least bijection by iterating si(m)'s labels and si(n)'s candidates in
    sorted order; it picks nothing else, so the symmetry pruning and the
    leaf check are those of every search.

    Each node reads the host's orbit tables once its failed subtrees have
    taken more than r * n nodes (r rows and n points of si(n)): the root
    table, ``_orbit_minima(n)``, and below the root, when two of the node's
    candidates share a root orbit, the table of the automorphisms that fix
    the placed images, ``_orbit_minima(n, images)``, whose orbits refine the
    root's.  From then on the node skips every candidate that is not the
    least label of its orbit (see the module docstring).  tables counts the
    reads per depth, as nodes counts the nodes.  A build of up to r! * n * r
    steps may cost more than the r * n nodes before its read; the cache
    bounds the builds instead: each table is built once per host and set of
    fixed images, at its first read, and each map is certified once per
    host.  Tables are cached on n, not on si(n), since which maps they keep
    depends on n's class sizes.
    """

    def __init__(self, m: LinearMatroid, n: LinearMatroid, bijective: bool):
        self.m = m
        self.n = n
        self.bijective = bijective
        self.nodes = 0
        self.tables: list[int] = []  # depth -> orbit tables read there

    def run(self) -> dict[int, int] | None:
        m, n = self.m, self.n
        rank_m, rank_n = m.rank(), n.rank()
        exact = m.size == n.size  # then a rank-preserving injection is an isomorphism
        if rank_m > rank_n or m.size > n.size or exact and rank_m != rank_n or self.bijective and not exact:
            return None
        if m.size == 0:
            return {}
        tm, tn = self.tm, self.tn = _PairTable.of(m), _PairTable.of(n)
        if len(tm.loops) > len(tn.loops) or exact and len(tm.loops) != len(tn.loops):
            return None
        admissible = _count_rules(tm, tn, exact)
        if admissible is None:
            return None
        pattern = _Pattern.of(m, self.bijective)
        self.loop_map = dict(zip(tm.loops, tn.loops))
        self.order, self.anchors, self.checks = pattern.order, pattern.anchors, pattern.checks
        self.admissible = [admissible[x] for x in self.order]
        self.prefix_rank = pattern.prefix_rank if rank_n >= 4 else None
        self.tables = [0] * len(self.order)
        self.read_after = n.matrix.nrows * len(tn.labels)
        return self._dfs(0, [0] * len(self.order), 0, [])

    def _consistent(self, depth: int, y: int, assignment: list[int], used_mask: int) -> bool:
        """Does placing x = order[depth] at point y keep every triple rank
        through x?

        By induction over placements, every placed triple already keeps its
        rank: a, b, c are collinear exactly when f(a), f(b), f(c) are.  So
        for a row (p, q) of the depth's pair checks with q placed, the placed
        points of the line through p and x are those of the line through p
        and q, and their images are the placed images on the line through
        f(p) and f(q); the images on the line through f(p) and y are exactly
        these when y lies on that line, and when y is off it the line through
        f(p) and y misses f(q).  With q = -1, p is the only placed point on
        its line through x, and the line through f(p) and y must hold no other
        placed image.  Since r(S + e) = r(S) + [e not in cl(S)], that decides
        r(p, q', x) = r(f(p), f(q'), y) for every other placed q'; the rows
        keep one p per line through x, which decides the same as testing
        every placed p.  Every pair of a simple matroid has rank 2.
        """
        closure = self.tn.closure
        for p, q in self.checks[depth]:
            if q >= 0:
                if not closure[assignment[p]][assignment[q]] >> y & 1:
                    return False
            elif closure[assignment[p]][y] & used_mask != 1 << assignment[p]:
                return False
        return True

    def _dfs(self, depth: int, assignment: list[int], used_mask: int, basis: list):
        """assignment[d] is the image of order[d] for d < depth, a point
        index of n's table.  basis is an echelon basis of the placed images;
        it is shared down the whole search, each insertion popped again on
        backtracking.  Once the node's failed subtrees have taken more than
        read_after nodes, every candidate left that is not the least label
        of its orbit under the automorphisms fixing the placed images is
        dropped from the pool (``_not_least``).  Such a candidate y has an
        embedding only if the least label y' of its orbit has one; y' passes
        every filter y passes (keys, unused, anchor, pair checks, rank),
        since an automorphism fixing the placed images keeps them all, and
        candidates ascend, so y' has been or will be searched in full."""
        self.nodes += 1
        tn = self.tn
        if depth == len(self.order):
            # pruning along the way is heuristic; the leaf check is the proof
            found = {}
            for x, y in zip(self.order, assignment):
                found.update(zip(self.tm.classes[x], tn.classes[tn.labels[y]]))
            found.update(self.loop_map)
            return found if verify_embedding(self.m, self.n, found) else None
        pool = self.admissible[depth] & ~used_mask
        anchor = self.anchors[depth]
        if anchor is not None:
            a, b = anchor
            pool &= tn.closure[assignment[a]][assignment[b]]
        # an anchored x lies in cl(a, b) of placed a, b, and its candidates in
        # cl(f(a), f(b)): neither side's rank grows, so the prefix-rank test
        # would always pass; in a host of rank <= 3 it always passes too
        test_rank = self.prefix_rank is not None and anchor is None
        candidates = pool
        read_at = self.nodes + self.read_after  # the node reads the orbit tables once it is past this
        while pool:
            low = pool & -pool
            pool ^= low
            y = low.bit_length() - 1
            if not self._consistent(depth, y, assignment, used_mask):
                continue
            grew = False
            if test_rank:
                grew = _insert_into_basis(tn.points[y], basis, self.n.p)
                if len(basis) != self.prefix_rank[depth]:
                    if grew:
                        basis.pop()
                    continue
            assignment[depth] = y
            hit = self._dfs(depth + 1, assignment, used_mask | low, basis)
            if hit is not None:
                return hit
            if grew:
                basis.pop()
            if pool and self.nodes > read_at:
                read_at = math.inf
                pool &= ~self._not_least(depth, assignment, candidates)
        return None

    def _not_least(self, depth: int, assignment: list[int], candidates: int) -> int:
        """The mask of the host's points that are not the least label of
        their orbit under the automorphisms fixing the images placed above
        depth, or 0 when no orbit of the host holds two of the node's
        candidates, tried or not; each table read is counted in
        tables[depth]."""
        tn = self.tn
        least = _orbit_minima(self.n)
        self.tables[depth] += 1
        if depth:
            # the stabilizer's orbits refine the host's, so it can merge two
            # candidates only if the host's orbits do
            roots = [least.get(x, x) for x in (tn.labels[i] for i in _bit_indices(candidates))]
            if len(set(roots)) == len(roots):
                return 0
            least = _orbit_minima(self.n, (tn.labels[i] for i in assignment[:depth]))
            self.tables[depth] += 1
        return sum(1 << tn.index[x] for x in least)


def find_isomorphism(m: LinearMatroid, n: LinearMatroid) -> dict[int, int] | None:
    """Lexicographically least label bijection preserving all subset ranks."""
    return _RankPreservingSearch(m, n, bijective=True).run()


def find_embedding(m: LinearMatroid, n: LinearMatroid) -> dict[int, int] | None:
    """Injection of m into n preserving all subset ranks (restriction test)."""
    return _RankPreservingSearch(m, n, bijective=False).run()


# -- minor search -----------------------------------------------------------------------


def _flat_stages(m: LinearMatroid, k: int,
                 target: LinearMatroid | None = None) -> Iterator[tuple[tuple[int, ...], LinearMatroid]]:
    """(T, si(M/T)) for each independent k-set T of m, in lexicographic
    order, whose closure no earlier T spans: M/T and M/T' differ only in
    loops when cl(T) = cl(T'), so their simplifications are equal, labels
    included.  Given a simple target, only the stages that a search of the
    target in them would search are yielded.

    The k-sets are walked as a prefix tree of label -> projective point
    maps (None for a loop), the root's m's points, each child contracting
    its parent's by one more label with ``_contract_points``, the step of
    ``contract``, so each node's points are those of M/prefix.  x extends
    an independent prefix P independently exactly when x is not a loop of
    M/P, and cl(P + x) is P plus the loops of M/P and x's parallel class
    there, read off M/P's labels grouped by point.  A leaf is reached only
    when its flat is new.

    A leaf is screened on its points before it is built.  Against a target
    it needs at least the target's number of points, and then the counting
    rules (``_count_rules``) must admit the target's table against a table
    built from the points of si(M/T).  Both have rank r(N) and no loops, so
    a rejected leaf is exactly a search that ``_RankPreservingSearch.run``
    ends before its first node, and skipping it changes no answer.  A
    yielded stage is the matroid of its points (``_from_points``): the least
    label of each point of M/T, in m's label order, each with its point as
    its column, as in ``contract(T).simplify()``.  It is given its rank,
    r(M) - k, since T is independent, and the table that screened it.
    """
    return _walk_flats(m, sorted(m.labels), k, target, m.rank() - k, set(), m._point_map(), (), 0)


def _walk_flats(m: LinearMatroid, labels: list[int], k: int, target: LinearMatroid | None, rank: int, seen: set,
                points: Mapping[int, tuple[int, ...] | None], prefix: tuple[int, ...],
                start: int) -> Iterator[tuple[tuple[int, ...], LinearMatroid]]:
    """``_flat_stages`` below the node M/prefix, whose label -> point map
    is points, extending prefix by labels[start:]; seen holds the flats of
    the leaves already reached, and rank is each leaf's rank.  m gives the
    field and, less k, the stages' height."""
    p = m.p
    if len(prefix) == k:
        stage_points = _least_points(points)
        if target is not None and len(stage_points) < target.size:
            return
        table = None
        if target is not None:
            table = _PairTable(stage_points, p)
            if _count_rules(_PairTable.of(target), table, len(stage_points) == target.size) is None:
                return
        stage = _from_points(stage_points, m.matrix.nrows - k, p)
        stage._rank, stage._pair_table = rank, table
        yield prefix, stage
        return
    last = len(prefix) + 1 == k
    if last:
        # a leaf is reached only when its flat is new: cl(prefix + x) is
        # cl(prefix), the prefix and the loops of M/prefix, plus x's class
        by_point: dict = {}
        for y, pt in points.items():
            by_point.setdefault(pt, []).append(y)
        closure = frozenset(prefix).union(by_point.pop(None, ()))
    for i in range(start, len(labels) - k + len(prefix) + 1):
        x = labels[i]
        px = points[x]
        if px is None:
            continue
        if last:
            flat = closure.union(by_point[px])
            if flat in seen:
                continue
            seen.add(flat)
        child = _contract_points(points, x, p)
        yield from _walk_flats(m, labels, k, target, rank, seen, child, prefix + (x,), i + 1)


def has_minor(m: LinearMatroid, n: LinearMatroid, hint: Iterable[int] | None = None) -> MinorWitness | None:
    """Search for an n-minor of m; n must be simple (and is, for every target
    used here: all are 3-connected).

    With a hint, that set is contracted first and the search continues in the
    simplification, mirroring how the original computations were expedited.
    Candidate contract sets T, independent of the spare rank, are taken in
    lexicographic order, and each flat they span is searched once, at its
    first T, which gives the same si(M/T) as every other: so the witness is
    deterministic, and the same as if every T were searched.  A stage is
    decided from its points first (``_flat_stages``): one with fewer points
    than n, or one the search's counting rules reject, holds no copy of n
    and is never built as a matroid.
    """
    if not n.is_simple():
        raise ValueError("minor search targets must be simple")
    hint = tuple(sorted(set(hint))) if hint else ()
    base = m.contract(hint).simplify()
    spare_rank = base.rank() - n.rank()
    if spare_rank < 0 or base.size < n.size:
        return None
    for extra, stage in _flat_stages(base, spare_rank, n):
        embedding = find_embedding(n, stage)
        if embedding is not None:
            contracted = tuple(sorted(hint + extra))
            deleted = tuple(sorted(set(m.labels) - set(contracted) - set(embedding.values())))
            return MinorWitness(contracted, deleted, tuple(sorted(embedding.items())))
    return None
