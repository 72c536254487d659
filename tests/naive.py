"""Slow, independently written reference implementations used as test oracles.

Nothing here shares algorithm structure with the package: rank goes through
determinant expansion instead of elimination, isomorphism and minor tests are
plain brute force over bijections and ordered partitions, and the submatrix
scanner enumerates every row injection, once per needle height.  Keep these
dumb; their only job is to disagree with the fast code when the fast code is
wrong.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

from matroidlab.gf import GFMatrix


def naive_det(p: int, rows: Sequence[Sequence[int]]) -> int:
    """Determinant mod p by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1 % p
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j, x in enumerate(rows[0]):
        if x % p == 0:
            continue
        sub = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * x * naive_det(p, sub)
    return total % p


def balanced_rows(m: GFMatrix) -> tuple[tuple[int, ...], ...]:
    """m's entries in the balanced residue system (2 mod 3 as -1), so that
    one integer matrix reduced into two fields gives one answer."""
    half = m.p // 2
    return tuple(tuple(x if x <= half else x - m.p for x in row) for row in m.rows)


def naive_rank(m: GFMatrix) -> int:
    """Largest k such that some k-by-k submatrix has nonzero determinant."""
    rows = m.rows
    for k in range(min(m.nrows, m.ncols), 0, -1):
        for ri in itertools.combinations(range(m.nrows), k):
            for ci in itertools.combinations(range(m.ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if naive_det(m.p, sub) != 0:
                    return k
    return 0


# -- matroid-level oracles -----------------------------------------------------
#
# These work on anything exposing .labels (a tuple) and .rank(iterable of
# labels).  Rank itself is validated against naive_rank elsewhere, so the
# oracles below may call it.


def subset_rank_table(matroid, max_size: int | None = None) -> dict[frozenset, int]:
    """Rank of every subset, or of every subset of at most max_size labels."""
    labels = list(matroid.labels)
    table = {}
    top = len(labels) if max_size is None else min(max_size, len(labels))
    for k in range(top + 1):
        for sub in itertools.combinations(labels, k):
            table[frozenset(sub)] = matroid.rank(sub)
    return table


def _tables_isomorphic(labels_a, table_a, labels_b, table_b):
    """Brute force: some bijection carries every subset rank of A onto B."""
    if len(labels_a) != len(labels_b):
        return None
    for perm in itertools.permutations(labels_b):
        mapping = dict(zip(labels_a, perm))
        if all(
            table_a[sub] == table_b[frozenset(mapping[x] for x in sub)]
            for sub in table_a
        ):
            return mapping
    return None


def naive_find_isomorphism(m, n):
    """The first bijection of m's sorted labels, taken in
    itertools.permutations(sorted(n.labels)) order, that carries every subset
    rank of m onto n: the lexicographically least isomorphism, or None."""
    if len(m.labels) > 8:
        raise ValueError("naive isomorphism oracle is limited to 8 elements")
    ta = subset_rank_table(m)
    tb = subset_rank_table(n)
    if sorted(ta.values()) != sorted(tb.values()):
        return None
    return _tables_isomorphic(tuple(sorted(m.labels)), ta, tuple(sorted(n.labels)), tb)


def naive_is_isomorphic(m, n) -> bool:
    return naive_find_isomorphism(m, n) is not None


def naive_is_restriction(m, n) -> bool:
    """Brute force: some |m|-subset of n's labels carries m's rank table."""
    if len(m.labels) > 8:
        raise ValueError("naive restriction oracle is limited to 8 elements")
    ta = subset_rank_table(m)
    tn = subset_rank_table(n)
    for keep in itertools.combinations(tuple(n.labels), len(m.labels)):
        tb = {sub: r for sub, r in tn.items() if sub <= frozenset(keep)}
        if sorted(tb.values()) != sorted(ta.values()):
            continue
        if _tables_isomorphic(tuple(m.labels), ta, keep, tb) is not None:
            return True
    return False


def naive_monomial_automorphisms(matrix: GFMatrix, labels: Sequence[int]) -> list[dict[int, int]]:
    """Every row permutation with every choice of nonzero row scalars that
    sends each column to a nonzero multiple of some column, as a label map;
    the columns must be pairwise non-parallel and nonzero."""
    p, r = matrix.p, matrix.nrows
    owner = {tuple(k * x % p for x in col): lab for col, lab in zip(matrix.columns, labels) for k in range(1, p)}
    out = []
    for perm in itertools.permutations(range(r)):
        for scalars in itertools.product(range(1, p), repeat=r):
            images = {}
            for col, lab in zip(matrix.columns, labels):
                moved = [0] * r
                for i, x in enumerate(col):
                    moved[perm[i]] = scalars[perm[i]] * x % p
                images[lab] = owner.get(tuple(moved))
            if None not in images.values():
                out.append(images)
    return out


def _minor_rank_table(m, contract: frozenset, keep: Sequence, full: dict | None = None) -> dict[frozenset, int]:
    """Rank table of the minor m / contract restricted to keep.

    Uses only the rank axiom identity r_{M/T}(X) = r_M(X + T) - r_M(T), no
    contraction code from the package.  full, m's subset-rank table, is
    read in place of m.rank when given.
    """
    rank = m.rank if full is None else lambda s: full[frozenset(s)]
    base = rank(contract)
    table = {}
    for k in range(len(keep) + 1):
        for sub in itertools.combinations(keep, k):
            table[frozenset(sub)] = rank(set(sub) | contract) - base
    return table


def naive_has_minor(m, n) -> bool:
    """Does some M / T \\ D equal N up to isomorphism?  All ordered (T, D) pairs."""
    spare = len(m.labels) - len(n.labels)
    if spare < 0:
        return False
    if len(n.labels) > 8:
        raise ValueError("naive minor oracle is limited to 8-element targets")
    tn = subset_rank_table(n)
    target_profile = sorted(tn.values())
    full = subset_rank_table(m)  # every minor table is read from it
    ground = tuple(m.labels)
    for removed in itertools.combinations(ground, spare):
        keep = tuple(x for x in ground if x not in removed)
        for t_size in range(spare + 1):
            for contract in itertools.combinations(removed, t_size):
                tm = _minor_rank_table(m, frozenset(contract), keep, full)
                if sorted(tm.values()) != target_profile:
                    continue
                if _tables_isomorphic(keep, tm, tuple(n.labels), tn) is not None:
                    return True
    return False


# -- exhaustive scaled-submatrix search ------------------------------------------


def naive_find_submatrices(haystack: GFMatrix, needles: Sequence[GFMatrix]) -> list:
    """Search for each needle inside haystack up to row injection, column
    injection and column scaling.  Entries must match exactly, zeros included.

    Returns one (row_map, col_map, scalars) or None per needle, in order.
    row_map[i] is the haystack row playing needle row i; col_map[j] the
    haystack column playing needle column j; scalars[j] the nonzero factor
    applied to that haystack column.  The hit is the first in
    itertools.permutations order of row injections, then in haystack column
    order.  Every row injection is enumerated once per needle height: its
    projected columns are indexed by their scaled values, and each needle of
    that height not yet found tries to place its columns from the index.
    """
    p = haystack.p
    if any(needle.p != p for needle in needles):
        raise ValueError("field mismatch")
    found: list = [None] * len(needles)
    by_height: dict[int, list[int]] = {}
    for k, needle in enumerate(needles):
        if needle.nrows <= haystack.nrows and needle.ncols <= haystack.ncols:
            by_height.setdefault(needle.nrows, []).append(k)
    for height, waiting in by_height.items():
        for rows in itertools.permutations(range(haystack.nrows), height):
            # scaled projected column -> [(haystack column, scalar)] in column
            # order; a nonzero column matches under at most one scalar, and an
            # all-zero one is listed once, under s = 1
            matches: dict[tuple, list[tuple[int, int]]] = {}
            for cand in range(haystack.ncols):
                col = [haystack.rows[i][cand] for i in rows]
                for s in range(1, p):
                    bucket = matches.setdefault(tuple((x * s) % p for x in col), [])
                    if not bucket or bucket[-1][0] != cand:
                        bucket.append((cand, s))
            for k in list(waiting):
                hit = _place_columns(needles[k], matches)
                if hit is not None:
                    found[k] = (tuple(rows), *hit)
                    waiting.remove(k)
            if not waiting:
                break
    return found


def _place_columns(needle: GFMatrix, matches: dict) -> tuple[tuple, tuple] | None:
    """First (col_map, scalars), by depth-first search in haystack column
    order, that gives every needle column its own matching haystack column."""
    used: list[int] = []
    scalars: list[int] = []

    def place(j: int) -> bool:
        if j == needle.ncols:
            return True
        for cand, s in matches.get(needle.column(j), ()):
            if cand in used:
                continue
            used.append(cand)
            scalars.append(s)
            if place(j + 1):
                return True
            used.pop()
            scalars.pop()
        return False

    return (tuple(used), tuple(scalars)) if place(0) else None


# -- random generators -----------------------------------------------------------


def random_matrix(rng: random.Random, p: int, nrows: int, ncols: int) -> GFMatrix:
    return GFMatrix(p, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)])


def random_int_matrix(rng: random.Random, nrows: int, ncols: int, lo: int = -2, hi: int = 2):
    """Integer matrix usable over both GF(3) and GF(5) simultaneously."""
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]
