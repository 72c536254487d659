"""Field arithmetic layer: exact values first, then randomized cross-checks
against the determinant-based oracle in naive.py."""

import random

import pytest

from matroidlab import gf
from matroidlab.gf import GFMatrix
from matroidlab.templates import _scale_columns

from .naive import balanced_rows, naive_rank, random_matrix


def test_reduce_balanced_entries():
    m = GFMatrix(3, [[-1]])
    assert m.rows == ((2,),)
    m5 = GFMatrix(5, [[-1, -2, 7]])
    assert m5.rows == ((4, 3, 2),)


def test_signed_rows_roundtrip():
    m = GFMatrix(3, [[0, 1, 2], [2, 1, 0]])
    assert balanced_rows(m) == ((0, 1, -1), (-1, 1, 0))
    m5 = GFMatrix(5, [[0, 1, 2, 3, 4]])
    assert balanced_rows(m5) == ((0, 1, 2, -2, -1),)


def _add_row(m, src, dst, coeff):
    """m with coeff times row src added to row dst."""
    rows = [list(row) for row in m.rows]
    rows[dst] = [a + coeff * b for a, b in zip(rows[dst], rows[src])]
    return GFMatrix(m.p, rows, ncols=m.ncols)


def _transposed(m):
    """m's transpose: its rows read as columns."""
    return GFMatrix.from_columns(m.p, m.rows, nrows=m.ncols)


def test_field_guard():
    with pytest.raises(ValueError):
        GFMatrix(7, [[1]])
    with pytest.raises(ValueError):
        GFMatrix(2, [[1]])


def test_empty_shapes():
    e = GFMatrix(3, [], ncols=4)
    assert e.nrows == 0 and e.ncols == 4
    assert e.rank() == 0
    tall = GFMatrix(3, [[], []], ncols=None)
    assert tall.nrows == 2 and tall.ncols == 0
    assert tall.rank() == 0


def test_identity_rank_and_pivots():
    for p in (3, 5):
        I4 = GFMatrix(p, [[int(i == j) for j in range(4)] for i in range(4)])
        assert I4.rank() == 4
        assert I4.pivot_columns() == (0, 1, 2, 3)
        r, piv = I4.rref()
        assert r == I4 and piv == (0, 1, 2, 3)


def test_known_rank_with_pivots():
    # 4x9 block matrix whose first pivot block sits in columns 0,1,2,5
    m = GFMatrix(
        3,
        [
            [0, 0, 0, 0, 0, 1, 1, 1, 1],
            [1, 0, 0, 1, 1, 0, 0, 0, 1],
            [0, 1, 0, -1, 0, 0, -1, 0, 1],
            [0, 0, 1, 0, -1, 0, 0, -1, 1],
        ],
    )
    assert m.rank() == 4
    assert m.pivot_columns() == (0, 1, 2, 5)
    assert naive_rank(m) == 4


def test_rref_is_idempotent_and_rank_drops():
    m = GFMatrix(3, [[1, 2, 0], [2, 2, 0], [0, 0, 0]])
    r, piv = m.rref()
    assert piv == (0, 1)
    assert m.rank() == 2
    r2, piv2 = r.rref()
    assert r2 == r and piv2 == piv


def test_column_ops():
    m = GFMatrix(3, [[1, 2], [0, 1]])
    assert _scale_columns(m, [1, 2]).columns == ((1, 0), (1, 2))
    with pytest.raises(ValueError):
        _scale_columns(m, [0, 1])
    assert m.column(1) == (2, 1)
    assert m.take_cols([1, 0]).columns == ((2, 1), (1, 0))


def test_row_ops():
    m = GFMatrix(3, [[1, 0], [1, 1], [0, 2]])
    assert m.take_rows([2, 0]).rows == ((0, 2), (1, 0))
    assert _add_row(m, 0, 1, 2).rows[1] == (0, 1)
    bumped = m.append_rows([[2, 2]])
    assert bumped.nrows == 4 and bumped.rows[3] == (2, 2)
    with pytest.raises(ValueError):
        m.append_rows([[2, 2, 2]])


def test_from_columns_and_transpose():
    m = GFMatrix.from_columns(3, [(1, 0), (2, 1), (0, 2)])
    assert m.rows == ((1, 2, 0), (0, 1, 2))
    assert _transposed(_transposed(m)) == m
    empty = GFMatrix.from_columns(3, [], nrows=2)
    assert empty.nrows == 2 and empty.ncols == 0


def test_support_and_weight():
    assert gf.weight((0, 2, 0, 1)) == 2
    assert gf.weight(()) == 0


def test_text_roundtrip(tmp_path):
    m = GFMatrix(3, [[0, 1, 2], [2, 2, 0]])
    text = gf.to_text(m)
    assert gf.from_text(text) == m
    path = tmp_path / "m.gfm"
    gf.write_file(m, str(path))
    assert gf.read_file(str(path)) == m


def test_text_roundtrip_without_columns():
    # a matrix with no columns is written with no data lines, and read back
    for p, nrows, ncols in ((3, 2, 0), (5, 3, 0), (3, 0, 0), (3, 0, 4)):
        m = GFMatrix.zeros(p, nrows, ncols)
        assert gf.from_text(gf.to_text(m)) == m
        assert gf.from_text(gf.to_text(m)).nrows == nrows
    assert gf.to_text(GFMatrix.zeros(3, 2, 0)) == "field 3\nrows 2\ncols 0\n"
    with pytest.raises(ValueError):
        gf.from_text("field 3\nrows 2\ncols 0\n1 2\n")
    with pytest.raises(ValueError):
        gf.from_text("field 3\nrows -1\ncols 0\n")
    # each count may be at most MAX_DIMENSION
    bound = gf.MAX_DIMENSION
    assert gf.from_text(f"field 3\nrows {bound}\ncols 0\n").nrows == bound
    assert gf.from_text(f"field 3\nrows 0\ncols {bound}\n").ncols == bound
    for rows, cols in ((bound + 1, 0), (0, bound + 1)):
        with pytest.raises(ValueError, match=str(bound)):
            gf.from_text(f"field 3\nrows {rows}\ncols {cols}\n")


def test_text_parser_tolerates_comments_and_signed_entries():
    text = "# generated\nfield 3\nrows 1\n# body next\ncols 3\n-1 4 0\n"
    assert gf.from_text(text).rows == ((2, 1, 0),)
    with pytest.raises(ValueError):
        gf.from_text("field 3\nrows 2\ncols 1\n1\n")
    # a bare, blank or non-numeric field, rows or cols line
    lines = gf.to_text(GFMatrix(3, [[1]])).splitlines(keepends=True)
    for i, line in enumerate(lines[:3]):
        key = line.split()[0]
        for bad in (key + "\n", "\n", key + " x\n"):
            with pytest.raises(ValueError):
                gf.from_text("".join(lines[:i] + [bad] + lines[i + 1:]))


def test_rank_matches_naive_randomized():
    rng = random.Random(90210)
    for _ in range(60):
        p = rng.choice((3, 5))
        m = random_matrix(rng, p, rng.randint(1, 4), rng.randint(1, 5))
        assert m.rank() == naive_rank(m)


def test_rank_invariant_under_row_and_column_moves():
    rng = random.Random(777)
    for _ in range(40):
        p = rng.choice((3, 5))
        m = random_matrix(rng, p, 4, 6)
        r = m.rank()
        i, j = rng.sample(range(4), 2)
        assert _add_row(m, i, j, rng.randrange(1, p)).rank() == r
        j, s = rng.randrange(6), rng.randrange(1, p)
        assert _scale_columns(m, [s if k == j else 1 for k in range(6)]).rank() == r
        order = list(range(6))
        rng.shuffle(order)
        assert m.take_cols(order).rank() == r
        assert _transposed(m).rank() == r
