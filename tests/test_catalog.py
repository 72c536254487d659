"""Catalog layer: generators, named entries, block labeling, golden files.

The .gfm files under tests/data are independent transcriptions of the
forbidden matrices; comparing them against the in-code copies guards both
against typos (double entry bookkeeping).  catalog_digests.txt pins every
entry ``named`` builds, and every id it rejects."""

import hashlib
import itertools
from pathlib import Path

import pytest

from matroidlab import catalog, gf
from matroidlab.catalog import (
    FORBIDDEN,
    NamedEntry,
    build_D,
    catalog_ids,
    named,
    universal_block_labels,
    universal_matrix,
    universal_matroid,
)
from matroidlab.gf import GFMatrix
from matroidlab.matroid import LinearMatroid, find_isomorphism, verify_bijection

from .naive import balanced_rows

DATA = Path(__file__).parent / "data"


def line_count(m: LinearMatroid, size: int) -> int:
    """Number of rank-2 flats with exactly `size` points (simple matroids)."""
    labels = sorted(m.labels)
    flats = set()
    for a, b in itertools.combinations(labels, 2):
        flat = frozenset(c for c in labels if m.rank({a, b, c}) <= 2)
        if len(flat) >= 3:
            flats.add(flat)
    return sum(1 for f in flats if len(f) == size)


def test_build_D_shapes_and_columns():
    assert build_D(0).ncols == 0
    assert build_D(1).ncols == 0
    d2 = build_D(2)
    assert d2.columns == ((1, 2),)  # e0 - e1 over GF(3)
    d4 = build_D(4)
    assert d4.nrows == 4 and d4.ncols == 6
    # lexicographic pair order
    assert d4.column(0) == (1, 2, 0, 0)
    assert d4.column(5) == (0, 0, 1, 2)


def family(id_: str) -> LinearMatroid:
    return named(id_).matroid()


def test_clique_is_graphic_shape():
    assert family("MK2").size == 1 and family("MK2").rank() == 1
    k4 = family("MK4")
    assert k4.size == 6 and k4.rank() == 3
    k6 = family("MK6")
    assert k6.size == 15 and k6.rank() == 5
    assert k6.is_simple()


def test_dowling_shape_and_frame_form():
    for r in (1, 3, 4):
        q = family(f"DOWLING{r}")
        assert q.size == r * r and q.rank() == r
        assert q.is_simple()
        assert all(gf.weight(q.column_of(x)) <= 2 for x in q.labels)


def test_dowling3_equals_sigma3():
    assert find_isomorphism(family("DOWLING3"), family("SIGMA3")) is not None


def test_universal_matrix_layout():
    m = universal_matrix(catalog.T1, 4)
    assert m.nrows == 4 and m.ncols == 4 + 6 + 3
    # payload block sits right of the pair block, zero-padded below
    tall = universal_matrix(catalog.T2, 5)
    assert tall.ncols == 5 + 10 + 3
    assert tall.column(15) == (2, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        universal_matrix(catalog.T3, 4)
    # empty payload degenerates to the clique
    empty = universal_matroid(GFMatrix(3, [], ncols=0), 3)
    assert find_isomorphism(empty, family("MK4")) is not None


def test_family_rank_guards():
    # each family starts at its least parameter
    for id_ in ("MK0", "DOWLING0", "PI3", "SIGMA2", "OMEGA4", "T1_1"):
        with pytest.raises(KeyError, match="unknown catalog id"):
            named(id_)
    for id_ in ("MK1", "DOWLING1", "PI4", "SIGMA3", "OMEGA5", "T1_2"):
        assert named(id_).id == id_


def test_families_are_simple():
    for id_ in ("PI4", "PI5", "SIGMA3", "SIGMA4", "OMEGA5", "T1_2", "T1_4"):
        assert family(id_).is_simple()


def test_t_r_1_shapes():
    t3 = family("T1_3")
    assert t3.size == 3 + 3 + 2 and t3.rank() == 3
    t2 = family("T1_2")
    assert t2.size == 4 and t2.rank() == 2


def test_universal_block_labels():
    cliq, sub = universal_block_labels(5, 4, 3)
    assert cliq == tuple(range(15))
    assert sub == (0, 1, 2, 3, 5, 6, 7, 9, 10, 12, 15, 16, 17)


def test_named_fixed_entries():
    a = named("FORBIDDEN_A")
    assert a.matrix.columns == ((1, 1, 1, 1),)
    assert a.contract_hint == (10,)
    b = named("FORBIDDEN_B")
    assert b.matrix.nrows == 5 and b.contract_hint == (15, 16)
    t2p = named("T2PLUS")
    assert t2p.matrix.rows[-1] == (2, 2, 2)
    t3p = named("T3PLUS")
    assert t3p.matrix.rows[-1] == (0, 1, 1)
    with pytest.raises(KeyError):
        named("NOPE")
    with pytest.raises(KeyError):
        named("PI3")


def test_named_parameterized():
    assert named("MK5").matroid().size == 10
    assert named("DOWLING4", field=3).matroid().size == 16
    assert named("PI4", field=5).matrix.p == 5
    assert named("PI4").matroid().rank() == 4
    assert named("T1_4").matroid().size == 4 + 6 + 3


def test_family_matrices_entry_by_entry():
    # [I | D | payload], transcribed by hand in signed form: DOWLING3's
    # payload has the columns e_i + e_j, T1_3's e_0 + e_1 and e_0 + e_2, and
    # MK4 has none
    want = {
        "DOWLING3": ((1, 0, 0, 1, 1, 0, 1, 1, 0),
                     (0, 1, 0, -1, 0, 1, 1, 0, 1),
                     (0, 0, 1, 0, -1, -1, 0, 1, 1)),
        "MK4": ((1, 0, 0, 1, 1, 0),
                (0, 1, 0, -1, 0, 1),
                (0, 0, 1, 0, -1, -1)),
        "T1_3": ((1, 0, 0, 1, 1, 0, 1, 1),
                 (0, 1, 0, -1, 0, 1, 1, 0),
                 (0, 0, 1, 0, -1, -1, 0, 1)),
    }
    for id_, rows in want.items():
        for p in (3, 5):
            entry = named(id_, p)
            assert entry.matrix.p == p and entry.matrix.ncols == len(rows[0])
            assert entry.matrix.rows == tuple(tuple(x % p for x in row) for row in rows), (id_, p)
            assert entry.matroid().labels == tuple(range(len(rows[0])))


def test_family_parameter_is_bounded():
    for head in ("MK", "DOWLING", "PI", "SIGMA", "OMEGA", "T1_"):
        with pytest.raises(KeyError, match="unknown catalog id"):
            named(f"{head}{catalog.MAX_FAMILY_PARAM + 1}")
        # past int()'s default 4,300-digit limit
        with pytest.raises(KeyError, match="unknown catalog id"):
            named(f"{head}{'9' * 5000}")
    top = catalog.MAX_FAMILY_PARAM
    assert named(f"DOWLING{top}").matrix.nrows == top
    assert named(f"MK{top}").matroid().size == top * (top - 1) // 2


def test_family_ids_have_no_leading_zeros():
    # one id per member, so one cache entry per member
    for id_ in ("PI004", "MK01", "DOWLING03", "T1_02", "SIGMA00", "OMEGA+5", "PI 4", "PI4 "):
        with pytest.raises(KeyError, match="unknown catalog id"):
            named(id_)


def _digest(id_: str, field: int) -> str:
    try:
        entry = named(id_, field)
    except KeyError:
        return "KeyError"
    blob = f"{gf.to_text(entry.matrix)}|{entry.labels}|{entry.contract_hint}"
    return hashlib.sha256(blob.encode()).hexdigest()


def test_catalog_entries_match_digests():
    # every catalog id, and every family id with parameter 0-13, over both
    # fields: the matrix text, labels and contract hint of each entry, or
    # KeyError where the id is rejected
    ids = set(catalog_ids())
    for head in ("MK", "DOWLING", "PI", "SIGMA", "OMEGA", "T1_"):
        ids.update(f"{head}{k}" for k in range(14))
    got = [f"{id_} {field} {_digest(id_, field)}" for field in (3, 5) for id_ in sorted(ids)]
    want = (DATA / "catalog_digests.txt").read_text().splitlines()
    assert len(want) == 232 and sum(line.endswith(" KeyError") for line in want) == 44
    assert got == want


def test_named_builds_each_entry_once():
    # entries are shared per (id, field); their matroids are not, so
    # per-matroid caches never leak between callers
    for id_ in ("AG23E", "AG23E_DUAL", "PI4", "DOWLING3"):
        for field in (3, 5):
            entry = named(id_, field)
            assert named(id_, field) is entry
            assert entry.matroid() is not entry.matroid()
    assert named("PI4", 3) is not named("PI4", 5)


def test_catalog_ids_all_resolve():
    for id_ in catalog_ids():
        entry = named(id_)
        assert isinstance(entry, NamedEntry)
        assert entry.matrix.ncols == len(entry.matroid().labels)


def test_ag23e_structure():
    ag = named("AG23E").matroid()
    assert ag.labels == (1, 2, 3, 4, 5, 6, 7, 8)
    assert ag.rank() == 3 and ag.size == 8 and ag.is_simple()
    # affine plane minus a point: exactly eight 3-point lines, nothing longer
    assert line_count(ag, 3) == 8
    assert line_count(ag, 4) == 0


def test_ag23e_construction_forms_agree():
    ag = named("AG23E").matroid()
    y0 = named("AG23E_Y0").matroid()
    assert y0.rank() == 4 and y0.size == 9
    contracted = y0.contract({9})
    iso = find_isomorphism(contracted, ag)
    assert iso is not None and verify_bijection(contracted, ag, iso)
    x_form = named("AG23E_X").matroid()
    iso2 = find_isomorphism(x_form, ag)
    assert iso2 is not None and verify_bijection(x_form, ag, iso2)


def test_ag23e_dual():
    assert named("AG23E_DUAL").matroid().rank() == 5
    assert find_isomorphism(named("AG23E_DUAL").matroid().dual(), named("AG23E").matroid()) is not None


def test_f7minus_structure():
    f7m = named("F7MINUS").matroid()
    assert f7m.rank() == 3 and f7m.size == 7 and f7m.is_simple()
    # non-Fano: six 3-point lines (the full Fano plane has seven)
    assert line_count(f7m, 3) == 6
    assert find_isomorphism(named("F7MINUS_XY0").matroid(), f7m) is not None
    assert named("F7MINUS_DUAL").matroid().rank() == 4


def test_u24():
    u = named("U24").matroid()
    assert u.rank() == 2 and u.size == 4
    assert all(u.rank(pair) == 2 for pair in itertools.combinations(u.labels, 2))


def test_table_rows_against_golden_files():
    assert sorted(FORBIDDEN) == list("ABCDEFGHIJKLMNO")
    for key in FORBIDDEN:
        entry = named(f"FORBIDDEN_{key}")
        path = DATA / f"forbidden_{key}.gfm"
        text = path.read_text()
        golden = gf.from_text(text)
        assert golden == entry.matrix, f"matrix {key} disagrees with its golden file"
        hint_line = next(ln for ln in text.splitlines() if ln.startswith("# hint"))
        hint = tuple(int(tok) for tok in hint_line.removeprefix("# hint").split(","))
        assert hint == entry.contract_hint, f"hint {key} disagrees with its golden file"


def test_hint_labels_in_range():
    for key in FORBIDDEN:
        entry = named(f"FORBIDDEN_{key}")
        r, c = entry.matrix.nrows, entry.matrix.ncols
        n_elements = r + r * (r - 1) // 2 + c
        assert all(0 <= h < n_elements for h in entry.contract_hint)


def test_cross_field_entries_reduce_consistently():
    m3 = named("T1", field=3).matrix
    m5 = named("T1", field=5).matrix
    assert balanced_rows(m3) == balanced_rows(m5)
