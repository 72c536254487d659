"""Template engine tests: column taxonomy, moves, the submatrix scanner,
the Y-template classifier with certificate replay, and the six minimal
templates with the respects predicate."""

import dataclasses
import hashlib
import itertools
import random

import pytest

from matroidlab import gf
from matroidlab import templates as tp
from matroidlab.catalog import FORBIDDEN, T1, T2, T2PLUS, T3, T3PLUS, named, universal_matrix
from matroidlab.gf import GFMatrix, weight
from matroidlab.matroid import LinearMatroid, find_isomorphism

from .naive import naive_find_submatrices


def gf3(rows):
    return GFMatrix(3, rows)


# -- column taxonomy ---------------------------------------------------------------


def test_classify_column_fixed_cases():
    cases = [
        ((0, 0, 0), tp.ZERO, 1),
        ((0, 1, 0), tp.GRAPHIC, 1),
        ((0, -1, 0), tp.GRAPHIC, -1),
        ((1, -1, 0), tp.GRAPHIC, -1),
        ((1, 1, 0), tp.OTHER, None),
        ((1, 1, 1), tp.TYPE3, 1),
        ((-1, -1, 0, -1), tp.TYPE3, -1),
        ((1, 1, -1, -1), tp.TYPE4, -1),
        ((-1, 1, 1, -1), tp.TYPE4, -1),
        ((1, 1, 1, -1), tp.OTHER, None),
        ((1, 1, 1, 1), tp.OTHER, None),
        ((1, 1, 1, -1, -1, -1), tp.OTHER, None),
    ]
    for col, kind, scalar in cases:
        assert tp.classify_column(col) == (kind, scalar), col


def test_classify_column_normal_form():
    """The returned scalar really puts the column into normal form."""
    rng = random.Random(11)
    for _ in range(300):
        col = tuple(rng.randrange(-1, 2) for _ in range(rng.randrange(1, 7)))
        kind, s = tp.classify_column(col)
        if s is None:
            assert kind == tp.OTHER
            continue
        scaled = [(x * s) % 3 for x in col]
        nz = [x for x in scaled if x]
        if kind == tp.TYPE3:
            assert nz == [1, 1, 1]
        elif kind == tp.TYPE4:
            assert sorted(nz) == [1, 1, 2, 2]
        elif kind == tp.GRAPHIC:
            assert len(nz) <= 2 and (len(nz) < 2 or sorted(nz) == [1, 2])


def test_classify_column_wrong_field():
    with pytest.raises(ValueError):
        tp.classify_column((1, 1), p=5)


# -- moves ------------------------------------------------------------------------


def test_add_zero_sum_row_matches_catalog():
    assert tp.add_zero_sum_row(gf3(T2)) == gf3(T2PLUS)
    assert tp.add_zero_sum_row(gf3(T3)) == gf3(T3PLUS)
    # T1 gets (0, 1, 1) appended
    assert tp.add_zero_sum_row(gf3(T1)).rows[-1] == (0, 1, 1)


def test_remove_row_requires_zero_sums():
    with pytest.raises(ValueError):
        tp.remove_row(gf3(T2), 0)
    plus = tp.add_zero_sum_row(gf3(T2))
    assert tp.remove_row(plus, 3) == gf3(T2)


def test_strip_and_dedupe():
    P = gf3([[1, 1, 0, -1], [1, -1, 0, -1], [1, 0, 0, -1]])
    # drops the unit-difference and zero columns
    stripped = tp.apply_moves(P, (("strip_columns", (0, 3)),))
    assert stripped == gf3([[1, -1], [1, -1], [1, -1]])
    assert tp.apply_moves(stripped, (("dedupe_columns", (0,)),)) == gf3([[1], [1], [1]])


def test_apply_moves_replays_and_validates():
    P = gf3(T2)
    trail = (("append_zero_sum_row",), ("remove_row", 3))
    assert tp.apply_moves(P, trail) == P
    with pytest.raises(ValueError):
        tp.apply_moves(P, (("remove_row", 0),))
    with pytest.raises(ValueError):
        tp.apply_moves(P, (("strip_columns", (0,)),))  # dropped columns are not graphic
    with pytest.raises(ValueError):
        tp.apply_moves(P, (("scale_columns", (1, 0, 1)),))
    with pytest.raises(ValueError):
        tp.apply_moves(P, (("nonsense",),))


# -- submatrix scanner --------------------------------------------------------------


def test_scanner_self_hits():
    for key, (rows, _) in FORBIDDEN.items():
        m = gf3(rows)
        hit = tp.find_submatrix(m, m)
        assert hit is not None, key
        assert tp.check_submatrix_hit(m, m, hit), key


def test_scanner_agrees_with_naive():
    """Boolean agreement with the brute-force reference on random haystacks;
    the digest pins every first placement, which the determinism contract
    fixes."""
    rng = random.Random(424242)
    placements = []
    needles = {key: gf3(rows) for key, (rows, _) in FORBIDDEN.items()}
    for _ in range(60):
        hay = GFMatrix(3, [[rng.randrange(-1, 2) for _ in range(4)] for _ in range(6)])
        refs = naive_find_submatrices(hay, list(needles.values()))
        for (key, needle), ref in zip(needles.items(), refs):
            mine = tp.find_submatrix(hay, needle)
            assert (mine is None) == (ref is None), (key, hay.rows)
            placements.append(None if mine is None else (mine.row_map, mine.col_map, mine.scalars))
            if mine is not None:
                assert tp.check_submatrix_hit(hay, needle, mine)
    assert len(placements) == 900 and sum(x is not None for x in placements) == 63
    assert hashlib.sha256(repr(placements).encode()).hexdigest().startswith("9b4ffab15aea2772")


@pytest.mark.parametrize(
    "hay, needle, want",
    [
        # needle row 1 is zero in both columns: it needs a free row where
        # both placed columns vanish, which only haystack row 3 is
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 0]], [[1, 0], [0, 0], [1, 1]], ((1, 3, 2), (0, 1), (1, 1))),
        # needle row 2 is zero in both columns, and haystack row 3 is the
        # only free row where columns 0 and 2 both vanish
        ([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 1, 0]], [[1, 1], [0, 1], [0, 0]], ((0, 1, 3), (0, 2), (1, 1))),
    ],
)
def test_scanner_places_zero_rows_where_placed_columns_vanish(hay, needle, want):
    hit = tp.find_submatrix(gf3(hay), gf3(needle))
    assert (hit.row_map, hit.col_map, hit.scalars) == want
    assert tp.check_submatrix_hit(gf3(hay), gf3(needle), hit)


def test_scanner_no_row_scaling():
    """(1,1,1) and (1,1,-1) differ by a row scaling only; no hit allowed."""
    hay = gf3([[1], [1], [-1]])
    needle = gf3([[1], [1], [1]])
    assert tp.find_submatrix(hay, needle) is None
    assert tp.find_submatrix(hay, gf3([[1], [-1], [1]])) is not None  # row permutation is fine


def test_scanner_respects_zero_entries():
    hay = gf3([[1, 0], [1, 1], [0, 1]])
    assert tp.find_submatrix(hay, gf3([[1, 0], [0, 1]])) is not None
    assert tp.find_submatrix(hay, gf3([[1, 1], [1, 1]])) is None


def _every_matrix(p, nrows, ncols):
    for flat in itertools.product(range(p), repeat=nrows * ncols):
        yield GFMatrix(p, [flat[i:i + ncols] for i in range(0, nrows * ncols, ncols)])


def test_screen_keeps_every_occurrence_over_gf3():
    # every needle of at most 2x2 in every 3x2 haystack: the screen passes
    # each pair the brute-force search finds, and the scanner agrees with it
    needles = [n for r, c in itertools.product((1, 2), repeat=2) for n in _every_matrix(3, r, c)]
    found = rejected = 0
    for hay in _every_matrix(3, 3, 2):
        for needle, ref in zip(needles, naive_find_submatrices(hay, needles)):
            if tp._screen(hay, needle) is not None:
                assert (tp.find_submatrix(hay, needle) is None) == (ref is None), (hay.rows, needle.rows)
            else:
                assert ref is None, (hay.rows, needle.rows)
                rejected += 1
            found += ref is not None
    # the screen rejects 42,114 of the 44,610 misses among 74,358 pairs
    assert len(needles) == 102 and (found, rejected) == (29_748, 42_114)


def test_screen_keeps_every_occurrence_over_gf5():
    # over GF(5) a column scalar permutes four nonzero values; each sampled
    # haystack is searched for a planted needle (a scaled, permuted
    # submatrix of it, which occurs by construction) and a random one
    rng = random.Random(5)
    rejected = 0
    for _ in range(300):
        nr, nc = rng.randrange(2, 5), rng.randrange(2, 4)
        hay = GFMatrix(5, [[rng.randrange(5) for _ in range(nc)] for _ in range(nr)])
        rows, cols = rng.sample(range(nr), rng.randrange(1, nr + 1)), rng.sample(range(nc), rng.randrange(1, nc + 1))
        scalars = [rng.randrange(1, 5) for _ in cols]
        planted = GFMatrix(5, [[s * hay.rows[i][j] for j, s in zip(cols, scalars)] for i in rows])
        shape = (rng.randrange(1, nr + 1), rng.randrange(1, nc + 1))
        drawn = GFMatrix(5, [[rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(shape[1])] for _ in range(shape[0])])
        for needle, ref in zip((planted, drawn), naive_find_submatrices(hay, [planted, drawn])):
            screened = tp._screen(hay, needle) is not None
            assert screened or ref is None, (hay.rows, needle.rows)
            assert (tp.find_submatrix(hay, needle) is None) == (ref is None), (hay.rows, needle.rows)
            rejected += not screened
        assert tp._screen(hay, planted) is not None
    assert rejected > 100


def test_forbidden_scan_orders_and_field():
    b = gf3(FORBIDDEN["B"][0])
    hits = tp.forbidden_scan(b)
    assert [h.id for h in hits] == ["B"]
    with pytest.raises(ValueError):
        tp.forbidden_scan(GFMatrix(5, [[1]]))


def _derived_needle(name):
    """The classifier's needle for the cropped variant name."""
    return next(needle for key, _, _, needle in tp._classifier_needles() if key == name)


def test_derived_needles():
    assert _derived_needle("A'") == gf3([[1], [1], [1], [-1]])
    assert _derived_needle("E'") == gf3([[1, 0], [1, 0], [0, 1], [0, -1], [0, -1]])
    assert _derived_needle("G'") == gf3([[1, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [0, -1]])


def test_derived_needles_skip_family_payloads():
    """The cropped needles must not fire inside the completed payload matrices,
    otherwise the family verdicts would be unreachable."""
    for rows in (T1, T2, T3):
        target = tp.add_zero_sum_row(gf3(rows))
        for name in ("A'", "E'", "G'"):
            assert tp.find_submatrix(target, _derived_needle(name)) is None, (rows, name)


# -- classifier --------------------------------------------------------------------


def check_classification(P, want):
    cls = tp.classify_Y_template(P)
    assert cls.verdict == want, (cls.verdict, cls.notes)
    ok, why = tp.verify_classification(P, cls)
    assert ok, why
    return cls


def test_classifier_family_payloads():
    check_classification(gf3(T1), tp.PI)
    check_classification(gf3(T2), tp.SIGMA)
    check_classification(gf3(T3), tp.OMEGA)


def test_classifier_signed_graphic_column():
    cls = check_classification(gf3([[1], [1], [1]]), tp.SIGNED_GRAPHIC)
    assert cls.certificate[0] == "main_case"
    _, border, pre, post = cls.certificate
    assert tp.is_signed_graphic_form(post)
    # the reduction is a row transformation, so the matroids agree
    assert find_isomorphism(LinearMatroid(pre), LinearMatroid(post)) is not None


def test_classifier_forbidden_column():
    cls = check_classification(gf3([[1], [1], [1], [1]]), tp.CONTAINS_AG23E)
    assert cls.certificate[0] == "forbidden_hit"
    assert cls.certificate[1] == "A"


def test_classifier_trivial_inputs():
    check_classification(GFMatrix.zeros(3, 3, 2), tp.SIGNED_GRAPHIC)
    check_classification(gf3([[1, 0], [-1, 0], [0, 1], [0, -1]]), tp.SIGNED_GRAPHIC)
    check_classification(GFMatrix.zeros(3, 0, 0), tp.SIGNED_GRAPHIC)
    with pytest.raises(ValueError):
        tp.classify_Y_template(GFMatrix(5, [[1]]))


def test_classifier_two_column_shapes():
    # type-3 against type-4 columns overlapping in one or two rows
    check_classification(gf3([[-1, 1], [-1, 1], [1, 0], [1, 0], [0, 1]]), tp.SIGNED_GRAPHIC)
    check_classification(gf3([[-1, 1], [-1, 1], [1, 1], [1, 0]]), tp.SIGNED_GRAPHIC)
    # two type-4 columns with equal supports embed in the Sigma payload
    check_classification(gf3([[-1, -1], [-1, 1], [1, -1], [1, 1]]), tp.SIGMA)
    # all-ones columns sharing one row reduce to a frame shape
    cls = check_classification(gf3([[1, 0], [1, 0], [1, 1], [0, 1], [0, 1]]), tp.SIGNED_GRAPHIC)
    assert cls.certificate[0] in ("frame_form", "main_case")


def test_classifier_certificate_tampering_detected():
    P = gf3([[1], [1], [1], [1]])
    cls = tp.classify_Y_template(P)
    forged = tp.Classification(tp.SIGNED_GRAPHIC, cls.moves, cls.normalized, ("frame_form", cls.normalized), ())
    ok, why = tp.verify_classification(P, forged)
    assert not ok
    wrong_moves = tp.Classification(cls.verdict, (), cls.normalized, cls.certificate, ())
    ok, why = tp.verify_classification(P, wrong_moves)
    assert not ok


def _t2_sigma():
    P = gf3(T2)
    return P, tp.classify_Y_template(P)


@pytest.mark.parametrize("certificate", [(), ("t_embedding",), ("t_embedding", 2, "junk"), None,
                                         ("t_embedding", [2], None), ("forbidden_hit", ["A"], (), None, None, None),
                                         ("main_case", 0, None, None), ("frame_form",)])
def test_verify_classification_rejects_malformed_certificates(certificate):
    P, cls = _t2_sigma()
    assert cls.verdict == tp.SIGMA and tp.verify_classification(P, cls) == (True, "ok")
    ok, why = tp.verify_classification(P, dataclasses.replace(cls, certificate=certificate))
    assert not ok and why


@pytest.mark.parametrize("moves", [(("remove_row",),), ((),), (("scale_columns", None),), (("strip_columns",),),
                                   (("remove_row", "x"),), (("drop_zero_rows", 5),), (None,), None])
def test_verify_classification_rejects_malformed_moves(moves):
    P, cls = _t2_sigma()
    with pytest.raises(ValueError):
        tp.apply_moves(P, moves)
    ok, why = tp.verify_classification(P, dataclasses.replace(cls, moves=moves))
    assert not ok and why.startswith("move replay failed")


def test_classifier_random_sweep():
    """Every random input lands in a verdict and every certificate replays.

    The taxonomy plus the forbidden catalog cover all zero-sum columns, so
    Unclassified should never appear; a failure here means the scanner or
    the cascade lost a case.
    """
    rng = random.Random(77007)
    seen = set()
    for _ in range(300):
        nr = rng.randrange(1, 7)
        nc = rng.randrange(1, 5)
        P = GFMatrix(3, [[rng.randrange(-1, 2) for _ in range(nc)] for _ in range(nr)])
        cls = tp.classify_Y_template(P)
        ok, why = tp.verify_classification(P, cls)
        assert ok, (why, P.rows)
        assert cls.verdict != tp.UNCLASSIFIED, P.rows
        seen.add(cls.verdict)
    assert tp.SIGNED_GRAPHIC in seen and tp.CONTAINS_AG23E in seen


def test_signed_graphic_reduce():
    pre = universal_matrix(gf3([[1], [1]]), 2)
    post = tp.signed_graphic_reduce(pre, 0)
    assert post.rows == ((1, 2, 2, 0), (0, 1, 2, 1))
    assert tp.is_signed_graphic_form(post)
    with pytest.raises(ValueError):
        tp.signed_graphic_reduce(universal_matrix(gf3([[1], [1], [1]]), 3), 0)
    with pytest.raises(ValueError):
        tp.signed_graphic_reduce(pre, 5)


def test_is_signed_graphic_form():
    assert tp.is_signed_graphic_form(named("DOWLING3").matrix)
    assert not tp.is_signed_graphic_form(universal_matrix(gf3(T1), 4))


# -- frame templates ---------------------------------------------------------------


TEMPLATE_IDS = ("PHI2", "PHI_C", "PHI_X", "PHI_Y0", "PHI_CX", "PHI_CX2")


def test_named_templates_wellformed():
    for id_ in TEMPLATE_IDS:
        t = tp.named_template(id_)
        assert t.gamma == frozenset({1, 2})
    assert len(tp.named_template("PHI_CX").c) == 1
    assert tp.named_template("PHI_CX2").a1.entry(0, 0) == 2
    with pytest.raises(KeyError):
        tp.named_template("PHI_NOPE")


def test_template_membership():
    t = tp.named_template("PHI_Y0")
    assert t.in_delta([1]) and t.in_delta([-1]) and t.in_delta([0])
    s = tp.named_template("PHI2")
    assert s.in_delta([]) and s.in_lambda([])
    with pytest.raises(ValueError):
        t.in_delta([1, 0])


def test_template_validation():
    with pytest.raises(ValueError):
        tp.FrameTemplate(
            frozenset({2}), (), (), (), (),
            GFMatrix.zeros(3, 0, 0), GFMatrix.zeros(3, 0, 0), GFMatrix.zeros(3, 0, 0),
        )
    with pytest.raises(ValueError):
        tp.FrameTemplate(
            frozenset({1}), (0,), (0,), (), (),
            GFMatrix.zeros(3, 1, 1), GFMatrix.zeros(3, 0, 1), GFMatrix.zeros(3, 0, 1),
        )
    with pytest.raises(ValueError):
        tp.FrameTemplate(
            frozenset({1}), (0,), (), (), (),
            GFMatrix.zeros(3, 0, 1), gf3([[1], [-1]]), GFMatrix.zeros(3, 0, 0),
        )


def test_respects_affine_witness_forms():
    a = named("AG23E_Y0")
    pl = tp.Placement(y0_cols=(8,))
    assert tp.respects(a.matrix, pl, tp.named_template("PHI_Y0")).ok
    b = named("AG23E_X")
    assert tp.respects(b.matrix, tp.Placement(x_rows=(0,)), tp.named_template("PHI_X")).ok


def test_respects_diagnostics():
    t = tp.named_template("PHI_Y0")
    a = named("AG23E_Y0").matrix
    # break one frame column: a lone -1 is not a frame column
    bad = tp._scale_columns(a, [-1 if j == 5 else 1 for j in range(a.ncols)])
    rep = tp.respects(bad, tp.Placement(y0_cols=(8,)), t)
    assert not rep.ok and "frame" in rep.reason
    with pytest.raises(ValueError):
        tp.respects(a, tp.Placement(), t)  # missing the Y0 column
    with pytest.raises(ValueError):
        tp.respects(a, tp.Placement(y0_cols=(8,), z_cols=(8,)), t)


def test_respects_gamma_restriction():
    """(1, 1) below X needs -1 in the sign group."""
    mat = gf3([[1, 1], [1, 0]])
    wide = tp.FrameTemplate(
        frozenset({1, 2}), (), (), (), (),
        GFMatrix.zeros(3, 0, 0), GFMatrix.zeros(3, 0, 0), GFMatrix.zeros(3, 0, 0),
    )
    narrow = tp.FrameTemplate(
        frozenset({1}), (), (), (), (),
        GFMatrix.zeros(3, 0, 0), GFMatrix.zeros(3, 0, 0), GFMatrix.zeros(3, 0, 0),
    )
    assert tp.respects(mat, tp.Placement(), wide).ok
    rep = tp.respects(mat, tp.Placement(), narrow)
    assert not rep.ok and "column 0" in rep.reason


def toy_template():
    return tp.FrameTemplate(
        frozenset({1}), (), (0, 1), (2,), (3, 4),
        gf3([[1, 1, 0], [1, 0, 1]]),
        GFMatrix.zeros(3, 0, 3), GFMatrix.zeros(3, 0, 2),
    )


def toy_matrix():
    return GFMatrix.from_columns(3, [
        (0, 0, 1, 0),    # frame
        (0, 0, 0, 1),    # frame
        (0, 0, 1, -1),   # frame
        (0, 0, 1, 0),    # z1
        (0, 0, 0, 1),    # z2
        (1, 1, 0, 0),    # y0
        (1, 0, 0, 0),    # y1
        (0, 1, 0, 0),    # y1
    ])


def test_conforms_pipeline():
    """Respect, rewrite the Z columns, contract them: the matroid that
    remains is the one presented by the frame block next to the payload."""
    t = toy_template()
    A = toy_matrix()
    pl = tp.Placement(x_rows=(0, 1), y0_cols=(5,), y1_cols=(6, 7), z_cols=(3, 4))
    assert tp.respects(A, pl, t).ok
    # add the Y1 column 6 into Z column 3 and 7 into 4, then delete Y1
    cols = list(A.columns)
    for z, y in ((3, 6), (4, 7)):
        cols[z] = tuple((a + b) % 3 for a, b in zip(cols[z], cols[y]))
    B = GFMatrix.from_columns(3, cols, nrows=A.nrows)
    assert B.column(3) == (1, 0, 1, 0) and B.column(4) == (0, 1, 0, 1)
    got = LinearMatroid(B).delete(pl.y1_cols).contract([3, 4])
    want = LinearMatroid(gf3([[1, 0, 1, 1], [0, 1, -1, 1]]))
    assert find_isomorphism(got, want) is not None


def test_template_blocks_are_matrix_files():
    # each block reads back from its matrix file, blocks with no rows or no
    # columns included
    for id_ in TEMPLATE_IDS:
        t = tp.named_template(id_)
        for mat in (t.a1, t.delta_basis, t.lambda_basis):
            assert gf.from_text(gf.to_text(mat)) == mat
    assert tp.named_template("PHI_X").a1.nrows == 1 and tp.named_template("PHI_X").a1.ncols == 0


def test_named_template_files_are_pinned():
    # each template's sign group, label tuples and blocks, as they were
    # when each template had its own branch
    assert tuple(tp._TEMPLATES) == TEMPLATE_IDS
    fields = [(id_, tuple(sorted(t.gamma)), t.c, t.x, t.y0, t.y1, _pin((t.a1, t.delta_basis, t.lambda_basis)))
              for id_, t in zip(TEMPLATE_IDS, map(tp.named_template, TEMPLATE_IDS))]
    digest = hashlib.sha256(repr(fields).encode()).hexdigest()
    assert digest == "ee590885e64109faa6fe2fe7a274e82445f664e22c14e70d68d42fd634b2689a"
    with pytest.raises(KeyError, match="unknown template id"):
        tp.named_template("PHI9")


def test_classification_verifier_never_reads_classifier_search():
    # the classifier's re-check names none of the searches it checks, in its
    # own code or in any function nested in it
    search_names = {"find_submatrix", "classify_Y_template", "_main_case", "_classifier_needles",
                    "_table_witness", "has_minor", "_dedupe_indices", "forbidden_scan",
                    "_screen", "_value_counts", "_Counts", "_saturates", "_augment"}

    def names(code):
        out = set(code.co_names)
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                out |= names(const)
        return out

    # every move of the table the classifier and the replay share, with the
    # lambdas nested in it
    verifiers = (tp.verify_classification, tp._check_certificate, tp.apply_moves, tp.check_submatrix_hit,
                 tp._needle, tp._keep, *tp._MOVES.values())
    for fn in verifiers:
        assert names(fn.__code__).isdisjoint(search_names), fn.__name__


def _pin(x):
    """x with its matrices written as their rows and its dataclasses as
    their fields, for a digest that does not rest on reprs of objects."""
    if isinstance(x, GFMatrix):
        return ("matrix", x.nrows, x.ncols, x.rows)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(_pin(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (tuple, list)):
        return tuple(_pin(y) for y in x)
    return x


def test_classifier_outputs_are_pinned():
    # every 4x2 payload over GF(3): verdict, moves, normalized matrix,
    # certificate and notes, against a digest taken when the classifier
    # made its moves inline and the replay had its own copy of each
    h = hashlib.sha256()
    for flat in itertools.product(range(3), repeat=8):
        cls = tp.classify_Y_template(GFMatrix(3, [flat[i:i + 2] for i in range(0, 8, 2)]))
        h.update(repr(_pin((cls.verdict, cls.moves, cls.normalized, cls.certificate, cls.notes))).encode() + b"\n")
    assert h.hexdigest() == "84730907cc85a15e1c162b86013e3c3d22c67d131931f38bb71f17b854e16cc2"
