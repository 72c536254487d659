"""Matroid layer: minors, duality, simplification, isomorphism, embedding,
minor search.  Structure checks run against the brute-force oracles."""

import collections
import dataclasses
import functools
import gc
import itertools
import random
import sys
from pathlib import Path

import pytest

from matroidlab.catalog import _fixed_entries, named, universal_matrix, universal_matroid
from matroidlab.gf import GFMatrix, row_reduce
from matroidlab.matroid import (
    LinearMatroid,
    MinorWitness,
    find_embedding,
    find_isomorphism,
    has_minor,
    verify_bijection,
    verify_embedding,
    verify_witness,
)
from matroidlab import matroid as matroid_module
from matroidlab.matroid import _PairTable, _RankPreservingSearch
from matroidlab.templates import _scale_columns

from .naive import (
    _minor_rank_table,
    naive_find_isomorphism,
    naive_has_minor,
    naive_is_isomorphic,
    naive_is_restriction,
    naive_monomial_automorphisms,
    naive_rank,
    random_matrix,
    subset_rank_table,
)


def m_of(rows, p=3, labels=None):
    return LinearMatroid(GFMatrix(p, rows), labels)


def mk4():
    # [I3 | D3]: graphic, rank 3 on 6 elements
    return m_of([[1, 0, 0, 1, 1, 0], [0, 1, 0, -1, 0, 1], [0, 0, 1, 0, -1, -1]])


def u24():
    return m_of([[1, 0, 1, 1], [0, 1, 1, -1]])


def m_cols(*cols):
    """Matroid over GF(3) of the given columns, each an (x, y, z) triple."""
    return LinearMatroid(GFMatrix.from_columns(3, cols, nrows=3))


E0, E1, E2, ZERO = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
# the 13 points of PG(2, 3), each scaled so its first nonzero entry is 1
PG23 = [v for v in itertools.product(range(3), repeat=3) if any(v) and next(x for x in v if x) == 1]
E12 = (0, 1, 1)
# the 40 points of PG(3, 3)
PG33 = [v for v in itertools.product(range(3), repeat=4) if any(v) and next(x for x in v if x) == 1]
# each has a loop or a parallel class; the 3-point line is {E1, E2, E12}
NONSIMPLE_FAMILY = (
    m_cols(E0, E1, E2, ZERO, (2, 0, 0), E12),  # loop, pair off the line
    m_cols(E0, E1, E2, ZERO, (0, 2, 0), E12),  # loop, pair on the line
    m_cols(E0, E1, E2, E0, (2, 0, 0), E12),  # class of three, no loop
    m_cols(E0, E1, E2, ZERO, ZERO, E12),  # two loops
)


def test_labels_default_and_validation():
    m = mk4()
    assert m.labels == (0, 1, 2, 3, 4, 5)
    assert m.rank() == 3 and m.size == 6
    with pytest.raises(ValueError):
        LinearMatroid(GFMatrix(3, [[1, 0], [0, 1]]), [7])
    with pytest.raises(ValueError):
        LinearMatroid(GFMatrix(3, [[1, 0], [0, 1]]), [7, 7])
    with pytest.raises(KeyError):
        m.rank({99})


def test_subset_rank():
    m = mk4()
    assert m.rank(set()) == 0
    assert m.rank({0, 1}) == 2
    # triangle: e0-e1 style columns 3,4,5 pairwise dependent as a triple
    assert m.rank({3, 4, 5}) == 2
    assert m.rank({0, 1, 2}) == 3
    assert m.rank({3, 4, 5}) != 3


def test_delete_restrict():
    m = mk4()
    d = m.delete({3, 5})
    assert d.labels == (0, 1, 2, 4)
    assert d.rank() == 3
    r = m.restrict({0, 4})
    assert r.labels == (0, 4) and r.rank() == 2


def test_contract_basics():
    m = mk4()
    assert m.contract(set()).labels == m.labels
    c = m.contract({0})
    assert c.rank() == 2 and c.labels == (1, 2, 3, 4, 5)
    # columns 3,4 were e0-e1, e0-e2; contracting element 0 makes them parallel
    # to the remaining identity columns
    assert c.rank({3}) == 1
    # contracting a loop equals deleting it
    loopy = m_of([[1, 0], [0, 0]])
    assert loopy.contract({1}).rank() == loopy.delete({1}).rank() == 1


def test_contract_rank_formula():
    m = mk4()
    for k in range(3):
        for t in itertools.combinations(m.labels, k):
            assert m.contract(t).rank() == m.rank() - m.rank(t)


def test_contract_matches_naive_rank_exhaustively():
    # for every T and every S disjoint from it, on seeded rank-3 matroids
    # with loops and parallel classes over GF(3) and GF(5): r_{M/T}(S) is
    # r(S + T) - r(T) by naive_rank, M/T has r(T) rows fewer than M, and but for
    # T empty, where M/T is M, its columns are its points (first nonzero
    # entry 1) and zero columns
    hosts = 0
    for p in (3, 5):
        rng = random.Random(90 + p)
        for _ in range(6):
            m = _with_loops_and_classes(p, rng, 3, 7)
            table = _PairTable.of(m)
            hosts += bool(table.loops) and any(len(c) > 1 for c in table.classes.values())
            naive = {frozenset(sub): naive_rank(m.matrix.take_cols([m.labels.index(x) for x in sub]))
                     for k in range(m.size + 1) for sub in itertools.combinations(m.labels, k)}
            for t in naive:
                c = m.contract(t)
                assert c.labels == tuple(x for x in m.labels if x not in t)
                assert c.matrix.nrows == m.matrix.nrows - naive[t]
                assert c is m if not t else all(next((x for x in col if x), 1) == 1 for col in c.matrix.columns)
                for k in range(c.size + 1):
                    for s in itertools.combinations(c.labels, k):
                        assert c.rank(s) == naive[t | frozenset(s)] - naive[t], (m.matrix, t, s)
    assert hosts >= 6


def test_loops_parallel_simplify():
    rows = [[1, 0, 2, 0, 1], [0, 0, 0, 0, 1], [2, 0, 1, 0, 0]]
    m = m_of(rows)  # col1 and col3 are loops; col2 = 2*col0
    table = _PairTable.of(m)
    assert table.loops == [1, 3]
    assert table.classes == {0: (0, 2), 4: (4,)}
    s = m.simplify()
    assert s.labels == (0, 4)
    assert s.rank() == m.rank()
    assert s.simplify().labels == s.labels
    assert s.is_simple() and not m.is_simple()


def test_dual_shapes_and_involution():
    m = mk4()
    d = m.dual()
    assert d.labels == m.labels
    assert d.rank() == m.size - m.rank()
    dd = d.dual()
    iso = find_isomorphism(m, dd)
    assert iso is not None and verify_bijection(m, dd, iso)
    # free matroid dualizes to all-loops
    free = LinearMatroid(GFMatrix.from_columns(3, [E0, E1, E2]))
    assert free.dual().rank() == 0 and free.dual().size == 3
    assert free.dual().dual().rank() == 3


def test_dual_standard_form():
    # [I2 | D] should dualize to [-D^T | I]
    m = m_of([[1, 0, 1, 2], [0, 1, 1, 1]])
    d = m.dual()
    assert d.matrix.rows == ((2, 2, 1, 0), (1, 2, 0, 1))


def test_iso_reflexive_and_field_change():
    m = mk4()
    iso = find_isomorphism(m, m)
    assert iso == {x: x for x in m.labels}
    m5 = m_of([[1, 0, 0, 1, 1, 0], [0, 1, 0, -1, 0, 1], [0, 0, 1, 0, -1, -1]], p=5)
    assert find_isomorphism(m, m5) is not None
    assert find_isomorphism(m, u24()) is None


def test_iso_detects_distinct_matroids():
    # M(K4) vs U{3,6}: same size and rank, different structure
    u36 = m_of([[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 2, 1], [0, 0, 1, 1, 1, 2]])
    assert u36.rank({3, 4, 5}) == 3
    assert find_isomorphism(mk4(), u36) is None


def test_iso_matches_naive_on_random_pairs():
    rng = random.Random(4242)
    hits = 0
    for _ in range(40):
        a = random_matrix(rng, 3, 3, rng.randint(4, 6))
        b = random_matrix(rng, 3, 3, a.ncols)
        ma, mb = LinearMatroid(a), LinearMatroid(b)
        got = find_isomorphism(ma, mb) is not None
        assert got == naive_is_isomorphic(ma, mb)
        hits += got
    # permuted/scaled copies must always come back isomorphic
    for _ in range(15):
        a = random_matrix(rng, 3, 4, 6)
        order = list(range(6))
        rng.shuffle(order)
        b = _scale_columns(a.take_cols(order), [rng.randrange(1, 3) for _ in range(6)])
        iso = find_isomorphism(LinearMatroid(a), LinearMatroid(b))
        assert iso is not None
        assert verify_bijection(LinearMatroid(a), LinearMatroid(b), iso)
    # loops and parallel classes, and relabelled rescaled copies of them
    family = list(NONSIMPLE_FAMILY)
    for m in NONSIMPLE_FAMILY:
        order = list(range(m.size))
        rng.shuffle(order)
        copy = _scale_columns(m.matrix.take_cols(order), [rng.randrange(1, 3) for _ in range(m.size)])
        family.append(LinearMatroid(copy))
    # the witness is the lexicographically least isomorphism
    for ma, mb in itertools.product(family, repeat=2):
        iso = find_isomorphism(ma, mb)
        assert iso == naive_find_isomorphism(ma, mb)
        if iso is not None:
            assert verify_bijection(ma, mb, iso)


def test_embedding_matches_naive_on_nonsimple_matroids():
    host = m_cols(E0, E1, E2, ZERO, (2, 0, 0), E12, E1)  # loop, pairs {0,4} {1,6}
    sources = [
        m_cols(ZERO, E0, (2, 0, 0)),  # loop and a parallel pair
        m_cols(E1, (0, 2, 0), E2, E12),  # parallel pair on a 3-point line
        m_cols(E0, E0, E0),  # parallel class of three
        m_cols(ZERO, ZERO, E0),  # two loops
        m_cols(E0, (2, 0, 0), E1, E1, ZERO),  # two parallel pairs and a loop
        m_cols(E0, E0, E1, E2, (1, 1, 0)),  # parallel pair on a 3-point line
    ]
    sources += list(NONSIMPLE_FAMILY)
    hits = 0
    for m in sources:
        emb = find_embedding(m, host)
        assert (emb is not None) == naive_is_restriction(m, host)
        if emb is not None:
            assert verify_embedding(m, host, emb)
            hits += 1
    assert 0 < hits < len(sources)


def _check_pair_table(m):
    """is_simple() of m, and the pair table's loops, classes, keys and
    closures over the least label of each class, against the brute-force
    subset ranks."""
    ranks = subset_rank_table(m)
    points = [x for x in m.labels if ranks[frozenset((x,))] == 1]
    loops = [x for x in m.labels if x not in points]
    classes = {tuple(y for y in sorted(points) if ranks[frozenset((x, y))] == 1) for x in points}
    assert m.is_simple() == (len(points) == m.size and all(len(c) == 1 for c in classes))
    table = _PairTable.of(m)
    assert table.loops == sorted(loops)
    assert table.classes == {c[0]: c for c in sorted(classes)}
    least = sorted(c[0] for c in classes)
    assert table.labels == least
    assert table.index == {a: i for i, a in enumerate(least)}
    for i, a in enumerate(least):
        lines = set()
        for j, b in enumerate(least):
            if b != a:
                closure = [c for c in least if ranks[frozenset((a, b, c))] == 2]
                assert [least[k] for k in matroid_module._bit_indices(table.closure[i][j])] == closure
                lines.add(tuple(closure))
        sizes = sorted((len(line) for line in lines if len(line) >= 3), reverse=True)
        assert table.keys[a] == (tuple(sizes), len(table.classes[a]))


def _with_loops_and_classes(p, rng, nrows=4, ncols=8):
    """Seeded matroid over GF(p), rank at most nrows: some columns zero,
    some rescaled copies of earlier columns."""
    cols = []
    for _ in range(ncols):
        roll = rng.random()
        if roll < 0.15:
            cols.append([0] * nrows)
        elif roll < 0.45 and cols:
            s = rng.randint(1, p - 1)
            cols.append([(s * x) % p for x in rng.choice(cols)])
        else:
            cols.append([rng.randrange(p) for _ in range(nrows)])
    return LinearMatroid(GFMatrix.from_columns(p, cols, nrows=nrows))


def test_pair_table_matches_subset_ranks():
    # every matroid on four columns drawn, with repetition, from the zero
    # vector and the 13 points of PG(2, 3): loops and parallel classes included
    for cols in itertools.combinations_with_replacement([ZERO] + PG23, 4):
        _check_pair_table(m_cols(*cols))
    # every 3-column multiset over the zero vector and the 31 points of
    # PG(2, 5), each column rescaled so that normalization is exercised
    rng = random.Random(5)
    pg25 = [v for v in itertools.product(range(5), repeat=3) if next((x for x in v if x), 1) == 1]
    multisets = list(itertools.combinations_with_replacement(pg25, 3))
    assert len(multisets) == 5984
    for cols in multisets:
        scaled = [[(rng.randint(1, 4) * x) % 5 for x in col] for col in cols]
        _check_pair_table(LinearMatroid(GFMatrix.from_columns(5, scaled, nrows=3)))
    # seeded rank-4 matroids over GF(3) and GF(5); the table of m is that of
    # its simplification, but for the class sizes in the keys
    nonsimple = 0
    for p in (3, 5):
        rng = random.Random(40 + p)
        for _ in range(50):
            m = _with_loops_and_classes(p, rng)
            _check_pair_table(m)
            # labels that run against the column order
            _check_pair_table(LinearMatroid(m.matrix, range(m.size - 1, -1, -1)))
            table, simple = _PairTable.of(m), _PairTable.of(m.simplify())
            assert (table.labels, table.lines) == (simple.labels, simple.lines)
            assert {x: k[0] for x, k in table.keys.items()} == {x: k[0] for x, k in simple.keys.items()}
            nonsimple += bool(table.loops) and any(len(c) > 1 for c in table.classes.values())
    assert nonsimple >= 20


def test_pair_table_is_cached_and_makes_no_rank_calls(monkeypatch):
    builds, rank_calls = [], []
    real_init, real_rank = _PairTable.__init__, LinearMatroid.rank

    def counting_init(self, points, p):
        builds.append(points)
        real_init(self, points, p)

    def counting_rank(self, subset=None):
        rank_calls.append(subset)
        return real_rank(self, subset)

    monkeypatch.setattr(_PairTable, "__init__", counting_init)
    monkeypatch.setattr(LinearMatroid, "rank", counting_rank)
    pi4 = named("PI4").matroid()
    table = _PairTable.of(pi4)
    assert rank_calls == [] and len(builds) == 1
    assert _PairTable.of(pi4) is table and len(builds) == 1
    # a negative search tries 13 contraction sets: one table for the fixed
    # target, one per stage, built from the stage's points to screen it
    builds.clear()
    target = named("AG23E").matroid()
    assert has_minor(named("PI4").matroid(), target) is None
    assert len(builds) == 14
    assert sum(points is target._point_map() for points in builds) == 1
    # the keys are read off the one cached table
    assert all(_PairTable.of(pi4).keys[x][0] is table.keys[x][0] for x in table.labels)


def test_pair_table_lines_are_the_distinct_closures():
    # each line is listed once, and the line sizes through each point are
    # those of the closures, which _check_pair_table tests against ranks
    rng = random.Random(9)
    simple = 0
    for p in (3, 5):
        for _ in range(30):
            m = LinearMatroid(random_matrix(rng, p, rng.randint(3, 4), rng.randint(4, 14))).simplify()
            table = _PairTable.of(m)
            assert "closure" not in vars(table)
            lines = {line for row in table.closure for line in row if line}
            assert len(table.lines) == len(lines) and set(table.lines) == lines
            for x in m.labels:
                through = [c for c in lines if c & 1 << table.index[x]]
                sizes = sorted((c.bit_count() for c in through if c.bit_count() >= 3), reverse=True)
                assert table.keys[x][0] == tuple(sizes)
            simple += m.size >= 6
    assert simple >= 30


def test_stage_closures_are_built_only_when_searched(monkeypatch):
    # has_minor(PI5, AG23E) screens all 76 stages out by their key counts,
    # so no stage is searched: the target's pattern, whose pair checks read
    # its table's closures, is never built, and no table builds them
    tables = []
    real_init = _PairTable.__init__

    def recording_init(self, points, p):
        tables.append(self)
        real_init(self, points, p)

    monkeypatch.setattr(_PairTable, "__init__", recording_init)
    target = named("AG23E").matroid()
    assert has_minor(named("PI5").matroid(), target) is None
    assert len(tables) == 77
    assert target._patterns == {}
    assert [table for table in tables if "closure" in vars(table)] == []


def test_simplify_reuses_computed_points(monkeypatch):
    rows = [[1, 0, 2, 0, 1, 1], [0, 0, 0, 0, 1, 2], [2, 0, 1, 0, 0, 1]]
    m = m_of(rows)  # loops 1, 3; class {0, 2}
    m._point_map()
    calls = []
    real = matroid_module._normalize

    def counting(v, p):
        calls.append(v)
        return real(v, p)

    monkeypatch.setattr(matroid_module, "_normalize", counting)
    s = m.simplify()
    table = _PairTable.of(s)
    seen = (table.loops, table.classes, s.is_simple())
    assert calls == []
    monkeypatch.undo()
    fresh = LinearMatroid(s.matrix, s.labels)
    table = _PairTable.of(fresh)
    assert seen == (table.loops, table.classes, fresh.is_simple())


def test_embedding_identity_and_subsets():
    m = mk4()
    emb = find_embedding(m, m)
    assert emb is not None and verify_embedding(m, m, emb)
    tri = m.restrict({3, 4, 5})
    emb = find_embedding(tri, m)
    assert emb is not None and verify_embedding(tri, m, emb)
    # U24 has a 4-point line; M(K4) does not
    assert find_embedding(u24(), mk4()) is None


def test_embedding_respects_rank_not_just_size():
    # rank-2 uniform into rank-3 uniform-ish: image must stay rank 2
    line3 = m_of([[1, 0, 1], [0, 1, 1]])
    m = mk4()
    emb = find_embedding(line3, m)
    assert emb is not None
    assert m.rank(set(emb.values())) == 2


def test_minor_witness_trivial_and_verify():
    m = mk4()
    w = has_minor(m, m)
    assert w == MinorWitness((), (), tuple((x, x) for x in m.labels))
    assert verify_witness(m, m, w)


def test_minor_search_with_and_without_hint():
    m = mk4()
    tri = m_of([[1, 1, 0], [0, 1, 1]])  # M(K3)
    w = has_minor(m, tri)
    assert w is not None and verify_witness(m, tri, w)
    w2 = has_minor(m, tri, hint={0})
    assert w2 is not None and verify_witness(m, tri, w2)
    assert w2.contracted == (0,)
    assert has_minor(mk4(), u24()) is None


def test_minor_rejects_nonsimple_target():
    with pytest.raises(ValueError):
        has_minor(mk4(), m_of([[1, 2], [0, 0]]))


def test_minor_matches_naive_on_random_instances():
    rng = random.Random(1331)
    targets = [u24(), m_of([[1, 0, 1], [0, 1, 1]])]
    for _ in range(30):
        m = LinearMatroid(random_matrix(rng, 3, rng.randint(2, 4), rng.randint(4, 7)))
        for n in targets:
            got = has_minor(m, n)
            want = naive_has_minor(m, n)
            assert (got is not None) == want
            if got is not None:
                assert verify_witness(m, n, got)


def _lexicographic_has_minor(m, n, hint=None):
    """has_minor as one plain loop: every independent set of the spare rank,
    in lexicographic order, each stage contracted and simplified anew."""
    hint = tuple(sorted(set(hint))) if hint else ()
    base = m.contract(hint).simplify()
    spare_rank = base.rank() - n.rank()
    if spare_rank < 0 or base.size < n.size:
        return None
    for extra in itertools.combinations(sorted(base.labels), spare_rank):
        if base.rank(extra) != len(extra):
            continue
        stage = base.contract(extra).simplify()
        if stage.size < n.size:
            continue
        embedding = find_embedding(n, stage)
        if embedding is not None:
            contracted = tuple(sorted(hint + extra))
            deleted = tuple(sorted(set(m.labels) - set(contracted) - set(embedding.values())))
            return MinorWitness(contracted, deleted, tuple(sorted(embedding.items())))
    return None


def test_flat_walk_matches_lexicographic_loop():
    # the same witness, or None, as trying every independent contraction set:
    # on the table hosts M([I | D | X]) but the rank-7 X = G, on four family
    # hosts, and on seeded GF(3) and GF(5) hosts, some hinted, some non-simple
    tables = [named(f"FORBIDDEN_{key}").matrix for key in "ABCDEFHIJKLMNO"]
    cases = [(LinearMatroid(universal_matrix(x, x.nrows)), None) for x in tables]
    cases += [(named(key).matroid(), None) for key in ("PI4", "SIGMA4", "OMEGA5", "DOWLING4")]
    rng = random.Random(4096)
    for p in (3, 5):
        for i in range(12):
            nrows = rng.randint(3, 4)
            if i % 2:
                m = _with_loops_and_classes(p, rng, nrows, rng.randint(7, 10))
            else:
                m = LinearMatroid(random_matrix(rng, p, nrows, rng.randint(6, 9)))
            cases.append((m, (rng.choice(m.labels),) if i % 3 == 0 else None))
    found = nonsimple = 0
    for m, hint in cases:
        targets = [named(key, m.p).matroid() for key in ("AG23E", "F7MINUS", "U24")]
        nonsimple += not m.is_simple()
        for n in targets:
            got = has_minor(m, n, hint=hint)
            assert got == _lexicographic_has_minor(m, n, hint=hint)
            found += got is not None
    assert len(cases) == 42 and nonsimple >= 8 and found >= 30


def test_minor_witnesses_match_pinned_file():
    # has_minor's witness, unhinted, on each host of perfbench's minor_sweep
    # (the universal matrices M([I | D | X]) but the rank-7 X = G, and five
    # family hosts) against each of its three targets, as pinned in
    # minor_witnesses.txt; "none" where there is no minor
    def text(w):
        if w is None:
            return "none"
        contract, delete = (",".join(map(str, labels)) for labels in (w.contracted, w.deleted))
        mapping = ",".join(f"{a}>{b}" for a, b in w.mapping)
        return f"contract={{{contract}}} delete={{{delete}}} map={mapping}"

    hosts = [(f"FORBIDDEN_{key}", named(f"FORBIDDEN_{key}").matrix) for key in "ABCDEFHIJKLMNO"]
    hosts = [(name, LinearMatroid(universal_matrix(x, x.nrows))) for name, x in hosts]
    hosts += [(name, LinearMatroid(named(name).matrix)) for name in ("PI4", "SIGMA4", "DOWLING4", "PI5", "OMEGA5")]
    got = [f"{name}>{target} {text(has_minor(m, named(target).matroid()))}"
           for name, m in hosts for target in ("AG23E", "F7MINUS", "U24")]
    want = (Path(__file__).parent / "data" / "minor_witnesses.txt").read_text().splitlines()
    assert len(want) == 57 and sum(line.endswith(" none") for line in want) == 5
    assert got == want


def test_minor_matches_naive_on_pg23_restrictions():
    # every 5- and 6-point restriction of PG(2, 3), against U24 and M(K3)
    targets = (u24(), m_of([[1, 0, 1], [0, 1, 1]]))
    negatives = 0
    for k in (5, 6):
        for cols in itertools.combinations(PG23, k):
            m = m_cols(*cols)
            for n in targets:
                got = has_minor(m, n)
                assert (got is not None) == naive_has_minor(m, n)
                negatives += got is None
    assert negatives == 936


def test_flat_walk_yields_the_first_set_of_each_flat():
    # against closures from rank calls: the lexicographically first
    # independent k-set of each rank-k flat, in order, with si(M/T) as its stage
    rng = random.Random(77)
    for p in (3, 5):
        for _ in range(4):
            m = _with_loops_and_classes(p, rng, 4, 12)
            for k in range(m.rank() + 1):
                want, flats = [], set()
                for t in itertools.combinations(sorted(m.labels), k):
                    flat = frozenset(x for x in m.labels if m.rank(t + (x,)) == k)
                    if m.rank(t) == len(t) and flat not in flats:
                        flats.add(flat)
                        want.append(t)
                got = list(matroid_module._flat_stages(m, k))
                assert [t for t, _ in got] == want
                for t, stage in got:
                    simple = m.contract(t).simplify()
                    assert (stage.labels, stage.matrix) == (simple.labels, simple.matrix)
    # PG(3, 3) has 40 points, 130 lines and 40 planes
    pg33 = [v for v in itertools.product(range(3), repeat=4) if any(v) and next(x for x in v if x) == 1]
    pg = LinearMatroid(GFMatrix.from_columns(3, pg33, nrows=4))
    assert [sum(1 for _ in matroid_module._flat_stages(pg, k)) for k in range(5)] == [1, 40, 130, 40, 1]


def test_project_agrees_with_naive_rank():
    # for all points x, y, z of PG(1, 3), PG(2, 3), PG(3, 3), PG(1, 5) and
    # PG(2, 5), and all scalars s, t: the projection of s*y from x is a point
    # (first nonzero entry 1), None exactly when y is x, and for y, z other
    # than x it equals the projection of t*z exactly when x, y and z span a
    # line, rank 2 by naive_rank
    cases = 0
    for r, p in ((2, 3), (3, 3), (4, 3), (2, 5), (3, 5)):
        points = [v for v in itertools.product(range(p), repeat=r) if any(v) and next(c for c in v if c) == 1]
        scaled = {y: [tuple(s * c % p for c in y) for s in range(1, p)] for y in points}
        lines = {}
        for x in points:
            seen = {}
            for y in points:
                images = {matroid_module._project(x, sy, p) for sy in scaled[y]}
                assert len(images) == 1
                (image,) = images
                assert (image is None) == (y == x)
                assert image is None or (len(image) == r - 1 and next(c for c in image if c) == 1)
                seen[y] = image
            for y, z in itertools.product([y for y in points if y != x], repeat=2):
                key = frozenset((x, y, z))
                if key not in lines:
                    lines[key] = naive_rank(GFMatrix.from_columns(p, list(key), nrows=r)) == 2
                assert (seen[y] == seen[z]) == lines[key], (x, y, z)
                cases += 1
    assert cases == sum(n * (n - 1) ** 2 for n in (4, 13, 40, 6, 31))


def _simple_targets(p):
    """U24, M(K3), F7MINUS and AG23E over GF(p)."""
    return [named("U24", p).matroid(), m_of([[1, 0, 1], [0, 1, 1]], p), named("F7MINUS", p).matroid(),
            named("AG23E", p).matroid()]


def _admitted(target, stage):
    """Do the counting rules admit a search of the simple target in stage?"""
    rules = matroid_module._count_rules(_PairTable.of(target), _PairTable.of(stage), target.size == stage.size)
    return rules is not None


def test_flat_walk_screen_yields_only_admitted_stages(monkeypatch):
    # against a target, the walk yields exactly the unscreened walk's stages
    # that the counting rules admit, in the same order, and builds no other
    # matroid; every stage comes with its rank, r(M) - k, and its table
    rng = random.Random(78)
    built: list = []
    real_init = LinearMatroid.__init__

    def counting_init(self, matrix, labels=None):
        built.append(self)
        real_init(self, matrix, labels)

    small = screened = admitted = 0
    for p in (3, 5):
        targets = _simple_targets(p)
        for _ in range(8):
            m = _with_loops_and_classes(p, rng, 4, 12)
            for k in range(m.rank() + 1):
                every = list(matroid_module._flat_stages(m, k))
                for target in targets:
                    want = [(t, s) for t, s in every if s.size >= target.size and _admitted(target, s)]
                    monkeypatch.setattr(LinearMatroid, "__init__", counting_init)
                    built.clear()
                    got = list(matroid_module._flat_stages(m, k, target))
                    monkeypatch.undo()
                    assert [(t, s.labels, s.matrix) for t, s in got] == [(t, s.labels, s.matrix) for t, s in want]
                    assert built == [s for _, s in got]
                    assert all(s._rank == len(row_reduce(s.matrix.rows, s.matrix.ncols, s.p)[1]) for s in built)
                    for (_, s), (_, fresh) in zip(got, want):
                        table, fresh_table = s._pair_table, _PairTable.of(fresh)
                        assert (table.labels, table.classes, table.lines, table.keys) == (
                            fresh_table.labels, fresh_table.classes, fresh_table.lines, fresh_table.keys)
                    small += sum(s.size < target.size for _, s in every)
                    screened += len(every) - len(got)
                    admitted += len(got)
    assert small >= 1000 and screened - small >= 100 and admitted >= 300


def test_count_rules_screen_equals_search():
    # for every stage of has_minor's unscreened walk, at the spare rank, the
    # counting rules reject the stage exactly when the search of the target
    # in it returns None before its first node
    rng = random.Random(79)
    rejected = searched = 0
    for p in (3, 5):
        targets = _simple_targets(p)
        for _ in range(24):
            m = _with_loops_and_classes(p, rng, 4, 16)
            for n in targets:
                if m.rank() < n.rank():
                    continue
                for _, stage in matroid_module._flat_stages(m, m.rank() - n.rank()):
                    search = _RankPreservingSearch(n, stage, False)
                    found = search.run()
                    no_node = found is None and getattr(search, "nodes", 0) == 0
                    assert _admitted(n, stage) != no_node
                    # stages smaller than the target fail the size test first
                    rejected += no_node and stage.size >= n.size
                    searched += not no_node
    assert rejected >= 100 and searched >= 2000


def test_minor_search_leaves_no_cyclic_garbage():
    # the walk, the search and the verifier build no reference cycles, so
    # everything they allocate is freed by reference counting alone
    for host in ("PI5", "DOWLING4"):
        for target in ("AG23E", "F7MINUS"):
            m, n = named(host).matroid(), named(target).matroid()
            gc.collect()
            gc.disable()
            try:
                witness = has_minor(m, n)
                assert (witness is not None) == (target == "F7MINUS")
                assert witness is None or verify_witness(m, n, witness)
                assert gc.collect() == 0, (host, target)
            finally:
                gc.enable()


@pytest.mark.parametrize("host, stages", [("PI5", 76), ("OMEGA5", 61)])
def test_minor_search_tries_each_flat_once(monkeypatch, host, stages):
    # the loop over every independent contraction set made 98 and 87
    # searches; the flat walk screens 76 and 61 stages, one table each
    # besides the target's, and the counting rules reject every one from
    # its points (3,804 and 6,662 _dfs calls without the equal-size and
    # image-count rules), so no stage is searched and the target's pattern
    # is never built; the walk moves points, and no stage is built
    # from them (118 and 116 column contractions when its nodes held
    # columns)
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, counts, _PairTable, "__init__")
    _count_calls(monkeypatch, counts, matroid_module, "find_embedding")
    _count_calls(monkeypatch, counts, matroid_module._Pattern, "of")
    _count_calls(monkeypatch, counts, _RankPreservingSearch, "_dfs")
    _count_calls(monkeypatch, counts, matroid_module, "_from_points")
    callers = _count_insertion_callers(monkeypatch)
    assert has_minor(named(host).matroid(), LinearMatroid(named("AG23E").matrix)) is None
    assert counts["__init__"] == stages + 1
    assert (counts["find_embedding"], counts["of"]) == (0, 0)
    assert counts["_dfs"] == 0
    assert callers["_dfs"] == 0
    assert counts["_from_points"] == 0


@pytest.mark.parametrize("payload, contracted", [("FORBIDDEN_C", 3), ("FORBIDDEN_B", 2)])
def test_minor_search_contracts_only_the_admitted_stage(monkeypatch, payload, contracted):
    # unhinted, the walk finds AG23E in its one admitted stage, and only that
    # stage is built from its points (3 and 2 column contractions, one per
    # label of its T, when the stage was contracted from m's columns; 114 and
    # 106 when the walk's nodes held columns)
    entry = named(payload)
    m, n = universal_matroid(entry.matrix, entry.matrix.nrows), named("AG23E").matroid()
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, counts, matroid_module, "_from_points")
    witness = has_minor(m, n)
    assert counts["_from_points"] == 1
    monkeypatch.undo()
    assert witness is not None and len(witness.contracted) == contracted
    assert verify_witness(m, n, witness)


def _scrambled(m, rng):
    """An isomorphic copy of m, built like perfbench's seeded_copy: columns
    permuted and scaled, rows mixed, labels drawn at random."""
    p, r, n = m.p, m.matrix.nrows, m.size
    order = list(range(n))
    rng.shuffle(order)
    cols = []
    for j in order:
        s = rng.randrange(1, p)
        cols.append([c * s % p for c in m.matrix.columns[j]])
    rows = [[cols[k][i] for k in range(n)] for i in range(r)]
    for _ in range(2 * r):
        a, b = rng.sample(range(r), 2)
        c = rng.randrange(1, p)
        rows[b] = [(x + c * y) % p for x, y in zip(rows[b], rows[a])]
    return LinearMatroid(GFMatrix(p, rows, ncols=n), rng.sample(range(2 * n), n))


def test_prefix_rank_test_prunes_rank5_isomorphism_search(monkeypatch):
    # OMEGA5 has rank 5, so the prefix-rank test runs and rejects candidates
    # that pass every pair check: without it the search visits 819 nodes
    m = named("OMEGA5").matroid()
    copy = _scrambled(m, random.Random(1))
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, counts, _RankPreservingSearch, "_dfs")
    callers = _count_insertion_callers(monkeypatch)
    found = find_isomorphism(m, copy)
    assert found is not None and verify_bijection(m, copy, found)
    assert (counts["_dfs"], callers["_dfs"]) == (687, 766)


def test_pattern_cache_keeps_the_two_orders_apart():
    # one pattern object, searched by find_isomorphism (sorted order) and
    # find_embedding (line-covering order) in either sequence, gives the
    # answers of fresh objects
    def pattern():
        return m_cols(E2, E1, (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 2, 0))

    copy, host = _scrambled(pattern(), random.Random(3)), m_cols(*PG23)
    iso, emb = find_isomorphism(pattern(), copy), find_embedding(pattern(), host)
    assert iso is not None and emb is not None
    m = pattern()
    assert (find_isomorphism(m, copy), find_embedding(m, host)) == (iso, emb)
    m = pattern()
    assert (find_embedding(m, host), find_isomorphism(m, copy)) == (emb, iso)
    # a cache keeping one order for both searches would change both answers
    m = pattern()
    matroid_module._Pattern.of(m, True)
    m._patterns[False] = m._patterns[True]
    assert find_embedding(m, host) != emb
    m = pattern()
    matroid_module._Pattern.of(m, False)
    m._patterns[True] = m._patterns[False]
    assert find_isomorphism(m, copy) != iso


def test_pattern_prefix_ranks_come_from_one_running_basis(monkeypatch):
    # for both order kinds, on matroids with loops and parallel classes, the
    # prefix ranks are the ranks of the order's prefixes
    rng = random.Random(44)
    for p in (3, 5):
        for _ in range(20):
            m = _with_loops_and_classes(p, rng, 5, 12)
            for bijective in (True, False):
                pattern = matroid_module._Pattern(m, bijective)
                assert pattern.prefix_rank == [m.rank(pattern.order[: i + 1]) for i in range(len(pattern.order))]
    # one insertion per point of OMEGA5, made on the first read only
    pattern = matroid_module._Pattern(named("OMEGA5").matroid(), False)
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, counts, matroid_module, "_insert_into_basis")
    assert pattern.prefix_rank == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5]
    assert pattern.prefix_rank is pattern.prefix_rank
    assert counts["_insert_into_basis"] == len(pattern.order) == 18


def test_has_u24_minor():
    u = named("U24").matroid()
    # 4-point line plus a spanning element in rank 3; over GF(5), the
    # 6-point line plus a spanning element
    hosts = [
        (mk4(), False),
        (u24(), True),
        (m_of([[1, 0, 1, 1, 0], [0, 1, 1, -1, 0], [0, 0, 0, 0, 1]]), True),
        (m_of([[1, 0, 1, 1, 1, 1, 0], [0, 1, 1, 2, 3, 4, 0], [0, 0, 0, 0, 0, 0, 1]], p=5), True),
    ]
    for m, want in hosts:
        w = has_minor(m, u)
        assert (w is not None) == want
        if w is not None:
            assert verify_witness(m, u, w)


def test_minor_commutation_randomized():
    rng = random.Random(2718)
    for _ in range(25):
        m = LinearMatroid(random_matrix(rng, 3, 4, 7))
        labels = list(m.labels)
        rng.shuffle(labels)
        t, d = set(labels[:2]), set(labels[2:4])
        a = m.delete(d).contract(t)
        b = m.contract(t).delete(d)
        assert a.labels == b.labels
        for k in range(min(4, a.size) + 1):
            for sub in itertools.combinations(a.labels, k):
                assert a.rank(sub) == b.rank(sub)


def test_every_small_pg23_restriction_embeds_into_pg23():
    # every set of at most five points of PG(2, 3), the empty set included
    pg = m_cols(*PG23)
    subsets = [s for k in range(6) for s in itertools.combinations(PG23, k)]
    assert len(subsets) == 2380
    for cols in subsets:
        m = m_cols(*cols)
        emb = find_embedding(m, pg)
        assert emb is not None and verify_embedding(m, pg, emb)


def test_pg23_subsets_into_arc_host_match_naive():
    # the arc e0, e1, e2, (1,1,1) plus (1,1,0) and (0,1,1): holds two
    # 3-point lines, so both answers occur
    host = m_cols(E0, E1, E2, (1, 1, 1), (1, 1, 0), E12)
    # with k = 6 both have six elements, so an embedding is an isomorphism
    # and the search's equal-size rule decides
    yes = no = 0
    for k in (3, 4, 5, 6):
        for cols in itertools.combinations(PG23, k):
            m = m_cols(*cols)
            emb = find_embedding(m, host)
            assert (emb is not None) == naive_is_restriction(m, host)
            if emb is None:
                no += 1
            else:
                assert verify_embedding(m, host, emb)
                yes += 1
    assert (yes, no) == (1690 + 234, 598 + 1482)


def test_verify_bijection_matches_rank_tables_on_swapped_maps():
    m3, m5 = named("OMEGA5", 3).matroid(), named("OMEGA5", 5).matroid()
    iso = find_isomorphism(m3, m5)
    assert iso is not None
    # subsets of at most rank-many labels decide every rank; the full tables
    # of 2^18 subsets would take tens of seconds
    r = m3.rank()
    t3, t5 = subset_rank_table(m3, r), subset_rank_table(m5, r)
    mappings = [iso]
    for a, b in itertools.combinations(m3.labels, 2):
        mappings.append({**iso, a: iso[b], b: iso[a]})
    verdicts = []
    for mapping in mappings:
        want = all(rank == t5[frozenset(mapping[x] for x in sub)] for sub, rank in t3.items())
        assert verify_bijection(m3, m5, mapping) == want
        verdicts.append(want)
    # no transposition of OMEGA5's image labels is an isomorphism
    assert verdicts == [True] + [False] * 153


def test_verify_bijection_rejects_embedding_into_larger_matroid():
    # F7MINUS has rank 3 on 7 elements, DOWLING3 rank 3 on 9: the map is a
    # rank-preserving embedding but misses two of DOWLING3's elements
    f7, dowling3 = named("F7MINUS").matroid(), named("DOWLING3").matroid()
    emb = find_embedding(f7, dowling3)
    assert emb is not None and verify_embedding(f7, dowling3, emb)
    assert not verify_bijection(f7, dowling3, emb)


def _swaps_of_four():
    """The identity on 0 to 3 and its six transpositions."""
    swaps = [dict(enumerate(range(4)))]
    for i, j in itertools.combinations(range(4), 2):
        swaps.append({**swaps[0], i: j, j: i})
    return swaps


def _linear(a_cols, b_cols, p):
    """``_linear_map_certifies`` on the coordinates of both sides: the
    pivots and nonzero rows of their ``row_reduce``."""
    def coordinates(cols):
        rows, pivots = row_reduce(zip(*cols), len(cols), p)
        return pivots, rows[:len(pivots)]

    return matroid_module._linear_map_certifies(coordinates(a_cols), coordinates(b_cols), p)


def test_walk_matches_rank_tables_on_all_four_column_matroids():
    # every multiset of four columns from the zero vector and PG(2, 3), against
    # the identity and every transposition of its own columns; the seeded path
    # (verify_witness's) contracts one extra column t, taken in turn from the
    # same fourteen vectors, and compares M/t with the images' coordinates
    # modulo t: the rows of the row-reduced [t | cols] after t's pivot.
    # The linear map accepts exactly when the walk does: ternary matroids are
    # uniquely representable over GF(3) (Brylawski and Lucas 1976)
    vectors = [ZERO] + PG23
    multisets = list(itertools.combinations_with_replacement(vectors, 4))
    assert len(multisets) == 2380
    swaps = _swaps_of_four()
    verdicts = {"plain": [], "seeded": []}
    for k, cols in enumerate(multisets):
        m = m_cols(*cols)
        table = subset_rank_table(m)
        t = vectors[k % len(vectors)]
        host = m_cols(*cols, t)
        n = host.contract([4])
        n_cols, n_table = [n.column_of(x) for x in range(4)], subset_rank_table(n)
        minor = _minor_rank_table(host, frozenset({4}), range(4))
        rows, pivots = row_reduce(zip(t, *cols), 5, 3)
        t_rank = sum(c < 1 for c in pivots)
        assert t_rank == host.rank([4])
        reduced = [tuple(row[1 + j] for row in rows[t_rank:len(pivots)]) for j in range(4)]
        for swap in swaps:
            want = all(rank == table[frozenset(swap[x] for x in sub)] for sub, rank in table.items())
            images = [cols[swap[x]] for x in range(4)]
            assert matroid_module._same_independent_sets(cols, 3, images, 3, m.rank()) == want
            assert _linear(cols, images, 3) == want
            verdicts["plain"].append(want)
            want = all(rank == minor[frozenset(swap[x] for x in sub)] for sub, rank in n_table.items())
            images = [reduced[swap[x]] for x in range(4)]
            assert matroid_module._same_independent_sets(n_cols, 3, images, 3, n.rank()) == want
            assert _linear(n_cols, images, 3) == want
            verdicts["seeded"].append(want)
    for got in verdicts.values():
        assert 1000 < sum(got) < len(got) - 1000


def _rank_two_multisets(p):
    """Every multiset of four columns from the zero vector and PG(1, p), as
    a matroid over GF(p) labelled 0 to 3."""
    line = [(0, 0), (0, 1)] + [(1, c) for c in range(p)]
    return [LinearMatroid(GFMatrix.from_columns(p, cols, nrows=2))
            for cols in itertools.combinations_with_replacement(line, 4)]


def test_rank_two_verdicts_match_rank_tables():
    # over GF(5), each multiset against its transpositions: the walk decides
    # every map and the linear map accepts only what the walk accepts, but
    # not all of it, since GF(5) representations need not be projectively
    # equivalent (four points of a line have a cross ratio)
    swaps = _swaps_of_four()
    fallbacks = 0
    for m in _rank_two_multisets(5):
        table, cols = subset_rank_table(m), [m.column_of(x) for x in range(4)]
        for swap in swaps:
            want = all(rank == table[frozenset(swap[x] for x in sub)] for sub, rank in table.items())
            images = [cols[swap[x]] for x in range(4)]
            assert matroid_module._same_independent_sets(cols, 5, images, 5, m.rank()) == want
            linear = _linear(cols, images, 5)
            assert want or not linear
            assert verify_bijection(m, m, swap) == want
            fallbacks += want and not linear
    assert fallbacks > 0
    # every GF(3) multiset against every GF(5) one, under the identity: the
    # class test at the walk's last level decides across fields
    tables5 = [(m, subset_rank_table(m)) for m in _rank_two_multisets(5)]
    verdicts = []
    for m3 in _rank_two_multisets(3):
        table3 = subset_rank_table(m3)
        for m5, table5 in tables5:
            want = table3 == table5
            assert verify_bijection(m3, m5, dict(enumerate(range(4)))) == want
            verdicts.append(want)
    assert len(verdicts) == 70 * 210 and 100 < sum(verdicts) < len(verdicts) - 100


def test_walk_matches_rank_tables_on_identity_extensions_across_fields(monkeypatch):
    # every [I2 | u | v | w | x], every [I3 | u | v | w] and every
    # [I4 | u | v] over GF(3), each against two lifts into GF(5): the signed
    # lift (2 -> -1) and the plain one (2 -> 2).  A lift agrees exactly when
    # every subset of at most r columns has the same rank on both sides,
    # since every rank is the size of a largest independent subset; a subset
    # is I + J, identity columns I and extra columns J, and each set of extra
    # vectors is ranked once, with every I that fits, on both sides
    lifts = {"signed": (0, 1, 4), "plain": (0, 1, 2)}

    @functools.cache
    def agrees(extra, r):
        """name -> do all I + extra of at most r columns have equal ranks
        over GF(3) and in that lift?"""
        identity = [tuple(int(i == j) for i in range(r)) for j in range(r)]
        out = dict.fromkeys(lifts, True)
        for k in range(r - len(extra) + 1):
            for part in itertools.combinations(identity, k):
                cols = list(part) + list(extra)
                rank = len(row_reduce(cols, r, 3)[1])
                for name, lift in lifts.items():
                    if len(row_reduce([[lift[x] for x in v] for v in cols], r, 5)[1]) != rank:
                        out[name] = False
        return out

    negatives: collections.Counter = collections.Counter()
    for r, k in ((2, 4), (3, 3), (4, 2)):
        identity = [tuple(int(i == j) for i in range(r)) for j in range(r)]
        for extra in itertools.product(itertools.product(range(3), repeat=r), repeat=k):
            cols = identity + list(extra)
            tables = [agrees(frozenset(sub), r) for j in range(k + 1) for sub in itertools.combinations(extra, j)]
            for name, lift in lifts.items():
                want = all(table[name] for table in tables)
                images = [tuple(lift[x] for x in v) for v in cols]
                assert matroid_module._same_independent_sets(cols, 3, images, 5, r) == want
                negatives[r, name] += not want
    assert negatives == {(2, "signed"): 0, (2, "plain"): 770, (3, "signed"): 576, (3, "plain"): 3948,
                         (4, "signed"): 0, (4, "plain"): 770}
    # rank 3 compares line keys at the root; rank 4 eliminates at the root
    # and reaches the line keys one level below
    effort = {}
    for r in (3, 4):
        counts: dict[str, int] = {}
        _count_calls(monkeypatch, counts, matroid_module, "_eliminate")
        _count_calls(monkeypatch, counts, matroid_module, "_line_keys")
        cols = [tuple(int(i == j) for i in range(r)) for j in range(r)] + [(1,) * r, (1, 2) + (0,) * (r - 2)]
        assert matroid_module._same_independent_sets(cols, 3, cols, 5, r)
        effort[r] = counts
        monkeypatch.undo()
    assert effort == {3: {"_eliminate": 0, "_line_keys": 10}, 4: {"_eliminate": 12, "_line_keys": 30}}


def test_linear_map_edge_cases(monkeypatch):
    # an empty n, an all-loop n and zero-row matrices are certified by the
    # linear map; it never runs across fields
    host = m_cols(E0, ZERO, E1, ZERO, ZERO)
    empty = LinearMatroid(GFMatrix.from_columns(3, [], nrows=3))
    loops = m_cols(ZERO, ZERO, ZERO)
    zero_rows = LinearMatroid(GFMatrix(3, [], ncols=3))
    assert _linear([], [], 3)
    assert _linear([ZERO] * 3, [(0,)] * 3, 3)
    assert _linear([()] * 3, [()] * 3, 3)
    assert not _linear([ZERO, ZERO], [ZERO, E0], 3)
    assert verify_embedding(empty, host, {})
    assert verify_embedding(loops, host, {0: 1, 1: 3, 2: 4})
    assert not verify_embedding(loops, host, {0: 0, 1: 3, 2: 4})
    assert verify_bijection(zero_rows, loops, {0: 2, 1: 0, 2: 1})
    calls: list = []
    real = matroid_module._linear_map_certifies

    def recording(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(matroid_module, "_linear_map_certifies", recording)
    u3, u5 = u24(), LinearMatroid(GFMatrix(5, [[1, 0, 1, 1], [0, 1, 1, 4]]))
    identity = dict(enumerate(range(4)))
    assert verify_bijection(u3, u5, identity) and calls == []
    assert verify_bijection(u5, u5, identity) and calls == [5]
    assert verify_bijection(empty, LinearMatroid(GFMatrix(5, [[]], ncols=0)), {}) and calls == [5]


def _naive_witness_ok(m, n, w):
    """The witness's minor, by rank identities alone, has n's rank table
    under its mapping."""
    contracted, deleted = set(w.contracted), set(w.deleted)
    mapping = w.as_dict()
    if contracted & deleted or set(mapping) != set(n.labels):
        return False
    keep = tuple(x for x in m.labels if x not in contracted | deleted)
    if sorted(mapping.values()) != sorted(keep):
        return False
    minor = _minor_rank_table(m, frozenset(contracted), keep)
    return all(rank == minor[frozenset(mapping[x] for x in sub)] for sub, rank in subset_rank_table(n).items())


def _mutated_witnesses(w):
    contracted, deleted, mapping = set(w.contracted), set(w.deleted), w.as_dict()

    def make(t, d, f):
        return MinorWitness(tuple(sorted(t)), tuple(sorted(d)), tuple(sorted(f.items())))

    for c, d in itertools.product(contracted, deleted):  # swap a contracted and a deleted label
        yield make(contracted - {c} | {d}, deleted - {d} | {c}, mapping)
    for x, d in itertools.product(mapping, deleted):  # move an image into the deleted set
        yield make(contracted, deleted | {mapping[x]}, mapping)
        yield make(contracted, deleted - {d} | {mapping[x]}, {**mapping, x: d})
    for d in deleted:  # contract one more label, which may make the set dependent
        yield make(contracted | {d}, deleted - {d}, mapping)


@pytest.mark.parametrize("p", [3, 5])
def test_verify_witness_matches_minor_rank_tables_on_mutations(p):
    # GF(5) hosts meet GF(5) targets, U24 and U23, and GF(3)'s U24, whose
    # witnesses only the walk can check
    rng = random.Random(77)
    targets = {
        3: [u24(), m_of([[1, 0, 1], [0, 1, 1]]), named("F7MINUS").matroid()],
        5: [m_of([[1, 0, 1, 1], [0, 1, 1, 2]], 5), m_of([[1, 0, 1], [0, 1, 1]], 5), u24()],
    }[p]
    verdicts = []
    for _ in range(40):
        m = LinearMatroid(random_matrix(rng, p, rng.randint(3, 4), rng.randint(6, 8)))
        for n in targets:
            w = has_minor(m, n)
            if w is None:
                continue
            assert verify_witness(m, n, w) and _naive_witness_ok(m, n, w)
            for bad in _mutated_witnesses(w):
                want = _naive_witness_ok(m, n, bad)
                assert verify_witness(m, n, bad) == want
                verdicts.append(want)
    assert sum(verdicts) > 20 and len(verdicts) - sum(verdicts) > 100


@pytest.mark.parametrize("field, value", [
    # target 0 listed twice, the stray pair first: as_dict keeps the last
    ("mapping", ((0, 1),)),
    ("deleted", (999,)),  # not a label of M
    ("deleted", (3,)),  # repeated
    ("contracted", (10,)),  # repeated
    ("contracted", (999,)),  # not a label of M
    # mapping entries that are not pairs
    ("mapping", ((0,),)),
    ("mapping", ((0, 1, 2),)),
    ("mapping", (5,)),
])
def test_verify_witness_rejects_malformed_witnesses(field, value):
    x = named("FORBIDDEN_A").matrix
    m, n = LinearMatroid(universal_matrix(x, x.nrows)), named("F7MINUS").matroid()
    w = has_minor(m, n, hint=(10,))
    assert w == MinorWitness((10,), (3, 6, 8), ((0, 0), (1, 1), (2, 5), (3, 9), (4, 2), (5, 4), (6, 7)))
    assert verify_witness(m, n, w)
    old = getattr(w, field)
    bad = dataclasses.replace(w, **{field: value + old if field == "mapping" else old + value})
    assert verify_witness(m, n, bad) is False


@pytest.mark.parametrize("mapping", [
    {0: 0, 1: 1, 2: 2},  # missing key
    {0: 0, 1: 1, 2: 2, 3: 3, 4: 4},  # extra key
    {0: 0, 1: 1, 2: 2, 3: 2},  # repeated image
    {0: 0, 1: 1, 2: 2, 3: 9},  # image outside n
    {0: 0, 1: 1, 2: 2, "3": 3},  # non-int key
])
def test_verify_embedding_rejects_malformed_mappings(mapping):
    m, n = u24(), m_of([[1, 0, 1, 1, 0], [0, 1, 1, -1, 0], [0, 0, 0, 0, 1]])
    assert verify_embedding(m, n, {0: 0, 1: 1, 2: 2, 3: 3})
    assert verify_embedding(m, n, mapping) is False
    assert verify_embedding(LinearMatroid(GFMatrix(3, [[], []], ncols=0)), n, {}) is True


def test_verify_embedding_matches_subset_ranks_with_loops_and_classes():
    rng = random.Random(31)
    verdicts = []
    for _ in range(300):
        p = rng.choice((3, 5))
        n = _with_loops_and_classes(p, rng, nrows=3, ncols=rng.randint(4, 7))
        picked = rng.sample(n.labels, rng.randint(1, n.size))
        if rng.random() < 0.5:
            # a true restriction, rescaled
            source = [[(rng.randint(1, p - 1) * x) % p for x in n.column_of(j)] for j in picked]
        else:
            source = [[rng.randrange(p) for _ in range(3)] for _ in picked]
        m = LinearMatroid(GFMatrix.from_columns(p, source, nrows=3))
        if rng.random() < 0.3:
            rng.shuffle(picked)
        mapping = dict(zip(m.labels, picked))
        tm, tn = subset_rank_table(m), subset_rank_table(n)
        want = all(rank == tn[frozenset(mapping[x] for x in sub)] for sub, rank in tm.items())
        assert verify_embedding(m, n, mapping) == want
        verdicts.append(want)
    assert sum(verdicts) > 50 and len(verdicts) - sum(verdicts) > 50


def _count_calls(monkeypatch, counts, owner, name):
    """Count the calls of owner.name in counts[name]."""
    real = getattr(owner, name)
    counts[name] = 0

    def wrapper(*args):
        counts[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)


def _count_insertion_callers(monkeypatch) -> collections.Counter:
    """Count the _insert_into_basis calls by the name of the calling function."""
    callers: collections.Counter = collections.Counter()
    real = matroid_module._insert_into_basis

    def wrapper(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real(*args)

    monkeypatch.setattr(matroid_module, "_insert_into_basis", wrapper)
    return callers


def _search_effort(monkeypatch, m, n):
    """find_embedding(m, n), its counts of _dfs, _consistent and
    _eliminate calls, and its _insert_into_basis calls by caller."""
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, counts, _RankPreservingSearch, "_dfs")
    _count_calls(monkeypatch, counts, _RankPreservingSearch, "_consistent")
    _count_calls(monkeypatch, counts, matroid_module, "_eliminate")
    callers = _count_insertion_callers(monkeypatch)
    found = find_embedding(m, n)
    monkeypatch.undo()
    return found, counts, callers


def test_negative_omega5_dowling5_search_effort(monkeypatch):
    # the 20 depth-0 candidates form one orbit of DOWLING5's monomial
    # automorphisms, so one refutation stands for all 20, and below it each
    # node past 125 nodes of failed children skips the candidates that an
    # automorphism fixing its placed images moves onto a tried one (4,475
    # _dfs and 4,882 _consistent calls when only the root pruned, 89,481 and
    # 97,640 without the orbit pruning)
    found, counts, callers = _search_effort(monkeypatch, named("OMEGA5").matroid(), named("DOWLING5").matroid())
    assert found is None
    assert (counts["_dfs"], counts["_consistent"]) == (440, 493)
    # one shared basis, no insertion at anchored depths; OMEGA5's 18 prefix
    # ranks take one insertion each (153 when each prefix was ranked
    # afresh), and the full ranks take none (43 more when they went through
    # the insertion basis too; 2,036 and 2,054 when only the root pruned)
    assert (callers["_dfs"], sum(callers.values())) == (193, 211)
    # the orbit tables each depth reads: the root table at depth 0; below
    # it the root table, and a stabilizer's when two of the node's
    # candidates share a root orbit
    search = _RankPreservingSearch(named("OMEGA5").matroid(), named("DOWLING5").matroid(), bijective=False)
    assert search.run() is None and search.nodes == 440
    assert search.tables == [1, 2, 2, 4] + [0] * 14


@pytest.mark.parametrize("source, counts", [("PI4", (200, 223)), ("SIGMA4", (76, 79))])
def test_negative_dowling4_search_effort(monkeypatch, source, counts):
    # 635/714 and 585/616 _dfs/_consistent calls when only the root pruned,
    # 7,609/8,568 and 3,505/3,696 without the orbit pruning
    found, effort, _ = _search_effort(monkeypatch, named(source).matroid(), named("DOWLING4").matroid())
    assert found is None
    assert (effort["_dfs"], effort["_consistent"]) == counts
    search = _RankPreservingSearch(named(source).matroid(), named("DOWLING4").matroid(), bijective=False)
    assert search.run() is None and search.nodes == counts[0]
    tables = {"PI4": [1, 2, 2, 2], "SIGMA4": [1, 2]}[source]
    assert search.tables == tables + [0] * (13 - len(tables))


def test_verifier_elimination_effort(monkeypatch):
    # the walk eliminates once per side for each independent prefix of size
    # 1 to r - 3, 18 + 153 here; each node with three elements left to place
    # (a prefix of size r - 3) settles both of the last two levels by line
    # keys, so no prefix of size r - 2 or r - 1 is visited (1,920
    # _eliminate calls for the OMEGA5 bijection when the prefixes of size
    # r - 2 eliminated too, 7,032 when those of size r - 1 did as well; the
    # one-basis-per-side walk made 21,564 and 126 _insert_into_basis calls
    # here)
    m3, m5 = named("OMEGA5", 3).matroid(), named("OMEGA5", 5).matroid()
    iso = find_isomorphism(m3, m5)
    f7, dowling3 = named("F7MINUS").matroid(), named("DOWLING3").matroid()
    emb = find_embedding(f7, dowling3)
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, counts, matroid_module, "_eliminate")
    # across fields the walk decides
    assert verify_bijection(m3, m5, iso)
    assert counts["_eliminate"] == 342
    counts["_eliminate"] = 0
    # within one field the linear map certifies, with no walk
    assert verify_embedding(f7, dowling3, emb)
    assert counts["_eliminate"] == 0
    # the walk on the same pair, of rank 3, compares line keys at its root
    # and eliminates nothing (14 for the 7 one-element prefixes on two sides
    # when the root eliminated, 56 when the 21 two-element prefixes
    # eliminated too)
    f7_cols = [f7.column_of(x) for x in f7.labels]
    images = [dowling3.column_of(emb[x]) for x in f7.labels]
    assert matroid_module._same_independent_sets(f7_cols, 3, images, 3, 3)
    assert counts["_eliminate"] == 0
    monkeypatch.undo()
    # the search keeps its own basis: the negative OMEGA5 -> DOWLING5 search
    # reaches no leaf, so it makes no elimination (2,036 and 2,054
    # insertions when only the root pruned by the host's orbits)
    found, effort, callers = _search_effort(monkeypatch, named("OMEGA5").matroid(), named("DOWLING5").matroid())
    assert found is None
    assert (callers["_dfs"], sum(callers.values()), effort["_eliminate"]) == (193, 211, 0)


def test_symmetry_pruning_changes_no_answer(monkeypatch):
    # every 0-5-point subset of PG(2, 3) into PG(2, 3) and into DOWLING3, the
    # 3-5-point subsets into the arc host (598 negatives), and has_minor(., AG23E)
    # on the table hosts M([I | D | X]) but the rank-7 X = G, once with the
    # host's orbits and once with none; and non-simple hosts, whose orbit
    # maps must keep class sizes
    arc = m_cols(E0, E1, E2, (1, 1, 1), (1, 1, 0), E12)
    hosts = [(m_cols(*PG23), range(6)), (named("DOWLING3").matroid(), range(6)), (arc, (3, 4, 5))]
    pairs = [
        (m_cols(*cols), host) for host, sizes in hosts for k in sizes for cols in itertools.combinations(PG23, k)
    ]
    tables = [named(f"FORBIDDEN_{key}").matrix for key in "ABCDEFHIJKLMNO"]
    tables = [LinearMatroid(universal_matrix(x, x.nrows)) for x in tables]
    ag = named("AG23E").matroid()
    real_minima, real_embedding = matroid_module._orbit_minima, matroid_module.find_embedding
    pruning: list = []  # searches that pruned with the host's orbits
    built: list = []  # hosts whose orbits were built, not read from the cache
    pruned_by_outcome = {"no": 0, "yes": 0}

    def counting_minima(n, fixed=()):
        fixed = tuple(sorted(fixed))
        pruning.append(n)
        if fixed not in n._orbits:
            built.append(n)
        return real_minima(n, fixed)

    def counting_embedding(m, n):
        before = len(pruning)
        found = real_embedding(m, n)
        if len(pruning) > before:
            pruned_by_outcome["no" if found is None else "yes"] += 1
        return found

    monkeypatch.setattr(matroid_module, "_orbit_minima", counting_minima)
    monkeypatch.setattr(matroid_module, "find_embedding", counting_embedding)
    pruned = [matroid_module.find_embedding(m, n) for m, n in pairs]
    pruned_minors = [has_minor(t, ag) for t in tables]
    # DOWLING3 plus 2h, labelled 9, for each of its columns h, and its
    # restrictions to h, 9 and 3-6 other points (1,890 positives): a map
    # that moves the class {h, 9} onto a single point would skip the only
    # candidates that take the class
    doubled = []
    for h, host in _doubled_dowling3_hosts():
        others = [x for x in host.labels if x not in (h, 9)]
        doubled += [(host.restrict({h, 9, *s}), host) for k in range(3, 7) for s in itertools.combinations(others, k)]
    searches, builds = len(pruning), len(built)
    for m, n in doubled:
        found = matroid_module.find_embedding(m, n)
        assert found is not None and verify_embedding(m, n, found)
    # 602 table reads build 29 tables on the 9 hosts, each once per set of
    # fixed images (123 reads and 9 builds when only the root read one)
    assert len(doubled) == 1890 and len(pruning) - searches == 602 and len(built) - builds == 29
    monkeypatch.setattr(matroid_module, "_orbit_minima", lambda n, fixed=(): {})
    assert [real_embedding(m, n) for m, n in pairs] == pruned
    assert [has_minor(t, ag) for t in tables] == pruned_minors
    # the pruning ran: in hundreds of negatives, and in positives found after
    # a node's failed subtrees (has_minor stages; 468 and 127 when only the
    # root read the host's orbits)
    assert pruned_by_outcome == {"no": 468, "yes": 201}


def _symmetric_pg33_subset(rng, k):
    """At most k points of PG(3, 3), a union of orbits of one random
    monomial map, so that its matrix has monomial automorphisms."""
    perm, scalars = rng.sample(range(4), 4), [rng.randrange(1, 3) for _ in range(4)]

    def move(v):
        w = [scalars[i] * v[perm[i]] % 3 for i in range(4)]
        lead = next(x for x in w if x)
        return tuple(x * lead % 3 for x in w)

    points = []
    for v in rng.sample(PG33, len(PG33)):
        orbit = [v]
        while move(orbit[-1]) != v:
            orbit.append(move(orbit[-1]))
        if v not in points and len(points) + len(orbit) <= k:
            points += orbit
    return points


def test_isomorphism_symmetry_pruning_changes_no_witness(monkeypatch):
    # isomorphism searches from scrambled copies of 7-13-point subsets of
    # PG(3, 3) into a subset in its own coordinates, where its monomial
    # automorphisms show: the copy of that subset, and the copy of another
    # subset of its size.  The subsets of 7 and 8 points are random, the
    # larger ones unions of orbits of a monomial map.  Every search that
    # reads the host's orbits gives the witness of a search with none,
    # and on <= 8 points the naive oracle's.  Rooting each orbit at its
    # largest label changes 12 of these witnesses.
    rng = random.Random(5)
    pairs = []
    for k in range(7, 14):
        for _ in range(24 if k <= 8 else 16):
            cols = [rng.sample(PG33, k) if k <= 8 else _symmetric_pg33_subset(rng, k) for _ in range(2)]
            a, b = (LinearMatroid(GFMatrix.from_columns(3, c, nrows=4)) for c in cols)
            if a.size == b.size == k:
                pairs += [(_scrambled(a, rng), a), (_scrambled(b, rng), a)]
    builds: list = []
    real = matroid_module._orbit_minima

    def counting(n, fixed=()):
        builds.append(n)
        return real(n, fixed)

    monkeypatch.setattr(matroid_module, "_orbit_minima", counting)
    pruned = []
    for m, n in pairs:
        before = len(builds)
        found = find_isomorphism(m, n)
        if len(builds) > before:
            pruned.append((m, n, found))
    monkeypatch.setattr(matroid_module, "_orbit_minima", lambda n, fixed=(): {})
    for m, n, found in pruned:
        assert find_isomorphism(m, n) == found
        if m.size <= 8:
            assert found == naive_find_isomorphism(m, n)
    outcomes = collections.Counter((m.size <= 8, found is not None) for m, _, found in pruned)
    assert len(pairs) == 214
    # {(True, True): 1, (True, False): 2, (False, True): 8, (False, False): 2}
    # when only the root read the host's orbits
    assert outcomes == {(True, True): 17, (True, False): 7, (False, True): 27, (False, False): 2}


def test_pruning_below_the_root_changes_no_answer(monkeypatch):
    # embeddings of scrambled 8-point restrictions of DOWLING3 into it; of
    # scrambled restrictions of DOWLING4 and seeded subsets of PG(3, 3), of
    # 9-12 points into DOWLING4 and of 6 and 7 points into seeded 9-point
    # restrictions of it; and isomorphisms of scrambled copies of DOWLING4
    # less a point onto DOWLING4 less a point.  Every search that reads an
    # orbit table gives the answer of a search that reads none, and on <= 8
    # points the naive oracle's; a search that reads none is that search.
    rng = random.Random(30)
    dowling3, dowling4 = named("DOWLING3").matroid(), named("DOWLING4").matroid()

    def patterns(k):
        return [_scrambled(dowling4.restrict(rng.sample(dowling4.labels, k)), rng),
                LinearMatroid(GFMatrix.from_columns(3, rng.sample(PG33, k), nrows=4))]

    cases = [(_scrambled(dowling3.delete([x]), rng), dowling3, False) for x in rng.sample(dowling3.labels, 4)]
    cases += [(m, dowling4, False) for k in range(9, 13) for _ in range(3) for m in patterns(k)]
    for _ in range(6):
        host = dowling4.restrict(rng.sample(dowling4.labels, 9))
        cases += [(m, host, False) for k in (6, 7) for m in patterns(k)]
    cases += [(_scrambled(dowling4.delete([x]), rng), dowling4.delete([rng.choice(dowling4.labels)]), True)
              for x in dowling4.labels]
    read = []
    for m, n, bijective in cases:
        search = _RankPreservingSearch(m, n, bijective)
        found = search.run()
        if sum(search.tables):
            read.append((m, n, bijective, found))
    monkeypatch.setattr(matroid_module, "_orbit_minima", lambda n, fixed=(): {})
    for m, n, bijective, found in read:
        assert _RankPreservingSearch(m, n, bijective).run() == found
        if m.size <= 8:
            assert not bijective and naive_is_restriction(m, n) == (found is not None)
    outcomes = collections.Counter((n.size, bijective, found is not None) for _, n, bijective, found in read)
    assert len(cases) == 68
    assert outcomes == {(9, False, True): 10, (9, False, False): 7, (16, False, True): 11, (16, False, False): 7,
                        (15, True, True): 1}


def _partition(labels, least):
    """The orbits of labels under least (label -> least label of its orbit,
    for the labels that are not), each sorted, ordered by least label."""
    orbits: dict[int, list[int]] = {}
    for x in sorted(labels):
        orbits.setdefault(least.get(x, x), []).append(x)
    return list(orbits.values())


def _certified_build(monkeypatch, n):
    """_orbit_minima(n), the number of maps its build enumerates, and the
    (mapping, verdict) of each verify_bijection call it makes."""
    calls: list = []
    maps = 0
    real_verify, real_scalings = matroid_module.verify_bijection, matroid_module._row_scalings

    def recording(a, b, mapping):
        verdict = real_verify(a, b, mapping)
        calls.append((dict(mapping), verdict))
        return verdict

    def counting(t, *args):
        nonlocal maps
        for found in real_scalings(t, *args):
            maps += t == 0
            yield found

    monkeypatch.setattr(matroid_module, "verify_bijection", recording)
    monkeypatch.setattr(matroid_module, "_row_scalings", counting)
    least = matroid_module._orbit_minima(n)
    monkeypatch.undo()
    return least, maps, calls


def test_monomial_generators_are_certified_automorphisms(monkeypatch):
    # the monomial groups have 24, 24 and 192 elements, from 8, 8 and 30
    # generators (a build also enumerates the identity); a build certifies
    # only the maps that merge orbits, each passes, and the certified maps
    # alone give the whole partition.  A build stops once the orbits are the
    # key classes: DOWLING3 and DOWLING4 enumerate 6 and 14 maps (9 and 31
    # when every generator was enumerated); PG(2, 3)'s orbits never reach its
    # one key class, so it enumerates all 9
    hosts = (
        (m_cols(*PG23), 9, 4, [[0, 1, 4], [2, 3, 5, 6, 7, 10], [8, 9, 11, 12]]),
        (named("DOWLING3").matroid(), 6, 4, [[0, 1, 2], [3, 4, 5, 6, 7, 8]]),
        (named("DOWLING4").matroid(), 14, 6, [list(range(4)), list(range(4, 16))]),
    )
    for n, maps, merges, orbits in hosts:
        least, enumerated, calls = _certified_build(monkeypatch, n)
        assert matroid_module._orbit_minima(n) is least
        assert enumerated == maps
        assert len(calls) == merges and all(verdict for _, verdict in calls)
        assert _partition(n.labels, least) == orbits
        root = {x: x for x in n.labels}  # label -> least label of its orbit so far
        for mapping, _ in calls:
            for x, y in mapping.items():
                a, b = root[x], root[y]
                root = {z: min(a, b) if r in (a, b) else r for z, r in root.items()}
        assert _partition(n.labels, root) == orbits


def test_dowling5_orbits_are_joints_and_the_rest(monkeypatch):
    # 8 of the 134 generators merge orbits, and only they are certified; the
    # build stops at the eighth, when the orbits are the key classes, after
    # 40 maps (135 when every generator was enumerated)
    n = named("DOWLING5").matroid()
    least, enumerated, calls = _certified_build(monkeypatch, n)
    assert enumerated == 40 and len(calls) == 8 and all(verdict for _, verdict in calls)
    # the joints e_i are the first five columns
    assert _partition(n.labels, least) == [list(range(5)), list(range(5, 25))]


def _doubled_dowling3_hosts():
    """(h, DOWLING3 plus 2h labelled 9) for each label h of DOWLING3."""
    dowling3 = named("DOWLING3").matroid()
    cols = list(dowling3.matrix.columns)
    for h in dowling3.labels:
        twice = cols + [[2 * c % 3 for c in cols[h]]]
        yield h, LinearMatroid(GFMatrix.from_columns(3, twice, nrows=3), dowling3.labels + (9,))


def _orbit_hosts():
    """(name, field, host): every fixed catalog id and every family member
    of rank at most 5, over GF(3) and then GF(5), then the doubled DOWLING3
    hosts."""
    for p in (3, 5):
        for id_ in sorted(_fixed_entries(p)):
            yield id_, p, named(id_, p).matroid()
        for head in ("MK", "DOWLING", "PI", "SIGMA", "OMEGA", "T1_"):
            for k in range(7):
                try:
                    m = named(f"{head}{k}", p).matroid()
                except KeyError:
                    continue
                if m.rank() <= 5:
                    yield f"{head}{k}", p, m
    for h, host in _doubled_dowling3_hosts():
        yield f"DOWLING3+{h}", 3, host


def test_orbit_minima_match_pinned_partitions():
    # orbit_minima.txt holds each host's orbits of two or more points of
    # si(n), or "-" for none, as the build that certified every generator
    # with a monomial certificate gave them
    got = []
    for name, p, n in _orbit_hosts():
        orbits = [o for o in _partition(n.simplify().labels, matroid_module._orbit_minima(n)) if len(o) > 1]
        got.append(f"{name} {p} {' '.join(','.join(map(str, o)) for o in orbits) or '-'}")
    want = (Path(__file__).parent / "data" / "orbit_minima.txt").read_text().splitlines()
    assert len(want) == 115
    assert got == want


@pytest.mark.parametrize("name, p", [("DOWLING3", 3), ("DOWLING4", 3), ("DOWLING4", 5), ("MK5", 3), ("PG23", 3)])
def test_stabilizer_orbits_match_brute_force(name, p):
    # the orbits under every monomial automorphism that fixes each label of
    # fixed, found by trying every row permutation with every row scalars,
    # for no label, each single label and 12 seeded pairs of labels
    n = m_cols(*PG23) if name == "PG23" else named(name, p).matroid()
    maps = naive_monomial_automorphisms(n.matrix, n.labels)
    rng = random.Random(f"{name}{p}")
    fixed_sets = [()] + [(x,) for x in n.labels] + [tuple(rng.sample(n.labels, 2)) for _ in range(12)]
    for fixed in fixed_sets:
        root = {x: x for x in n.labels}  # label -> least label of its orbit
        for g in maps:
            if all(g[x] == x for x in fixed):
                for x, y in g.items():
                    a, b = sorted((root[x], root[y]))
                    root = {z: a if c == b else c for z, c in root.items()}
        assert _partition(n.labels, matroid_module._orbit_minima(n, fixed)) == _partition(n.labels, root), fixed


def test_verifiers_never_read_search_structures():
    # the independent re-checks name none of the search's structures, in
    # their own code or in any function nested in it
    search_names = {"_PairTable", "_RankPreservingSearch", "_monomial_generators", "_orbit_minima", "_certified",
                    "_point_map", "_pair_table", "_generators", "_points", "_flat_stages", "_contract_one",
                    "contract", "_Pattern", "_patterns", "_contract_points", "_walk_flats", "_line_rest",
                    "_row_permutations", "_row_scalings", "rank", "_rank", "prefix_rank", "_normalize",
                    "_orbits", "_count_rules", "_project", "_from_points", "_least_points"}

    def names(code):
        out = set(code.co_names)
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                out |= names(const)
        return out

    verifiers = (verify_bijection, verify_embedding, verify_witness, matroid_module._same_independent_sets,
                 matroid_module._same_below, matroid_module._line_keys,
                 matroid_module._linear_map_certifies,
                 row_reduce, matroid_module._eliminate, matroid_module._insert_into_basis)
    for fn in verifiers:
        assert names(fn.__code__).isdisjoint(search_names), fn.__name__


def test_certificate_rejects_swapped_images(monkeypatch):
    # after each map of the identity row permutation, the build is offered
    # that map with the images of two labels swapped, for every pair; each
    # swapped map that would merge orbits reaches verify_bijection, which
    # rejects it, so no swapped map joins an orbit and the partition stays
    want = _partition(range(16), matroid_module._orbit_minima(named("DOWLING4").matroid()))
    real = matroid_module._row_scalings
    swapped: set = set()

    def swapping(t, *args):
        for images in real(t, *args):
            yield images
            if t == 0:
                for a, b in itertools.combinations(range(len(images)), 2):
                    bad = list(images)
                    bad[a], bad[b] = bad[b], bad[a]
                    swapped.add(tuple(bad))
                    yield tuple(bad)

    monkeypatch.setattr(matroid_module, "_row_scalings", swapping)
    n = named("DOWLING4").matroid()
    least, _, calls = _certified_build(monkeypatch, n)
    verdicts = [verdict for mapping, verdict in calls if tuple(mapping[x] for x in n.labels) in swapped]
    # 8 maps of the identity permutation, 120 pairs each
    assert len(swapped) == 960 and len(verdicts) == 923 and not any(verdicts)
    assert _partition(n.labels, least) == want


def test_nonsimple_loop_test_prunes_search(monkeypatch):
    # m = [e1, 2e1, e2] and n = [e1, 0, e2] over GF(3): placing n's loop on
    # m's second parallel element would pass both the pair check and the
    # prefix rank; the loop counts (0 and 1) decide before any search node
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, counts, _RankPreservingSearch, "_dfs")
    m = m_of([[1, 2, 0], [0, 0, 1]])
    n = m_of([[1, 0, 0], [0, 0, 1]])
    assert find_isomorphism(m, n) is None
    assert counts["_dfs"] == 0


def test_equal_size_key_test_prunes_embedding_search(monkeypatch):
    # m = [e0, e1, e2, (1,1,1)] has no 3-point line, n = [e0, e1, e2, e12]
    # has one: equal sizes, ranks and loop counts, but their key multisets
    # differ, so no bijection preserves rank; every point of m dominates
    # every point of n, so without the equal-size rule the search visits
    # 32 nodes
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, counts, _RankPreservingSearch, "_dfs")
    assert find_embedding(m_cols(E0, E1, E2, (1, 1, 1)), m_cols(E0, E1, E2, E12)) is None
    assert counts["_dfs"] == 0


def test_image_count_prunes_embedding_search(monkeypatch):
    # each of AG23E's 8 points lies on three 3-point lines; in this 9-point
    # host, the line x = 0 plus five points, only 6 points lie on three
    # lines of 3 or more, so the 8 points have too few admissible images
    # between them: without the image count the search visits 181 nodes
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, counts, _RankPreservingSearch, "_dfs")
    host = m_cols(E2, E1, E12, (0, 1, 2), E0, (1, 0, 1), (1, 1, 1), (1, 1, 2), (1, 2, 1))
    assert find_embedding(named("AG23E").matroid(), host) is None
    assert counts["_dfs"] == 0
    assert not naive_is_restriction(named("AG23E").matroid(), host)
