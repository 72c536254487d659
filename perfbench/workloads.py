"""Workload definitions: seeded input generation, one op, and its checks.

Every op carries plain integer data only.  The op builds its GFMatrix and
LinearMatroid values from that data inside the timed region, so each pass
starts from cold rank memos and does the same work as the pass before it.
The program is always reached through module attributes
(``matroid.find_isomorphism``, ``cli.main``, ...), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass

from matroidlab import catalog, cli, gf, matroid, templates

WORKLOADS = ("verify_all", "iso_certify", "minor_sweep", "classify_sweep")
DEFAULT_SEED = 1

# Size bound on every generated input, checked when the input is made.
MAX_RANK = 6
MAX_ELEMENTS = 30
EXCLUDED_SOURCES = ("DOWLING5",)
SIZE_BOUND_REASON = ("a seed must not pull in a case that runs for minutes: an 11-point"
                     " restriction of DOWLING5 ran for more than 250 s")

ISO_SOURCES = ("PI4", "SIGMA4", "PI5", "OMEGA5", "DOWLING4", "MK6", "T1_4")
FIELDS = (3, 5)
# FORBIDDEN_G is left out: M([I|D|G]) has rank 7, above MAX_RANK.
MINOR_FORBIDDEN = tuple(k for k in catalog.FORBIDDEN if k != "G")
MINOR_NAMED = ("PI4", "SIGMA4", "DOWLING4", "PI5", "OMEGA5")
MINOR_TARGETS = ("AG23E", "F7MINUS", "U24")
MINOR_DELETE_MAX = 3
CLASSIFY_OPS = 600
CLASSIFY_SHAPES = tuple((r, c) for r in range(3, 7) for c in (3, 4))
PLANTED = (("T1", catalog.T1, templates.PI), ("T2", catalog.T2, templates.SIGMA),
           ("T3", catalog.T3, templates.OMEGA))


@dataclass(frozen=True)
class Op:
    """One unit of work.  ``expect`` is the outcome the op must give:
    "yes"/"no" for a minor search, a verdict for classification, "" when
    any verified answer is accepted (an isomorphism must always be found)."""

    kind: str
    name: str
    data: tuple
    expect: str = ""


class OpFailure(Exception):
    """The program gave a wrong, unverified or malformed answer."""


def check_size(name: str, nrows: int, ncols: int) -> None:
    """Reject an input above the size bound before it reaches a run."""
    if nrows > MAX_RANK or ncols > MAX_ELEMENTS:
        raise ValueError(f"{name}: {nrows}x{ncols} input exceeds rank {MAX_RANK}"
                         f" / {MAX_ELEMENTS} elements")


# -- input generation -------------------------------------------------------------


def _rows(m: gf.GFMatrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(r) for r in m.rows)


def seeded_copy(rows, p: int, rng: random.Random):
    """Relabel, permute and scale the columns, then mix the rows: an
    isomorphic matroid with scrambled labels.  Returns (rows, labels)."""
    r, n = len(rows), len(rows[0])
    order = list(range(n))
    rng.shuffle(order)
    cols = []
    for j in order:
        s = rng.randrange(1, p)
        cols.append([rows[i][j] * s % p for i in range(r)])
    work = [[cols[k][i] for k in range(n)] for i in range(r)]
    for _ in range(2 * r):
        a, b = rng.sample(range(r), 2)
        c = rng.randrange(1, p)
        work[b] = [(x + c * y) % p for x, y in zip(work[b], work[a])]
    labels = tuple(rng.sample(range(2 * MAX_ELEMENTS), n))
    return tuple(tuple(row) for row in work), labels


def _iso_ops(rng: random.Random) -> list[Op]:
    ops = []
    for src in ISO_SOURCES:
        if src in EXCLUDED_SOURCES:
            raise ValueError(f"{src} is excluded as an isomorphism source")
        for p in FIELDS:
            entry = catalog.named(src, p)
            check_size(src, entry.matrix.nrows, entry.matrix.ncols)
            rows = _rows(entry.matrix)
            copy, labels = seeded_copy(rows, p, rng)
            ops.append(Op("iso", f"{src}@GF{p}", (p, rows, entry.matroid().labels, copy, labels)))
    return ops


def minor_hosts() -> dict[str, tuple[tuple[int, ...], ...]]:
    """Host matrices of minor_sweep, over GF(3), labelled 0..n-1."""
    hosts = {}
    for key in MINOR_FORBIDDEN:
        mat = catalog.named(f"FORBIDDEN_{key}").matrix
        hosts[f"FORBIDDEN_{key}"] = _rows(catalog.universal_matrix(mat, mat.nrows))
    for name in MINOR_NAMED:
        hosts[name] = _rows(catalog.named(name).matrix)
    for name, rows in hosts.items():
        check_size(name, len(rows), len(rows[0]))
    return hosts


def expected_minor(host: str, target: str) -> str:
    """Outcome fixed by the paper's claims: every FORBIDDEN_X host has an
    AG23E minor and the Pi, Sigma, Omega and Dowling hosts have none.  Every
    host has F7MINUS and U24 minors; each was certified by verify_witness
    when the golden answers were made."""
    if target == "AG23E":
        return "yes" if host.startswith("FORBIDDEN_") else "no"
    return "yes"


def _minor_ops(rng: random.Random, deletable: dict[str, list[int]]) -> list[Op]:
    targets = {t: (_rows(catalog.named(t).matrix), catalog.named(t).matroid().labels)
               for t in MINOR_TARGETS}
    ops = []
    for host, rows in minor_hosts().items():
        for target in MINOR_TARGETS:
            t_rows, t_labels = targets[target]
            expect = expected_minor(host, target)
            ops.append(Op("minor", f"{host}>{target}", (rows, tuple(range(len(rows[0]))),
                                                        t_rows, t_labels), expect))
            # A yes stays a yes when only elements that the full host's
            # witness deletes are removed; a no stays a no under any deletion.
            pool = deletable[f"{host}>{target}"] if expect == "yes" else range(len(rows[0]))
            drop = set(rng.sample(sorted(pool), min(len(pool), rng.randint(1, MINOR_DELETE_MAX))))
            keep = tuple(j for j in range(len(rows[0])) if j not in drop)
            sub = tuple(tuple(row[j] for j in keep) for row in rows)
            ops.append(Op("minor", f"{host}-{len(drop)}>{target}", (sub, keep, t_rows, t_labels),
                          expect))
    return ops


def _planted_payload(rows, ncols: int, rng: random.Random):
    """Permute the rows and columns of a T matrix, scale columns by -1, and
    pad with graphic columns up to ncols.  The classifier drops graphic
    columns, so the verdict is the T matrix's own.  Zero rows are not
    added: they enlarge M([I|D|P]) and can change the verdict."""
    nr = len(rows)
    body = [list(r) for r in rows]
    rng.shuffle(body)
    cols = [[body[i][j] for i in range(nr)] for j in range(len(rows[0]))]
    while len(cols) < ncols:
        a, b = rng.sample(range(nr), 2)
        col = [0] * nr
        col[a], col[b] = 1, -1
        cols.append(col)
    rng.shuffle(cols)
    cols = [[x * s for x in c] for c in cols for s in (rng.choice((1, -1)),)]
    return tuple(tuple(cols[j][i] % 3 for j in range(ncols)) for i in range(nr))


def _classify_ops(rng: random.Random) -> list[Op]:
    ops = []
    for i in range(CLASSIFY_OPS):
        if i % 2:
            name, rows, verdict = PLANTED[(i // 2) % len(PLANTED)]
            payload = _planted_payload(rows, rng.choice((3, 4)), rng)
            ops.append(Op("classify", f"planted-{name}-{len(rows)}x{len(payload[0])}", (payload,),
                          verdict))
        else:
            nr, nc = rng.choice(CLASSIFY_SHAPES)
            payload = tuple(tuple(rng.randrange(3) for _ in range(nc)) for _ in range(nr))
            ops.append(Op("classify", f"random-{nr}x{nc}", (payload,)))
        nr, nc = len(payload), len(payload[0])
        # the classifier works on M([I|D|P]): r + C(r,2) + columns elements
        check_size(ops[-1].name, nr, nr + nr * (nr - 1) // 2 + nc)
    return ops


def generate(workload: str, seed: int, golden: dict) -> list[Op]:
    """The fixed job of one pass.  The same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_all":
        return [Op("verify", "verify --suite all", ())]
    if workload == "iso_certify":
        return _iso_ops(rng)
    if workload == "minor_sweep":
        return _minor_ops(rng, golden["minor_deletable"])
    if workload == "classify_sweep":
        return _classify_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str) -> None:
    """Fill the program's lazy caches the way a long-running user would:
    the classifier's needle table and its per-letter minor witnesses."""
    if workload in ("verify_all", "classify_sweep"):
        for key in catalog.FORBIDDEN:
            templates.classify_Y_template(catalog.named(f"FORBIDDEN_{key}").matrix)


# -- running one op -----------------------------------------------------------------


def _fmt_set(items) -> str:
    return "{" + ",".join(str(x) for x in sorted(items)) + "}"


def _fmt_map(mapping) -> str:
    return ",".join(f"{k}>{v}" for k, v in sorted(mapping.items()))


def _lm(p: int, rows, labels) -> matroid.LinearMatroid:
    return matroid.LinearMatroid(gf.GFMatrix(p, rows, ncols=len(labels)), labels)


def run_op(op: Op, workdir: str, tracer=None) -> str:
    """Run one op through the program and return its answer as text.

    Raises OpFailure when the answer is wrong or fails re-verification by
    the program's independent verifier.  The CLI entry point is a click
    group, not a function the tracer can wrap, so a given tracer spans the
    call into it here.
    """
    if op.kind == "iso":
        p, rows, labels, copy, copy_labels = op.data
        a, b = _lm(p, rows, labels), _lm(p, copy, copy_labels)
        mapping = matroid.find_isomorphism(a, b)
        if mapping is None:
            raise OpFailure("no isomorphism found")
        if not matroid.verify_bijection(a, b, mapping):
            raise OpFailure("bijection failed re-verification")
        return f"map={_fmt_map(mapping)}"
    if op.kind == "minor":
        rows, labels, t_rows, t_labels = op.data
        host, target = _lm(3, rows, labels), _lm(3, t_rows, t_labels)
        w = matroid.has_minor(host, target)
        if w is None:
            if op.expect == "yes":
                raise OpFailure("expected minor not found")
            return "none"
        if op.expect == "no":
            raise OpFailure("minor found where the paper's claims exclude one")
        if not matroid.verify_witness(host, target, w):
            raise OpFailure("witness failed re-verification")
        return f"contract={_fmt_set(w.contracted)} delete={_fmt_set(w.deleted)} map={_fmt_map(w.as_dict())}"
    if op.kind == "classify":
        (rows,) = op.data
        payload = gf.GFMatrix(3, rows, ncols=len(rows[0]))
        cls = templates.classify_Y_template(payload)
        if cls.verdict == templates.UNCLASSIFIED or (op.expect and cls.verdict != op.expect):
            raise OpFailure(f"verdict {cls.verdict}, wanted {op.expect or 'a classified one'}")
        ok, why = templates.verify_classification(payload, cls)
        if not ok:
            raise OpFailure(f"certificate rejected: {why}")
        return f"{cls.verdict} {cls.certificate[0]}"
    if op.kind == "verify":
        report = os.path.join(workdir, "verify-report.tsv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            kwargs = {"args": ["verify", "--suite", "all", "--report", report],
                      "prog_name": "matroidlab", "standalone_mode": False}
            try:
                if tracer is None:
                    cli.main(**kwargs)
                else:
                    tracer.call("cli.main", cli.main, **kwargs)
                code = 0
            except SystemExit as exc:  # the command exits 1 when a check fails
                code = exc.code
        if code != 0:
            raise OpFailure(f"verify exited {code}: {err.getvalue().strip()}")
        return report
    raise ValueError(f"unknown op kind {op.kind!r}")


def verify_answer(op: Op, answer: str) -> str:
    """Answer text that is compared with the golden answers.  For the verify
    op this reads the report and keeps the check-id and witness columns."""
    if op.kind != "verify":
        return answer
    with open(answer, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = []
    for line in lines:
        check_id, verdict, _millis, witness = line.split("\t")
        if verdict != "pass":
            raise OpFailure(f"{check_id} did not pass: {witness}")
        out.append(f"{check_id}\t{witness}")
    return "\n".join(out)


def digest(op: Op, answer: str) -> str:
    return hashlib.sha256(f"{op.name}\n{answer}".encode()).hexdigest()[:16]
