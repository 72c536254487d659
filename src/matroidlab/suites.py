"""Named verification suites over the catalog.

Five suites bundle the headline computations: ``tables`` (each forbidden
payload forces an AG23E minor), ``dyadic`` (field-independence isomorphisms),
``signedgraphic`` (non-embeddability into Dowling geometries), ``nearreg``
(non-Fano witnesses), and ``templates`` (respects/classifier/block checks).
All checks live in one table; a check belongs to the suite its id starts
with (``tables-B`` is in ``tables``).
Every check re-verifies its own witness through an independent routine before
reporting a pass; a check never trusts the search that produced the witness.

Checks run one at a time in check-id order, so two runs of the same suite
produce identical machine-readable output up to the timing column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping

from .catalog import FORBIDDEN, named, universal_block_labels, universal_matrix, universal_matroid
from .matroid import (
    LinearMatroid,
    find_embedding,
    find_isomorphism,
    has_minor,
    verify_bijection,
    verify_embedding,
    verify_witness,
)
from .templates import (
    CONTAINS_AG23E,
    OMEGA,
    PI,
    SIGMA,
    SIGNED_GRAPHIC,
    Placement,
    classify_Y_template,
    named_template,
    respects,
    verify_classification,
)

SUITE_ORDER = ("tables", "dyadic", "signedgraphic", "nearreg", "templates")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    check_id: str
    anchor: str
    passed: bool
    millis: int
    witness: str

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class SuiteReport:
    """All results of one suite run, ordered by check id."""

    suite: str
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def first_failure(self) -> CheckResult | None:
        for r in self.results:
            if not r.passed:
                return r
        return None

    def machine_lines(self) -> tuple[str, ...]:
        return tuple(
            f"{r.check_id}\t{r.verdict}\t{r.millis}\t{r.witness}" for r in self.results
        )

    def human_text(self) -> str:
        lines = [f"suite {self.suite}: {len(self.results)} checks"]
        for r in self.results:
            lines.append(
                f"  {r.verdict.upper():4s} {r.check_id} ({r.millis} ms) {r.anchor}"
            )
            lines.append(f"       {r.witness}")
        bad = self.first_failure()
        if bad is None:
            lines.append(f"suite {self.suite}: all checks passed")
        else:
            lines.append(f"suite {self.suite}: FAILED at {bad.check_id}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Check:
    check_id: str
    anchor: str
    run: Callable[[], tuple[bool, str]]


def _fmt_set(items) -> str:
    return "{" + ",".join(str(x) for x in sorted(items)) + "}"


def _fmt_map(mapping: Mapping[int, int]) -> str:
    return ",".join(f"{k}>{v}" for k, v in sorted(mapping.items()))


def _iso_check(a: LinearMatroid, b: LinearMatroid) -> tuple[bool, str]:
    mapping = find_isomorphism(a, b)
    if mapping is None:
        return False, "no isomorphism found"
    if not verify_bijection(a, b, mapping):
        return False, "bijection failed re-verification"
    return True, f"map={_fmt_map(mapping)}"


def _embed_check(a: LinearMatroid, b: LinearMatroid) -> tuple[bool, str]:
    mapping = find_embedding(a, b)
    if mapping is None:
        return False, "no embedding found"
    if not verify_embedding(a, b, mapping):
        return False, "embedding failed re-verification"
    return True, f"map={_fmt_map(mapping)}"


def _no_embedding_check(a: LinearMatroid, b: LinearMatroid) -> tuple[bool, str]:
    mapping = find_embedding(a, b)
    if mapping is None:
        return True, "none"
    return False, f"unexpected embedding map={_fmt_map(mapping)}"


def _payload_minor_check(payload_id: str, target: LinearMatroid) -> tuple[bool, str]:
    """M([I|D|P]) for the catalog payload P has target as a minor, searched
    under P's contract hint."""
    entry = named(payload_id)
    m = universal_matroid(entry.matrix, entry.matrix.nrows)
    w = has_minor(m, target, hint=entry.contract_hint)
    if w is None:
        return False, "no minor found"
    if not verify_witness(m, target, w):
        return False, "witness failed re-verification"
    return (
        True,
        f"contract={_fmt_set(w.contracted)} delete={_fmt_set(w.deleted)}"
        f" map={_fmt_map(w.as_dict())}",
    )


def _classify_check(payload_id: str, want: str) -> tuple[bool, str]:
    p = named(payload_id).matrix
    cls = classify_Y_template(p)
    if cls.verdict != want:
        return False, f"verdict={cls.verdict} wanted={want}"
    ok, why = verify_classification(p, cls)
    if not ok:
        return False, f"certificate rejected: {why}"
    return True, f"verdict={cls.verdict} cert={cls.certificate[0]}"


def _respects_check(id_: str, placement: Placement, template_id: str) -> tuple[bool, str]:
    rep = respects(named(id_).matrix, placement, named_template(template_id))
    return rep.ok, rep.reason if not rep.ok else "respects"


def _col3_scaling() -> tuple[bool, str]:
    u = universal_matrix(named("F7M_COL3").matrix, 3)
    x = named("F7MINUS_XY0").matrix
    if (u.nrows, u.ncols) != (x.nrows, x.ncols):
        return False, "shape mismatch"
    scalars = []
    for j in range(u.ncols):
        col = u.column(j)
        s = next(
            (s for s in (1, 2) if tuple(s * e % 3 for e in x.column(j)) == col),
            None,
        )
        if s is None:
            return False, f"column {j} is not a scalar multiple"
        scalars.append(s if s == 1 else -1)
    return True, "scalars=" + ",".join(str(s) for s in scalars)


def _col4_contract(f7minus: LinearMatroid) -> tuple[bool, str]:
    ok, witness = _payload_minor_check("FORBIDDEN_A", f7minus)
    # restriction claim: nothing beyond the payload column may be contracted
    if ok and not witness.startswith(f"contract={_fmt_set(named('FORBIDDEN_A').contract_hint)} "):
        return False, "minor needed contractions beyond the payload column"
    return ok, witness


def _checks() -> list[Check]:
    """Every check of every suite; a check belongs to the suite its id
    starts with.  Built on each call, so importing this module builds no
    catalog entries.  The checks of one call share each catalog matroid,
    built at its first use, and with it the caches it carries (pair table,
    patterns, orbit table); a matroid is never changed, so sharing it
    changes no answer."""
    built: dict[tuple[str, int], LinearMatroid] = {}

    def _m(id_: str, field: int = 3) -> LinearMatroid:
        if (id_, field) not in built:
            built[id_, field] = named(id_, field).matroid()
        return built[id_, field]

    # the clique block [I|D] and the [I4|D4|T1] block on PI5's first four rows
    clique, mid = universal_block_labels(5, 4, 3)
    return [
        *(
            Check(
                f"tables-{key}",
                f"si(M([I|D|FORBIDDEN_{key}])/{_fmt_set(named(f'FORBIDDEN_{key}').contract_hint)})"
                " has an AG23E minor",
                lambda key=key: _payload_minor_check(f"FORBIDDEN_{key}", _m("AG23E")),
            )
            for key in FORBIDDEN
        ),
        Check("dyadic-omega5-gf3-gf5", "OMEGA5 over GF(3) and GF(5) are isomorphic",
              lambda: _iso_check(_m("OMEGA5"), _m("OMEGA5", 5))),
        Check("dyadic-pi4-gf3-gf5", "PI4 over GF(3) and GF(5) are isomorphic",
              lambda: _iso_check(_m("PI4"), _m("PI4", 5))),
        Check("dyadic-sigma3-dowling3", "SIGMA3 is the rank-3 ternary Dowling geometry",
              lambda: _iso_check(_m("SIGMA3"), _m("DOWLING3"))),
        Check("signedgraphic-omega5-dowling5", "OMEGA5 is not a restriction of DOWLING5",
              lambda: _no_embedding_check(_m("OMEGA5"), _m("DOWLING5"))),
        Check("signedgraphic-pi4-dowling4", "PI4 is not a restriction of DOWLING4",
              lambda: _no_embedding_check(_m("PI4"), _m("DOWLING4"))),
        Check("signedgraphic-sigma4-dowling4", "SIGMA4 is not a restriction of DOWLING4",
              lambda: _no_embedding_check(_m("SIGMA4"), _m("DOWLING4"))),
        Check("nearreg-col3-scaling", "[I3|D3|F7M_COL3] equals F7MINUS_XY0 up to column scaling",
              _col3_scaling),
        Check("nearreg-col4-contract", "M([I4|D4|FORBIDDEN_A])/{10} has an F7MINUS restriction",
              lambda: _col4_contract(_m("F7MINUS"))),
        Check("nearreg-display-iso", "M(F7MINUS_XY0) is isomorphic to F7MINUS",
              lambda: _iso_check(_m("F7MINUS_XY0"), _m("F7MINUS"))),
        Check("nearreg-dowling-restriction", "F7MINUS is a restriction of DOWLING3",
              lambda: _embed_check(_m("F7MINUS"), _m("DOWLING3"))),
        Check("nearreg-pairs-minor", "M([I4|D4|F7M_PAIRS]) has an F7MINUS minor",
              lambda: _payload_minor_check("F7M_PAIRS", _m("F7MINUS"))),
        Check("nearreg-triple-minor", "M([I3|D3|F7M_TRIPLE]) has an F7MINUS minor",
              lambda: _payload_minor_check("F7M_TRIPLE", _m("F7MINUS"))),
        Check("templates-classify-a", "classify(FORBIDDEN_A) is ContainsAG23e",
              lambda: _classify_check("FORBIDDEN_A", CONTAINS_AG23E)),
        Check("templates-classify-ones", "classify(ONES3) is SignedGraphic",
              lambda: _classify_check("ONES3", SIGNED_GRAPHIC)),
        Check("templates-classify-t1", "classify(T1) is Pi",
              lambda: _classify_check("T1", PI)),
        Check("templates-classify-t2", "classify(T2) is Sigma",
              lambda: _classify_check("T2", SIGMA)),
        Check("templates-classify-t3", "classify(T3) is Omega",
              lambda: _classify_check("T3", OMEGA)),
        Check("templates-pi5-clique", "PI5 restricted to its clique block is M(K6)",
              lambda: _iso_check(_m("PI5").restrict(clique), _m("MK6"))),
        Check("templates-pi5-midblock", "PI5 restricted to its mid block is PI4",
              lambda: _iso_check(_m("PI5").restrict(mid), _m("PI4"))),
        Check("templates-x-iso", "M(AG23E_X) is isomorphic to AG23E",
              lambda: _iso_check(_m("AG23E_X"), _m("AG23E"))),
        Check("templates-x-respects", "AG23E_X respects PHI_X with its top row placed on X",
              lambda: _respects_check("AG23E_X", Placement(x_rows=(0,)), "PHI_X")),
        Check("templates-y0-contract", "AG23E_Y0 contracted by element 9 is AG23E",
              lambda: _iso_check(_m("AG23E_Y0").contract((9,)), _m("AG23E"))),
        Check("templates-y0-respects", "AG23E_Y0 respects PHI_Y0 with its last column placed on Y0",
              lambda: _respects_check("AG23E_Y0", Placement(y0_cols=(8,)), "PHI_Y0")),
    ]


def suite_names() -> tuple[str, ...]:
    return SUITE_ORDER + ("all",)


def worker_count() -> int:
    """Checks run one at a time in the calling thread, so always 1."""
    return 1


def _sanitize(text: str) -> str:
    # witness column must stay a single tab-delimited field
    return " ".join(text.split())


def _run_one(check: Check) -> CheckResult:
    t0 = time.perf_counter()
    try:
        passed, witness = check.run()
    except Exception as exc:
        passed, witness = False, f"error: {exc}"
    millis = int((time.perf_counter() - t0) * 1000)
    return CheckResult(check.check_id, check.anchor, passed, millis, _sanitize(witness))


def run_suite(name: str) -> SuiteReport:
    """Run one suite (or "all") and return its report, ordered by check id."""
    if name not in suite_names():
        raise KeyError(f"unknown suite: {name}")
    checks = [c for c in _checks() if name == "all" or c.check_id.startswith(f"{name}-")]
    checks.sort(key=lambda c: c.check_id)
    return SuiteReport(name, tuple(_run_one(c) for c in checks))
