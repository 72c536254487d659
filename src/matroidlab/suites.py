"""Named verification suites over the catalog.

Five suites bundle the headline computations: ``tables`` (each forbidden
payload forces an AG23E minor), ``dyadic`` (field-independence isomorphisms),
``signedgraphic`` (non-embeddability into Dowling geometries), ``nearreg``
(non-Fano witnesses), and ``templates`` (respects/classifier/block checks).
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


def _payload_minor_check(payload_id: str, target_id: str) -> tuple[bool, str]:
    """M([I|D|P]) for the catalog payload P has the catalog target as a
    minor, searched under P's contract hint."""
    entry = named(payload_id)
    m, target = universal_matroid(entry.matrix, entry.matrix.nrows), named(target_id).matroid()
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


def _tables_checks() -> list[Check]:
    return [
        Check(
            f"tables-{key}",
            f"si(M([I|D|FORBIDDEN_{key}])/{_fmt_set(named(f'FORBIDDEN_{key}').contract_hint)})"
            " has an AG23E minor",
            lambda key=key: _payload_minor_check(f"FORBIDDEN_{key}", "AG23E"),
        )
        for key in FORBIDDEN
    ]


def _dyadic_checks() -> list[Check]:
    def fields(id_):
        return lambda: _iso_check(named(id_, 3).matroid(), named(id_, 5).matroid())

    def sigma3():
        return _iso_check(named("SIGMA3").matroid(), named("DOWLING3").matroid())

    return [
        Check(
            "dyadic-omega5-gf3-gf5",
            "OMEGA5 over GF(3) and GF(5) are isomorphic",
            fields("OMEGA5"),
        ),
        Check(
            "dyadic-pi4-gf3-gf5",
            "PI4 over GF(3) and GF(5) are isomorphic",
            fields("PI4"),
        ),
        Check(
            "dyadic-sigma3-dowling3",
            "SIGMA3 is the rank-3 ternary Dowling geometry",
            sigma3,
        ),
    ]


def _signedgraphic_checks() -> list[Check]:
    def none(a, b):
        return lambda: _no_embedding_check(named(a).matroid(), named(b).matroid())

    return [
        Check(
            "signedgraphic-omega5-dowling5",
            "OMEGA5 is not a restriction of DOWLING5",
            none("OMEGA5", "DOWLING5"),
        ),
        Check(
            "signedgraphic-pi4-dowling4",
            "PI4 is not a restriction of DOWLING4",
            none("PI4", "DOWLING4"),
        ),
        Check(
            "signedgraphic-sigma4-dowling4",
            "SIGMA4 is not a restriction of DOWLING4",
            none("SIGMA4", "DOWLING4"),
        ),
    ]


def _nearreg_checks() -> list[Check]:
    def display_iso():
        return _iso_check(named("F7MINUS_XY0").matroid(), named("F7MINUS").matroid())

    def col3_scaling():
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

    def col4_contract():
        ok, witness = _payload_minor_check("FORBIDDEN_A", "F7MINUS")
        # restriction claim: nothing beyond the payload column may be contracted
        if ok and not witness.startswith(f"contract={_fmt_set(named('FORBIDDEN_A').contract_hint)} "):
            return False, "minor needed contractions beyond the payload column"
        return ok, witness

    def payload_minor(id_):
        return lambda: _payload_minor_check(id_, "F7MINUS")

    def dowling_restriction():
        return _embed_check(named("F7MINUS").matroid(), named("DOWLING3").matroid())

    return [
        Check(
            "nearreg-col3-scaling",
            "[I3|D3|F7M_COL3] equals F7MINUS_XY0 up to column scaling",
            col3_scaling,
        ),
        Check(
            "nearreg-col4-contract",
            "M([I4|D4|FORBIDDEN_A])/{10} has an F7MINUS restriction",
            col4_contract,
        ),
        Check(
            "nearreg-display-iso",
            "M(F7MINUS_XY0) is isomorphic to F7MINUS",
            display_iso,
        ),
        Check(
            "nearreg-dowling-restriction",
            "F7MINUS is a restriction of DOWLING3",
            dowling_restriction,
        ),
        Check(
            "nearreg-pairs-minor",
            "M([I4|D4|F7M_PAIRS]) has an F7MINUS minor",
            payload_minor("F7M_PAIRS"),
        ),
        Check(
            "nearreg-triple-minor",
            "M([I3|D3|F7M_TRIPLE]) has an F7MINUS minor",
            payload_minor("F7M_TRIPLE"),
        ),
    ]


def _classify_check(payload_id: str, want: str) -> Callable[[], tuple[bool, str]]:
    def run():
        p = named(payload_id).matrix
        cls = classify_Y_template(p)
        if cls.verdict != want:
            return False, f"verdict={cls.verdict} wanted={want}"
        ok, why = verify_classification(p, cls)
        if not ok:
            return False, f"certificate rejected: {why}"
        return True, f"verdict={cls.verdict} cert={cls.certificate[0]}"

    return run


def _respects_check(id_: str, placement: Placement, template_id: str) -> Callable[[], tuple[bool, str]]:
    def run():
        rep = respects(named(id_).matrix, placement, named_template(template_id))
        return rep.ok, rep.reason if not rep.ok else "respects"

    return run


def _templates_checks() -> list[Check]:
    def y0_contract():
        entry = named("AG23E_Y0")
        m = entry.matroid().contract(entry.contract_hint)
        return _iso_check(m, named("AG23E").matroid())

    def x_iso():
        return _iso_check(named("AG23E_X").matroid(), named("AG23E").matroid())

    # the clique block [I|D] and the [I4|D4|T1] block on PI5's first four rows
    clique, mid = universal_block_labels(5, 4, 3)

    def pi5_clique():
        return _iso_check(named("PI5").matroid().restrict(clique), named("MK6").matroid())

    def pi5_midblock():
        return _iso_check(named("PI5").matroid().restrict(mid), named("PI4").matroid())

    return [
        Check(
            "templates-classify-a",
            "classify(FORBIDDEN_A) is ContainsAG23e",
            _classify_check("FORBIDDEN_A", CONTAINS_AG23E),
        ),
        Check(
            "templates-classify-ones",
            "classify(ONES3) is SignedGraphic",
            _classify_check("ONES3", SIGNED_GRAPHIC),
        ),
        Check(
            "templates-classify-t1",
            "classify(T1) is Pi",
            _classify_check("T1", PI),
        ),
        Check(
            "templates-classify-t2",
            "classify(T2) is Sigma",
            _classify_check("T2", SIGMA),
        ),
        Check(
            "templates-classify-t3",
            "classify(T3) is Omega",
            _classify_check("T3", OMEGA),
        ),
        Check(
            "templates-pi5-clique",
            "PI5 restricted to its clique block is M(K6)",
            pi5_clique,
        ),
        Check(
            "templates-pi5-midblock",
            "PI5 restricted to its mid block is PI4",
            pi5_midblock,
        ),
        Check(
            "templates-x-iso",
            "M(AG23E_X) is isomorphic to AG23E",
            x_iso,
        ),
        Check(
            "templates-x-respects",
            "AG23E_X respects PHI_X with its top row placed on X",
            _respects_check("AG23E_X", Placement(x_rows=(0,)), "PHI_X"),
        ),
        Check(
            "templates-y0-contract",
            "AG23E_Y0 contracted by element 9 is AG23E",
            y0_contract,
        ),
        Check(
            "templates-y0-respects",
            "AG23E_Y0 respects PHI_Y0 with its last column placed on Y0",
            _respects_check("AG23E_Y0", Placement(y0_cols=(8,)), "PHI_Y0"),
        ),
    ]


_SUITES: dict[str, Callable[[], list[Check]]] = {
    "tables": _tables_checks,
    "dyadic": _dyadic_checks,
    "signedgraphic": _signedgraphic_checks,
    "nearreg": _nearreg_checks,
    "templates": _templates_checks,
}


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
    if name == "all":
        checks = [c for s in SUITE_ORDER for c in _SUITES[s]()]
    elif name in _SUITES:
        checks = _SUITES[name]()
    else:
        raise KeyError(f"unknown suite: {name}")
    checks.sort(key=lambda c: c.check_id)
    return SuiteReport(name, tuple(_run_one(c) for c in checks))
