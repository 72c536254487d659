"""Command-line front end.

Six commands: ``named`` (catalog export), ``minor`` (minor search against a
catalog target), ``verify`` (run a suite), ``classify`` (payload classifier),
``iso`` and ``embed`` (isomorphism and restriction-embedding search).

Exit codes are uniform: 0 success/verified, 1 a search or suite came up
negative, 2 usage or parse errors. Every matroid or matrix argument (``iso``
and ``embed``, ``minor -m`` and ``-n``, ``classify -p``) is a catalog id or a
file path; a catalog id may carry an ``@GF5`` suffix to select the field, and
wins over a file of the same name.
"""

from __future__ import annotations

import contextlib
import os
import sys
from typing import NoReturn

import click

from . import gf
from .catalog import NamedEntry, catalog_ids, named
from .matroid import find_embedding, find_isomorphism, has_minor, verify_bijection, verify_embedding, verify_witness
from .suites import _fmt_map, _fmt_set, run_suite, suite_names
from .templates import CONTAINS_AG23E, classify_Y_template, verify_classification


def _fail(code: int, message: str) -> NoReturn:
    click.echo(message, err=True)
    sys.exit(code)


def _read_matrix(path: str) -> gf.GFMatrix:
    try:
        return gf.read_file(path)
    except (OSError, ValueError) as exc:
        _fail(2, f"error: cannot read matrix file {path}: {exc}")


def _entry_or_die(id_: str, field: int):
    try:
        return named(id_, field)
    except KeyError:
        _fail(2, f"unknown catalog id: {id_}")


_FIELD_SUFFIX = {"GF3": 3, "GF5": 5}


def _resolve(ref: str) -> NamedEntry:
    """A matroid or matrix argument: a catalog id with optional @GF3/@GF5
    suffix, else a file path, read as an entry with no labels.  A catalog
    id wins over a same-named file; ``./PI4`` names the file."""
    id_, at, suffix = ref.partition("@")
    # an "@" with nothing after it is an unknown suffix, not GF(3)
    field = _FIELD_SUFFIX.get(suffix.upper()) if at else 3
    if field is not None:
        with contextlib.suppress(KeyError):
            return named(id_, field)
    if os.path.exists(ref):
        return NamedEntry(ref, _read_matrix(ref))
    if field is None:
        _fail(2, f"error: unknown field suffix {suffix!r}; use GF3 or GF5")
    _fail(2, f"unknown catalog id: {id_} (and no file {ref} exists)")


@click.group()
def main() -> None:
    """Exact-arithmetic workbench for ternary frame templates."""


@main.command(name="named")
@click.argument("id_", metavar="ID")
@click.option("--field", type=click.Choice(["3", "5"]), default="3", show_default=True)
@click.option("--emit", type=click.Path(dir_okay=False, writable=True), default=None,
              help="write the matrix file here instead of stdout")
def named_cmd(id_: str, field: str, emit: str | None) -> None:
    """Export a catalog matrix. ID is one of the catalog ids."""
    entry = _entry_or_die(id_, int(field))
    if emit is None:
        click.echo(gf.to_text(entry.matrix), nl=False)
        return
    try:
        gf.write_file(entry.matrix, emit)
    except OSError as exc:
        _fail(2, f"error: cannot write {emit}: {exc.strerror or exc}")
    shape = f"{entry.matrix.nrows}x{entry.matrix.ncols}"
    click.echo(f"wrote {entry.id} ({shape}, GF({field})) to {emit}")


@main.command(name="ids")
def ids_cmd() -> None:
    """List catalog ids."""
    for id_ in catalog_ids():
        click.echo(id_)


@main.command(name="minor")
@click.option("-m", "host_ref", required=True,
              help="host matroid: a catalog id (optionally @GF3/@GF5) or a matrix file")
@click.option("-n", "target_ref", required=True,
              help="minor target: a catalog id (optionally @GF3/@GF5) or a matrix file")
@click.option("--contract", default=None,
              help="comma-separated labels to contract first (search hint); "
                   "a negative under a hint exits 1")
@click.option("--expect", type=click.Choice(["yes", "no"]), default="yes",
              show_default=True, help="exit 0 when the outcome matches this")
def minor_cmd(host_ref: str, target_ref: str, contract: str | None, expect: str) -> None:
    """Search for a minor of the host matroid isomorphic to the target."""
    m = _resolve(host_ref).matroid()
    target = _resolve(target_ref).matroid()
    # a catalog entry's contract_hint labels its own payload matroid, never
    # the host, so only --contract may seed the search
    hint: tuple[int, ...] | None = None
    if contract is not None:
        try:
            hint = tuple(int(x) for x in contract.split(",") if x.strip())
        except ValueError:
            _fail(2, f"error: bad --contract list: {contract}")
    try:
        witness = has_minor(m, target, hint=hint)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message
        _fail(2, f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}")
    if witness is None:
        if hint:
            # a search seeded by a hint says nothing about the unhinted host
            click.echo(f"no minor of M/{_fmt_set(set(hint))}")
            sys.exit(1)
        click.echo("no minor")
        sys.exit(0 if expect == "no" else 1)
    # the search's leaf check ran on si(M/T), built by contraction code
    if not verify_witness(m, target, witness):
        _fail(1, "witness failed re-verification")
    click.echo(f"contract {_fmt_set(witness.contracted)}")
    click.echo(f"delete {_fmt_set(witness.deleted)}")
    click.echo(f"map {_fmt_map(witness.as_dict())}")
    sys.exit(0 if expect == "yes" else 1)


@main.command(name="verify")
@click.option("--suite", "suite", type=click.Choice(list(suite_names())),
              default="all", show_default=True)
@click.option("--report", type=click.Path(dir_okay=False, writable=True), default=None,
              help="also write the machine-readable report to this file")
def verify_cmd(suite: str, report: str | None) -> None:
    """Run a verification suite; exit 0 only if every check passes."""
    # opened first, so that an unwritable path fails before the suite runs
    try:
        out = open(report, "w", encoding="utf-8") if report is not None else contextlib.nullcontext()
    except OSError as exc:
        _fail(2, f"error: cannot write {report}: {exc.strerror or exc}")
    with out as fh:
        rep = run_suite(suite)
        click.echo(rep.human_text())
        if fh is not None:
            try:
                fh.writelines(line + "\n" for line in rep.machine_lines())
                # closed here, so that a write the buffer held back (a full
                # device) fails inside the handler
                fh.close()
            except OSError as exc:
                _fail(2, f"error: cannot write {report}: {exc.strerror or exc}")
    if not rep.ok:
        bad = rep.first_failure()
        _fail(1, f"verification failed: {bad.check_id}: {bad.witness}")


@main.command(name="classify")
@click.option("-p", "payload_ref", required=True,
              help="payload to classify: a catalog id or a matrix file, over GF(3)")
def classify_cmd(payload_ref: str) -> None:
    """Classify a ternary payload matrix; the certificate is re-verified first."""
    payload = _resolve(payload_ref).matrix
    try:
        cls = classify_Y_template(payload)
    except ValueError as exc:
        _fail(2, f"error: {exc}")
    ok, why = verify_classification(payload, cls)
    if not ok:
        _fail(1, f"certificate failed re-verification: {why}")
    detail = ""
    if cls.verdict == CONTAINS_AG23E:
        _, name, base, *_ = cls.certificate
        detail = f" hit={name} hint={_fmt_set(named(f'FORBIDDEN_{base}').contract_hint)}"
    click.echo(f"{cls.verdict}{detail}")
    for note in cls.notes:
        click.echo(f"  {note}")


@main.command(name="iso")
@click.argument("a")
@click.argument("b")
def iso_cmd(a: str, b: str) -> None:
    """Isomorphism search between two matroids (files or catalog ids)."""
    ma, mb = _resolve(a).matroid(), _resolve(b).matroid()
    mapping = find_isomorphism(ma, mb)
    if mapping is None:
        click.echo("none")
        sys.exit(1)
    if not verify_bijection(ma, mb, mapping):
        _fail(1, "mapping failed re-verification")
    click.echo(_fmt_map(mapping))


@main.command(name="embed")
@click.argument("a")
@click.argument("b")
def embed_cmd(a: str, b: str) -> None:
    """Restriction-embedding search of A into B (files or catalog ids)."""
    ma, mb = _resolve(a).matroid(), _resolve(b).matroid()
    mapping = find_embedding(ma, mb)
    if mapping is None:
        click.echo("none")
        sys.exit(1)
    if not verify_embedding(ma, mb, mapping):
        _fail(1, "mapping failed re-verification")
    click.echo(_fmt_map(mapping))


if __name__ == "__main__":
    main()
