"""CLI and suite-runner behavior: exit codes, formats, determinism."""

from __future__ import annotations

import collections
import dataclasses
import errno
import io
import os
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

from matroidlab import cli, gf
from matroidlab import suites
from matroidlab.catalog import NamedEntry, named
from matroidlab.cli import main
from matroidlab.matroid import LinearMatroid, MinorWitness, verify_witness
from matroidlab.suites import SUITE_ORDER, run_suite, suite_names, worker_count


DATA = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


def emit(runner, tmp_path, id_, name=None):
    path = tmp_path / (name or f"{id_}.gfmat")
    result = runner.invoke(main, ["named", id_, "--emit", str(path)])
    assert result.exit_code == 0, result.output
    return str(path)


# -- named -----------------------------------------------------------------------


def test_named_stdout_is_file_format(runner):
    result = runner.invoke(main, ["named", "T2"])
    assert result.exit_code == 0
    assert gf.from_text(result.output) == named("T2").matrix


def test_named_emit_into_missing_directory_exit_2(runner, tmp_path):
    path = tmp_path / "missing" / "T2.gfmat"
    result = runner.invoke(main, ["named", "T2", "--emit", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


def test_named_emit_roundtrip(runner, tmp_path):
    path = emit(runner, tmp_path, "AG23E")
    assert gf.read_file(path) == named("AG23E").matrix


def test_named_unknown_id_exits_2(runner):
    result = runner.invoke(main, ["named", "NO_SUCH_THING"])
    assert result.exit_code == 2
    assert "unknown catalog id" in result.output


def test_minor_oversized_family_id_exits_2(runner, tmp_path):
    # MK99999 would build a 99,998-row identity block before answering
    path = emit(runner, tmp_path, "AG23E_Y0")
    for ref in ("MK99999", "DOWLING100@GF5"):
        result = runner.invoke(main, ["minor", "-m", path, "-n", ref])
        assert result.exit_code == 2
        assert "unknown catalog id" in result.output
    result = runner.invoke(main, ["named", "PI99999"])
    assert result.exit_code == 2


def test_named_family_id_with_leading_zeros_exits_2(runner):
    for ref in ("PI004", "MK01"):
        result = runner.invoke(main, ["named", ref])
        assert result.exit_code == 2, ref
        assert "unknown catalog id" in result.output
    result = runner.invoke(main, ["iso", "PI04", "PI4"])
    assert result.exit_code == 2


def test_named_field_5(runner):
    result = runner.invoke(main, ["named", "AG23E", "--field", "5"])
    assert result.exit_code == 0
    mat = gf.from_text(result.output)
    assert mat.p == 5
    assert mat == named("AG23E", 5).matrix


def test_ids_lists_catalog(runner):
    result = runner.invoke(main, ["ids"])
    assert result.exit_code == 0
    listed = result.output.split()
    assert "AG23E" in listed and "DOWLING3" in listed and "F7M_PAIRS" in listed


# -- minor -----------------------------------------------------------------------


def printed_witness(output):
    """The MinorWitness that ``minor`` printed as its contract, delete and map lines."""
    lines = dict(line.split(" ", 1) for line in output.splitlines())

    def labels(text):
        return tuple(int(x) for x in text.strip("{}").split(",") if x)

    return MinorWitness(
        labels(lines["contract"]),
        labels(lines["delete"]),
        tuple(tuple(int(v) for v in pair.split(">")) for pair in lines["map"].split(",")),
    )


def test_minor_found_exit_0(runner, tmp_path):
    path = emit(runner, tmp_path, "AG23E_Y0")
    result = runner.invoke(main, ["minor", "-m", path, "-n", "AG23E"])
    assert result.exit_code == 0
    assert "contract {" in result.output
    assert "map " in result.output


def test_minor_expect_no_flips_exit(runner, tmp_path):
    path = emit(runner, tmp_path, "AG23E_Y0")
    result = runner.invoke(main, ["minor", "-m", path, "-n", "AG23E", "--expect", "no"])
    assert result.exit_code == 1


def test_minor_absent_exit_1(runner, tmp_path):
    path = emit(runner, tmp_path, "PI4")
    result = runner.invoke(main, ["minor", "-m", path, "-n", "AG23E"])
    assert result.exit_code == 1
    assert "no minor" in result.output
    flipped = runner.invoke(
        main, ["minor", "-m", path, "-n", "AG23E", "--expect", "no"]
    )
    assert flipped.exit_code == 0


def test_minor_parse_failure_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.gfmat"
    bad.write_text("this is not a matrix\n")
    result = runner.invoke(main, ["minor", "-m", str(bad), "-n", "AG23E"])
    assert result.exit_code == 2


def test_minor_bad_contract_list_exit_2(runner, tmp_path):
    path = emit(runner, tmp_path, "AG23E_Y0")
    result = runner.invoke(
        main, ["minor", "-m", path, "-n", "AG23E", "--contract", "a,b"]
    )
    assert result.exit_code == 2


def test_minor_ignores_target_contract_hint(runner, tmp_path):
    # F7M_PAIRS carries a contract hint labelling its own payload matroid;
    # it must not be applied to the host, whose labels stop at 8
    path = emit(runner, tmp_path, "AG23E_Y0")
    result = runner.invoke(main, ["minor", "-m", path, "-n", "F7M_PAIRS"])
    assert result.exit_code == 0, result.output
    host = LinearMatroid(gf.read_file(path))
    assert verify_witness(host, named("F7M_PAIRS").matroid(), printed_witness(result.output))


def test_minor_unknown_contract_label_exit_2(runner, tmp_path):
    path = emit(runner, tmp_path, "AG23E_Y0")
    result = runner.invoke(
        main, ["minor", "-m", path, "-n", "F7M_PAIRS", "--contract", "99"]
    )
    assert result.exit_code == 2
    assert result.output == "error: unknown element label 99\n"


def test_minor_hinted_negative_names_scope_exit_1(runner, tmp_path):
    # AG23E has a U24 minor, but not one that contracts 1 and 2: a search
    # seeded by a hint cannot confirm a "no" about the host
    path = emit(runner, tmp_path, "AG23E")
    found = runner.invoke(main, ["minor", "-m", path, "-n", "U24"])
    assert found.exit_code == 0
    assert found.output.splitlines()[0] == "contract {0}"
    for expect in ("yes", "no"):
        result = runner.invoke(
            main, ["minor", "-m", path, "-n", "U24", "--contract", "1,2", "--expect", expect]
        )
        assert result.exit_code == 1
        assert result.output == "no minor of M/{1,2}\n"


def test_minor_rechecks_witness_on_host(runner, tmp_path, monkeypatch):
    path = emit(runner, tmp_path, "AG23E_Y0")
    host, target = LinearMatroid(gf.read_file(path)), named("AG23E").matroid()
    w = cli.has_minor(host, target)
    (a, x), (b, y) = w.mapping[:2]
    swapped = dataclasses.replace(w, mapping=((a, y), (b, x)) + w.mapping[2:])
    assert verify_witness(host, target, w) and not verify_witness(host, target, swapped)
    monkeypatch.setattr(cli, "has_minor", lambda *args, **kwargs: swapped)
    result = runner.invoke(main, ["minor", "-m", path, "-n", "AG23E"])
    assert result.exit_code == 1
    assert result.output == "witness failed re-verification\n"


def test_minor_reads_catalog_ids_on_both_sides(runner):
    result = runner.invoke(main, ["minor", "-m", "AG23E_Y0", "-n", "AG23E"])
    assert result.exit_code == 0, result.output
    assert verify_witness(named("AG23E_Y0").matroid(), named("AG23E").matroid(), printed_witness(result.output))


def test_minor_target_takes_a_field_suffix(runner, tmp_path):
    path = emit(runner, tmp_path, "AG23E_Y0")
    result = runner.invoke(main, ["minor", "-m", path, "-n", "F7MINUS@GF5"])
    assert result.exit_code == 0, result.output
    host = LinearMatroid(gf.read_file(path))
    assert verify_witness(host, named("F7MINUS", 5).matroid(), printed_witness(result.output))


def test_missing_file_exits_2_naming_it(runner, tmp_path):
    missing = str(tmp_path / "host.gfmat")
    for args in (["minor", "-m", missing, "-n", "AG23E"], ["minor", "-m", "AG23E_Y0", "-n", missing],
                 ["classify", "-p", missing], ["iso", missing, "PI4"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert missing in result.output, args


def test_oversized_header_exits_2(runner, tmp_path):
    # with the other count 0 a header alone asks for any amount of memory;
    # counts above gf.MAX_DIMENSION are refused before anything is allocated,
    # and a count that is not a number is refused too
    for rows, cols in ((10 ** 15, 0), (0, 10 ** 15), ("x", 0)):
        path = tmp_path / f"{rows}x{cols}.gfmat"
        path.write_text(f"field 3\nrows {rows}\ncols {cols}\n")
        for args in (["iso", str(path), "PI4"], ["classify", "-p", str(path)],
                     ["minor", "-m", str(path), "-n", "AG23E"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, args
            if rows != "x":
                assert f"between 0 and {gf.MAX_DIMENSION}" in result.output, args


# -- classify --------------------------------------------------------------------


def test_classify_t2_prints_sigma(runner, tmp_path):
    path = emit(runner, tmp_path, "T2")
    result = runner.invoke(main, ["classify", "-p", path])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "Sigma"


def test_classify_reads_a_catalog_id(runner):
    result = runner.invoke(main, ["classify", "-p", "T2"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0] == "Sigma"


def test_classify_forbidden_a_prints_hint(runner, tmp_path):
    path = emit(runner, tmp_path, "FORBIDDEN_A")
    result = runner.invoke(main, ["classify", "-p", path])
    assert result.exit_code == 0
    head = result.output.splitlines()[0]
    assert head.startswith("ContainsAG23e")
    assert "hint={10}" in head


def test_classify_parse_failure_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.gfmat"
    bad.write_text("field 3\nrows 1\n")
    result = runner.invoke(main, ["classify", "-p", str(bad)])
    assert result.exit_code == 2


def test_classify_gf5_payload_exit_2(runner, tmp_path):
    path = tmp_path / "p5.gfmat"
    gf.write_file(named("T2", 5).matrix, str(path))
    result = runner.invoke(main, ["classify", "-p", str(path)])
    assert result.exit_code == 2


# -- iso / embed -----------------------------------------------------------------


def test_iso_self_is_identity(runner, tmp_path):
    path = emit(runner, tmp_path, "T2")
    result = runner.invoke(main, ["iso", path, path])
    assert result.exit_code == 0
    assert result.output.strip() == "0>0,1>1,2>2"


def test_iso_catalog_ids_with_field_suffix(runner):
    result = runner.invoke(main, ["iso", "PI4@GF3", "PI4@GF5"])
    assert result.exit_code == 0
    assert ">" in result.output


def test_catalog_id_wins_over_same_named_file(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "PI4").write_text("junk\n")
    result = runner.invoke(main, ["iso", "PI4", "PI4@GF5"])
    assert result.exit_code == 0, result.output
    assert ">" in result.output
    # a path that is not a catalog id still reads the file
    result = runner.invoke(main, ["iso", "./PI4", "PI4"])
    assert result.exit_code == 2
    assert "cannot read matrix file ./PI4" in result.output


def test_iso_none_exit_1(runner):
    result = runner.invoke(main, ["iso", "U24", "MK4"])
    assert result.exit_code == 1
    assert result.output.strip() == "none"


def test_iso_bad_field_suffix_exit_2(runner):
    result = runner.invoke(main, ["iso", "PI4@GF7", "PI4"])
    assert result.exit_code == 2


def test_iso_empty_field_suffix_exit_2(runner):
    # an "@" with no field after it is not read as GF(3)
    for args in (["iso", "PI4@", "PI4"], ["embed", "F7MINUS", "DOWLING3@"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert "unknown field suffix" in result.output


def test_embed_none_and_found(runner):
    none = runner.invoke(main, ["embed", "PI4", "DOWLING4"])
    assert none.exit_code == 1
    assert none.output.strip() == "none"
    found = runner.invoke(main, ["embed", "F7MINUS", "DOWLING3"])
    assert found.exit_code == 0
    assert ">" in found.output


@pytest.mark.parametrize("command, search, a, b", [
    ("iso", "find_isomorphism", "PI4@GF3", "PI4@GF5"),
    ("embed", "find_embedding", "F7MINUS", "DOWLING3"),
])
def test_iso_and_embed_recheck_mapping(runner, monkeypatch, command, search, a, b):
    # the search's own map passes; the same map with two images swapped is
    # caught before anything is printed
    mapping = getattr(cli, search)(cli._resolve(a).matroid(), cli._resolve(b).matroid())
    result = runner.invoke(main, [command, a, b])
    assert result.exit_code == 0 and result.output == cli._fmt_map(mapping) + "\n"
    (x, y), (u, v) = list(mapping.items())[:2]
    swapped = {**mapping, x: v, u: y}
    monkeypatch.setattr(cli, search, lambda *args: swapped)
    result = runner.invoke(main, [command, a, b])
    assert result.exit_code == 1
    assert result.output == "mapping failed re-verification\n"


# -- verify ----------------------------------------------------------------------


def test_verify_dyadic_report_format(runner, tmp_path):
    report = tmp_path / "report.tsv"
    result = runner.invoke(
        main, ["verify", "--suite", "dyadic", "--report", str(report)]
    )
    assert result.exit_code == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 3
    ids = []
    for line in lines:
        check_id, verdict, millis, witness = line.split("\t")
        assert verdict == "pass"
        int(millis)
        assert witness
        ids.append(check_id)
    assert ids == sorted(ids)


def test_verify_report_in_missing_directory_exit_2(runner, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(suites, "_run_one", lambda check: ran.append(check))
    report = tmp_path / "missing" / "report.tsv"
    result = runner.invoke(main, ["verify", "--suite", "dyadic", "--report", str(report)])
    assert result.exit_code == 2
    assert result.output.startswith(f"error: cannot write {report}: ")
    # the report path is tried before any check runs
    assert ran == []


class _FullDevice(io.StringIO):
    """A report file on a device with no room left."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_verify_report_write_failure_exit_2(runner, monkeypatch):
    # the report opens but its lines cannot be written: /dev/full where the
    # system has one, else a file whose every write fails the same way
    monkeypatch.setattr(suites, "_checks", lambda: [suites.Check("dyadic-aa-fine", "passes", lambda: (True, "ok"))])
    report = "/dev/full"
    if not os.path.exists(report):
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullDevice(), raising=False)
    result = runner.invoke(main, ["verify", "--suite", "dyadic", "--report", report])
    assert result.exit_code == 2
    assert result.output.endswith(f"error: cannot write {report}: {os.strerror(errno.ENOSPC)}\n")
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_verify_failure_names_first_failing_check(runner, monkeypatch):
    def doctored():
        return [
            suites.Check("dyadic-zz-doctored", "forced failure", lambda: (False, "boom")),
            suites.Check("dyadic-aa-fine", "passes", lambda: (True, "ok")),
        ]

    monkeypatch.setattr(suites, "_checks", doctored)
    result = runner.invoke(main, ["verify", "--suite", "dyadic"])
    assert result.exit_code == 1
    assert "verification failed: dyadic-zz-doctored" in result.output


def test_verify_corrupted_catalog_entry_fails_suite(runner, monkeypatch):
    # a zeroed payload can no longer force the AG23E minor
    def corrupted(id_, field=3):
        entry = named(id_, field)
        if id_ == "FORBIDDEN_B":
            entry = dataclasses.replace(entry, matrix=gf.GFMatrix.zeros(3, 5, 2))
        return entry

    monkeypatch.setattr(suites, "named", corrupted)
    result = runner.invoke(main, ["verify", "--suite", "tables"])
    assert result.exit_code == 1
    assert "verification failed: tables-B" in result.output


def test_check_exception_is_reported_not_raised(monkeypatch):
    def exploding():
        return [suites.Check("dyadic-aa-raise", "raises", lambda: 1 // 0)]

    monkeypatch.setattr(suites, "_checks", exploding)
    rep = run_suite("dyadic")
    assert not rep.ok
    assert rep.results[0].witness.startswith("error:")


# -- suite runner ----------------------------------------------------------------


def test_suite_names_and_unknown():
    assert suite_names() == SUITE_ORDER + ("all",)
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_report_deterministic_up_to_millis():
    def masked(rep):
        return [
            (line.split("\t")[0], line.split("\t")[1], line.split("\t")[3])
            for line in rep.machine_lines()
        ]

    a = run_suite("nearreg")
    b = run_suite("nearreg")
    assert masked(a) == masked(b)
    assert a.ok and b.ok


def test_all_suite_is_concatenation_sorted():
    rep = run_suite("all")
    ids = [r.check_id for r in rep.results]
    assert ids == sorted(ids)
    per_suite = sum(len(run_suite(s).results) for s in ("dyadic", "signedgraphic"))
    assert len(ids) > per_suite


def test_verify_all_report_matches_pinned_file():
    # check_id, anchor, verdict and witness of every check, as pinned in
    # tests/data; only the millis column may differ between runs
    pinned = (DATA / "verify_all_report.tsv").read_text(encoding="utf-8").splitlines()
    rep = run_suite("all")
    got = [f"{r.check_id}\t{r.anchor}\t{r.verdict}\t{r.witness}" for r in rep.results]
    assert len(got) == len(pinned)
    for line, want in zip(got, pinned):
        assert line == want
    counts = collections.Counter(r.check_id.split("-")[0] for r in rep.results)
    assert counts == {"tables": 15, "dyadic": 3, "signedgraphic": 3, "nearreg": 6, "templates": 11}


def test_suite_run_builds_each_catalog_matroid_once(monkeypatch):
    # a run shares each catalog matroid among its checks; the next run
    # builds its own, and NamedEntry.matroid() itself stays fresh.  Only the
    # suite's own builds count: the classification verifier builds AG23E
    # for itself, as it reads nothing of the search side
    built = []
    real = NamedEntry.matroid

    def recording(entry):
        m = real(entry)
        if sys._getframe(1).f_code.co_filename == suites.__file__:
            built.append(((entry.id, entry.matrix.p), m))
        return m

    monkeypatch.setattr(NamedEntry, "matroid", recording)
    run_suite("all")
    first = collections.Counter(key for key, _ in built)
    assert set(first.values()) == {1} and len(first) == 16
    assert first[("AG23E", 3)] == first[("OMEGA5", 5)] == first[("DOWLING4", 3)] == 1
    run_suite("all")
    assert collections.Counter(key for key, _ in built) == {key: 2 for key in first}
    assert len({id(m) for _, m in built}) == 32
    assert named("PI4").matroid() is not named("PI4").matroid()


def test_check_ids_are_unique_and_name_their_suite():
    ids = [c.check_id for c in suites._checks()]
    assert len(ids) == len(set(ids))
    assert all(id_.split("-")[0] in SUITE_ORDER for id_ in ids)
    for name in SUITE_ORDER:
        assert [r.check_id for r in run_suite(name).results] == sorted(
            id_ for id_ in ids if id_.startswith(f"{name}-"))


def test_run_suite_runs_checks_in_calling_thread(monkeypatch):
    seen = []

    def recording():
        def run():
            seen.append(threading.get_ident())
            return True, "ok"

        return [suites.Check(f"dyadic-aa-{i}", "records its thread", run) for i in range(3)]

    monkeypatch.setattr(suites, "_checks", recording)
    assert run_suite("dyadic").ok
    assert seen == [threading.get_ident()] * 3
    assert worker_count() == 1


def test_retired_threads_variable_is_ignored(runner, monkeypatch):
    monkeypatch.setenv("MATROIDLAB_THREADS", "abc")
    assert worker_count() == 1
    result = runner.invoke(main, ["verify", "--suite", "dyadic"])
    assert result.exit_code == 0
    assert "all checks passed" in result.output


def test_human_text_mentions_anchor_and_failure():
    rep = run_suite("dyadic")
    text = rep.human_text()
    assert "all checks passed" in text
    assert "OMEGA5 over GF(3) and GF(5) are isomorphic" in text
