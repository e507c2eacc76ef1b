import csv
import io
import json
import os

import pytest

import mgcm.cli_io as cli_io
from mgcm.graded_poly import InputError
from mgcm.theorem_harness import AggregateReport, CheckRecord, VerificationReport
from mgcm.cli_io import (
    Diagnostic,
    RunFlags,
    SessionDiagnostics,
    build_session,
    cache_directory,
    cache_fetch,
    cache_store,
    _cache_path,
    emit_report,
    execute_session,
    load_manifest,
    main,
    parse_session,
    print_session,
    run_corpus_files,
    shipped_manifest_path,
)

SMALL = """\
ring A = poly(char=default; a,b : deg=(0), weight=1);
ideal I = (a, b);
module N = free(A);
rees R = rees(N; I);
verify lem41 R;
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_ring_declaration():
    s = parse_session("ring A = poly(char=0; a,b : deg=(0), weight=1);")
    decl = s.declarations[0]
    assert decl.name == "A" and decl.char == 0
    assert decl.groups[0].names == ("a", "b")
    assert decl.groups[0].mdeg == (0,) and decl.groups[0].weight == 1


def test_parse_pipeline():
    text = """\
ring A = poly(char=default; a,b : deg=(0,0), weight=1);
ideal I1 = (a);
ideal I2 = (b);
module N = free(A);
multirees M = rees(N; I1, I2);
verify thm42 M;
"""
    s = parse_session(text)
    assert [t.theorem for t in s.directives] == ["thm42"]
    assert s.declarations[-1].ideals == ("I1", "I2")


def test_parse_empty_generator_diagnostic():
    with pytest.raises(SessionDiagnostics) as ei:
        parse_session("ideal I = (a, );")
    d = ei.value.diagnostics[0]
    assert d.message == "empty generator at line 1"
    assert d.line == 1


def test_parse_collects_all_diagnostics():
    text = """\
ring A = poly(char=default; a,b : deg=(0), weight=1);
ideal I = (a, z);
module N = free(B);
verify thm99 N;
"""
    with pytest.raises(SessionDiagnostics) as ei:
        parse_session(text)
    msgs = [d.message for d in ei.value.diagnostics]
    assert "unknown identifier 'z' in ring 'A'" in msgs
    assert "'B' is not a declared ring" in msgs
    assert "unknown verification id 'thm99'" in msgs
    lines = [d.line for d in ei.value.diagnostics]
    assert lines == [2, 3, 4]


def test_parse_duplicate_name():
    text = """\
ring A = poly(char=default; a : deg=(0), weight=1);
ideal A = (a);
"""
    with pytest.raises(SessionDiagnostics) as ei:
        parse_session(text)
    assert "duplicate name 'A'" in str(ei.value)


def test_parse_missing_semicolon():
    with pytest.raises(SessionDiagnostics) as ei:
        parse_session("ring A = poly(char=0; a : deg=(0), weight=1)")
    assert "terminating ';'" in str(ei.value)


# one object of every kind, and per directive one target of a kind it refuses
EVERY_KIND = """\
ring S = poly(char=default; x0,x1 : deg=(1), weight=1);
module M = free(S);
ring A = poly(char=default; a,b : deg=(0), weight=1);
ideal I = (a, b);
module N = free(A);
rees R = rees(N; I);
multirees P = rees(N; I, I);
diagonal D = diagonal(R);
"""
WRONG_KIND = {
    "check": ("I", "'I' (ideal) cannot be used with check"),
    "table": ("R", "'R' (rees) cannot be used with table"),
    "thm31": ("R", "'thm31' expects a module target, got rees 'R'"),
    "lem-vanish": ("D", "'lem-vanish' expects a module target, got diagonal 'D'"),
    "lem41": ("M", "'lem41' expects a rees or multirees target, got module 'M'"),
    "thm42": ("S", "'thm42' expects a rees or multirees target, got ring 'S'"),
    "lem44": ("I", "'lem44' expects a rees or multirees target, got ideal 'I'"),
    "lem45": ("D", "'lem45' expects a rees or multirees target, got diagonal 'D'"),
    "thm46": ("N", "'thm46' expects a rees or multirees target, got module 'N'"),
}


def test_parse_verify_target_kind_mismatch():
    # every row of the directive table refuses a target of the wrong kind
    assert list(WRONG_KIND) == list(cli_io.DIRECTIVES)
    got = []
    for head, (target, _message) in WRONG_KIND.items():
        verb = f"verify {head}" if head in cli_io.VERIFY_IDS else head
        with pytest.raises(SessionDiagnostics) as ei:
            parse_session(EVERY_KIND + f"{verb} {target};\n")
        (d,) = ei.value.diagnostics
        got.append((head, d.message))
    assert got == [(head, message) for head, (_target, message) in WRONG_KIND.items()]


def test_directive_runners_call_the_checkers_by_name(monkeypatch):
    # a profiler wraps the checkers by rebinding cli_io's names; a runner that
    # held a function object would bypass the wrapper and read as no time
    seen = []
    for name in ("verify_cm_biconditional", "verify_regraded_vanishing",
                 "verify_rees_a_invariant", "verify_rees_transfer",
                 "verify_spread_vanishing", "verify_colon_identities"):
        monkeypatch.setattr(cli_io, name, lambda *a, _n=name: seen.append(_n) or VerificationReport(
            _n, "", (), None, True, "holds", None, 0, (), ()))
    text = EVERY_KIND + "".join(
        f"verify {head} {'M' if 'module' in cli_io.DIRECTIVES[head][0] else 'R'};\n"
        for head in cli_io.VERIFY_IDS
    )
    agg = execute_session(parse_session(text))
    assert agg.exit_code() == 0
    assert seen == ["verify_cm_biconditional", "verify_regraded_vanishing",
                    "verify_rees_a_invariant", "verify_rees_transfer",
                    "verify_spread_vanishing", "verify_colon_identities",
                    "verify_colon_identities"]


@pytest.mark.parametrize("directive,key", [
    ("verify thm31 M windw=(0)..(1);", "windw"),
    ("check M foo=bar;", "foo"),
    ("table M window=(0)..(1) k=5;", "k"),
    ("verify lem41 R window=(0)..(1);", "window"),
    ("verify lem45 R weights=0..1;", "weights"),
])
def test_parse_key_the_directive_does_not_read(directive, key):
    text = (
        "ring S = poly(char=default; x0,x1 : deg=(1), weight=1);\n"
        "module M = free(S);\n"
        "ring A = poly(char=default; a,b : deg=(0), weight=1);\n"
        "ideal I = (a, b);\n"
        "module N = free(A);\n"
        "rees R = rees(N; I);\n"
        + directive + "\n"
    )
    with pytest.raises(SessionDiagnostics) as exc:
        parse_session(text)
    (d,) = exc.value.diagnostics
    assert d.line == 7 and d.col == directive.index(key) + 1
    assert f"does not read '{key}'" in d.message


def test_main_rejects_a_misspelled_key(tmp_path, capsys):
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL.replace("verify lem41 R;", "verify lem45 R bund=(1);"))
    assert main(["parse", str(f)]) == 2
    assert f"{f}:5:16: 'lem45' does not read 'bund'" in capsys.readouterr().out
    assert main(["run", str(f)]) == 2


def test_main_rejects_a_repeated_key(tmp_path, capsys):
    f = tmp_path / "s.mgcm"
    directive = "verify thm31 M window=(0)..(1) window=(-1)..(0);"
    f.write_text(
        "ring S = poly(char=default; x0,x1 : deg=(1), weight=1);\n"
        "module M = free(S);\n" + directive + "\n"
    )
    assert main(["parse", str(f)]) == 2
    col = directive.rindex("window") + 1
    assert f"{f}:3:{col}: key 'window' given twice" in capsys.readouterr().out
    assert main(["run", str(f)]) == 2


def test_parse_rees_arity():
    text = """\
ring A = poly(char=default; a,b : deg=(0,0), weight=1);
ideal I = (a);
ideal J = (b);
module N = free(A);
rees R = rees(N; I, J);
"""
    with pytest.raises(SessionDiagnostics) as ei:
        parse_session(text)
    assert "exactly one ideal" in str(ei.value)


def test_parse_comments_and_blanks():
    s = parse_session("# header\n\n" + SMALL + "# trailing\n")
    assert len(s.declarations) == 4


# ---------------------------------------------------------------------------
# round trip


def test_round_trip_small():
    s = parse_session(SMALL)
    assert parse_session(print_session(s)) == s


def test_round_trip_shipped_corpus():
    manifest = shipped_manifest_path()
    items = load_manifest(manifest)
    assert len(items) >= 14
    for path, _expected in items:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        s = parse_session(text)
        assert parse_session(print_session(s)) == s, path


# ---------------------------------------------------------------------------
# building and execution


def test_build_char_resolution():
    s = parse_session("ring A = poly(char=default; a : deg=(0), weight=1);")
    assert build_session(s)["A"][1].field.char == 32003
    assert build_session(s, char=101)["A"][1].field.char == 101
    s0 = parse_session("ring A = poly(char=0; a : deg=(0), weight=1);")
    assert build_session(s0, char=101)["A"][1].field.char == 0


def test_execute_session_runs_directives():
    agg = execute_session(parse_session(SMALL), RunFlags(), "t")
    assert [r.verdict for r in agg.entries] == ["holds"]
    assert agg.entries[0].instance == "t:1:lem41:R"
    assert agg.exit_code() == 0


def test_execute_session_only_filter():
    text = SMALL + "verify thm42 R;\n"
    agg = execute_session(parse_session(text), RunFlags(), "t", only=("thm42", None))
    assert [r.theorem for r in agg.entries] == ["thm42"]
    agg = execute_session(parse_session(text), RunFlags(), "t", only=("lem44", "R"))
    assert [r.theorem for r in agg.entries] == ["lem44"]
    with pytest.raises(InputError):
        execute_session(parse_session(text), RunFlags(), "t", only=("lem44", None))


def test_execute_check_and_table():
    text = """\
ring S = poly(char=default; x0,x1 : deg=(1), weight=1);
module M = quotient(S; x0*x1);
check M;
table M i=0..1 window=(-2)..(2);
"""
    agg = execute_session(parse_session(text), RunFlags(), "t")
    assert [r.theorem for r in agg.entries] == ["check", "table"]
    check = agg.entries[0]
    facts = {c.check: c.value for c in check.checks}
    assert facts["dim"] == "1" and facts["cm"] == "True"
    table = agg.entries[1]
    cells = {(c.i, c.degree): c.value for c in table.checks}
    # two points: constant sections in high twists
    assert cells[(0, (2,))] == "2"
    assert cells[(1, (2,))] == "0"


def test_diagonal_declaration_matches_direct_rees_module():
    # Q's Rees module equals R's although its ideals differ; D must still be
    # the diagonal of R, the Rees module of I*J = (a^2, a*b).
    text = """\
ring A = poly(char=default; a,b : deg=(0), weight=1);
ideal I = (a);
ideal J = (a, b);
ideal K = (b);
ideal P = (a^2, a*b);
module N = free(A);
multirees R = rees(N; I, J);
multirees Q = rees(N; K, J);
diagonal D = diagonal(R);
rees E = rees(N; P);
check D;
check E;
"""
    session = parse_session(text)
    objs = build_session(session)
    assert objs["Q"][1].module == objs["R"][1].module
    agg = execute_session(session, RunFlags(), "t")
    d_check, e_check = agg.entries
    assert d_check.checks == e_check.checks
    assert {c.check: c.value for c in d_check.checks}["cm"] == "True"


# ---------------------------------------------------------------------------
# report emission


def test_emit_empty_aggregate_frame():
    empty = AggregateReport(())
    assert emit_report(empty, "json") == b'{"entries":[],"summary":{"pass":0,"fail":0}}'


def test_emit_deterministic():
    agg = execute_session(parse_session(SMALL), RunFlags(), "t")
    assert emit_report(agg, "json") == emit_report(agg, "json")
    assert emit_report(agg, "csv") == emit_report(agg, "csv")


def test_emit_csv_shape():
    rep = VerificationReport(
        "demo", "inst", (), None, True, "holds", ((-1, -1), (1, 1)), 7, (),
        (CheckRecord("cell", 2, (0, -3), "5", "5", "pass", "duality"),),
    )
    text = emit_report(rep, "csv").decode()
    lines = text.splitlines()
    assert lines[0] == "object,check,i,degree,value,expected,verdict,mode,window"
    assert lines[1] == "inst,cell,2,(0|-3),5,5,pass,duality,(-1|-1)..(1|1)"
    assert lines[2].startswith("inst,verdict,,,holds")


def test_emit_unknown_format():
    with pytest.raises(InputError):
        emit_report(AggregateReport(()), "yaml")


# ---------------------------------------------------------------------------
# cache


def test_cache_roundtrip(tmp_path):
    d = str(tmp_path)
    assert cache_fetch(d, "key1") is None
    cache_store(d, "key1", {"x": 1})
    assert cache_fetch(d, "key1") == {"x": 1}


def test_cache_collision_is_miss(tmp_path):
    d = str(tmp_path)
    cache_store(d, "key1", {"x": 1})
    path = _cache_path(d, "key1")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["key"] = "other-material"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert cache_fetch(d, "key1") is None


def test_cache_corrupt_file_is_miss(tmp_path):
    d = str(tmp_path)
    cache_store(d, "key1", {"x": 1})
    with open(_cache_path(d, "key1"), "w", encoding="utf-8") as fh:
        fh.write("not json")
    assert cache_fetch(d, "key1") is None


def test_cache_non_object_entry_is_miss(tmp_path, capsys):
    # valid JSON that is not an object is as corrupt as invalid JSON: the
    # corpus run recomputes the entry and overwrites it
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"path": "s.mgcm", "expected": "holds"}]))
    d = str(tmp_path / "c")
    os.makedirs(d)
    material = cli_io._file_key_material(SMALL, RunFlags(), "corpus-entry")
    with open(_cache_path(d, material), "w", encoding="utf-8") as fh:
        fh.write("[]")
    assert cache_fetch(d, material) is None
    assert main(["corpus", "--manifest", str(manifest), "--cache-dir", d]) == 0
    assert json.loads(capsys.readouterr().out)["summary"] == {"pass": 1, "fail": 0}
    assert cache_fetch(d, material)["verdict"] == "holds"


def test_cache_entry_that_is_not_a_corpus_result_is_miss(tmp_path, capsys):
    # an object under the right key without instance, verdict and detail is
    # recomputed and overwritten, not read
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"path": "s.mgcm", "expected": "holds"}]))
    d = str(tmp_path / "c")
    material = cli_io._file_key_material(SMALL, RunFlags(), "corpus-entry")
    cache_store(d, material, {"verdict": "holds"})
    assert main(["corpus", "--manifest", str(manifest), "--cache-dir", d]) == 0
    assert json.loads(capsys.readouterr().out)["summary"] == {"pass": 1, "fail": 0}
    assert cache_fetch(d, material)["instance"] == "s"


def test_cache_keyed_on_source_digest(monkeypatch, tmp_path):
    d = str(tmp_path)
    flags = RunFlags()
    cache_store(d, cli_io._file_key_material(SMALL, flags, "corpus-entry"), {"x": 1})
    assert cache_fetch(d, cli_io._file_key_material(SMALL, flags, "corpus-entry")) == {"x": 1}
    assert len(cli_io._source_digest()) == 64
    monkeypatch.setattr(cli_io, "_SOURCE_DIGEST", "0" * 64)
    assert cache_fetch(d, cli_io._file_key_material(SMALL, flags, "corpus-entry")) is None


def test_cache_directory_env(monkeypatch, tmp_path):
    monkeypatch.setenv("MGCM_CACHE_DIR", str(tmp_path))
    assert cache_directory(None) == str(tmp_path)
    assert cache_directory("/explicit") == "/explicit"
    monkeypatch.delenv("MGCM_CACHE_DIR")
    assert cache_directory(None) == ".mgcm-cache"


def test_unusable_cache_directory_is_input_error(tmp_path, monkeypatch, capsys):
    # a regular file where the cache directory should be
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"path": "s.mgcm", "expected": "holds"}]))
    (tmp_path / "notadir").write_text("")
    bad = str(tmp_path / "notadir" / "sub")
    with pytest.raises(InputError, match="cannot write cache directory"):
        cache_store(bad, "key1", {"x": 1})
    assert main(["corpus", "--manifest", str(manifest), "--cache-dir", bad]) == 2
    assert "cannot write cache directory" in capsys.readouterr().err
    monkeypatch.setenv("MGCM_CACHE_DIR", bad)
    assert main(["corpus", "--manifest", str(manifest)]) == 2
    assert "cannot write cache directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command line


def test_main_parse_ok(tmp_path, capsys):
    f = tmp_path / "ok.mgcm"
    f.write_text(SMALL)
    assert main(["parse", str(f)]) == 0
    assert "ok" in capsys.readouterr().out


def test_main_parse_diagnostics(tmp_path, capsys):
    f = tmp_path / "bad.mgcm"
    f.write_text("ideal I = (a, );\n")
    assert main(["parse", str(f)]) == 2
    out = capsys.readouterr().out
    assert "empty generator at line 1" in out
    assert str(f) in out


def test_main_parse_reads_on_past_an_unreadable_file(tmp_path, capsys):
    ok, missing, bad = (tmp_path / name for name in ("ok.mgcm", "missing.mgcm", "bad.mgcm"))
    ok.write_text(SMALL)
    bad.write_text("ideal I = (a, );\n")
    assert main(["parse", str(ok), str(missing), str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == f"ok {ok}"
    assert "empty generator at line 1" in out and str(bad) in out
    assert err.startswith("error: cannot read") and "missing.mgcm" in err


def test_main_run(tmp_path, capsys):
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL)
    assert main(["run", str(f)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"] == {"pass": 1, "fail": 0}
    assert data["entries"][0]["verdict"] == "holds"


def test_main_table_of_a_twisted_line_bundle_in_csv(tmp_path, capsys):
    # h^1(O(-7, 0)) on P^1 x P^1 is h^1(O_P1(-7)) * h^0(O_P1) = 6; at
    # (0, 0) levels 1-3 of the colimit read 0, and the certified level is 6
    f = tmp_path / "s.mgcm"
    f.write_text("""\
ring S = poly(char=default; x0,x1 : deg=(1,0), weight=1; y0,y1 : deg=(0,1), weight=1);
module F = free(S; (7,0):7);
table F i=0..2 window=(0,0)..(1,0);
""")
    assert main(["run", str(f), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    h1 = {row[3]: row[4] for row in rows if row[1:3] == ["sheaf-dim", "1"]}
    assert h1 == {"(0|0)": "6", "(1|0)": "5"}
    # the CSV bytes end in the verdict row's newline, with no empty row after
    assert rows[-1][1] == "verdict"


def test_main_run_malformed(tmp_path, capsys):
    f = tmp_path / "bad.mgcm"
    f.write_text("nonsense;\n")
    assert main(["run", str(f)]) == 2


def test_main_verify_synthesizes_target(tmp_path, capsys):
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL)
    assert main(["verify", "thm42", str(f), "R"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"][0]["theorem"] == "thm42"


@pytest.mark.parametrize("theorem,target,need", [
    (head, "S" if "module" in kinds else "M", " or ".join(kinds))
    for head, (kinds, _keys, _run) in cli_io.DIRECTIVES.items() if head in cli_io.VERIFY_IDS
])
def test_main_verify_ad_hoc_target_of_the_wrong_kind_is_input_error(
    theorem, target, need, capsys
):
    # a target named on the command line obeys the parser's target-kind rule,
    # with the parser's message
    path = os.path.join(os.path.dirname(shipped_manifest_path()), "cox-p1-free.mgcm")
    assert main(["verify", theorem, path, target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: '{theorem}' expects a {need} target")
    with open(path) as fh:
        text = fh.read()
    with pytest.raises(SessionDiagnostics) as ei:
        parse_session(text + f"verify {theorem} {target};\n")
    assert err == f"error: {ei.value.diagnostics[-1].message}\n"


def test_main_verify_missing_directive(tmp_path, capsys):
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL)
    assert main(["verify", "thm42", str(f)]) == 2


def test_main_missing_file_is_input_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.mgcm")
    for argv in (["parse", missing], ["run", missing], ["verify", "thm42", missing],
                 ["corpus", "--manifest", str(tmp_path / "nope.json")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and "nope" in err, argv


@pytest.mark.parametrize("text", ["not json", '{"a": 1}', '[{"path": "s.mgcm"}]'],
                         ids=["not-json", "not-a-list", "row-without-expected"])
def test_main_malformed_manifest_is_input_error(tmp_path, capsys, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    assert main(["corpus", "--manifest", str(manifest), "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest") and "manifest.json" in err


def test_main_bad_window_flag(tmp_path, capsys):
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL)
    assert main(["run", str(f), "--window", "oops"]) == 2


def test_main_run_window_of_the_wrong_rank(tmp_path, capsys):
    f = tmp_path / "s.mgcm"
    session = (
        "ring S = poly(char=default; x0,x1 : deg=(1), weight=1);\n"
        "module M = free(S);\n"
        "verify thm31 M{};\n"
    )
    table = session.replace("verify thm31", "table")
    for text, argv in ((session.format(" window=(0,0)..(1,1)"), []),
                       (session.format(""), ["--window", "(0,0)..(1,1)"]),
                       (table.format(" window=(0,0)..(1,1)"), [])):
        f.write_text(text)
        assert main(["run", str(f)] + argv) == 2
        entry = json.loads(capsys.readouterr().out)["entries"][0]
        assert entry["verdict"] == "input-error"
        assert entry["checks"][0]["value"] == (
            "window (0, 0)..(1, 1) does not have the module's rank 1")


def test_main_run_window_flag_reaches_table(tmp_path, capsys):
    # the flag narrows the table as it does thm31; a `window=` key still wins
    f = tmp_path / "s.mgcm"
    f.write_text(
        "ring S = poly(char=default; x0,x1 : deg=(1), weight=1);\n"
        "module M = free(S);\n"
        "table M;\n"
        "verify thm31 M;\n"
        "table M window=(1)..(1);\n"
    )
    assert main(["run", str(f), "--window", "(0)..(0)", "--format", "csv"]) == 0
    rows = [r for r in csv.DictReader(io.StringIO(capsys.readouterr().out))
            if r["check"] == "sheaf-dim"]
    assert [(r["i"], r["degree"]) for r in rows if ":1:table:" in r["object"]] == \
        [("0", "(0)"), ("1", "(0)"), ("2", "(0)")]
    assert {r["degree"] for r in rows if ":3:table:" in r["object"]} == {"(1)"}


def test_main_run_zero_denominator(tmp_path, capsys):
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL.replace("ideal I = (a, b);", "ideal I = (a/32003, b);"))
    assert main(["run", str(f)]) == 2
    assert "denominator 32003 is zero" in capsys.readouterr().err


def test_empty_range_is_input_error(tmp_path, capsys):
    assert list(cli_io._parse_range_arg("-1..1")) == [-1, 0, 1]
    assert list(cli_io._parse_range_arg("2..2")) == [2]
    for text in ("3..1", "0..-1"):
        with pytest.raises(InputError, match="empty range"):
            cli_io._parse_range_arg(text)
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL.replace("verify lem41 R;", "verify lem44 R weights=3..1;"))
    assert main(["run", str(f)]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["entries"][0]["verdict"] == "input-error"


def test_negative_blowup_exponent_is_input_error_in_any_window(tmp_path, capsys):
    # no degree of window (0)..(2) lies below v = (0): unless the exponents are
    # refused before the loop over those degrees, the verdict is a vacuous holds
    f = tmp_path / "s.mgcm"
    for window in ("(0)..(2)", "(-2)..(2)"):
        f.write_text(
            "ring S = poly(char=default; x0,x1 : deg=(1), weight=1);\n"
            "module M = free(S);\n"
            f"verify lem-vanish M window={window} k=-3..-1;\n"
        )
        assert main(["run", str(f)]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["entries"][0]["verdict"] == "input-error"
        assert data["entries"][0]["checks"][0]["value"] == "blow-up exponents must be nonnegative"


def test_corpus_files_expected_mismatch(tmp_path):
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL)
    report, code = run_corpus_files([(str(f), "holds")], RunFlags(), None)
    assert code == 0 and report["summary"] == {"pass": 1, "fail": 0}
    report, code = run_corpus_files([(str(f), "violated")], RunFlags(), None)
    assert code == 1 and report["summary"] == {"pass": 0, "fail": 1}


def test_corpus_files_malformed_entry(tmp_path):
    f = tmp_path / "bad.mgcm"
    f.write_text("ideal I = (a, );\n")
    report, code = run_corpus_files([(str(f), "input-error")], RunFlags(), None)
    assert code == 0 and report["entries"][0]["ok"]
    report, code = run_corpus_files([(str(f), "holds")], RunFlags(), None)
    assert code == 2


def test_corpus_cache_byte_identity(tmp_path):
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL)
    cache = str(tmp_path / "cache")
    items = [(str(f), "holds")]
    cold, code1 = run_corpus_files(items, RunFlags(), cache)
    warm, code2 = run_corpus_files(items, RunFlags(), cache)
    assert code1 == code2 == 0
    assert emit_report(cold, "json") == emit_report(warm, "json")
    assert os.listdir(cache)


def test_main_corpus_with_manifest(tmp_path, capsys):
    f = tmp_path / "s.mgcm"
    f.write_text(SMALL)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"path": "s.mgcm", "expected": "holds"}]))
    code = main(["corpus", "--manifest", str(manifest), "--cache-dir", str(tmp_path / "c")])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"] == {"pass": 1, "fail": 0}


def test_cache_flags_belong_to_corpus_only(tmp_path, capsys):
    # only corpus entries are cached, so run and verify refuse the cache flags
    path = os.path.join(os.path.dirname(shipped_manifest_path()), "cox-p1-free.mgcm")
    for argv in (["run", path], ["verify", "thm31", path]):
        for flag in (["--cache-dir", str(tmp_path)], ["--no-cache"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + flag)
            assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_run_large_prime(capsys):
    # p^2 exceeds 2^63: ranks must stay exact past machine-word products
    path = os.path.join(os.path.dirname(shipped_manifest_path()), "cox-p1p1-shift.mgcm")
    assert main(["run", path, "--char", "4294967311"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"][0]["verdict"] == "holds"


def test_diagnostic_render():
    d = Diagnostic(3, 7, "boom")
    assert d.render() == "3:7: boom"
    assert d.render("f.mgcm") == "f.mgcm:3:7: boom"


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def test_run_reports_match_golden_bytes(capsysbinary):
    # tests/golden/<stem>.json holds the `mgcm run --format json` bytes of each
    # shipped session; a change that alters a report on purpose rewrites them
    # (criterion6.json beside them is the criterion-6 table, see test_acceptance)
    corpus_dir = os.path.dirname(shipped_manifest_path())
    stems = sorted(n[:-5] for n in os.listdir(corpus_dir) if n.endswith(".mgcm"))
    golden = sorted(n[:-5] for n in os.listdir(GOLDEN_DIR) if n != "criterion6.json")
    assert golden == stems
    changed = []
    for stem in stems:
        assert main(["run", os.path.join(corpus_dir, stem + ".mgcm")]) == 0
        with open(os.path.join(GOLDEN_DIR, stem + ".json"), "rb") as fh:
            if capsysbinary.readouterr().out != fh.read():
                changed.append(stem)
    assert changed == []
