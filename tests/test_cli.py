import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

import extbound as eb
from extbound.cli import main
from extbound.fileio import save_algebra, save_module


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ext_example(capsys):
    code, out, _ = run(capsys, "ext", "--module", "builtin:CNAK2:S1",
                       "--against", "builtin:CNAK2:S1", "--max", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["table"]["dims"] == [1, 0, 1, 0, 1]


def test_pd_periodic(capsys):
    code, out, _ = run(capsys, "pd", "--module", "builtin:LOOP2:S1",
                       "--cutoff", "10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == {"kind": "periodic_infinite", "preperiod": 0, "period": 1}


def test_id_command(capsys):
    code, out, _ = run(capsys, "id", "--module", "builtin:LOOP2:P1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"kind": "finite", "value": 0}


def test_onset_undetermined_exit_2(capsys):
    code, _, _ = run(capsys, "onset", "--module", "builtin:CNAK2:S1",
                     "--against", "builtin:CNAK2:S1", "--cutoff", "1")
    assert code == 2


def test_onset_against_regular(capsys):
    code, out, _ = run(capsys, "onset", "--module", "builtin:NAK3:S1",
                       "--against", "regular", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["status"] == "certified_vanishes"
    assert data["result"]["onset"] == 2


def test_ab_command(capsys):
    code, out, _ = run(capsys, "ab", "--module", "builtin:NAK3:S1",
                       "--corpus", "builtin:NAK3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["exact"] and data["result"]["value"] == 2


def test_ab_right_side(capsys):
    code, out, _ = run(capsys, "ab", "--module", "builtin:NAK3:S3",
                       "--corpus", "builtin:NAK3", "--side", "right",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["exact"] and data["result"]["value"] == 2


def test_bounds_csv(capsys):
    # a periodic pd is written with a comma inside it (LOOP2, CNAK2), so
    # such a field must be quoted to keep every row as long as the header
    for name in eb.FIXTURE_NAMES:
        code, out, _ = run(capsys, "bounds", "--corpus", f"builtin:{name}",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["module", "lab", "rab", "pd", "id"]
        assert [row[0] for row in rows[1:]] == eb.fixture_corpus(name).names()
        assert all(len(row) == 5 for row in rows), name


@pytest.mark.parametrize("module,against,cutoff,dims", [
    ("builtin:CNAK2:S1", "builtin:CNAK2:S2", 5, [0, 1, 0, 1, 0, 1]),
    ("builtin:NAK3:S1", "regular", 4, [0, 0, 1, 0, 0]),
    ("builtin:LOOP2:S1", "builtin:LOOP2:S1", 3, [1, 1, 1, 1]),
    ("builtin:A2:S2", "builtin:A2:S1", 0, [0]),
])
def test_ext_csv_bytes(capsys, module, against, cutoff, dims):
    code, out, _ = run(capsys, "ext", "--module", module, "--against", against,
                       "--cutoff", str(cutoff), "--format", "csv")
    assert code == 0
    assert out == "degree,dim\n" + "".join(f"{i},{d}\n" for i, d in enumerate(dims))


def test_resolve_command(capsys):
    code, out, _ = run(capsys, "resolve", "--module", "builtin:NAK3:S1",
                       "--cutoff", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["terminated_at"] == 3
    assert data["multiplicities"][:3] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_algebra_info(capsys, tmp_path, nak3):
    path = tmp_path / "alg.json"
    save_algebra(nak3, str(path))
    code, out, _ = run(capsys, "algebra", "info", "--algebra", str(path),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 5 and data["basis"] == ["e_1", "e_2", "e_3", "a", "b"]


def test_module_check(capsys, tmp_path, nak3):
    path = tmp_path / "m.json"
    save_module(eb.projective_module(nak3, 0), str(path), name="P1")
    code, out, _ = run(capsys, "module", "check", "--module", str(path))
    assert code == 0 and "valid" in out


def test_tilting_command(capsys):
    code, out, _ = run(capsys, "tilting", "--module", "builtin:LOOP2:P1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "tilting"


def test_tilting_chain_export(capsys, tmp_path, a2):
    t_path = tmp_path / "t.json"
    save_module(eb.direct_sum([eb.projective_module(a2, 0),
                               eb.simple_module(a2, 0)]), str(t_path), name="T")
    chain_path = tmp_path / "chain.json"
    code, out, _ = run(capsys, "tilting", "--module", str(t_path),
                       "--export-chain", str(chain_path), "--format", "json")
    assert code == 0
    from extbound.fileio import load_corpus
    chain = load_corpus(str(chain_path))
    assert chain.names() == ["X", "T0", "T1"]
    assert chain.get("X") == eb.regular_module(a2)


def test_wakamatsu_command(capsys):
    code, out, _ = run(capsys, "wakamatsu", "--module", "builtin:LOOP2:P1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "wakamatsu"


def test_ewtc_command(capsys):
    code, out, _ = run(capsys, "ewtc", "--module", "builtin:A2:P1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["status"] in ("confirmed", "not_applicable")


def test_arc_command(capsys):
    code, out, _ = run(capsys, "arc", "--corpus", "builtin:CNAK2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["violations"] == []


def test_gsc_command(capsys):
    code, out, _ = run(capsys, "gsc", "--algebra", "builtin:NAK3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)["report"]
    assert data["id_left"]["value"] == 2 and data["equal"] is True


def test_uc_command(capsys):
    code, out, _ = run(capsys, "uc", "--module", "builtin:LOOP2:S1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ultimately_closed"]["at"] == 1
    assert data["strongly_redundant_from"] == 0


def test_corpus_generation(capsys, tmp_path):
    out_path = tmp_path / "simples.json"
    code, out, _ = run(capsys, "corpus", "--algebra", "builtin:NAK3",
                       "--spec", "simples", "--out", str(out_path),
                       "--format", "json")
    assert code == 0
    from extbound.fileio import load_corpus
    corpus = load_corpus(str(out_path))
    assert corpus.names() == ["S1", "S2", "S3"]


def test_corpus_fixture_indecomposables(capsys, tmp_path):
    out_path = tmp_path / "a2_all.json"
    code, _, _ = run(capsys, "corpus", "--algebra", "builtin:A2",
                     "--spec", "fixture-indecomposables", "--fixture", "A2",
                     "--out", str(out_path), "--format", "json")
    assert code == 0
    from extbound.fileio import load_corpus
    assert load_corpus(str(out_path)).names() == ["S1", "S2", "P1"]


# sha256 of each corpus file as the package used to ship it
_FIXTURE_CORPUS_SHA256 = {
    "A2": "3820e52bf9d03fe58eebd9a68e14e271ea54dce4186001c3c3499fd5bcaeb178",
    "LOOP2": "a6b09319f19f9b2479b9256f345d694f4ac22d4cb33df736b4b413382f7ef393",
    "NAK3": "b6e60e12daf4bd87550236c8c8daf3458ad9b440e7fb9b43663748966498a909",
    "CNAK2": "a88824dc881c66da8b3be883754d5ae54b45bcdeb2ac1b8723afc4abc46f9572",
}


def test_fixture_corpus_files_keep_their_bytes(capsys, tmp_path):
    import hashlib
    for name, digest in _FIXTURE_CORPUS_SHA256.items():
        out_path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "corpus", "--algebra", f"builtin:{name}",
                         "--spec", "fixture-indecomposables", "--fixture", name,
                         "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("argv", [
    ["--spec", "fixture-indecomposables", "--fixture", "NAK3"],
    ["--spec", "syzygy-closure", "--seed-module", "builtin:NAK3:S1"],
], ids=["fixture", "seed-module"])
def test_corpus_over_another_algebra_exit_3(capsys, tmp_path, argv):
    out_path = tmp_path / "f.json"
    code, _, err = run(capsys, "corpus", "--algebra", "builtin:A2", *argv,
                       "--out", str(out_path))
    assert code == 3 and "error:" in err and "different algebra" in err
    assert not out_path.exists()


def test_corpus_syzygy_closure(capsys, tmp_path, nak3):
    seed_path = tmp_path / "s1.json"
    save_module(eb.simple_module(nak3, 0), str(seed_path), name="S1")
    out_path = tmp_path / "closure.json"
    code, out, _ = run(capsys, "corpus", "--algebra", "builtin:NAK3",
                       "--spec", "syzygy-closure", "--seed-module", str(seed_path),
                       "--depth", "3", "--out", str(out_path), "--format", "json")
    assert code == 0
    from extbound.fileio import load_corpus
    corpus = load_corpus(str(out_path))
    assert [rep.dims for _, rep in corpus] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_verify_all_fixtures(capsys):
    code, out, _ = run(capsys, "verify", "--fixtures", "all", "--cutoff", "12",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["fail"] == 0
    assert data["summary"]["pass"] > 0


@pytest.mark.parametrize("cutoff", [1, 2, 3, 6, 12])
def test_verify_undecided_statements_never_fail(capsys, cutoff):
    # a short window or chain leaves verdicts undetermined: skipped, not failed
    for maxlen in (0, 1, 8):
        code, out, _ = run(capsys, "verify", "--fixtures", "all", "--cutoff", str(cutoff),
                           "--maxlen", str(maxlen), "--format", "json")
        assert (code, json.loads(out)["summary"]["fail"]) == (0, 0), maxlen


def test_verify_maxlen_zero_decides_wakamatsu(capsys):
    # the regular module is its own chain of length 0, so maxlen 0 decides
    # Wakamatsu exactly as it decides tilting
    code, out, _ = run(capsys, "verify", "--fixtures", "all", "--cutoff", "12",
                       "--maxlen", "0", "--format", "json")
    data = json.loads(out)
    assert code == 0
    for name in eb.FIXTURE_NAMES:
        status = {s["statement"]: s["status"] for s in data["fixtures"][name]["statements"]}
        assert status["regular-module-is-tilting"] == "pass", name
        assert status["regular-module-is-wakamatsu"] == "pass", name
    assert data["summary"] == {"fail": 0, "pass": 100, "skipped": 2}


def test_verify_undecided_gorenstein_symmetry_is_skipped(capsys):
    code, out, _ = run(capsys, "verify", "--fixtures", "NAK3", "--cutoff", "1",
                       "--format", "json")
    statement, = (s for s in json.loads(out)["fixtures"]["NAK3"]["statements"]
                  if s["statement"] == "gorenstein-symmetry-instance")
    assert code == 0
    assert statement == {"statement": "gorenstein-symmetry-instance", "status": "skipped",
                         "detail": "left AtLeast(1), right AtLeast(1)"}


def test_verify_deterministic_bytes(capsys):
    _, first, _ = run(capsys, "verify", "--fixtures", "A2", "--cutoff", "8",
                      "--format", "json")
    _, second, _ = run(capsys, "verify", "--fixtures", "A2", "--cutoff", "8",
                       "--format", "json")
    assert first == second


def test_verify_all_matches_golden_bytes(capsys):
    # the committed stdout of this command; refactors must keep it byte for byte
    golden = (Path(__file__).parent / "data" / "verify_fixtures_all_c12.json").read_text()
    code, out, _ = run(capsys, "verify", "--fixtures", "all", "--cutoff", "12",
                       "--format", "json")
    assert code == 0
    assert out == golden
    # every computation is deterministic: --seed is only echoed
    code, out, _ = run(capsys, "verify", "--fixtures", "all", "--cutoff", "12",
                       "--format", "json", "--seed", "4242")
    assert code == 0
    assert out.replace('"seed": 4242', '"seed": 0') == golden


def test_malformed_file_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "pd", "--module", str(path))
    assert code == 3 and "error:" in err


def test_usage_errors_exit_3_not_undetermined(capsys):
    # exit 2 is reserved for "undetermined at the cutoff"
    for bad in (["--cutoff", "abc"], ["--format", "xml"]):
        with pytest.raises(SystemExit) as exc:
            main(["pd", "--module", "builtin:LOOP2:S1", *bad])
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["pd", "--help"])
    assert exc.value.code == 0


_CUTOFF_COMMANDS = {
    "resolve": (0, ["--module", "builtin:A2:S1"]),
    "ext": (0, ["--module", "builtin:A2:S1", "--against", "regular"]),
    "pd": (1, ["--module", "builtin:A2:S1"]),
    "id": (1, ["--module", "builtin:A2:S1"]),
    "onset": (1, ["--module", "builtin:A2:S1", "--against", "regular"]),
    "ab": (1, ["--module", "builtin:A2:S1", "--corpus", "builtin:A2"]),
    "bounds": (1, ["--corpus", "builtin:A2"]),
    "tilting": (1, ["--module", "builtin:A2:S1"]),
    "wakamatsu": (1, ["--module", "builtin:A2:S1"]),
    "ewtc": (1, ["--module", "builtin:A2:S1"]),
    "arc": (1, ["--corpus", "builtin:A2"]),
    "gsc": (1, ["--algebra", "builtin:A2"]),
    "uc": (1, ["--module", "builtin:A2:S1"]),
    "verify": (1, ["--fixtures", "A2"]),
}


_CORPUS = ["corpus", "--algebra", "builtin:NAK3", "--out", "unused.json"]

_BELOW_MINIMUM = [
    pytest.param([c, *args, "--cutoff", str(minimum - off)], f"must be >= {minimum}",
                 id=f"{c}-{off}")
    for c, (minimum, args) in _CUTOFF_COMMANDS.items() for off in (1, 2)
] + [
    pytest.param([c, "--module", "builtin:A2:S1", "--maxlen", "-1"], "must be >= 0",
                 id=f"{c}-maxlen")
    for c in ("tilting", "wakamatsu", "ewtc")
] + [
    pytest.param(["verify", "--fixtures", "A2", "--maxlen", "-1"], "must be >= 0",
                 id="verify-maxlen"),
    pytest.param([*_CORPUS, "--spec", "syzygy-closure"],
                 "syzygy-closure needs --seed-module", id="corpus-no-seed-module"),
    pytest.param([*_CORPUS, "--spec", "fixture-indecomposables"],
                 "fixture-indecomposables needs --fixture", id="corpus-no-fixture"),
    pytest.param([*_CORPUS, "--spec", "syzygy-closure", "--seed-module", "s.json",
                  "--depth", "-1"], "must be >= 0", id="corpus-depth"),
]


@pytest.mark.parametrize("argv,message", _BELOW_MINIMUM)
def test_cutoff_below_minimum_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resolve", "ext", "pd", "gsc"])
def test_cutoff_at_minimum_runs(capsys, command):
    minimum, args = _CUTOFF_COMMANDS[command]
    code, out, _ = run(capsys, command, *args, "--cutoff", str(minimum), "--format", "json")
    assert code in (0, 2) and json.loads(out)["cutoff"] == minimum


def test_unknown_fixture_exit_3(capsys):
    code, _, err = run(capsys, "gsc", "--algebra", "builtin:NOPE")
    assert code == 3 and "error:" in err


def test_unknown_fixture_corpus_exit_3(capsys):
    code, _, err = run(capsys, "ab", "--module", "builtin:NAK3:S1",
                       "--corpus", "builtin:NOPE", "--format", "json")
    assert code == 3 and "error: unknown fixture 'NOPE'" in err


def test_unknown_corpus_member_exit_3(capsys):
    code, _, err = run(capsys, "pd", "--module", "builtin:NAK3:S9")
    assert code == 3 and "error: unknown corpus member 'S9'" in err


def test_missing_or_wrongly_typed_json_field_exit_3(capsys, tmp_path, nak3):
    path = tmp_path / "module.json"
    save_module(eb.simple_module(nak3, 0), str(path), name="S1")
    good = path.read_text()

    def run_edited(edit):
        data = json.loads(good)
        edit(data)
        path.write_text(json.dumps(data))
        return run(capsys, "pd", "--module", str(path))

    code, _, err = run_edited(lambda d: d.pop("dims"))
    assert code == 3 and "dims: expected an object" in err
    code, _, err = run_edited(lambda d: d["algebra"]["quiver"].update(arrows=None))
    assert code == 3 and "quiver.arrows: expected a list" in err
    code, _, err = run_edited(
        lambda d: d["algebra"].update(relations=[[{"coef": 1.5, "path": ["a", "b"]}]]))
    assert code == 3 and "coef: expected an integer" in err


def test_internal_key_error_is_not_an_input_error(monkeypatch):
    from extbound import cli

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "projective_dimension", broken)
    with pytest.raises(KeyError):
        main(["pd", "--module", "builtin:NAK3:S1"])


def _help_sections():
    """(words, text) for each parser in data/cli_help.txt, the --help output of
    the top level, both groups and every command as recorded at 80 columns."""
    text = (Path(__file__).parent / "data" / "cli_help.txt").read_text()
    sections = []
    for chunk in text.split("### extbound ")[1:]:
        header, _, body = chunk.partition("\n")
        sections.append((header.split()[:-1], body))
    return sections


def _help_of(parse, words):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
        parse([*words, "--help"])
    assert exc.value.code == 0
    return buf.getvalue()


def test_help_sections_cover_every_parser():
    from extbound.cli import _COMMANDS
    assert [words for words, _ in _help_sections()] == \
        [[]] + [list(row[0]) for row in _COMMANDS]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help text recorded with Python 3.11's argparse")
def test_help_matches_the_recorded_text(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for words, recorded in _help_sections():
        assert _help_of(main, words) == recorded, words


def test_parser_built_for_one_command_helps_as_the_whole_parser(monkeypatch):
    # main builds only the arguments of the command argv names; the help of
    # every parser must read as it does with all commands built
    from extbound.cli import build_parser
    monkeypatch.setenv("COLUMNS", "80")
    whole = build_parser()
    for words, _ in _help_sections():
        assert _help_of(main, words) == _help_of(whole.parse_args, words), words


def test_verify_table_matches_golden_text(capsys):
    golden = (Path(__file__).parent / "data" / "verify_fixtures_all_c12.txt").read_text()
    code, out, _ = run(capsys, "verify", "--fixtures", "all", "--cutoff", "12")
    assert code == 0
    assert out == golden


def test_corpus_injectives_round_trips(capsys, tmp_path, nak3):
    from extbound.fileio import load_corpus
    out_path = tmp_path / "injectives.json"
    code, out, _ = run(capsys, "corpus", "--algebra", "builtin:NAK3",
                       "--spec", "injectives", "--out", str(out_path), "--format", "json")
    assert code == 0
    assert json.loads(out)["members"] == ["I1", "I2", "I3"]
    corpus = load_corpus(str(out_path))
    assert corpus.algebra is nak3
    assert [(n, rep) for n, rep in corpus] == \
        [(f"I{v + 1}", eb.injective_module(nak3, v)) for v in range(3)]
