import json

import pytest

import extbound as eb
from extbound.fileio import (
    FileFormatError, algebra_from_json, corpus_from_json,
    corpus_to_json, dumps_canonical, load_algebra, load_corpus, load_module,
    module_from_json, module_to_json, save_algebra, save_corpus, save_module,
)


def test_algebra_roundtrip_bytes(tmp_path, nak3):
    path = tmp_path / "nak3.json"
    save_algebra(nak3, str(path))
    first = path.read_bytes()
    reloaded = load_algebra(str(path))
    assert reloaded is nak3  # registry returns the shared instance
    save_algebra(reloaded, str(path))
    assert path.read_bytes() == first


def test_module_roundtrip_bytes(tmp_path, nak3):
    rep = eb.projective_module(nak3, 0)
    path = tmp_path / "p1.json"
    save_module(rep, str(path), name="P1")
    name, back = load_module(str(path))
    assert name == "P1" and back == rep
    first = path.read_bytes()
    save_module(back, str(path), name="P1")
    assert path.read_bytes() == first


def test_module_file_with_algebra_path(tmp_path, nak3):
    save_algebra(nak3, str(tmp_path / "alg.json"))
    rep = eb.simple_module(nak3, 1)
    data = module_to_json(rep, name="S2", inline_algebra=False,
                          algebra_path="alg.json")
    (tmp_path / "s2.json").write_text(dumps_canonical(data))
    name, back = load_module(str(tmp_path / "s2.json"))
    assert name == "S2" and back == rep


def test_corpus_roundtrip(tmp_path, corpora):
    path = tmp_path / "corpus.json"
    for corpus in corpora.values():
        save_corpus(corpus, str(path))
        back = load_corpus(str(path))
        assert back.names() == corpus.names()
        assert back.provenance == corpus.provenance
        assert all(back.get(n) == corpus.get(n) for n in corpus.names())
        first = path.read_bytes()
        save_corpus(back, str(path))
        assert path.read_bytes() == first


def test_rational_entries_roundtrip(tmp_path):
    field = eb.FieldSpec.rationals()
    quiver = eb.Quiver.build(["1"], [("x", "1", "1")])
    rel = eb.make_relation(field, [(1, quiver.path(["x", "x"]))])
    alg = eb.build_algebra(eb.AlgebraPresentation(field, quiver, (rel,), 2))
    from extbound.exactla import Matrix
    rep = eb.Representation(alg, (2,), (Matrix.from_rows(field, [["0", "0"], ["2/3", "0"]]),))
    path = tmp_path / "m.json"
    save_module(rep, str(path))
    _, back = load_module(str(path))
    assert back == rep
    assert json.loads(path.read_text())["matrices"]["x"][1][0] == "2/3"


def test_bad_files_raise_with_location(tmp_path, nak3):
    bad = {"schema_version": "1", "field": {"p": 101},
           "quiver": {"vertices": ["1"], "arrows": []},
           "relations": [[{"coef": "1", "path": ["nope"]}]],
           "nilpotency_bound": 2}
    with pytest.raises(FileFormatError, match="path"):
        algebra_from_json(bad)
    with pytest.raises(FileFormatError, match="not prime"):
        algebra_from_json({"field": {"p": 6},
                           "quiver": {"vertices": ["1"], "arrows": []},
                           "relations": [], "nilpotency_bound": 1})
    mod = module_to_json(eb.simple_module(nak3, 0))
    mod["dims"]["2"] = 2  # arrow a now needs a 2x1 matrix, file has none
    with pytest.raises(FileFormatError, match="expected 2 rows"):
        module_from_json(mod)
    mod2 = module_to_json(eb.simple_module(nak3, 0))
    del mod2["matrices"]["a"]
    with pytest.raises(FileFormatError, match="missing arrow"):
        module_from_json(mod2)


def test_invalid_json_raises(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError, match="invalid JSON"):
        load_algebra(str(path))


def test_corpus_rejects_duplicate_names(corpora):
    corpus = corpora["A2"]
    data = corpus_to_json(corpus)
    data["modules"].append(dict(data["modules"][0]))
    with pytest.raises(FileFormatError, match="duplicate"):
        corpus_from_json(data)
