import pytest

import extbound as eb
from extbound import Corpus, PdBound, PdFinite


def test_left_bound_loop2(corpora):
    corpus = corpora["LOOP2"]
    lab = eb.left_bound(corpus.get("S1"), corpus, 10)
    assert lab.exact and lab.value == 0
    assert lab.excluded_pairs == ("S1",)  # (S, S) never vanishes


def test_left_bound_nak3(corpora):
    corpus = corpora["NAK3"]
    lab = eb.left_bound(corpus.get("S1"), corpus, 10)
    assert lab.exact and lab.value == 2


def test_left_bound_projective(corpora):
    for corpus in corpora.values():
        lab = eb.left_bound(eb.regular_module(corpus.algebra), corpus, 10)
        assert lab.exact and lab.value == 0


def test_left_bound_mismatch(corpora, a2):
    with pytest.raises(eb.AlgebraMismatchError):
        eb.left_bound(eb.simple_module(a2, 0), corpora["LOOP2"], 5)


def test_right_bound_routes_agree(corpora):
    for corpus in corpora.values():
        for _, rep in corpus:
            via_dual = eb.right_bound(rep, corpus, 10)
            direct = eb.right_bound_direct(rep, corpus, 10)
            assert via_dual.exact and direct.exact
            assert via_dual.value == direct.value


def test_corpus_bounds_right_bounds_are_right_bound(corpora):
    # corpus_bounds takes each rab from one shared dual corpus
    for corpus in corpora.values():
        for cutoff in (4, 10):
            report = eb.corpus_bounds(corpus, cutoff)
            for (name, rep), (row_name, _, rab, _, idim) in zip(corpus, report.member_stats):
                assert row_name == name
                assert rab == eb.right_bound(rep, corpus, cutoff)
                assert idim == eb.injective_dimension(rep, cutoff)


def test_corpus_bounds_loop2(corpora):
    report = eb.corpus_bounds(corpora["LOOP2"], 10)
    assert report.gab == eb.BoundValue(True, 0)
    assert report.fpd == eb.BoundValue(True, 0)
    assert report.flab == eb.BoundValue(True, 0)
    assert report.contains_regular


def test_corpus_bounds_nak3(corpora):
    report = eb.corpus_bounds(corpora["NAK3"], 10)
    assert report.gab == eb.BoundValue(True, 2)
    assert report.fpd == eb.BoundValue(True, 2)


def test_corpus_bounds_empty(nak3):
    report = eb.corpus_bounds(Corpus(nak3, ()), 10)
    for value in (report.glab, report.grab, report.gab, report.fpd,
                  report.fid, report.flab, report.frab):
        assert value == eb.BoundValue(True, 0)
    assert not report.contains_regular


def test_undetermined_pairs_poison_exactness(corpora):
    corpus = corpora["CNAK2"]
    lab = eb.left_bound(corpus.get("S1"), corpus, 1)
    assert not lab.exact and lab.undetermined_pairs


def test_onset_against_regular(corpora):
    nak = corpora["NAK3"]
    onset = eb.onset_against_regular(nak.get("S1"), 10)
    assert onset.status == "vanishes" and onset.onset == 2
    loop = corpora["LOOP2"]
    onset = eb.onset_against_regular(loop.get("S1"), 10)
    assert onset.status == "vanishes" and onset.onset == 0


def test_regular_onset_formula(corpora):
    nak = corpora["NAK3"]
    assert eb.check_regular_onset_formula(nak.get("S1"), nak, 10).status == "pass"
    loop = corpora["LOOP2"]
    assert eb.check_regular_onset_formula(loop.get("S1"), loop, 10).status == "pass"


def test_regular_onset_formula_not_applicable(corpora, loop2):
    # a corpus without the regular module does not satisfy the hypotheses
    partial = Corpus(loop2, (("S1", corpora["LOOP2"].get("S1")),))
    outcome = eb.check_regular_onset_formula(corpora["LOOP2"].get("S1"), partial, 10)
    assert outcome.status == "not_applicable"
    # and an uncertifiable cutoff is also not applicable
    cn = corpora["CNAK2"]
    outcome = eb.check_regular_onset_formula(cn.get("S1"), cn, 1)
    assert outcome.status == "not_applicable"


def test_finite_pd_certificate(corpora):
    nak = corpora["NAK3"]
    cert = eb.finite_pd_certificate(nak.get("S1"), 10)
    assert cert == PdBound(2)
    loop = corpora["LOOP2"]
    cert = eb.finite_pd_certificate(loop.get("S1"), 10)
    assert cert.kind == "not_applicable"
    cert = eb.finite_pd_certificate(eb.regular_module(loop.algebra), 10)
    assert cert == PdBound(0)


def test_finite_pd_certificate_matches_pd_everywhere(corpora):
    for corpus in corpora.values():
        for _, rep in corpus:
            cert = eb.finite_pd_certificate(rep, 10)
            if isinstance(cert, PdBound):
                pd_res = eb.projective_dimension(rep, 10)
                assert isinstance(pd_res, PdFinite) and pd_res.value == cert.value


def test_finite_pd_certificate_of_the_zero_module(corpora):
    # the zero module has pd -1, and its certificate must say so
    for corpus in corpora.values():
        zero = eb.zero_representation(corpus.algebra)
        assert eb.projective_dimension(zero, 4) == PdFinite(-1)
        assert eb.finite_pd_certificate(zero, 4) == PdBound(-1)


def test_property_suite_on_a_corpus_with_a_zero_member(corpora):
    nak = corpora["NAK3"]
    zero = eb.zero_representation(nak.algebra)
    corpus = Corpus(nak.algebra, nak.members + (("Z", zero),), dict(nak.provenance))
    report = eb.verify_bound_properties(corpus, 8)
    assert not report.failed, [s.to_json() for s in report.failed]
    statement = next(s for s in report.statements
                     if s.statement == "finite-pd-certificate-matches-pd")
    assert statement.detail == f"{len(corpus)} applicable members"


def test_ultimately_closed(corpora):
    loop = corpora["LOOP2"]
    uc = eb.ultimately_closed_at(loop.get("S1"), 10)
    assert uc.at == 1 and not uc.via_zero_syzygy
    cn = corpora["CNAK2"]
    uc = eb.ultimately_closed_at(cn.get("S1"), 10)
    assert uc.at == 2 and not uc.via_zero_syzygy
    nak = corpora["NAK3"]
    uc = eb.ultimately_closed_at(nak.get("S1"), 10)
    assert uc.at == 3 and uc.via_zero_syzygy


def test_strongly_redundant(corpora):
    loop = corpora["LOOP2"]
    assert eb.strongly_redundant_from(loop.get("S1"), 10) == 0
    nak = corpora["NAK3"]
    assert eb.strongly_redundant_from(nak.get("S1"), 10) is None
    cn = corpora["CNAK2"]
    assert eb.strongly_redundant_from(cn.get("S1"), 10) == 0


def test_strong_redundancy_caps_bound(corpora):
    for corpus in corpora.values():
        for name, rep in corpus:
            m = eb.strongly_redundant_from(rep, 10)
            if m is None:
                continue
            lab = eb.left_bound(rep, corpus, 10)
            assert lab.exact and lab.value <= m


def test_verify_bound_properties_all_pass(corpora):
    for name, corpus in corpora.items():
        report = eb.verify_bound_properties(corpus, 12)
        assert not report.failed, f"{name}: {[s.to_json() for s in report.failed]}"


def test_property_report_serializes(corpora):
    report = eb.verify_bound_properties(corpora["A2"], 8)
    data = report.to_json()
    assert data["cutoff"] == 8
    assert all(s["status"] in ("pass", "fail", "skipped")
               for s in data["statements"])


def test_statement_status_of_a_three_valued_check():
    assert [eb.StatementResult.of("s", holds, "d").status
            for holds in (True, False, None)] == ["pass", "fail", "skipped"]


def test_tally_counts_only_decided_checks():
    from extbound.bounds import _tally
    assert _tally([True, None, True]) == (True, 2)
    assert _tally(c for c in (None, False, True)) == (False, 2)
    assert _tally([None, None]) == (True, 0)
    assert _tally([]) == (True, 0)


def test_global_bound_syzygy_depth_without_a_decided_witness_is_skipped(monkeypatch,
                                                                         corpora):
    # no syzygy one step before the depth has an exact bound > 0, but their
    # bounds are inexact: the depth is not decided
    from dataclasses import replace
    from extbound import bounds
    corpus = corpora["NAK3"]
    depth = eb.corpus_bounds(corpus, 12).gab
    assert depth == eb.BoundValue(True, 2)
    honest_syzygy, honest_left_bound = bounds.syzygy, bounds.left_bound
    shallow = []  # the syzygy just taken, when it is one step before the depth

    def syzygy(rep, m):
        out = honest_syzygy(rep, m)
        shallow[:] = [out] if m == depth.value - 1 else []
        return out

    def left_bound(module, corpus, cutoff):
        lab = honest_left_bound(module, corpus, cutoff)
        return replace(lab, exact=False) if shallow and shallow.pop() is module else lab
    monkeypatch.setattr(bounds, "syzygy", syzygy)
    monkeypatch.setattr(bounds, "left_bound", left_bound)
    report = eb.verify_bound_properties(corpus, 12)
    statement, = (s for s in report.statements
                  if s.statement == "global-bound-syzygy-depth")
    assert (statement.status, statement.detail) == ("skipped", "depth 2")


def test_regular_onset_statement_counts_the_applicable_members(corpora):
    for corpus in corpora.values():
        for cutoff in (1, 10):
            statement = next(s for s in eb.verify_bound_properties(corpus, cutoff).statements
                             if s.statement == "regular-onset-formula")
            outcomes = [eb.check_regular_onset_formula(rep, corpus, cutoff)
                        for _, rep in corpus]
            applicable = sum(o.status != "not_applicable" for o in outcomes)
            assert statement.detail == f"{applicable} applicable members"
            assert statement.status == ("fail" if any(o.status == "fail" for o in outcomes)
                                        else "pass")


def test_regular_module_answer_is_the_whole_module_scan(corpora):
    from extbound.bounds import _contains_regular
    from test_homology import _cyclic_nakayama
    corpora = list(corpora.values())
    for vertices, length in ((8, 5), (7, 3)):
        alg = _cyclic_nakayama(vertices, length)
        corpora.append(Corpus(alg, tuple(
            (f"{kind}{v}", build(alg, v)) for kind, build in
            (("S", eb.simple_module), ("P", eb.projective_module)) for v in range(vertices))))
    answers = []
    for corpus in corpora:
        members = corpus.members
        for part in (members, members[:len(members) // 2], members[1:], members[:-1]):
            sub = Corpus(corpus.algebra, part)
            expected = eb.in_add_family(eb.regular_module(sub.algebra),
                                        [rep for _, rep in part]).member
            assert _contains_regular(sub) == expected
            answers.append(expected)
    assert True in answers and False in answers


def _nakayama_corpus(vertices, length, drop=()):
    from test_homology import _cyclic_nakayama
    alg = _cyclic_nakayama(vertices, length)
    return Corpus(alg, tuple(
        (f"{kind}{v}", build(alg, v)) for kind, build in
        (("S", eb.simple_module), ("P", eb.projective_module)) for v in range(vertices)
        if (kind, v) not in drop))


def test_projective_members_need_no_add_test(monkeypatch):
    from extbound import bounds
    asked = []
    honest = bounds.in_add_family

    def counting(rep, family):
        asked.append(rep)
        return honest(rep, family)
    monkeypatch.setattr(bounds, "in_add_family", counting)
    assert bounds._contains_regular(_nakayama_corpus(8, 5))
    assert asked == []
    # P1 is no member, nor a summand of one: only it is tested
    corpus = _nakayama_corpus(8, 5, drop={("P", 1)})
    assert not bounds._contains_regular(corpus)
    assert asked == [eb.projective_module(corpus.algebra, 1)]


def test_direct_sum_bound_builds_no_sum_it_cannot_compare(monkeypatch):
    from extbound import bounds
    built = []
    honest = bounds.direct_sum

    def recording(reps):
        built.append(len(reps))
        return honest(reps)
    monkeypatch.setattr(bounds, "direct_sum", recording)
    # the simples of NAK(8, 5) have syzygy period 16, so their left bounds
    # are not exact at cutoff 12 and no pair of them is compared
    report = eb.verify_bound_properties(_nakayama_corpus(8, 5), 12)
    statement, = (s for s in report.statements if s.statement == "direct-sum-bound")
    assert (statement.status, statement.detail) == ("skipped", "0 pairs")
    assert built == [8]  # the sum of the simples only
