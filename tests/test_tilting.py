from dataclasses import replace

import pytest

import extbound as eb
from extbound import ModuleMap, PdFinite, tilting


@pytest.fixture(scope="module")
def a2_tilting(corpora):
    alg = corpora["A2"].algebra
    return eb.direct_sum([eb.projective_module(alg, 0), eb.simple_module(alg, 0)])


def test_approximation_of_self_is_iso(a2_tilting):
    phi = eb.left_add_approximation(a2_tilting, a2_tilting)
    assert phi.target.dims == a2_tilting.dims
    assert phi.is_invertible


def test_approximation_regular_a2(a2, a2_tilting):
    phi = eb.left_add_approximation(eb.regular_module(a2), a2_tilting)
    assert phi.target.dims == (2, 2)  # two copies of P(1)
    assert phi.is_injective
    coker, _ = eb.cokernel(phi)
    assert eb.is_isomorphic(coker, eb.simple_module(a2, 0)).is_iso


def test_approximation_no_homs(a2):
    s1 = eb.simple_module(a2, 0)
    s2 = eb.simple_module(a2, 1)
    phi = eb.left_add_approximation(s2, s1)
    assert phi.target.is_zero and phi.is_zero


def test_coresolution_length_zero(corpora):
    for corpus in corpora.values():
        reg = eb.regular_module(corpus.algebra)
        result = eb.coresolution_in_add(reg, reg, 8)
        assert result.success and result.length == 0 and result.verify()


def test_coresolution_a2(a2, a2_tilting):
    result = eb.coresolution_in_add(eb.regular_module(a2), a2_tilting, 8)
    assert result.success and result.length == 1
    assert [list(t.dims) for t, _ in result.terms] == [[2, 2], [1, 0]]
    assert result.verify()


def test_failed_coresolution_has_no_length(a2):
    result = eb.coresolution_in_add(eb.regular_module(a2), eb.simple_module(a2, 0), 8)
    assert not result.success and result.length is None
    assert result.to_json()["length"] is None


def test_coresolution_rejects_forged_term_witnesses(a2, a2_tilting):
    reg = eb.regular_module(a2)
    result = eb.coresolution_in_add(reg, a2_tilting, 8)
    assert result.success and result.length == 1 and result.verify()

    def with_witnesses(forge):
        return replace(result, terms=tuple((t, forge(t, w)) for t, w in result.terms))

    forgeries = {
        "no maps": lambda t, w: eb.AddMembership(True, t, (a2_tilting,)),
        "through the term itself": lambda t, w: eb.AddMembership(
            True, t, (a2_tilting,), (ModuleMap.identity(t),), (ModuleMap.identity(t),)),
        "against the term itself": lambda t, w: eb.in_add(t, t),
        "relabelled to A": lambda t, w: replace(w, family=(reg,)),
        "negative": lambda t, w: replace(w, member=False),
    }
    for name, forge in forgeries.items():
        assert not with_witnesses(forge).verify(), name
    # each term's own witness, but on the other term
    (t0, w0), (t1, w1) = result.terms
    assert not replace(result, terms=((t0, w1), (t1, w0))).verify()
    assert with_witnesses(lambda t, w: w).verify()


def test_coresolution_failure(a2):
    result = eb.coresolution_in_add(eb.regular_module(a2),
                                    eb.simple_module(a2, 0), 8)
    assert not result.success and result.refuted
    assert result.failure_stage == 0
    assert [x.dims for x in result.images] == [(1, 2)]


def test_selforthogonality(a2_tilting, corpora):
    assert eb.is_selforthogonal(a2_tilting, 10).status == "certified_true"
    loop = corpora["LOOP2"]
    res = eb.is_selforthogonal(loop.get("S1"), 10)
    assert res.status == "certified_false" and res.degree == 1
    for corpus in corpora.values():
        reg = eb.regular_module(corpus.algebra)
        assert eb.is_selforthogonal(reg, 10).status == "certified_true"


def test_is_tilting_canonical(a2_tilting):
    report = eb.is_tilting(a2_tilting, 10, 8)
    assert report.verdict == "tilting"
    assert report.pd == PdFinite(1)
    assert report.coresolution.length == 1


def test_is_tilting_rejects_simple(a2):
    report = eb.is_tilting(eb.simple_module(a2, 0), 10, 8)
    assert report.verdict == "not_tilting"
    assert "not injective" in report.reason


def test_regular_is_tilting_everywhere(corpora):
    for corpus in corpora.values():
        report = eb.is_tilting(eb.regular_module(corpus.algebra), 10, 8)
        assert report.verdict == "tilting"


def test_non_selforthogonal_not_tilting(corpora):
    loop = corpora["LOOP2"]
    report = eb.is_tilting(loop.get("S1"), 10, 8)
    assert report.verdict == "not_tilting"


def test_tilting_implies_wakamatsu(a2_tilting, corpora):
    report = eb.is_wakamatsu(a2_tilting, 10, 8)
    assert report.verdict == "wakamatsu" and report.complete
    assert all(s.status == "certified" for s in report.stages)
    modules = [a2_tilting]
    for corpus in corpora.values():
        modules.append(eb.regular_module(corpus.algebra))
        modules.extend(rep for _, rep in corpus)
    seen = set()
    for maxlen in (0, 1, 2, 8):
        for t_mod in modules:
            tilt = eb.is_tilting(t_mod, 10, maxlen)
            wak = eb.is_wakamatsu(t_mod, 10, maxlen)
            if tilt.verdict == "tilting":
                assert wak.verdict == "wakamatsu" and wak.complete, (t_mod.dims, maxlen)
            # both verdicts read one chain: each stage is one of its images,
            # and only Ext(T,T) != 0 or a failed stage stops short of its end
            images = [x.dims for x in tilt.coresolution.images]
            stage_dims = [s.image_dims for s in wak.stages]
            assert stage_dims == images[:len(stage_dims)]
            if wak.selforthogonal.status != "certified_false":
                assert wak.complete == tilt.coresolution.success
                if all(s.status != "failed" for s in wak.stages):
                    assert stage_dims == images
            seen.add((tilt.verdict, wak.verdict))
    assert {("tilting", "wakamatsu"), ("undetermined", "undetermined"),
            ("not_tilting", "not_wakamatsu")} <= seen


def test_one_walk_of_approximations(a2_tilting, monkeypatch):
    calls = []  # (name, whether is_tilting is running)
    depth = 0

    def counted(name, fn):
        def wrapper(*args):
            nonlocal depth
            calls.append((name, depth > 0))
            depth += name == "is_tilting"
            try:
                return fn(*args)
            finally:
                depth -= name == "is_tilting"
        return wrapper

    for name in ("left_add_approximation", "coresolution_in_add", "is_tilting",
                 "is_selforthogonal", "projective_dimension"):
        monkeypatch.setattr(tilting, name, counted(name, getattr(tilting, name)))
    assert eb.is_wakamatsu(a2_tilting, 10, 8).verdict == "wakamatsu"
    assert [name for name, _ in calls].count("left_add_approximation") == 1
    calls.clear()
    assert eb.ewtc_check(a2_tilting, 10, 8).status == "confirmed"
    assert [name for name, _ in calls].count("coresolution_in_add") == 1
    # the hypotheses and the pd are is_tilting's, not decided again
    assert [name for name, inside in calls if not inside] == ["is_tilting"]


def test_wakamatsu_rejects_non_orthogonal(corpora):
    loop = corpora["LOOP2"]
    report = eb.is_wakamatsu(loop.get("S1"), 10, 8)
    assert report.verdict == "not_wakamatsu"


def test_wakamatsu_rejects_failed_stage(nak3):
    # P(1)+P(2) misses the third projective: the chain of approximations of
    # the regular module dies at a non-injective stage
    t_mod = eb.direct_sum([eb.projective_module(nak3, 0),
                           eb.projective_module(nak3, 1)])
    report = eb.is_wakamatsu(t_mod, 10, 8)
    assert report.verdict == "not_wakamatsu"
    assert "not injective" in report.reason


def test_truncation_gives_undetermined(corpora):
    a2 = corpora["A2"].algebra
    t_mod = eb.direct_sum([eb.projective_module(a2, 0), eb.simple_module(a2, 0)])
    tilt = eb.is_tilting(t_mod, 10, 0)   # maxlen 0 cannot reach the chain end
    assert tilt.verdict == "undetermined"
    assert tilt.coresolution.reason == "maxlen exceeded"
    wak = eb.is_wakamatsu(t_mod, 10, 0)
    assert wak.verdict == "undetermined" and not wak.complete


def test_ewtc_confirmed(a2_tilting):
    report = eb.ewtc_check(a2_tilting, 10, 8)
    assert report.status == "confirmed"
    assert report.pd == PdFinite(1)


def test_ewtc_not_applicable(corpora):
    loop = corpora["LOOP2"]
    report = eb.ewtc_check(loop.get("S1"), 10, 8)
    assert report.status == "not_applicable"


def test_ewtc_regular_trivial(corpora):
    for corpus in corpora.values():
        report = eb.ewtc_check(eb.regular_module(corpus.algebra), 10, 8)
        assert report.status == "confirmed"


def test_arc_scan_empty_on_fixtures(corpora):
    for name, corpus in corpora.items():
        report = eb.arc_scan(corpus, 12)
        assert report.violations == (), f"{name}: {report.to_json()}"


def test_arc_scan_marks_projectives(corpora):
    report = eb.arc_scan(corpora["NAK3"], 12)
    flags = {e.name: e.projective for e in report.entries}
    assert flags == {"S1": False, "S2": False, "S3": True, "P1": True, "P2": True}


@pytest.mark.parametrize("cutoff", [1, 4, 12])
def test_arc_generalized_status_is_read_off_the_certificate(corpora, cutoff):
    seen = set()
    for corpus in corpora.values():
        report = eb.arc_scan(corpus, cutoff)
        for (_, rep), entry in zip(corpus, report.entries):
            cert = eb.finite_pd_certificate(rep, cutoff)
            if cert.kind == "pd_bound":
                expected = "holds"
            elif cert.kind == "not_applicable":
                expected = "not_applicable"
            elif isinstance(eb.projective_dimension(rep, cutoff), eb.PdPeriodic):
                expected = "violation"
            else:
                expected = "undetermined"
            assert entry.garc_status == expected
            # the certificate's gate agrees with the two onsets it reads
            onsets = (eb.vanishing_onset(rep, rep, cutoff),
                      eb.onset_against_regular(rep, cutoff))
            if all(o.status == "vanishes" for o in onsets):
                assert expected in ("holds", "violation", "undetermined")
            elif all(o.certified for o in onsets):
                assert expected == "not_applicable"
            else:
                assert expected == "undetermined"
                assert not any(o.certified for o in onsets)
            seen.add(expected)
    assert {"holds", "not_applicable"} <= seen
    assert ("undetermined" in seen) == (cutoff == 1)


def test_projective_exactly_when_the_first_syzygy_is_zero(corpora):
    # arc_scan's certificate against the trace test it replaced
    seen = {True: 0, False: 0}
    for corpus in corpora.values():
        for _, rep in corpus:
            for m_mod in (rep, eb.syzygy(rep, 1), eb.syzygy(rep, 2)):
                for mod in (m_mod, eb.dual_module(m_mod)):
                    projective = eb.syzygy(mod, 1).is_zero
                    reg = eb.regular_module(mod.algebra)
                    assert projective == eb.in_add(mod, reg).member
                    seen[projective] += 1
    assert all(seen.values())


def test_gsc_values(corpora):
    expected = {"A2": 1, "LOOP2": 0, "NAK3": 2, "CNAK2": 0}
    for name, corpus in corpora.items():
        report = eb.gsc_report(corpus.algebra, 12)
        assert report.equal is True
        assert report.id_left == PdFinite(expected[name])
        assert report.id_right == PdFinite(expected[name])
