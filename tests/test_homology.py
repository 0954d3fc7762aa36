from itertools import permutations

import pytest

import extbound as eb
from extbound import PdAtLeast, PdFinite, PdPeriodic
from extbound.algebra import _summands


def test_resolution_nak3_simple(nak3):
    res = eb.minimal_resolution(eb.simple_module(nak3, 0), 3)
    assert [res.multiplicities(k) for k in range(4)] == \
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    assert res.terminated_at == 3
    # past the end of a terminated resolution: its stored zero syzygy, no new terms
    assert res.syzygy(9) is res.syzygies[-1] and res.syzygies[-1].is_zero
    assert res.multiplicities(9) == (0, 0, 0)


def test_resolution_loop2_never_terminates(loop2):
    res = eb.minimal_resolution(eb.simple_module(loop2, 0), 6)
    assert not res.terminated
    assert all(res.multiplicities(k) == (1,) for k in range(7))


def test_resolution_of_projective(corpora):
    for corpus in corpora.values():
        alg = corpus.algebra
        p = eb.projective_module(alg, 0)
        res = eb.minimal_resolution(p, 4)
        assert res.terminated_at == 1
        assert res.multiplicities(0) == tuple(
            1 if v == 0 else 0 for v in range(alg.vertex_count))
        assert res.multiplicities(1) == (0,) * alg.vertex_count


def test_resolution_extends_incrementally(loop2):
    # a deeper resolution holds the very covers of a shallower one
    s = eb.simple_module(loop2, 0)
    module = eb.direct_sum([s, s, s])
    first = eb.minimal_resolution(module, 2).covers
    res = eb.minimal_resolution(module, 5)
    assert len(res.covers) > len(first) >= 3
    assert all(a is b for a, b in zip(res.covers, first))
    for j, cov in enumerate(res.covers):
        assert cov is loop2._step_memo[res.syzygies[j]][0]


def test_resolution_is_built_once(loop2):
    for module in (eb.simple_module(loop2, 0), eb.zero_representation(loop2)):
        res = eb.minimal_resolution(module, 2)
        covers = list(res.covers)
        with pytest.raises(RuntimeError, match="built once"):
            res.extend(5)
        assert res.covers == covers


def test_resolution_rejects_negative_cutoff(nak3):
    s1 = eb.simple_module(nak3, 0)
    for build in (eb.minimal_resolution, eb.MinimalResolution):
        with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
            build(s1, -1)
    assert eb.minimal_resolution(s1, 0).multiplicities(0) == (1, 0, 0)


def test_unterminated_resolution_past_end_raises(loop2):
    # a fresh structural module; pd is periodic-infinite, so nothing past the
    # computed end is known to be zero
    s = eb.simple_module(loop2, 0)
    res = eb.minimal_resolution(eb.direct_sum([s, s]), 2)
    assert not res.terminated
    end = f"computed through degree {res.length} and has not terminated"
    with pytest.raises(ValueError, match=end):
        res.syzygy(len(res.syzygies))
    with pytest.raises(ValueError, match=end):
        res.multiplicities(len(res.covers))
    assert res.syzygy(len(res.syzygies) - 1).dims == (2,)


def test_resolution_rejects_negative_degrees(nak3):
    # a negative degree must not index the stored lists from their end
    res = eb.minimal_resolution(eb.simple_module(nak3, 0), 3)
    assert res.terminated
    for accessor in (res.syzygy, res.multiplicities):
        with pytest.raises(ValueError, match="must be >= 0"):
            accessor(-1)


def test_resolution_exactness(nak3):
    # im d_{k+1} = ker d_k, by rank arithmetic at every vertex
    from extbound.exactla import rank
    res = eb.minimal_resolution(eb.simple_module(nak3, 0), 2)

    def differential(k):  # d_k: P_k -> P_{k-1}, the cover of syzygy k, then its inclusion
        return res.inclusions[k - 1] @ res.covers[k].cover
    for k in range(1, 3):
        d_k = differential(k)
        if k + 1 < len(res.covers):
            comp = d_k @ differential(k + 1)
            assert comp.is_zero
        for v in range(nak3.vertex_count):
            ker_dim = d_k.source.dims[v] - rank(d_k.vertex_maps[v])
            assert ker_dim == res.syzygy(k + 1).dims[v]


def test_ext_loop2_all_ones(loop2):
    s = eb.simple_module(loop2, 0)
    assert eb.ext_table(s, s, 5).dims == (1, 1, 1, 1, 1, 1)


def test_ext_cnak2_alternating(cnak2):
    s1 = eb.simple_module(cnak2, 0)
    assert eb.ext_table(s1, s1, 4).dims == (1, 0, 1, 0, 1)


def test_ext_from_projective_vanishes(corpora):
    for corpus in corpora.values():
        alg = corpus.algebra
        p = eb.regular_module(alg)
        for _, n_mod in corpus:
            dims = eb.ext_table(p, n_mod, 3).dims
            assert dims[1:] == (0, 0, 0)


def test_ext_oracles_run_independently(nak3):
    s1 = eb.simple_module(nak3, 0)
    s3 = eb.simple_module(nak3, 2)
    assert eb.ext_dims_via_complex(s1, s3, 4) == eb.ext_dims_via_stable(s1, s3, 4) \
        == [0, 0, 1, 0, 0]


def _sum_algebras(corpora):
    return [corpus.algebra for corpus in corpora.values()] + \
        [_cyclic_nakayama(8, 5), _cyclic_nakayama(7, 3)]


def _recorded_sums(alg):
    """Sums as direct_sum builds them: two parts, a nested sum with a
    repeated part and a zero part, zero parts around two others, the
    regular module and the sum of all simples."""
    n = alg.vertex_count
    s = [eb.simple_module(alg, v) for v in range(n)]
    p0, zero = eb.projective_module(alg, 0), eb.zero_representation(alg)
    nested = eb.direct_sum([eb.direct_sum([s[-1], s[0]]), s[-1], zero])
    padded = eb.direct_sum([zero, p0, zero, s[n // 2]])
    assert _summands(nested) == (s[-1], s[0], s[-1])
    assert _summands(padded) == (p0, s[n // 2])
    assert _summands(eb.direct_sum([zero, s[0]])) is None
    return [eb.direct_sum([s[0], eb.projective_module(alg, n - 1)]), nested, padded,
            eb.regular_module(alg), eb.direct_sum(s)]


def _single_modules(alg):
    return [eb.simple_module(alg, 0), eb.projective_module(alg, alg.vertex_count - 1)]


def test_ext_additivity(corpora):
    # ext_table reads a recorded sum off its parts; the full-table routes
    # walk the sum itself, so they are the reference
    for alg in _sum_algebras(corpora):
        for total in _recorded_sums(alg):
            for x in _single_modules(alg):
                for m_mod, n_mod in ((total, x), (x, total)):
                    table = list(eb.ext_table(m_mod, n_mod, 5).dims)
                    assert eb.ext_dims_via_complex(m_mod, n_mod, 5) == table
                    assert eb.ext_dims_via_stable(m_mod, n_mod, 5) == table


def test_an_unrecorded_equal_sum_gives_the_same_answers(corpora):
    for alg in _sum_algebras(corpora):
        for total in _recorded_sums(alg):
            copy = eb.Representation(alg, total.dims, total.arrow_matrices)
            assert copy == total and _summands(copy) is None
            answers = []
            for m_mod in (total, copy):
                alg.clear_caches()  # so that no memo answers for the other
                answers.append([
                    (eb.ext_table(m_mod, x, 5).dims, eb.ext_table(x, m_mod, 5).dims,
                     eb.projective_dimension(m_mod, 5).to_json(),
                     eb.vanishing_onset(m_mod, x, 5).to_json(),
                     eb.vanishing_onset(x, m_mod, 5).to_json())
                    for x in _single_modules(alg)])
            assert answers[0] == answers[1]


def test_pd_of_a_sum_is_where_its_resolution_ends(corpora):
    finite = 0
    for alg in _sum_algebras(corpora):
        for total in _recorded_sums(alg):
            for cutoff in range(1, 6):
                pd = eb.projective_dimension(total, cutoff)
                end = eb.minimal_resolution(total, cutoff).terminated_at
                assert isinstance(pd, PdFinite) == (end is not None)
                if end is not None:
                    finite += 1
                    assert pd.value == end - 1
    assert finite


def test_pd_examples(nak3, loop2):
    assert eb.projective_dimension(eb.simple_module(nak3, 0), 10) == PdFinite(2)
    res = eb.projective_dimension(eb.simple_module(loop2, 0), 10)
    assert isinstance(res, PdPeriodic) and (res.preperiod, res.period) == (0, 1)
    idr = eb.injective_dimension(eb.regular_module(loop2), 10)
    assert idr == PdFinite(0)


def test_pd_undetermined_at_tiny_cutoff(cnak2):
    res = eb.projective_dimension(eb.simple_module(cnak2, 0), 1)
    assert isinstance(res, PdAtLeast)


def test_pd_at_its_boundary_cutoff(corpora):
    # with cold memos, pd d is decided at cutoff d and only bounded below at d - 1
    from extbound import CertUndetermined, PdBound
    members = [(c.algebra, rep) for c in corpora.values() for _, rep in c.members]
    finite = [(alg, rep, pd.value) for alg, rep in members
              if isinstance(pd := eb.projective_dimension(rep, 12), PdFinite) and pd.value >= 1]
    nak3 = corpora["NAK3"].algebra
    assert (nak3, eb.simple_module(nak3, 0), 2) in finite
    for alg, rep, d in finite:
        alg.clear_caches()
        assert eb.projective_dimension(rep, d) == PdFinite(d)
        assert eb.finite_pd_certificate(rep, d) == PdBound(d)
        if d >= 2:
            assert eb.projective_dimension(rep, d - 1) == PdAtLeast(d - 1)
            assert eb.finite_pd_certificate(rep, d - 1) == CertUndetermined(d - 1)


def test_pd_zero_module(a2):
    assert eb.projective_dimension(eb.zero_representation(a2), 5) == PdFinite(-1)


def test_periodicity_certificates(loop2, cnak2, nak3):
    c1 = eb.periodicity_certificate(eb.simple_module(loop2, 0), 10)
    assert (c1.preperiod, c1.period) == (0, 1) and c1.verify()
    c2 = eb.periodicity_certificate(eb.simple_module(cnak2, 0), 10)
    assert (c2.preperiod, c2.period) == (0, 2) and c2.verify()
    assert eb.periodicity_certificate(eb.simple_module(nak3, 0), 10) is None


def test_periodicity_verify_rejects_non_intertwining_witness(loop2):
    from extbound.exactla import Matrix
    from extbound.modules import ModuleMap
    p1 = eb.projective_module(loop2, 0)  # k[x]/(x^2): x acts as a nilpotent 2x2 block
    shear = Matrix.from_rows(loop2.field, [[1, 1], [0, 1]])
    assert (shear @ p1.arrow_matrices[0]).entries != (p1.arrow_matrices[0] @ shear).entries
    witness = ModuleMap._trusted(p1, p1, (shear,))
    assert witness.is_invertible
    assert not eb.PeriodicityCertificate(0, 1, witness).verify()
    assert eb.PeriodicityCertificate(0, 1, ModuleMap.identity(p1)).verify()


def test_periodicity_certificate_json_reports_undetermined_pairs(loop2):
    import json
    from extbound.fileio import dumps_canonical
    from extbound.modules import ModuleMap
    s1 = eb.simple_module(loop2, 0)
    cert = eb.PeriodicityCertificate(1, 2, ModuleMap.identity(s1), ((0, 1), (0, 2)))
    data = json.loads(dumps_canonical(cert.to_json()))
    assert data["undetermined_pairs"] == [[0, 1], [0, 2]]
    assert [tuple(pair) for pair in data["undetermined_pairs"]] == list(cert.undetermined_pairs)
    found = eb.periodicity_certificate(s1, 10)
    assert found.undetermined_pairs == () and "undetermined_pairs" not in found.to_json()


def test_periodicity_certificate_is_independent_of_call_history(monkeypatch, cnak2, corpora):
    # with every isomorphism test against syzygy 0 undetermined, the first
    # certificate skips (0, 2), (0, 4), ... up to the cutoff; a search at
    # one cutoff must not leak into the answer at another
    from extbound import homology
    from extbound.modules import IsoResult
    s1 = corpora["CNAK2"].get("S1")
    honest = homology.is_isomorphic

    def blind_at_zero(m, n):
        return IsoResult("undetermined", reason="blinded") if m == s1 else honest(m, n)

    def cert_json(cutoff):
        return eb.projective_dimension(s1, cutoff).certificate.to_json()
    monkeypatch.setattr(homology, "is_isomorphic", blind_at_zero)
    try:
        cold = {}
        for c in (3, 10):
            cnak2.clear_caches()
            cold[c] = cert_json(c)
        assert cold[3]["undetermined_pairs"] == [[0, 2]]
        assert cold[10]["undetermined_pairs"] == [[0, b] for b in (2, 4, 6, 8, 10)]
        for c, other in ((3, 10), (10, 3)):
            cnak2.clear_caches()
            cert_json(other)
            assert cert_json(c) == cold[c]
            cnak2.clear_caches()
            assert cert_json(c) == cold[c]
    finally:
        cnak2.clear_caches()  # drop the results computed under the blinded test


def test_periodicity_implies_periodic_ext(cnak2, corpora):
    s1 = eb.simple_module(cnak2, 0)
    cert = eb.periodicity_certificate(s1, 10)
    q, a = cert.period, cert.preperiod
    for _, n_mod in corpora["CNAK2"]:
        dims = eb.ext_table(s1, n_mod, 10).dims
        for i in range(a + 1, 10 - q + 1):
            assert dims[i + q] == dims[i]


def test_vanishing_onset_examples(loop2):
    s = eb.simple_module(loop2, 0)
    reg = eb.regular_module(loop2)
    good = eb.vanishing_onset(s, reg, 10)
    assert good.status == "vanishes" and good.onset == 0
    bad = eb.vanishing_onset(s, s, 10)
    assert bad.status == "never_vanishes"


def test_vanishing_onset_finite_pd(nak3, corpora):
    for _, m_mod in corpora["NAK3"]:
        pd_res = eb.projective_dimension(m_mod, 10)
        for _, n_mod in corpora["NAK3"]:
            onset = eb.vanishing_onset(m_mod, n_mod, 10)
            assert onset.status == "vanishes"
            assert onset.onset <= pd_res.value


def test_vanishing_onset_undetermined(cnak2):
    s1 = eb.simple_module(cnak2, 0)
    onset = eb.vanishing_onset(s1, s1, 1)
    assert onset.status == "undetermined" and not onset.certified


def test_dimension_shifting_spot(nak3):
    s1 = eb.simple_module(nak3, 0)
    s3 = eb.simple_module(nak3, 2)
    base = eb.ext_table(s1, s3, 6).dims
    for m in range(3):
        shifted = eb.ext_table(eb.syzygy(s1, m), s3, 6 - m).dims
        for i in range(1, 7 - m):
            assert base[i + m] == shifted[i]


def test_multiplicity_law_spot(cnak2):
    s1 = eb.simple_module(cnak2, 0)
    res = eb.minimal_resolution(s1, 6)
    for j in range(cnak2.vertex_count):
        sj = eb.simple_module(cnak2, j)
        dims = eb.ext_table(s1, sj, 6).dims
        for i in range(7):
            assert dims[i] == res.multiplicities(i)[j]


def test_ext_table_rejects_negative_cutoff(nak3):
    s1 = eb.simple_module(nak3, 0)
    with pytest.raises(ValueError, match="cutoff"):
        eb.ext_table(s1, s1, -1)
    assert eb.ext_table(s1, s1, 0).dims == (1,)


def test_ext_memo_consistency(nak3):
    s1 = eb.simple_module(nak3, 0)
    s2 = eb.simple_module(nak3, 1)
    first = eb.ext_table(s1, s2, 8).dims
    again = eb.ext_table(s1, s2, 4).dims
    assert again == first[:5]


def _restriction_rank_reference(m_mod, n_mod, cutoff):
    """The stable route as it was before dimension shifting: dim Hom(syzygy
    i, N) minus the rank of restriction from Hom(P_{i-1}, N) along the
    inclusion, with every hom P_{i-1} -> N built as a ModuleMap."""
    alg = n_mod.algebra
    fld = alg.field
    res = eb.minimal_resolution(m_mod, cutoff)
    dims = [len(eb.hom_basis(m_mod, n_mod))]
    for i in range(1, cutoff + 1):
        syz = res.syzygy(i)
        if syz.is_zero:
            dims.append(0)
            continue
        bundle = res.covers[i - 1].bundle
        restricted = []
        # the hom sending generator s to basis vector e of N and the others to 0
        for s, (v, _) in enumerate(bundle.summands):
            for e in range(n_mod.dims[v]):
                mats = []
                for w in range(alg.vertex_count):
                    cols = [eb.path_action(n_mod, path).column(e) if t == s
                            else (fld.zero,) * n_mod.dims[w]
                            for t, path in bundle.vertex_labels[w]]
                    mats.append(eb.Matrix.from_columns(fld, cols, nrows=n_mod.dims[w]))
                h = eb.ModuleMap(bundle.rep, n_mod, tuple(mats))
                restricted.append((h @ res.inclusions[i - 1]).flatten())
        factoring = eb.rank(eb.Matrix.from_rows(fld, restricted)) if restricted else 0
        dims.append(len(eb.hom_basis(syz, n_mod)) - factoring)
    return dims


def _cyclic_nakayama(vertices, length):
    field = eb.FieldSpec.prime(5)
    names = [str(i + 1) for i in range(vertices)]
    quiver = eb.Quiver.build(names, [(f"a{names[i]}", names[i], names[(i + 1) % vertices])
                                     for i in range(vertices)])
    rels = tuple(eb.make_relation(field, [(1, quiver.path(
        [f"a{names[(i + k) % vertices]}" for k in range(length)]))])
        for i in range(vertices))
    return eb.build_algebra(eb.AlgebraPresentation(field, quiver, rels, length))


def _quantum_exterior_q():
    """Q<x,y>/(x^2, y^2, xy - 2yx) with the 2-dimensional modules M_(1:1)
    and M_(1:1/4) (x, y act as multiples of top -> socle); Ext^i between
    them is nonzero exactly in degrees 2 and 3 for i >= 1."""
    field = eb.FieldSpec.rationals()
    q = eb.Quiver.build(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = (eb.make_relation(field, [(1, q.path(["x", "x"]))]),
            eb.make_relation(field, [(1, q.path(["y", "y"]))]),
            eb.make_relation(field, [(1, q.path(["y", "x"])), (-2, q.path(["x", "y"]))]))
    alg = eb.build_algebra(eb.AlgebraPresentation(field, q, rels, 3))

    def band(a, b):
        return eb.Representation(alg, (2,), (
            eb.Matrix.from_rows(field, [[0, 0], [a, 0]]),
            eb.Matrix.from_rows(field, [[0, 0], [b, 0]])))
    return band("1", "1"), band("1", "1/4")


def test_stable_route_matches_restriction_rank_on_fixtures(corpora):
    for corpus in corpora.values():
        for _, m_mod in corpus:
            for _, n_mod in corpus:
                assert eb.ext_dims_via_stable(m_mod, n_mod, 6) == \
                    _restriction_rank_reference(m_mod, n_mod, 6)


def test_stable_route_matches_restriction_rank_on_nakayama():
    alg = _cyclic_nakayama(7, 3)
    mods = [eb.simple_module(alg, v) for v in range(7)]
    mods += [eb.projective_module(alg, v) for v in range(7)]
    for m_mod in mods:
        for n_mod in mods:
            assert eb.ext_dims_via_stable(m_mod, n_mod, 6) == \
                _restriction_rank_reference(m_mod, n_mod, 6)


def test_stable_route_matches_restriction_rank_over_q():
    m_mod, n_mod = _quantum_exterior_q()
    dims = eb.ext_dims_via_stable(m_mod, n_mod, 6)
    assert dims == _restriction_rank_reference(m_mod, n_mod, 6)
    assert [i for i in range(1, 7) if dims[i]] == [2, 3]


def test_ext_table_rejects_route_disagreement(monkeypatch):
    from extbound import homology
    honest = homology.ext_dims_via_stable
    monkeypatch.setattr(homology, "ext_dims_via_stable",
                        lambda m, n, c: [d + 1 for d in honest(m, n, c)])
    # the algebra's memos are emptied, so no stored pair can answer first
    alg = _cyclic_nakayama(4, 3)
    alg.clear_caches()
    s1, s2 = eb.simple_module(alg, 0), eb.simple_module(alg, 1)
    with pytest.raises(eb.InternalCheckError, match="disagreement"):
        eb.ext_table(eb.direct_sum([s1, s2, s2, s1]), s1, 3)


def test_a_disagreement_on_one_summand_raises_through_the_sum(monkeypatch):
    from extbound import homology
    alg = _cyclic_nakayama(5, 3)
    alg.clear_caches()
    s0, bad, s2 = (eb.simple_module(alg, v) for v in range(3))
    honest = homology.ext_dims_via_stable
    monkeypatch.setattr(homology, "ext_dims_via_stable",
                        lambda m, n, c: [d + (bad in (m, n)) for d in honest(m, n, c)])
    eb.ext_table(s0, s2, 3)  # its syzygies 0..2 are not the corrupted one
    with pytest.raises(eb.InternalCheckError, match="disagreement"):
        eb.ext_table(eb.direct_sum([s0, bad]), s2, 3)
    with pytest.raises(eb.InternalCheckError, match="disagreement"):
        eb.ext_table(s0, eb.direct_sum([s2, bad]), 3)


# ----- Ext tables read along the syzygies ---------------------------------------


def _induced_matrix(res, n_mod, k, op):
    """Matrix of precomposition with d_k: Hom(P_{k-1}, N) -> Hom(P_k, N),
    with d_k composed from M's resolution as the cover of syzygy k followed
    by its inclusion into P_{k-1}."""
    fld = res.algebra.field
    dom, cod = res.covers[k - 1].bundle, res.covers[k].bundle
    dom_off, cod_off = [0], [0]
    for v, _ in dom.summands:
        dom_off.append(dom_off[-1] + n_mod.dims[v])
    for v, _ in cod.summands:
        cod_off.append(cod_off[-1] + n_mod.dims[v])
    rows = [[fld.zero] * dom_off[-1] for _ in range(cod_off[-1])]
    diff = res.inclusions[k - 1] @ res.covers[k].cover
    for s, (vs, _) in enumerate(cod.summands):
        column = diff.vertex_maps[vs].column(cod.generator_coords[s][1])
        for coord, coef in enumerate(column):
            if coef == 0:
                continue
            t, path = dom.vertex_labels[vs][coord]
            block = op(path)
            for r in range(block.rows):
                for c in range(block.cols):
                    val = block.entry(r, c)
                    if val != 0:
                        rows[cod_off[s] + r][dom_off[t] + c] = fld.add(
                            rows[cod_off[s] + r][dom_off[t] + c], fld.mul(coef, val))
    return eb.Matrix.from_rows(fld, rows)


def _reference_complex_table(m_mod, n_mod, cutoff):
    """The complex route over M's whole minimal resolution, as it was before
    each route was defined on one syzygy: dim Ext^i = c_i - r_{i+1} - r_i,
    with c_k = dim Hom(P_k, N) and r_k the rank of precomposition with d_k."""
    from extbound.modules import _path_actions
    res = eb.minimal_resolution(m_mod, cutoff + 1)
    op = _path_actions(n_mod)
    space = [sum(mult * n_mod.dims[v] for v, mult in enumerate(res.multiplicities(k)))
             for k in range(cutoff + 2)]
    ranks = [eb.rank(_induced_matrix(res, n_mod, k, op)) if k and space[k] and space[k - 1]
             else 0 for k in range(cutoff + 2)]
    dims = [space[i] - ranks[i + 1] - ranks[i] for i in range(cutoff + 1)]
    assert min(dims) >= 0
    return dims


def _assert_walk_matches_full_tables(alg, mods, depth=8):
    """ext_table and both full-table routes against the resolution-based
    reference, computed with cold memos; ext_table is reached with a low
    cutoff before a high one and the other way round, and builds no
    MinimalResolution."""
    for m_mod in mods:
        alg.clear_caches()
        full = {n_mod: _reference_complex_table(m_mod, n_mod, depth) for n_mod in mods}
        alg.clear_caches()
        for n_mod in mods:
            assert eb.ext_dims_via_complex(m_mod, n_mod, depth) == full[n_mod]
            assert eb.ext_dims_via_stable(m_mod, n_mod, depth) == full[n_mod]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eb.MinimalResolution, "extend", _no_resolution)
            for cutoffs in ((3, depth), (depth, 3)):
                alg.clear_caches()
                for n_mod in mods:
                    for c in cutoffs:
                        assert eb.ext_table(m_mod, n_mod, c).dims == tuple(full[n_mod][:c + 1])


def _no_resolution(res, upto):
    raise AssertionError("ext_table extended a MinimalResolution")


def test_ext_table_matches_full_tables_on_fixtures(corpora):
    for corpus in corpora.values():
        _assert_walk_matches_full_tables(corpus.algebra, [rep for _, rep in corpus])


def test_ext_table_matches_full_tables_on_nakayama():
    alg = _cyclic_nakayama(7, 3)
    _assert_walk_matches_full_tables(
        alg, [build(alg, v) for build in (eb.simple_module, eb.projective_module)
              for v in range(7)])


def test_ext_table_matches_full_tables_on_quantum_complete_intersection():
    alg = _quantum_complete_intersection(101, 7)
    _assert_walk_matches_full_tables(alg, [eb.simple_module(alg, 0)], depth=14)


def test_ext_routes_reject_arguments_over_different_algebras(a2, nak3, loop2):
    s = eb.simple_module(a2, 0)
    for route in (eb.ext_dims_via_complex, eb.ext_dims_via_stable, eb.ext_table):
        for other in (nak3, loop2):
            with pytest.raises(eb.AlgebraMismatchError):
                route(s, eb.simple_module(other, 0), 2)


def test_full_table_routes_reject_negative_cutoff(nak3):
    s = eb.simple_module(nak3, 0)
    for route in (eb.ext_dims_via_complex, eb.ext_dims_via_stable):
        with pytest.raises(ValueError, match="cutoff"):
            route(s, s, -1)
        assert route(s, s, 0) == [1]


def test_shifted_table_recomputes_no_pair(monkeypatch):
    from extbound import homology
    calls = []
    honest = homology.ext_dims_via_complex

    def counting(m_mod, n_mod, cutoff):
        calls.append((m_mod, n_mod, cutoff))
        return honest(m_mod, n_mod, cutoff)
    monkeypatch.setattr(homology, "ext_dims_via_complex", counting)
    alg = _cyclic_nakayama(7, 3)
    alg.clear_caches()
    m_mod, n_mod = eb.simple_module(alg, 0), eb.simple_module(alg, 3)
    first = eb.ext_table(m_mod, n_mod, 8).dims
    res = eb.minimal_resolution(m_mod, 8)
    # one cutoff-1 computation per distinct (syzygy, N)
    assert len(set(calls)) == len(calls)
    assert set(calls) == {(res.syzygy(j), n_mod, 1) for j in range(8)}
    done = len(calls)
    assert eb.ext_table(eb.syzygy(m_mod, 1), n_mod, 7).dims[1:] == first[2:]
    assert len(calls) == done


def test_ext_table_rejects_disagreement_on_a_syzygy(monkeypatch):
    from extbound import homology
    alg = _cyclic_nakayama(7, 3)
    alg.clear_caches()
    m_mod, n_mod = eb.simple_module(alg, 1), eb.simple_module(alg, 4)
    bad = eb.syzygy(m_mod, 3)
    honest = homology.ext_dims_via_stable
    monkeypatch.setattr(homology, "ext_dims_via_stable",
                        lambda m, n, c: [d + (m == bad) for d in honest(m, n, c)])
    assert all(eb.syzygy(m_mod, j) != bad for j in range(3))
    eb.ext_table(m_mod, n_mod, 3)  # syzygies 0..2 only
    with pytest.raises(eb.InternalCheckError, match="disagreement"):
        eb.ext_table(m_mod, n_mod, 4)


# ----- resolution steps shared per algebra -----------------------------------


def test_syzygy_resolution_shares_the_steps():
    alg = _cyclic_nakayama(8, 5)
    s, k = eb.simple_module(alg, 0), 6
    whole = eb.minimal_resolution(s, k)
    tail = eb.minimal_resolution(eb.syzygy(s, 1), k - 1)
    for j in range(k):
        assert tail.covers[j] is whole.covers[j + 1]
        assert tail.inclusions[j] is whole.inclusions[j + 1]
        assert tail.syzygies[j + 1] is whole.syzygies[j + 2]


def test_one_cover_per_distinct_module(monkeypatch, corpora):
    from extbound import homology
    counted = []
    honest = homology.projective_cover

    def counting(rep):
        counted.append(rep)
        return honest(rep)
    monkeypatch.setattr(homology, "projective_cover", counting)
    for corpus in corpora.values():
        corpus.algebra.clear_caches()
        start, resolved = len(counted), set()
        for _, rep in corpus:
            for m_mod in (rep, eb.direct_sum([rep, rep])):
                res = eb.minimal_resolution(m_mod, 6)
                resolved.update(res.syzygies[:len(res.covers)])
        assert len(counted) - start == len(resolved) == len(corpus.algebra._step_memo)
        assert set(counted[start:]) == resolved
        for _, rep in corpus:  # every step is now a memo hit
            eb.minimal_resolution(eb.syzygy(rep, 2), 4)
        assert len(counted) - start == len(resolved)


def _resolution_facts(m_mod, n_mod, k):
    res = eb.minimal_resolution(m_mod, k)
    return ([res.syzygy(i) for i in range(k + 1)], [res.multiplicities(i) for i in range(k + 1)],
            eb.ext_table(m_mod, n_mod, k).dims)


def test_resolving_the_syzygy_first_gives_the_same_resolution(corpora):
    k = 5
    for corpus in corpora.values():
        alg = corpus.algebra
        for _, m_mod in corpus:
            n_mod = eb.regular_module(alg)
            alg.clear_caches()
            first = _resolution_facts(m_mod, n_mod, k)
            tail_first = _resolution_facts(first[0][1], n_mod, k - 1)
            om = eb.syzygy(m_mod, 1)
            alg.clear_caches()
            tail = _resolution_facts(om, n_mod, k - 1)
            assert _resolution_facts(m_mod, n_mod, k) == first
            assert tail == tail_first
            assert tail[0] == first[0][1:]


def test_clear_caches_empties_the_memos_and_keeps_results(corpora):
    corpus = corpora["CNAK2"]
    alg = corpus.algebra
    s1, s2 = corpus.get("S1"), eb.simple_module(alg, 1)
    before = (eb.ext_table(s1, s2, 6).dims, eb.projective_dimension(s1, 6),
              len(eb.hom_basis(s1, eb.regular_module(alg))), eb.vanishing_onset(s1, s2, 6),
              eb.ext_table(s1, eb.regular_module(alg), 6).dims)
    projectives, regular = dict(alg._projectives), alg._regular
    memos = [value for name, value in vars(alg).items() if name.endswith("_memo")]
    assert memos and all(memos)
    alg.clear_caches()
    for memo in memos:
        if memo is alg._module_memo:  # the kept projectives go back in
            assert memo == {p: p for p in projectives.values()}
            assert all(memo[p] is p for p in projectives.values())
        else:
            assert memo == {}
    assert alg._projectives == projectives and alg._regular is regular
    after = (eb.ext_table(s1, s2, 6).dims, eb.projective_dimension(s1, 6),
             len(eb.hom_basis(s1, eb.regular_module(alg))), eb.vanishing_onset(s1, s2, 6),
             eb.ext_table(s1, eb.regular_module(alg), 6).dims)
    assert after == before


def test_racing_threads_share_one_step_per_module():
    import sys
    import threading
    from extbound.homology import _ext_pair
    alg = _cyclic_nakayama(6, 4)
    alg.clear_caches()
    simples = [eb.simple_module(alg, v) for v in range(6)]
    # each thread resolves its own (unmemoized) copies, so only steps are shared
    results: list = []
    onsets: list = []
    pairs: list = []

    def work():
        for s in simples:
            results.append(eb.MinimalResolution(s, 8))
        for s in simples:
            for t in simples:
                onsets.append(((s, t, 8), eb.vanishing_onset(s, t, 8)))
                pairs.append(((s, t), _ext_pair(s, t)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 * len(simples)
    for res in results:
        for j, cov in enumerate(res.covers):
            assert cov is alg._step_memo[res.syzygies[j]][0]
    assert len(onsets) == 4 * len(simples) ** 2
    for key, onset in onsets:
        assert onset is alg._onset_memo[key]
    assert len(pairs) == 4 * len(simples) ** 2
    for key, pair in pairs:
        assert pair is alg._ext_memo[key]


# ----- per-module hash and per-triple onset memo ---------------------------------


def test_second_hash_rehashes_no_matrix(monkeypatch, nak3):
    calls = []
    honest = eb.Matrix.__hash__

    def counting(self):
        calls.append(self)
        return honest(self)
    # built before the counter goes in: simple_module hashes its module into
    # the module table
    rep = eb.direct_sum([eb.simple_module(nak3, 0), eb.projective_module(nak3, 1)])
    monkeypatch.setattr(eb.Matrix, "__hash__", counting)
    first = hash(rep)
    assert len(calls) == len(rep.arrow_matrices)
    assert hash(rep) == first and len(calls) == len(rep.arrow_matrices)


def test_equal_modules_built_apart_share_one_onset(nak3):
    nak3.clear_caches()
    s1, s2 = eb.simple_module(nak3, 0), eb.simple_module(nak3, 1)
    a, b = eb.direct_sum([s1, s2]), eb.direct_sum([s1, s2])
    assert a is not b and a == b and hash(a) == hash(b)
    onset = eb.vanishing_onset(a, s1, 6)
    assert eb.vanishing_onset(b, s1, 6) is onset
    assert list(nak3._onset_memo) == [(a, s1, 6)]


# ----- one object per module ---------------------------------------------------


def test_a_syzygy_equal_to_a_simple_is_that_simple(nak3):
    # the radical of P(1) is S(2), so syzygy 1 of S(1) equals S(2)
    nak3.clear_caches()
    s2 = eb.simple_module(nak3, 1)
    assert eb.syzygy(eb.simple_module(nak3, 0), 1) is s2
    nak3.clear_caches()
    om = eb.syzygy(eb.simple_module(nak3, 0), 1)
    assert om == s2 and om is not s2  # a new table: the syzygy came first
    assert eb.simple_module(nak3, 1) is om
    assert eb.minimal_resolution(eb.simple_module(nak3, 0), 2).inclusions[0].source is om


def test_a_kept_projective_is_the_table_object_after_a_clear():
    # a new NAK3, so no earlier test put a module equal to P(3) in its
    # table; the radical of P(2) is S(3), which is P(3)
    alg = eb.fixture_algebra("NAK3")
    p3 = eb.projective_module(alg, 2)
    alg.clear_caches()
    assert eb.syzygy(eb.simple_module(alg, 1), 1) is p3
    assert eb.simple_module(alg, 2) is p3


def test_the_double_dual_of_a_built_module_is_the_module(corpora):
    for corpus in corpora.values():
        alg = corpus.algebra
        for v in range(alg.vertex_count):
            for m_mod in (eb.simple_module(alg, v), eb.syzygy(eb.simple_module(alg, v), 1),
                          eb.radical(eb.projective_module(alg, v))[0]):
                dual = eb.dual_module(m_mod)
                assert eb.dual_module(dual) is m_mod
                assert eb.dual_module(m_mod) is dual


def test_racing_threads_build_one_object_per_module(nak3):
    import sys
    import threading
    nak3.clear_caches()
    cover = eb.projective_cover(eb.simple_module(nak3, 0)).cover
    built: list = []

    def work():
        for _ in range(50):  # each kernel() builds its submodule afresh
            built.append(eb.kernel(cover)[0])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == 200 and all(m is built[0] for m in built)
    assert eb.radical(eb.projective_module(nak3, 0))[0] is built[0]


def test_repeated_onset_is_the_stored_result(loop2):
    s, reg = eb.simple_module(loop2, 0), eb.regular_module(loop2)
    for n_mod in (s, reg):
        first = eb.vanishing_onset(s, n_mod, 9)
        assert eb.vanishing_onset(s, n_mod, 9) is first
        assert eb.vanishing_onset(s, n_mod, 10) is not first  # another cutoff, another key


def test_bound_properties_compute_one_onset_per_triple(monkeypatch, corpora):
    from extbound import bounds, homology
    computed, asked = [], []
    honest_decide, honest_onset = homology._decide_onset, bounds.vanishing_onset

    def decide(m_mod, n_mod, cutoff):
        computed.append((m_mod, n_mod, cutoff))
        return honest_decide(m_mod, n_mod, cutoff)

    def onset(m_mod, n_mod, cutoff):
        asked.append((m_mod, n_mod, cutoff))
        return honest_onset(m_mod, n_mod, cutoff)
    monkeypatch.setattr(homology, "_decide_onset", decide)
    monkeypatch.setattr(bounds, "vanishing_onset", onset)
    corpus = corpora["CNAK2"]
    alg = corpus.algebra
    alg.clear_caches()
    eb.opposite(alg).clear_caches()
    eb.verify_bound_properties(corpus, 8)
    assert len(set(asked)) < len(asked)  # the grid meets pairs again
    assert len(set(computed)) == len(computed)
    assert set(asked) <= set(computed)
    assert len(computed) == len(alg._onset_memo) + len(eb.opposite(alg)._onset_memo)


# ----- the per-step resolution certificate ---------------------------------------


def _reference_subrepresentation(rep, cols):
    """A submodule as it was built before the per-arrow certificate: arrow
    matrices solved with express_in_columns, the result re-checked by the
    Representation and ModuleMap constructors."""
    from extbound.exactla import express_in_columns
    mats = []
    for a, x in zip(rep.algebra.quiver.arrows, rep.arrow_matrices):
        sub = express_in_columns(cols[a.target], x @ cols[a.source])
        assert sub is not None
        mats.append(sub)
    sub_rep = eb.Representation(rep.algebra, tuple(m.cols for m in cols), tuple(mats))
    return sub_rep, eb.ModuleMap(sub_rep, rep, tuple(cols))


def _reference_kernel(f):
    fld = f.source.algebra.field
    return _reference_subrepresentation(f.source, [
        eb.Matrix.from_columns(fld, eb.kernel_basis(m), nrows=f.source.dims[v])
        for v, m in enumerate(f.vertex_maps)])


def _reference_image(f):
    from extbound.exactla import column_space_basis
    return _reference_subrepresentation(f.target, [column_space_basis(m)
                                                   for m in f.vertex_maps])


def _reference_radical(rep):
    """rad M: at v the canonical basis of the sum of the images of the arrows
    into v."""
    from extbound.exactla import column_space_basis, hstack
    fld = rep.algebra.field
    cols = []
    for v, d in enumerate(rep.dims):
        incoming = [x for a, x in zip(rep.algebra.quiver.arrows, rep.arrow_matrices)
                    if a.target == v and x.cols]
        cols.append(column_space_basis(hstack(incoming)) if incoming and d
                    else eb.Matrix.zeros(fld, d, 0))
    return _reference_subrepresentation(rep, cols)


def _reference_cokernel(f):
    """The cokernel as it was built before the per-arrow certificate: a
    well-definedness check, then both constructor checks."""
    from extbound.exactla import Matrix, column_space_basis, hstack, inverse
    from extbound.modules import _unit_completion
    alg = f.target.algebra
    fld = alg.field
    bases, projs, sections, qdims = [], [], [], []
    for v in range(alg.vertex_count):
        b = column_space_basis(f.vertex_maps[v])
        d = f.target.dims[v]
        chosen = _unit_completion(b)
        q = len(chosen)
        qdims.append(q)
        section = Matrix.from_columns(
            fld, [[fld.one if i == j else fld.zero for i in range(d)] for j in chosen], nrows=d)
        u = hstack([b, section])
        uinv = inverse(u)
        if uinv is None:
            raise eb.InternalCheckError("cokernel completion is singular")
        proj = (Matrix.from_rows(fld, [uinv.row_list(i) for i in range(b.cols, d)])
                if q else Matrix.zeros(fld, 0, d))
        bases.append(b)
        projs.append(proj)
        sections.append(section)
    mats = []
    for a, x in zip(alg.quiver.arrows, f.target.arrow_matrices):
        induced = projs[a.target] @ x @ sections[a.source]
        # well-definedness: arrows must send the image into the image
        if not (projs[a.target] @ x @ bases[a.source]).is_zero:
            raise eb.InternalCheckError("cokernel is not well defined")
        mats.append(induced)
    rep = eb.Representation(alg, tuple(qdims), tuple(mats))
    return rep, eb.ModuleMap(f.target, rep, tuple(projs))


def _reference_split_along(rep, f_power):
    """The Fitting split as it was built before the per-arrow certificate:
    both parts through the reference submodule, the projections sliced from
    the inverse of [K | I] and checked as module maps."""
    from extbound.exactla import Matrix, column_space_basis, hstack, inverse
    fld = rep.algebra.field
    kcols = [Matrix.from_columns(fld, eb.kernel_basis(m), nrows=d)
             for m, d in zip(f_power.vertex_maps, rep.dims)]
    icols = [column_space_basis(m) for m in f_power.vertex_maps]
    kdim = sum(m.cols for m in kcols)
    if kdim == 0 or kdim == rep.total_dim:
        return None
    kpart, kincl = _reference_subrepresentation(rep, kcols)
    ipart, iincl = _reference_subrepresentation(rep, icols)
    kmats, imats = [], []
    for k, i in zip(kcols, icols):
        uinv = inverse(hstack([k, i]))
        assert uinv is not None
        rows = [uinv.row_list(r) for r in range(uinv.rows)]
        kmats.append(Matrix.from_rows(fld, rows[:k.cols]) if k.cols
                     else Matrix.zeros(fld, 0, k.rows))
        imats.append(Matrix.from_rows(fld, rows[k.cols:]) if i.cols
                     else Matrix.zeros(fld, 0, k.rows))
    return ((kpart, kincl, eb.ModuleMap(rep, kpart, tuple(kmats))),
            (ipart, iincl, eb.ModuleMap(rep, ipart, tuple(imats))))


def _reference_step(module):
    """The resolution step before the per-step certificate: rad M and rad P
    built as modules through the reference, surjectivity by rank, minimality
    by the rank test against rad P, and the reference kernel."""
    from extbound.exactla import hstack
    from extbound.modules import _path_actions, _unit_completion, projective_bundle
    alg, fld = module.algebra, module.algebra.field
    rad, rad_incl = _reference_radical(module)
    tops = tuple(d - r for d, r in zip(module.dims, rad.dims))
    bundle = projective_bundle(alg, tops)
    lifts = [_unit_completion(rad_incl.vertex_maps[v], tops[v])
             for v in range(alg.vertex_count)]
    gen_units = [lifts[v][c] for v, c in bundle.summands]
    op = _path_actions(module)
    cover = eb.ModuleMap(bundle.rep, module, tuple(
        eb.Matrix.from_columns(fld, [op(path).column(gen_units[s])
                                     for s, path in bundle.vertex_labels[v]],
                               nrows=module.dims[v])
        for v in range(alg.vertex_count)))
    assert cover.is_surjective
    syz, incl = _reference_kernel(cover)
    prad, prad_incl = _reference_radical(bundle.rep)
    for v in range(alg.vertex_count):
        assert eb.rank(hstack([prad_incl.vertex_maps[v], incl.vertex_maps[v]])) \
            == prad.dims[v]
    mult = tuple(sum(1 for w, _ in bundle.summands if w == v)
                 for v in range(alg.vertex_count))
    return bundle, cover, syz, incl, mult


def _assert_resolution_matches_reference(module, depth):
    res = eb.minimal_resolution(module, depth)
    for k, cov in enumerate(res.covers):
        bundle, cover, syz, incl, mult = _reference_step(res.syzygies[k])
        assert cov.bundle == bundle and cov.projective == bundle.rep
        assert cov.cover.vertex_maps == cover.vertex_maps
        assert res.syzygies[k + 1] == syz
        assert res.inclusions[k].vertex_maps == incl.vertex_maps
        assert res.inclusions[k].source is res.syzygies[k + 1]
        assert res.multiplicities(k) == mult


def _quantum_complete_intersection(p, q):
    field = eb.FieldSpec.prime(p)
    quiver = eb.Quiver.build(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = (eb.make_relation(field, [(1, quiver.path(["x", "x"]))]),
            eb.make_relation(field, [(1, quiver.path(["y", "y"]))]),
            eb.make_relation(field, [(1, quiver.path(["y", "x"])),
                                     (-q, quiver.path(["x", "y"]))]))
    return eb.build_algebra(eb.AlgebraPresentation(field, quiver, rels, 3))


def test_certified_step_matches_reference_on_fixtures(corpora):
    for corpus in corpora.values():
        for _, rep in corpus:
            for m_mod in (rep, eb.direct_sum([rep, rep])):
                _assert_resolution_matches_reference(m_mod, 6)


@pytest.mark.parametrize("vertices,length", [(8, 5), (7, 3)])
def test_certified_step_matches_reference_on_nakayama(vertices, length):
    alg = _cyclic_nakayama(vertices, length)
    for v in range(vertices):
        for m_mod in (eb.simple_module(alg, v), eb.projective_module(alg, v)):
            _assert_resolution_matches_reference(m_mod, 6)


def test_hom_basis_matches_the_dense_reference_on_quantum_syzygies(
        assert_hom_basis_matches_reference):
    # two loops: an equation row can take a + and a - term in one entry
    alg = _quantum_complete_intersection(101, 7)
    syzygies = eb.minimal_resolution(eb.simple_module(alg, 0), 6).syzygies[:7]
    for source in syzygies:
        for target in syzygies:
            assert_hom_basis_matches_reference(source, target)


def test_certified_step_matches_reference_on_quantum_complete_intersection():
    alg = _quantum_complete_intersection(101, 7)
    _assert_resolution_matches_reference(eb.simple_module(alg, 0), 8)
    m_mod, n_mod = _quantum_exterior_q()  # the same shape over Q
    for rep in (m_mod, n_mod):
        _assert_resolution_matches_reference(rep, 6)


def test_direct_sums_pass_the_checked_constructor(corpora):
    # direct_sum skips the relation check; the checked constructor must
    # accept every sum it builds and give back an equal module
    sums = [eb.direct_sum([m, n]) for corpus in corpora.values()
            for _, m in corpus for _, n in corpus]
    sums += [eb.regular_module(corpus.algebra) for corpus in corpora.values()]
    resolutions = [eb.minimal_resolution(eb.simple_module(alg, v), 6)
                   for alg in (_cyclic_nakayama(8, 5), _cyclic_nakayama(7, 3))
                   for v in range(alg.vertex_count)]
    resolutions.append(eb.minimal_resolution(
        eb.simple_module(_quantum_complete_intersection(101, 7), 0), 8))
    sums += [cov.bundle.rep for res in resolutions for cov in res.covers]
    assert len(sums) > 100
    for rep in sums:
        assert eb.Representation(rep.algebra, rep.dims, rep.arrow_matrices) == rep


def test_duals_pass_the_checked_constructor(corpora):
    # dual_module skips the relation check; the checked constructor must
    # accept every dual it builds and give back an equal module
    mods = [rep for corpus in corpora.values() for _, rep in corpus]
    for alg in (_cyclic_nakayama(8, 5), _cyclic_nakayama(7, 3)):
        mods += [build(alg, v) for v in range(alg.vertex_count) for build in
                 (eb.simple_module, eb.projective_module, eb.injective_module)]
    res = eb.minimal_resolution(eb.simple_module(_quantum_complete_intersection(101, 7), 0), 8)
    mods += res.syzygies[:9]
    assert len(mods) > 60
    for rep in mods:
        dual = eb.dual_module(rep)
        assert eb.Representation(dual.algebra, dual.dims, dual.arrow_matrices) == dual
        assert eb.dual_module(dual) == rep


def test_covers_and_hom_bases_pass_the_checked_constructor(corpora):
    # projective_cover and hom_basis skip the intertwining check; the checked
    # constructor must accept every map they build
    families = [[rep for _, rep in corpus] for corpus in corpora.values()]
    for alg in (_cyclic_nakayama(8, 5), _cyclic_nakayama(7, 3)):
        families.append([build(alg, v) for v in range(alg.vertex_count) for build in
                         (eb.simple_module, eb.projective_module, eb.injective_module)])
    res = eb.minimal_resolution(eb.simple_module(_quantum_complete_intersection(101, 7), 0), 8)
    families.append(res.syzygies[:9])
    maps = []
    for mods in families:
        for m_mod in mods:
            maps.append(eb.projective_cover(m_mod).cover)
            for n_mod in mods:
                maps.extend(eb.hom_basis(m_mod, n_mod))
    assert len(maps) > 1000
    for f in maps:
        checked = eb.ModuleMap(f.source, f.target, f.vertex_maps)
        assert checked.vertex_maps == f.vertex_maps


def _builder_families(corpora):
    """Lists of modules over one algebra each: the fixture members with their
    doubles and the regular module, simples, projectives and injectives of
    NAK(4,3) and NAK(5,2) with the regular module, and Kronecker bands over Q
    next to the quantum exterior bands over Q."""
    for corpus in corpora.values():
        members = [rep for _, rep in corpus]
        yield members + [eb.direct_sum([m, m]) for m in members] \
            + [eb.regular_module(corpus.algebra)]
    for vertices, length in ((4, 3), (5, 2)):
        alg = _cyclic_nakayama(vertices, length)
        yield [build(alg, v) for v in range(vertices) for build in
               (eb.simple_module, eb.projective_module, eb.injective_module)] \
            + [eb.regular_module(alg)]
    field = eb.FieldSpec.rationals()
    quiver = eb.Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = eb.build_algebra(eb.AlgebraPresentation(field, quiver, (), 2))
    yield [eb.Representation(alg, (2, 2), (eb.Matrix.identity(field, 2),
                                           eb.Matrix.from_rows(field, second)))
           for second in ([[0, -1], [1, 0]], [[0, -2], [1, 0]], [[0, 1], [0, 0]])] \
        + [eb.regular_module(alg)]
    yield list(_quantum_exterior_q())


def _maps_between(source, target):
    """The canonical Hom basis, then two fixed combinations of it."""
    basis = eb.hom_basis(source, target)
    yield from basis
    if len(basis) > 1:
        total = basis[0]
        for k, g in enumerate(basis[1:], start=2):
            total = total + g.scale(k)
        yield total
        yield basis[0] + basis[-1].scale(-1)


def _same(built, ref):
    return built[0] == ref[0] and built[1].source == ref[1].source \
        and built[1].target == ref[1].target \
        and built[1].vertex_maps == ref[1].vertex_maps


def test_submodule_and_quotient_builders_match_references(corpora):
    from extbound.modules import _fitting_power, _split_along
    compared = 0
    for family in _builder_families(corpora):
        for source in family:
            for target in family:
                for f in _maps_between(source, target):
                    assert _same(eb.kernel(f), _reference_kernel(f))
                    assert _same(eb.image(f), _reference_image(f))
                    assert _same(eb.cokernel(f), _reference_cokernel(f))
                    compared += 3
            assert _same(eb.radical(source), _reference_radical(source))
            for f in eb.end_basis(source):
                power = _fitting_power(f, source.total_dim)
                split, ref = _split_along(source, power), _reference_split_along(source, power)
                assert (split is None) == (ref is None)
                for part, ref_part in zip(split or (), ref or ()):
                    assert _same(part[:2], ref_part[:2])
                    assert part[2].vertex_maps == ref_part[2].vertex_maps
            compared += 2
    assert compared > 1000


def test_cover_rejects_a_cover_that_is_not_surjective(monkeypatch, a2):
    from extbound import modules
    # every generator at a vertex lifts to the first coordinate there
    monkeypatch.setattr(modules, "_unit_completion", lambda basis, limit: [0] * limit)
    s1 = eb.simple_module(a2, 0)
    with pytest.raises(eb.InternalCheckError, match="not surjective"):
        eb.projective_cover(eb.direct_sum([s1, s1]))


def test_cover_rejects_a_kernel_vector_at_a_generator(monkeypatch, loop2):
    from extbound import modules
    honest = modules.kernel_basis
    # coordinate 0 of the cover of S is the generator of P
    monkeypatch.setattr(modules, "kernel_basis",
                        lambda m: [(1,) + vec[1:] for vec in honest(m)])
    with pytest.raises(eb.InternalCheckError, match="not minimal"):
        eb.projective_cover(eb.simple_module(loop2, 0))


def test_kernel_rejects_a_basis_that_is_not_arrow_stable(monkeypatch, loop2):
    from extbound import modules
    p = eb.projective_module(loop2, 0)  # basis e, x: x . e = x leaves span{e}
    monkeypatch.setattr(modules, "kernel_basis",
                        lambda m: [tuple(1 if i == 0 else 0 for i in range(m.cols))])
    with pytest.raises(eb.InternalCheckError, match="not arrow-stable"):
        eb.kernel(eb.ModuleMap.zero(p, p))


def test_kernel_rejects_a_basis_that_is_not_canonical(monkeypatch, loop2):
    from extbound import modules
    p = eb.projective_module(loop2, 0)
    monkeypatch.setattr(modules, "kernel_basis", lambda m: [(1, 0), (1, 0)])
    with pytest.raises(eb.InternalCheckError, match="not in canonical form"):
        eb.kernel(eb.ModuleMap.zero(p, p))


def test_image_rejects_a_basis_that_is_not_canonical(monkeypatch, loop2):
    from extbound import modules
    p = eb.projective_module(loop2, 0)
    # neither column has a coordinate where it alone is 1
    monkeypatch.setattr(modules, "column_space_basis",
                        lambda m: eb.Matrix.from_rows(m.field, [[1, 1], [1, 1]]))
    with pytest.raises(eb.InternalCheckError, match="not in canonical form"):
        eb.image(eb.ModuleMap.identity(p))


def test_radical_rejects_a_basis_that_is_not_arrow_stable(monkeypatch, loop2):
    from extbound import modules
    p = eb.projective_module(loop2, 0)  # basis e, x: x . e = x leaves span{e}
    monkeypatch.setattr(modules, "_radical_columns",
                        lambda rep: [eb.Matrix.from_rows(rep.algebra.field, [[1], [0]])])
    with pytest.raises(eb.InternalCheckError, match="not arrow-stable"):
        eb.radical(p)


def test_cokernel_rejects_a_singular_completion(monkeypatch, loop2):
    from extbound import modules
    p = eb.projective_module(loop2, 0)
    # every unit of the completion is e_0
    monkeypatch.setattr(modules, "_unit_completion",
                        lambda basis, limit=None: [0] * (basis.rows - basis.cols))
    with pytest.raises(eb.InternalCheckError, match="does not span"):
        eb.cokernel(eb.ModuleMap.zero(p, p))


def test_cokernel_rejects_a_projection_that_does_not_intertwine(monkeypatch, loop2):
    from extbound import modules
    p = eb.projective_module(loop2, 0)
    # claim im f = span{e}, which x moves to x: the quotient by it is not a module
    monkeypatch.setattr(modules, "column_space_basis",
                        lambda m: eb.Matrix.from_rows(m.field, [[1], [0]]))
    with pytest.raises(eb.InternalCheckError, match="not well defined"):
        eb.cokernel(eb.ModuleMap.zero(p, p))


# a fresh algebra per build order: clear_caches keeps the projectives built
@pytest.mark.parametrize("order,p", zip(permutations(range(3)),
                                        (10007, 10009, 10037, 10039, 10061, 10067)))
def test_a_projective_equal_to_a_simple_and_a_syzygy_is_one_object(order, p):
    # over A2, S(2) is projective and equals the radical of P(1)
    quiver = eb.Quiver.build(["1", "2"], [("a", "1", "2")])
    alg = eb.build_algebra(eb.AlgebraPresentation(eb.FieldSpec.prime(p), quiver, (), 2))
    assert not alg._projectives and not alg._module_memo
    builders = (lambda: eb.syzygy(eb.simple_module(alg, 0), 1),
                lambda: eb.simple_module(alg, 1),
                lambda: eb.projective_module(alg, 1))
    built = [builders[k]() for k in order]
    assert built[0] is built[1] is built[2]
    assert eb.injective_module(alg, 0) is eb.injective_module(alg, 0)
