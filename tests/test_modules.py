import itertools
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

import extbound as eb
from extbound import ModuleMap
from extbound import modules
from extbound.modules import _locality


def test_hom_dimensions_a2(a2):
    p1 = eb.projective_module(a2, 0)
    s1 = eb.simple_module(a2, 0)
    assert len(eb.hom_basis(p1, s1)) == 1
    assert len(eb.hom_basis(s1, p1)) == 0


def test_end_contains_identity(corpora):
    for corpus in corpora.values():
        for _, rep in corpus:
            basis = eb.end_basis(rep)
            assert len(basis) >= 1
            # the identity must lie in the span of the canonical basis
            from extbound.exactla import Matrix, solve
            fld = rep.algebra.field
            cols = [f.flatten() for f in basis]
            system = Matrix.from_columns(fld, cols, nrows=len(cols[0]))
            assert solve(system, ModuleMap.identity(rep).flatten()) is not None


def test_hom_algebra_mismatch(a2, loop2):
    with pytest.raises(eb.AlgebraMismatchError):
        eb.hom_basis(eb.simple_module(a2, 0), eb.simple_module(loop2, 0))


def test_in_add_self(corpora):
    for corpus in corpora.values():
        for _, rep in corpus:
            result = eb.in_add(rep, rep)
            assert result.member and result.verify()


def test_in_add_simple_projective_a2(a2):
    s2 = eb.simple_module(a2, 1)
    p2 = eb.projective_module(a2, 1)
    assert eb.in_add(s2, p2).member  # P(2) is the simple at vertex 2


def test_in_add_negative_a2(a2):
    s1 = eb.simple_module(a2, 0)
    assert not eb.in_add(s1, eb.regular_module(a2)).member


def test_in_add_zero_module(a2):
    zero = eb.zero_representation(a2)
    assert eb.in_add(zero, eb.simple_module(a2, 0)).member


def test_is_isomorphic_examples(a2):
    p2 = eb.projective_module(a2, 1)
    s2 = eb.simple_module(a2, 1)
    s1 = eb.simple_module(a2, 0)
    assert eb.is_isomorphic(p2, s2).is_iso
    res = eb.is_isomorphic(s1, s2)
    assert res.status == "not_iso" and "dimension" in res.reason
    ident = eb.is_isomorphic(s1, s1)
    assert ident.is_iso and ident.witness.flatten() == \
        ModuleMap.identity(s1).flatten()


def test_is_isomorphic_witness_verifies(loop2):
    s = eb.simple_module(loop2, 0)
    omega = eb.syzygy(s, 1)
    res = eb.is_isomorphic(s, omega)
    assert res.is_iso and res.witness.is_invertible


def test_is_isomorphic_same_dims_not_iso(a2):
    # P(1) and S(1) + S(2) share the dimension vector but are not isomorphic
    p1 = eb.projective_module(a2, 0)
    split = eb.direct_sum([eb.simple_module(a2, 0), eb.simple_module(a2, 1)])
    res = eb.is_isomorphic(p1, split)
    assert res.status == "not_iso"


def test_decompose_simple(a2):
    dec = eb.decompose(eb.simple_module(a2, 0))
    assert dec.determined
    assert [(f.dims, m) for f, m in dec.factors] == [((1, 0), 1)]


def test_decompose_sum_a2(a2):
    m = eb.direct_sum([eb.projective_module(a2, 0), eb.simple_module(a2, 0)])
    dec = eb.decompose(m)
    assert dec.determined
    dims = sorted(f.dims for f, _ in dec.factors)
    assert dims == [(1, 0), (1, 1)]


def test_decompose_regular_nak3(nak3):
    dec = eb.decompose(eb.regular_module(nak3))
    assert dec.determined
    assert sorted(f.dims for f, _ in dec.factors) == [(0, 0, 1), (0, 1, 1), (1, 1, 0)]
    assert all(mult == 1 for _, mult in dec.factors)


def test_decompose_factors_recompose_up_to_iso(corpora):
    for corpus in corpora.values():
        for _, rep in corpus:
            dec = eb.decompose(eb.direct_sum([rep, rep]))
            assert dec.determined
            pieces = [f for f, mult in dec.factors for _ in range(mult)]
            rebuilt = eb.direct_sum(pieces)
            assert rebuilt.total_dim == 2 * rep.total_dim
            assert eb.is_isomorphic(rebuilt, eb.direct_sum([rep, rep])).is_iso


def test_in_add_assembled_witness(a2):
    s2 = eb.simple_module(a2, 1)
    reg = eb.regular_module(a2)
    result = eb.in_add(s2, reg)
    assert result.member and result.u_maps and result.verify()
    ident = ModuleMap.identity(s2).flatten()
    # the definition verify() checks: sum_i v_i u_i = 1
    total = None
    for u, v in zip(result.u_maps, result.v_maps):
        assert (u.source, u.target, v.source, v.target) == (s2, reg, reg, s2)
        total = v @ u if total is None else total + v @ u
    assert total.flatten() == ident
    # the same witness assembled through T^n: v u = 1 for u = sum incl_i u_i
    # and v = sum v_i proj_i
    power, incls, projs = eb.direct_sum_with_maps([u.target for u in result.u_maps])
    assert power.total_dim == len(result.u_maps) * reg.total_dim
    u_total = v_total = None
    for u, v, incl, proj in zip(result.u_maps, result.v_maps, incls, projs):
        u_total = incl @ u if u_total is None else u_total + incl @ u
        v_total = v @ proj if v_total is None else v_total + v @ proj
    assert (v_total @ u_total).flatten() == ident


def test_in_add_verify_rejects_a_scaled_witness(corpora):
    # each v_i u_i of a witness is a nonzero composite, so scaling one v_i
    # by 2 moves the sum off the identity (by v_i u_i, or by -v_i u_i in
    # characteristic 2)
    rejected = 0
    for corpus in corpora.values():
        reg = eb.regular_module(corpus.algebra)
        for _, rep in corpus:
            for t_mod in (rep, reg):
                result = eb.in_add(rep, t_mod)
                assert result.verify()
                for i in range(len(result.v_maps)):
                    v_maps = list(result.v_maps)
                    v_maps[i] = v_maps[i].scale(2)
                    assert not replace(result, v_maps=tuple(v_maps)).verify()
                    rejected += 1
    assert rejected


def test_add_witness_certifies_only_its_module_against_its_family(a2):
    t_mod = eb.direct_sum([eb.projective_module(a2, 0), eb.simple_module(a2, 0)])
    s2 = eb.simple_module(a2, 1)
    ident = ModuleMap.identity(s2)
    # no maps certify only the zero module
    assert not eb.AddMembership(True, s2, (t_mod,)).verify()
    assert eb.AddMembership(True, eb.zero_representation(a2), (t_mod,)).verify()
    # 1_C = 1_C 1_C, but through C itself, which is not in the family
    assert not eb.AddMembership(True, s2, (t_mod,), (ident,), (ident,)).verify()
    assert eb.AddMembership(True, s2, (s2,), (ident,), (ident,)).verify()
    # an honest witness, relabelled to another module or family
    result = eb.in_add(eb.projective_module(a2, 0), t_mod)
    assert result.member and result.verify()
    assert not replace(result, module=s2).verify()
    assert not replace(result, family=(eb.regular_module(a2),)).verify()
    assert not replace(result, u_maps=result.u_maps[:-1]).verify()


def test_isomorphism_by_factor_matching(a2):
    # P1^3 and the same module with its arrow matrix G invertible: Hom is
    # 3x3 matrices, whose basis elements and pairwise sums have rank <= 2,
    # so the isomorphism comes from matching indecomposable factors
    p1 = eb.projective_module(a2, 0)
    m = eb.direct_sum([p1, p1, p1])
    g = eb.Matrix.from_rows(a2.field, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    n = eb.Representation(a2, m.dims, (g,))
    assert m != n
    homs = eb.hom_basis(m, n)
    assert len(homs) == 9
    assert modules._try_invertible(modules._with_pair_sums(homs)) is None
    result = eb.is_isomorphic(m, n)
    assert result.status == "iso"
    witness = ModuleMap(m, n, result.witness.vertex_maps)  # re-checked
    assert witness.is_invertible


def test_decompose_split_maps_recompose(nak3):
    reg = eb.regular_module(nak3)
    dec = eb.decompose(reg)
    total = None
    for _, incl, proj in dec.copies:
        piece = incl @ proj
        total = piece if total is None else total + piece
    assert total.flatten() == ModuleMap.identity(reg).flatten()


def test_krull_schmidt_doubling(corpora):
    corpus = corpora["A2"]
    for _, rep in corpus:
        single = eb.decompose(rep)
        double = eb.decompose(eb.direct_sum([rep, rep]))
        assert single.determined and double.determined
        assert sorted(m for _, m in double.factors) == \
            sorted(2 * m for _, m in single.factors)


def test_radical_and_top(a2, corpora):
    rad, _ = eb.radical(eb.projective_module(a2, 0))
    assert rad.dims == (0, 1)
    for corpus in corpora.values():
        alg = corpus.algebra
        for v in range(alg.vertex_count):
            tops = eb.top_multiplicities(eb.projective_module(alg, v))
            assert tops == tuple(1 if i == v else 0 for i in range(alg.vertex_count))
    semis = eb.direct_sum([eb.simple_module(a2, 0), eb.simple_module(a2, 1)])
    rad, _ = eb.radical(semis)
    assert rad.total_dim == 0


def test_projective_cover_simple_a2(a2):
    cov = eb.projective_cover(eb.simple_module(a2, 0))
    assert cov.projective.dims == (1, 1)
    ker, _ = eb.kernel(cov.cover)
    assert ker.dims == (0, 1)


def test_projective_cover_of_projective(corpora):
    for corpus in corpora.values():
        alg = corpus.algebra
        for v in range(alg.vertex_count):
            p = eb.projective_module(alg, v)
            cov = eb.projective_cover(p)
            assert cov.cover.is_invertible


def test_projective_cover_loop2(loop2):
    cov = eb.projective_cover(eb.simple_module(loop2, 0))
    assert cov.projective.dims == (2,)
    ker, _ = eb.kernel(cov.cover)
    assert eb.is_isomorphic(ker, eb.simple_module(loop2, 0)).is_iso


def test_cover_minimality(corpora):
    # kernel of the cover sits inside the radical of the cover, vertexwise
    from extbound.exactla import Matrix, hstack, rank
    for corpus in corpora.values():
        for _, rep in corpus:
            cov = eb.projective_cover(rep)
            ker, incl = eb.kernel(cov.cover)
            rad, rad_incl = eb.radical(cov.projective)
            for v in range(rep.algebra.vertex_count):
                both = hstack([rad_incl.vertex_maps[v], incl.vertex_maps[v]])
                assert rank(both) == rad.dims[v]


def test_syzygy_examples(a2, loop2, nak3):
    assert eb.syzygy(eb.simple_module(a2, 0), 1) == eb.projective_module(a2, 1)
    s = eb.simple_module(loop2, 0)
    assert eb.syzygy(s, 1) == s  # canonical kernel reproduces S on the nose
    assert eb.syzygy(eb.simple_module(nak3, 0), 3).is_zero


def test_cosyzygy_examples(nak3):
    s3 = eb.simple_module(nak3, 2)
    cos = eb.cosyzygy(s3, 1)
    assert cos.algebra is nak3
    assert cos == eb.simple_module(nak3, 1)


def test_cosyzygy_dual_compatibility(corpora):
    for corpus in corpora.values():
        for _, rep in corpus:
            for m in range(5):
                assert eb.cosyzygy(rep, m).dims == \
                    eb.syzygy(eb.dual_module(rep), m).dims


def test_kernel_image_cokernel_ranks(a2):
    p1 = eb.projective_module(a2, 0)
    s1 = eb.simple_module(a2, 0)
    f = eb.hom_basis(p1, s1)[0]
    ker, _ = eb.kernel(f)
    img, _ = eb.image(f)
    cok, proj = eb.cokernel(f)
    assert ker.total_dim + img.total_dim == p1.total_dim
    assert cok.total_dim == s1.total_dim - img.total_dim
    assert proj.is_surjective


def test_module_map_rejects_non_intertwiner(a2):
    from extbound.exactla import Matrix
    p1 = eb.projective_module(a2, 0)
    bad = (Matrix.from_rows(a2.field, [[1]]), Matrix.from_rows(a2.field, [[0]]))
    with pytest.raises(ValueError):
        ModuleMap(p1, p1, bad)


# ----- locality certificate ---------------------------------------------------


def _free_algebra(p: int, arrows) -> eb.Algebra:
    vertices = sorted({v for _, s, t in arrows for v in (s, t)})
    quiver = eb.Quiver.build(vertices, arrows)
    return eb.build_algebra(eb.AlgebraPresentation(eb.FieldSpec.prime(p), quiver, (), 3))


def _kronecker(algebra, rows) -> eb.Representation:
    """The Kronecker module (I, X), X given by its rows."""
    fld = algebra.field
    n = len(rows)
    return eb.Representation(algebra, (n, n), (eb.Matrix.identity(fld, n),
                                               eb.Matrix.from_rows(fld, rows)))


def _kronecker_band(algebra, n: int) -> eb.Representation:
    # (I, J_n(0)): End is k[x]/(x^n), local but n-dimensional
    return _kronecker(algebra, [[1 if c == r + 1 else 0 for c in range(n)]
                                for r in range(n)])


@pytest.fixture
def no_exhaustive_search(monkeypatch):
    # every input below is decided by a certificate over GF(101)
    def fail(rep, ends):
        raise AssertionError(f"exhaustive search reached, dim End = {len(ends)}")
    monkeypatch.setattr(modules, "_idempotent_search", fail)


def test_kronecker_bands_are_certified_indecomposable(no_exhaustive_search):
    alg = _free_algebra(101, [("a", "1", "2"), ("b", "1", "2")])
    for n in range(2, 9):
        dec = eb.decompose(_kronecker_band(alg, n))
        assert dec.determined and len(dec.copies) == 1, n
    dec = eb.decompose(eb.direct_sum([_kronecker_band(alg, 2), _kronecker_band(alg, 3)]))
    assert dec.determined and len(dec.copies) == 2
    assert sorted(fac.dims for fac, _ in dec.factors) == [(2, 2), (3, 3)]


def test_kronecker_split_along_berlekamp_element(no_exhaustive_search):
    # (I, C) for a companion matrix C has End = F_p[x]/(char C), which no End
    # basis element or pairwise sum splits here; the split comes from a
    # non-scalar b with b^p = b
    alg = _free_algebra(101, [("a", "1", "2"), ("b", "1", "2")])
    # (x - 1)(x - 2)(x - 3): three one-dimensional factors
    dec = eb.decompose(_kronecker(alg, [[0, 0, 6], [1, 0, -11], [0, 1, 6]]))
    assert dec.determined and len(dec.copies) == 3
    assert all(fac.dims == (1, 1) and mult == 1 for fac, mult in dec.factors)
    # x^3 - 1 = (x - 1)(x^2 + x + 1), the quadratic irreducible mod 101
    dec = eb.decompose(_kronecker(alg, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert dec.determined
    assert sorted(fac.dims for fac, _ in dec.factors) == [(1, 1), (2, 2)]
    # x^2 - 2 is irreducible mod 101: End is the field of 101^2 elements
    dec = eb.decompose(_kronecker(alg, [[0, 2], [1, 0]]))
    assert dec.determined and len(dec.copies) == 1


def test_exhaustive_search_certifies_a_noncommutative_end(monkeypatch):
    # k<x,y>/(x^2, y^2, yx) over GF(2): End of the regular module is the
    # 4-dimensional algebra itself, not commutative (xy != 0 = yx) and p = 2
    # is not above dim 4, so neither locality certificate applies and only
    # the exhaustive search decides
    fld = eb.FieldSpec.prime(2)
    quiver = eb.Quiver.build(["1"], [("x", "1", "1"), ("y", "1", "1")])
    relations = tuple(eb.make_relation(fld, [(1, quiver.path(w))])
                      for w in (["x", "x"], ["y", "y"], ["y", "x"]))
    alg = eb.build_algebra(eb.AlgebraPresentation(fld, quiver, relations, 3))
    reg = eb.regular_module(alg)
    ends = eb.end_basis(reg)
    assert len(ends) == 4
    assert _locality(reg, ends) == (None, None)
    searched = []
    search = modules._idempotent_search

    def recorded(rep, e):
        searched.append(search(rep, e))
        return searched[-1]

    monkeypatch.setattr(modules, "_idempotent_search", recorded)
    dec = eb.decompose(reg)
    assert dec.determined and len(dec.copies) == 1
    assert searched == [("indecomposable", None)]


def _reference_copies(rep: eb.Representation) -> int:
    """Indecomposable summands counted by brute force: enumerate all of End
    for a nontrivial idempotent e, split as ker e + ker(1 - e), recurse."""
    if rep.is_zero:
        return 0
    fld = rep.algebra.field
    ends = eb.end_basis(rep)
    one = ModuleMap.identity(rep)
    for coeffs in itertools.product(range(fld.p), repeat=len(ends)):
        e = ModuleMap.zero(rep, rep)
        for c, b in zip(coeffs, ends):
            e = e + b.scale(c)
        flat = e.flatten()
        if (e @ e).flatten() == flat and not e.is_zero and flat != one.flatten():
            return (_reference_copies(eb.kernel(e)[0])
                    + _reference_copies(eb.kernel(one + e.scale(-1))[0]))
    return 1


_SMALL_QUIVERS = {
    "kronecker": [("a", "1", "2"), ("b", "1", "2")],
    "A3": [("a", "1", "2"), ("b", "2", "3")],
    "two-to-one": [("a", "1", "3"), ("b", "2", "3"), ("c", "1", "2")],
}


@st.composite
def small_modules(draw):
    """Modules of total dimension <= 4 over GF(2), GF(3) and GF(5): random
    ones over small free quivers, and Kronecker modules (I, X) with X random
    2x2, whose End is a field, a local ring or a product."""
    p = draw(st.sampled_from((2, 3, 5)))
    entry = st.integers(0, p - 1)
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2))
        return _kronecker(_free_algebra(p, _SMALL_QUIVERS["kronecker"]), rows)
    alg = _free_algebra(p, _SMALL_QUIVERS[draw(st.sampled_from(sorted(_SMALL_QUIVERS)))])
    dims = draw(st.tuples(*[st.integers(0, 4)] * alg.vertex_count)
                .filter(lambda d: 1 <= sum(d) <= 4))
    mats = []
    for a in alg.quiver.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        mats.append(eb.Matrix(alg.field, rows, cols, tuple(entries)))
    return eb.Representation(alg, dims, tuple(mats))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(small_modules())
def test_decompose_matches_exhaustive_search_for_small_p(rep):
    assume(rep.algebra.field.p ** len(eb.end_basis(rep)) <= 3 ** 8)
    copies = _reference_copies(rep)
    dec = eb.decompose(rep)
    assert dec.determined
    assert len(dec.copies) == copies
    # the certificate on its own, also where a Fitting candidate splits first
    assert _locality(rep, eb.end_basis(rep))[0] in (None, copies == 1)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(small_modules(), small_modules())
def test_hom_basis_matches_the_dense_reference(assert_hom_basis_matches_reference, rep, other):
    alg = rep.algebra
    partners = [rep, eb.radical(rep)[0]]
    partners += [eb.simple_module(alg, v) for v in range(alg.vertex_count)]
    partners += [eb.projective_module(alg, v) for v in range(alg.vertex_count)]
    if other.algebra is alg:
        partners.append(other)
    for partner in partners:
        assert_hom_basis_matches_reference(rep, partner)
        assert_hom_basis_matches_reference(partner, rep)


def test_hom_basis_without_unknowns_adds_no_row(monkeypatch, a2):
    from extbound.exactla import Echelon
    added = []
    honest = Echelon.add

    def counting(self, vec):
        added.append(vec)
        return honest(self, vec)
    monkeypatch.setattr(Echelon, "add", counting)
    s1, s2 = eb.simple_module(a2, 0), eb.simple_module(a2, 1)
    a2._hom_memo.pop((s1, s2), None)
    assert eb.hom_basis(s1, s2) == [] and added == []  # disjoint supports
    assert a2._hom_memo[(s1, s2)] == ()
    p1 = eb.projective_module(a2, 0)
    a2._hom_memo.pop((p1, p1), None)
    assert len(eb.hom_basis(p1, p1)) == 1 and added  # the arrow's equation goes in


def test_hom_basis_hands_out_a_new_list(nak3):
    # a caller's edits to its list never reach the stored basis
    p1, reg = eb.projective_module(nak3, 0), eb.regular_module(nak3)
    for source, target in ((p1, reg), (reg, reg)):
        first = eb.hom_basis(source, target)
        stored = nak3._hom_memo[(source, target)]
        assert first and tuple(first) == stored
        first.clear()
        second = eb.hom_basis(source, target)
        assert second is not first and tuple(second) == stored
        second.append(second[0])
        assert tuple(eb.hom_basis(source, target)) == stored
        assert nak3._hom_memo[(source, target)] is stored


def test_hom_basis_reduces_raw_entries(assert_hom_basis_matches_reference):
    # the plain Matrix constructor keeps entries as given: 5 and -5 are 0 in GF(5)
    alg = _free_algebra(5, _SMALL_QUIVERS["kronecker"])
    fld = alg.field
    raw = eb.Representation(alg, (2, 2), (eb.Matrix(fld, 2, 2, (5, 1, -5, 6)),
                                          eb.Matrix(fld, 2, 2, (-1, 7, 10, 2))))
    for partner in (raw, eb.simple_module(alg, 0), eb.projective_module(alg, 0),
                    _kronecker(alg, [[4, 2], [0, 2]])):
        assert_hom_basis_matches_reference(raw, partner)
        assert_hom_basis_matches_reference(partner, raw)
