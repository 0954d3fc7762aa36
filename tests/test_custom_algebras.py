"""Coverage beyond the shipped fixtures: multi-term relations and the
rational field."""

import pytest

import extbound as eb
from extbound import PdFinite, PdPeriodic


@pytest.fixture(scope="module")
def square():
    # commutative square: the two length-2 paths from corner to corner agree
    field = eb.FieldSpec.prime(7)
    q = eb.Quiver.build(["1", "2", "3", "4"],
                        [("a", "1", "2"), ("b", "1", "3"),
                         ("c", "2", "4"), ("d", "3", "4")])
    rel = eb.make_relation(field, [(1, q.path(["a", "c"])),
                                   (-1, q.path(["b", "d"]))])
    return eb.build_algebra(eb.AlgebraPresentation(field, q, (rel,), 3))


@pytest.fixture(scope="module")
def loop_q():
    field = eb.FieldSpec.rationals()
    q = eb.Quiver.build(["1"], [("x", "1", "1")])
    rel = eb.make_relation(field, [(1, q.path(["x", "x"]))])
    return eb.build_algebra(eb.AlgebraPresentation(field, q, (rel,), 2))


@pytest.fixture(scope="module")
def kronecker_q():
    field = eb.FieldSpec.rationals()
    q = eb.Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    return eb.build_algebra(eb.AlgebraPresentation(field, q, (), 2))


def test_square_dimension_and_structure(square):
    assert square.dim == 9  # 4 trivial + 4 arrows + one identified diagonal
    assert square.check_associativity()
    assert eb.projective_module(square, 0).dims == (1, 1, 1, 1)


def test_square_homology(square):
    s1 = eb.simple_module(square, 0)
    assert eb.projective_dimension(s1, 10) == PdFinite(2)
    res = eb.minimal_resolution(s1, 3)
    assert res.multiplicities(1) == (0, 1, 1, 0)
    assert res.multiplicities(2) == (0, 0, 0, 1)


def test_square_property_suite(square):
    corpus = eb.generate_corpus(square, "simples")
    report = eb.verify_bound_properties(corpus, 10)
    assert not report.failed
    bounds = eb.corpus_bounds(corpus, 10)
    assert bounds.gab == eb.BoundValue(True, 2)


def test_rational_loop_homology(loop_q):
    s = eb.simple_module(loop_q, 0)
    assert eb.ext_table(s, s, 5).dims == (1, 1, 1, 1, 1, 1)
    res = eb.projective_dimension(s, 10)
    assert isinstance(res, PdPeriodic) and res.period == 1
    onset = eb.onset_against_regular(s, 10)
    assert onset.status == "vanishes" and onset.onset == 0


def test_rational_hom_basis_matches_the_dense_reference(
        loop_q, assert_hom_basis_matches_reference):
    s, p = eb.simple_module(loop_q, 0), eb.projective_module(loop_q, 0)
    modules = [s, p, eb.direct_sum([s, p]), eb.direct_sum([p, s, p])]
    for source in modules:
        for target in modules:
            assert_hom_basis_matches_reference(source, target)


def _kronecker_band(algebra, second):
    # Kronecker representation Q^2 => Q^2 with arrows (I, second)
    fld = algebra.field
    return eb.Representation(algebra, (2, 2), (eb.Matrix.identity(fld, 2),
                                               eb.Matrix.from_rows(fld, second)))


def test_rational_decompose_is_honestly_undetermined(loop_q, kronecker_q):
    # End of the regular module is Q[x]/(x^2); the trace form has a
    # one-dimensional radical (x), so End is local and the module certified
    dec = eb.decompose(eb.regular_module(loop_q))
    assert dec.determined and len(dec.copies) == 1
    # End of (I, rotation) is Q(i), a field bigger than Q: no certificate
    # tells it from a product of fields, so the answer stays undetermined
    dec = eb.decompose(_kronecker_band(kronecker_q, [[0, -1], [1, 0]]))
    assert not dec.determined
    assert dec.reason is not None


def test_rational_tilting_regular(loop_q):
    report = eb.is_tilting(eb.regular_module(loop_q), 10, 8)
    assert report.verdict == "tilting"


def test_rational_iso_undetermined_is_explicit(loop_q, kronecker_q):
    # both sides decompose with certificates, and their factors differ
    reg = eb.regular_module(loop_q)
    semis = eb.direct_sum([eb.simple_module(loop_q, 0),
                           eb.simple_module(loop_q, 0)])
    res = eb.is_isomorphic(reg, semis)
    assert res.status == "not_iso"
    # Ends Q(i) and Q(sqrt -2) are fields bigger than Q, so neither band is
    # certified indecomposable; there is no nonzero map between them, which
    # rules out an isomorphism on its own
    k = _kronecker_band(kronecker_q, [[0, -1], [1, 0]])
    k2 = _kronecker_band(kronecker_q, [[0, -2], [1, 0]])
    assert eb.hom_basis(k, k2) == []
    res = eb.is_isomorphic(k, k2)
    assert res.status == "not_iso" and res.reason is not None
    # K + K against K + K': Hom is 4-dimensional both ways, no basis hom or
    # pair sum is invertible and neither side decomposes with a
    # certificate, so the answer is an explicit undetermined
    kk, kk2 = eb.direct_sum([k, k]), eb.direct_sum([k, k2])
    assert len(eb.hom_basis(kk, kk2)) == len(eb.hom_basis(kk2, kk)) == 4
    res = eb.is_isomorphic(kk, kk2)
    assert res.status == "undetermined" and res.reason is not None
