import pytest

import extbound as eb
from extbound import algebra as algebra_module
from extbound import (
    AlgebraPresentation, FieldSpec, NilpotencyBoundError, PresentationError,
    Quiver, build_algebra, make_relation,
)


def test_a2_build(a2):
    assert a2.dim == 3
    assert [p.render(a2.quiver) for p in a2.basis] == ["e_1", "e_2", "a"]
    assert len(a2.radical_indices) == 1


def test_loop2_build(loop2):
    assert loop2.dim == 2
    assert [p.render(loop2.quiver) for p in loop2.basis] == ["e_1", "x"]


def test_nak3_and_cnak2_dims(nak3, cnak2):
    assert nak3.dim == 5
    assert cnak2.dim == 4


def test_associativity_all_fixtures(corpora):
    for corpus in corpora.values():
        assert corpus.algebra.check_associativity()


def test_admissibility_rejects_short_relation():
    field = FieldSpec.prime(5)
    quiver = Quiver.build(["1", "2"], [("a", "1", "2")])
    rel = ((field.coerce(1), quiver.path(["a"])),)
    with pytest.raises(PresentationError):
        AlgebraPresentation(field, quiver, (rel,), 2)


def test_nilpotency_bound_error():
    field = FieldSpec.prime(5)
    quiver = Quiver.build(["1"], [("x", "1", "1")])
    # no relations at all: the loop is not nilpotent, any bound is wrong
    with pytest.raises(NilpotencyBoundError):
        build_algebra(AlgebraPresentation(field, quiver, (), 2))


def test_nilpotency_bound_generous_is_fine():
    field = FieldSpec.prime(5)
    quiver = Quiver.build(["1"], [("x", "1", "1")])
    rel = make_relation(field, [(1, quiver.path(["x", "x"]))])
    alg = build_algebra(AlgebraPresentation(field, quiver, (rel,), 4))
    assert alg.dim == 2  # x^2 = 0 kills everything above length 1


def test_build_is_registry_shared(loop2):
    again = eb.fixture_algebra("LOOP2")
    assert again is loop2


def test_opposite_a2(a2):
    op = eb.opposite(a2)
    assert op.dim == 3
    arrow = op.quiver.arrows[0]
    assert (arrow.source, arrow.target) == (1, 0)
    assert eb.opposite(op) is a2


def test_opposite_nak3_mirror(nak3):
    op = eb.opposite(nak3)
    assert op.dim == 5
    rel = op.presentation.relations[0]
    path = rel[0][1]
    assert path.source == nak3.quiver.vertex_index("3")
    assert path.target == nak3.quiver.vertex_index("1")


def test_opposite_loop2_self_dual(loop2):
    op = eb.opposite(loop2)
    assert op.dim == 2
    assert op.presentation.canonical_key() == loop2.presentation.canonical_key()


def test_projective_modules(a2, nak3):
    p1 = eb.projective_module(a2, 0)
    assert p1.dims == (1, 1)
    assert eb.projective_module(a2, 1).dims == (0, 1)
    assert eb.projective_module(nak3, 0).dims == (1, 1, 0)
    assert eb.projective_module(nak3, 2).dims == (0, 0, 1)
    with pytest.raises(ValueError):
        eb.projective_module(a2, 7)


def test_regular_module_dimension(corpora):
    for corpus in corpora.values():
        alg = corpus.algebra
        assert eb.regular_module(alg).total_dim == alg.dim


def test_simple_module(a2):
    s1 = eb.simple_module(a2, 0)
    assert s1.dims == (1, 0)
    assert s1.arrow_matrices[0].rows == 0


def test_injective_modules(nak3):
    assert eb.injective_module(nak3, 0).dims == (1, 0, 0)  # I(1) = S(1)
    assert eb.injective_module(nak3, 1).dims == (1, 1, 0)
    assert eb.injective_module(nak3, 2).dims == (0, 1, 1)


def test_dual_module_involution(corpora):
    for corpus in corpora.values():
        for _, rep in corpus:
            assert eb.dual_module(eb.dual_module(rep)) == rep


def test_dual_of_simple_is_simple(nak3):
    d = eb.dual_module(eb.simple_module(nak3, 0))
    assert d.algebra is eb.opposite(nak3)
    assert d.dims == (1, 0, 0)


def test_opposite_is_built_once_per_algebra(monkeypatch, nak3):
    op = eb.dual_module(eb.simple_module(nak3, 0)).algebra
    calls = []
    original = algebra_module.build_algebra

    def counting(presentation):
        calls.append(presentation)
        return original(presentation)

    monkeypatch.setattr(algebra_module, "build_algebra", counting)
    nak3.clear_caches()
    assert eb.dual_module(eb.simple_module(nak3, 1)).algebra is op
    assert eb.opposite(op) is nak3 and eb.opposite(nak3) is op
    assert calls == []


def test_dual_sends_opposite_projectives_to_injectives(corpora):
    for corpus in corpora.values():
        alg = corpus.algebra
        op = eb.opposite(alg)
        for v in range(alg.vertex_count):
            assert eb.dual_module(eb.projective_module(op, v)) == \
                eb.injective_module(alg, v)


def test_injective_socle_is_simple(corpora):
    # soc I(i) at vertex v = joint kernel of the outgoing arrow actions
    from extbound.exactla import kernel_basis, vstack, Matrix
    for corpus in corpora.values():
        alg = corpus.algebra
        for i in range(alg.vertex_count):
            inj = eb.injective_module(alg, i)
            socle = []
            for v in range(alg.vertex_count):
                outgoing = [inj.arrow_matrices[ai]
                            for ai, a in enumerate(alg.quiver.arrows)
                            if a.source == v]
                if outgoing:
                    socle.append(len(kernel_basis(vstack(outgoing))))
                else:
                    socle.append(inj.dims[v])
            assert tuple(socle) == tuple(
                1 if v == i else 0 for v in range(alg.vertex_count))


def test_representation_rejects_relation_violation(loop2):
    from extbound.exactla import Matrix
    bad = Matrix.from_rows(loop2.field, [[1]])
    with pytest.raises(ValueError):
        eb.Representation(loop2, (1,), (bad,))


def test_representation_rejects_bad_shape(a2):
    from extbound.exactla import Matrix
    with pytest.raises(ValueError):
        eb.Representation(a2, (1, 1), (Matrix.zeros(a2.field, 2, 1),))


def test_rationals_algebra():
    field = FieldSpec.rationals()
    quiver = Quiver.build(["1"], [("x", "1", "1")])
    rel = make_relation(field, [(1, quiver.path(["x", "x"]))])
    alg = build_algebra(AlgebraPresentation(field, quiver, (rel,), 2))
    assert alg.dim == 2
    assert eb.regular_module(alg).total_dim == 2


def test_direct_sum_maps(a2):
    p1 = eb.projective_module(a2, 0)
    s1 = eb.simple_module(a2, 0)
    total, incls, projs = eb.direct_sum_with_maps([p1, s1])
    assert total.dims == (2, 1)
    assert eb.direct_sum([p1, s1]) == total  # s1 is zero at the second vertex
    for incl, proj in zip(incls, projs):
        comp = proj @ incl
        assert comp.flatten() == eb.ModuleMap.identity(incl.source).flatten()
