"""The fixture corpora are built in code.  These tests are the certificate
behind their provenance "complete": every member is indecomposable, the
members are pairwise non-isomorphic, and there are as many of them as the
algebra has indecomposables (the argument is in the fixtures docstring).
The standard corpora of `generate_corpus` are tested here too."""

from itertools import combinations

import extbound as eb

# sum over the vertices v of dim P_v
MEMBER_COUNTS = {"A2": 3, "LOOP2": 2, "NAK3": 5, "CNAK2": 4}


def test_every_member_is_certified_indecomposable(corpora):
    for corpus in corpora.values():
        for name, rep in corpus:
            dec = eb.decompose(rep)
            assert dec.determined and len(dec.copies) == 1, name


def test_each_fixture_quiver_is_a_line_or_an_oriented_cycle(corpora):
    # connected with at most one arrow into and one out of each vertex: the
    # algebra is Nakayama, so its indecomposables are the uniserial
    # P_v / rad^j P_v, sum_v dim P_v of them
    for corpus in corpora.values():
        quiver = corpus.algebra.quiver
        n = quiver.vertex_count
        for v in range(n):
            assert sum(a.source == v for a in quiver.arrows) <= 1
            assert sum(a.target == v for a in quiver.arrows) <= 1
        assert len(quiver.arrows) in (n - 1, n)
        neighbours = {v: set() for v in range(n)}
        for a in quiver.arrows:
            neighbours[a.source].add(a.target)
            neighbours[a.target].add(a.source)
        reached, frontier = {0}, [0]
        while frontier:
            new = neighbours[frontier.pop()] - reached
            reached |= new
            frontier.extend(new)
        assert reached == set(range(n))


def test_member_count_is_the_sum_of_the_projective_dimensions(corpora):
    assert set(corpora) == set(MEMBER_COUNTS)
    for name, corpus in corpora.items():
        alg = corpus.algebra
        assert corpus.is_complete
        assert len(corpus) == MEMBER_COUNTS[name] == sum(
            eb.projective_module(alg, v).total_dim for v in range(alg.vertex_count))


def test_members_are_pairwise_not_isomorphic(corpora):
    for corpus in corpora.values():
        for (m_name, m_mod), (n_name, n_mod) in combinations(corpus.members, 2):
            assert eb.is_isomorphic(m_mod, n_mod).status == "not_iso", (m_name, n_name)


def test_each_call_builds_a_corpus_of_the_algebras_own_modules():
    first, second = eb.fixture_corpus("nak3"), eb.fixture_corpus("NAK3")
    assert first is not second and first.members == second.members
    alg = first.algebra
    assert first.get("S1") is eb.simple_module(alg, 0)
    assert first.get("P2") is eb.projective_module(alg, 1)
    assert first.provenance == {"kind": "fixture-indecomposables", "fixture": "NAK3",
                                "complete": True}



def test_projective_and_injective_corpora_hold_the_algebras_own_modules(corpora):
    for corpus in corpora.values():
        alg = corpus.algebra
        vertices = alg.quiver.vertices
        for spec, prefix, build in (("projectives", "P", eb.projective_module),
                                    ("injectives", "I", eb.injective_module)):
            made = eb.generate_corpus(alg, spec)
            assert made.provenance == {"kind": spec}
            assert made.names() == [f"{prefix}{v}" for v in vertices]
            assert all(rep is build(alg, v) for v, (_, rep) in enumerate(made))
