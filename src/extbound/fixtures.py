"""Built-in desk-scale fixture algebras and standard corpus generators.

Four fixtures cover the hypotheses the checkers care about: A2 (hereditary),
LOOP2 (local self-injective, square-zero loop), NAK3 (Nakayama of global
dimension two), CNAK2 (self-injective cyclic Nakayama with square-zero
radical).  `fixture_corpus` builds each one's complete list of
indecomposables in code: the simples S_v, then the projectives P_v that are
not simple.

Every member is indecomposable because its endomorphism ring is local:
End(S_v) = k, and End(P_v) is e_v A e_v, up to taking the opposite ring,
with e_v A e_v = k e_v + e_v (rad A) e_v, where e_v (rad A) e_v is a
nilpotent ideal because rad A is nilpotent.  The list is complete because
each fixture quiver is a line or an oriented cycle, so the algebra is
Nakayama: every indecomposable is uniserial, P_v / rad^j P_v for
1 <= j <= dim P_v, so there are sum_v dim P_v of them, and here
rad^2 A = 0, so each is S_v or P_v.  tests/test_fixtures.py checks each
step of this on the four corpora.
"""

from __future__ import annotations

from .exactla import FieldSpec
from .algebra import (
    Algebra, AlgebraPresentation, Quiver, Representation, build_algebra,
    injective_module, make_relation, projective_module, simple_module,
)
from .modules import AlgebraMismatchError
from .homology import syzygy
from .bounds import Corpus, UnknownNameError

FIXTURE_NAMES = ("A2", "LOOP2", "NAK3", "CNAK2")
FIXTURE_FIELD_P = 101


def _presentation(name: str) -> AlgebraPresentation:
    field = FieldSpec.prime(FIXTURE_FIELD_P)
    if name == "A2":
        quiver = Quiver.build(["1", "2"], [("a", "1", "2")])
        return AlgebraPresentation(field, quiver, (), 2)
    if name == "LOOP2":
        quiver = Quiver.build(["1"], [("x", "1", "1")])
        rel = make_relation(field, [(1, quiver.path(["x", "x"]))])
        return AlgebraPresentation(field, quiver, (rel,), 2)
    if name == "NAK3":
        quiver = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        rel = make_relation(field, [(1, quiver.path(["a", "b"]))])
        return AlgebraPresentation(field, quiver, (rel,), 3)
    if name == "CNAK2":
        quiver = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
        rels = (make_relation(field, [(1, quiver.path(["a", "b"]))]),
                make_relation(field, [(1, quiver.path(["b", "a"]))]))
        return AlgebraPresentation(field, quiver, rels, 2)
    raise UnknownNameError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")


def fixture_algebra(name: str) -> Algebra:
    return build_algebra(_presentation(name.upper()))


def fixture_corpus(name: str) -> Corpus:
    """The complete indecomposable corpus of a fixture (see the module
    docstring for why it is complete and each member indecomposable).  Each
    call builds a new Corpus; its members are the algebra's own modules."""
    name = name.upper()
    alg = fixture_algebra(name)
    vnames = alg.quiver.vertices
    members = [(f"S{vnames[v]}", simple_module(alg, v)) for v in range(alg.vertex_count)]
    for v in range(alg.vertex_count):
        proj = projective_module(alg, v)
        if proj.total_dim > 1:  # simple projectives are already listed
            members.append((f"P{vnames[v]}", proj))
    return Corpus(alg, tuple(members),
                  {"kind": "fixture-indecomposables", "fixture": name, "complete": True})


def fixture_module(fixture: str, module_name: str) -> Representation:
    return fixture_corpus(fixture).get(module_name)


CORPUS_SPECS = ("simples", "projectives", "injectives", "syzygy-closure",
                "fixture-indecomposables")


def generate_corpus(algebra: Algebra, spec: str, *,
                    seeds: list[tuple[str, Representation]] | None = None,
                    depth: int = 3, fixture: str | None = None) -> Corpus:
    """Deterministic standard corpora: simples, projectives, injectives, the
    syzygy closure of seed modules to a given depth, or a fixture's complete
    indecomposable list."""
    vnames = algebra.quiver.vertices
    if spec == "simples":
        members = [(f"S{vnames[v]}", simple_module(algebra, v))
                   for v in range(algebra.vertex_count)]
        return Corpus(algebra, tuple(members), {"kind": "simples"})
    if spec == "projectives":
        members = [(f"P{vnames[v]}", projective_module(algebra, v))
                   for v in range(algebra.vertex_count)]
        return Corpus(algebra, tuple(members), {"kind": "projectives"})
    if spec == "injectives":
        members = [(f"I{vnames[v]}", injective_module(algebra, v))
                   for v in range(algebra.vertex_count)]
        return Corpus(algebra, tuple(members), {"kind": "injectives"})
    if spec == "syzygy-closure":
        if not seeds:
            raise ValueError("syzygy-closure needs seed modules")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        members: list[tuple[str, Representation]] = []
        seen: set = set()
        for seed_name, seed in seeds:
            if seed.algebra is not algebra:
                raise AlgebraMismatchError(f"seed module {seed_name} is over a different algebra")
            for j in range(depth + 1):
                syz = syzygy(seed, j)
                if syz.is_zero or syz in seen:
                    continue
                seen.add(syz)
                members.append((seed_name if j == 0 else f"syz{j}_of_{seed_name}", syz))
        return Corpus(algebra, tuple(members),
                      {"kind": "syzygy-closure", "depth": depth,
                       "seeds": [n for n, _ in seeds]})
    if spec == "fixture-indecomposables":
        if fixture is None:
            raise ValueError("fixture-indecomposables needs the fixture name")
        corpus = fixture_corpus(fixture)
        if corpus.algebra is not algebra:
            raise AlgebraMismatchError(f"fixture {fixture.upper()} is over a different algebra")
        return corpus
    raise ValueError(f"unknown corpus spec {spec!r}; one of {', '.join(CORPUS_SPECS)}")


__all__ = [
    "FIXTURE_NAMES", "FIXTURE_FIELD_P", "CORPUS_SPECS",
    "fixture_algebra", "fixture_corpus", "fixture_module", "generate_corpus",
]
