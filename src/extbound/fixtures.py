"""Built-in desk-scale fixture algebras and standard corpus generators.

Four fixtures cover the hypotheses the checkers care about: A2 (hereditary),
LOOP2 (local self-injective, square-zero loop), NAK3 (Nakayama of global
dimension two), CNAK2 (self-injective cyclic Nakayama with square-zero
radical).  Each ships with its complete list of indecomposables as a corpus
file; loading re-validates the file and certifies every member
indecomposable via the Fitting decomposition.
"""

from __future__ import annotations

import json
from importlib import resources

from .exactla import FieldSpec
from .algebra import (
    Algebra, AlgebraPresentation, Quiver, Representation, build_algebra,
    injective_module, make_relation, projective_module, simple_module,
)
from .modules import decompose
from .homology import syzygy
from .bounds import Corpus, UnknownNameError
from .fileio import FileFormatError, corpus_from_json

FIXTURE_NAMES = ("A2", "LOOP2", "NAK3", "CNAK2")
FIXTURE_FIELD_P = 101

_corpus_cache: dict[str, Corpus] = {}


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


def _builtin_members(name: str) -> list[tuple[str, Representation]]:
    alg = fixture_algebra(name)
    members = [(f"S{alg.quiver.vertices[v]}", simple_module(alg, v))
               for v in range(alg.vertex_count)]
    for v in range(alg.vertex_count):
        proj = projective_module(alg, v)
        if proj.total_dim > 1:  # simple projectives are already listed
            members.append((f"P{alg.quiver.vertices[v]}", proj))
    return members


def build_fixture_corpus(name: str) -> Corpus:
    """The complete indecomposable corpus, constructed in code; the shipped
    data file is its canonical serialization."""
    name = name.upper()
    alg = fixture_algebra(name)
    return Corpus(alg, tuple(_builtin_members(name)),
                  {"kind": "fixture-indecomposables", "fixture": name, "complete": True})


def fixture_corpus(name: str) -> Corpus:
    """Load and validate the shipped indecomposable corpus for a fixture.

    Validation decomposes every member and rejects anything that is not
    certified indecomposable.
    """
    name = name.upper()
    if name in _corpus_cache:
        return _corpus_cache[name]
    if name not in FIXTURE_NAMES:
        raise UnknownNameError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    text = resources.files("extbound").joinpath(
        f"fixtures/{name.lower()}_indecomposables.json").read_text()
    corpus = corpus_from_json(json.loads(text), where=f"fixture {name}")
    for member_name, rep in corpus:
        dec = decompose(rep)
        if not dec.determined or len(dec.copies) != 1:
            raise FileFormatError(
                f"fixture {name}: member {member_name} is not certified indecomposable")
    _corpus_cache[name] = corpus
    return corpus


def fixture_module(fixture: str, module_name: str) -> Representation:
    return fixture_corpus(fixture).get(module_name)


CORPUS_SPECS = ("simples", "projectives", "injectives", "syzygy-closure",
                "fixture-indecomposables")


def generate_corpus(algebra: Algebra, spec: str, *,
                    seeds: list[tuple[str, Representation]] | None = None,
                    depth: int = 3, fixture: str | None = None) -> Corpus:
    """Deterministic standard corpora: simples, projectives, injectives, the
    syzygy closure of seed modules to a given depth, or a fixture's shipped
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
                raise ValueError("seed module over a different algebra")
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
        return fixture_corpus(fixture)
    raise ValueError(f"unknown corpus spec {spec!r}; one of {', '.join(CORPUS_SPECS)}")


__all__ = [
    "FIXTURE_NAMES", "FIXTURE_FIELD_P", "CORPUS_SPECS",
    "fixture_algebra", "fixture_corpus", "fixture_module",
    "build_fixture_corpus", "generate_corpus",
]
