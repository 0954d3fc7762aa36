"""Bounded quiver algebras and their representations.

An algebra is presented by a finite quiver, admissible relations (linear
combinations of parallel paths of length >= 2) and a nilpotency bound N
asserting that every path of length >= N lies in the relation ideal.  The
build realizes a path basis for the quotient, a multiplication table, the
primitive idempotents and the radical, all deterministically: paths are
ordered by length then lexicographically by arrow index, and the surviving
basis is the greedy one in that order.

Conventions, fixed once for the whole package: modules are left modules,
realized as representations where an arrow a acts M_{source(a)} ->
M_{target(a)}; a path lists its arrows in application order (first applied
first), and the product p*q in the algebra means "apply q, then p".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Iterable, Sequence

from .exactla import Echelon, FieldSpec, Matrix, Scalar

_PATH_LIMIT = 500_000


class PresentationError(ValueError):
    """The quiver/relation data does not describe an admissible presentation."""


class NilpotencyBoundError(PresentationError):
    """Some path of length N survives outside the relation ideal."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise PresentationError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise PresentationError("duplicate arrow names")
        for a in self.arrows:
            if not (0 <= a.source < len(self.vertices) and 0 <= a.target < len(self.vertices)):
                raise PresentationError(f"arrow {a.name} has an invalid endpoint")

    @classmethod
    def build(cls, vertices: Sequence[str], arrows: Sequence[tuple[str, str, str]]) -> "Quiver":
        """Arrows given as (name, source vertex name, target vertex name)."""
        vnames = tuple(vertices)
        index = {v: i for i, v in enumerate(vnames)}
        arrs = []
        for name, src, tgt in arrows:
            if src not in index or tgt not in index:
                raise PresentationError(f"arrow {name}: unknown vertex {src!r} or {tgt!r}")
            arrs.append(Arrow(name, index[src], index[tgt]))
        return cls(vnames, tuple(arrs))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def vertex_index(self, name: str) -> int:
        try:
            return self.vertices.index(name)
        except ValueError:
            raise PresentationError(f"unknown vertex {name!r}") from None

    def arrow_index(self, name: str) -> int:
        for i, a in enumerate(self.arrows):
            if a.name == name:
                return i
        raise PresentationError(f"unknown arrow {name!r}")

    def trivial_path(self, vertex: int) -> "Path":
        return Path(vertex, vertex, ())

    def path(self, arrow_names: Sequence[str]) -> "Path":
        """Path from arrow names in application order (first applied first)."""
        if not arrow_names:
            raise PresentationError("path from names needs at least one arrow")
        idxs = tuple(self.arrow_index(n) for n in arrow_names)
        for k in range(len(idxs) - 1):
            if self.arrows[idxs[k]].target != self.arrows[idxs[k + 1]].source:
                raise PresentationError(
                    f"arrows {arrow_names[k]!r} and {arrow_names[k + 1]!r} do not compose")
        return Path(self.arrows[idxs[0]].source, self.arrows[idxs[-1]].target, idxs)


@dataclass(frozen=True)
class Path:
    """A path in a quiver; arrows are indices listed in application order."""

    source: int
    target: int
    arrows: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)

    def sort_key(self) -> tuple:
        return (len(self.arrows), self.arrows, self.source)

    def render(self, quiver: Quiver) -> str:
        if not self.arrows:
            return f"e_{quiver.vertices[self.source]}"
        return "*".join(quiver.arrows[i].name for i in self.arrows)


RelationTerm = tuple[Scalar, Path]
Relation = tuple[RelationTerm, ...]


@dataclass(frozen=True)
class AlgebraPresentation:
    field: FieldSpec
    quiver: Quiver
    relations: tuple[Relation, ...]
    nilpotency_bound: int

    def __post_init__(self):
        if self.nilpotency_bound < 1:
            raise PresentationError("nilpotency bound must be >= 1")
        for rel in self.relations:
            if not rel:
                raise PresentationError("empty relation")
            src, tgt = rel[0][1].source, rel[0][1].target
            for coef, path in rel:
                if path.length < 2:
                    raise PresentationError(
                        f"relation term {path.render(self.quiver)} has length < 2")
                if (path.source, path.target) != (src, tgt):
                    raise PresentationError("relation terms are not parallel")
            if all(c == 0 for c, _ in rel):
                raise PresentationError("relation is the zero combination")

    def canonical_key(self) -> tuple:
        return (
            self.field.kind, self.field.p,
            self.quiver.vertices,
            tuple((a.name, a.source, a.target) for a in self.quiver.arrows),
            tuple(tuple((self.field.fmt(c), p.source, p.arrows) for c, p in rel)
                  for rel in self.relations),
            self.nilpotency_bound,
        )


def make_relation(field: FieldSpec, terms: Iterable[tuple[int | str, Path]]) -> Relation:
    """Normalize coefficients and drop zero terms."""
    out = []
    for coef, path in terms:
        c = field.coerce(coef)
        if c != 0:
            out.append((c, path))
    if not out:
        raise PresentationError("relation is the zero combination")
    return tuple(out)


def _enumerate_paths(quiver: Quiver, max_len: int) -> list[list[Path]]:
    """Paths grouped by length 0..max_len, each level in path order."""
    levels: list[list[Path]] = [[quiver.trivial_path(v) for v in range(quiver.vertex_count)]]
    total = quiver.vertex_count
    for _ in range(max_len):
        nxt = []
        for p in levels[-1]:
            for ai, a in enumerate(quiver.arrows):
                if a.source == p.target:
                    nxt.append(Path(p.source, a.target, p.arrows + (ai,)))
        nxt.sort(key=Path.sort_key)
        total += len(nxt)
        if total > _PATH_LIMIT:
            raise PresentationError(
                f"path count exceeds {_PATH_LIMIT}; nilpotency bound too generous")
        levels.append(nxt)
    return levels


def _saturate(field: FieldSpec, quiver: Quiver, generators: list[dict[Path, Scalar]],
              columns: dict[tuple[int, int], list[Path]], col_of: dict[Path, int],
              max_len: int, drop_whole_on_overflow: bool) -> dict[tuple[int, int], Echelon]:
    """Close the span of the generators under arrow multiplication on both sides.

    The span is kept per (source, target) block as an Echelon whose columns
    are the paths columns[block], path p sitting in column col_of[p].  With
    drop_whole_on_overflow a product is discarded entirely as soon as one
    term exceeds max_len (no term-wise truncation, sound for membership
    certification); otherwise overlong terms are dropped term-wise, which is
    valid once paths of length >= N are known to lie in the ideal.
    """
    echelons: dict[tuple[int, int], Echelon] = {}
    queue: list[dict[Path, Scalar]] = []

    def push(combo: dict[Path, Scalar]) -> None:
        if not combo:
            return
        some = next(iter(combo))
        blk = (some.source, some.target)
        ech = echelons.get(blk)
        if ech is None:
            ech = echelons[blk] = Echelon(field)
        paths = columns[blk]
        vec = [field.zero] * len(paths)
        for pth, c in combo.items():
            vec[col_of[pth]] = c
        newrow = ech.add(vec)
        if newrow is not None:
            queue.append({paths[j]: x for j, x in enumerate(newrow) if x != 0})

    for g in generators:
        push(g)

    qi = 0
    while qi < len(queue):
        combo = queue[qi]
        qi += 1
        some = next(iter(combo))
        src, tgt = some.source, some.target
        for ai, a in enumerate(quiver.arrows):
            if a.source == tgt:  # multiply by the arrow on the left (apply after)
                prod = {Path(p.source, a.target, p.arrows + (ai,)): c for p, c in combo.items()}
                push(_clip(prod, max_len, drop_whole_on_overflow))
            if a.target == src:  # multiply on the right (apply before)
                prod = {Path(a.source, p.target, (ai,) + p.arrows): c for p, c in combo.items()}
                push(_clip(prod, max_len, drop_whole_on_overflow))
    return echelons


def _clip(combo: dict[Path, Scalar], max_len: int, drop_whole: bool) -> dict[Path, Scalar]:
    if all(p.length <= max_len for p in combo):
        return combo
    if drop_whole:
        return {}
    return {p: c for p, c in combo.items() if p.length <= max_len}


class Algebra:
    """A bounded quiver algebra realized on its canonical path basis.

    Instances are immutable after construction and compare by identity;
    build_algebra returns one shared instance per presentation.
    """

    def __init__(self, presentation: AlgebraPresentation, basis: list[Path],
                 table: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]]):
        self.presentation = presentation
        self.field = presentation.field
        self.quiver = presentation.quiver
        self.basis = tuple(basis)
        self.basis_index = {p: i for i, p in enumerate(self.basis)}
        self._table = table
        self.dim = len(self.basis)
        self.idempotent_index = tuple(
            self.basis_index[self.quiver.trivial_path(v)]
            for v in range(self.quiver.vertex_count))
        self.radical_indices = tuple(i for i, p in enumerate(self.basis) if p.length >= 1)
        blocks: dict[tuple[int, int], list[int]] = {}
        for i, p in enumerate(self.basis):
            blocks.setdefault((p.source, p.target), []).append(i)
        self.basis_by_block = {blk: tuple(idxs) for blk, idxs in blocks.items()}
        self._arrow_basis_index = tuple(
            self.basis_index[Path(a.source, a.target, (ai,))]
            for ai, a in enumerate(self.quiver.arrows))
        # caches, filled lazily; all cached values are immutable
        self._projectives: dict[int, "Representation"] = {}
        self._regular: "Representation | None" = None
        self._opposite: "Algebra | None" = None
        self._step_memo: dict = {}
        self._ext_memo: dict = {}
        self._rank_memo: dict = {}
        self._hom_memo: dict = {}
        self._pd_memo: dict = {}
        self._onset_memo: dict = {}
        self._module_memo: dict = {}

    @property
    def vertex_count(self) -> int:
        return self.quiver.vertex_count

    def clear_caches(self) -> None:
        """Empty the seven memos: the six that _memoized writes, resolution
        steps (the only store of resolutions; each MinimalResolution is a
        per-call walk of it, built once, and keeps the steps it holds), Hom
        bases, the (Hom, Ext^1) pairs of Ext tables, the complex route's
        ranks, projective dimensions per (module, cutoff) and vanishing
        onsets, and the module table (_canonical_module), which grows with
        every module built until it is cleared.  They refill on demand with
        equal values.  The projective and regular modules stay, as the
        algebra's own modules, and so does the opposite algebra; each kept
        projective goes back into the emptied module table, so a module
        built later equal to it is that same object."""
        for memo in (self._step_memo, self._hom_memo, self._ext_memo,
                     self._rank_memo, self._pd_memo, self._onset_memo,
                     self._module_memo):
            memo.clear()
        for rep in self._projectives.values():
            _canonical_module(rep)

    def multiply_basis(self, i: int, j: int) -> tuple[tuple[int, Scalar], ...]:
        """Structure constants of basis[i] * basis[j] (apply j first, then i)."""
        return self._table.get((i, j), ())

    def check_associativity(self) -> bool:
        """Exhaustive (p*q)*r == p*(q*r) over all basis triples."""
        fld = self.field
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.multiply_basis(i, j)
                for k in range(self.dim):
                    left: dict[int, Scalar] = {}
                    for m, c in ij:
                        for n, d in self.multiply_basis(m, k):
                            left[n] = fld.add(left.get(n, fld.zero), fld.mul(c, d))
                    right: dict[int, Scalar] = {}
                    for m, c in self.multiply_basis(j, k):
                        for n, d in self.multiply_basis(i, m):
                            right[n] = fld.add(right.get(n, fld.zero), fld.mul(c, d))
                    left = {n: c for n, c in left.items() if c != 0}
                    right = {n: c for n, c in right.items() if c != 0}
                    if left != right:
                        return False
        return True


_ALGEBRA_REGISTRY: dict[tuple, Algebra] = {}


def build_algebra(presentation: AlgebraPresentation) -> Algebra:
    """Realize the quotient of the path algebra by the relation ideal.

    Verifies the declared nilpotency bound: every path of length exactly N
    must lie in the saturated relation span (computed without term-wise
    truncation), otherwise NilpotencyBoundError is raised.  Structurally
    equal presentations share one Algebra instance.
    """
    key = presentation.canonical_key()
    cached = _ALGEBRA_REGISTRY.get(key)
    if cached is not None:
        return cached

    field, quiver, nbound = presentation.field, presentation.quiver, presentation.nilpotency_bound
    max_rel_len = max((p.length for rel in presentation.relations for _, p in rel), default=0)
    lmax = max(nbound, max_rel_len)
    levels = _enumerate_paths(quiver, lmax)

    def block_columns(bound: int):
        """Paths of length <= bound per (source, target) block, in descending
        path order, and the column of each path in its block.  Each pivot
        then sits on the largest path of its row, so the quotient basis read
        off the non-pivot columns is the greedy smallest set of paths."""
        columns: dict[tuple[int, int], list[Path]] = {}
        for lvl in levels[:bound + 1]:
            for p in lvl:
                columns.setdefault((p.source, p.target), []).append(p)
        col_of: dict[Path, int] = {}
        for paths in columns.values():
            paths.sort(key=Path.sort_key, reverse=True)
            col_of.update((p, j) for j, p in enumerate(paths))
        return columns, col_of

    def unit(path: Path, width: int, col_of: dict[Path, int]) -> list:
        vec = [field.zero] * width
        vec[col_of[path]] = field.one
        return vec

    rel_combos = [dict((p, c) for c, p in rel) for rel in presentation.relations]

    # certification pass: may only drop whole products, never single terms
    columns, col_of = block_columns(lmax)
    strict = _saturate(field, quiver, rel_combos, columns, col_of, lmax, True)
    for w in levels[nbound] if nbound < len(levels) else []:
        blk = (w.source, w.target)
        ech = strict.get(blk)
        if ech is None or not ech.contains(unit(w, len(columns[blk]), col_of)):
            raise NilpotencyBoundError(
                f"path {w.render(quiver)} of length {nbound} is not in the relation ideal; "
                f"declared nilpotency bound {nbound} is too small")

    # quotient pass: paths of length >= N are now known to lie in the ideal,
    # so relations and products may be truncated term-wise below N
    truncated = [c for c in (_clip(rc, nbound - 1, False) for rc in rel_combos) if c]
    columns, col_of = block_columns(nbound - 1)
    echelons = _saturate(field, quiver, truncated, columns, col_of, nbound - 1, False)

    in_ideal = {columns[blk][pc] for blk, ech in echelons.items() for pc in ech.pivots}
    basis = sorted((p for lvl in levels[:nbound] for p in lvl if p not in in_ideal),
                   key=Path.sort_key)
    basis_pos = {p: i for i, p in enumerate(basis)}

    table: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]] = {}
    for i, p in enumerate(basis):
        for j, q in enumerate(basis):
            if q.target != p.source:
                continue
            word_arrows = q.arrows + p.arrows
            if len(word_arrows) >= nbound:
                continue
            word = Path(q.source, p.target, word_arrows)
            blk = (word.source, word.target)
            ech = echelons.get(blk)
            if ech is None:
                terms = ((basis_pos[word], field.one),)
            else:
                paths = columns[blk]
                residue = ech.reduce(unit(word, len(paths), col_of))
                terms = tuple(sorted(
                    (basis_pos[paths[t]], x) for t, x in enumerate(residue) if x != 0))
            if terms:
                table[(i, j)] = terms

    alg = Algebra(presentation, basis, table)
    _ALGEBRA_REGISTRY[key] = alg
    return alg


def opposite(algebra: Algebra) -> Algebra:
    """The opposite algebra: arrows and relation paths reversed.

    Taking the opposite twice returns the original Algebra instance.  It is
    built once per algebra and kept on both algebras.
    """
    if algebra._opposite is None:
        pres = algebra.presentation
        q = pres.quiver
        op_quiver = Quiver(q.vertices, tuple(Arrow(a.name, a.target, a.source) for a in q.arrows))
        op_rels = tuple(
            tuple((c, Path(p.target, p.source, tuple(reversed(p.arrows)))) for c, p in rel)
            for rel in pres.relations)
        op = build_algebra(AlgebraPresentation(pres.field, op_quiver, op_rels,
                                               pres.nilpotency_bound))
        algebra._opposite, op._opposite = op, algebra
    return algebra._opposite


@dataclass(frozen=True)
class Representation:
    """A finite-dimensional module: one vector space per vertex, one exact
    matrix per arrow (shape d_target x d_source).

    Construction verifies that every defining relation of the algebra acts
    as the zero map, so a Representation is always a genuine module.
    """

    algebra: Algebra
    dims: tuple[int, ...]
    arrow_matrices: tuple[Matrix, ...]

    def __post_init__(self):
        alg = self.algebra
        if len(self.dims) != alg.vertex_count:
            raise ValueError("dimension vector length mismatch")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        if len(self.arrow_matrices) != len(alg.quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for a, m in zip(alg.quiver.arrows, self.arrow_matrices):
            if m.field != alg.field:
                raise ValueError(f"matrix for arrow {a.name} is over the wrong field")
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(
                    f"matrix for arrow {a.name} has shape {m.rows}x{m.cols}, "
                    f"expected {self.dims[a.target]}x{self.dims[a.source]}")
        for rel in alg.presentation.relations:
            src, tgt = rel[0][1].source, rel[0][1].target
            acc = Matrix.zeros(alg.field, self.dims[tgt], self.dims[src])
            for coef, path in rel:
                acc = acc + path_action(self, path).scale(coef)
            if not acc.is_zero:
                raise ValueError(
                    f"relation with leading term {rel[0][1].render(alg.quiver)} "
                    "does not act as zero")

    @classmethod
    def _trusted(cls, algebra: Algebra, dims: tuple, arrow_matrices: tuple) -> "Representation":
        # bypass the shape and relation re-check for modules that are valid by
        # construction; the caller states the argument (see direct_sum and
        # modules._subrepresentation)
        obj = object.__new__(cls)
        d = obj.__dict__
        d["algebra"], d["dims"], d["arrow_matrices"] = algebra, dims, arrow_matrices
        return obj

    def __hash__(self) -> int:
        # Every per-algebra memo lookup hashes its module keys; the arrow
        # matrices are immutable, so their hash is computed once and stored.
        # Same fields as the dataclass __eq__, so equal modules hash equal.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.algebra, self.dims, self.arrow_matrices))
        return h

    # computed once per module and kept in the instance dict, like _hash
    @cached_property
    def total_dim(self) -> int:
        return sum(self.dims)

    @cached_property
    def is_zero(self) -> bool:
        return self.total_dim == 0


def _canonical_module(rep: Representation) -> Representation:
    """The one object of the algebra's module table equal to rep: rep itself
    the first time its structure is built, the stored object afterwards.
    Memo keys keep their structural equality; the table only turns equal
    keys into identical ones, so later lookups compare by identity.  Racing
    threads both return the object stored first."""
    return rep.algebra._module_memo.setdefault(rep, rep)


def _memoized(memo_name: str):
    """Memoize a function of a module and further arguments in the memo
    named memo_name of the module's algebra, keyed on the full argument
    tuple.  Keys compare structurally (Representation equality), so equal
    modules built apart share one entry.  Racing threads may both compute;
    both return the value stored first.  This is the only writer of those
    memos; Algebra.clear_caches empties them."""
    def decorate(fn):
        @wraps(fn)
        def memoized(*key):
            memo = getattr(key[0].algebra, memo_name)
            value = memo.get(key)
            if value is None:
                value = memo.setdefault(key, fn(*key))
            return value
        return memoized
    return decorate


def path_action(rep: Representation, path: Path) -> Matrix:
    """The linear map a path induces on a representation (application order)."""
    if not path.arrows:
        return Matrix.identity(rep.algebra.field, rep.dims[path.source])
    acc = rep.arrow_matrices[path.arrows[0]]
    for ai in path.arrows[1:]:
        acc = rep.arrow_matrices[ai] @ acc
    return acc


def zero_representation(algebra: Algebra) -> Representation:
    dims = (0,) * algebra.vertex_count
    mats = tuple(Matrix.zeros(algebra.field, 0, 0) for _ in algebra.quiver.arrows)
    return Representation(algebra, dims, mats)


def direct_sum(reps: Sequence[Representation]) -> Representation:
    """Block-diagonal direct sum, summands in order at every vertex
    (modules.direct_sum_with_maps adds the canonical inclusions and
    projections, which are module maps).

    The sum is valid by construction and is built without the relation
    re-check: a path acts on the sum block by block, as it acts on each
    summand, so a relation acts blockwise too and is zero on the sum
    because it is zero on every summand, each a Representation already.

    The sum records its nonzero parts (_summands), nested sums flattened,
    when there are at least two: the block-diagonal matrices are the proof
    that it is their sum, so homology reads Ext and finite projective
    dimension of the sum off the parts.  The record is not part of the
    module's equality; an equal module built another way has none."""
    reps = list(reps)
    if not reps:
        raise ValueError("direct sum of an empty family is ambiguous; pass the algebra instead")
    alg = reps[0].algebra
    for r in reps:
        if r.algebra is not alg:
            raise ValueError("direct sum across different algebras")
    fld = alg.field
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(alg.vertex_count))
    mats = []
    for ai, a in enumerate(alg.quiver.arrows):
        rows_t, cols_s = dims[a.target], dims[a.source]
        # the summands' entries are already field elements: copy them as they are
        block = [fld.zero] * (rows_t * cols_s)
        ro = co = 0
        for r in reps:
            m = r.arrow_matrices[ai]
            for i in range(m.rows):
                start = (ro + i) * cols_s + co
                block[start:start + m.cols] = m.entries[i * m.cols:(i + 1) * m.cols]
            ro += r.dims[a.target]
            co += r.dims[a.source]
        mats.append(Matrix._trusted(fld, rows_t, cols_s, tuple(block)))
    total = Representation._trusted(alg, dims, tuple(mats))
    parts = tuple(p for r in reps for p in (_summands(r) or (r,)) if not p.is_zero)
    if len(parts) > 1:
        total.__dict__["_summands"] = parts
    return total


def _summands(rep: Representation) -> tuple[Representation, ...] | None:
    """The nonzero parts direct_sum built rep from, in order and none of
    them a recorded sum, or None when rep carries no such record."""
    return rep.__dict__.get("_summands")


def projective_module(algebra: Algebra, vertex: int) -> Representation:
    """P(vertex): basis paths starting at the vertex, arrows acting by
    post-composition through the multiplication table.  The module table's
    object, kept on the algebra."""
    if not (0 <= vertex < algebra.vertex_count):
        raise ValueError(f"invalid vertex index {vertex}")
    cached = algebra._projectives.get(vertex)
    if cached is not None:
        return cached
    fld = algebra.field
    block_of = {v: list(algebra.basis_by_block.get((vertex, v), ())) for v in range(algebra.vertex_count)}
    pos_in_block = {v: {b: k for k, b in enumerate(idxs)} for v, idxs in block_of.items()}
    dims = tuple(len(block_of[v]) for v in range(algebra.vertex_count))
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        rows = [[fld.zero] * dims[a.source] for _ in range(dims[a.target])]
        abasis = algebra._arrow_basis_index[ai]
        for col, bidx in enumerate(block_of[a.source]):
            for k, c in algebra.multiply_basis(abasis, bidx):
                rows[pos_in_block[a.target][k]][col] = c
        mats.append(Matrix.from_rows(fld, rows) if dims[a.target] else
                    Matrix.zeros(fld, 0, dims[a.source]))
    rep = _canonical_module(Representation(algebra, dims, tuple(mats)))
    algebra._projectives[vertex] = rep
    return rep


def simple_module(algebra: Algebra, vertex: int) -> Representation:
    if not (0 <= vertex < algebra.vertex_count):
        raise ValueError(f"invalid vertex index {vertex}")
    dims = tuple(1 if v == vertex else 0 for v in range(algebra.vertex_count))
    mats = tuple(
        Matrix.zeros(algebra.field, dims[a.target], dims[a.source])
        for a in algebra.quiver.arrows)
    return _canonical_module(Representation(algebra, dims, mats))


def dual_module(rep: Representation) -> Representation:
    """The standard duality: same dimension vector over the opposite algebra,
    every arrow matrix transposed.  Applying it twice gives back the input,
    as the very same object when the input is in its algebra's module table
    (_canonical_module), as every dual, simple, projective and submodule is.

    The dual is valid by construction and is built without the relation
    re-check: a reversed path acts on the dual by the transpose of the path's
    action on the module, so every relation of the opposite algebra, a
    relation of the algebra with its paths reversed, acts by the transpose of
    that relation's action, which is zero because the input is a module."""
    op = opposite(rep.algebra)
    mats = tuple(m.transpose() for m in rep.arrow_matrices)
    return _canonical_module(Representation._trusted(op, rep.dims, mats))


def injective_module(algebra: Algebra, vertex: int) -> Representation:
    """I(vertex), the dual of the opposite algebra's projective: an object of
    the module table, as every dual is."""
    return dual_module(projective_module(opposite(algebra), vertex))


def regular_module(algebra: Algebra) -> Representation:
    """The algebra as a left module over itself: the sum of all P(i)."""
    if algebra._regular is None:
        algebra._regular = direct_sum(
            [projective_module(algebra, v) for v in range(algebra.vertex_count)])
    return algebra._regular
