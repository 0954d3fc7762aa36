"""Morphisms and module-category operations for quiver representations.

Covers module maps (ModuleMap, and the canonical inclusions and
projections of a direct sum), hom-space bases, add-membership via the trace
criterion with a split witness checked as sum_i v_i u_i = 1, a certified
isomorphism test, Fitting decomposition into indecomposables, radicals and
tops, and minimal projective covers (syzygies are read from the minimal
resolutions in homology).  A true/false answer from the certified routines
always carries a witness or a structural reason; "undetermined" is an
explicit outcome, never a silent guess.

Everything here is deterministic.  A module is certified indecomposable by
an exact locality test of its endomorphism algebra E (Ronyai, Computing the
structure of finite algebras, 1990): over GF(p) with E commutative, the
Berlekamp subalgebra {b : b^p = b} is one-dimensional exactly when E is
local, and a non-scalar element of it splits M when E is not local; over Q,
or over GF(p) with p > dim M, the radical of E is the radical of the trace
form tr_M(xy) (Dickson), and E is local when that radical has codimension
one.  Only over GF(p), where neither test decides, a bounded exhaustive
idempotent search is the last resort.

Every submodule (kernel, image, radical, both Fitting parts) is built by one
function, _subrepresentation, and every quotient by cokernel.  Each proves
its result with one exact equality per arrow, the intertwining equation of
its inclusion or projection, and then builds it with the trusted
constructors instead of re-checking an object that is valid by
construction; the argument is in each docstring.  Every submodule is
also the one object of its algebra's module table for its structure
(algebra._canonical_module).  Hom bases (the canonical kernel of the
intertwining equations, fed row by row into an Echelon) and projective
covers (a -> a . m on each summand) are built the same way.  The checked
constructors remain for modules read from files, for simple, projective and
zero modules, and for the canonical maps of direct sums and the Fitting
projections.
"""

from __future__ import annotations

import itertools
from typing import Sequence
from dataclasses import dataclass

from .exactla import (
    Echelon, Matrix, column_space_basis, hstack, inverse, kernel_basis, rank, solve,
)
from .algebra import (
    Algebra, Path, Representation, _canonical_module, direct_sum, path_action,
    projective_module, zero_representation,
)


class AlgebraMismatchError(ValueError):
    """Operands live over different algebras."""


class InternalCheckError(RuntimeError):
    """An internal cross-check failed; indicates an implementation bug."""


def _same_algebra(*reps: Representation) -> Algebra:
    alg = reps[0].algebra
    for r in reps[1:]:
        if r.algebra is not alg:
            raise AlgebraMismatchError("representations are over different algebras")
    return alg


@dataclass(frozen=True)
class ModuleMap:
    """A homomorphism of representations: one matrix per vertex, of shape
    d'_v x d_v, satisfying the intertwining relations with every arrow.

    The intertwining equations are verified exactly at construction.
    """

    source: Representation
    target: Representation
    vertex_maps: tuple[Matrix, ...]

    def __post_init__(self):
        alg = _same_algebra(self.source, self.target)
        if len(self.vertex_maps) != alg.vertex_count:
            raise ValueError("one matrix per vertex required")
        for v, m in enumerate(self.vertex_maps):
            if (m.rows, m.cols) != (self.target.dims[v], self.source.dims[v]):
                raise ValueError(f"vertex {v}: matrix shape {m.rows}x{m.cols} does not match "
                                 f"{self.target.dims[v]}x{self.source.dims[v]}")
        broken = self.failing_arrow()
        if broken is not None:
            raise ValueError(f"map does not intertwine arrow {broken.name}")

    def failing_arrow(self):
        """The first arrow a with f_t X_a != X'_a f_s, or None when the
        vertex maps intertwine every arrow."""
        for a, xs, xt in zip(self.source.algebra.quiver.arrows,
                             self.source.arrow_matrices, self.target.arrow_matrices):
            if (self.vertex_maps[a.target] @ xs).entries != \
                    (xt @ self.vertex_maps[a.source]).entries:
                return a
        return None

    @classmethod
    def _trusted(cls, source: Representation, target: Representation,
                 vertex_maps: tuple) -> "ModuleMap":
        # bypass the intertwining re-check for maps that are valid by
        # construction; the caller states the argument
        obj = object.__new__(cls)
        object.__setattr__(obj, "source", source)
        object.__setattr__(obj, "target", target)
        object.__setattr__(obj, "vertex_maps", vertex_maps)
        return obj

    @classmethod
    def identity(cls, rep: Representation) -> "ModuleMap":
        # valid: the identity commutes with every arrow matrix
        return cls._trusted(rep, rep, tuple(
            Matrix.identity(rep.algebra.field, d) for d in rep.dims))

    @classmethod
    def zero(cls, source: Representation, target: Representation) -> "ModuleMap":
        # valid: both sides of every intertwining equation are zero
        _same_algebra(source, target)
        fld = source.algebra.field
        return cls._trusted(source, target, tuple(
            Matrix.zeros(fld, target.dims[v], source.dims[v])
            for v in range(source.algebra.vertex_count)))

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        """Composition self after other; valid, since a composite of
        intertwining maps intertwines."""
        if other.target != self.source:
            raise ValueError("composition source/target mismatch")
        return ModuleMap._trusted(other.source, self.target, tuple(
            a @ b for a, b in zip(self.vertex_maps, other.vertex_maps)))

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        # valid: the intertwining equations are linear in the map
        if self.source != other.source or self.target != other.target:
            raise ValueError("sum of maps with different endpoints")
        return ModuleMap._trusted(self.source, self.target, tuple(
            a + b for a, b in zip(self.vertex_maps, other.vertex_maps)))

    def scale(self, c) -> "ModuleMap":
        # valid: the intertwining equations are linear in the map
        return ModuleMap._trusted(self.source, self.target,
                                  tuple(m.scale(c) for m in self.vertex_maps))

    def flatten(self) -> tuple:
        return tuple(x for m in self.vertex_maps for x in m.entries)

    @property
    def is_zero(self) -> bool:
        return all(m.is_zero for m in self.vertex_maps)

    @property
    def is_injective(self) -> bool:
        return all(rank(m) == m.cols for m in self.vertex_maps)

    @property
    def is_surjective(self) -> bool:
        return all(rank(m) == m.rows for m in self.vertex_maps)

    @property
    def is_invertible(self) -> bool:
        return all(m.rows == m.cols and rank(m) == m.rows for m in self.vertex_maps)


def direct_sum_with_maps(reps: Sequence[Representation]):
    """Block-diagonal direct sum (algebra.direct_sum) plus the canonical
    inclusions and projections, built with the checked constructor: at each
    vertex a summand's inclusion is the identity onto its rows of the sum,
    and its projection is the transpose."""
    reps = list(reps)
    total = direct_sum(reps)
    fld = total.algebra.field
    incls, projs = [], []
    offset = [0] * len(total.dims)
    for r in reps:
        incl = tuple(Matrix(fld, dd, d, tuple(fld.one if i == off + j else fld.zero
                                              for i in range(dd) for j in range(d)))
                     for d, dd, off in zip(r.dims, total.dims, offset))
        incls.append(ModuleMap(r, total, incl))
        projs.append(ModuleMap(total, r, tuple(m.transpose() for m in incl)))
        offset = [off + d for off, d in zip(offset, r.dims)]
    return total, incls, projs


def hom_basis(source: Representation, target: Representation) -> list[ModuleMap]:
    """Canonical basis of Hom(source, target).

    The unknowns are the entries of the vertex maps f_v, vertex by vertex,
    each in row-major order.  Every intertwining equation f_t X_a = X'_a f_s
    of an arrow a: s -> t is one row over the unknowns, fed as it is built
    into an Echelon; arrows with no unknown at either end give no row, and
    with no unknown at all the basis is empty.  The basis is the Echelon's
    canonical kernel basis: the reduced echelon form is unique, so the
    vectors and their order do not depend on the order the rows came in.
    Bases are memoized per algebra (they are immutable).  Each basis map is
    valid and built without the intertwining re-check: it solves the
    system, whose rows are the intertwining equations, entry by entry, and
    its matrices have the shapes of the unknowns' blocks.
    """
    alg = _same_algebra(source, target)
    cached = alg._hom_memo.get((source, target))
    if cached is not None:
        return list(cached)
    fld = alg.field
    xdims, ndims = source.dims, target.dims
    sizes = [n * x for n, x in zip(ndims, xdims)]
    offsets = [0, *itertools.accumulate(sizes)]
    unknowns = offsets[-1]
    maps = []
    if unknowns:
        p = fld.p
        ech = Echelon(fld)
        for a, xs, xt in zip(alg.quiver.arrows, source.arrow_matrices, target.arrow_matrices):
            s, t = a.source, a.target
            if not (sizes[s] or sizes[t]):
                continue
            dx_t, dx_s, dn_s = xdims[t], xdims[s], ndims[s]
            es, et = xs.entries, xt.entries
            for r in range(ndims[t]):
                left = offsets[t] + r * dx_t
                for c in range(dx_s):
                    row = [fld.zero] * unknowns
                    # (f_t X_a)[r, c] contributes f_t[r, k] * X_a[k, c]
                    for k in range(dx_t):
                        row[left + k] += es[k * dx_s + c]
                    # -(X'_a f_s)[r, c] contributes -X'_a[r, k] * f_s[k, c]
                    for k in range(dn_s):
                        row[offsets[s] + k * dx_s + c] -= et[r * dn_s + k]
                    # canonical entries: over Q every sum with the zero
                    # Fraction is a Fraction already
                    ech.add(row if p is None else [x % p for x in row])
        for vec in ech.kernel_basis(unknowns):
            maps.append(ModuleMap._trusted(source, target, tuple(
                Matrix._trusted(fld, ndims[v], xdims[v], vec[offsets[v]:offsets[v + 1]])
                for v in range(alg.vertex_count))))
    alg._hom_memo[(source, target)] = tuple(maps)
    return maps


def end_basis(rep: Representation) -> list[ModuleMap]:
    return hom_basis(rep, rep)


@dataclass(frozen=True)
class AddMembership:
    """Outcome of the trace test for membership of C = `module` in add(T),
    T the direct sum of `family`.

    When positive, the witness is the maps u_i: C -> T_j and v_i: T_j -> C,
    each pair through one T_j of the family, with sum_i v_i u_i the identity
    of C, so C is a direct summand of a finite sum of the T_j through
    u = (u_i) and v = (v_i); the zero module has the empty witness.
    """

    member: bool
    module: Representation
    family: tuple[Representation, ...]
    u_maps: tuple[ModuleMap, ...] = ()
    v_maps: tuple[ModuleMap, ...] = ()

    def verify(self) -> bool:
        """Recheck that each u_i runs C -> T_j and v_i runs T_j -> C for a T_j
        of the family, and that sum_i v_i u_i = 1_C exactly.  With the
        canonical maps of the sum, v u = sum_{i,j} v_i proj_i incl_j u_j and
        proj_i incl_j is delta_ij, so this is the statement v u = 1 itself."""
        if not self.member:
            return True
        if len(self.u_maps) != len(self.v_maps):
            return False
        if not self.u_maps:
            return self.module.is_zero  # only 0 splits through the empty sum
        total = None
        for u, v in zip(self.u_maps, self.v_maps):
            if (u.source != self.module or v.target != self.module
                    or v.source != u.target or u.target not in self.family):
                return False
            term = v @ u
            total = term if total is None else total + term
        return total.flatten() == ModuleMap.identity(self.module).flatten()


def in_add(candidate: Representation, t_module: Representation) -> AddMembership:
    """Is the candidate a direct summand of a finite sum of copies of T?

    Positive exactly when the identity of End(candidate) lies in the span of
    the composites v*u with u: C -> T and v: T -> C; the solving combination
    is returned as an explicit split witness.
    """
    return in_add_family(candidate, [t_module])


def in_add_family(candidate: Representation,
                  parts: list[Representation]) -> AddMembership:
    """Membership of the candidate in add of a direct sum, computed without
    forming the sum: hom spaces into a sum are blockwise, so only composites
    through a single part can contribute to the identity.

    Composites are folded into an incremental span, keeping only the
    independent ones; the scan stops as soon as the identity lands in the
    span.
    """
    family = tuple(parts)
    for part in family:
        _same_algebra(candidate, part)
    if candidate.is_zero:
        return AddMembership(True, candidate, family)
    fld = candidate.algebra.field
    id_vec = list(ModuleMap.identity(candidate).flatten())
    span = Echelon(fld)
    independent: list[tuple[ModuleMap, ModuleMap, tuple]] = []
    found = False
    for part in family:
        if part.is_zero:
            continue
        us = hom_basis(candidate, part)
        vs = hom_basis(part, candidate)
        for u in us:
            for v in vs:
                flat = (v @ u).flatten()
                if span.add(flat) is not None:
                    independent.append((u, v, flat))
                    if span.contains(id_vec):
                        found = True
                        break
            if found:
                break
        if found:
            break
    if not found:
        return AddMembership(False, candidate, family)
    cols = [flat for _, _, flat in independent]
    system = Matrix.from_columns(fld, cols, nrows=len(id_vec))
    coeffs = solve(system, tuple(id_vec))
    if coeffs is None:
        raise InternalCheckError("identity left the span it was certified in")
    u_used, v_used = [], []
    for (u, v, _), c in zip(independent, coeffs):
        if c != 0:
            u_used.append(u)
            v_used.append(v.scale(c))
    result = AddMembership(True, candidate, family, tuple(u_used), tuple(v_used))
    if not result.verify():
        raise InternalCheckError("add-membership witness failed to recompose the identity")
    return result


@dataclass(frozen=True)
class IsoResult:
    status: str  # "iso" | "not_iso" | "undetermined"
    witness: ModuleMap | None = None
    reason: str | None = None

    @property
    def is_iso(self) -> bool:
        return self.status == "iso"


def _try_invertible(candidates) -> ModuleMap | None:
    for f in candidates:
        if f.is_invertible:
            return f
    return None


def _with_pair_sums(basis: list[ModuleMap]):
    """The basis maps, then the sums of each pair of them, in index order."""
    yield from basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            yield basis[i] + basis[j]


def is_isomorphic(m: Representation, n: Representation) -> IsoResult:
    """Certified, deterministic isomorphism test.

    Ladder: dimension vectors, Hom(M, N) = 0 (which rules out an
    isomorphism between nonzero modules), basis homs and their pairwise
    sums, and finally certified decompositions of both sides with
    indecomposable factor matching.  Between indecomposables an isomorphism
    exists exactly when some canonical hom-basis element is invertible,
    because the non-isomorphisms form a proper subspace.  A decomposition that cannot be
    certified makes the answer "undetermined", never a guess.
    """
    _same_algebra(m, n)
    if m == n:
        return IsoResult("iso", ModuleMap.identity(m))
    if m.dims != n.dims:
        return IsoResult("not_iso", reason="dimension vectors differ")
    homs = hom_basis(m, n)
    if not homs:  # m != n with equal dimension vectors, so m is nonzero
        return IsoResult("not_iso", reason="no nonzero homomorphism")
    found = _try_invertible(_with_pair_sums(homs))
    if found is not None:
        return IsoResult("iso", found)

    dm = decompose(m)
    dn = decompose(n)
    if not dm.determined or not dn.determined:
        return IsoResult("undetermined", reason="decomposition not certified")
    remaining = list(range(len(dn.copies)))
    matches: list[tuple[int, int, ModuleMap]] = []
    for i, (fac_m, _, _) in enumerate(dm.copies):
        hit = None
        for j in remaining:
            fac_n = dn.copies[j][0]
            if fac_m.dims != fac_n.dims:
                continue
            w = _try_invertible(hom_basis(fac_m, fac_n))
            if w is not None:
                hit = (j, w)
                break
        if hit is None:
            return IsoResult("not_iso", reason="indecomposable factor multiplicities differ")
        remaining.remove(hit[0])
        matches.append((i, hit[0], hit[1]))
    if remaining:
        return IsoResult("not_iso", reason="indecomposable factor multiplicities differ")
    witness = None
    for i, j, w in matches:
        piece = dn.copies[j][1] @ w @ dm.copies[i][2]  # incl_n . iso . proj_m
        witness = piece if witness is None else witness + piece
    if witness is None or not witness.is_invertible:
        raise InternalCheckError("assembled factor-wise isomorphism is not invertible")
    return IsoResult("iso", witness)


@dataclass(frozen=True)
class Decomposition:
    """Indecomposable factors with multiplicities plus per-copy split maps.

    copies holds (factor, inclusion, projection) for every indecomposable
    copy; factors groups them up to isomorphism.  determined is False when
    some leaf could not be certified indecomposable (no locality certificate
    applies and the exhaustive search is out of reach); the partial split is
    still reported.
    """

    determined: bool
    factors: tuple[tuple[Representation, int], ...]
    copies: tuple[tuple[Representation, ModuleMap, ModuleMap], ...]
    reason: str | None = None


def _power(f: ModuleMap, k: int) -> ModuleMap:
    """f^k for k >= 1, by repeated squaring."""
    result, base = None, f
    while True:
        if k & 1:
            result = base if result is None else result @ base
        k >>= 1
        if not k:
            return result
        base = base @ base


def _fitting_power(f: ModuleMap, total_dim: int) -> ModuleMap:
    """f^d for the least power of two d >= total_dim, where the kernels and
    images of the powers of f have become stable."""
    return _power(f, 1 << (total_dim - 1).bit_length())


def _split_along(rep, f_power):
    """Split rep as ker(f^d) + im(f^d); returns None when the split is trivial.

    Both parts are submodules (_subrepresentation); the projections onto them
    along each other are the row blocks of the inverse of [K | I] at every
    vertex, checked as module maps."""
    fld = rep.algebra.field
    kcols = [Matrix.from_columns(fld, kernel_basis(m), nrows=d)
             for m, d in zip(f_power.vertex_maps, rep.dims)]
    icols = [column_space_basis(m) for m in f_power.vertex_maps]
    kdim = sum(m.cols for m in kcols)
    if kdim == 0 or kdim == rep.total_dim:
        return None
    kpart, kincl = _subrepresentation(rep, kcols, "Fitting part")
    ipart, iincl = _subrepresentation(rep, icols, "Fitting part")
    projs = [_projections(k, i, "Fitting decomposition") for k, i in zip(kcols, icols)]
    kproj = ModuleMap(rep, kpart, tuple(p for p, _ in projs))
    iproj = ModuleMap(rep, ipart, tuple(p for _, p in projs))
    return (kpart, kincl, kproj), (ipart, iincl, iproj)


# Largest End algebra, counted as p ** dim End, that the exhaustive idempotent
# search may enumerate.
_SEARCH_LIMIT = 1 << 20


def _trace(f: ModuleMap):
    fld = f.source.algebra.field
    total = fld.zero
    for m in f.vertex_maps:
        for i in range(m.rows):
            total = fld.add(total, m.entry(i, i))
    return total


def _combination(coeffs, maps: list[ModuleMap]) -> ModuleMap | None:
    """sum c_i maps_i, or None when every coefficient is zero."""
    total = None
    for c, f in zip(coeffs, maps):
        if c:
            term = f.scale(c)
            total = term if total is None else total + term
    return total


def _locality(rep: Representation,
              ends: list[ModuleMap]) -> tuple[bool | None, ModuleMap | None]:
    """Whether End(rep), with basis ends, is a local algebra (None when
    neither exact certificate applies), and, when it is certified not local,
    a non-scalar b with b^p = b to split along.

    Over GF(p) with End commutative, b -> b^p - b is F_p-linear and its
    kernel, the Berlekamp subalgebra, is a product of one copy of F_p per
    local factor of End.  Over Q, or over GF(p) with p > dim rep, the radical
    of End is the radical of the trace form tr(xy) (Dickson), so End is
    local when that radical has codimension one; a larger quotient may still
    be a division algebra, which this form cannot tell apart from a product.
    """
    fld = rep.algebra.field
    if fld.kind == "prime" and all(
            (a @ b).flatten() == (b @ a).flatten()
            for i, a in enumerate(ends) for b in ends[i + 1:]):
        frobenius = [(_power(e, fld.p) + e.scale(-1)).flatten() for e in ends]
        fixed = kernel_basis(Matrix.from_columns(fld, frobenius))
        if len(fixed) == 1:
            return True, None
        # two independent fixed elements are never both scalar
        one = ModuleMap.identity(rep).flatten()
        return False, next(b for b in (_combination(c, ends) for c in fixed)
                           if rank(Matrix.from_rows(fld, [b.flatten(), one])) == 2)
    if fld.kind != "prime" or fld.p > rep.total_dim:
        gram = Matrix.from_rows(fld, [[_trace(a @ b) for b in ends] for a in ends])
        if rank(gram) == 1:
            return True, None
    return None, None


def _separating_candidates(b: ModuleMap):
    """Fitting candidates from a non-scalar b with b^p = b, one of which is
    singular but not nilpotent: b + s and (b + s)^((p-1)/2) - 1 for
    s = 0, 1, ...  The eigenvalues of b lie in F_p and are not all equal, so
    b + s splits by s = p - 1 at the latest; the power is the quadratic
    character of b + s, which separates two eigenvalues for about half of
    all s (Berlekamp's root-finding step), so the search ends early.
    """
    one = ModuleMap.identity(b.source)
    p = b.source.algebra.field.p
    for s in range(p):
        shifted = b + one.scale(s)
        yield shifted
        if p > 2:
            yield _power(shifted, (p - 1) // 2) + one.scale(-1)


def _idempotent_search(rep, ends):
    """Exhaustively look for a nontrivial idempotent endomorphism.

    Returns ("indecomposable", None) when the whole space holds none,
    ("split", g) when one is found, ("undetermined", None) when the field is
    infinite or p ** dim End exceeds _SEARCH_LIMIT.
    """
    fld = rep.algebra.field
    if fld.kind != "prime" or fld.p ** len(ends) > _SEARCH_LIMIT:
        return ("undetermined", None)
    ident = ModuleMap.identity(rep).flatten()
    for coeffs in itertools.product(range(fld.p), repeat=len(ends)):
        g = _combination(coeffs, ends)
        if g is None:
            continue
        flat = g.flatten()
        if flat == ident:
            continue
        if (g @ g).flatten() == flat:
            return ("split", g)
    return ("indecomposable", None)


def decompose(rep: Representation) -> Decomposition:
    """Fitting decomposition into indecomposables, deterministic.

    Candidate endomorphisms are the canonical End basis, then its pairwise
    sums; the first candidate f that splits the module as ker f^d + im f^d
    is used, and the parts are decomposed in turn.  A part that no candidate
    splits goes to the locality test of its End (_locality): local parts are
    certified indecomposable, and a part certified not local is split along
    an element of its Berlekamp subalgebra.  Only where neither certificate
    applies does an exhaustive idempotent search over a prime field, within
    _SEARCH_LIMIT, split or certify the part; otherwise the result is
    flagged undetermined and carries the partial split.
    """
    leaves: list[tuple[Representation, ModuleMap, ModuleMap, bool]] = []

    def split_along(part: Representation, incl: ModuleMap, proj: ModuleMap,
                    f: ModuleMap) -> bool:
        split = _split_along(part, _fitting_power(f, part.total_dim))
        if split is None:
            return False
        for sub, sincl, sproj in split:
            recurse(sub, incl @ sincl, sproj @ proj)
        return True

    def recurse(part: Representation, incl: ModuleMap, proj: ModuleMap) -> None:
        if part.is_zero:
            return
        ends = end_basis(part)
        if len(ends) == 1:
            leaves.append((part, incl, proj, True))
            return
        if any(split_along(part, incl, proj, f) for f in _with_pair_sums(ends)):
            return
        local, separable = _locality(part, ends)
        if local:
            leaves.append((part, incl, proj, True))
            return
        if separable is not None:
            if not any(split_along(part, incl, proj, f)
                       for f in _separating_candidates(separable)):
                raise InternalCheckError("separable endomorphism failed to split")
            return
        verdict, idem = _idempotent_search(part, ends)
        if verdict == "split":
            if not split_along(part, incl, proj, idem):
                raise InternalCheckError("nontrivial idempotent failed to split")
            return
        leaves.append((part, incl, proj, verdict == "indecomposable"))

    recurse(rep, ModuleMap.identity(rep), ModuleMap.identity(rep))
    determined = all(ok for *_, ok in leaves)
    copies = tuple((p, i, pr) for p, i, pr, _ in leaves)
    factors: list[tuple[Representation, int]] = []
    if determined:
        for part, _, _, _ in leaves:
            for k, (fac, mult) in enumerate(factors):
                if part.dims == fac.dims and (
                        part == fac or _try_invertible(hom_basis(part, fac))):
                    factors[k] = (fac, mult + 1)
                    break
            else:
                factors.append((part, 1))
    reason = None if determined else "some factor could not be certified indecomposable"
    return Decomposition(determined, tuple(factors), copies, reason)


def _unit_coordinates(cols: Matrix, what: str) -> list[int]:
    """For each column of cols, the first coordinate where that column is 1
    and every other column is 0.  A canonical kernel basis has such
    coordinates (its free ones), and so does a column_space_basis (its
    pivots).  Raises InternalCheckError when some column has none."""
    k = cols.cols
    units: list = [None] * k
    for i in range(cols.rows):
        row = cols.entries[i * k:(i + 1) * k]
        nonzero = [j for j, x in enumerate(row) if x]
        if len(nonzero) == 1 and row[nonzero[0]] == 1 and units[nonzero[0]] is None:
            units[nonzero[0]] = i
    if None in units:
        raise InternalCheckError(f"{what} basis is not in canonical form")
    return units


def _subrepresentation(rep: Representation, cols: list[Matrix],
                       what: str) -> tuple[Representation, ModuleMap]:
    """The subrepresentation of rep whose space at each vertex v is spanned
    by the columns of K_v = cols[v], with its inclusion into rep.

    Every submodule is built here (kernel, image, radical, Fitting parts),
    under one exact certificate per arrow a: s -> t instead of re-checking
    the submodule as a module:

    * the rows U_t of K_t at its unit coordinates form the identity
      (_unit_coordinates checks it), so K_t is injective and the arrow
      matrix Y_a, the unique solution of K_t Y_a = X_a K_s, can only be the
      rows U_t of X_a K_s, whichever unit coordinates are read;
    * the equality K_t Y_a = X_a K_s is then checked exactly.  It is the
      intertwining equation of the inclusion and proves that X_a maps the
      span of K_s into the span of K_t.

    So the inclusion is a valid module map, and the submodule a valid
    module: along every path, X K_i = K_j Y; a relation acts as zero on rep,
    a valid module, so K_j applied to the relation's action on the
    submodule is zero, and K_j is injective.  Both are therefore built with
    the trusted constructors.
    """
    alg = rep.algebra
    fld = alg.field
    units = [_unit_coordinates(c, what) for c in cols]
    mats = []
    for a, x in zip(alg.quiver.arrows, rep.arrow_matrices):
        moved = x @ cols[a.source]
        width = moved.cols
        sub = Matrix._trusted(fld, len(units[a.target]), width, tuple(
            e for g in units[a.target] for e in moved.entries[g * width:(g + 1) * width]))
        if (cols[a.target] @ sub).entries != moved.entries:
            raise InternalCheckError(f"{what} is not arrow-stable")
        mats.append(sub)
    # the table's object for this structure, taken before the inclusion is
    # built so that the inclusion's source is that object
    sub_rep = _canonical_module(
        Representation._trusted(alg, tuple(c.cols for c in cols), tuple(mats)))
    return sub_rep, ModuleMap._trusted(sub_rep, rep, tuple(cols))


def kernel(f: ModuleMap, bases: Sequence | None = None) -> tuple[Representation, ModuleMap]:
    """The kernel subrepresentation with its canonical inclusion.

    The inclusion at v has as columns the canonical kernel basis of f_v
    (kernel_basis, or bases[v] when the caller already holds those vectors:
    projective_cover returns them as CoverResult.kernel_bases); the free
    coordinates of that basis are its unit coordinates, and
    _subrepresentation certifies the result.
    """
    src = f.source
    fld = src.algebra.field
    if bases is None:
        bases = [kernel_basis(m) for m in f.vertex_maps]
    return _subrepresentation(src, [
        Matrix._trusted(fld, d, len(b), tuple(vec[i] for i in range(d) for vec in b))
        for d, b in zip(src.dims, bases)], "kernel")


def image(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """The image subrepresentation of the target with its inclusion."""
    return _subrepresentation(f.target, [column_space_basis(m) for m in f.vertex_maps],
                              "image")


def _unit_completion(basis: Matrix, limit: int | None = None) -> list[int]:
    """Coordinates j of the unit vectors e_j that greedily complete the
    independent columns of basis, in coordinate order: e_j is taken when it
    lies outside the span of the columns and the units taken before it.
    Stops after limit units when a limit is given."""
    fld = basis.field
    span = Echelon(fld)
    for j in range(basis.cols):
        span.add(basis.column(j))
    chosen: list[int] = []
    for j in range(basis.rows):
        if len(chosen) == limit:
            break
        unit = [fld.zero] * basis.rows
        unit[j] = fld.one
        if span.add(unit) is not None:
            chosen.append(j)
    return chosen


def _projections(first: Matrix, second: Matrix, what: str) -> tuple[Matrix, Matrix]:
    """The two row blocks of the inverse of [first | second]: the coordinates
    along the columns of first and along those of second.  Raises
    InternalCheckError when the columns of both do not form a basis."""
    inv = inverse(hstack([first, second]))
    if inv is None:
        raise InternalCheckError(f"{what} does not span")
    k, d = first.cols, first.rows
    return (Matrix._trusted(first.field, k, d, inv.entries[:k * d]),
            Matrix._trusted(first.field, d - k, d, inv.entries[k * d:]))


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """The cokernel with its canonical projection from the target.

    At each vertex v, B_v is the canonical basis of im f_v, S_v the unit
    columns that complete it (_unit_completion), and the projection pi_v the
    rows of the inverse of [B_v | S_v] below B_v, so pi_v B_v = 0 and
    pi_v S_v = I.  The arrow matrix is Y_a = pi_t X_a S_s, and one exact
    equality per arrow a: s -> t, pi_t X_a = Y_a pi_s, the intertwining
    equation of the projection, is checked.  It makes the quotient valid:

    * well defined: pi_t X_a B_s = Y_a pi_s B_s = 0, so X_a maps im f_s
      into im f_t = ker pi_t;
    * a module: along every path, pi_j X = Y pi_i; a relation acts as zero
      on the target, a valid module, so its action on the cokernel, times
      pi_i, is zero, and pi_i S_i = I makes that action zero.

    So the cokernel and its projection are built with the trusted
    constructors.
    """
    alg = f.target.algebra
    fld = alg.field
    projs, sections = [], []
    for m, d in zip(f.vertex_maps, f.target.dims):
        b = column_space_basis(m)
        section = Matrix.from_columns(
            fld, [[fld.one if i == j else fld.zero for i in range(d)]
                  for j in _unit_completion(b)], nrows=d)
        projs.append(_projections(b, section, "cokernel completion")[1])
        sections.append(section)
    rep = Representation._trusted(alg, tuple(p.rows for p in projs), tuple(
        projs[a.target] @ x @ sections[a.source]
        for a, x in zip(alg.quiver.arrows, f.target.arrow_matrices)))
    proj = ModuleMap._trusted(f.target, rep, tuple(projs))
    if proj.failing_arrow() is not None:
        raise InternalCheckError("cokernel is not well defined")
    return rep, proj


def _radical_columns(rep: Representation) -> list[Matrix]:
    """Column bases of rad M, vertex by vertex: at v the canonical basis of
    the sum of the images of the arrows into v."""
    alg = rep.algebra
    fld = alg.field
    cols = []
    for v in range(alg.vertex_count):
        incoming = [rep.arrow_matrices[ai] for ai, a in enumerate(alg.quiver.arrows)
                    if a.target == v and rep.dims[a.source] > 0]
        if incoming and rep.dims[v] > 0:
            cols.append(column_space_basis(hstack(incoming)))
        else:
            cols.append(Matrix.zeros(fld, rep.dims[v], 0))
    return cols


def radical(rep: Representation) -> tuple[Representation, ModuleMap]:
    """rad M: at each vertex the sum of the images of the incoming arrows."""
    return _subrepresentation(rep, _radical_columns(rep), "radical")


def top_multiplicities(rep: Representation) -> tuple[int, ...]:
    """Multiplicity of each simple in M / rad M."""
    return tuple(d - c.cols for d, c in zip(rep.dims, _radical_columns(rep)))


@dataclass(frozen=True)
class ProjectiveBundle:
    """A sum of indecomposable projectives with bookkeeping for its
    generators: summands lists (vertex, copy); vertex_labels[v] lists
    (summand index, basis path) for each coordinate of the sum at v;
    generator_coords[s] locates the trivial-path generator of summand s."""

    rep: Representation
    summands: tuple[tuple[int, int], ...]
    vertex_labels: tuple[tuple[tuple[int, Path], ...], ...]
    generator_coords: tuple[tuple[int, int], ...]


def projective_bundle(algebra: Algebra, multiplicities: tuple[int, ...]) -> ProjectiveBundle:
    summands = tuple((v, c) for v in range(algebra.vertex_count)
                     for c in range(multiplicities[v]))
    parts = [projective_module(algebra, v) for v, _ in summands]
    rep = direct_sum(parts) if parts else zero_representation(algebra)
    labels: list[list[tuple[int, Path]]] = [[] for _ in range(algebra.vertex_count)]
    gens: list[tuple[int, int]] = []
    offsets = [0] * algebra.vertex_count
    for s, (pv, _) in enumerate(summands):
        for v in range(algebra.vertex_count):
            block = algebra.basis_by_block.get((pv, v), ())
            for bidx in block:
                labels[v].append((s, algebra.basis[bidx]))
        gens.append((pv, offsets[pv]))  # trivial path is first in its block
        for v in range(algebra.vertex_count):
            offsets[v] += len(algebra.basis_by_block.get((pv, v), ()))
    return ProjectiveBundle(rep, summands,
                            tuple(tuple(l) for l in labels), tuple(gens))


def _path_actions(rep: Representation):
    """path -> path_action(rep, path), memoized for the caller's lifetime."""
    cache: dict[Path, Matrix] = {}

    def op(path: Path) -> Matrix:
        m = cache.get(path)
        if m is None:
            m = cache[path] = path_action(rep, path)
        return m
    return op


@dataclass(frozen=True)
class CoverResult:
    """A minimal projective cover; kernel_bases[v] is the canonical kernel
    basis of cover.vertex_maps[v], the vectors its checks were made on."""

    projective: Representation
    cover: ModuleMap
    bundle: ProjectiveBundle
    kernel_bases: tuple[tuple[tuple, ...], ...]


def projective_cover(rep: Representation) -> CoverResult:
    """The minimal projective cover P -> M.

    P is the sum of P(i) with the top multiplicities of M; the map lifts the
    canonical basis of M / rad M (first unit vectors completing rad M in
    coordinate order).  Only the column bases of rad M are computed, no
    radical module.  The cover is valid and built without the intertwining
    re-check: on a summand whose generator lifts to m it sends each basis
    path p to p . m, which is A-linear because M is a module.  Then, from one
    canonical kernel basis of each vertex map:

    * surjectivity: dim P_v minus the kernel dimension is dim M_v;
    * minimality, ker P -> M inside rad P: every kernel vector is 0 at the
      trivial-path coordinates of the bundle.  Relations have length >= 2,
      so no trivial path is a combination of longer ones, and rad P, the
      span of the arrow images, is exactly the span of the nontrivial
      basis paths; a vector lies in rad P iff its trivial-path coordinates
      vanish.  This is the rank test against rad P without building rad P.

    The kernel bases are returned with the cover, so kernel() reuses them.
    """
    alg = rep.algebra
    fld = alg.field
    rad_cols = _radical_columns(rep)
    tops = tuple(d - c.cols for d, c in zip(rep.dims, rad_cols))
    bundle = projective_bundle(alg, tops)
    # generator (v, c) goes to the c-th canonical lift of the top basis at v,
    # a unit vector: column j of path_action(M, p) is the image p . e_j
    lifts = [_unit_completion(rad_cols[v], tops[v]) for v in range(alg.vertex_count)]
    gen_units = [lifts[v][c] for v, c in bundle.summands]
    op = _path_actions(rep)
    cover = ModuleMap._trusted(bundle.rep, rep, tuple(
        Matrix.from_columns(fld, [op(path).column(gen_units[s])
                                  for s, path in bundle.vertex_labels[v]], nrows=rep.dims[v])
        for v in range(alg.vertex_count)))
    kernels = tuple(tuple(kernel_basis(m)) for m in cover.vertex_maps)
    generators: list[list[int]] = [[] for _ in range(alg.vertex_count)]
    for v, coord in bundle.generator_coords:
        generators[v].append(coord)
    for v, kb in enumerate(kernels):
        if bundle.rep.dims[v] - len(kb) != rep.dims[v]:
            raise InternalCheckError("projective cover is not surjective")
        if any(vec[g] for vec in kb for g in generators[v]):
            raise InternalCheckError("projective cover is not minimal")
    return CoverResult(bundle.rep, cover, bundle, kernels)
