"""Minimal projective resolutions, Ext tables and certified vanishing.

Every Ext value is computed twice, by two independent routes, each defined
on one module X as the pair (dim Hom(X, N), dim Ext^1(X, N)):

* _complex_pair: cohomology of Hom(P_*, N) in degrees 0 and 1, using the
  vertexwise identification Hom(P(i), N) = N_i through the covers'
  generator bookkeeping;
* _stable_pair: dimension shifting along 0 -> syzygy -> P_0 -> X -> 0, from
  the dimensions of Hom spaces alone, with no map at all.

A disagreement raises InternalCheckError, it is never suppressed.  Every Ext
table is one walk along the syzygies of M (_ext_walk), since Ext^i(M, N) =
Ext^1(syzygy i-1 of M, N) for i >= 1: ext_dims_via_complex and
ext_dims_via_stable walk with one route each, ext_table with both, compared
per (syzygy, N) (_ext_pair).  The walk advances by _resolution_step, the
projective cover of a module and the kernel of that cover, computed once per
distinct module per algebra, the only store of resolution steps: a
MinimalResolution (pd, periodicity, the CLI) is a value built once per call,
by one walk of them through its cutoff, and no Ext value reads one.  The
pairs, the complex route's ranks, pd per (module, cutoff) and the vanishing
onsets are memoized per algebra.

Claims about all sufficiently large degrees are made only under a
certificate: a terminated resolution or a verified syzygy periodicity.
Cutoffs alone never turn into "for all large degrees" statements.

Each resolution step is proven by one exact certificate instead of
re-checking objects that are valid by construction.  One canonical kernel
basis per vertex of the cover P -> M gives surjectivity (rank), minimality
(every kernel vector is 0 at the trivial-path coordinates of P, which is
"kernel inside rad P" because relations have length >= 2), and the syzygy:
its arrow matrices are read off at the unit coordinates of the basis (its
free ones), and one equality per arrow, the inclusion's intertwining
equation, proves the basis arrow-stable.  The syzygy satisfies the relations
because the inclusion is injective and P is a valid module, a direct sum of
checked projectives (modules.projective_cover, modules._subrepresentation
and algebra.direct_sum give the proofs).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .exactla import Matrix, rank
from .algebra import Representation, dual_module, regular_module
from .modules import (
    AlgebraMismatchError, CoverResult, InternalCheckError, ModuleMap,
    _path_actions, hom_basis, is_isomorphic, kernel, projective_cover,
)


class MinimalResolution:
    """A minimal projective resolution of a module through a cutoff, built
    once by its constructor and never changed afterwards.

    It holds the terms P_0..P_cutoff, the syzygies up to index cutoff+1 and
    the inclusions of syzygy j+1 into P_j for j <= cutoff, or fewer when the
    resolution terminates earlier.  A negative cutoff raises ValueError.

    Past the computed end, the accessors of a terminated resolution give zero
    terms and its stored zero syzygy; those of an unterminated one raise
    ValueError, since the terms there are unknown, not zero.  A negative
    degree raises ValueError.

    Each step (cover, syzygy, inclusion) is a reference into the algebra's
    step memo (_resolution_step), its one store of steps, so the resolution
    of syzygy 1 holds the very cover objects of this one from degree 1 on.
    """

    def __init__(self, module: Representation, cutoff: int):
        if cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {cutoff}")
        self.module = module
        self.algebra = module.algebra
        self.syzygies: list[Representation] = [module]
        self.covers: list[CoverResult] = []
        self.inclusions: list[ModuleMap] = []  # syzygy k+1 into P_k
        # least k with syzygy k zero, once reached
        self.terminated_at: int | None = None
        self.extend(cutoff)  # through the class, where bench/tracer.py wraps it

    @property
    def length(self) -> int:
        return len(self.covers) - 1

    @property
    def terminated(self) -> bool:
        return self.terminated_at is not None

    def extend(self, cutoff: int) -> None:
        """The constructor's walk through the cutoff; a built resolution
        raises RuntimeError, since it never changes."""
        if len(self.syzygies) > 1 or self.terminated:
            raise RuntimeError("a MinimalResolution is built once, by its constructor")
        syz = self.module
        while not syz.is_zero and len(self.covers) <= cutoff:
            cov, syz, incl = _resolution_step(syz)
            self.covers.append(cov)
            self.syzygies.append(syz)
            self.inclusions.append(incl)
        if syz.is_zero:
            self.terminated_at = len(self.syzygies) - 1

    def multiplicities(self, k: int) -> tuple[int, ...]:
        """Summand counts of P_k (past-end contract in the class docstring)."""
        mult = [0] * self.algebra.vertex_count
        if self._computed(k, len(self.covers), "term"):
            for v, _ in self.covers[k].bundle.summands:
                mult[v] += 1
        return tuple(mult)

    def syzygy(self, k: int) -> Representation:
        """Syzygy k (past-end contract in the class docstring)."""
        if self._computed(k, len(self.syzygies), "syzygy"):
            return self.syzygies[k]
        return self.syzygies[-1]

    def _computed(self, k: int, stored: int, what: str) -> bool:
        """Whether degree k is among the stored ones; a negative degree, or
        one past the end of an unterminated resolution, raises ValueError."""
        if k < 0:
            raise ValueError(f"{what} degree must be >= 0, got {k}")
        if k < stored:
            return True
        if not self.terminated:
            raise ValueError(f"{what} {k} is past the resolution, which is computed "
                             f"through degree {self.length} and has not terminated")
        return False


def _resolution_step(module: Representation) -> tuple[CoverResult, Representation, ModuleMap]:
    """The projective cover of a nonzero module, the kernel of that cover
    and its inclusion, memoized per algebra.

    The key is the module itself, under the exact structural equality of the
    other per-algebra memos.  The step's certificate runs once, for the first
    module of its class that is resolved; a hit returns the result already
    proven for an equal module.  The certificate: the cover intertwines the
    arrows; from one canonical kernel basis per vertex (computed by
    projective_cover and reused by kernel), the cover is surjective and its
    kernel is 0 at every trivial-path coordinate of P, so lies in rad P; the
    kernel basis is injective (identity at its free coordinates) and
    arrow-stable (one exact equality per arrow).  That is as strong as the
    rank test against rad P and the Representation and ModuleMap re-checks
    it replaces, and the syzygy and its inclusion are the same matrices.

    Two threads may race on the same module: both compute and check equal
    results, and both return the one stored first.
    """
    memo = module.algebra._step_memo
    step = memo.get(module)
    if step is None:
        cov = projective_cover(module)
        syz, incl = kernel(cov.cover, cov.kernel_bases)
        step = memo.setdefault(module, (cov, syz, incl))
    return step


def minimal_resolution(module: Representation, cutoff: int) -> MinimalResolution:
    """A new minimal resolution of the module, built once through cutoff."""
    return MinimalResolution(module, cutoff)


def syzygy(rep: Representation, m: int) -> Representation:
    """The m-th syzygy along minimal projective covers (m = 0 gives M back),
    m memoized steps away; past a zero syzygy it stays that zero module."""
    if m < 0:
        raise ValueError("syzygy exponent must be >= 0")
    while m and not rep.is_zero:
        rep, m = _resolution_step(rep)[1], m - 1
    return rep


def cosyzygy(rep: Representation, m: int) -> Representation:
    """The m-th cosyzygy, computed by duality through the opposite algebra."""
    return dual_module(syzygy(dual_module(rep), m))


# ----- Ext tables ------------------------------------------------------------


@dataclass(frozen=True)
class ExtTable:
    """dims[i] = dim Ext^i(M, N) for 0 <= i <= cutoff."""

    dims: tuple[int, ...]
    cutoff: int

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "cutoff": self.cutoff}

    def to_csv(self) -> str:
        lines = ["degree,dim"]
        lines.extend(f"{i},{d}" for i, d in enumerate(self.dims))
        return "\n".join(lines) + "\n"


def _precomposition_rank(y_mod: Representation, n_mod: Representation, op) -> int:
    """Rank of Hom(P_0, N) -> Hom(P_1, N), precomposition with d_1, the cover
    of the syzygy of Y followed by its inclusion into the cover P_0 of Y.

    Hom(P(v), N) = N_v through the generator, so the generator of a summand
    of P_1 contributes coef * op(path), the action of the path on N, for
    each basis path of P_0 in its image.  The cover sends the generator to
    a unit vector e_g (projective_cover lifts the top to unit vectors), so
    that image is column g of the inclusion.  P_0 and P_1 must be nonzero.
    Memoized per algebra under (Y, N)."""
    memo = y_mod.algebra._rank_memo
    key = (y_mod, n_mod)
    r = memo.get(key)
    if r is None:
        fld = y_mod.algebra.field
        cov, om, incl = _resolution_step(y_mod)
        nxt = _resolution_step(om)[0]
        dom, cod = cov.bundle, nxt.bundle
        dom_off = [0, *accumulate(n_mod.dims[v] for v, _ in dom.summands)]
        cod_off = [0, *accumulate(n_mod.dims[v] for v, _ in cod.summands)]
        rows = [[fld.zero] * dom_off[-1] for _ in range(cod_off[-1])]
        for s, (vs, _) in enumerate(cod.summands):
            unit = nxt.cover.vertex_maps[vs].column(cod.generator_coords[s][1])
            column = incl.vertex_maps[vs].column(unit.index(fld.one))
            for coord, coef in enumerate(column):
                if coef == 0:
                    continue
                t, path = dom.vertex_labels[vs][coord]
                block = op(path)  # N_{source summand vertex} -> N_{vs}
                for i in range(block.rows):
                    for j in range(block.cols):
                        val = block.entry(i, j)
                        if val != 0:
                            row = rows[cod_off[s] + i]
                            row[dom_off[t] + j] = fld.add(row[dom_off[t] + j], fld.mul(coef, val))
        r = memo.setdefault(key, rank(Matrix.from_rows(fld, rows)))
    return r


def _complex_pair(x_mod: Representation, n_mod: Representation) -> tuple[int, int]:
    """(dim Hom(X, N), dim Ext^1(X, N)) = (c_0 - r_1, c_1 - r_2 - r_1), the
    cohomology of Hom(P_*, N) in degrees 0 and 1, where c_k = dim Hom(P_k, N)
    and r_k is the rank of precomposition with d_k.  It reads the steps of X
    and of its syzygy and the cover of the second syzygy, nothing else."""
    op = _path_actions(n_mod)
    syz, covs = [x_mod], []
    while len(covs) < 3 and not syz[-1].is_zero:
        cov, om, _ = _resolution_step(syz[-1])
        covs.append(cov)
        syz.append(om)
    space = [sum(n_mod.dims[v] for v, _ in cov.bundle.summands) for cov in covs]
    space += [0] * (3 - len(covs))
    r1, r2 = (_precomposition_rank(syz[k - 1], n_mod, op) if space[k - 1] and space[k] else 0
              for k in (1, 2))
    hom, ext1 = space[0] - r1, space[1] - r2 - r1
    if hom < 0 or ext1 < 0:
        raise InternalCheckError("negative cohomology dimension")
    return hom, ext1


def _stable_pair(x_mod: Representation, n_mod: Representation) -> tuple[int, int]:
    """(dim Hom(X, N), dim Ext^1(X, N)) by dimension shifting.

    Hom(-, N) turns 0 -> syzygy -> P_0 -> X -> 0 into the exact sequence
    0 -> Hom(X, N) -> Hom(P_0, N) -> Hom(syzygy, N) -> Ext^1(X, N) -> 0, so
    dim Ext^1(X, N) = h(syzygy) - p_0 + h(X), with h(Y) = dim Hom(Y, N) from
    hom_basis and p_0 the sum of dim N_v over the summands P(v) of P_0.  No
    map of the resolution is read, so this route shares no map-level code
    with the complex route."""
    cov, om, _ = _resolution_step(x_mod)
    h = len(hom_basis(x_mod, n_mod))
    h_om = 0 if om.is_zero else len(hom_basis(om, n_mod))
    return h, h_om - sum(n_mod.dims[v] for v, _ in cov.bundle.summands) + h


def _ext_walk(m_mod: Representation, n_mod: Representation, cutoff: int, pair) -> list[int]:
    """dim Hom(M, N), then dim Ext^1(syzygy i-1 of M, N) = dim Ext^i(M, N)
    for i = 1..cutoff, from one pair(X, N) = (dim Hom, dim Ext^1) per
    syzygy X; past a zero syzygy every entry is 0."""
    if m_mod.algebra is not n_mod.algebra:
        raise AlgebraMismatchError("Ext arguments over different algebras")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    dims: list[int] = []
    x_mod = m_mod
    for i in range(max(cutoff, 1)):
        if i:
            x_mod = _resolution_step(x_mod)[1]
        if x_mod.is_zero:
            break
        hom, ext1 = pair(x_mod, n_mod)
        dims.extend((ext1,) if i else (hom, ext1))
    dims += [0] * (cutoff + 1 - len(dims))
    return dims[:cutoff + 1]


def ext_dims_via_complex(m_mod: Representation, n_mod: Representation,
                         cutoff: int) -> list[int]:
    """Ext dimensions as cohomology of Hom(P_*, N), syzygy by syzygy."""
    return _ext_walk(m_mod, n_mod, cutoff, _complex_pair)


def ext_dims_via_stable(m_mod: Representation, n_mod: Representation,
                        cutoff: int) -> list[int]:
    """Ext dimensions by dimension shifting, from Hom dimensions alone."""
    return _ext_walk(m_mod, n_mod, cutoff, _stable_pair)


def ext_table(m_mod: Representation, n_mod: Representation, cutoff: int) -> ExtTable:
    """dim Ext^i(M, N) for i <= cutoff, from one cross-checked pair per
    (syzygy, N) (_ext_pair); a larger cutoff, or a syzygy of M as first
    argument, reuses every pair already stored."""
    return ExtTable(tuple(_ext_walk(m_mod, n_mod, cutoff, _ext_pair)), cutoff)


def _ext_pair(x_mod: Representation, n_mod: Representation) -> tuple[int, int]:
    """(dim Hom(X, N), dim Ext^1(X, N)), computed by both independent routes
    at cutoff 1; a mismatch is a hard internal error.  The routes are called
    through the module's full-table functions, so a replacement of either
    name is the route that gets compared.

    The pair is memoized per algebra under the key (X, N), with the
    structural equality of the other memos; racing threads both compute and
    check, and both return the pair stored first."""
    memo = x_mod.algebra._ext_memo
    key = (x_mod, n_mod)
    pair = memo.get(key)
    if pair is None:
        via_complex = ext_dims_via_complex(x_mod, n_mod, 1)
        via_stable = ext_dims_via_stable(x_mod, n_mod, 1)
        if via_complex != via_stable:
            raise InternalCheckError(
                f"Ext oracle disagreement on a module of dimension vector {x_mod.dims}: "
                f"complex {via_complex} vs stable {via_stable}")
        pair = memo.setdefault(key, tuple(via_complex))
    return pair


# ----- projective/injective dimension and periodicity ------------------------


@dataclass(frozen=True)
class PdFinite:
    value: int
    kind: str = "finite"

    def to_json(self) -> dict:
        return {"kind": "finite", "value": self.value}


@dataclass(frozen=True)
class PdPeriodic:
    preperiod: int
    period: int
    certificate: "PeriodicityCertificate"
    kind: str = "periodic_infinite"

    def to_json(self) -> dict:
        return {"kind": "periodic_infinite", "preperiod": self.preperiod,
                "period": self.period}


@dataclass(frozen=True)
class PdAtLeast:
    cutoff: int
    kind: str = "at_least"

    def to_json(self) -> dict:
        return {"kind": "at_least", "cutoff": self.cutoff}


PdResult = PdFinite | PdPeriodic | PdAtLeast


@dataclass(frozen=True)
class PeriodicityCertificate:
    """A verified isomorphism between syzygy preperiod and preperiod+period.

    It forces every Ext table against the module to repeat with the given
    period beyond the preperiod, which is what makes eventual vanishing
    decidable.
    """

    preperiod: int
    period: int
    witness: ModuleMap
    undetermined_pairs: tuple[tuple[int, int], ...] = ()

    def verify(self) -> bool:
        return self.witness.is_invertible and self.witness.failing_arrow() is None

    def to_json(self) -> dict:
        out = {"preperiod": self.preperiod, "period": self.period,
               "witness_dims": list(self.witness.source.dims)}
        if self.undetermined_pairs:
            # (a, b) pairs of syzygy degrees whose isomorphism test was
            # undetermined before this recurrence was certified
            out["undetermined_pairs"] = [list(pair) for pair in self.undetermined_pairs]
        return out


def periodicity_certificate(module: Representation,
                            cutoff: int) -> PeriodicityCertificate | None:
    """First certified syzygy recurrence in lexicographic (preperiod, period)
    order among syzygies 0..cutoff, or None (terminated resolutions never
    count as periodic, and an unterminated one has no zero syzygy).  Nothing
    is cached between calls."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    res = minimal_resolution(module, cutoff)
    if res.terminated:
        return None
    skipped: list[tuple[int, int]] = []
    for a in range(cutoff):
        for b in range(a + 1, cutoff + 1):
            sa, sb = res.syzygy(a), res.syzygy(b)
            if sa.dims != sb.dims:
                continue
            iso = is_isomorphic(sa, sb)
            if iso.status == "iso":
                return PeriodicityCertificate(a, b - a, iso.witness, tuple(skipped))
            if iso.status == "undetermined":
                skipped.append((a, b))
    return None


def projective_dimension(module: Representation, cutoff: int) -> PdResult:
    """Finite(m) from a terminated resolution, PeriodicInfinite from a
    certified syzygy recurrence, otherwise AtLeast(cutoff).

    The zero module reports Finite(-1).  Memoized per algebra under the key
    (module, cutoff), like vanishing_onset."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    memo = module.algebra._pd_memo
    key = (module, cutoff)
    hit = memo.get(key)
    if hit is None:
        hit = memo.setdefault(key, _decide_pd(module, cutoff))
    return hit


def _decide_pd(module: Representation, cutoff: int) -> PdResult:
    # the walk through cutoff shows every zero syzygy of index <= cutoff + 1
    t = minimal_resolution(module, cutoff).terminated_at
    if t is not None:
        return PdFinite(t - 1)
    cert = periodicity_certificate(module, cutoff)
    if cert is not None:
        return PdPeriodic(cert.preperiod, cert.period, cert)
    return PdAtLeast(cutoff)


def injective_dimension(module: Representation, cutoff: int) -> PdResult:
    """Computed as the projective dimension of the dual over the opposite."""
    return projective_dimension(dual_module(module), cutoff)


# ----- certified vanishing onsets --------------------------------------------


@dataclass(frozen=True)
class OnsetEvidence:
    kind: str  # "terminated" | "periodic" | "none"
    pd_value: int | None = None
    certificate: PeriodicityCertificate | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.pd_value is not None:
            out["pd"] = self.pd_value
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


@dataclass(frozen=True)
class OnsetResult:
    """Certified decision about eventual vanishing of Ext^i(M, N).

    status "vanishes" with onset t means Ext^i = 0 for every i > t, with
    Ext^t nonzero or t = 0; "never_vanishes" means some degree class stays
    nonzero forever; "undetermined" reports the inspected window only.
    """

    status: str  # "vanishes" | "never_vanishes" | "undetermined"
    onset: int | None
    cutoff: int
    window: tuple[int, ...]
    evidence: OnsetEvidence

    @property
    def certified(self) -> bool:
        return self.status != "undetermined"

    def to_json(self) -> dict:
        return {"status": {"vanishes": "certified_vanishes",
                           "never_vanishes": "certified_never_vanishes",
                           "undetermined": "undetermined"}[self.status],
                "onset": self.onset, "cutoff": self.cutoff,
                "window": list(self.window), "evidence": self.evidence.to_json()}


def _last_nonzero_positive(dims, upto: int) -> int:
    onset = 0
    for i in range(1, min(upto, len(dims) - 1) + 1):
        if dims[i] != 0:
            onset = i
    return onset


def vanishing_onset(m_mod: Representation, n_mod: Representation,
                    cutoff: int) -> OnsetResult:
    """Decide from which degree Ext^i(M, N) vanishes forever.

    Decisions come only from certificates: a terminated resolution bounds
    everything, a periodicity certificate reduces the infinite tail to one
    period window.  Anything else is reported undetermined at the cutoff.

    The result is memoized per algebra under the key (M, N, cutoff), with
    the structural equality of the other memos; racing threads both compute
    and both return the result stored first.
    """
    memo = m_mod.algebra._onset_memo
    key = (m_mod, n_mod, cutoff)
    hit = memo.get(key)
    if hit is None:
        hit = memo.setdefault(key, _decide_onset(m_mod, n_mod, cutoff))
    return hit


def _decide_onset(m_mod: Representation, n_mod: Representation,
                  cutoff: int) -> OnsetResult:
    pd_res = projective_dimension(m_mod, cutoff)
    if isinstance(pd_res, PdFinite):
        depth = max(pd_res.value, 0)
        dims = ext_table(m_mod, n_mod, depth).dims
        onset = _last_nonzero_positive(dims, depth)
        return OnsetResult("vanishes", onset, cutoff, dims,
                           OnsetEvidence("terminated", pd_value=pd_res.value))
    if isinstance(pd_res, PdPeriodic):
        a, q = pd_res.preperiod, pd_res.period
        dims = ext_table(m_mod, n_mod, a + q).dims
        if all(dims[i] == 0 for i in range(a + 1, a + q + 1)):
            onset = _last_nonzero_positive(dims, a)
            return OnsetResult("vanishes", onset, cutoff, dims,
                               OnsetEvidence("periodic", certificate=pd_res.certificate))
        return OnsetResult("never_vanishes", None, cutoff, dims,
                           OnsetEvidence("periodic", certificate=pd_res.certificate))
    dims = ext_table(m_mod, n_mod, cutoff).dims
    return OnsetResult("undetermined", None, cutoff, dims, OnsetEvidence("none"))


def onset_against_regular(m_mod: Representation, cutoff: int) -> OnsetResult:
    """Vanishing onset of Ext^i(M, A) against the regular module."""
    return vanishing_onset(m_mod, regular_module(m_mod.algebra), cutoff)
