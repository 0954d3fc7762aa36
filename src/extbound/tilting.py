"""Add-approximations, coresolutions in add T, and checkers for tilting,
Wakamatsu-tilting and the related homological conjectures at corpus scale.

Verdicts are three-valued: a certified yes carries verifiable witnesses, a
certified no carries the failing stage or degree, and anything cut off by a
window or an unresolved decomposition is reported undetermined. The
tilting, Wakamatsu and EWTC verdicts all read one walk of approximations of
the regular module, `coresolution_in_add`'s, so maxlen bounds all three alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import Matrix, rank
from .algebra import (
    Representation, direct_sum, opposite, regular_module, zero_representation,
)
from .modules import (
    AddMembership, AlgebraMismatchError, InternalCheckError, ModuleMap,
    cokernel, decompose, direct_sum_with_maps, hom_basis, in_add,
)
from .homology import (
    OnsetResult, PdFinite, PdPeriodic, PdResult, _Record, injective_dimension,
    projective_dimension, syzygy, vanishing_onset,
)
from .bounds import (
    CertNotApplicable, Corpus, FinitePdCertificate, PdBound,
    finite_pd_certificate, left_bound,
)


def left_add_approximation(x_mod: Representation, t_mod: Representation) -> ModuleMap:
    """A left add(T)-approximation of X: a map X -> T_0 with T_0 in add T
    through which every map X -> T factors.

    T_0 starts as one summand copy per canonical hom-basis element (working
    with the indecomposable summands of T when its decomposition certifies,
    whole copies of T otherwise) and is then pruned greedily: a copy is
    dropped whenever Hom(T_0, T) still surjects onto Hom(X, T) without it.
    Each copy's composites g h, for g in the basis of Hom(piece, T), are
    computed once with the copy; a trial ranks the stored rows of the copies
    it keeps.
    """
    if x_mod.algebra is not t_mod.algebra:
        raise AlgebraMismatchError("approximation arguments over different algebras")
    fld = x_mod.algebra.field
    dec = decompose(t_mod)
    pieces = [fac for fac, _ in dec.factors] if dec.determined else [t_mod]
    target_homs = hom_basis(x_mod, t_mod)
    blocks: list[tuple[Representation, ModuleMap, list[tuple]]] = []
    for piece in pieces:
        gs = hom_basis(piece, t_mod)
        for h in hom_basis(x_mod, piece):
            blocks.append((piece, h, [(g @ h).flatten() for g in gs]))

    def is_surjective_onto_homs(selected) -> bool:
        if not target_homs:
            return True
        rows = [row for _, _, block_rows in selected for row in block_rows]
        if not rows:
            return False
        return rank(Matrix.from_rows(fld, rows)) == len(target_homs)

    if not is_surjective_onto_homs(blocks):
        raise InternalCheckError("full hom-basis approximation is not one")
    kept = list(blocks)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        if is_surjective_onto_homs(trial):
            kept = trial
        else:
            i += 1
    if not kept:
        return ModuleMap.zero(x_mod, zero_representation(x_mod.algebra))
    total, incls, _ = direct_sum_with_maps([piece for piece, _, _ in kept])
    phi = None
    for (_, h, _), incl in zip(kept, incls):
        term = incl @ h
        phi = term if phi is None else phi + term
    return phi


@dataclass(frozen=True)
class CoresolutionResult(_Record):
    """An exact chain 0 -> X -> T_0 -> ... -> T_n -> 0 with every term
    carrying an add(T) witness, or the stage and reason it could not be
    built ("approximation not injective" is a certified failure, exceeding
    maxlen is not). `images` holds every module the walk reached, however
    it ended: X_0 = X, then each cokernel X_{i+1} of X_i -> T_i."""

    t_module: Representation
    success: bool
    terms: tuple[tuple[Representation, AddMembership], ...]
    first_map: ModuleMap | None
    maps: tuple[ModuleMap, ...]
    images: tuple[Representation, ...]
    failure_stage: int | None = None
    reason: str | None = None

    @property
    def length(self) -> int | None:
        """n, the index of the last term; None for a failed chain."""
        return len(self.terms) - 1 if self.success else None

    @property
    def refuted(self) -> bool:
        """Certified: a non-injective approximation, so no chain exists."""
        return self.reason == "approximation not injective"

    def verify(self) -> bool:
        """Recheck exactness by rank arithmetic and every add witness, each
        for its own term against T."""
        if not self.success:
            return True
        for term, witness in self.terms:
            if (witness.module != term or witness.family != (self.t_module,)
                    or not witness.member or not witness.verify()):
                return False
        chain = [self.first_map, *self.maps]
        if not chain[0].is_injective or not chain[-1].is_surjective:
            return False
        for prev, cur in zip(chain, chain[1:]):
            if not (cur @ prev).is_zero:
                return False
            for v in range(cur.source.algebra.vertex_count):
                dim_ker = cur.source.dims[v] - rank(cur.vertex_maps[v])
                if dim_ker != rank(prev.vertex_maps[v]):
                    return False
        return True

    def to_json(self) -> dict:
        return {"success": self.success, "length": self.length,
                "term_dims": [list(t.dims) for t, _ in self.terms],
                "failure_stage": self.failure_stage, "reason": self.reason}


def coresolution_corpus(x_mod: Representation, result: CoresolutionResult) -> Corpus:
    """The chain terms of a successful coresolution as a named corpus, for
    export to module files and independent re-verification."""
    if not result.success:
        raise ValueError("only successful coresolutions export")
    members = [("X", x_mod)]
    members.extend((f"T{i}", term) for i, (term, _) in enumerate(result.terms))
    return Corpus(x_mod.algebra, tuple(members),
                  {"kind": "coresolution-chain", "length": result.length})


def coresolution_in_add(x_mod: Representation, t_mod: Representation,
                        maxlen: int) -> CoresolutionResult:
    """The one walk of left add(T)-approximations: X_0 = X, and X_{i+1} is
    the cokernel of X_i -> T_i, until some X_n certifies inside add T and
    becomes the last term. It takes at most maxlen approximations and stops
    at a non-injective one; every X_i reached is kept as `images`."""
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    images = [x_mod]
    terms: list[tuple[Representation, AddMembership]] = []
    stage_maps: list[ModuleMap] = []  # phi_i : X_i -> T_i
    projections: list[ModuleMap] = []  # T_i -> X_{i+1}
    final = in_add(x_mod, t_mod)
    while not final.member:
        stage = len(stage_maps)
        if stage == maxlen:
            return CoresolutionResult(t_mod, False, (), None, (), tuple(images),
                                      stage, "maxlen exceeded")
        phi = left_add_approximation(images[-1], t_mod)
        if not phi.is_injective:
            return CoresolutionResult(t_mod, False, (), None, (), tuple(images),
                                      stage, "approximation not injective")
        witness = in_add(phi.target, t_mod)
        if not witness.member:
            raise InternalCheckError("approximation target escaped add T")
        terms.append((phi.target, witness))
        stage_maps.append(phi)
        coker, proj = cokernel(phi)
        projections.append(proj)
        images.append(coker)
        final = in_add(coker, t_mod)
    terms.append((images[-1], final))
    maps = [phi @ proj for phi, proj in zip(stage_maps[1:], projections)] + projections[-1:]
    first = stage_maps[0] if stage_maps else ModuleMap.identity(x_mod)
    result = CoresolutionResult(t_mod, True, tuple(terms), first, tuple(maps), tuple(images))
    if not result.verify():
        raise InternalCheckError("constructed coresolution failed verification")
    return result


@dataclass(frozen=True)
class SelforthResult(_Record):
    status: str  # "certified_true" | "certified_false" | "window_only"
    degree: int | None
    onset: OnsetResult


def is_selforthogonal(t_mod: Representation, cutoff: int) -> SelforthResult:
    """Does Ext^i(T, T) vanish for every i > 0?

    Any nonzero positive degree in the inspected window is already a
    certified no; a clean window is a certified yes only under a vanishing
    certificate, and window-only otherwise.
    """
    onset = vanishing_onset(t_mod, t_mod, cutoff)
    for i in range(1, len(onset.window)):
        if onset.window[i] != 0:
            return SelforthResult("certified_false", i, onset)
    if onset.status == "vanishes":
        return SelforthResult("certified_true", None, onset)
    return SelforthResult("window_only", None, onset)


@dataclass(frozen=True)
class TiltingReport(_Record):
    pd: PdResult
    selforthogonal: SelforthResult
    coresolution: CoresolutionResult
    verdict: str  # "tilting" | "not_tilting" | "undetermined"
    reason: str | None


def is_tilting(t_mod: Representation, cutoff: int, maxlen: int) -> TiltingReport:
    """Certified tilting test: finite projective dimension, certified
    self-orthogonality, and a finite coresolution of the regular module."""
    pd_res = projective_dimension(t_mod, cutoff)
    selforth = is_selforthogonal(t_mod, cutoff)
    cores = coresolution_in_add(regular_module(t_mod.algebra), t_mod, maxlen)
    if isinstance(pd_res, PdPeriodic):
        return TiltingReport(pd_res, selforth, cores, "not_tilting",
                             "projective dimension certified infinite")
    if selforth.status == "certified_false":
        return TiltingReport(pd_res, selforth, cores, "not_tilting",
                             f"Ext^{selforth.degree}(T,T) != 0")
    if cores.refuted:
        return TiltingReport(pd_res, selforth, cores, "not_tilting",
                             f"no coresolution: stage {cores.failure_stage} "
                             "approximation not injective")
    if isinstance(pd_res, PdFinite) and selforth.status == "certified_true" \
            and cores.success:
        return TiltingReport(pd_res, selforth, cores, "tilting", None)
    return TiltingReport(pd_res, selforth, cores, "undetermined",
                         "some condition undetermined at the cutoff")


@dataclass(frozen=True)
class WakamatsuStage(_Record):
    index: int
    image_dims: tuple[int, ...]
    onset: OnsetResult
    status: str  # "certified" | "window_only" | "failed"


@dataclass(frozen=True)
class WakamatsuReport(_Record):
    """One stage per image of the regular module's coresolution walk, in
    order; `complete` is whether that walk ended in add T."""

    selforthogonal: SelforthResult
    stages: tuple[WakamatsuStage, ...]
    complete: bool
    verdict: str  # "wakamatsu" | "not_wakamatsu" | "undetermined"
    reason: str | None


def is_wakamatsu(t_mod: Representation, cutoff: int, maxlen: int) -> WakamatsuReport:
    """Wakamatsu-tilting test: certified self-orthogonality plus a chain of
    left approximations of the regular module whose images stay orthogonal
    to T.

    The chain is `coresolution_in_add`'s; Ext^{>=1}(X_i, T) is checked on
    its `images` in order, so the first failing stage is reported. A chain
    ending in add T continues by identities, so it certifies Wakamatsu. The
    chain may genuinely be infinite; truncation at maxlen yields the verdict
    undetermined, never a fabricated failure.
    """
    selforth = is_selforthogonal(t_mod, cutoff)
    if selforth.status == "certified_false":
        return WakamatsuReport(selforth, (), False, "not_wakamatsu",
                               f"Ext^{selforth.degree}(T,T) != 0")
    cores = coresolution_in_add(regular_module(t_mod.algebra), t_mod, maxlen)
    stages: list[WakamatsuStage] = []
    for index, image in enumerate(cores.images):
        onset = vanishing_onset(image, t_mod, cutoff)
        nonzero = next((i for i in range(1, len(onset.window)) if onset.window[i]), None)
        status = ("failed" if nonzero is not None else
                  "certified" if onset.status == "vanishes" else "window_only")
        stages.append(WakamatsuStage(index, image.dims, onset, status))
        if nonzero is not None:
            return WakamatsuReport(selforth, tuple(stages), cores.success, "not_wakamatsu",
                                   f"stage {index} image has Ext^{nonzero} against T")
    if cores.refuted:
        return WakamatsuReport(selforth, tuple(stages), False, "not_wakamatsu",
                               f"stage {cores.failure_stage} approximation not injective")
    all_certified = all(s.status == "certified" for s in stages)
    if cores.success and all_certified and selforth.status == "certified_true":
        return WakamatsuReport(selforth, tuple(stages), True, "wakamatsu", None)
    return WakamatsuReport(selforth, tuple(stages), cores.success, "undetermined",
                           "chain truncated or some stage window-only")


@dataclass(frozen=True)
class EwtcReport(_Record):
    selforthogonal: SelforthResult
    coresolution: CoresolutionResult
    pd: PdResult | None
    certificate: FinitePdCertificate | None
    status: str  # "confirmed" | "not_applicable" | "undetermined" | "counterexample"
    detail: str


def ewtc_check(t_mod: Representation, cutoff: int, maxlen: int) -> EwtcReport:
    """Check one instance of the conjecture that self-orthogonality plus a
    finite coresolution of the regular module already force tilting.

    It reads the self-orthogonality, coresolution and pd of `is_tilting`.
    With both hypotheses certified, a certified-infinite projective
    dimension would be a counterexample and is flagged loudly; a finite one
    confirms the instance, corroborated by the finite-pd certificate.
    """
    tilt = is_tilting(t_mod, cutoff, maxlen)
    selforth, cores = tilt.selforthogonal, tilt.coresolution
    if selforth.status == "certified_false":
        return EwtcReport(selforth, cores, None, None, "not_applicable",
                          f"Ext^{selforth.degree}(T,T) != 0")
    if cores.refuted:
        return EwtcReport(selforth, cores, None, None, "not_applicable",
                          "no coresolution of the regular module in add T")
    if selforth.status == "window_only" or not cores.success:
        return EwtcReport(selforth, cores, None, None, "undetermined",
                          "hypotheses not certified at the cutoff")
    pd_res = tilt.pd
    cert = finite_pd_certificate(t_mod, cutoff)
    if isinstance(pd_res, PdPeriodic):
        return EwtcReport(selforth, cores, pd_res, cert, "counterexample",
                          "hypotheses certified but projective dimension is "
                          "certifiably infinite: conjecture instance FAILS")
    if isinstance(pd_res, PdFinite):
        note = f"pd = {pd_res.value}"
        if isinstance(cert, PdBound) and cert.value != pd_res.value:
            raise InternalCheckError("finite-pd certificate disagrees with resolution")
        return EwtcReport(selforth, cores, pd_res, cert, "confirmed", note)
    return EwtcReport(selforth, cores, pd_res, cert, "undetermined",
                      "projective dimension undetermined at the cutoff")


@dataclass(frozen=True)
class ArcEntry(_Record):
    name: str
    generator_selforth: str
    projective: bool
    arc_violation: bool
    garc_status: str  # "holds" | "violation" | "undetermined" | "not_applicable"
    self_vanishing_bound: int | None  # exact restricted bound when M is in its own class


@dataclass(frozen=True)
class ArcScanReport(_Record):
    entries: tuple[ArcEntry, ...]
    violations: tuple[str, ...]


def arc_scan(corpus: Corpus, cutoff: int) -> ArcScanReport:
    """Scan corpus members for Auslander-Reiten style counterexamples.

    For each member M the generator G = M + A is tested: a certified
    self-orthogonal G with non-projective M violates the conjecture.  M is
    projective exactly when its first syzygy is zero: the minimal cover
    P -> M is certified surjective and minimal (homology._resolution_step),
    so its kernel is zero exactly when M is isomorphic to P.  The
    generalized variant (eventual self-vanishing forces finite projective
    dimension) is read off the finite-pd certificate: a bound holds, a
    never-vanishing pair is not applicable, and an undetermined certificate
    is a violation when the projective dimension is certified infinite.
    """
    reg = regular_module(corpus.algebra)
    entries = []
    violations = []
    for name, rep in corpus:
        gen = direct_sum([rep, reg])
        selforth = is_selforthogonal(gen, cutoff)
        projective = syzygy(rep, 1).is_zero
        violation = selforth.status == "certified_true" and not projective
        if violation:
            violations.append(name)
        cert = finite_pd_certificate(rep, cutoff)
        if isinstance(cert, PdBound):
            garc = "holds"
        elif isinstance(cert, CertNotApplicable):
            garc = "not_applicable"
        elif isinstance(projective_dimension(rep, cutoff), PdPeriodic):
            garc = "violation"
            violations.append(name)
        else:
            garc = "undetermined"
        bound = None
        if vanishing_onset(rep, rep, cutoff).status == "vanishes":
            lab = left_bound(rep, corpus, cutoff)
            if lab.exact:
                bound = lab.value
        entries.append(ArcEntry(name, selforth.status, projective, violation,
                                garc, bound))
    return ArcScanReport(tuple(entries), tuple(violations))


@dataclass(frozen=True)
class GscReport(_Record):
    id_left: PdResult
    id_right: PdResult
    equal: bool | None


def gsc_report(algebra, cutoff: int) -> GscReport:
    """Injective dimensions of the algebra on both sides; equality is
    asserted only when both are certified finite."""
    id_left = injective_dimension(regular_module(algebra), cutoff)
    id_right = injective_dimension(regular_module(opposite(algebra)), cutoff)
    equal = None
    if isinstance(id_left, PdFinite) and isinstance(id_right, PdFinite):
        equal = id_left.value == id_right.value
    return GscReport(id_left, id_right, equal)
