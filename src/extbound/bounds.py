"""Auslander bounds restricted to finite corpora, corpus-wide statistics,
and verifiers for the homological identities those bounds satisfy.

All bounds here are corpus-restricted and labeled as such; nothing in this
module ever claims a bound over the whole module category.  A value is
"exact" when every contributing Ext pair carries a vanishing certificate;
pairs that certifiably never vanish are excluded from the maximum (they sit
outside the eventually-vanishing class), and undetermined pairs downgrade
the result to a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import (
    Algebra, Representation, direct_sum, dual_module, opposite,
    projective_module, regular_module, simple_module,
)
from .modules import AlgebraMismatchError, InternalCheckError, in_add_family
from .homology import (
    OnsetResult, PdAtLeast, PdFinite, PdResult, cosyzygy, ext_table,
    injective_dimension, minimal_resolution, onset_against_regular,
    projective_dimension, syzygy, vanishing_onset,
)


class UnknownNameError(KeyError):
    """A fixture or corpus member name that does not exist: an input error."""

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


@dataclass
class Corpus:
    """A named finite family of modules standing in for a class of modules."""

    algebra: Algebra
    members: tuple[tuple[str, Representation], ...]
    provenance: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        names = [n for n, _ in self.members]
        if len(set(names)) != len(names):
            raise ValueError("duplicate corpus member names")
        for _, rep in self.members:
            if rep.algebra is not self.algebra:
                raise AlgebraMismatchError("corpus member over a different algebra")

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def names(self) -> list[str]:
        return [n for n, _ in self.members]

    def get(self, name: str) -> Representation:
        for n, rep in self.members:
            if n == name:
                return rep
        raise UnknownNameError(f"unknown corpus member {name!r}; available: "
                               f"{', '.join(self.names())}")

    @property
    def is_complete(self) -> bool:
        return bool(self.provenance.get("complete"))


def dual_corpus(corpus: Corpus) -> Corpus:
    return Corpus(opposite(corpus.algebra),
                  tuple((n, dual_module(rep)) for n, rep in corpus.members),
                  dict(corpus.provenance, dualized=True))


@dataclass(frozen=True)
class AbResult:
    """A restricted Auslander bound with its per-pair evidence."""

    exact: bool
    value: int
    cutoff: int
    pairs: tuple[tuple[str, OnsetResult], ...]
    undetermined_pairs: tuple[str, ...]
    excluded_pairs: tuple[str, ...]  # certified never-vanishing, outside the class

    def to_json(self) -> dict:
        return {"exact": self.exact, "value": self.value, "cutoff": self.cutoff,
                "pairs": {n: o.to_json() for n, o in self.pairs},
                "undetermined_pairs": list(self.undetermined_pairs),
                "excluded_pairs": list(self.excluded_pairs)}


def _aggregate(pairs: list[tuple[str, OnsetResult]], cutoff: int) -> AbResult:
    value = 0
    undet, excluded = [], []
    for name, onset in pairs:
        if onset.status == "vanishes":
            value = max(value, onset.onset)
        elif onset.status == "never_vanishes":
            excluded.append(name)
        else:
            undet.append(name)
    return AbResult(not undet, value, cutoff, tuple(pairs), tuple(undet), tuple(excluded))


def left_bound(module: Representation, corpus: Corpus, cutoff: int) -> AbResult:
    """Restricted left Auslander bound: the largest certified vanishing onset
    of Ext^*(module, N) over corpus members N inside the eventually-vanishing
    class."""
    if module.algebra is not corpus.algebra:
        raise AlgebraMismatchError("module is not over the corpus algebra")
    pairs = [(name, vanishing_onset(module, n_mod, cutoff)) for name, n_mod in corpus]
    return _aggregate(pairs, cutoff)


def right_bound(module: Representation, corpus: Corpus, cutoff: int) -> AbResult:
    """Restricted right Auslander bound, computed through the duality as the
    left bound of the dual module over the dualized corpus."""
    if module.algebra is not corpus.algebra:
        raise AlgebraMismatchError("module is not over the corpus algebra")
    return left_bound(dual_module(module), dual_corpus(corpus), cutoff)


def right_bound_direct(module: Representation, corpus: Corpus, cutoff: int) -> AbResult:
    """The right bound computed without duality, by resolving each corpus
    member against the module; used to cross-check the duality route."""
    if module.algebra is not corpus.algebra:
        raise AlgebraMismatchError("module is not over the corpus algebra")
    pairs = [(name, vanishing_onset(n_mod, module, cutoff)) for name, n_mod in corpus]
    return _aggregate(pairs, cutoff)


@dataclass(frozen=True)
class BoundValue:
    exact: bool
    value: int

    def to_json(self) -> dict:
        return {"exact": self.exact, "value": self.value}


@dataclass(frozen=True)
class CorpusBoundReport:
    cutoff: int
    member_stats: tuple[tuple[str, AbResult, AbResult, PdResult, PdResult], ...]
    glab: BoundValue
    grab: BoundValue
    gab: BoundValue
    fpd: BoundValue
    fid: BoundValue
    flab: BoundValue
    frab: BoundValue
    contains_regular: bool

    def to_json(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "glab": self.glab.to_json(), "grab": self.grab.to_json(),
            "gab": self.gab.to_json(),
            "fpd": self.fpd.to_json(), "fid": self.fid.to_json(),
            "flab": self.flab.to_json(), "frab": self.frab.to_json(),
            "contains_regular": self.contains_regular,
            "members": {
                name: {"lab": lab.to_json(), "rab": rab.to_json(),
                       "pd": pd.to_json(), "id": idim.to_json()}
                for name, lab, rab, pd, idim in self.member_stats},
        }


def _finitistic(values: list[PdResult]) -> BoundValue:
    best, exact = 0, True
    for v in values:
        if isinstance(v, PdFinite):
            best = max(best, v.value)
        elif isinstance(v, PdAtLeast):
            exact = False  # could be finite but larger than the cutoff shows
        # certified-infinite members lie outside the finitistic supremum
    return BoundValue(exact, best)


def _bound_max(results: list[AbResult]) -> BoundValue:
    return BoundValue(all(r.exact for r in results),
                      max((r.value for r in results), default=0))


def corpus_bounds(corpus: Corpus, cutoff: int) -> CorpusBoundReport:
    """Left/right bounds, the global corpus bound, and finitistic statistics.

    The right bound and the injective dimension of each member come through
    the duality, as the left bound and the projective dimension of its dual
    over the dual corpus, which is built once per call.

    Restricted to a finite corpus every computed left bound is a finite
    number, so the finitistic left statistic coincides with the global left
    bound; both are still reported.
    """
    dcorp = dual_corpus(corpus)
    stats = []
    for (name, rep), (_, drep) in zip(corpus, dcorp):
        stats.append((name,
                      left_bound(rep, corpus, cutoff),
                      left_bound(drep, dcorp, cutoff),
                      projective_dimension(rep, cutoff),
                      projective_dimension(drep, cutoff)))
    glab = _bound_max([s[1] for s in stats])
    grab = _bound_max([s[2] for s in stats])
    gab = BoundValue(glab.exact and grab.exact, glab.value)
    fpd = _finitistic([s[3] for s in stats])
    fid = _finitistic([s[4] for s in stats])
    return CorpusBoundReport(cutoff, tuple(stats), glab, grab, gab, fpd, fid,
                             flab=glab, frab=grab,
                             contains_regular=_contains_regular(corpus))


def _contains_regular(corpus: Corpus) -> bool:
    """Whether the regular module lies in add of a nonempty corpus.

    A is the sum of the projectives P_v, and add C is closed under finite
    sums and summands, so A lies in add C exactly when every P_v does.  Each
    P_v gets its own small in_add_family test, whose witness is verified
    there."""
    parts = [rep for _, rep in corpus]
    alg = corpus.algebra
    return bool(parts) and all(in_add_family(projective_module(alg, v), parts).member
                               for v in range(alg.vertex_count))


# ----- verifier for the regular-module onset formula --------------------------


@dataclass(frozen=True)
class CheckOutcome:
    status: str  # "pass" | "fail" | "not_applicable"
    detail: str

    def to_json(self) -> dict:
        return {"status": self.status, "detail": self.detail}


def check_regular_onset_formula(module: Representation, corpus: Corpus,
                                cutoff: int) -> CheckOutcome:
    """When the restricted left bound is exact, the pair (module, algebra)
    certifies eventual vanishing, and the regular module belongs to the
    corpus up to add-closure, the bound must equal the vanishing onset
    against the regular module."""
    return _regular_onset_outcome(
        module, corpus, cutoff, left_bound(module, corpus, cutoff),
        lambda: _contains_regular(corpus))


def _regular_onset_outcome(module: Representation, corpus: Corpus, cutoff: int,
                           lab: AbResult, contains_regular) -> CheckOutcome:
    """check_regular_onset_formula given the module's left bound over the
    corpus; contains_regular() answers whether the regular module lies in
    the corpus up to add, and is asked only when that decides the outcome."""
    if not lab.exact:
        return CheckOutcome("not_applicable", "left bound not exact at this cutoff")
    onset = onset_against_regular(module, cutoff)
    if onset.status != "vanishes":
        return CheckOutcome(
            "not_applicable",
            f"onset against the regular module is {onset.status} at cutoff {cutoff}")
    if not corpus.members:
        return CheckOutcome("not_applicable", "empty corpus")
    if not contains_regular():
        return CheckOutcome("not_applicable",
                            "corpus does not contain the regular module up to add")
    if lab.value == onset.onset:
        return CheckOutcome("pass", f"left bound {lab.value} equals regular onset")
    return CheckOutcome("fail",
                        f"left bound {lab.value} != regular onset {onset.onset}")


# ----- finite projective dimension certificate --------------------------------


@dataclass(frozen=True)
class PdBound:
    value: int
    kind: str = "pd_bound"

    def to_json(self) -> dict:
        return {"kind": "pd_bound", "value": self.value}


@dataclass(frozen=True)
class CertNotApplicable:
    reason: str
    kind: str = "not_applicable"

    def to_json(self) -> dict:
        return {"kind": "not_applicable", "reason": self.reason}


@dataclass(frozen=True)
class CertUndetermined:
    cutoff: int
    kind: str = "undetermined"

    def to_json(self) -> dict:
        return {"kind": "undetermined", "cutoff": self.cutoff}


FinitePdCertificate = PdBound | CertNotApplicable | CertUndetermined


def finite_pd_certificate(module: Representation, cutoff: int) -> FinitePdCertificate:
    """Certify finite projective dimension from eventual self-vanishing.

    Requires certified eventual vanishing of Ext^*(M, M) and Ext^*(M, A).
    Then the least m with Ext^1 from the m-th syzygy to the next one zero
    bounds the projective dimension: the corresponding cover sequence splits,
    and minimality forces the next syzygy to vanish (asserted).
    """
    self_onset = vanishing_onset(module, module, cutoff)
    reg_onset = onset_against_regular(module, cutoff)
    for label, onset in (("Ext(M,M)", self_onset), ("Ext(M,A)", reg_onset)):
        if onset.status == "never_vanishes":
            return CertNotApplicable(f"{label} certifiably never vanishes")
        if onset.status == "undetermined":
            return CertUndetermined(cutoff)
    res = minimal_resolution(module, cutoff)
    for m in range(cutoff + 1):
        head = res.syzygy(m)
        tail = res.syzygy(m + 1)
        if head.is_zero or ext_table(head, tail, 1).dims[1] == 0:
            if not tail.is_zero:
                raise InternalCheckError(
                    "split cover sequence left a nonzero syzygy in a minimal resolution")
            return PdBound(m if not head.is_zero else max(m - 1, 0))
    return CertUndetermined(cutoff)


# ----- ultimately closed / strongly redundant resolutions ---------------------


@dataclass(frozen=True)
class UltimateClosure:
    at: int
    via_zero_syzygy: bool

    def to_json(self) -> dict:
        return {"at": self.at, "via_zero_syzygy": self.via_zero_syzygy}


def ultimately_closed_at(module: Representation, cutoff: int) -> UltimateClosure | None:
    """Least m <= cutoff whose syzygy lies in the add-closure of the earlier
    ones; a zero syzygy (terminated resolution) qualifies trivially."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    res = minimal_resolution(module, cutoff - 1)
    earlier = [module]
    for m in range(1, cutoff + 1):
        syz = res.syzygy(m)
        if syz.is_zero:
            return UltimateClosure(m, True)
        if in_add_family(syz, earlier).member:
            return UltimateClosure(m, False)
        earlier.append(syz)
    return None


def strongly_redundant_from(module: Representation, cutoff: int) -> int | None:
    """Least m < cutoff with a nonzero m-th syzygy lying in the add-closure
    of the strictly later syzygies within the cutoff window."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    res = minimal_resolution(module, cutoff - 1)
    for m in range(cutoff):
        syz = res.syzygy(m)
        if syz.is_zero:
            break
        later = [res.syzygy(j) for j in range(m + 1, cutoff + 1)
                 if not res.syzygy(j).is_zero]
        if later and in_add_family(syz, later).member:
            return m
    return None


# ----- property suite ----------------------------------------------------------


@dataclass(frozen=True)
class StatementResult:
    statement: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str

    def to_json(self) -> dict:
        return {"statement": self.statement, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class PropertyReport:
    cutoff: int
    statements: tuple[StatementResult, ...]

    @property
    def failed(self) -> list[StatementResult]:
        return [s for s in self.statements if s.status == "fail"]

    def to_json(self) -> dict:
        return {"cutoff": self.cutoff,
                "statements": [s.to_json() for s in self.statements]}


def _shift_drops_onset(corpus: Corpus, grid: dict, cutoff: int,
                       contravariant: bool) -> tuple[bool, str]:
    """(ok, detail) of a shift statement: shifting each nonzero member M one
    step (its syzygy in the first argument, or its cosyzygy in the second
    when contravariant) keeps every certified status and drops a vanishing
    onset by one, floored at zero."""
    ok, checked = True, 0
    for mn, m_mod in corpus:
        if m_mod.is_zero:
            continue
        moved = cosyzygy(m_mod, 1) if contravariant else syzygy(m_mod, 1)
        for nn, n_mod in corpus:
            if contravariant:
                base, shifted = grid[(nn, mn)], vanishing_onset(n_mod, moved, cutoff)
            else:
                base, shifted = grid[(mn, nn)], vanishing_onset(moved, n_mod, cutoff)
            if not (base.certified and shifted.certified):
                continue
            checked += 1
            if base.status != shifted.status and not moved.is_zero:
                ok = False
            elif base.status == "vanishes" and shifted.status == "vanishes":
                ok = ok and shifted.onset == max(base.onset - 1, 0)
    return ok, f"{checked} certified pairs"


def verify_bound_properties(corpus: Corpus, cutoff: int) -> PropertyReport:
    """Check the bound identities and inequalities over the corpus.

    Every statement is a theorem, so a failure means an implementation bug;
    instances whose hypotheses are not certified at the cutoff are skipped,
    never guessed.
    """
    out: list[StatementResult] = []
    alg = corpus.algebra
    report = corpus_bounds(corpus, cutoff)
    labs = {name: lab for name, lab, *_ in report.member_stats}
    rabs = {name: rab for name, _, rab, *_ in report.member_stats}
    grid = {(mn, nn): onset for mn, lab in labs.items() for nn, onset in lab.pairs}

    def emit(name, ok, detail="", skipped=False):
        out.append(StatementResult(name, "skipped" if skipped else
                                   ("pass" if ok else "fail"), detail))

    # global left and right bounds agree when both are exact
    if report.glab.exact and report.grab.exact:
        emit("global-left-right-agreement", report.glab.value == report.grab.value,
             f"glAb={report.glab.value} grAb={report.grab.value}")
    else:
        emit("global-left-right-agreement", True, "not exact at cutoff", skipped=True)

    # monotonicity under corpus inclusion (prefix sub-corpus)
    if len(corpus) >= 2:
        half = Corpus(alg, corpus.members[:max(1, len(corpus) // 2)],
                      dict(corpus.provenance, complete=False))
        sub_report = corpus_bounds(half, cutoff)
        mono_ok, mono_checked = True, 0
        for name, small, *_ in sub_report.member_stats:
            big = labs[name]
            if small.exact and big.exact:
                mono_checked += 1
                mono_ok = mono_ok and small.value <= big.value
        if sub_report.gab.exact and report.gab.exact:
            mono_ok = mono_ok and sub_report.gab.value <= report.gab.value
        emit("bound-monotonicity-under-inclusion", mono_ok,
             f"{mono_checked} member instances")
    else:
        emit("bound-monotonicity-under-inclusion", True, "corpus too small", skipped=True)

    # two-out-of-three along cover sequences, tested in the second argument
    checked = failures = 0
    for name, rep in corpus:
        if rep.is_zero:
            continue
        res = minimal_resolution(rep, 0)
        p0, om = res.covers[0].bundle.rep, res.syzygy(1)
        for tn, t_mod in corpus:
            triple = [vanishing_onset(t_mod, x, cutoff) for x in (om, p0, rep)]
            if not all(o.certified for o in triple):
                continue
            checked += 1
            vanish = sum(1 for o in triple if o.status == "vanishes")
            if vanish == 2:
                failures += 1
    emit("two-out-of-three-on-cover-sequences", failures == 0,
         f"{checked} certified triples")

    # syzygy shift: onset drops by one (floored at zero) and membership
    # agrees; the cosyzygy shift is the same on the contravariant side
    emit("syzygy-shifts-onset", *_shift_drops_onset(corpus, grid, cutoff, False))
    emit("cosyzygy-shifts-onset", *_shift_drops_onset(corpus, grid, cutoff, True))

    # duality transfers Ext dimensions and onsets
    dcorp = dual_corpus(corpus)
    dual_of = dict(zip(corpus.names(), [rep for _, rep in dcorp]))
    ok, checked = True, 0
    for mn, m_mod in corpus:
        for nn, n_mod in corpus:
            fwd = ext_table(m_mod, n_mod, min(cutoff, 8)).dims
            bwd = ext_table(dual_of[nn], dual_of[mn], min(cutoff, 8)).dims
            checked += 1
            ok = ok and fwd == bwd
    emit("duality-transfers-ext-dimensions", ok, f"{checked} pairs to degree 8")

    # direct sums take the maximum of the two bounds
    ok, checked = True, 0
    for i, (an, a_mod) in enumerate(corpus.members[:2]):
        for bn, b_mod in corpus.members[i:2]:
            summed = direct_sum([a_mod, b_mod])
            lab_sum = left_bound(summed, corpus, cutoff)
            la, lb = labs[an], labs[bn]
            if lab_sum.exact and la.exact and lb.exact:
                checked += 1
                ok = ok and lab_sum.value <= max(la.value, lb.value)
    emit("direct-sum-bound", ok, f"{checked} pairs", skipped=checked == 0)

    # the duality route for right bounds agrees with direct computation
    ok, checked = True, 0
    for name, rep in corpus:
        via_dual = rabs[name]
        direct = right_bound_direct(rep, corpus, cutoff)
        if via_dual.exact and direct.exact:
            checked += 1
            ok = ok and via_dual.value == direct.value
    emit("right-bound-duality-route", ok, f"{checked} members")

    # left bound at most m exactly when the m-th syzygy has bound zero
    ok, checked = True, 0
    for name, rep in corpus:
        if rep.is_zero:
            continue
        lab = labs[name]
        if not lab.exact:
            continue
        res = minimal_resolution(rep, 2)
        for m in range(1, 4):
            syz_lab = left_bound(res.syzygy(m), corpus, max(cutoff - m, 1))
            if not syz_lab.exact:
                continue
            checked += 1
            ok = ok and ((lab.value <= m) == (syz_lab.value == 0))
    emit("syzygy-reduces-bound-to-zero", ok, f"{checked} instances")

    # the global bound vanishes on syzygies at its own depth and not before
    if report.gab.exact:
        n = report.gab.value
        ok = True
        witness_strict = n == 0
        for name, rep in corpus:
            syz = syzygy(rep, n)
            syz_lab = left_bound(syz, corpus, cutoff)
            if syz_lab.exact and syz_lab.value != 0:
                ok = False
            if n >= 1:
                prev = syzygy(rep, n - 1)
                prev_lab = left_bound(prev, corpus, cutoff)
                if prev_lab.exact and prev_lab.value > 0:
                    witness_strict = True
        emit("global-bound-syzygy-depth", ok and witness_strict,
             f"depth {n}")
    else:
        emit("global-bound-syzygy-depth", True, "global bound not exact", skipped=True)

    # the opposite algebra has the same global bound
    dreport = corpus_bounds(dcorp, cutoff)
    if report.gab.exact and dreport.gab.exact:
        emit("opposite-global-bound", report.gab.value == dreport.gab.value,
             f"{report.gab.value} vs {dreport.gab.value}")
    else:
        emit("opposite-global-bound", True, "not exact", skipped=True)

    # finite self-injective dimension caps every exact left bound, and the
    # exact global bound equals it on a complete corpus
    id_reg = injective_dimension(regular_module(alg), cutoff)
    if isinstance(id_reg, PdFinite):
        d = id_reg.value
        ok = all(lab.value <= d for _, lab, *_ in report.member_stats if lab.exact)
        emit("injective-dimension-caps-bounds", ok, f"id(A) = {d}")
        if report.gab.exact and corpus.is_complete:
            emit("global-bound-equals-injective-dimension", report.gab.value == d,
                 f"gAb={report.gab.value} id(A)={d}")
        else:
            emit("global-bound-equals-injective-dimension", True,
                 "corpus not complete or bound inexact", skipped=True)
    else:
        emit("injective-dimension-caps-bounds", True,
             "id(A) not certified finite", skipped=True)
        emit("global-bound-equals-injective-dimension", True,
             "id(A) not certified finite", skipped=True)

    # finitistic projective dimension is capped by the right bound of A
    rab_reg = right_bound(regular_module(alg), corpus, cutoff)
    if report.fpd.exact and rab_reg.exact:
        emit("finitistic-pd-capped-by-regular-right-bound",
             report.fpd.value <= rab_reg.value,
             f"fPD={report.fpd.value} rAb(A)={rab_reg.value}")
    else:
        emit("finitistic-pd-capped-by-regular-right-bound", True, "not exact",
             skipped=True)

    # members of certified finite injective dimension are capped by the left
    # bound of the sum of simples
    simples = direct_sum([simple_module(alg, v) for v in range(alg.vertex_count)])
    lab_simples = left_bound(simples, corpus, cutoff)
    if lab_simples.exact:
        ok, checked = True, 0
        for name, _, _, _, idim in report.member_stats:
            if isinstance(idim, PdFinite) and idim.value >= 0:
                checked += 1
                ok = ok and idim.value <= lab_simples.value
        emit("finite-id-capped-by-simples-bound", ok,
             f"{checked} members, bound {lab_simples.value}")
    else:
        emit("finite-id-capped-by-simples-bound", True, "bound not exact", skipped=True)

    # finitistic pd is capped by the finitistic left bound once the corpus
    # contains the regular module
    if report.contains_regular and report.fpd.exact and report.flab.exact:
        emit("finitistic-pd-capped-by-finitistic-bound",
             report.fpd.value <= report.flab.value,
             f"fPD={report.fpd.value} fLAb={report.flab.value}")
    else:
        emit("finitistic-pd-capped-by-finitistic-bound", True,
             "regular module not in corpus or values inexact", skipped=True)

    # a strongly redundant resolution caps the left bound; the probe window
    # is capped because add-membership over growing syzygy families gets
    # expensive and the instances of interest sit in low degrees
    probe = min(cutoff, 6)
    notes = []
    ok, checked = True, 0
    for name, rep in corpus:
        m = strongly_redundant_from(rep, probe)
        if m is None:
            continue
        lab = labs[name]
        if not lab.exact:
            continue
        checked += 1
        if lab.value > m:
            ok = False
        elif lab.value < m:
            notes.append(f"{name}: strict ({lab.value} < {m})")
    emit("strong-redundancy-caps-bound", ok,
         f"{checked} instances" + ("; " + "; ".join(notes) if notes else ""))

    # every member's resolution eventually closes up (true on the shipped
    # fixtures; merely informational elsewhere)
    closed = [name for name, rep in corpus
              if ultimately_closed_at(rep, probe) is not None]
    if len(closed) == len(corpus):
        emit("resolutions-ultimately-closed", True, f"all {len(closed)} members")
    else:
        emit("resolutions-ultimately-closed", True,
             f"{len(closed)}/{len(corpus)} members closed within cutoff", skipped=True)

    # the regular-onset formula holds wherever its hypotheses certify
    ok, checked = True, 0
    for name, rep in corpus:
        outcome = _regular_onset_outcome(rep, corpus, cutoff, labs[name],
                                         lambda: report.contains_regular)
        if outcome.status == "fail":
            ok = False
        if outcome.status != "not_applicable":
            checked += 1
    emit("regular-onset-formula", ok, f"{checked} applicable members")

    # the finite-pd certificate agrees with the resolution wherever it applies
    ok, checked = True, 0
    for name, rep in corpus:
        cert = finite_pd_certificate(rep, cutoff)
        if isinstance(cert, PdBound):
            checked += 1
            pd_res = projective_dimension(rep, cutoff)
            ok = ok and isinstance(pd_res, PdFinite) and pd_res.value == cert.value
    emit("finite-pd-certificate-matches-pd", ok, f"{checked} applicable members")

    return PropertyReport(cutoff, tuple(out))
