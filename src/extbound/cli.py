"""Command-line interface.

Exit codes: 0 success/verified, 1 property violation or conjecture
counterexample, 2 undetermined at the cutoff, 3 input error (a bad file,
name or command line).  Reports echo the cutoff and seed they were produced
with; every computation is deterministic, so --seed has no effect and is only
echoed.  JSON output is canonical (sorted keys), so identical inputs give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import (
    NilpotencyBoundError, PresentationError, direct_sum,
    projective_module, regular_module, simple_module,
)
from .modules import AlgebraMismatchError, decompose
from .homology import (
    PdAtLeast, PdFinite, PdPeriodic, ext_table, injective_dimension,
    minimal_resolution, projective_dimension, vanishing_onset,
)
from .bounds import (
    UnknownNameError, corpus_bounds, left_bound, right_bound,
    strongly_redundant_from, ultimately_closed_at, verify_bound_properties,
)
from .tilting import (
    arc_scan, coresolution_corpus, ewtc_check, gsc_report, is_tilting, is_wakamatsu,
)
from .fileio import (
    FileFormatError, dumps_canonical, load_algebra, load_corpus, load_module,
    save_corpus,
)
from .fixtures import (
    FIXTURE_NAMES, fixture_algebra, fixture_corpus, fixture_module,
    generate_corpus,
)

SCHEMA_VERSION = "1"

_INPUT_ERRORS = (FileFormatError, PresentationError, NilpotencyBoundError,
                 AlgebraMismatchError, OSError, UnknownNameError)


def _load_algebra_arg(value: str):
    if value.startswith("builtin:"):
        return fixture_algebra(value.split(":", 1)[1])
    return load_algebra(value)


def _load_module_arg(value: str, algebra=None):
    if value.startswith("builtin:"):
        parts = value.split(":")
        if len(parts) != 3:
            raise FileFormatError(f"{value}: builtin module syntax is builtin:FIXTURE:NAME")
        return parts[2], fixture_module(parts[1], parts[2])
    name, rep = load_module(value, algebra=algebra)
    return name or value, rep


def _load_against_arg(value: str, algebra):
    if value == "regular":
        return "regular", regular_module(algebra)
    return _load_module_arg(value, algebra=algebra)


def _load_corpus_arg(value: str):
    if value.startswith("builtin:"):
        return fixture_corpus(value.split(":", 1)[1])
    return load_corpus(value)


def _pd_text(res) -> str:
    if isinstance(res, PdFinite):
        return f"Finite({res.value})"
    if isinstance(res, PdPeriodic):
        return f"PeriodicInfinite(preperiod={res.preperiod}, period={res.period})"
    return f"AtLeast({res.cutoff})"


def _onset_text(onset) -> str:
    if onset.status == "vanishes":
        return f"CertifiedVanishes({onset.onset})"
    if onset.status == "never_vanishes":
        return "CertifiedNeverVanishes"
    return f"Undetermined(cutoff={onset.cutoff})"


def _ab_text(ab) -> str:
    return f"{'Exact' if ab.exact else 'LowerBound'}({ab.value})"


def _table(rows: list[list[str]], header: list[str]) -> str:
    cols = list(zip(*([header] + rows))) if rows else [(h,) for h in header]
    widths = [max(len(str(x)) for x in col) for col in cols]
    def fmt(row):
        return "  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _meta(args, command: str) -> dict:
    meta = {"schema_version": SCHEMA_VERSION, "command": command}
    for key in ("cutoff", "maxlen", "seed"):
        if hasattr(args, key):
            meta[key] = getattr(args, key)
    return meta


# ----- command handlers --------------------------------------------------------


def cmd_algebra_info(args):
    alg = _load_algebra_arg(args.algebra)
    q = alg.quiver
    basis = [p.render(q) for p in alg.basis]
    payload = dict(_meta(args, "algebra info"),
                   field={"p": alg.field.p} if alg.field.kind == "prime"
                         else {"rationals": True},
                   dim=alg.dim, vertices=list(q.vertices),
                   arrows=[{"name": a.name, "from": q.vertices[a.source],
                            "to": q.vertices[a.target]} for a in q.arrows],
                   basis=basis,
                   radical_dim=len(alg.radical_indices),
                   projective_dims={q.vertices[v]: list(projective_module(alg, v).dims)
                                    for v in range(alg.vertex_count)})
    human = "\n".join([
        f"field: {'GF(%d)' % alg.field.p if alg.field.kind == 'prime' else 'Q'}",
        f"dimension: {alg.dim}",
        f"vertices: {', '.join(q.vertices)}",
        f"arrows: {', '.join(f'{a.name}:{q.vertices[a.source]}->{q.vertices[a.target]}' for a in q.arrows)}",
        f"basis: {', '.join(basis)}",
        f"radical dimension: {len(alg.radical_indices)}",
    ])
    return 0, payload, human


def cmd_module_check(args):
    name, rep = _load_module_arg(args.module)
    dec = decompose(rep)
    payload = dict(_meta(args, "module check"), name=name,
                   dims=list(rep.dims), total_dim=rep.total_dim,
                   valid=True,
                   indecomposable_factors=(
                       [[list(f.dims), m] for f, m in dec.factors]
                       if dec.determined else None))
    human = (f"module {name}: valid, dims {list(rep.dims)}, total {rep.total_dim}"
             + (f", {len(dec.copies)} indecomposable factor(s)" if dec.determined
                else ", decomposition undetermined"))
    return 0, payload, human


def cmd_resolve(args):
    name, rep = _load_module_arg(args.module)
    res = minimal_resolution(rep, args.cutoff)
    mults = [list(res.multiplicities(k)) for k in range(args.cutoff + 1)]
    rows = [[str(k), str(mult), str(sum(mult))] for k, mult in enumerate(mults)]
    terminated = res.terminated_at
    payload = dict(_meta(args, "resolve"), module=name, multiplicities=mults,
                   terminated_at=terminated)
    human = _table(rows, ["degree", "multiplicities", "summands"])
    human += f"\nterminated at syzygy {terminated}" if terminated is not None \
        else "\nnot terminated within the cutoff"
    return 0, payload, human


def cmd_ext(args):
    name_m, m_mod = _load_module_arg(args.module)
    name_n, n_mod = _load_against_arg(args.against, m_mod.algebra)
    table = ext_table(m_mod, n_mod, args.cutoff)
    payload = dict(_meta(args, "ext"), module=name_m, against=name_n,
                   table=table.to_json())
    if args.format == "csv":
        return 0, payload, table.to_csv().rstrip("\n")
    human = _table([[str(i), str(d)] for i, d in enumerate(table.dims)],
                   ["degree", "dim Ext"])
    return 0, payload, human


def cmd_pd(args, side="pd"):
    name, rep = _load_module_arg(args.module)
    res = projective_dimension(rep, args.cutoff) if side == "pd" \
        else injective_dimension(rep, args.cutoff)
    payload = dict(_meta(args, side), module=name, result=res.to_json())
    code = 2 if isinstance(res, PdAtLeast) else 0
    return code, payload, f"{side}({name}) = {_pd_text(res)}"


def cmd_onset(args):
    name_m, m_mod = _load_module_arg(args.module)
    name_n, n_mod = _load_against_arg(args.against, m_mod.algebra)
    onset = vanishing_onset(m_mod, n_mod, args.cutoff)
    payload = dict(_meta(args, "onset"), module=name_m, against=name_n,
                   result=onset.to_json())
    code = 0 if onset.certified else 2
    return code, payload, f"onset({name_m}, {name_n}) = {_onset_text(onset)}"


def cmd_ab(args):
    name, rep = _load_module_arg(args.module)
    corpus = _load_corpus_arg(args.corpus)
    fn = left_bound if args.side == "left" else right_bound
    ab = fn(rep, corpus, args.cutoff)
    payload = dict(_meta(args, "ab"), module=name, side=args.side,
                   corpus=corpus.provenance, result=ab.to_json())
    rows = [[n, _onset_text(o)] for n, o in ab.pairs]
    human = (f"{args.side} Auslander bound of {name} over {len(corpus)} modules: "
             f"{_ab_text(ab)}\n" + _table(rows, ["against", "onset"]))
    return (0 if ab.exact else 2), payload, human


def cmd_bounds(args):
    corpus = _load_corpus_arg(args.corpus)
    report = corpus_bounds(corpus, args.cutoff)
    payload = dict(_meta(args, "bounds"), corpus=corpus.provenance,
                   report=report.to_json())
    if args.format == "csv":
        lines = ["module,lab,rab,pd,id"]
        for name, lab, rab, pd_r, id_r in report.member_stats:
            lines.append(f"{name},{_ab_text(lab)},{_ab_text(rab)},"
                         f"{_pd_text(pd_r)},{_pd_text(id_r)}")
        return (0 if report.gab.exact else 2), payload, "\n".join(lines)
    rows = [[name, _ab_text(lab), _ab_text(rab), _pd_text(pd_r), _pd_text(id_r)]
            for name, lab, rab, pd_r, id_r in report.member_stats]
    human = _table(rows, ["module", "lab", "rab", "pd", "id"])
    human += (f"\nglAb={_ab_text(report.glab)} grAb={_ab_text(report.grab)}"
              f" gAb={_ab_text(report.gab)}"
              f"\nfPD={_ab_text(report.fpd)} fID={_ab_text(report.fid)}"
              f" fLAb={_ab_text(report.flab)} fRAb={_ab_text(report.frab)}"
              f"\ncontains regular module: {report.contains_regular}")
    return (0 if report.gab.exact else 2), payload, human


def cmd_tilting(args):
    name, rep = _load_module_arg(args.module)
    report = is_tilting(rep, args.cutoff, args.maxlen)
    payload = dict(_meta(args, "tilting"), module=name, report=report.to_json())
    if args.export_chain and report.coresolution.success:
        save_corpus(coresolution_corpus(regular_module(rep.algebra),
                                        report.coresolution), args.export_chain)
        payload["exported_chain"] = args.export_chain
    code = 2 if report.verdict == "undetermined" else 0
    human = (f"{name}: {report.verdict}"
             + (f" ({report.reason})" if report.reason else "")
             + f"\n  pd: {_pd_text(report.pd)}"
             + f"\n  selforthogonal: {report.selforth.status}"
             + (f"\n  coresolution length: {report.coresolution.length}"
                if report.coresolution.success else
                f"\n  coresolution: failed at stage {report.coresolution.failure_stage}"
                f" ({report.coresolution.reason})"))
    return code, payload, human


def cmd_wakamatsu(args):
    name, rep = _load_module_arg(args.module)
    report = is_wakamatsu(rep, args.cutoff, args.maxlen)
    payload = dict(_meta(args, "wakamatsu"), module=name, report=report.to_json())
    code = 2 if report.verdict == "undetermined" else 0
    human = (f"{name}: {report.verdict}"
             + (f" ({report.reason})" if report.reason else "")
             + f"\n  stages checked: {len(report.stages)}, complete: {report.complete}")
    return code, payload, human


def cmd_ewtc(args):
    name, rep = _load_module_arg(args.module)
    report = ewtc_check(rep, args.cutoff, args.maxlen)
    payload = dict(_meta(args, "ewtc"), module=name, report=report.to_json())
    code = {"confirmed": 0, "not_applicable": 0,
            "undetermined": 2, "counterexample": 1}[report.status]
    return code, payload, f"{name}: {report.status} ({report.detail})"


def cmd_arc(args):
    corpus = _load_corpus_arg(args.corpus)
    report = arc_scan(corpus, args.cutoff)
    payload = dict(_meta(args, "arc"), corpus=corpus.provenance,
                   report=report.to_json())
    if report.violations:
        code = 1
    elif any(e.garc_status == "undetermined" for e in report.entries):
        code = 2
    else:
        code = 0
    rows = [[e.name, e.generator_selforth, str(e.projective), e.garc_status]
            for e in report.entries]
    human = _table(rows, ["module", "M+A selforthogonal", "projective", "garc"])
    human += f"\nviolations: {list(report.violations) or 'none'}"
    return code, payload, human


def cmd_gsc(args):
    alg = _load_algebra_arg(args.algebra)
    report = gsc_report(alg, args.cutoff)
    payload = dict(_meta(args, "gsc"), report=report.to_json())
    if report.equal is True:
        code = 0
    elif report.equal is False:
        code = 1
    else:
        code = 2
    human = (f"id left: {_pd_text(report.id_left)}\n"
             f"id right: {_pd_text(report.id_right)}\n"
             f"equal: {report.equal}")
    return code, payload, human


def cmd_uc(args):
    name, rep = _load_module_arg(args.module)
    closure = ultimately_closed_at(rep, args.cutoff)
    redundant = strongly_redundant_from(rep, args.cutoff)
    payload = dict(_meta(args, "uc"), module=name,
                   ultimately_closed=closure.to_json() if closure else None,
                   strongly_redundant_from=redundant)
    human = (f"ultimately closed at: "
             + (f"{closure.at}" + (" (zero syzygy)" if closure.via_zero_syzygy else "")
                if closure else "not within cutoff")
             + f"\nstrongly redundant from: "
             + (str(redundant) if redundant is not None else "absent"))
    return (0 if closure is not None else 2), payload, human


def cmd_corpus(args):
    alg = _load_algebra_arg(args.algebra)
    seeds = None
    if args.seed_module:
        seeds = [_load_module_arg(v, algebra=alg) for v in args.seed_module]
    corpus = generate_corpus(alg, args.spec, seeds=seeds, depth=args.depth,
                             fixture=args.fixture)
    save_corpus(corpus, args.out)
    payload = dict(_meta(args, "corpus"), spec=args.spec, out=args.out,
                   members=corpus.names())
    return 0, payload, f"wrote {len(corpus)} modules to {args.out}"


def _fixture_statements(name: str, cutoff: int, maxlen: int) -> list[dict]:
    corpus = fixture_corpus(name)
    alg = corpus.algebra
    statements = []

    props = verify_bound_properties(corpus, cutoff)
    for s in props.statements:
        statements.append({"statement": s.statement, "status": s.status,
                           "detail": s.detail})

    reg = regular_module(alg)
    tilt = is_tilting(reg, cutoff, maxlen)
    statements.append({"statement": "regular-module-is-tilting",
                       "status": "pass" if tilt.verdict == "tilting" else "fail",
                       "detail": tilt.verdict})
    wak = is_wakamatsu(reg, cutoff, maxlen)
    statements.append({"statement": "regular-module-is-wakamatsu",
                       "status": "pass" if wak.verdict == "wakamatsu" else "fail",
                       "detail": wak.verdict})
    ew = ewtc_check(reg, cutoff, maxlen)
    statements.append({"statement": "ewtc-instance-regular",
                       "status": "pass" if ew.status == "confirmed" else "fail",
                       "detail": ew.detail})

    if name == "A2":
        t_good = direct_sum([projective_module(alg, 0), simple_module(alg, 0)])
        rep_good = is_tilting(t_good, cutoff, maxlen)
        ok = (rep_good.verdict == "tilting"
              and isinstance(rep_good.pd, PdFinite) and rep_good.pd.value == 1
              and rep_good.coresolution.length == 1)
        statements.append({"statement": "a2-canonical-tilting-module",
                           "status": "pass" if ok else "fail",
                           "detail": f"verdict {rep_good.verdict}, "
                                     f"pd {_pd_text(rep_good.pd)}, "
                                     f"coresolution length "
                                     f"{rep_good.coresolution.length}"})
        t_bad = simple_module(alg, 0)
        rep_bad = is_tilting(t_bad, cutoff, maxlen)
        ok = rep_bad.verdict == "not_tilting" and not rep_bad.coresolution.success
        statements.append({"statement": "a2-simple-rejected-at-coresolution",
                           "status": "pass" if ok else "fail",
                           "detail": rep_bad.reason or rep_bad.verdict})

    arc = arc_scan(corpus, cutoff)
    statements.append({"statement": "arc-scan-empty",
                       "status": "pass" if not arc.violations else "fail",
                       "detail": f"violations: {list(arc.violations) or 'none'}"})
    gsc = gsc_report(alg, cutoff)
    statements.append({"statement": "gorenstein-symmetry-instance",
                       "status": "pass" if gsc.equal else "fail",
                       "detail": f"left {_pd_text(gsc.id_left)}, "
                                 f"right {_pd_text(gsc.id_right)}"})
    return statements


_OPEN_QUESTIONS = (
    "all bounds are restricted to the supplied finite corpus; nothing here "
    "decides bounds over the whole module category",
    "whether the big-module global bound agrees with the finitely-generated "
    "one over noetherian rings is open and out of reach at this scale",
    "whether the finitistic bound over finitely generated modules agrees "
    "with its big-module variant is open and out of reach at this scale",
)


def cmd_verify(args):
    names = list(FIXTURE_NAMES) if args.fixtures == "all" \
        else [n.strip().upper() for n in args.fixtures.split(",") if n.strip()]
    for n in names:
        if n not in FIXTURE_NAMES:
            raise FileFormatError(f"unknown fixture {n!r}")
    fixtures = {}
    totals = {"pass": 0, "fail": 0, "skipped": 0}
    for n in names:
        statements = _fixture_statements(n, args.cutoff, args.maxlen)
        for s in statements:
            totals[s["status"]] += 1
        fixtures[n] = {"statements": statements}
    payload = dict(_meta(args, "verify"), fixtures=fixtures, summary=totals,
                   open_questions=list(_OPEN_QUESTIONS))
    lines = []
    for n in names:
        lines.append(f"[{n}]")
        for s in fixtures[n]["statements"]:
            lines.append(f"  {s['status'].upper():7s} {s['statement']}"
                         + (f" ({s['detail']})" if s["detail"] else ""))
    lines.append(f"summary: {totals['pass']} pass, {totals['fail']} fail, "
                 f"{totals['skipped']} skipped")
    return (1 if totals["fail"] else 0), payload, "\n".join(lines)


# ----- parser -------------------------------------------------------------------


def _at_least(minimum: int):
    """argparse type of --cutoff, --maxlen and --depth: an integer >= minimum,
    else a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


def _add_common(sp, *, min_cutoff=1, maxlen=False, module=False, against=False,
                corpus=False, algebra=False):
    """Shared arguments; min_cutoff None means the command takes no --cutoff."""
    sp.add_argument("--seed", type=int, default=0, help="accepted and echoed; has no effect")
    sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    if min_cutoff is not None:
        sp.add_argument("--cutoff", "--max", type=_at_least(min_cutoff), default=20,
                        dest="cutoff",
                        help=f"maximal homological degree inspected, >= {min_cutoff} "
                             "(default 20)")
    if maxlen:
        sp.add_argument("--maxlen", type=_at_least(0), default=8,
                        help="maximal coresolution length, >= 0 (default 8)")
    if module:
        sp.add_argument("--module", required=True,
                        help="module file or builtin:FIXTURE:NAME")
    if against:
        sp.add_argument("--against", required=True,
                        help="module file, builtin:FIXTURE:NAME, or 'regular'")
    if corpus:
        sp.add_argument("--corpus", required=True, help="corpus file or builtin:NAME")
    if algebra:
        sp.add_argument("--algebra", required=True, help="algebra file or builtin:NAME")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (input error); argparse's own 2 means undetermined here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extbound",
        description="Homological invariants of bounded quiver algebras with "
                    "machine-checkable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="algebra operations")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)
    sp = alg_sub.add_parser("info", help="basis, dimensions and structure")
    _add_common(sp, min_cutoff=None, algebra=True)
    sp.set_defaults(handler=cmd_algebra_info)

    mod = sub.add_parser("module", help="module operations")
    mod_sub = mod.add_subparsers(dest="subcommand", required=True)
    sp = mod_sub.add_parser("check", help="validate a module file")
    _add_common(sp, min_cutoff=None, module=True)
    sp.set_defaults(handler=cmd_module_check)

    sp = sub.add_parser("resolve", help="minimal projective resolution")
    _add_common(sp, min_cutoff=0, module=True)
    sp.set_defaults(handler=cmd_resolve)

    sp = sub.add_parser("ext", help="Ext dimension table")
    _add_common(sp, min_cutoff=0, module=True, against=True)
    sp.set_defaults(handler=cmd_ext)

    sp = sub.add_parser("pd", help="projective dimension")
    _add_common(sp, module=True)
    sp.set_defaults(handler=lambda a: cmd_pd(a, "pd"))

    sp = sub.add_parser("id", help="injective dimension")
    _add_common(sp, module=True)
    sp.set_defaults(handler=lambda a: cmd_pd(a, "id"))

    sp = sub.add_parser("onset", help="certified vanishing onset of an Ext pair")
    _add_common(sp, module=True, against=True)
    sp.set_defaults(handler=cmd_onset)

    sp = sub.add_parser("ab", help="restricted Auslander bound over a corpus")
    _add_common(sp, module=True, corpus=True)
    sp.add_argument("--side", choices=("left", "right"), default="left")
    sp.set_defaults(handler=cmd_ab)

    sp = sub.add_parser("bounds", help="corpus-wide bounds and finitistic statistics")
    _add_common(sp, corpus=True)
    sp.set_defaults(handler=cmd_bounds)

    sp = sub.add_parser("tilting", help="certified tilting test")
    _add_common(sp, module=True, maxlen=True)
    sp.add_argument("--export-chain", default=None, metavar="FILE",
                    help="write the coresolution chain terms as a corpus file")
    sp.set_defaults(handler=cmd_tilting)

    sp = sub.add_parser("wakamatsu", help="Wakamatsu-tilting test")
    _add_common(sp, module=True, maxlen=True)
    sp.set_defaults(handler=cmd_wakamatsu)

    sp = sub.add_parser("ewtc", help="tilting-from-(T2)(T3) conjecture instance")
    _add_common(sp, module=True, maxlen=True)
    sp.set_defaults(handler=cmd_ewtc)

    sp = sub.add_parser("arc", help="Auslander-Reiten conjecture scan")
    _add_common(sp, corpus=True)
    sp.set_defaults(handler=cmd_arc)

    sp = sub.add_parser("gsc", help="Gorenstein symmetry instance")
    _add_common(sp, algebra=True)
    sp.set_defaults(handler=cmd_gsc)

    sp = sub.add_parser("uc", help="ultimately-closed and strongly-redundant points")
    _add_common(sp, module=True)
    sp.set_defaults(handler=cmd_uc)

    sp = sub.add_parser("verify", help="replay the property suite on fixtures")
    _add_common(sp, maxlen=True)
    sp.add_argument("--fixtures", default="all",
                    help="'all' or comma-separated fixture names")
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("corpus", help="generate a standard corpus file")
    _add_common(sp, min_cutoff=None, algebra=True)
    sp.add_argument("--spec", required=True,
                    choices=("simples", "projectives", "injectives",
                             "syzygy-closure", "fixture-indecomposables"))
    sp.add_argument("--seed-module", action="append", default=[],
                    help="seed module file (repeatable, for syzygy-closure)")
    sp.add_argument("--depth", type=_at_least(0), default=3,
                    help="syzygy depth, >= 0 (for syzygy-closure; default 3)")
    sp.add_argument("--fixture", default=None,
                    help="fixture name (for fixture-indecomposables)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=cmd_corpus)

    return parser


# corpus specs that need an argument argparse cannot require on its own
_CORPUS_SPEC_NEEDS = {"syzygy-closure": ("seed_module", "--seed-module"),
                      "fixture-indecomposables": ("fixture", "--fixture")}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "corpus":
        needed = _CORPUS_SPEC_NEEDS.get(args.spec)
        if needed and not getattr(args, needed[0]):
            parser.error(f"corpus --spec {args.spec} needs {needed[1]}")
    try:
        code, payload, human = args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(dumps_canonical(payload), end="")
    else:
        print(human)
        if args.format == "table":
            echo = [f"{k}={getattr(args, k)}" for k in ("cutoff", "maxlen", "seed")
                    if hasattr(args, k)]
            if echo:
                print(f"[{' '.join(echo)}]")
    return code


if __name__ == "__main__":
    sys.exit(main())
