"""Workload definitions for the extbound benchmark.

A workload turns the benchmark seed into the inputs of one operation (a
"spec", plain JSON), builds those inputs inside the operation's process,
runs the operation, and checks its output.  The runner (run.py) only makes
specs and checks outputs; it never imports extbound.  The operation process
(op.py) builds and runs.

Why these three workloads: each puts most of its time on a different layer,
so a later change to one layer has a workload that uses its mechanism and
one that bypasses it.

* verify-fixtures: the whole CLI path (`extbound verify --fixtures all`),
  dominated by fixture loading, which certifies every corpus member
  indecomposable through modules.decompose.  No deep resolutions.
* ext-deep: one deep minimal resolution, `ext_table(S, S, 14)` over a
  quantum complete intersection; dominated by dense exactla matmul reached
  from projective_cover and the constructor re-checks.  No decompose.
* bounds-grid: the bound property suite on two cyclic Nakayama algebras;
  many shallow resolutions and Ext memo reads, so per-call overhead, memo
  hashing and the periodicity search dominate, not large kernels.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("verify-fixtures", "ext-deep", "bounds-grid")

# Primes below 2**15 keep every product of two entries a one-digit Python
# int, so the choice of prime changes the arithmetic, not its cost.
PRIMES = (101, 103, 107, 211, 307, 401, 503, 601, 701, 809, 907, 1009,
          2003, 4001, 8009, 16001, 32003)

VERIFY_CUTOFF = 12
EXT_DEGREE = 14

# (vertices, relation length, cutoff) of each cyclic Nakayama algebra, and
# whether the global corpus bound gAb must come out exact there.  NAK(8, 5)
# has syzygy period 16 > 12, so no periodicity certificate fits in the
# cutoff and gAb is only a lower bound; NAK(7, 3) certifies at cutoff 16.
NAKAYAMA = ((8, 5, 12), (7, 3, 16))
GAB_EXACT = {(8, 5, 12): False, (7, 3, 16): True}


def make_spec(workload: str, seed: int, index: int) -> dict:
    """Inputs of the index-th operation of a run with the given seed.

    Every operation of a run gets the same inputs, except that bounds-grid
    rotates the vertex labels by one more step per operation, so that a run
    also checks that the results do not depend on the labelling.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-fixtures":
        cli_seed = rng.randrange(1 << 16)
        return {"workload": workload,
                "argv": ["verify", "--fixtures", "all", "--cutoff", str(VERIFY_CUTOFF),
                         "--format", "json", "--seed", str(cli_seed)]}
    if workload == "ext-deep":
        p = rng.choice(PRIMES)
        return {"workload": workload, "p": p, "q": rng.randrange(1, p),
                "degree": EXT_DEGREE}
    if workload == "bounds-grid":
        p = rng.choice(PRIMES)
        start = rng.randrange(1 << 16)
        return {"workload": workload, "p": p,
                "algebras": [{"vertices": n, "length": length, "cutoff": cutoff,
                              "rotation": (start + index) % n}
                             for n, length, cutoff in NAKAYAMA]}
    raise ValueError(f"unknown workload {workload!r}")


# ----- inside the operation process ------------------------------------------

def quantum_complete_intersection(p: int, q: int):
    """k<x,y>/(x^2, y^2, xy - q yx) over GF(p)."""
    import extbound as eb
    field = eb.FieldSpec.prime(p)
    quiver = eb.Quiver.build(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = (eb.make_relation(field, [(1, quiver.path(["x", "x"]))]),
            eb.make_relation(field, [(1, quiver.path(["y", "y"]))]),
            # paths list arrows in application order: ["y", "x"] is x*y
            eb.make_relation(field, [(1, quiver.path(["y", "x"])),
                                     (-q, quiver.path(["x", "y"]))]))
    return eb.build_algebra(eb.AlgebraPresentation(field, quiver, rels, 3))


def nakayama_corpus(p: int, vertices: int, length: int, rotation: int):
    """Simples and projectives of the cyclic Nakayama algebra with the given
    number of vertices and all paths of the given length as relations.

    Vertex i carries the label (i + rotation) mod n + 1 and the arrows run
    from label L to label L + 1, so every rotation presents the same
    labelled quiver with its vertices listed in another order.
    """
    import extbound as eb
    field = eb.FieldSpec.prime(p)
    labels = [str((i + rotation) % vertices + 1) for i in range(vertices)]
    quiver = eb.Quiver.build(labels, [(f"a{labels[i]}", labels[i], labels[(i + 1) % vertices])
                                      for i in range(vertices)])
    rels = tuple(
        eb.make_relation(field, [(1, quiver.path([f"a{labels[(i + k) % vertices]}"
                                                  for k in range(length)]))])
        for i in range(vertices))
    alg = eb.build_algebra(eb.AlgebraPresentation(field, quiver, rels, length))
    members = [(f"S{labels[v]}", eb.simple_module(alg, v)) for v in range(vertices)]
    members += [(f"P{labels[v]}", eb.projective_module(alg, v)) for v in range(vertices)]
    return eb.Corpus(alg, tuple(members), {"kind": "simples+projectives"})


def build_inputs(spec: dict):
    """Everything the operation needs, built before its clock starts."""
    import extbound as eb
    workload = spec["workload"]
    if workload == "verify-fixtures":
        import extbound.cli
        return list(spec["argv"])
    if workload == "ext-deep":
        alg = quantum_complete_intersection(spec["p"], spec["q"])
        return eb.simple_module(alg, 0)
    if workload == "bounds-grid":
        return [(a, nakayama_corpus(spec["p"], a["vertices"], a["length"], a["rotation"]))
                for a in spec["algebras"]]
    raise ValueError(f"unknown workload {workload!r}")


def run_op(spec: dict, inputs) -> dict:
    """Run one operation; returns its output as plain JSON data."""
    import extbound as eb
    workload = spec["workload"]
    if workload == "verify-fixtures":
        import contextlib
        import io
        from extbound import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(inputs)
        return {"exit_code": code, "stdout": buf.getvalue()}
    if workload == "ext-deep":
        return {"dims": list(eb.ext_table(inputs, inputs, spec["degree"]).dims)}
    if workload == "bounds-grid":
        out = []
        for a, corpus in inputs:
            props = eb.verify_bound_properties(corpus, a["cutoff"])
            report = eb.corpus_bounds(corpus, a["cutoff"])
            out.append({"vertices": a["vertices"], "length": a["length"],
                        "cutoff": a["cutoff"],
                        "failed": [s.statement for s in props.failed],
                        "summary": _bounds_summary(props, report)})
        return {"algebras": out}
    raise ValueError(f"unknown workload {workload!r}")


def _bounds_summary(props, report) -> dict:
    """The label-keyed content of a bound report, free of corpus order.

    Statement details are left out because some list members in corpus
    order, which a rotation changes.
    """
    def ab(res):
        return {"exact": res.exact, "value": res.value,
                "undetermined": sorted(res.undetermined_pairs),
                "excluded": sorted(res.excluded_pairs)}
    bounds = {k: getattr(report, k).to_json()
              for k in ("glab", "grab", "gab", "fpd", "fid", "flab", "frab")}
    members = {name: {"lab": ab(lab), "rab": ab(rab), "pd": pd.to_json(), "id": idim.to_json()}
               for name, lab, rab, pd, idim in report.member_stats}
    return {"statements": [[s.statement, s.status] for s in props.statements],
            "bounds": bounds, "members": members,
            "contains_regular": report.contains_regular}


# ----- in the runner -----------------------------------------------------------

def check_output(spec: dict, output: dict) -> str | None:
    """Why the output is wrong, or None when it passes.

    The expected values come from theory or from the CLI's own contract,
    not from the code being timed.
    """
    workload = spec["workload"]
    if workload == "verify-fixtures":
        if output["exit_code"] != 0:
            return f"exit code {output['exit_code']}"
        try:
            summary = json.loads(output["stdout"])["summary"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"stdout is not a verify report: {exc}"
        if summary.get("fail") != 0:
            return f"summary {summary}"
        return None
    if workload == "ext-deep":
        # Over a quantum complete intersection with q != 0 the simple module
        # has n + 1 as its n-th Betti number, so dim Ext^n(S, S) = n + 1.
        expected = list(range(1, spec["degree"] + 2))
        if output["dims"] != expected:
            return f"dims {output['dims']} != {expected}"
        return None
    if workload == "bounds-grid":
        for a in output["algebras"]:
            key = (a["vertices"], a["length"], a["cutoff"])
            if a["failed"]:
                return f"NAK{key[:2]} failed statements {a['failed']}"
            want = GAB_EXACT.get(key)
            got = a["summary"]["bounds"]["gab"]["exact"]
            if want is not None and got != want:
                return f"NAK{key[:2]} at cutoff {key[2]}: gAb exact={got}, expected {want}"
        return None
    raise ValueError(f"unknown workload {workload!r}")


def canonical(output: dict) -> str:
    """The form in which outputs of one run must agree byte for byte."""
    return json.dumps(output, sort_keys=True)
