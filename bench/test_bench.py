"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They run small operations in fresh processes and take a few seconds.  They are not part of the package's test suite.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "verify-fixtures": {"workload": "verify-fixtures",
                        "argv": ["verify", "--fixtures", "A2,CNAK2", "--cutoff", "6",
                                 "--format", "json", "--seed", "5"]},
    "ext-deep": {"workload": "ext-deep", "p": 103, "q": 7, "degree": 5},
    "bounds-grid": {"workload": "bounds-grid", "p": 101,
                    "algebras": [{"vertices": 4, "length": 3, "cutoff": 6, "rotation": 1}]},
}


def op(spec: dict, spans: Path | None = None) -> dict:
    argv = [sys.executable, str(BENCH / "op.py"), json.dumps(spec)]
    if spans is not None:
        argv.append(str(spans))
    done = subprocess.run(argv, cwd=ROOT, env=run.child_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def bindings() -> dict:
    """identity of every attribute of every extbound namespace and of the
    classes the tracer patches"""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "extbound" or name.startswith("extbound.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = id(value)
    import extbound as eb
    for cls in (eb.Matrix, eb.Representation, eb.ModuleMap, eb.MinimalResolution):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = id(value)
    return out


def test_wrappers_restore_every_binding():
    for layer in tracer.LAYERS:
        importlib.import_module(f"extbound.{layer}")
    import extbound as eb
    from extbound import bounds, homology, exactla
    before = bindings()
    original_rank = exactla.rank
    tr = tracer.Tracer()
    tr.install()
    try:
        # one wrapper per function object, bound under every alias
        assert homology.rank is exactla.rank is not original_rank
        assert eb.ext_table is homology.ext_table is bounds.ext_table
        assert eb.ext_table.__wrapped__.__module__ == "extbound.homology"
        assert "__wrapped__" in vars(eb.Matrix.__matmul__)
        changed = {k for k, v in bindings().items() if before.get(k) != v}
        assert ("extbound.bounds", "ext_table") in changed
        assert ("Matrix", "__post_init__") in changed
    finally:
        tr.uninstall()
    assert bindings() == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_op_matches_untraced_and_spans_nest(workload, tmp_path):
    spec = SMALL[workload]
    plain = op(spec)
    spans_file = tmp_path / "spans.json"
    traced = op(spec, spans_file)
    assert traced["output"] == plain["output"]
    assert workloads.check_output(spec, plain["output"]) is None

    spans = json.loads(spans_file.read_text())["spans"]
    assert spans
    duration = {sid: end - start for sid, _, _, start, end in spans}
    children: dict[int, float] = {}
    for sid, parent, _, start, end in spans:
        children[parent] = children.get(parent, 0.0) + (end - start)
    for sid, d in duration.items():
        assert children.get(sid, 0.0) <= d + 1e-9
    layers = traced["layers"]
    for key, calls in layers.items():
        if key.endswith(".calls") and calls:
            name = key[:-len(".calls")]
            assert -1e-9 <= layers[f"{name}.self_s"] <= layers[f"{name}.total_s"] + 1e-9


def test_every_per_layer_counter_is_produced():
    """A misspelt per-layer name would silently read 0; the counters the
    tracer makes over all three workloads must cover every plain name."""
    seen = set()
    for spec in SMALL.values():
        seen |= set(op(spec, Path(os.devnull))["layers"])
    needed = set()
    for m in run.PER_LAYER:
        name = m["name"]
        if name in run.RATIOS:
            needed.update(run.RATIOS[name])
        elif name not in ("trace.overhead_s", "homology.ext_table.hit_ratio"):
            needed.add(run.ALIASES.get(name, name))
    assert needed <= seen, needed - seen


def test_layer_map_covers_per_layer():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert set(layer_map["moves"]) == {m["name"] for m in run.PER_LAYER}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_seed_changes_inputs_but_not_invariants():
    for workload in workloads.WORKLOADS:
        specs = [workloads.make_spec(workload, seed, 0) for seed in range(12)]
        assert len({json.dumps(s, sort_keys=True) for s in specs}) > 6
        assert workloads.make_spec(workload, 3, 0) == workloads.make_spec(workload, 3, 0)
    ext = [workloads.make_spec("ext-deep", seed, 0) for seed in range(12)]
    assert all(0 < s["q"] < s["p"] for s in ext)
    assert all(s["degree"] == workloads.EXT_DEGREE for s in ext)
    grid = [workloads.make_spec("bounds-grid", seed, 0) for seed in range(12)]
    assert all([(a["vertices"], a["length"], a["cutoff"]) for a in s["algebras"]]
               == list(workloads.NAKAYAMA) for s in grid)
    assert len({s["algebras"][0]["rotation"] for s in grid}) > 3
    # consecutive ops of a run see consecutive rotations
    assert [workloads.make_spec("bounds-grid", 4, k)["algebras"][1]["rotation"]
            for k in range(3)] == [(grid[4]["algebras"][1]["rotation"] + k) % 7
                                   for k in range(3)]

    # two seeds give different inputs and both pass the same checks
    specs = [dict(workloads.make_spec("ext-deep", seed, 0), degree=6) for seed in (11, 12)]
    assert (specs[0]["p"], specs[0]["q"]) != (specs[1]["p"], specs[1]["q"])
    for spec in specs:
        assert workloads.check_output(spec, op(spec)["output"]) is None
    small = SMALL["bounds-grid"]
    outputs = [op({**small, "p": p, "algebras": [dict(small["algebras"][0], rotation=r)]})
               for p, r in ((101, 0), (907, 3))]
    assert workloads.canonical(outputs[0]["output"]) == workloads.canonical(outputs[1]["output"])


def test_checks_reject_wrong_outputs():
    spec = workloads.make_spec("ext-deep", 0, 0)
    good = {"dims": list(range(1, 16))}
    assert workloads.check_output(spec, good) is None
    assert workloads.check_output(spec, {"dims": list(range(1, 15)) + [16]}) is not None

    spec = workloads.make_spec("verify-fixtures", 0, 0)
    report = {"summary": {"pass": 3, "fail": 0, "skipped": 1}}
    assert workloads.check_output(spec, {"exit_code": 0, "stdout": json.dumps(report)}) is None
    assert workloads.check_output(spec, {"exit_code": 1, "stdout": json.dumps(report)}) is not None
    report["summary"]["fail"] = 1
    assert workloads.check_output(spec, {"exit_code": 0, "stdout": json.dumps(report)}) is not None

    spec = workloads.make_spec("bounds-grid", 0, 0)

    def grid(exact_85, exact_73, failed=()):
        return {"algebras": [
            {"vertices": 8, "length": 5, "cutoff": 12, "failed": list(failed),
             "summary": {"bounds": {"gab": {"exact": exact_85, "value": 0}}}},
            {"vertices": 7, "length": 3, "cutoff": 16, "failed": [],
             "summary": {"bounds": {"gab": {"exact": exact_73, "value": 0}}}}]}
    assert workloads.check_output(spec, grid(False, True)) is None
    assert workloads.check_output(spec, grid(True, True)) is not None
    assert workloads.check_output(spec, grid(False, False)) is not None
    assert workloads.check_output(spec, grid(False, True, ["x"])) is not None


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "ext-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
