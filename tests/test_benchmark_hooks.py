"""The benchmark's tracer (bench/tracer.py) counts resolution steps by
wrapping MinimalResolution.extend, counts found periodicity certificates
by wrapping homology.periodicity_certificate, and wraps a bounds function
by rebinding it in its layer, which the package then reads through.  The
Tier-1 suite does not run the benchmark's own tests, so these tests keep
those hooks reachable."""

import extbound as eb
from extbound import PdPeriodic, bounds, homology


def test_each_resolution_is_built_by_one_extend_call(monkeypatch, loop2):
    assert "extend" in vars(eb.MinimalResolution)
    original = eb.MinimalResolution.extend
    calls = []

    def counting(res, upto):
        # the tracer measures the walk as the growth of res.covers
        assert res.covers == [] and res.syzygies == [res.module]
        calls.append(upto)
        original(res, upto)

    monkeypatch.setattr(eb.MinimalResolution, "extend", counting)
    res = eb.minimal_resolution(eb.simple_module(loop2, 0), 4)
    assert calls == [4] and len(res.covers) == 5
    eb.MinimalResolution(eb.simple_module(loop2, 0), 2)
    assert calls == [4, 2]


def test_pd_reaches_periodicity_through_the_module_global(monkeypatch, loop2):
    original = homology.periodicity_certificate
    calls = []

    def counting(module, cutoff):
        calls.append(cutoff)
        return original(module, cutoff)

    monkeypatch.setattr(homology, "periodicity_certificate", counting)
    loop2.clear_caches()
    assert isinstance(eb.projective_dimension(eb.simple_module(loop2, 0), 6), PdPeriodic)
    assert calls == [6]


def test_deferred_names_read_through_to_their_layer(monkeypatch):
    before = {name: id(value) for name, value in vars(eb).items()}

    def replacement(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(bounds, "left_bound", replacement)
    assert eb.left_bound is replacement
    assert {name: id(value) for name, value in vars(eb).items()} == before
