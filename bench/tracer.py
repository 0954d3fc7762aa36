"""Outside-in tracer: wraps extbound's public functions without editing them.

install() replaces every public function of each layer module, and a few
methods on their classes, with a wrapper.  A function object is rebound
under every name that holds it in any extbound.* namespace (homology holds
its own `rank`, bounds its own `ext_table`, the package root re-exports
everything), so calls are seen whichever alias they go through.
uninstall() puts every original binding back.

A span wrapper times the call and charges its duration to the caller, so
self time (duration minus the time of wrapped callees) is kept per name.
Spans of the non-hot names are also recorded as (id, parent id, name,
start, end) in memory and written out by the caller.  The hottest names,
entered up to a million times per operation, are aggregated without a
record, and a few are counted only.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("exactla", "algebra", "modules", "homology", "bounds", "tilting",
          "fixtures", "fileio", "cli")

# Names aggregated into per-name totals without a span record each.
HOT = frozenset({
    "exactla.matmul", "exactla.rref", "exactla.rank", "exactla.kernel_basis",
    "exactla.solve", "exactla.hstack", "exactla.vstack",
    "exactla.column_space_basis", "exactla.express_in_columns", "exactla.inverse",
})

# Names counted only: path_action runs inside every Representation check.
COUNT_ONLY = frozenset({"algebra.path_action"})

# Functions whose span takes a name other than <layer>.<function>.
RENAMED = {
    "homology.ext_dims_via_complex": "homology.ext_complex",
    "homology.ext_dims_via_stable": "homology.ext_stable",
}


def _matmul_hook(tr, args, result):
    a, b = args
    tr.add("exactla.matmul.mults", a.rows * a.cols * b.cols)


def _rref_hook(tr, args, result):
    m = args[0]
    tr.add("exactla.rref.cells", m.rows * m.cols)


def _decompose_hook(tr, args, result):
    tr.add("modules.decompose.determined", int(result.determined))


def _end_basis_hook(tr, args, result):
    tr.maximum("modules.end_basis.max_dim", len(result))


def _iso_hook(tr, args, result):
    tr.add("modules.is_isomorphic.undetermined", int(result.status == "undetermined"))


def _periodicity_hook(tr, args, result):
    tr.add("homology.periodicity_certificate.found", int(result is not None))


def _onset_hook(tr, args, result):
    tr.add("homology.vanishing_onset.certified", int(result.certified))


HOOKS = {
    "exactla.matmul": _matmul_hook,
    "exactla.rref": _rref_hook,
    "modules.decompose": _decompose_hook,
    "modules.end_basis": _end_basis_hook,
    "modules.is_isomorphic": _iso_hook,
    "homology.periodicity_certificate": _periodicity_hook,
    "homology.vanishing_onset": _onset_hook,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, total_s]
        self.values: dict[str, float] = {}  # counters filled by hooks
        self.spans: list[tuple] = []       # (id, parent id, name, start, end)
        # frames: [id of the nearest recorded span, time spent in callees]
        self._stack: list[list] = [[0, 0.0]]
        self._next_id = 1
        self._undo: list[tuple] = []

    # ----- counters -----------------------------------------------------------

    def add(self, key: str, amount) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def maximum(self, key: str, value) -> None:
        self.values[key] = max(self.values.get(key, 0), value)

    # ----- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        record = name not in HOT
        hook = HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                sid = parent[0]
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st[0] += 1
                st[1] += dur - frame[1]
                st[2] += dur
                parent[1] += dur
                if record:
                    spans.append((sid, parent[0], name, start, end))
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_span(self, name: str, body):
        """Call body() inside a recorded span of the given name."""
        return self._span_wrapper(name, body)()

    # ----- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        layer_modules = [importlib.import_module(f"extbound.{layer}") for layer in LAYERS]
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "extbound" or n.startswith("extbound."))]
        for layer, mod in zip(LAYERS, layer_modules):
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapped = (self._count_wrapper(name, fn) if name in COUNT_ONLY
                           else self._span_wrapper(name, fn))
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebind(ns, alias, wrapped)

        exactla = sys.modules["extbound.exactla"]
        algebra = sys.modules["extbound.algebra"]
        modules = sys.modules["extbound.modules"]
        homology = sys.modules["extbound.homology"]
        self._rebind(exactla.Matrix, "__matmul__",
                          self._span_wrapper("exactla.matmul", exactla.Matrix.__matmul__))
        self._rebind(exactla.Matrix, "__post_init__",
                          self._count_wrapper("exactla.matrix.new",
                                              exactla.Matrix.__post_init__))
        self._rebind(algebra.Representation, "__post_init__",
                          self._span_wrapper("algebra.representation",
                                             algebra.Representation.__post_init__))
        self._rebind(modules.ModuleMap, "__post_init__",
                          self._span_wrapper("modules.modulemap",
                                             modules.ModuleMap.__post_init__))
        self._rebind(homology.MinimalResolution, "extend",
                          self._extend_wrapper(homology.MinimalResolution.extend))

    def _extend_wrapper(self, fn):
        st = self.stats.setdefault("homology.resolution.extend", [0, 0.0, 0.0])
        tracer = self

        def extend(res, upto):
            st[0] += 1
            before = len(res.covers)
            fn(res, upto)
            tracer.add("homology.resolution.steps", len(res.covers) - before)
            tracer.maximum("homology.resolution.max_syzygy_dim",
                           max(s.total_dim for s in res.syzygies))

        extend.__wrapped__ = fn
        return extend

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----- results ---------------------------------------------------------------

    def table(self) -> dict:
        """Every counter: <name>.calls, <name>.self_s, <name>.total_s and the
        values the hooks filled."""
        out = {}
        for name, (calls, self_s, total_s) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        out.update(self.values)
        return out
