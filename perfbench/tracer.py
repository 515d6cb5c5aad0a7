"""Per-layer tracing for the benchmark's traced run, installed from outside
the program.

Every binding of a traced function in every ``qhoch`` module namespace is
replaced by a wrapper (``cli`` does ``from .gerstenhaber import bracket``,
so wrapping ``gerstenhaber.bracket`` alone would miss its calls), and traced
methods, dunder methods included, are replaced on their class.  Each call is
one span: name, parent span, start and end.  Spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from time import perf_counter_ns

# Traced spans, by the metric name they report under.  Each reports
# ``<name>.calls`` and ``<name>.self_s``.
SPANS = (
    "scalars.Scalar.mul", "scalars.Scalar.add", "scalars.CycloElement.mul",
    "scalars.CycloElement.inv", "scalars.Unit.mul", "scalars.Frac.mul",
    "scalars.Frac.add", "scalars.CycloField.build",
    "algebra.SkewElement.mul", "algebra.chi_prod",
    "resolution.hom_differential", "resolution.diagonal",
    "resolution.phi_generator",
    "gerstenhaber.cup", "gerstenhaber.circ", "gerstenhaber.cup_oracle",
    "gerstenhaber.circ_oracle", "gerstenhaber.bracket",
    "cohomology.invariant_basis", "cohomology.average",
    "cohomology.invariant_rank_oracle", "cohomology.rank_oracle",
    "cohomology.is_coboundary",
    "linalg.RowReducer.add", "linalg.in_span",
    "cli.load_config", "cli.render",
)

# Ratios: hits / attempts, measured at the call.
RATIOS = (
    "scalars.Scalar.mul.unit_share",         # both Scalar operands are units
    "resolution.cache.hit_share",            # call did not grow A.caches
    "gerstenhaber.bracket.repeat_share",     # operand pair seen before
    "gerstenhaber.circ.repeat_share",        # operand pair seen before
    "cohomology.average.repeat_share",       # input seen before
    "linalg.RowReducer.add.accept_share",    # row enlarged the span
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update((name, "ratio") for name in RATIOS)
    units["resolution.cache.entries"] = "count"
    units["cli.output_bytes"] = "bytes"
    units["trace.overhead_share"] = "ratio"
    return units


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = []
        self.self_ns = []
        self.hits = {name: [0, 0] for name in RATIOS}
        self._seen = {}
        self._stack = []  # [span index, ns covered by direct children]
        self.t0 = perf_counter_ns()

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, fn, name, observe=None):
        """A wrapper that records one span per call of ``fn``.  ``observe``,
        if given, sees the arguments before the call and may return a
        callback that sees the result."""
        nid = self._name_id(name)
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            after = observe(args) if observe is not None else None
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            start = perf_counter_ns()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                s_end[idx] = end
                duration = end - start
                calls[nid] += 1
                self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result)
            return result

        return traced

    def ratio(self, name, hit):
        pair = self.hits[name]
        pair[0] += bool(hit)
        pair[1] += 1

    def repeat(self, name, key):
        seen = self._seen.setdefault(name, set())
        self.ratio(name, key in seen)
        seen.add(key)

    def metrics(self, counts):
        """Per-layer metrics of this process (all but the overhead share,
        which needs an untraced run to compare with), and the base of each
        ratio."""
        out = {}
        for name in SPANS:
            nid = self._ids.get(name)
            out[f"{name}.calls"] = self.calls[nid] if nid is not None else 0
            out[f"{name}.self_s"] = (self.self_ns[nid] / 1e9
                                     if nid is not None else 0.0)
        for name, (hit, total) in self.hits.items():
            out[name] = hit / total if total else 0.0
        out.update(counts)
        return out, {name: total for name, (_hit, total) in self.hits.items()}

    def write_spans(self, path):
        """Write every span, times in ns from the tracer's creation."""
        t0 = self.t0
        data = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [t - t0 for t in self.span_start],
            "end_ns": [t - t0 for t in self.span_end],
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def cochain_key(c):
    """Value identity of a cochain, for the repeat ratios."""
    return c.degree, frozenset(c.terms.items())


def install(tracer):
    """Wrap every traced function and method of the imported ``qhoch``."""
    import qhoch.cli as cli
    from qhoch import algebra, cohomology, gerstenhaber, linalg, resolution
    from qhoch import scalars
    modules = [m for n, m in sys.modules.items()
               if n == "qhoch" or n.startswith("qhoch.")]

    def function(module, attr, name, observe=None):
        orig = getattr(module, attr)
        wrapped = tracer.wrap(orig, name, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def method(cls, attr, name, observe=None):
        orig = vars(cls)[attr]
        wrapped = tracer.wrap(orig, name, observe)
        for key, value in list(vars(cls).items()):
            if value is orig:  # aliases such as __rmul__ = __mul__
                setattr(cls, key, wrapped)

    Scalar = scalars.Scalar

    def unit_pair(args):
        left, right = args
        if isinstance(right, Scalar):
            tracer.ratio("scalars.Scalar.mul.unit_share",
                         left.as_unit() is not None
                         and right.as_unit() is not None)

    def cache_growth(args):
        caches = args[0].caches
        before = len(caches)
        return lambda result: tracer.ratio("resolution.cache.hit_share",
                                           len(caches) == before)

    def pair_repeat(name):
        def observe(args):
            tracer.repeat(name, (cochain_key(args[1]), cochain_key(args[2])))
        return observe

    def input_repeat(args):
        tracer.repeat("cohomology.average.repeat_share", cochain_key(args[1]))

    def accepted(args):
        return lambda result: tracer.ratio(
            "linalg.RowReducer.add.accept_share", result is True)

    method(scalars.Scalar, "__mul__", "scalars.Scalar.mul", unit_pair)
    method(scalars.Scalar, "__add__", "scalars.Scalar.add")
    method(scalars.CycloElement, "__mul__", "scalars.CycloElement.mul")
    method(scalars.CycloElement, "inv", "scalars.CycloElement.inv")
    method(scalars.Unit, "__mul__", "scalars.Unit.mul")
    method(scalars.Frac, "__mul__", "scalars.Frac.mul")
    method(scalars.Frac, "__add__", "scalars.Frac.add")
    method(scalars.CycloField, "__init__", "scalars.CycloField.build")
    method(algebra.SkewElement, "__mul__", "algebra.SkewElement.mul")
    method(algebra.Algebra, "chi_prod", "algebra.chi_prod")
    function(resolution, "hom_differential", "resolution.hom_differential")
    function(resolution, "diagonal", "resolution.diagonal", cache_growth)
    function(resolution, "phi_generator", "resolution.phi_generator",
             cache_growth)
    function(gerstenhaber, "cup", "gerstenhaber.cup")
    function(gerstenhaber, "circ", "gerstenhaber.circ",
             pair_repeat("gerstenhaber.circ.repeat_share"))
    function(gerstenhaber, "cup_oracle", "gerstenhaber.cup_oracle")
    function(gerstenhaber, "circ_oracle", "gerstenhaber.circ_oracle")
    function(gerstenhaber, "bracket", "gerstenhaber.bracket",
             pair_repeat("gerstenhaber.bracket.repeat_share"))
    function(cohomology, "invariant_basis", "cohomology.invariant_basis")
    function(cohomology, "average", "cohomology.average", input_repeat)
    function(cohomology, "invariant_rank_oracle",
             "cohomology.invariant_rank_oracle")
    function(cohomology, "rank_oracle", "cohomology.rank_oracle")
    function(cohomology, "is_coboundary", "cohomology.is_coboundary")
    method(linalg.RowReducer, "add", "linalg.RowReducer.add", accepted)
    function(linalg, "in_span", "linalg.in_span")
    function(cli, "load_config", "cli.load_config")
    function(cli, "cochain_json", "cli.render")
    function(cli, "render_text", "cli.render")
    # cli calls json.dumps through its own ``json`` binding; give it a copy
    # of the module whose dumps is traced, leaving the real module alone.
    traced_json = types.ModuleType("json")
    vars(traced_json).update(vars(cli.json))
    traced_json.dumps = tracer.wrap(cli.json.dumps, "cli.render")
    cli.json = traced_json
