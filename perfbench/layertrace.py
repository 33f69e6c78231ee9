"""Layer tracing from outside dqw: swap public functions and methods for
timing wrappers, and count work at the same boundaries.

Every wrapped call adds to running totals for its name: calls, inclusive
time (outermost call of a recursion only) and self time (its duration minus
the time of traced calls it made).  Hot leaves keep only those totals.
Coarse calls, listed in `COARSE`, also record a span (name, start, end,
parent), kept in memory and returned by `spans()` when the run ends.

Nothing in `src/` changes: `install()` rebinds attributes on dqw's modules
and classes, and `uninstall()` puts the originals back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import dqw.bidiff as dbidiff
import dqw.cli as dcli
import dqw.freelie as dfreelie
import dqw.graphs as dgraphs
import dqw.kontsevich as dkon
import dqw.liealg as dliealg
import dqw.pbw as dpbw
import dqw.poly as dpoly
import dqw.series as dseries
import dqw.star as dstar
import dqw.weights as dweights

LAYERS = (
    "poly", "series", "freelie", "liealg", "graphs", "bidiff",
    "pbw", "star", "weights", "kontsevich", "cli",
)

# (module, function name, metric name); patched wherever dqw binds them.
FUNCTIONS = (
    (dstar, "uea_product", "star.build.uea"),
    (dstar, "cbh_product", "star.build.cbh"),
    (dstar, "moyal_product", "star.build.moyal"),
    (dstar, "check_associativity", "star.check_associativity"),
    (dkon, "assemble_linear_star", "kontsevich.assemble_linear_star"),
    (dkon, "prime_type_table", "kontsevich.prime_type_table"),
    (dkon, "graph_to_operator", "kontsevich.graph_to_operator"),
    (dfreelie, "hausdorff_series", "freelie.hausdorff_series"),
    (dfreelie, "hausdorff_linear_in_y", "freelie.hausdorff_linear_in_y"),
    (dseries, "nc_exp", "series.nc_exp"),
    (dseries, "nc_log", "series.nc_log"),
    (dgraphs, "classify", "graphs.classify"),
    (dgraphs, "canonical_form", "graphs.canonical_form"),
    (dgraphs, "symmetry_count", "graphs.symmetry_count"),
    (dgraphs, "graph_product", "graphs.graph_product"),
    (dgraphs, "parse_graph", "graphs.parse_graph"),
    (dweights, "iterated_integral_weight", "weights.iterated_integral_weight"),
    (dweights, "weight_w_computable", "weights.weight_w_computable"),
    (dweights, "normalized_weight", "weights.normalized_weight"),
    (dweights, "product_weight", "weights.product_weight"),
    (dcli, "main", "cli.main"),
)

# (class, method names, metric name)
METHODS = (
    (dpoly.Polynomial, ("__mul__", "__rmul__"), "poly.mul"),
    (dpoly.Polynomial, ("__add__", "__radd__", "__sub__", "__rsub__"), "poly.add"),
    (dpoly.Polynomial, ("derive",), "poly.derive"),
    (dseries.EpsSeries, ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "shift"),
     "series.eps_arith"),
    (dseries.NCSeries, ("__mul__", "__rmul__"), "series.nc_mul"),
    (dliealg.StructureConstants, ("bracket_basis", "bracket_vectors"), "liealg.bracket"),
    (dbidiff.BiDiffOp, ("apply",), "bidiff.apply"),
    (dbidiff.BiDiffOp, ("symbol_mul",), "bidiff.symbol_mul"),
    (dbidiff.BiDiffOp, ("__add__",), "bidiff.add"),
    (dbidiff.BiDiffOp, ("scale",), "bidiff.scale"),
    (dbidiff.BiDiffOp, ("exp",), "bidiff.exp"),
    (dpbw.EnvelopingAlgebra, ("star",), "pbw.star"),
    (dpbw.EnvelopingAlgebra, ("mul",), "pbw.mul"),
    (dpbw.EnvelopingAlgebra, ("sigma_polynomial",), "pbw.sigma_polynomial"),
    (dpbw.EnvelopingAlgebra, ("sigma_series",), "pbw.sigma_series"),
    (dpbw.EnvelopingAlgebra, ("sigma_word",), "pbw.sigma_word"),
    (dpbw.EnvelopingAlgebra, ("inverse_sigma",), "pbw.inverse_sigma"),
    (dpbw.EnvelopingAlgebra, ("normal_form",), "pbw.normal_form"),
    (dfreelie.FreeLie, ("left_nested",), "freelie.left_nested"),
    (dfreelie.FreeLie, ("lyndon_coordinates",), "freelie.lyndon_coordinates"),
    (dfreelie.FreeLie, ("basis_bracket",), "freelie.basis_bracket"),
    (dfreelie.FreeLie, ("expansion",), "freelie.expansion"),
)

COARSE = {
    "star.build.uea", "star.build.cbh", "star.build.moyal",
    "kontsevich.assemble_linear_star", "kontsevich.prime_type_table",
    "freelie.hausdorff_series", "freelie.hausdorff_linear_in_y",
    "bidiff.exp", "cli.main",
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s, depth]
        self.counts: dict[str, float] = defaultdict(float)
        self.op_terms: dict[str, int] = {}
        self._stack: list[float] = []  # per open call: time of its traced children
        self._spans: list[tuple] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []
        self._histograms: dict[int, tuple] = {}

    # -- wrappers ---------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _timed(self, name: str, fn):
        st = self._stat(name)
        stack = self._stack
        perf = time.perf_counter
        spans = self._spans if name in COARSE else None
        opened = self._open

        def wrapper(*args, **kwargs):
            st[0] += 1
            st[3] += 1
            stack.append(0.0)
            if spans is not None:
                span = len(spans)
                spans.append([name, opened[-1] if opened else None, 0.0, 0.0])
                opened.append(span)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                st[2] += dt - stack.pop()
                st[3] -= 1
                if not st[3]:
                    st[1] += dt
                if stack:
                    stack[-1] += dt
                if spans is not None:
                    spans[opened.pop()][2:] = [t0, t1]

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        """Adds the work counters that need the call's arguments or result."""
        counts = self.counts
        if name == "bidiff.apply":
            def inner(op, f, g):
                offered, live = self._live_terms(op, f.total_degree(), g.total_degree())
                counts["bidiff.apply.terms_offered"] += offered
                counts["bidiff.apply.terms_live"] += live
                return fn(op, f, g)
        elif name == "pbw.normal_form":
            def inner(algebra, word):
                counts["pbw.normal_form.hits"] += word in algebra._nf
                return fn(algebra, word)
        elif name == "kontsevich.graph_to_operator":
            def inner(*args, **kwargs):
                op = fn(*args, **kwargs)
                counts["kontsevich.graph_to_operator.zero"] += op.is_zero()
                return op
        elif name == "weights.normalized_weight":
            def inner(g):
                try:
                    return fn(g)
                except dweights.WeightError:
                    counts["weights.normalized_weight.misses"] += 1
                    raise
        elif name.startswith("star.build.") or name == "kontsevich.assemble_linear_star":
            def inner(*args, **kwargs):
                out = fn(*args, **kwargs)
                star = getattr(out, "star", out)
                if star.operator is not None:
                    terms = len(star.operator.terms)
                    self.op_terms[star.name] = max(terms, self.op_terms.get(star.name, 0))
                return out
        else:
            return fn
        return inner

    def _live_terms(self, op, deg_f: int, deg_g: int) -> tuple[int, int]:
        """Terms offered, and terms with |L| <= deg f and |R| <= deg g, from a
        cumulative histogram over (|L|, |R|) built once per operator."""
        entry = self._histograms.get(id(op))
        if entry is None:
            top = max((max(sum(l), sum(r)) for _, l, r in op.terms), default=0)
            cum = [[0] * (top + 1) for _ in range(top + 1)]
            for _, l, r in op.terms:
                cum[sum(l)][sum(r)] += 1
            for a in range(top + 1):
                for b in range(top + 1):
                    cum[a][b] += (
                        (cum[a - 1][b] if a else 0)
                        + (cum[a][b - 1] if b else 0)
                        - (cum[a - 1][b - 1] if a and b else 0)
                    )
            entry = (op, cum, top)
            self._histograms[id(op)] = entry
        _, cum, top = entry
        if deg_f < 0 or deg_g < 0:
            return len(op.terms), 0
        return len(op.terms), cum[min(deg_f, top)][min(deg_g, top)]

    def _star_call(self, fn):
        """StarProduct.__call__, with totals kept per product route."""
        wrapped = {}

        def wrapper(star, f, g):
            call = wrapped.get(star.name)
            if call is None:
                call = wrapped[star.name] = self._timed(f"star.call.{star.name}", fn)
            return call(star, f, g)

        return wrapper

    def _counted_generator(self, name: str, fn):
        """Times each step of a generator; counts what it yields."""
        step = self._timed(name, next)
        counts = self.counts
        end = object()

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                value = step(it, end)
                if value is end:
                    return
                counts["graphs.enumerated"] += 1
                yield value

        return wrapper

    # -- install ---------------------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dqw" or mod_name.startswith("dqw.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for module, fn_name, name in FUNCTIONS:
            original = getattr(module, fn_name)
            self._rebind_everywhere(original, self._timed(name, self._counted(name, original)))
        self._rebind_everywhere(
            dgraphs.enumerate_graphs,
            self._counted_generator("graphs.enumerate_graphs", dgraphs.enumerate_graphs),
        )
        for cls, method_names, name in METHODS:
            for method in method_names:
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._timed(name, self._counted(name, original)))
        original = dstar.StarProduct.__call__
        self._undo.append((dstar.StarProduct, "__call__", original))
        dstar.StarProduct.__call__ = self._star_call(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st[2]
        return out

    def spans(self) -> list[dict]:
        return [
            {"id": i, "name": name, "parent": parent, "start": start, "end": end}
            for i, (name, parent, start, end) in enumerate(self._spans)
        ]

    def metrics(self) -> dict[str, float]:
        """Per-layer values by metric name; ratios sit beside their base."""

        def calls(name):
            return self.stats.get(name, [0])[0]

        def incl(name):
            return self.stats.get(name, [0, 0.0])[1]

        def self_s(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2]

        def frac(part, base):
            return part / base if base else 0.0

        c = self.counts
        m: dict[str, float] = {}
        offered, live = c["bidiff.apply.terms_offered"], c["bidiff.apply.terms_live"]
        m.update({
            "bidiff.apply.calls": calls("bidiff.apply"),
            "bidiff.apply.self_s": self_s("bidiff.apply"),
            "bidiff.apply.terms_offered": offered,
            "bidiff.apply.terms_live": live,
            "bidiff.apply.live_frac": frac(live, offered),
        })
        for op in ("mul", "derive", "add"):
            m[f"poly.{op}.calls"] = calls(f"poly.{op}")
            m[f"poly.{op}.self_s"] = self_s(f"poly.{op}")
        m["pbw.star.calls"] = calls("pbw.star")
        m["pbw.star.s"] = incl("pbw.star")
        for op in ("mul", "sigma_polynomial", "inverse_sigma"):
            m[f"pbw.{op}.self_s"] = self_s(f"pbw.{op}")
        m["pbw.normal_form.calls"] = calls("pbw.normal_form")
        m["pbw.normal_form.hit_frac"] = frac(
            c["pbw.normal_form.hits"], calls("pbw.normal_form")
        )
        for route in ("uea", "cbh", "kontsevich", "moyal"):
            m[f"star.call.{route}.calls"] = calls(f"star.call.{route}")
            m[f"star.call.{route}.s"] = incl(f"star.call.{route}")
        for route in ("uea", "cbh", "moyal"):
            m[f"star.build.{route}.s"] = incl(f"star.build.{route}")
        m["star.build.kontsevich.s"] = incl("kontsevich.assemble_linear_star")
        m["bidiff.exp.s"] = incl("bidiff.exp")
        for op in ("symbol_mul", "add"):
            m[f"bidiff.{op}.calls"] = calls(f"bidiff.{op}")
            m[f"bidiff.{op}.self_s"] = self_s(f"bidiff.{op}")
        for route in ("cbh", "kontsevich", "moyal"):
            m[f"bidiff.op_terms.{route}"] = self.op_terms.get(route, 0)
        g2o = "kontsevich.graph_to_operator"
        m[f"{g2o}.calls"] = calls(g2o)
        m[f"{g2o}.self_s"] = self_s(g2o)
        m[f"{g2o}.zero_frac"] = frac(c[f"{g2o}.zero"], calls(g2o))
        m["kontsevich.prime_type_table.s"] = incl("kontsevich.prime_type_table")
        m["kontsevich.assemble_linear_star.s"] = incl("kontsevich.assemble_linear_star")
        m["graphs.enumerated"] = c["graphs.enumerated"]
        for fn in ("classify", "canonical_form", "symmetry_count"):
            m[f"graphs.{fn}.calls"] = calls(f"graphs.{fn}")
            m[f"graphs.{fn}.self_s"] = self_s(f"graphs.{fn}")
        m["freelie.hausdorff_series.s"] = incl("freelie.hausdorff_series")
        m["freelie.hausdorff_linear_in_y.s"] = incl("freelie.hausdorff_linear_in_y")
        m["freelie.left_nested.calls"] = calls("freelie.left_nested")
        m["freelie.lyndon_coordinates.calls"] = calls("freelie.lyndon_coordinates")
        for op in ("nc_mul", "eps_arith"):
            m[f"series.{op}.calls"] = calls(f"series.{op}")
            m[f"series.{op}.self_s"] = self_s(f"series.{op}")
        for fn in ("iterated_integral_weight", "weight_w_computable"):
            m[f"weights.{fn}.calls"] = calls(f"weights.{fn}")
            m[f"weights.{fn}.s"] = incl(f"weights.{fn}")
        nw = "weights.normalized_weight"
        m[f"{nw}.calls"] = calls(nw)
        m[f"{nw}.miss_frac"] = frac(c[f"{nw}.misses"], calls(nw))
        m["liealg.bracket.calls"] = calls("liealg.bracket")
        m["cli.main.calls"] = calls("cli.main")
        m["cli.main.s"] = incl("cli.main")
        for layer, value in self.layer_self_s().items():
            m[f"{layer}.self_s"] = value
        return m
