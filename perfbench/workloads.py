"""Set-up and items of the three dqw benchmark workloads.

`setup(name, inputs)` builds what a user builds before asking a question:
the products, operators and algebras.  Its duration is `setup_s`.
`items(name, inputs, state)` lists the verify phase.  An item is a
(label, thunk) pair, and the thunk returns (ok, value).  `ok` is the item's
exact check, and `value` feeds the run digest.  Thunks read `state` only
when they are called, so items can be listed without any set-up.

Every dqw call goes through a module attribute, such as `dstar.cbh_product`,
so that the layer tracer sees it when it swaps that attribute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from fractions import Fraction

import dqw.cli as dcli
import dqw.freelie as dfreelie
import dqw.graphs as dgraphs
import dqw.kontsevich as dkon
import dqw.liealg as dliealg
import dqw.star as dstar
import dqw.weights as dweights
from dqw.poly import Polynomial

# C07's generic 4x4 antisymmetric matrix; its order-6 Moyal exponential puts
# `BiDiffOp.exp` and `symbol_mul` into the set-up of assoc-dense.
GENERIC_ALPHA = (
    (0, 1, Fraction(1, 2), -1),
    (-1, 0, 2, Fraction(1, 3)),
    (Fraction(-1, 2), -2, 0, 1),
    (1, Fraction(-1, 3), -1, 0),
)
# Perturbing one eps^2 Hausdorff coefficient must break associativity.
BROKEN_OVERRIDE = {("X", "X", "Y"): Fraction(1, 10)}
KILLING_LOOP = "1:(X,2);2:(Y,1)"
CLI_ARGV = ["graphs", "enumerate", "--n", "3", "--classify", "--format", "json"]
LOOP_GRAPHS_UP_TO_3 = 16 + 1216
LIE_ROUTES = ("uea", "cbh", "kontsevich")


def _poly(dim: int, encoded) -> Polynomial:
    return Polynomial(dim, {tuple(e): Fraction(c) for e, c in encoded})


def graph_count(n: int) -> int:
    return (n * (n + 1)) ** n


# -- equiv-monomial -------------------------------------------------------------


def _equiv_setup(inputs: dict) -> dict:
    c = dliealg.builtin_algebra(inputs["algebra"])
    order, dim = inputs["order"], inputs["dim"]
    return {
        "pairs": [
            (Polynomial.monomial(dim, f), Polynomial.monomial(dim, g))
            for f, g in inputs["pairs"]
        ],
        "uea": dstar.uea_product(c, order),
        "cbh": dstar.cbh_product(c, order),
        "kontsevich": dkon.assemble_linear_star(c, order).star,
    }


def _equiv_items(inputs: dict, state: dict) -> list:
    def pair(i):
        def run():
            f, g = state["pairs"][i]
            via_uea = state["uea"](f, g)
            ok = via_uea == state["cbh"](f, g) == state["kontsevich"](f, g)
            return ok, via_uea

        return run

    return [(f"pair/{i}", pair(i)) for i in range(len(inputs["pairs"]))]


# -- assoc-dense ------------------------------------------------------------------


def _assoc_setup(inputs: dict) -> dict:
    moyal, lie = inputs["moyal"], inputs["lie"]
    c = dliealg.builtin_algebra(lie["algebra"])
    solvable = dliealg.solvable2()
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    alpha = tuple(tuple(Fraction(v) for v in row) for row in GENERIC_ALPHA)
    return {
        "moyal_triples": [
            tuple(_poly(len(alpha), p) for p in t) for t in moyal["triples"]
        ],
        "lie_triples": [tuple(_poly(c.dim, p) for p in t) for t in lie["triples"]],
        "moyal": dstar.moyal_product(alpha, moyal["order"]),
        "uea": dstar.uea_product(c, lie["order"]),
        "cbh": dstar.cbh_product(c, lie["order"]),
        "kontsevich": dkon.assemble_linear_star(c, lie["order"]).star,
        "broken": dstar.cbh_product(solvable, 4, override=BROKEN_OVERRIDE),
        "broken_triple": (x1**2, x1 * x2, x2**2),
    }


def _recording(star, log: list):
    """The same product, also logging every polynomial-pair result, so that
    the digest covers the values an associativity check computes."""

    def bilinear(f, g):
        out = star.bilinear(f, g)
        log.append(out)
        return out

    return dataclasses.replace(star, bilinear=bilinear)


def _assoc_items(inputs: dict, state: dict) -> list:
    def check(route, triples, i):
        def run():
            log = []
            star = _recording(state[route], log)
            report = dstar.check_associativity(star, [state[triples][i]])
            return report.ok, [report.to_json(), log]

        return run

    def negative_control():
        report = dstar.check_associativity(state["broken"], [state["broken_triple"]])
        lowest = min((f["residual"][0]["eps"] for f in report.failures), default=0)
        return not report.ok and lowest >= 2, report.to_json()

    out = [
        (f"moyal/{i}", check("moyal", "moyal_triples", i))
        for i in range(len(inputs["moyal"]["triples"]))
    ]
    for i in range(len(inputs["lie"]["triples"])):
        out.extend((f"{r}/{i}", check(r, "lie_triples", i)) for r in LIE_ROUTES)
    out.append(("negative-control", negative_control))
    return out


# -- census -------------------------------------------------------------------------


def _census_setup(inputs: dict) -> dict:
    solvable = dliealg.solvable2()
    return {
        "pi": dkon.half_poisson(dliealg.strictly_upper(5)),
        "solvable_pi": dkon.half_poisson(solvable),
        "killing": dliealg.killing_matrix(solvable),
        "killing_loop": dgraphs.parse_graph(KILLING_LOOP),
        "n4": [dgraphs.parse_graph(t) for t in inputs["n4_sample"]],
        "weight_pairs": [
            (dgraphs.parse_graph(a), dgraphs.parse_graph(b))
            for a, b in inputs["weight_pairs"]
        ],
    }


def _census_graph(g, n: int, pi, compile_high_in_degree: bool) -> tuple[bool, tuple]:
    """Classify, canonicalise and count one graph; compile it where it must
    vanish; weigh it where the weight engine covers it."""
    cls = dgraphs.classify(g)
    canon, sign = dgraphs.canonical_form(g)
    symmetry = dgraphs.symmetry_count(g)
    must_vanish = cls.loop or (
        compile_high_in_degree and any(g.in_degree(v) >= 2 for v in range(1, n + 1))
    )
    vanished = None
    if must_vanish:
        vanished = dkon.graph_to_operator(g, pi, n).is_zero()
    weight = None
    if n and not cls.loop:
        try:
            weight = str(dweights.normalized_weight(g).integral)
        except dweights.WeightError:
            pass
    value = (
        dgraphs.format_graph(canon),
        sign,
        symmetry,
        [cls.loop, cls.prime, cls.sym_admissible, cls.lie_admissible, cls.w_computable],
        vanished,
        weight,
    )
    return vanished is not False, value


def _census_items(inputs: dict, state: dict) -> list:
    max_n = inputs["max_n"]
    graphs: dict[int, list] = {}
    tally = {n: {"seen": 0, "types": {}, "loops": 0, "vanished": 0} for n in range(max_n + 1)}
    offsets, start = [], 0
    for n in range(max_n + 1):
        offsets.append((start, n))
        start += graph_count(n)

    def enumerate_n(n):
        def run():
            graphs[n] = list(dgraphs.enumerate_graphs(n))
            return len(graphs[n]) == graph_count(n), len(graphs[n])

        return run

    def census_graph(index):
        base, n = max(o for o in offsets if o[0] <= index)

        def run():
            g = graphs[n][index - base]
            ok, value = _census_graph(g, n, state["pi"], False)
            t = tally[n]
            t["seen"] += 1
            t["types"][value[0]] = value[2]
            t["loops"] += bool(value[3][0])
            t["vanished"] += bool(value[4])
            return ok, value

        return run

    def sampled_graph(i):
        def run():
            return _census_graph(state["n4"][i], 4, state["pi"], True)

        return run

    def orbit_sum(n):
        def run():
            t = tally[n]
            orbit = sum(t["types"].values())
            ok = t["seen"] == orbit == graph_count(n)
            return ok, [t["seen"], len(t["types"]), orbit]

        return run

    def loop_total():
        loops = sum(t["loops"] for t in tally.values())
        vanished = sum(t["vanished"] for t in tally.values())
        return loops == vanished == LOOP_GRAPHS_UP_TO_3, [loops, vanished]

    def killing_control():
        op = dkon.graph_to_operator(state["killing_loop"], state["solvable_pi"], 2)
        expected = Polynomial.constant(2, state["killing"][0][0] * Fraction(1, 4))
        terms = dict(op.sorted_terms())
        ok = not op.is_zero() and terms.get((2, (1, 0), (1, 0))) == expected
        return ok, [[m, list(l), list(r), p.to_text()] for (m, l, r), p in op.sorted_terms()]

    def type_table():
        table = dkon.prime_type_table(inputs["type_table_order"])
        ok = bool(table)
        for graph, omega, _ in table:
            if graph.n > 5:
                continue
            try:
                w = dweights.normalized_weight(graph)
            except dweights.WeightError:
                continue
            integral_omega = dgraphs.symmetry_count(graph) * w.weight / 2**graph.n
            ok = ok and integral_omega == omega
        return ok, [[dgraphs.format_graph(g), str(o), list(w)] for g, o, w in table]

    def hausdorff():
        degree = inputs["hausdorff_degree"]
        series = dfreelie.hausdorff_series(degree)
        linear = dfreelie.hausdorff_linear_in_y(degree - 1)
        ok = all(
            series.coefficient(("X",) * k + ("Y",)) == linear[k - 1]
            for k in range(1, degree)
        )
        return ok, [["".join(w), str(c)] for w, c in series.sorted_terms()]

    def weight_pair(i):
        def run():
            a, b = state["weight_pairs"][i]
            g = dgraphs.graph_product(a, b)
            direct = dweights.iterated_integral_weight(g).integral
            factors = (
                dweights.weight_w_computable(a).integral
                * dweights.weight_w_computable(b).integral
            )
            via_product = dweights.product_weight(g).integral
            return direct == factors == via_product, str(direct)

        return run

    def doubled_wedge():
        wedge = dgraphs.chain_graph(1)
        square = dgraphs.graph_product(wedge, wedge)
        w = dweights.iterated_integral_weight(square)
        cube = dweights.iterated_integral_weight(dgraphs.graph_product(square, wedge))
        ok = w.integral == Fraction(1, 4) and w.weight == Fraction(1, 8)
        return ok and cube.integral == Fraction(1, 8), [str(w.integral), str(cube.integral)]

    def cli_census():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dcli.main(CLI_ARGV)
        text = out.getvalue()
        doc = json.loads(text)
        ok = code == 0 and doc["count"] == len(doc["rows"]) == graph_count(3)
        return ok, hashlib.sha256(text.encode()).hexdigest()

    out = [(f"enumerate/{n}", enumerate_n(n)) for n in range(max_n + 1)]
    out += [(f"graph/{i}", census_graph(i)) for i in inputs["visit_order"]]
    out += [(f"orbit-sum/{n}", orbit_sum(n)) for n in range(max_n + 1)]
    out.append(("loop-total", loop_total))
    out += [(f"n4/{i}", sampled_graph(i)) for i in range(len(inputs["n4_sample"]))]
    out.append(("killing-control", killing_control))
    out.append(("prime-type-table", type_table))
    out.append(("hausdorff", hausdorff))
    out += [(f"weight-pair/{i}", weight_pair(i)) for i in range(len(inputs["weight_pairs"]))]
    out.append(("doubled-wedge", doubled_wedge))
    out.append(("cli-graphs-enumerate", cli_census))
    return out


_WORKLOADS = {
    "equiv-monomial": (_equiv_setup, _equiv_items),
    "assoc-dense": (_assoc_setup, _assoc_items),
    "census": (_census_setup, _census_items),
}


def setup(name: str, inputs: dict) -> dict:
    return _WORKLOADS[name][0](inputs)


def items(name: str, inputs: dict, state: dict) -> list:
    return _WORKLOADS[name][1](inputs, state)
