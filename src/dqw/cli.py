"""Batch command-line front end.

Every subcommand computes a report, prints it in a deterministic format
(text, json, or dot where it makes sense), and exits 0 on success, 1 when a
verification check fails, and 2 on malformed input.  Rationals are always
printed as p/q strings, JSON documents carry `"schema": 1`, and identical
invocations produce byte-identical output.  `--jobs` (or the DQW_JOBS
environment variable) fans verification and enumeration batches out over a
process pool with an ordered merge, so the output does not depend on the
worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from math import factorial
from multiprocessing import Pool

from .bernoulli import bernoulli_number, bernoulli_polynomial
from .bidiff import BiDiffError
from .freelie import (
    LieError,
    format_bracket,
    free_lie,
    hausdorff_linear_in_y,
    hausdorff_series,
)
from .graphs import (
    GraphError,
    classify,
    enumerate_graphs,
    format_graph,
    parse_graph,
    symmetry_count,
    to_dot,
)
from .kontsevich import (
    KontsevichError,
    assemble_linear_star,
    assemble_xn_star_y,
    loop_vanishing_report,
)
from .liealg import (
    LieAlgebraError,
    StructureConstants,
    builtin_algebra,
    structure_from_json,
)
from .pbw import PBWError, uea_star
from .poly import Polynomial, parse_polynomial
from .star import (
    AssociativityReport,
    EquivalenceReport,
    StarError,
    StarProduct,
    associativity_failure,
    cbh_product,
    equivalence_failure,
    equivalence_pairs,
    moyal_product,
    random_polynomials,
    uea_product,
    xn_star_y,
)
from .weights import WeightError, product_weight, weight_w_computable

_ERRORS = (
    BiDiffError,
    GraphError,
    KontsevichError,
    LieAlgebraError,
    LieError,
    PBWError,
    StarError,
    WeightError,
    ValueError,
    OSError,
)


# -- algebra resolution -------------------------------------------------------------


def _symplectic_matrix(d: int) -> tuple:
    if d < 2 or d % 2:
        raise LieAlgebraError("symplectic(d) needs even d >= 2")
    h = d // 2
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(h):
        rows[i][i + h] = Fraction(1)
        rows[i + h][i] = Fraction(-1)
    return tuple(tuple(r) for r in rows)


def resolve_algebra(spec: str):
    """Turn a name or a JSON file path into ("lie", constants) or
    ("constant", matrix).

    A spec is a file only when it ends in ".json" or holds a path separator,
    so a stray file in the working directory never shadows a builtin name.
    """
    if spec.endswith(".json") or os.sep in spec:
        with open(spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        if "alpha" in doc:
            d = int(doc["dim"])
            rows = doc["alpha"]
            if len(rows) != d or any(len(r) != d for r in rows):
                raise LieAlgebraError(f"{spec}: alpha must be a {d}x{d} matrix")
            matrix = tuple(tuple(Fraction(str(v)) for v in r) for r in rows)
            return "constant", matrix
        return "lie", structure_from_json(doc)
    if spec.startswith("symplectic(") and spec.endswith(")"):
        return "constant", _symplectic_matrix(int(spec[len("symplectic(") : -1]))
    return "lie", builtin_algebra(spec)


def _lie_algebra(spec: str) -> StructureConstants:
    kind, value = resolve_algebra(spec)
    if kind != "lie":
        raise LieAlgebraError(
            f"{spec!r} is a constant structure; this command needs a Lie algebra"
        )
    return value


_STAR_CACHE: dict = {}


def build_star(method: str, algebra: str, order: int) -> StarProduct:
    key = (method, algebra, order)
    star = _STAR_CACHE.get(key)
    if star is not None:
        return star
    kind, value = resolve_algebra(algebra)
    if method == "moyal":
        if kind != "constant":
            raise StarError(
                "moyal needs a constant structure: symplectic(d) or an alpha file"
            )
        star = moyal_product(value, order)
    else:
        if kind != "lie":
            raise StarError(f"method {method!r} needs a Lie algebra, not a matrix")
        if method == "uea":
            star = uea_product(value, order)
        elif method == "cbh":
            star = cbh_product(value, order)
        elif method == "kontsevich":
            star = assemble_linear_star(value, order).star
        else:
            raise StarError(f"unknown method {method!r}")
    _STAR_CACHE[key] = star
    return star


# -- output plumbing ----------------------------------------------------------------


def _emit(args, doc: dict, lines: list[str]) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _series_rows(series) -> list[dict]:
    return [{"eps": m, "value": text} for m, text in series.to_pairs()]


def _jobs(args) -> int:
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = int(os.environ.get("DQW_JOBS", "1"))
    return max(1, jobs)


def fan_out_plan(items: int, jobs: int, cpus: int | None) -> tuple[int, int]:
    """(workers, chunksize) for `items` items split `jobs` ways.

    Each chunk holds ceil(items / jobs) items; the pool never has more
    workers than chunks or than the machine has CPUs.
    """
    chunksize = max(1, -(-items // jobs))
    chunks = -(-items // chunksize)
    return min(jobs, chunks, cpus or 1), chunksize


def _fan_out(fn, items: list, jobs: int):
    """fn over items, yielded in input order.

    Serial when the plan has one worker (one job, one item or one CPU),
    otherwise over a process pool.  `fn` and the items are pickled, so they
    must be module-level functions (or partials of them) and plain data such
    as text; `Polynomial` and `StarProduct` cannot cross.
    """
    workers, chunksize = fan_out_plan(len(items), jobs, os.cpu_count())
    if workers <= 1:
        yield from map(fn, items)
        return
    with Pool(workers) as pool:
        yield from pool.imap(fn, items, chunksize)


# -- subcommand handlers --------------------------------------------------------------


def cmd_bernoulli(args) -> int:
    variant = "modified" if args.modified else "standard"
    rows = []
    for n in range(args.max + 1):
        row = {"n": n, "value": str(bernoulli_number(n, variant))}
        if args.poly:
            row["poly"] = bernoulli_polynomial(n, variant).to_text()
        rows.append(row)
    doc = {"schema": 1, "command": "bernoulli", "variant": variant, "rows": rows}
    lines = [
        f"B_{r['n']} = {r['value']}" + (f"   {r['poly']}" if args.poly else "")
        for r in rows
    ]
    _emit(args, doc, lines)
    return 0


def cmd_hausdorff(args) -> int:
    if args.linear_in_y:
        coeffs = hausdorff_linear_in_y(args.degree)
        rows = [{"k": 0, "value": "1"}] + [
            {"k": k, "value": str(v)} for k, v in enumerate(coeffs, start=1)
        ]
        doc = {
            "schema": 1,
            "command": "hausdorff",
            "linear_in_y": True,
            "rows": rows,
        }
        lines = [f"ad_x^{r['k']}(y): {r['value']}" for r in rows]
        _emit(args, doc, lines)
        return 0
    series = hausdorff_series(args.degree)
    fl = free_lie(("X", "Y"))
    rows = []
    for word, coeff in series.sorted_terms():
        rows.append(
            {
                "degree": len(word),
                "word": "".join(word),
                "bracket": format_bracket(fl.bracket_tree(word)),
                "value": str(coeff),
            }
        )
    doc = {"schema": 1, "command": "hausdorff", "degree": args.degree, "rows": rows}
    lines = [
        f"deg {r['degree']}  {r['value']:>8}  {r['word']:<{args.degree}}  {r['bracket']}"
        for r in rows
    ]
    _emit(args, doc, lines)
    return 0


def cmd_algebra_validate(args) -> int:
    kind, value = resolve_algebra(args.target)
    if kind == "constant":
        d = len(value)
        anti = all(
            value[i][j] == -value[j][i] for i in range(d) for j in range(d)
        )
        doc = {
            "schema": 1,
            "command": "algebra-validate",
            "kind": "constant",
            "dim": d,
            "antisymmetric": anti,
            "ok": anti,
        }
        _emit(args, doc, [f"constant structure dim={d} antisymmetric={anti}"])
        return 0 if anti else 1
    checks = value.validate()
    ok = checks["antisymmetric"] and checks["jacobi"]
    doc = {
        "schema": 1,
        "command": "algebra-validate",
        "kind": "lie",
        "dim": value.dim,
        "brackets": len(value.nonzero_brackets()),
        "ok": ok,
        **checks,
    }
    lines = [f"dim={value.dim} brackets={len(value.nonzero_brackets())}"] + [
        f"{name}: {'pass' if flag else 'FAIL'}" for name, flag in checks.items()
    ]
    _emit(args, doc, lines)
    return 0 if ok else 1


def cmd_star(args) -> int:
    star = build_star(args.method, args.algebra, args.order)
    f = parse_polynomial(args.f, dim=star.dim)
    g = parse_polynomial(args.g, dim=star.dim)
    series = star.on_polynomials(f, g)
    rows = _series_rows(series)
    doc = {
        "schema": 1,
        "command": "star",
        "method": args.method,
        "algebra": args.algebra,
        "order": args.order,
        "f": f.to_text(),
        "g": g.to_text(),
        "series": rows,
    }
    _emit(args, doc, [f"eps^{r['eps']}: {r['value']}" for r in rows])
    return 0


def cmd_xny(args) -> int:
    c = _lie_algebra(args.algebra)
    order = args.order if args.order is not None else args.n
    if args.method == "cbh":
        series = xn_star_y(c, args.n, order)
    elif args.method == "assembled":
        series = assemble_xn_star_y(c, args.n, order)
    else:  # uea
        x = Polynomial.variable(c.dim, 1)
        y = Polynomial.variable(c.dim, 2)
        series = uea_star(c, x**args.n, y, order)
    rows = _series_rows(series)
    doc = {
        "schema": 1,
        "command": "xny",
        "method": args.method,
        "algebra": args.algebra,
        "n": args.n,
        "order": order,
        "series": rows,
    }
    _emit(args, doc, [f"eps^{r['eps']}: {r['value']}" for r in rows])
    return 0


def _classify_row(text: str) -> dict:
    g = parse_graph(text)
    cls = classify(g)
    return {
        "graph": text,
        "loop": cls.loop,
        "prime": cls.prime,
        "sym_admissible": cls.sym_admissible,
        "lie_admissible": cls.lie_admissible,
        "w_computable": cls.w_computable,
        "symmetry": symmetry_count(g),
    }


def cmd_graphs(args) -> int:
    graphs = list(enumerate_graphs(args.n))
    texts = [format_graph(g) for g in graphs]
    if args.format == "dot":
        print("\n".join(to_dot(g) for g in graphs))
        return 0
    if args.classify:
        rows = list(_fan_out(_classify_row, texts, _jobs(args)))
    else:
        rows = [{"graph": t} for t in texts]
    doc = {"schema": 1, "command": "graphs", "n": args.n, "count": len(rows), "rows": rows}
    if args.classify:
        lines = [
            "{graph}  loop={loop} prime={prime} sym={sym_admissible} "
            "lie={lie_admissible} w={w_computable} symmetry={symmetry}".format(**r)
            for r in rows
        ]
    else:
        lines = [r["graph"] for r in rows]
    _emit(args, doc, [f"count: {len(rows)}"] + lines)
    return 0


def cmd_weight(args) -> int:
    g = parse_graph(args.graph)
    cls = classify(g)
    route = None
    w = None
    try:
        w = weight_w_computable(g)
        route = "direct"
    except WeightError:
        try:
            w = product_weight(g)
            route = "normalized"
        except WeightError:
            pass
    doc = {
        "schema": 1,
        "command": "weight",
        "graph": format_graph(g),
        "n": g.n,
        "loop": cls.loop,
        "sym_admissible": cls.sym_admissible,
        "w_computable": cls.w_computable,
        "symmetry": symmetry_count(g),
        "route": route,
        "w_I": None if w is None else str(w.integral),
        "w_K": None if w is None else str(w.weight),
    }
    if w is None:
        lines = [f"{doc['graph']}  n={g.n}  no integral route (loop={cls.loop})"]
    else:
        lines = [f"{doc['graph']}  n={g.n}  w_I = {w.integral}  w_K = {w.weight}  [{route}]"]
    _emit(args, doc, lines)
    return 0


# -- verify -------------------------------------------------------------------------


def _associativity_failure(method: str, algebra: str, order: int, triple) -> dict | None:
    star = build_star(method, algebra, order)
    f, g, h = (parse_polynomial(t, dim=star.dim) for t in triple)
    return associativity_failure(star, f, g, h)


def cmd_verify_assoc(args) -> int:
    star = build_star(args.method, args.algebra, args.order)
    polys = [
        random_polynomials(star.dim, args.trials, args.degree, args.seed + i)
        for i in range(3)
    ]
    triples = [
        (f.to_text(), g.to_text(), h.to_text()) for f, g, h in zip(*polys)
    ]
    report = AssociativityReport(star.name, star.order)
    check = partial(_associativity_failure, args.method, args.algebra, args.order)
    for failure in _fan_out(check, triples, _jobs(args)):
        report.add(failure)
    doc = report.to_json()
    status = "ASSOCIATIVE" if report.ok else "FAILED"
    _emit(args, doc, [f"{status} method={args.method} trials={report.trials}"])
    return 0 if report.ok else 1


def _equivalence_failure(a: str, b: str, algebra: str, order: int, pair) -> dict | None:
    sa = build_star(a, algebra, order)
    sb = build_star(b, algebra, order)
    f, g = (parse_polynomial(t, dim=sa.dim) for t in pair)
    return equivalence_failure(sa, sb, f, g)


def cmd_verify_equiv(args) -> int:
    sa = build_star(args.a, args.algebra, args.order)
    build_star(args.b, args.algebra, args.order)
    pairs = [
        (f.to_text(), g.to_text())
        for f, g in equivalence_pairs(sa.dim, args.degree, args.mode, args.seed, args.trials)
    ]
    report = EquivalenceReport(args.a, args.b, args.order, args.mode)
    check = partial(_equivalence_failure, args.a, args.b, args.algebra, args.order)
    for failure in _fan_out(check, pairs, _jobs(args)):
        report.add(failure)
    doc = report.to_json()
    status = "EQUAL" if report.ok else "DIFFER"
    _emit(args, doc, [f"{status} {args.a} vs {args.b} pairs={report.pairs}"])
    return 0 if report.ok else 1


def cmd_verify_identities(args) -> int:
    rows = []
    ok = True
    for n in range(args.max + 1):
        plain = sum(
            Fraction(factorial(n), factorial(k) * factorial(n - k) * (n - k + 1))
            * bernoulli_number(k, "modified")
            for k in range(n + 1)
        )
        rows.append({"identity": "convolution", "n": n, "value": str(plain), "ok": plain == 1})
        if n >= 1:
            alt = sum(
                Fraction(factorial(n), factorial(k) * factorial(n - k) * (n - k + 1))
                * (-1) ** k
                * bernoulli_number(k, "modified")
                for k in range(n + 1)
            )
            rows.append(
                {"identity": "alternating", "n": n, "value": str(alt), "ok": alt == 0}
            )
    linear = hausdorff_linear_in_y(10)
    for k, coeff in enumerate(linear, start=1):
        expect = bernoulli_number(k, "modified") / factorial(k)
        rows.append(
            {
                "identity": "linear-in-y",
                "n": k,
                "value": str(coeff),
                "ok": coeff == expect,
            }
        )
    from .graphs import chain_graph

    for m in range(1, 9):
        ch = chain_graph(m)
        lhs = symmetry_count(ch) * weight_w_computable(ch).weight * Fraction(1, 2**m)
        rhs = bernoulli_number(m, "modified") / factorial(m)
        rows.append(
            {"identity": "bookkeeping", "n": m, "value": str(lhs), "ok": lhs == rhs}
        )
    ok = all(r["ok"] for r in rows)
    doc = {"schema": 1, "command": "verify-identities", "ok": ok, "rows": rows}
    bad = [r for r in rows if not r["ok"]]
    lines = [f"{'OK' if ok else 'FAILED'} checked={len(rows)}"] + [
        f"FAIL {r['identity']} n={r['n']} value={r['value']}" for r in bad
    ]
    _emit(args, doc, lines)
    return 0 if ok else 1


def cmd_verify_loops(args) -> int:
    c = _lie_algebra(args.algebra)
    report = loop_vanishing_report(c, args.max_n)
    doc = report.to_json()
    status = "VANISH" if report.all_vanish else "NONZERO"
    lines = [f"{status} checked={report.checked}"] + report.nonzero
    _emit(args, doc, lines)
    return 0 if report.all_vanish else 1


# -- parser -------------------------------------------------------------------------


def _add_format(p, choices=("text", "json")) -> None:
    p.add_argument("--format", choices=choices, default="text")


def _int_at_least(low: int):
    """argparse type: an int >= low, so that an empty batch is bad input
    (exit 2) rather than a verdict."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _add_jobs(p) -> None:
    p.add_argument("--jobs", type=int, default=None, help="process fan-out (env DQW_JOBS)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqw",
        description="exact star products, graph weights, and their cross-checks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bernoulli", help="Bernoulli numbers and polynomials")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--modified", action="store_true", help="flip the sign of B_1")
    p.add_argument("--poly", action="store_true")
    _add_format(p)
    p.set_defaults(handler=cmd_bernoulli)

    p = sub.add_parser("hausdorff", help="Hausdorff series in the Lyndon basis")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--linear-in-y", action="store_true", dest="linear_in_y")
    _add_format(p)
    p.set_defaults(handler=cmd_hausdorff)

    p = sub.add_parser("algebra", help="inspect structure constants")
    algebra_sub = p.add_subparsers(dest="action", required=True)
    pv = algebra_sub.add_parser("validate")
    pv.add_argument("target", help="builtin name or JSON file")
    _add_format(pv)
    pv.set_defaults(handler=cmd_algebra_validate)

    p = sub.add_parser("star", help="multiply two polynomials")
    p.add_argument("--method", choices=("moyal", "uea", "cbh", "kontsevich"), required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--order", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_star)

    p = sub.add_parser("xny", help="x^n * y along a chosen route")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("cbh", "uea", "assembled"), required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--order", type=int, default=None)
    _add_format(p)
    p.set_defaults(handler=cmd_xny)

    p = sub.add_parser("graphs", help="enumerate admissible graphs")
    graphs_sub = p.add_subparsers(dest="action", required=True)
    pe = graphs_sub.add_parser("enumerate")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--classify", action="store_true")
    _add_format(pe, choices=("text", "json", "dot"))
    _add_jobs(pe)
    pe.set_defaults(handler=cmd_graphs)

    p = sub.add_parser("weight", help="integral weight of one graph")
    p.add_argument("--graph", required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_weight)

    p = sub.add_parser("verify", help="run a verification batch")
    verify_sub = p.add_subparsers(dest="check", required=True)

    pa = verify_sub.add_parser("assoc")
    pa.add_argument("--method", choices=("moyal", "uea", "cbh", "kontsevich"), required=True)
    pa.add_argument("--algebra", required=True)
    pa.add_argument("--order", type=int, default=4)
    pa.add_argument("--degree", type=_int_at_least(0), default=3)
    pa.add_argument("--trials", type=_int_at_least(1), default=10)
    pa.add_argument("--seed", type=int, default=0)
    _add_jobs(pa)
    _add_format(pa)
    pa.set_defaults(handler=cmd_verify_assoc)

    pq = verify_sub.add_parser("equiv")
    pq.add_argument("--a", choices=("moyal", "uea", "cbh", "kontsevich"), required=True)
    pq.add_argument("--b", choices=("moyal", "uea", "cbh", "kontsevich"), required=True)
    pq.add_argument("--algebra", required=True)
    pq.add_argument("--degree", type=_int_at_least(0), required=True)
    pq.add_argument("--order", type=int, required=True)
    pq.add_argument("--mode", choices=("monomials", "random"), default="monomials")
    pq.add_argument("--trials", type=_int_at_least(1), default=25)
    pq.add_argument("--seed", type=int, default=0)
    _add_jobs(pq)
    _add_format(pq)
    pq.set_defaults(handler=cmd_verify_equiv)

    pi = verify_sub.add_parser("identities")
    pi.add_argument("--max", type=int, default=30)
    _add_format(pi)
    pi.set_defaults(handler=cmd_verify_identities)

    pl = verify_sub.add_parser("loops")
    pl.add_argument("--algebra", required=True)
    pl.add_argument("--max-n", type=_int_at_least(2), default=3, dest="max_n")
    _add_format(pl)
    pl.set_defaults(handler=cmd_verify_loops)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.handler(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
