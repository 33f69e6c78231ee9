"""Batch command-line front end.

Every subcommand computes a report, prints it in a deterministic format
(text, json, or dot where it makes sense), and exits 0 on success, 1 when a
verification check fails, 2 on malformed input, and 3 (with the traceback
on stderr) when the program itself fails.  Rationals are always printed as
p/q strings, JSON documents carry `"schema": 1`, and identical invocations
produce byte-identical output.  `--jobs` (default 1) fans verification and
enumeration batches out over a process pool with an ordered merge, so the
output does not depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from math import comb, factorial, lcm
from operator import add

from .bernoulli import BernoulliError, bernoulli_number, bernoulli_polynomial
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
    chain_graph,
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
    integral_omega,
    loop_types,
    loop_vanishing_report,
    prime_type_table,
)
from .liealg import (
    LieAlgebraError,
    StructureConstants,
    builtin_algebra,
    check_dim,
    index_from_json,
    rational_from_json,
    structure_from_json,
    symplectic_matrix,
)
from .pbw import PBWError, uea_star
from .poly import ParseError, Polynomial, PolyError, parse_polynomial
from .series import SeriesError
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


class InputError(ValueError):
    """Malformed command-line input that no library layer checks: an
    unreadable JSON document, a bad number in an algebra spec, a size
    above a command's limit."""


# Bad input exits 2.  Any other exception, a bare ValueError included, is a
# bug and exits 3.
_ERRORS = (
    BernoulliError,
    BiDiffError,
    GraphError,
    InputError,
    KontsevichError,
    LieAlgebraError,
    LieError,
    ParseError,
    PBWError,
    PolyError,
    SeriesError,
    StarError,
    WeightError,
    OSError,
)


# -- algebra resolution -------------------------------------------------------------


def resolve_algebra(spec: str):
    """Turn a name or a JSON file path into ("lie", constants) or
    ("constant", matrix).

    A spec is a file only when it ends in ".json" or holds a path separator,
    so a stray file in the working directory never shadows a builtin name.
    """
    if spec.endswith(".json") or os.sep in spec:
        with open(spec, encoding="utf-8") as fh:
            try:
                doc = json.load(fh, object_pairs_hook=_object_without_repeats)
            except ValueError as exc:  # not JSON, not UTF-8, or a key given twice
                raise InputError(f"{spec}: not a JSON document: {exc}") from exc
        if isinstance(doc, dict) and "alpha" in doc:
            return "constant", _alpha_matrix(spec, doc)
        return "lie", structure_from_json(doc)
    if spec.startswith("symplectic(") and spec.endswith(")"):
        text = spec[len("symplectic(") : -1]
        try:
            d = int(text)
        except ValueError:
            raise InputError(f"symplectic(d) needs an integer d, got {text!r}") from None
        return "constant", symplectic_matrix(d, "split")
    return "lie", builtin_algebra(spec)


def _object_without_repeats(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated key whose last value
    json.load would keep."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError("a key is given twice in one object")
    return doc


def _alpha_matrix(spec: str, doc: dict) -> tuple:
    """The matrix of an alpha document; it shares MAX_DIM with the algebras."""
    try:
        d = index_from_json(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{spec}: malformed alpha document: {exc}") from exc
    check_dim(d)
    try:
        matrix = tuple(tuple(rational_from_json(v) for v in r) for r in doc["alpha"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{spec}: malformed alpha document: {exc}") from exc
    if len(matrix) != d or any(len(r) != d for r in matrix):
        raise LieAlgebraError(f"{spec}: alpha must be a {d}x{d} matrix")
    return matrix


def _lie_algebra(spec: str) -> StructureConstants:
    kind, value = resolve_algebra(spec)
    if kind != "lie":
        raise LieAlgebraError(
            f"{spec!r} is a constant structure; this command needs a Lie algebra"
        )
    return value


_STAR_CACHE: dict = {}

# Largest --order accepted by `assemble` and wherever the graph assembly is
# built (the kontsevich method of `star`, `verify assoc` and `verify
# equiv`): at order 8 the build takes about 0.1 s on heisenberg and 1.2 s on
# strictly_upper(4) on a 2-vCPU host, and on strictly_upper(4) order 9 takes
# about twice as long again and order 10 ten times.  `assemble` reads the
# prime-type table and the loop check without building the product, about
# 0.2 s in a fresh process at order 8 on either algebra.  The limit stays
# below MAX_HAUSDORFF_DEGREE, since the order-k table reads the
# degree-(k + 1) Hausdorff series.
MAX_ASSEMBLY_ORDER = 8


def _check_assembly_order(command: str, order: int) -> None:
    if order > MAX_ASSEMBLY_ORDER:
        raise InputError(
            f"{command} --order {order} exceeds the limit {MAX_ASSEMBLY_ORDER}"
        )


def build_star(method: str, algebra: str, order: int) -> StarProduct:
    if method == "kontsevich":
        _check_assembly_order(method, order)
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


def fan_out_plan(items: int, jobs: int, cpus: int | None) -> tuple[int, int]:
    """(workers, chunksize) for `items` items split `jobs` ways.

    Each chunk holds ceil(items / jobs) items; the pool never has more
    workers than chunks or than the machine has CPUs.
    """
    chunksize = max(1, -(-items // jobs))
    chunks = -(-items // chunksize)
    return min(jobs, chunks, cpus or 1), chunksize


def _fan_out(fn, items, count: int, jobs: int):
    """fn over the `count` items, yielded in input order.

    Serial when the plan has one worker (one job, one item or one CPU),
    otherwise over a process pool.  `items` may be a stream.  `fn` and the
    items are pickled, so they must be module-level functions (or partials
    of them) and values such as polynomials and graphs.  A `StarProduct`
    does not cross: `fn` rebuilds it through `build_star`'s cache, which a
    forked worker inherits.
    """
    workers, chunksize = fan_out_plan(count, jobs, os.cpu_count())
    if workers <= 1:
        yield from map(fn, items)
        return
    from multiprocessing import Pool  # here, so that a serial command never imports it

    with Pool(workers) as pool:
        yield from pool.imap(fn, items, chunksize)


# -- subcommand handlers --------------------------------------------------------------


# Largest `bernoulli --max` and `verify identities --max`.  B_0..B_N is one
# pass of the recurrence, O(N^2) products of integers whose size grows with
# N, and each identity row sums another n integer terms.  On a 2-vCPU host,
# in fresh processes, at 300 `bernoulli` takes about 0.2 s, `bernoulli
# --poly` about 0.6 s and `verify identities` about 0.2 s; at 1000
# `bernoulli` (without --poly) takes about 1 s and `verify identities` about
# 2.2 s, against about 10 s each while the recurrence summed Fractions.
MAX_BERNOULLI_INDEX = 300


def _check_bernoulli_index(command: str, n: int) -> None:
    if n > MAX_BERNOULLI_INDEX:
        raise InputError(f"{command} --max {n} exceeds the limit {MAX_BERNOULLI_INDEX}")


def cmd_bernoulli(args) -> int:
    _check_bernoulli_index("bernoulli", args.max)
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


# Largest `hausdorff --degree` accepted, for the full series and for
# --linear-in-y: on a 2-vCPU host the full series takes about 1.5 s at
# degree 14 and --linear-in-y about 1.8 s at degree 38, and the cost of the
# full series grows about x2.5 per degree.
MAX_HAUSDORFF_DEGREE = 14
MAX_LINEAR_IN_Y_DEGREE = 38


def cmd_hausdorff(args) -> int:
    limit = MAX_LINEAR_IN_Y_DEGREE if args.linear_in_y else MAX_HAUSDORFF_DEGREE
    if args.degree > limit:
        flag = " --linear-in-y" if args.linear_in_y else ""
        raise InputError(f"hausdorff --degree {args.degree}{flag} exceeds the limit {limit}")
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
        "brackets": len(value.brackets),
        "ok": ok,
        **checks,
    }
    lines = [f"dim={value.dim} brackets={len(value.brackets)}"] + [
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


def _classify_row(g) -> dict:
    cls = classify(g)
    return {
        "graph": format_graph(g),
        "loop": cls.loop,
        "prime": cls.prime,
        "sym_admissible": cls.sym_admissible,
        "lie_admissible": cls.lie_admissible,
        "w_computable": cls.w_computable,
        "symmetry": symmetry_count(g),
    }


# Largest `graphs enumerate --n` and `verify loops --max-n` accepted: n = 4
# lists 160,000 graphs and classifies them in about 5.5 s on a 2-vCPU host
# (`verify loops --max-n 4` compiles each of the graph types once and takes
# about 0.4 s on strictly_upper(4)); n = 5 would be 24.3M graphs, and the
# types alone take about 25 s to find.
MAX_ENUMERATE_N = 4


def cmd_graphs(args) -> int:
    if args.n > MAX_ENUMERATE_N:
        raise InputError(f"graphs enumerate --n {args.n} exceeds the limit {MAX_ENUMERATE_N}")
    if args.format == "dot":
        for g in enumerate_graphs(args.n):
            print(to_dot(g))
        return 0
    if args.classify:
        count = (args.n * (args.n + 1)) ** args.n
        rows = list(_fan_out(_classify_row, enumerate_graphs(args.n), count, max(1, args.jobs)))
    else:
        rows = [{"graph": format_graph(g)} for g in enumerate_graphs(args.n)]
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


# Largest graph `weight` accepts.  `symmetry_count` lists every minimal
# labelling, and the star 1:(X,Y);k:(X,1) for k = 2..n has (n - 1)! of them:
# on a 2-vCPU host the command takes about 0.4 s at n = 9 and 4.3 s (279 MB)
# at n = 10, and at n = 11 it ran out of memory under a 2 GB cap.
MAX_WEIGHT_N = 10


def cmd_weight(args) -> int:
    g = parse_graph(args.graph)
    if g.n > MAX_WEIGHT_N:
        raise InputError(f"weight graph of {g.n} vertices exceeds the limit {MAX_WEIGHT_N}")
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


def cmd_assemble(args) -> int:
    _check_assembly_order("assemble", args.order)
    loops = loop_types(_lie_algebra(args.algebra), args.order)
    rows, uncovered, differ = [], [], []
    for graph, omega, words in prime_type_table(args.order):
        text = format_graph(graph)
        integral = integral_omega(graph)
        if integral is None:
            uncovered.append(text)
        elif integral != omega:
            differ.append(text)
        rows.append(
            {
                "graph": text,
                "n": graph.n,
                "omega": str(omega),
                "symmetry": symmetry_count(graph),
                "words": words,
                "integral": None if integral is None else str(integral),
            }
        )
    doc = {
        "schema": 1,
        "command": "assemble",
        "algebra": args.algebra,
        "order": args.order,
        "rows": rows,
        "uncovered": uncovered,
        "differ": differ,
        "loop_types_zero": len(loops),
        "ok": not differ,
    }
    lines = [f"{'n':>2}  {'omega':>10}  {'integral':>10}  {'sym':>5}  graph  [words]"] + [
        f"{r['n']:>2}  {r['omega']:>10}  {r['integral'] or 'none':>10}  "
        f"{r['symmetry']:>5}  {r['graph']}  [{','.join(r['words'])}]"
        for r in rows
    ]
    lines += [f"uncovered: {g}" for g in uncovered] + [f"differ: {g}" for g in differ]
    lines.append(f"loop types verified zero: {len(loops)}")
    status = "DIFFER" if differ else "AGREE"
    lines.append(f"{status} covered={len(rows) - len(uncovered)} types={len(rows)}")
    _emit(args, doc, lines)
    return 1 if differ else 0


# -- verify -------------------------------------------------------------------------


# Largest verification batch accepted: the triples of `verify assoc`
# (--trials) and the pairs of `verify equiv` (--trials in random mode,
# comb(degree + 2 dim, 2 dim) in monomial mode).  A batch is built whole
# before its first check, so a larger one is refused before any item is
# built.  Near the limit, with the cheapest product (moyal on symplectic(2),
# order 1) on a 2-vCPU host, 91,390 monomial pairs (degree 36) take about
# 10 s and 23 MB, 100,000 random pairs about 43 s and 138 MB, and 100,000
# triples about 155 s and 181 MB; uea against cbh on strictly_upper(4) at
# order 5 takes about 10 s for the 50,388 pairs of degree 7.
MAX_BATCH_ITEMS = 100_000


def _check_batch(command: str, items: int) -> None:
    if items > MAX_BATCH_ITEMS:
        raise InputError(f"{command} batch of {items} items exceeds the limit {MAX_BATCH_ITEMS}")


# Largest --degree of the random items of `verify assoc` and
# `verify equiv --mode random`.  `random_polynomials` draws every exponent
# one unit at a time, so the degree alone sets the time to build one item
# (one triple at degree 3,000,000 took 5 s), and it is refused before any
# item is built.  100 is the exponent bound of polynomial text
# (poly.MAX_EXPONENT), so a reported failure still parses.  At the limit,
# on a 2-vCPU host, 100,000 polynomials in two variables build in about
# 10 s and 131 MB (a MAX_BATCH_ITEMS triple batch builds three times as
# many), and one triple is checked in about 4 ms with moyal on
# symplectic(2) at order 1 and 30 ms at order 4.
MAX_RANDOM_DEGREE = 100


def _check_random_degree(command: str, degree: int) -> None:
    if degree > MAX_RANDOM_DEGREE:
        raise InputError(
            f"{command} --degree {degree} exceeds the limit {MAX_RANDOM_DEGREE}"
        )


def _associativity_failure(method: str, algebra: str, order: int, triple) -> dict | None:
    return associativity_failure(build_star(method, algebra, order), *triple)


def cmd_verify_assoc(args) -> int:
    _check_batch("verify assoc", args.trials)
    _check_random_degree("verify assoc", args.degree)
    star = build_star(args.method, args.algebra, args.order)
    polys = [
        random_polynomials(star.dim, args.trials, args.degree, args.seed + i)
        for i in range(3)
    ]
    report = AssociativityReport(star.name, star.order)
    check = partial(_associativity_failure, args.method, args.algebra, args.order)
    for failure in _fan_out(check, zip(*polys), args.trials, max(1, args.jobs)):
        report.add(failure)
    doc = report.to_json()
    status = "ASSOCIATIVE" if report.ok else "FAILED"
    _emit(args, doc, [f"{status} method={args.method} trials={report.trials}"])
    return 0 if report.ok else 1


def _equivalence_failure(a: str, b: str, algebra: str, order: int, pair) -> dict | None:
    sa = build_star(a, algebra, order)
    return equivalence_failure(sa, build_star(b, algebra, order), *pair)


def cmd_verify_equiv(args) -> int:
    if args.mode == "random":
        _check_random_degree("verify equiv --mode random", args.degree)
    sa = build_star(args.a, args.algebra, args.order)
    build_star(args.b, args.algebra, args.order)
    monomial_pairs = comb(args.degree + 2 * sa.dim, 2 * sa.dim)
    _check_batch("verify equiv", monomial_pairs if args.mode == "monomials" else args.trials)
    pairs = equivalence_pairs(sa.dim, args.degree, args.mode, args.seed, args.trials)
    report = EquivalenceReport(args.a, args.b, args.order, args.mode)
    check = partial(_equivalence_failure, args.a, args.b, args.algebra, args.order)
    for failure in _fan_out(check, pairs, len(pairs), max(1, args.jobs)):
        report.add(failure)
    doc = report.to_json()
    status = "EQUAL" if report.ok else "DIFFER"
    _emit(args, doc, [f"{status} {args.a} vs {args.b} pairs={report.pairs}"])
    return 0 if report.ok else 1


def cmd_verify_identities(args) -> int:
    _check_bernoulli_index("verify identities", args.max)
    # Each row sums C(n, k) (+-1)^k Bhat_k / (n - k + 1) over k <= n.  Since
    # C(n, k) / (n - k + 1) = C(n + 1, k) / (n + 1), that is one integer sum
    # over (n + 1) * den, with Bhat_k = nums[k] / den and C(n + 1, k) read
    # off one Pascal row, extended once per n.
    bhat = [bernoulli_number(k, "modified") for k in range(args.max + 1)]
    den = lcm(*[b.denominator for b in bhat])
    nums = [b.numerator * (den // b.denominator) for b in bhat]
    pascal = [1]
    rows = []
    for n in range(args.max + 1):
        pascal = [1, *map(add, pascal, pascal[1:]), 1]  # C(n + 1, k)
        terms = [c * x for c, x in zip(pascal, nums[: n + 1])]
        for identity, sign, expect in (("convolution", 1, 1), ("alternating", -1, 0)):
            if sign == 1 or n >= 1:
                total = sum(terms[0::2]) + sign * sum(terms[1::2])
                value = Fraction(total, (n + 1) * den)
                rows.append(
                    {"identity": identity, "n": n, "value": str(value), "ok": value == expect}
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
    if args.max_n > MAX_ENUMERATE_N:
        raise InputError(
            f"verify loops --max-n {args.max_n} exceeds the limit {MAX_ENUMERATE_N}"
        )
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
    p.add_argument("--jobs", type=int, default=1, help="process fan-out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqw",
        description="exact star products, graph weights, and their cross-checks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bernoulli", help="Bernoulli numbers and polynomials")
    p.add_argument("--max", type=_int_at_least(0), required=True)
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

    p = sub.add_parser("assemble", help="generator rows against the integral weights")
    p.add_argument("--algebra", required=True)
    p.add_argument("--order", type=_int_at_least(0), required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_assemble)

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
    pi.add_argument("--max", type=_int_at_least(0), default=30)
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
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
