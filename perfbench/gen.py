"""Seeded input generation for the dqw benchmark, standard library only.

`generate(workload, seed)` returns a JSON-ready dict; the same seed gives
byte-identical `encode(...)` output.  The seed chooses and orders inputs, but
every stratum (degree pair, item kind, factor sizes) gets a fixed count, so
every seed asks for the same amount and kind of work.  dqw never sees the
seed: the worker process receives only the encoded inputs.

Encodings: a polynomial is a list of [exponents, "p/q"] terms; a graph is
the text form "1:(X,Y);2:(X,1)" that `dqw.parse_graph` reads.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("equiv-monomial", "assoc-dense", "census")

# equiv-monomial: strictly_upper(4) has 6 generators; all monomial pairs of
# total degree <= 5 number 6188, sampled at this share of every degree stratum
# (at least one pair each), so that a repetition is short and a run holds many.
EQUIV_DIM = 6
EQUIV_DEGREE = 5
EQUIV_SHARE = Fraction(1, 8)

# assoc-dense: triple counts per product and the term degrees of each factor
# (one term per listed degree, so every factor mixes constant to top degree).
# Moyal items are about a fifth of all items, so p90 falls mid-group.
MOYAL_DIM = 4
MOYAL_TRIPLES = 20
MOYAL_DEGREES = (0, 1, 2, 3)
LIE_DIM = 6
LIE_TRIPLES = 27
LIE_DEGREES = (0, 1, 2, 2)

# census: sampled n = 4 graphs, and sampled weight-multiplicativity pairs
# drawn evenly from every (n1, n2) size pair with n1 + n2 <= 6.
CENSUS_N4_SAMPLE = 40
CENSUS_PAIRS_PER_SIZE = 12
CENSUS_MAX_N = 3


def _monomials(dim: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of exactly this total degree, lexicographic."""
    out = []
    for cuts in itertools.combinations(range(degree + dim - 1), dim - 1):
        exps, prev = [], -1
        for cut in cuts:
            exps.append(cut - prev - 1)
            prev = cut
        exps.append(degree + dim - 2 - prev)
        out.append(tuple(exps))
    return out


def _equiv_inputs(rng: random.Random) -> dict:
    by_degree = {k: _monomials(EQUIV_DIM, k) for k in range(EQUIV_DEGREE + 1)}
    pairs = []
    for a in range(EQUIV_DEGREE + 1):
        for b in range(EQUIV_DEGREE + 1 - a):
            stratum = len(by_degree[a]) * len(by_degree[b])
            take = max(1, round(stratum * EQUIV_SHARE))
            for index in rng.sample(range(stratum), take):
                f = by_degree[a][index // len(by_degree[b])]
                g = by_degree[b][index % len(by_degree[b])]
                pairs.append([list(f), list(g)])
    rng.shuffle(pairs)
    return {"algebra": "strictly_upper(4)", "order": 5, "dim": EQUIV_DIM, "pairs": pairs}


def _dense_polynomial(rng: random.Random, dim: int, degrees) -> list:
    terms: dict[tuple[int, ...], Fraction] = {}
    for degree in degrees:
        while True:
            exps = [0] * dim
            for _ in range(degree):
                exps[rng.randrange(dim)] += 1
            if tuple(exps) not in terms:
                break
        num = rng.choice([n for n in range(-5, 6) if n])
        terms[tuple(exps)] = Fraction(num, rng.randint(1, 4))
    return [[list(e), str(c)] for e, c in terms.items()]


def _triples(rng: random.Random, count: int, dim: int, degrees) -> list:
    return [
        [_dense_polynomial(rng, dim, degrees) for _ in range(3)] for _ in range(count)
    ]


def _assoc_inputs(rng: random.Random) -> dict:
    return {
        "moyal": {
            "order": 6,
            "triples": _triples(rng, MOYAL_TRIPLES, MOYAL_DIM, MOYAL_DEGREES),
        },
        "lie": {
            "algebra": "strictly_upper(4)",
            "order": 5,
            "triples": _triples(rng, LIE_TRIPLES, LIE_DIM, LIE_DEGREES),
        },
    }


def _target_text(t: int) -> str:
    return {-2: "X", -1: "Y"}.get(t, str(t))


def _graph_text(edges) -> str:
    return ";".join(
        f"{k}:({_target_text(a)},{_target_text(b)})" for k, (a, b) in enumerate(edges, 1)
    )


def _random_graph(rng: random.Random, n: int) -> str:
    """Uniform over the (n(n+1))^n admissible graphs with n aerial vertices."""
    edges = []
    for k in range(1, n + 1):
        targets = [-2, -1] + [v for v in range(1, n + 1) if v != k]
        edges.append(tuple(rng.sample(targets, 2)))
    return _graph_text(edges)


def _rooted_tree(rng: random.Random, n: int) -> str:
    """A random w-computable graph: one base vertex with feet (X, Y), every
    other vertex (X, parent), parents forming a tree rooted at the base."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges: list = [None] * n
    edges[order[0] - 1] = (-2, -1)
    for pos in range(1, n):
        edges[order[pos] - 1] = (-2, order[rng.randrange(pos)])
    return _graph_text(edges)


def _census_inputs(rng: random.Random) -> dict:
    graph_count = sum((n * (n + 1)) ** n for n in range(CENSUS_MAX_N + 1))
    visit = list(range(graph_count))
    rng.shuffle(visit)
    pairs = []
    for n1 in range(1, 6):
        for n2 in range(1, 7 - n1):
            for _ in range(CENSUS_PAIRS_PER_SIZE):
                pairs.append([_rooted_tree(rng, n1), _rooted_tree(rng, n2)])
    rng.shuffle(pairs)
    return {
        "max_n": CENSUS_MAX_N,
        "visit_order": visit,
        "n4_sample": [_random_graph(rng, 4) for _ in range(CENSUS_N4_SAMPLE)],
        "weight_pairs": pairs,
        "type_table_order": 7,
        "hausdorff_degree": 11,
    }


_GENERATORS = {
    "equiv-monomial": _equiv_inputs,
    "assoc-dense": _assoc_inputs,
    "census": _census_inputs,
}


def generate(workload: str, seed: int) -> dict:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def encode(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()

