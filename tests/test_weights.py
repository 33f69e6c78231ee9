"""Tests for the iterated-integral weight engine."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from dqw.bernoulli import bernoulli_number, bernoulli_polynomial
from dqw.freelie import lie_to_lgraph, parse_bracket
from dqw.graphs import (
    GROUND_X,
    GROUND_Y,
    UNIT_GRAPH,
    AdmissibleGraph,
    build_w_computable,
    chain_graph,
    classify,
    enumerate_graphs,
    flip_edges,
    graph_product,
    mirror,
    parse_graph,
)
from dqw.poly import Polynomial, parse_polynomial
from dqw.weights import (
    Weight,
    WeightError,
    _peel_weight,
    ground_integral,
    iterated_integral_weight,
    normalized_weight,
    pn_polynomial,
    product_weight,
    wedge_transform,
    weight_w_computable,
)

F = Fraction


def reference_normalized_weight(g: AdmissibleGraph) -> Weight:
    """The search normalized_weight replaced: the first w-computable image
    over mirror x every subset of edge flips, smallest subsets first."""
    if g.n == 0:
        return Weight.of(0, F(1))
    for use_mirror in (False, True):
        base, msign = mirror(g) if use_mirror else (g, 1)
        for r in range(g.n + 1):
            for subset in itertools.combinations(range(1, g.n + 1), r):
                candidate, fsign = flip_edges(base, subset)
                if classify(candidate).w_computable:
                    return Weight.of(g.n, _peel_weight(candidate) * msign * fsign)
    raise WeightError("no mirror/flip image of the graph is w-computable")


def outcome(weigh, g):
    """The weight, or the WeightError's message, so that both compare at ==."""
    try:
        return weigh(g)
    except WeightError as err:
        return str(err)


def random_graph(rng: random.Random, n: int) -> AdmissibleGraph:
    edges = []
    for k in range(1, n + 1):
        targets = [GROUND_X, GROUND_Y] + [v for v in range(1, n + 1) if v != k]
        edges.append(tuple(rng.sample(targets, 2)))
    return AdmissibleGraph(tuple(edges))


def random_integrable_image(rng: random.Random, n: int) -> AdmissibleGraph:
    """A random mirror/flip image of a random w-computable graph."""
    while True:
        base = rng.randrange(1, n + 1)
        g = AdmissibleGraph(tuple(
            (GROUND_X, GROUND_Y) if k == base
            else (GROUND_X, rng.choice([v for v in range(1, n + 1) if v != k]))
            for k in range(1, n + 1)
        ))
        if classify(g).w_computable:
            break
    if rng.random() < 0.5:
        g, _ = mirror(g)
    flips = [k for k in range(1, n + 1) if rng.random() < 0.5]
    return flip_edges(g, flips)[0]


class TestTransform:
    def test_constant(self):
        assert wedge_transform(Polynomial.one(1)) == parse_polynomial("1/2 - x1", dim=1)

    def test_iterated(self):
        assert wedge_transform(wedge_transform(Polynomial.one(1))) == parse_polynomial(
            "1/2*x1^2 - 1/2*x1 + 1/12", dim=1
        )

    def test_antiderivative_pinned_at_zero(self):
        # T[g](u) = C - G(u) with G(0) = 0, so T[g](0) is the ground value
        g = parse_polynomial("3*x1^2 - x1", dim=1)
        t = wedge_transform(g)
        assert t.evaluate((F(0),)) == ground_integral(g)

    def test_ground_integral_values(self):
        assert ground_integral(Polynomial.one(1)) == F(1, 2)
        assert ground_integral(parse_polynomial("x1", dim=1)) == F(1, 6)
        assert ground_integral(Polynomial.zero(1)) == 0

    def test_linearity(self):
        g = parse_polynomial("x1^3 - 2*x1", dim=1)
        h = parse_polynomial("5*x1^2 + 1/3", dim=1)
        assert wedge_transform(g + h) == wedge_transform(g) + wedge_transform(
            h
        ) - wedge_transform(Polynomial.zero(1))
        assert ground_integral(g + h) == ground_integral(g) + ground_integral(h)

    def test_dimension_guard(self):
        with pytest.raises(WeightError):
            wedge_transform(Polynomial.one(2))


class TestPnLadder:
    def test_matches_reflected_bernoulli(self):
        for n in range(13):
            pn = pn_polynomial(n)
            bhat = bernoulli_polynomial(n, variant="modified")
            reflected = Polynomial(
                1, {(k,): c * F((-1) ** k) for (k,), c in bhat.terms.items()}
            )
            assert pn == reflected * F(1, factorial(n))

    def test_ground_values_are_bernoulli(self):
        for n in range(1, 13):
            assert pn_polynomial(n).evaluate((F(0),)) == bernoulli_number(
                n, variant="modified"
            ) / factorial(n)


class TestDirectWeights:
    def test_chains(self):
        assert weight_w_computable(chain_graph(1)) == Weight(1, F(1, 2), F(1, 2))
        assert weight_w_computable(chain_graph(2)) == Weight(2, F(1, 12), F(1, 24))
        for m in range(1, 10):
            w = weight_w_computable(chain_graph(m))
            assert w.integral == bernoulli_number(m, variant="modified") / factorial(m)

    def test_odd_chains_vanish(self):
        for m in (3, 5, 7, 9):
            assert weight_w_computable(chain_graph(m)).integral == 0

    def test_three_vertex_star(self):
        g = parse_graph("1:(X,Y);2:(X,1);3:(X,1)")
        assert weight_w_computable(g).integral == F(1, 24)

    def test_unit(self):
        assert weight_w_computable(UNIT_GRAPH) == Weight(0, F(1), F(1))

    def test_strictness(self):
        with pytest.raises(WeightError):
            weight_w_computable(parse_graph("1:(Y,X)"))
        with pytest.raises(WeightError):
            weight_w_computable(graph_product(chain_graph(1), chain_graph(1)))

    def test_builder_route(self):
        g = build_w_computable([1, 1, 2])
        assert weight_w_computable(g).n == 4


class TestNormalizedWeights:
    def test_mirror_sign(self):
        assert normalized_weight(parse_graph("1:(Y,X)")).integral == F(-1, 2)

    def test_flip_sign(self):
        # chain2 with vertex 2 feet reversed
        assert normalized_weight(parse_graph("1:(X,Y);2:(1,X)")).integral == F(-1, 12)

    def test_lie_graph_weights_match_hausdorff(self):
        # the two degree-3 bracket monomials both weigh 1/12, matching their
        # series coefficients
        for text in ("[X,[X,Y]]", "[[X,Y],Y]"):
            g = lie_to_lgraph(parse_bracket(text))
            assert normalized_weight(g).integral == F(1, 12)

    def test_uncovered_graph_raises(self):
        g = lie_to_lgraph(parse_bracket("[[X,[X,Y]],[X,Y]]"))
        with pytest.raises(WeightError):
            normalized_weight(g)

    def test_loop_never_normalizes(self):
        with pytest.raises(WeightError):
            normalized_weight(parse_graph("1:(X,2);2:(Y,1)"))

    def test_consistency_with_direct(self):
        for m in (1, 2, 3):
            assert normalized_weight(chain_graph(m)) == weight_w_computable(chain_graph(m))


def weighed_against_search(graphs) -> int:
    """Assert normalized_weight == the search on every graph; count weights."""
    weighed = 0
    for g in graphs:
        got = outcome(normalized_weight, g)
        assert got == outcome(reference_normalized_weight, g), g
        weighed += isinstance(got, Weight)
    return weighed


class TestForcedFlipOracle:
    """normalized_weight against the mirror x flip search it replaced."""

    def test_every_graph_through_three(self):
        graphs = (g for n in range(4) for g in enumerate_graphs(n))
        assert weighed_against_search(graphs) > 100

    @pytest.mark.parametrize("n, count", [(4, 300), (5, 100)])
    def test_seeded_samples(self, n, count):
        rng = random.Random(n)
        graphs = [random_graph(rng, n) for _ in range(count)]
        graphs += [random_integrable_image(rng, n) for _ in range(count)]
        assert weighed_against_search(graphs) >= count


class TestMultiplicativity:
    def test_pair_of_singletons(self):
        g = graph_product(chain_graph(1), chain_graph(1))
        assert iterated_integral_weight(g) == Weight(2, F(1, 4), F(1, 8))
        assert product_weight(g) == Weight(2, F(1, 4), F(1, 8))

    def test_dual_route_agreement(self):
        primes = [chain_graph(1), chain_graph(2), chain_graph(3),
                  parse_graph("1:(X,Y);2:(X,1);3:(X,1)")]
        for parts in itertools.product(primes, repeat=2):
            g = graph_product(*parts)
            if g.n > 6:
                continue
            assert iterated_integral_weight(g) == product_weight(g)
        triple = graph_product(graph_product(primes[0], primes[1]), primes[1])
        assert iterated_integral_weight(triple) == product_weight(triple)

    def test_integral_multiplies_weight_does_not(self):
        a, b = chain_graph(1), chain_graph(2)
        g = graph_product(a, b)
        wa, wb = weight_w_computable(a), weight_w_computable(b)
        combined = iterated_integral_weight(g)
        assert combined.integral == wa.integral * wb.integral
        assert combined.weight == combined.integral / factorial(3)
        assert combined.weight != wa.weight * wb.weight

    def test_product_weight_handles_flipped_factors(self):
        g = graph_product(parse_graph("1:(Y,X)"), chain_graph(2))
        assert product_weight(g).integral == F(-1, 2) * F(1, 12)
