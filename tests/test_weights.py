"""Tests for the iterated-integral weight engine."""

import itertools
import random
from fractions import Fraction
from math import factorial, gcd

import pytest

import dqw.weights
import test_acceptance
import test_bidiff
import test_graphs

from dqw.bernoulli import bernoulli_number, bernoulli_polynomial
from dqw.freelie import lie_to_lgraph, parse_bracket
from dqw.graphs import (
    GROUND_X,
    GROUND_Y,
    UNIT_GRAPH,
    AdmissibleGraph,
    GraphError,
    build_w_computable,
    chain_graph,
    classify,
    decompose_nonloop,
    enumerate_graphs,
    factorize,
    flip_edges,
    graph_product,
    graph_types,
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


# The Polynomial bodies the integer kernel replaced, kept as oracles.


def reference_antiderivative(g: Polynomial) -> Polynomial:
    if g.dim != 1:
        raise WeightError("weight integrands live in one variable")
    return Polynomial(
        1, {(k + 1,): coeff / (k + 1) for (k,), coeff in g.terms.items()}
    )


def reference_ground_integral(g: Polynomial) -> Fraction:
    total = Fraction(0)
    for (k,), coeff in g.terms.items():
        total += coeff / ((k + 1) * (k + 2))
    return total


def reference_wedge_transform(g: Polynomial) -> Polynomial:
    G = reference_antiderivative(g)
    return Polynomial.constant(1, reference_ground_integral(g)) - G


def reference_pn_polynomial(n: int) -> Polynomial:
    p = Polynomial.one(1)
    for _ in range(n):
        p = reference_wedge_transform(p)
    return p


def reference_peel_weight(g: AdmissibleGraph) -> Fraction:
    acc = {v: Polynomial.one(1) for v in range(1, g.n + 1)}
    bases = []
    total = Fraction(1)
    for v, pair in decompose_nonloop(g):
        if pair == (GROUND_X, GROUND_Y):
            bases.append(v)
            total *= reference_ground_integral(acc[v])
            continue
        if pair[0] != GROUND_X or pair[1] < 1:
            raise WeightError(
                f"vertex {v} has feet {pair}; only (X, Y) or (X, aerial) integrate"
            )
        acc[pair[1]] = acc[pair[1]] * reference_wedge_transform(acc[v])
    if not bases and g.n:
        raise WeightError("no base vertex with feet (X, Y)")
    return total


def peel_weight(g: AdmissibleGraph) -> Fraction:
    return Fraction(*_peel_weight(g, "loop"))


def reference_height_peel(g: AdmissibleGraph, loop_error: str = "loop") -> Fraction:
    """`_peel_weight` before it folded in Kahn's order: the integer kernel in
    `decompose_nonloop`'s height order, whose refusal was the loop verdict
    and whose reference counts kept a vertex from folding before its
    sources; one Fraction per base value."""
    try:
        peel = decompose_nonloop(g)
    except GraphError:
        raise WeightError(loop_error) from None
    acc = {}
    total = Fraction(1)
    for v, pair in peel:
        mine = acc.pop(v, dqw.weights._ONE)
        if pair == (GROUND_X, GROUND_Y):
            total *= Fraction(*dqw.weights._ground_parts(*mine))
            continue
        if pair[0] != GROUND_X or pair[1] < 1:
            raise WeightError(
                f"vertex {v} has feet {pair}; only (X, Y) or (X, aerial) integrate"
            )
        folded = dqw.weights._transform(*mine)
        target = pair[1]
        acc[target] = dqw.weights._times(acc[target], folded) if target in acc else folded
    return total


def reference_weight_w_computable(g: AdmissibleGraph) -> Weight:
    """`weight_w_computable` before it read the feet and the loop verdict
    apart: one full `classify` decides."""
    if g.n == 0:
        return Weight.of(0, F(1))
    if not classify(g).w_computable:
        raise WeightError("graph is not w-computable; see normalized_weight")
    return Weight.of(g.n, reference_height_peel(g))


def reference_iterated_integral_weight(g: AdmissibleGraph) -> Weight:
    """`iterated_integral_weight` before the peel gave the loop verdict."""
    if g.n == 0:
        return Weight.of(0, F(1))
    if classify(g).loop:
        raise WeightError("loops carry no iterated integral here")
    return Weight.of(g.n, reference_height_peel(g))


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
                    integral = reference_height_peel(candidate) * msign * fsign
                    return Weight.of(g.n, integral)
    raise WeightError("no mirror/flip image of the graph is w-computable")


def reference_product_weight(g: AdmissibleGraph) -> Weight:
    """`product_weight` as one Fraction product of the factors' searched
    normalized integrals."""
    total = Fraction(1)
    for part in factorize(g):
        total *= reference_normalized_weight(part).integral
    return Weight.of(g.n, total)


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

    def test_root_last_chain_weighs_as_the_chain(self):
        g = test_graphs.root_last_chain(60)
        want = weight_w_computable(chain_graph(60))
        assert want.integral
        assert weight_w_computable(g) == iterated_integral_weight(g) == want

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


class TestWithoutClassify:
    """`weight_w_computable` and `iterated_integral_weight` read the feet and
    the peel's loop verdict instead of `classify`; the classify-based bodies
    are the oracles, error texts included."""

    def test_every_graph_through_three_and_a_seeded_sample(self):
        rng = random.Random(24)
        graphs = [g for n in range(4) for g in enumerate_graphs(n)]
        graphs += [random_graph(rng, 4) for _ in range(300)]
        graphs += [random_integrable_image(rng, 4) for _ in range(100)]
        errors = set()
        for g in graphs:
            for weigh, reference in (
                (weight_w_computable, reference_weight_w_computable),
                (iterated_integral_weight, reference_iterated_integral_weight),
            ):
                got = outcome(weigh, g)
                assert got == outcome(reference, g), g
                if isinstance(got, str):
                    errors.add(got.split(" has feet ")[0][:6])
        # every error path is reached: not w-computable, loop, bad feet
        assert errors == {"graph ", "loops ", "vertex"}

    def test_loop_with_integrable_feet(self):
        g = parse_graph("1:(X,Y);2:(X,3);3:(X,2)")
        assert outcome(weight_w_computable, g) == "graph is not w-computable; see normalized_weight"
        assert outcome(iterated_integral_weight, g) == "loops carry no iterated integral here"
        image = flip_edges(mirror(g)[0], [2])[0]
        assert outcome(normalized_weight, image) == "no mirror/flip image of the graph is w-computable"


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


def concatenation_sequences(n: int):
    """Every valid argument of build_w_computable with n vertices."""
    return itertools.product(*(range(1, i) for i in range(2, n + 1)))


def kernel_cases() -> list[AdmissibleGraph]:
    graphs = [build_w_computable(s) for n in range(1, 8) for s in concatenation_sequences(n)]
    graphs += [g for n in range(1, 5) for g, _ in graph_types(n) if classify(g).w_computable]
    return graphs + [chain_graph(60), chain_graph(150)]


def peel_matches_reference(graphs) -> int:
    for g in graphs:
        assert outcome(peel_weight, g) == outcome(reference_peel_weight, g), g
    return len(graphs)


def seeded_polynomials(count: int, top: int) -> list[Polynomial]:
    rng = random.Random(top)
    return [
        Polynomial(1, {
            (k,): F(rng.randint(-30, 30), rng.randint(1, 40))
            for k in rng.sample(range(top + 1), rng.randint(0, top + 1))
        })
        for _ in range(count)
    ]


class TestIntegerKernel:
    """The integer accumulators against the Polynomial bodies they replaced."""

    def test_peel_matches_reference(self):
        assert peel_matches_reference(kernel_cases()) == 874 + 8 + 2

    def test_ladder_matches_reference(self):
        for n in range(21):
            assert pn_polynomial(n) == reference_pn_polynomial(n), n

    def test_transform_and_ground_match_reference(self):
        polys = [reference_pn_polynomial(n) for n in range(21)]
        polys += seeded_polynomials(40, 20) + [Polynomial.zero(1)]
        for g in polys:
            assert wedge_transform(g) == reference_wedge_transform(g), g
            assert ground_integral(g) == reference_ground_integral(g), g

    def test_ground_integral_guards_the_dimension(self):
        with pytest.raises(WeightError):
            ground_integral(Polynomial.one(2))

    def test_every_accumulator_is_reduced(self, monkeypatch):
        # numerators and denominator share no factor after every update
        seen = []

        def checked(kernel):
            def run(*args):
                nums, den = kernel(*args)
                assert den > 0 and gcd(*nums, den) == 1
                assert not nums or nums[-1]
                seen.append(len(nums))
                return nums, den
            return run

        monkeypatch.setattr(dqw.weights, "_transform", checked(dqw.weights._transform))
        monkeypatch.setattr(dqw.weights, "_times", checked(dqw.weights._times))
        graphs = [build_w_computable(s) for s in concatenation_sequences(6)]
        graphs += [chain_graph(60), parse_graph("1:(X,Y);2:(X,1);3:(X,1);4:(X,3);5:(X,3)")]
        peel_matches_reference(graphs)
        assert len(seen) > 500 and max(seen) == 60

    def test_wrong_ground_integral_is_caught(self, monkeypatch):
        # negative control: divide by (k + 1) where the kernel divides by (k + 2)
        def wrong(nums, scale):
            return sum(a * (scale // ((k + 1) * (k + 1))) for k, a in enumerate(nums))

        monkeypatch.setattr(dqw.weights, "_ground_sum", wrong)
        with pytest.raises(AssertionError):
            peel_matches_reference(kernel_cases())
        with pytest.raises(AssertionError):
            test_acceptance.test_c10_product_weights()


def random_integrable_feet(rng: random.Random, n: int) -> AdmissibleGraph:
    """Every pair (X, Y) or (X, aerial), a base with chance 1/n: loops,
    forests and graphs with several bases or none."""
    return AdmissibleGraph(tuple(
        (GROUND_X, GROUND_Y) if rng.random() < 1 / n
        else (GROUND_X, rng.choice([v for v in range(1, n + 1) if v != k]))
        for k in range(1, n + 1)
    ))


def seeded_kahn_cases() -> list[AdmissibleGraph]:
    """n = 4..6: uniform graphs, graphs with integrable feet, and those with
    one vertex's pair flipped, so loops and bad feet meet."""
    rng = random.Random(29)
    graphs = []
    for n in (4, 5, 6):
        feet = [random_integrable_feet(rng, n) for _ in range(200)]
        graphs += feet + [random_graph(rng, n) for _ in range(200)]
        graphs += [flip_edges(g, [rng.randrange(1, n + 1)])[0] for g in feet[:100]]
    return graphs


def census_weight_pairs() -> list[AdmissibleGraph]:
    """The factors and the product of every census weight pair, seeds 0 and 1."""
    gen = test_bidiff._load_perfbench("gen")
    graphs = []
    for seed in (0, 1):
        for a, b in gen.generate("census", seed)["weight_pairs"]:
            a, b = parse_graph(a), parse_graph(b)
            graphs += [a, b, graph_product(a, b)]
    return graphs


def long_chain_cases() -> list[AdmissibleGraph]:
    """The 3000-vertex root-last chain closed into one loop, and with its
    top vertex's pair flipped: both settle before any long arithmetic."""
    chain = test_graphs.root_last_chain(3000).edges
    return [
        AdmissibleGraph(chain[:-1] + ((GROUND_X, 1),)),
        AdmissibleGraph(((GROUND_Y, 2),) + chain[1:]),
    ]


def kahn_cases() -> list[AdmissibleGraph]:
    graphs = [g for n in range(4) for g in enumerate_graphs(n)] + kernel_cases()
    return graphs + seeded_kahn_cases() + census_weight_pairs()


def peel_matches_height_order(graphs) -> dict[str, int]:
    """Assert the Kahn peel == the height-order peel on every graph, value or
    error text; count the outcomes by kind."""
    kinds = {"value": 0, "loop": 0, "feet": 0}
    for g in graphs:
        got = outcome(peel_weight, g)
        assert got == outcome(reference_height_peel, g), g
        kinds["value" if isinstance(got, Fraction) else "loop" if got == "loop" else "feet"] += 1
    return kinds


ROUTES = (
    (weight_w_computable, reference_weight_w_computable),
    (iterated_integral_weight, reference_iterated_integral_weight),
    (normalized_weight, reference_normalized_weight),
    (product_weight, reference_product_weight),
)


class TestKahnPeel:
    """`_peel_weight` folds each vertex once its pending in-edges are folded;
    the height-order peel it replaced is its oracle at ==, error texts
    included, and every route equals its reference built on that oracle."""

    def test_peel_matches_height_order(self):
        kinds = peel_matches_height_order(kahn_cases() + long_chain_cases())
        assert kinds == {"value": 2224, "loop": 2320, "feet": 689}

    def test_routes_match_their_references(self):
        for g in kahn_cases():
            for weigh, reference in ROUTES:
                assert outcome(weigh, g) == outcome(reference, g), (weigh.__name__, g)
        for g in long_chain_cases():
            for weigh, reference in ROUTES[:2]:
                assert outcome(weigh, g) == outcome(reference, g), (weigh.__name__, g)

    def test_long_chain_folds_without_recursion(self):
        g = test_graphs.root_last_chain(3000)
        assert dqw.weights._fold_order(g.edges) == list(range(1, 3001))
        loop, flipped = long_chain_cases()
        assert outcome(iterated_integral_weight, loop) == "loops carry no iterated integral here"
        assert outcome(peel_weight, flipped) == (
            "vertex 1 has feet (-1, 2); only (X, Y) or (X, aerial) integrate"
        )

    def test_a_loop_is_named_before_bad_feet(self):
        g = parse_graph("1:(X,Y);2:(Y,3);3:(X,2)")
        assert outcome(peel_weight, g) == outcome(reference_height_peel, g) == "loop"
        assert outcome(iterated_integral_weight, g) == "loops carry no iterated integral here"

    def test_the_first_bad_vertex_is_the_highest(self):
        # vertex 3 sits above vertex 2, so the height order names it first
        g = parse_graph("1:(X,Y);2:(1,X);3:(Y,2)")
        text = "vertex 3 has feet (-1, 2); only (X, Y) or (X, aerial) integrate"
        assert outcome(peel_weight, g) == outcome(reference_height_peel, g) == text

    def test_folding_before_the_last_source_is_caught(self, monkeypatch):
        # negative control: a vertex folds right after its first source
        def first_source_order(edges):
            order = [v for v in range(1, len(edges) + 1) if all(t != v for _, t in edges)]
            for v in order:
                t = edges[v - 1][1]
                if t > 0 and t not in order:
                    order.append(t)
            return order

        monkeypatch.setattr(dqw.weights, "_fold_order", first_source_order)
        with pytest.raises(AssertionError):
            peel_matches_height_order(kernel_cases())

    def test_a_peel_that_never_flags_a_loop_is_caught(self, monkeypatch):
        # negative control: the vertices of a loop join the end of the order
        real = dqw.weights._fold_order

        def loop_blind_order(edges):
            order = real(edges)
            return order + [v for v in range(1, len(edges) + 1) if v not in order]

        monkeypatch.setattr(dqw.weights, "_fold_order", loop_blind_order)
        with pytest.raises(AssertionError):
            peel_matches_height_order(g for n in range(4) for g in enumerate_graphs(n))
