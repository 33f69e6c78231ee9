"""Tests for the admissible-graph combinatorics."""

import itertools
import random
from collections import Counter
from math import factorial

import pytest

import dqw.graphs
from dqw.freelie import free_lie, lie_to_lgraph
from dqw.graphs import (
    GROUND_X,
    GROUND_Y,
    AdmissibleGraph,
    GraphClass,
    GraphError,
    UNIT_GRAPH,
    build_w_computable,
    canonical_form,
    chain_graph,
    classify,
    decompose_nonloop,
    enumerate_graphs,
    factorize,
    flip_edges,
    format_graph,
    graph_orbit,
    graph_product,
    graph_types,
    has_directed_cycle,
    is_disjoint_binary_forest,
    mirror,
    parse_graph,
    rebuild_from_peel,
    symmetry_count,
    to_dot,
)


def _relabeled_edges(g, perm):
    """perm maps old label k -> perm[k-1]; returns the edge table of the
    relabeled graph (entry i holds the pair of new vertex i+1)."""
    n = g.n
    out = [None] * n
    for old in range(1, n + 1):
        pair = tuple(perm[t - 1] if t >= 1 else t for t in g.edges[old - 1])
        out[perm[old - 1] - 1] = pair
    return out


def reference_symmetry_count(g):
    """The brute force `symmetry_count` replaced: count the relabelings, out
    of all n!, that fix the edge-unordered graph.  Kept as the oracle for
    the ordered search."""
    n = g.n
    if n == 0:
        return 1
    unordered = [frozenset(pair) for pair in g.edges]
    stabilizer = 0
    for perm in itertools.permutations(range(1, n + 1)):
        for old in range(1, n + 1):
            mapped = frozenset(
                perm[t - 1] if t >= 1 else t for t in g.edges[old - 1]
            )
            if mapped != unordered[perm[old - 1] - 1]:
                break
        else:
            stabilizer += 1
    total = factorial(n) * 2**n
    assert total % stabilizer == 0
    return total // stabilizer


def reference_canonical_form(g):
    """The brute force `canonical_form` replaced: the least sorted edge table
    over all n! relabelings, with the flip parities that reach it.  Kept as
    the oracle for the ordered search."""
    n = g.n
    if n == 0:
        return g, 1
    best = None
    parities = set()
    for perm in itertools.permutations(range(1, n + 1)):
        flips = 0
        table = []
        for pair in _relabeled_edges(g, perm):
            if pair[0] > pair[1]:
                pair = (pair[1], pair[0])
                flips += 1
            table.append(pair)
        candidate = tuple(table)
        if best is None or candidate < best:
            best = candidate
            parities = {(-1) ** flips}
        elif candidate == best:
            parities.add((-1) ** flips)
    sign = parities.pop() if len(parities) == 1 else 0
    return AdmissibleGraph(best), sign


def random_graph(n, rng):
    edges = []
    for k in range(1, n + 1):
        targets = [GROUND_X, GROUND_Y] + [v for v in range(1, n + 1) if v != k]
        edges.append(tuple(rng.sample(targets, 2)))
    return AdmissibleGraph(tuple(edges))


def reference_has_directed_cycle(g):
    """The recursive depth-first cycle search `classify` replaced."""
    color = {}  # 0 in progress, 1 done

    def visit(v):
        state = color.get(v)
        if state == 0:
            return True
        if state == 1:
            return False
        color[v] = 0
        for t in g.aerial_targets(v):
            if visit(t):
                return True
        color[v] = 1
        return False

    return any(visit(v) for v in range(1, g.n + 1))


def reference_components(g):
    """The aerial components by a search over an undirected adjacency."""
    adjacency = {v: set() for v in range(1, g.n + 1)}
    for v in range(1, g.n + 1):
        for t in g.aerial_targets(v):
            adjacency[v].add(t)
            adjacency[t].add(v)
    seen, components = set(), []
    for v in range(1, g.n + 1):
        if v in seen:
            continue
        stack, comp = [v], []
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adjacency[u] - seen:
                seen.add(w)
                stack.append(w)
        components.append(sorted(comp))
    return components


def reference_classify(g):
    """`classify` before the single pass: a cycle search, a component search
    and an in-degree count per vertex, each over the whole graph."""
    loop = reference_has_directed_cycle(g)
    prime = g.n >= 1 and len(reference_components(g)) == 1
    sym = (not loop) and all(g.in_degree(v) <= 1 for v in range(1, g.n + 1))
    base_pairs = [pair for pair in g.edges if pair == (GROUND_X, GROUND_Y)]
    others_ok = all(
        pair == (GROUND_X, GROUND_Y) or (pair[0] == GROUND_X and pair[1] >= 1)
        for pair in g.edges
    )
    w_comp = g.n >= 1 and not loop and len(base_pairs) == 1 and others_ok
    return GraphClass(
        loop=loop,
        prime=prime,
        sym_admissible=sym,
        lie_admissible=sym and prime,
        w_computable=w_comp,
    )


def reference_heights(g):
    """The recursive, memoised heights `_heights` replaced."""
    if reference_has_directed_cycle(g):
        raise GraphError("loop graphs have no height function")
    memo = {}

    def height(v):
        if v not in memo:
            memo[v] = 1 + max((height(t) for t in g.aerial_targets(v)), default=0)
        return memo[v]

    for v in range(1, g.n + 1):
        height(v)
    return memo


def classify_cases():
    """Every graph with n <= 3 and a seeded sample with n = 4."""
    rng = random.Random(24)
    graphs = [g for n in range(4) for g in enumerate_graphs(n)]
    return graphs + [random_graph(4, rng) for _ in range(2000)]


def assert_classify_matches_reference(graphs):
    for g in graphs:
        assert classify(g) == reference_classify(g), format_graph(g)
        assert has_directed_cycle(g) == reference_has_directed_cycle(g), format_graph(g)
        assert factorize(g) == [
            AdmissibleGraph(tuple(
                tuple(comp.index(t) + 1 if t >= 1 else t for t in g.edges[old - 1])
                for old in comp
            ))
            for comp in reference_components(g)
        ], format_graph(g)


def assert_cycles_match_peeling():
    """A graph is acyclic iff repeatedly removing the vertices with no aerial
    target left empties it; checked on every graph with n <= 3."""
    def acyclic(g):
        left = set(range(1, g.n + 1))
        while True:
            sinks = {v for v in left if not set(g.aerial_targets(v)) & left}
            if not sinks:
                return not left
            left -= sinks

    counts = {}
    for n in range(4):
        for g in enumerate_graphs(n):
            loop = has_directed_cycle(g)
            assert loop == classify(g).loop == (not acyclic(g)), format_graph(g)
            counts[n] = counts.get(n, 0) + loop
    assert counts == {0: 0, 1: 0, 2: 16, 3: 1216}


def root_last_chain(n):
    """The n-vertex chain labelled from the top: k:(X,k+1), then n:(X,Y)."""
    return AdmissibleGraph(tuple((GROUND_X, k + 1) for k in range(1, n)) + ((GROUND_X, GROUND_Y),))


def assert_matches_brute_force(g):
    assert canonical_form(g) == reference_canonical_form(g), format_graph(g)
    assert symmetry_count(g) == reference_symmetry_count(g), format_graph(g)


class TestConstruction:
    def test_validation(self):
        AdmissibleGraph((( GROUND_X, GROUND_Y),))
        with pytest.raises(GraphError):
            AdmissibleGraph(((1, 1),))  # coincident targets
        with pytest.raises(GraphError):
            AdmissibleGraph(((GROUND_X, 2),))  # dangling label
        with pytest.raises(GraphError):
            AdmissibleGraph(((1, GROUND_Y),))  # self-loop at vertex 1

    def test_accessors(self):
        g = parse_graph("1:(X,Y);2:(X,1)")
        assert g.n == 2
        assert g.edges[1] == (GROUND_X, 1)
        assert g.aerial_targets(2) == [1]
        assert g.aerial_targets(1) == []
        assert g.in_degree(1) == 1
        assert g.in_degree(GROUND_X) == 2

    def test_unit_graph(self):
        assert UNIT_GRAPH.n == 0
        assert format_graph(UNIT_GRAPH) == ""
        assert parse_graph("") == UNIT_GRAPH


class TestEnumeration:
    def test_counts(self):
        # n aerial vertices, each choosing an ordered pair from n+1 other
        # endpoints: (n(n+1))^n graphs.
        assert [sum(1 for _ in enumerate_graphs(n)) for n in range(4)] == [1, 2, 36, 1728]

    def test_n1_explicit(self):
        gs = list(enumerate_graphs(1))
        texts = sorted(format_graph(g) for g in gs)
        assert texts == ["1:(X,Y)", "1:(Y,X)"]

    def test_all_distinct(self):
        gs = list(enumerate_graphs(2))
        assert len(set(gs)) == 36


class TestClassification:
    def test_chain_two(self):
        c = classify(chain_graph(2))
        assert (c.loop, c.prime, c.sym_admissible, c.lie_admissible, c.w_computable) == (
            False,
            True,
            True,
            True,
            True,
        )

    def test_product_of_chains_not_prime(self):
        g = graph_product(chain_graph(1), chain_graph(1))
        c = classify(g)
        assert c.sym_admissible and not c.prime and not c.lie_admissible
        assert not c.w_computable  # two (X,Y) feet

    def test_loop_graph(self):
        c = classify(parse_graph("1:(X,2);2:(Y,1)"))
        assert c.loop and c.prime
        assert not (c.sym_admissible or c.lie_admissible or c.w_computable)

    def test_star_graph_w_computable_but_not_sym(self):
        # both aerial edges of vertex 3 hit vertex... rather: two vertices
        # feed the same target, so in-degree 2 kills symmetric admissibility
        # while the feet pattern (one (X,Y), rest (X,aerial)) stays integrable.
        g = parse_graph("1:(X,Y);2:(X,1);3:(X,1)")
        c = classify(g)
        assert c.w_computable and not c.sym_admissible

    def test_unit_graph_classification(self):
        c = classify(UNIT_GRAPH)
        assert c.sym_admissible and not c.prime and not c.loop and not c.w_computable

    def test_sym_equals_disjoint_binary_forest(self):
        for g in classify_cases():
            assert classify(g).sym_admissible == is_disjoint_binary_forest(g), format_graph(g)

    def test_cycle_test_against_peeling_the_sinks(self):
        assert_cycles_match_peeling()

    def test_single_pass_matches_reference(self):
        assert_classify_matches_reference(classify_cases())

    def test_a_pass_that_never_flags_a_cycle_is_caught(self, monkeypatch):
        # negative control: heights reported for every graph, loops included
        real = dqw.graphs._shape

        def blind(g):
            in_degree, component, heights = real(g)
            return in_degree, component, heights or [1] * (g.n + 1)

        monkeypatch.setattr(dqw.graphs, "_shape", blind)
        with pytest.raises(AssertionError):
            assert_classify_matches_reference(classify_cases())
        with pytest.raises(AssertionError):
            assert_cycles_match_peeling()

    def test_root_last_chain_has_no_recursion_limit(self):
        g = root_last_chain(3000)
        assert not has_directed_cycle(g)
        assert classify(g).w_computable and classify(g).prime
        assert [v for v, _ in decompose_nonloop(g)] == list(range(1, 3001))
        assert factorize(g) == [g]


class TestProductsAndFactors:
    def test_product_unit(self):
        g = chain_graph(2)
        assert graph_product(g, UNIT_GRAPH) == g
        assert graph_product(UNIT_GRAPH, g) == g

    def test_factorize_round_trip(self):
        a, b, c = chain_graph(1), chain_graph(2), chain_graph(1)
        g = graph_product(graph_product(a, b), c)
        parts = factorize(g)
        assert parts == [a, b, c] or sorted(map(format_graph, parts)) == sorted(
            map(format_graph, [a, b, c])
        )
        rebuilt = parts[0]
        for p in parts[1:]:
            rebuilt = graph_product(rebuilt, p)
        assert rebuilt == g

    def test_factorize_prime(self):
        g = chain_graph(3)
        assert factorize(g) == [g]

    def test_factorize_all_n2(self):
        for g in enumerate_graphs(2):
            parts = factorize(g)
            assert sum(p.n for p in parts) == 2
            if len(parts) == 2:
                # two singleton factors; their product relabels back to g up
                # to the component order chosen by factorize
                assert {p.n for p in parts} == {1}
                assert canonical_form(graph_product(parts[0], parts[1]))[0] == canonical_form(g)[0]
            else:
                assert parts == [g]


def reference_decompose_nonloop(g, heights_of=reference_heights):
    """The scan `decompose_nonloop` replaced: before each peel, look for a
    reference to the vertex among all unpeeled pairs."""
    heights = heights_of(g)
    remaining = {v: g.edges[v - 1] for v in range(1, g.n + 1)}
    order = sorted(remaining, key=lambda v: (-heights[v], v))
    peel = []
    for v in order:
        if any(t == v for pair in remaining.values() for t in pair):
            raise GraphError(f"internal: vertex {v} peeled while still referenced")
        peel.append((v, remaining.pop(v)))
    return peel


def peel_outcome(decompose, g):
    try:
        return decompose(g)
    except GraphError as err:
        return str(err)


class TestPeeling:
    def test_chain_three_order(self):
        peel = decompose_nonloop(chain_graph(3))
        assert [v for v, _ in peel] == [3, 2, 1]
        assert peel[0][1] == (GROUND_X, 2)
        assert peel[-1][1] == (GROUND_X, GROUND_Y)

    def test_rebuild(self):
        for text in ["1:(X,Y);2:(X,1)", "1:(X,Y);2:(X,1);3:(X,1)", "1:(X,Y)"]:
            g = parse_graph(text)
            assert rebuild_from_peel(decompose_nonloop(g)) == g

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            decompose_nonloop(parse_graph("1:(X,2);2:(Y,1)"))

    def test_reference_counts_match_the_scan(self):
        graphs = [g for n in range(4) for g in enumerate_graphs(n) if not classify(g).loop]
        for n in (1, 2, 5, 40):
            graphs.append(chain_graph(n))
            graphs.append(parse_graph(";".join(
                ["1:(X,Y)"] + [f"{k}:(X,1)" for k in range(2, n + 1)]
            )))
        for g in graphs:
            assert decompose_nonloop(g) == reference_decompose_nonloop(g), g
        assert len(graphs) == 535 + 8

    def test_wrong_heights_raise_the_same_error(self, monkeypatch):
        # equal heights peel by label, so vertex 1 goes while 2 still points at it
        def flat(g):
            return dict.fromkeys(range(1, g.n + 1), 1)

        monkeypatch.setattr(dqw.graphs, "_heights", flat)
        for g in (chain_graph(3), parse_graph("1:(X,Y);2:(X,1);3:(1,2)")):
            got = peel_outcome(decompose_nonloop, g)
            assert got == peel_outcome(lambda g: reference_decompose_nonloop(g, flat), g)
            assert got == "internal: vertex 1 peeled while still referenced"

    def test_heights_match_the_recursive_reference(self):
        for g in classify_cases():
            want = peel_outcome(reference_heights, g)
            got = peel_outcome(dqw.graphs._heights, g)
            if isinstance(want, dict):
                got = dict(enumerate(got[1:], start=1))
            assert got == want, format_graph(g)

    def test_build_w_computable(self):
        g = build_w_computable([1, 2])
        assert g == parse_graph("1:(X,Y);2:(X,1);3:(X,2)")
        with pytest.raises(GraphError):
            build_w_computable([3])  # forward reference


class TestSymmetryCount:
    def test_known_values(self):
        assert symmetry_count(UNIT_GRAPH) == 1
        assert symmetry_count(chain_graph(1)) == 2
        assert symmetry_count(chain_graph(2)) == 8
        assert symmetry_count(chain_graph(3)) == 48
        assert symmetry_count(graph_product(chain_graph(1), chain_graph(1))) == 4

    def test_orbit_stabilizer_consistency(self):
        # grouping all of G_n by unordered-relabelled type, each type's orbit
        # size must equal the stabilizer-based count.
        for n in (1, 2):
            by_type = Counter()
            reps: dict = {}
            for g in enumerate_graphs(n):
                key, _ = canonical_form(g)
                by_type[key] += 1
                reps[key] = g
            for key, orbit in by_type.items():
                assert orbit == symmetry_count(reps[key]), format_graph(key)
            assert sum(by_type.values()) == (n * (n + 1)) ** n


def assert_orbits_cover(types, n):
    """The orbits of the types yielded by types(n) count every labelled
    graph with n aerial vertices once."""
    assert sum(orbit for _, orbit in types(n)) == (n * (n + 1)) ** n


class TestGraphTypes:
    @pytest.mark.parametrize("n", range(5))
    def test_orbits_sum_to_all_graphs(self, n):
        assert_orbits_cover(graph_types, n)

    def test_dropping_a_type_fails_the_orbit_sum(self):
        # negative control: a pass that misses one type is caught
        two_loop, _ = canonical_form(parse_graph("1:(X,2);2:(Y,1)"))
        assert two_loop in {g for g, _ in graph_types(2)}

        def short(n):
            return ((g, orbit) for g, orbit in graph_types(n) if g != two_loop)

        with pytest.raises(AssertionError):
            assert_orbits_cover(short, 2)

    @pytest.mark.parametrize("n", range(4))
    def test_types_are_the_canonical_forms(self, n):
        types = [g for g, _ in graph_types(n)]
        assert len(types) == len(set(types))
        assert set(types) == {canonical_form(g)[0] for g in enumerate_graphs(n)}

    @pytest.mark.parametrize("n", range(4))
    def test_orbits_partition_the_enumeration(self, n):
        everything = []
        for g, orbit in graph_types(n):
            expansion = graph_orbit(g)
            assert len(expansion) == orbit == symmetry_count(g)
            assert expansion == sorted(expansion, key=lambda h: h.edges)
            assert all(canonical_form(h)[0] == g for h in expansion)
            everything.extend(expansion)
        assert sorted(everything, key=lambda h: h.edges) == list(enumerate_graphs(n))

    def test_orbit_sizes_are_symmetry_counts_at_four_vertices(self):
        for g, orbit in graph_types(4):
            assert len(graph_orbit(g)) == orbit == symmetry_count(g), format_graph(g)

    @pytest.mark.parametrize(
        "n, counts",
        [(1, (2, 2, 0, 0)), (2, (36, 20, 16, 0)), (3, (1728, 320, 1216, 192))],
        ids=["n1", "n2", "n3"],
    )
    def test_classification_counts(self, n, counts):
        # (all, sym-admissible, loop, aerial in-degree >= 2 without a loop)
        total = sym = loop = high = 0
        for g, orbit in graph_types(n):
            cls = classify(g)
            total += orbit
            if cls.sym_admissible:
                sym += orbit
            elif cls.loop:
                loop += orbit
            else:
                high += orbit
        assert (total, sym, loop, high) == counts

    def test_negative_n_refused(self):
        with pytest.raises(GraphError):
            list(graph_types(-1))


class TestCanonicalForm:
    def test_sign_flip(self):
        g = parse_graph("1:(2,X);2:(X,Y)")
        canon, sign = canonical_form(g)
        assert format_graph(canon) == "1:(X,Y);2:(X,1)"
        assert sign == -1

    def test_identity_on_canonical(self):
        g = chain_graph(3)
        canon, sign = canonical_form(g)
        assert canon == g and sign == 1

    def test_relabel_invariance(self):
        g = parse_graph("1:(X,Y);2:(X,1);3:(2,X)")
        # relabel vertices 1<->3 by hand
        h = parse_graph("3:(X,Y);2:(X,3);1:(2,X)")
        assert canonical_form(g)[0] == canonical_form(h)[0]

    def test_ambiguous_parity_sign_zero(self):
        # swapping vertices 1 and 2 fixes this graph but reverses vertex 3's
        # (1,2) pair, so the minimal labelling is reached with both parities:
        # any flip-antisymmetric quantity on the type must vanish.
        g = parse_graph("1:(X,Y);2:(X,Y);3:(1,2)")
        assert canonical_form(g)[1] == 0

    def test_no_parity_ambiguity_below_three_vertices(self):
        # a reversed pair needs two aerial targets on one vertex, impossible
        # for n <= 2 (no vertex may target itself)
        for n in (1, 2):
            for g in enumerate_graphs(n):
                assert canonical_form(g)[1] != 0


class TestOrderedSearch:
    """`canonical_form` and `symmetry_count` against the n! brute force."""

    def test_every_graph_up_to_three_vertices(self):
        for n in range(4):
            for g in enumerate_graphs(n):
                assert_matches_brute_force(g)

    @pytest.mark.parametrize("n", [4, 5])
    def test_seeded_sample(self, n):
        rng = random.Random(n)
        for _ in range(200):
            assert_matches_brute_force(random_graph(n, rng))

    @pytest.mark.parametrize("degree", range(2, 10))
    def test_every_lyndon_bracket_graph(self, degree):
        fl = free_lie(("X", "Y"))
        for word in fl.lyndon_words(degree):
            assert_matches_brute_force(lie_to_lgraph(fl.bracket_tree(word)))

    def test_large_automorphism_group(self):
        # six wedges side by side: every relabelling is minimal
        g = parse_graph(";".join(f"{k}:(Y,X)" for k in range(1, 7)))
        wedges = parse_graph(";".join(f"{k}:(X,Y)" for k in range(1, 7)))
        assert canonical_form(g) == (wedges, 1)
        assert symmetry_count(g) == 2**6
        assert_matches_brute_force(g)

    def test_forced_choice_visits_one_child(self, monkeypatch):
        # a directed n-cycle on the grounds: the first label may go to any
        # vertex, and every later one is forced onto the open target, so
        # each of the n surviving rotations has one child per level
        n = 8
        g = AdmissibleGraph(tuple((GROUND_X, k % n + 1) for k in range(1, n + 1)))
        calls = 0
        key_tail = dqw.graphs._key_tail

        def counting(*args):
            nonlocal calls
            calls += 1
            return key_tail(*args)

        monkeypatch.setattr(dqw.graphs, "_key_tail", counting)
        assert symmetry_count(g) == factorial(n) * 2**n // n
        assert calls == n * n


class TestMirrorAndFlips:
    def test_mirror(self):
        g = chain_graph(2)
        m, sign = mirror(g)
        assert format_graph(m) == "1:(Y,X);2:(Y,1)"
        assert sign == 1  # (-1)^n with n = 2
        assert mirror(chain_graph(1))[1] == -1

    def test_mirror_involution(self):
        g = parse_graph("1:(X,Y);2:(X,1);3:(2,Y)")
        m, s1 = mirror(g)
        back, s2 = mirror(m)
        assert back == g and s1 * s2 == 1

    def test_flip_edges(self):
        g = chain_graph(2)
        h, sign = flip_edges(g, [2])
        assert format_graph(h) == "1:(X,Y);2:(1,X)"
        assert sign == -1
        h2, sign2 = flip_edges(g, [1, 2])
        assert sign2 == 1
        assert flip_edges(g, [])[0] == g
        with pytest.raises(GraphError):
            flip_edges(g, [3])
        with pytest.raises(GraphError):
            flip_edges(g, [0, 1])

    def test_unchecked_images_equal_the_validated_ones(self):
        # every graph with n <= 3 and a seeded n = 4 sample: mirror and
        # flip_edges build their images unchecked, and each one equals the
        # validated graph on independently computed edges
        rng = random.Random(25)
        graphs = [g for n in range(4) for g in enumerate_graphs(n)]
        assert len(graphs) == 1767
        graphs += [random_graph(4, rng) for _ in range(500)]
        swap = {GROUND_X: GROUND_Y, GROUND_Y: GROUND_X}
        for g in graphs:
            image, sign = mirror(g)
            assert image == AdmissibleGraph(
                tuple((swap.get(a, a), swap.get(b, b)) for a, b in g.edges)
            )
            assert sign == (-1) ** g.n
            chosen = [k for k in range(1, g.n + 1) if rng.random() < 0.5]
            image, sign = flip_edges(g, chosen)
            assert image == AdmissibleGraph(
                tuple((b, a) if k in chosen else (a, b) for k, (a, b) in enumerate(g.edges, 1))
            )
            assert sign == (-1) ** len(chosen)


class TestTextAndDot:
    def test_round_trip(self):
        for n in (0, 1, 2):
            for g in enumerate_graphs(n):
                assert parse_graph(format_graph(g)) == g

    def test_parse_errors(self):
        with pytest.raises(GraphError):
            parse_graph("1:(X,Y);3:(X,1)")  # labels must cover 1..n
        with pytest.raises(GraphError):
            parse_graph("1:(X,X)")
        with pytest.raises(GraphError):
            parse_graph("1:(Q,Y)")

    def test_dot_output(self):
        dot = to_dot(chain_graph(2))
        assert dot.startswith("digraph")
        assert "X" in dot and "Y" in dot
        assert dot.count("->") == 4
