import random
from fractions import Fraction as F
from math import factorial

import pytest

from dqw.bernoulli import bernoulli_number
from dqw.bidiff import BiDiffOp, wedge_operator
import dqw.kontsevich
from dqw.graphs import (
    GROUND_X,
    GROUND_Y,
    AdmissibleGraph,
    canonical_form,
    chain_graph,
    classify,
    enumerate_graphs,
    factorize,
    format_graph,
    graph_product,
    graph_types,
    has_directed_cycle,
    parse_graph,
    symmetry_count,
)
from dqw.kontsevich import (
    KontsevichError,
    assemble_linear_star,
    assemble_xn_star_y,
    graph_to_operator,
    half_poisson,
    integral_omega,
    LoopReport,
    loop_types,
    loop_vanishing_report,
    prime_type_table,
)
from dqw.liealg import (
    PoissonStructure,
    heisenberg,
    killing_matrix,
    linear_poisson,
    solvable2,
    strictly_upper,
)
from dqw.poly import Polynomial, parse_polynomial
from dqw.star import cbh_product, check_equivalence, uea_product, xn_star_y
from dqw.weights import weight_w_computable


def general_alpha():
    # alpha^{12} = x1^2, a non-linear structure in dimension 2
    p = parse_polynomial("x1^2", dim=2)
    z = Polynomial.zero(2)
    return PoissonStructure(2, "general", ((z, p), (-p, z)))


def reference_graph_to_operator(g, pi, order):
    """graph_to_operator before the derivative table: every branch derives
    the entries of alpha itself.  Kept as the oracle of the table-driven
    search."""
    d = pi.dim
    n = g.n
    if n == 0:
        return BiDiffOp.identity(d, order)
    if n > order:
        return BiDiffOp.zero(d, order)
    support = [
        (i, j, pi.entry(i, j))
        for i in range(1, d + 1)
        for j in range(1, d + 1)
        if not pi.entry(i, j).is_zero()
    ]
    terms: dict = {}

    def color(v: int, factors: dict, pending: dict, left: tuple, right: tuple):
        if v > n:
            total = Polynomial.one(d)
            for poly in factors.values():
                total = total * poly
            key = (n, left, right)
            acc = terms.get(key)
            terms[key] = total if acc is None else acc + total
            return
        t1, t2 = g.edges[v - 1]
        for i, j, base in support:
            poly = base
            for idx in pending.get(v, ()):
                poly = poly.derive(idx)
                if poly.is_zero():
                    break
            if poly.is_zero():
                continue
            new_factors = dict(factors)
            new_pending = dict(pending)
            new_left, new_right = left, right
            new_factors[v] = poly
            dead = False
            for target, idx in ((t1, i), (t2, j)):
                if target == GROUND_X:
                    new_left = tuple(
                        e + 1 if m == idx else e for m, e in enumerate(new_left, start=1)
                    )
                elif target == GROUND_Y:
                    new_right = tuple(
                        e + 1 if m == idx else e for m, e in enumerate(new_right, start=1)
                    )
                elif target < v:
                    derived = new_factors[target].derive(idx)
                    if derived.is_zero():
                        dead = True
                        break
                    new_factors[target] = derived
                else:
                    new_pending[target] = new_pending.get(target, ()) + (idx,)
            if dead:
                continue
            color(v + 1, new_factors, new_pending, new_left, new_right)

    zero = (0,) * d
    color(1, {}, {}, zero, zero)
    return BiDiffOp(d, order, terms)


def quadratic_alpha():
    """A general quadratic structure on R^3 (antisymmetric, not Poisson):
    entries with squares, mixed products and a linear term, so that second
    derivatives survive and pending multisets of size 2 occur."""
    a = parse_polynomial("x1^2 + x2*x3", dim=3)
    b = parse_polynomial("x2^2 - 2*x1*x3 + x1", dim=3)
    c = parse_polynomial("x3^2 + x1*x2", dim=3)
    z = Polynomial.zero(3)
    return PoissonStructure(3, "general", ((z, a, b), (-a, z, c), (-b, -c, z)))


def random_graph(rng, n):
    targets = [GROUND_X, GROUND_Y] + list(range(1, n + 1))
    return AdmissibleGraph(
        tuple(tuple(rng.sample([t for t in targets if t != k], 2)) for k in range(1, n + 1))
    )


def assert_matches_reference(graphs, pi):
    for g in graphs:
        got = graph_to_operator(g, pi, g.n)
        want = reference_graph_to_operator(g, pi, g.n)
        assert got == want, g
        assert repr(got) == repr(want), g
        # the component factors enter unchecked: they hold exactly what the
        # checking constructor keeps
        assert got.terms == BiDiffOp(got.dim, got.order, got.terms).terms, g


class TestDerivativeTable:
    """graph_to_operator reads the derivatives of alpha off the structure's
    table; the reference derives them on every branch."""

    @pytest.mark.parametrize(
        "c", [heisenberg(), solvable2(), strictly_upper(4)], ids=lambda c: f"dim{c.dim}"
    )
    def test_every_graph_up_to_three_vertices(self, c):
        pi = half_poisson(c)
        assert_matches_reference([g for n in range(4) for g in enumerate_graphs(n)], pi)

    def test_quadratic_structure(self):
        graphs = [g for n in range(3) for g in enumerate_graphs(n)]
        graphs += random.Random(5).sample(list(enumerate_graphs(3)), 30)
        pi = quadratic_alpha()
        assert_matches_reference(graphs, pi)
        assert any(len(orders) == 2 for orders in pi._derivatives)

    def test_four_vertices_with_high_in_degree(self):
        rng = random.Random(4)
        graphs = []
        while len(graphs) < 12:
            g = random_graph(rng, 4)
            if any(g.in_degree(v) >= 2 for v in range(1, 5)):
                graphs.append(g)
        assert_matches_reference(graphs, half_poisson(strictly_upper(5)))

    def test_table_stays_out_of_equality(self):
        tables = ("_derivatives", "_rows", "_keeps", "_grows")
        for make in (lambda: half_poisson(strictly_upper(4)), quadratic_alpha):
            used, fresh = make(), make()
            for g in enumerate_graphs(2):
                graph_to_operator(g, used, 2)
            for name in tables:
                assert getattr(used, name) and not getattr(fresh, name), name
            assert used == fresh and hash(used) == hash(fresh)
            assert repr(used) == repr(fresh)

    def test_table_is_lean(self):
        # keys are sorted multisets; only nonzero derivatives are kept, and
        # nothing is derived below an entry that died in the parent multiset
        pi = quadratic_alpha()
        graphs = [g for n in range(3) for g in enumerate_graphs(n)]
        # two edges into one vertex: backward (into 1) and pending (into 3)
        graphs += [parse_graph("1:(X,Y);2:(X,1);3:(Y,1)"), parse_graph("1:(X,3);2:(Y,3);3:(X,Y)")]
        for g in graphs:
            graph_to_operator(g, pi, g.n)
        table = pi._derivatives
        assert any(len(orders) == 2 for orders in table)
        for orders, live in table.items():
            assert list(orders) == sorted(orders)
            assert all(not p.is_zero() for p in live.values())
            if orders:
                assert set(live) <= set(table[orders[:-1]])
                for ij, p in live.items():
                    assert p == table[orders[:-1]][ij].derive(orders[-1])


def _bump(multi, idx):
    """The multi-index with its idx-th (1-based) exponent raised by one."""
    return multi[: idx - 1] + (multi[idx - 1] + 1,) + multi[idx:]


def reference_coloring_table(edges, pi):
    """`_coloring_table` before the index tables: each vertex scans every
    entry live under its pending multiset and rejects those an edge into a
    colored or pending vertex kills, carrying (L, R) as tuples."""
    n = len(edges)
    live = pi.live_derivatives
    terms = {}

    def color(v, factors, pending, left, right):
        if v > n:
            total = None
            for i, j, orders in factors:
                poly = live(orders)[i, j]
                total = poly if total is None else total * poly
            key = (left, right)
            acc = terms.get(key)
            terms[key] = total if acc is None else acc + total
            return
        orders = pending[v - 1]
        for i, j in live(orders):
            new_factors = factors + [(i, j, orders)]
            new_pending, new_left, new_right = pending, left, right
            for target, idx in zip(edges[v - 1], (i, j)):
                if target == GROUND_X:
                    new_left = _bump(new_left, idx)
                elif target == GROUND_Y:
                    new_right = _bump(new_right, idx)
                elif target < v:
                    ti, tj, t_orders = new_factors[target - 1]
                    t_orders = tuple(sorted(t_orders + (idx,)))
                    if (ti, tj) not in live(t_orders):
                        break
                    new_factors[target - 1] = (ti, tj, t_orders)
                else:
                    t_orders = tuple(sorted(new_pending[target - 1] + (idx,)))
                    if not live(t_orders):
                        break
                    new_pending = (
                        new_pending[: target - 1] + (t_orders,) + new_pending[target:]
                    )
            else:
                color(v + 1, new_factors, new_pending, new_left, new_right)

    zero = (0,) * pi.dim
    color(1, [], ((),) * n, zero, zero)
    return {key: p for key, p in terms.items() if p.terms}


def assert_coloring_matches_reference(graphs, make_pi, order=None):
    """graph_to_operator with the indexed colouring equals it with the
    reference colouring, each on a fresh structure; returns the count of
    nonzero operators."""
    pi, reference_pi = make_pi(), make_pi()
    real = dqw.kontsevich._coloring_table
    live = 0
    for g in graphs:
        m = g.n if order is None else order
        got = graph_to_operator(g, pi, m)
        dqw.kontsevich._coloring_table = reference_coloring_table
        try:
            want = graph_to_operator(g, reference_pi, m)
        finally:
            dqw.kontsevich._coloring_table = real
        assert got == want, format_graph(g)
        assert repr(got) == repr(want), format_graph(g)
        live += not got.is_zero()
    return live


def every_graph_up_to_three():
    return [g for n in range(4) for g in enumerate_graphs(n)]


class TestIndexedColoring:
    """`_coloring_table` looks each vertex's entries up in the structure's
    index tables; the reference scans and filters them."""

    def test_census_structure(self):
        make = lambda: half_poisson(strictly_upper(5))
        assert assert_coloring_matches_reference(every_graph_up_to_three(), make) > 100

    def test_quadratic_structure(self):
        # every n = 3 graph would take about 12 s, nearly all of it in the
        # leaf polynomial products both sides compute; a seeded 400 of them
        graphs = [g for n in range(3) for g in enumerate_graphs(n)]
        graphs += random.Random(24).sample(list(enumerate_graphs(3)), 400)
        assert assert_coloring_matches_reference(graphs, quadratic_alpha) > 100

    def test_solvable_structure_where_loops_survive(self):
        make = lambda: half_poisson(solvable2())
        graphs = every_graph_up_to_three()
        assert assert_coloring_matches_reference(graphs, make) > 100
        loops = [g for g in graphs if has_directed_cycle(g)]
        assert assert_coloring_matches_reference(loops, make) > 0

    def test_order_eight_prime_types(self):
        graphs = [graph for graph, _, _ in prime_type_table(8)]
        assert max(g.n for g in graphs) == 8
        # strictly_upper(4) is 3-step nilpotent: only the three types with
        # at most two vertices survive, the rest must compile to zero alike
        make = lambda: linear_poisson(strictly_upper(4))
        assert assert_coloring_matches_reference(graphs, make, order=8) == 3

    def test_wide_digits(self):
        # a digit of a 200-vertex component can reach 200, past the 8-bit
        # cap of 127, so its (L, R) keys pack 16-bit digits
        make = lambda: half_poisson(solvable2())
        assert assert_coloring_matches_reference([chain_graph(200)], make, order=200) == 1
        assert len(graph_to_operator(chain_graph(200), make(), 200).terms) == 2

    @pytest.mark.parametrize("n", [900, 1100])
    def test_long_chains(self, n):
        # the search keeps no Python frame per vertex, so a chain longer than
        # the recursion limit compiles; on solvable2 the n-chain is
        # (x2 / 2^n) (d1^n tensor d2 - d1^(n-1) d2 tensor d1)
        op = graph_to_operator(chain_graph(n), half_poisson(solvable2()), n)
        x2 = Polynomial.variable(2, 2) * F(1, 2**n)
        assert op == BiDiffOp(2, n, {(n, (n, 0), (0, 1)): x2, (n, (n - 1, 1), (1, 0)): -x2})


def symplectic_alpha():
    """The constant structure alpha^{12} = 1 on R^2."""
    one, z = Polynomial.one(2), Polynomial.zero(2)
    return PoissonStructure(2, "constant", ((z, one), (-one, z)))


def multi_component_sample(seed, count, keep):
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(rng, 4)
        if len(factorize(g)) > 1 and keep(g):
            graphs.append(g)
    return graphs


class TestOutputSensitiveCompilation:
    """graph_to_operator returns zero by the derivative count before any
    search, and searches each aerial component alone; the reference
    searches the whole graph."""

    @pytest.mark.parametrize(
        "make, count, keep",
        [
            (
                lambda: half_poisson(strictly_upper(4)),
                60,
                lambda g: all(g.in_degree(v) <= 1 for v in range(1, 5)),
            ),
            (quadratic_alpha, 8, lambda g: True),
        ],
        ids=["strictly_upper4", "quadratic"],
    )
    def test_seeded_multi_component_samples(self, make, count, keep):
        pi = make()
        graphs = multi_component_sample(17, count, keep)
        assert_matches_reference(graphs, pi)
        live = [g for g in graphs if not graph_to_operator(g, pi, 4).is_zero()]
        # the sample must hold nonzero products, or it tests nothing
        assert len(live) >= 3

    def test_constant_structure_kills_every_aerial_edge(self):
        pi = symplectic_alpha()
        graphs = [g for n in range(4) for g in enumerate_graphs(n)]
        assert_matches_reference(graphs, pi)
        for g in graphs:
            edgeless = all(t < 0 for pair in g.edges for t in pair)
            assert graph_to_operator(g, pi, 3).is_zero() != edgeless, g

    def test_quadratic_in_degree_two_still_searches(self):
        pi = quadratic_alpha()
        g = parse_graph("1:(X,Y);2:(X,1);3:(Y,1)")
        op = graph_to_operator(g, pi, 3)
        assert not op.is_zero() and op == reference_graph_to_operator(g, pi, 3)
        assert any(len(orders) == 2 for orders in pi._derivatives)

    def test_quadratic_in_degree_three_is_cut(self):
        pi = quadratic_alpha()
        g = parse_graph("1:(X,Y);2:(X,1);3:(Y,1);4:(X,1)")
        assert graph_to_operator(g, pi, 4).is_zero()
        assert not pi._derivatives  # no search ran
        assert reference_graph_to_operator(g, pi, 4).is_zero()

    def test_max_entry_degree_stays_out_of_equality(self):
        for make, degree in ((symplectic_alpha, 0), (quadratic_alpha, 2)):
            pi = make()
            assert pi.max_entry_degree == degree
            assert "_max_degree" not in repr(pi)
        assert half_poisson(strictly_upper(4)).max_entry_degree == 1
        assert symplectic_alpha() == symplectic_alpha()

    def test_components_compile_in_one_public_call(self, monkeypatch):
        real = dqw.kontsevich.graph_to_operator
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dqw.kontsevich, "graph_to_operator", counted)
        g = graph_product(chain_graph(1), chain_graph(2))
        op = dqw.kontsevich.graph_to_operator(g, half_poisson(strictly_upper(4)), 3)
        assert not op.is_zero() and len(calls) == 1


class TestGraphToOperator:
    def test_unit_graph_is_identity(self):
        op = graph_to_operator(parse_graph(""), half_poisson(heisenberg()), 2)
        assert op == BiDiffOp.identity(3, 2)

    def test_single_vertex_is_half_wedge(self):
        x3 = Polynomial.variable(3, 3)
        op = graph_to_operator(chain_graph(1), half_poisson(heisenberg()), 3)
        expected = wedge_operator(3, 3, {(1, 2): x3, (2, 1): -x3}, prefactor=F(1, 2))
        assert op == expected

    def test_two_chain_hand_oracle_solvable(self):
        # v2 colors (a,b) with b differentiating v1's coefficient; only
        # b = 2 survives on alpha^{12} = x2, leaving two terms.
        op = graph_to_operator(chain_graph(2), half_poisson(solvable2()), 2)
        x2 = Polynomial.variable(2, 2)
        assert dict(op.sorted_terms()) == {
            (2, (2, 0), (0, 1)): x2 * F(1, 4),
            (2, (1, 1), (1, 0)): x2 * F(-1, 4),
        }

    def test_two_chain_hand_oracle_general_alpha(self):
        op = graph_to_operator(chain_graph(2), general_alpha(), 2)
        cube = parse_polynomial("x1^3", dim=2)
        assert dict(op.sorted_terms()) == {
            (2, (1, 1), (0, 1)): cube * F(-2),
            (2, (0, 2), (1, 0)): cube * F(2),
        }

    def test_high_in_degree_dies_on_linear_alpha(self):
        g = parse_graph("1:(X,Y);2:(X,1);3:(X,1)")
        assert graph_to_operator(g, half_poisson(strictly_upper(3)), 3).is_zero()

    def test_high_in_degree_survives_quadratic_alpha(self):
        g = parse_graph("1:(X,Y);2:(X,1);3:(X,1)")
        assert not graph_to_operator(g, general_alpha(), 3).is_zero()

    def test_eps_degree_matches_vertex_count(self):
        op = graph_to_operator(chain_graph(2), half_poisson(solvable2()), 4)
        assert op.min_eps_degree() == 2
        assert all(m == 2 for m, _, _ in dict(op.sorted_terms()))

    def test_truncation_above_order(self):
        assert graph_to_operator(chain_graph(3), half_poisson(solvable2()), 2).is_zero()

    def test_applies_to_polynomials(self):
        c = heisenberg()
        op = graph_to_operator(chain_graph(1), half_poisson(c), 2)
        f = Polynomial.variable(3, 1)
        g = Polynomial.variable(3, 2)
        series = op.apply(f, g)
        # eps^1 coefficient is (1/2){x1, x2} = x3/2... minus the mirror half:
        # the single wedge gives (1/2)(a^{12} - 0) d1 f d2 g = x3/2
        assert series.coeffs[1] == Polynomial.variable(3, 3) * F(1, 2)


class TestLoopGraphs:
    def test_two_loop_is_quarter_killing_on_solvable(self):
        g = parse_graph("1:(X,2);2:(Y,1)")
        op = graph_to_operator(g, half_poisson(solvable2()), 2)
        k = killing_matrix(solvable2())
        expected = {}
        for i in (1, 2):
            for a in (1, 2):
                if k[i - 1][a - 1]:
                    left = tuple(1 if m == i else 0 for m in (1, 2))
                    right = tuple(1 if m == a else 0 for m in (1, 2))
                    expected[(2, left, right)] = Polynomial.constant(
                        2, k[i - 1][a - 1] * F(1, 4)
                    )
        assert dict(op.sorted_terms()) == expected

    def test_two_loop_vanishes_on_nilpotent(self):
        g = parse_graph("1:(X,2);2:(Y,1)")
        for c in (heisenberg(), strictly_upper(4)):
            assert graph_to_operator(g, half_poisson(c), 2).is_zero()

    def test_report_all_vanish_on_strictly_upper(self):
        rep = loop_vanishing_report(strictly_upper(4), 3)
        assert rep.all_vanish
        assert rep.checked == 16 + 1216  # loop graphs at n = 2 and n = 3

    def test_report_finds_survivors_on_solvable(self):
        rep = loop_vanishing_report(solvable2(), 2)
        assert not rep.all_vanish
        assert len(rep.nonzero) == 16
        assert "1:(X,2);2:(Y,1)" in rep.nonzero

    @pytest.mark.parametrize("max_n", [1, 0])
    def test_report_refuses_an_empty_range(self, max_n):
        # no loop graph has fewer than two vertices: nothing would be checked
        with pytest.raises(KontsevichError):
            loop_vanishing_report(heisenberg(), max_n)

    def test_report_json_shape(self):
        doc = loop_vanishing_report(heisenberg(), 2).to_json()
        assert doc["schema"] == 1 and doc["all_vanish"] is True


def reference_loop_vanishing_report(c, max_n):
    """loop_vanishing_report before graph types: every labelled loop graph
    is compiled on its own.  Kept as the oracle of the pass over types."""
    pi = half_poisson(c)
    report = LoopReport(max_n)
    for n in range(2, max_n + 1):
        for g in enumerate_graphs(n):
            if not has_directed_cycle(g):
                continue
            report.checked += 1
            if not graph_to_operator(g, pi, n).is_zero():
                report.nonzero.append(format_graph(g))
    return report


def assert_report_matches_reference(c, max_n):
    got = loop_vanishing_report(c, max_n)
    want = reference_loop_vanishing_report(c, max_n)
    assert got.checked == want.checked
    assert got.nonzero == want.nonzero


class TestLoopReportOverTypes:
    @pytest.mark.parametrize("max_n", [2, 3])
    @pytest.mark.parametrize(
        "algebra", [strictly_upper(4), heisenberg(), solvable2()],
        ids=["strictly_upper4", "heisenberg", "solvable2"],
    )
    def test_matches_labelled_walk(self, algebra, max_n):
        assert_report_matches_reference(algebra, max_n)

    def test_dropping_a_type_fails_the_reference(self, monkeypatch):
        # negative control: a pass that misses one loop type is caught
        two_loop, _ = canonical_form(parse_graph("1:(X,2);2:(Y,1)"))
        assert two_loop in {g for g, _ in graph_types(2)}

        def short(n):
            return ((g, orbit) for g, orbit in graph_types(n) if g != two_loop)

        monkeypatch.setattr(dqw.kontsevich, "graph_types", short)
        with pytest.raises(AssertionError):
            assert_report_matches_reference(solvable2(), 2)

    def test_discarded_types_compile_to_zero(self):
        # the loop bin and the aerial in-degree >= 2 bin both vanish on a
        # strictly triangular algebra; the sym-admissible bin does not
        pi = half_poisson(strictly_upper(3))
        survivors = set()
        for n in range(1, 4):
            for g, _ in graph_types(n):
                if not graph_to_operator(g, pi, n).is_zero():
                    survivors.add(g)
                    assert classify(g).sym_admissible, format_graph(g)
        assert survivors

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_loop_types_are_the_loop_graph_types(self, order):
        want = {
            g
            for n in range(2, min(order, 3) + 1)
            for g, _ in graph_types(n)
            if has_directed_cycle(g)
        }
        assert set(loop_types(strictly_upper(4), order)) == want


class TestChainAssembly:
    def test_matches_closed_form_on_heisenberg(self):
        c = heisenberg()
        for n in range(1, 6):
            assert assemble_xn_star_y(c, n, 5) == xn_star_y(c, n, 5)

    def test_matches_closed_form_on_strictly_upper(self):
        c = strictly_upper(4)
        for n in range(1, 4):
            assert assemble_xn_star_y(c, n, 4) == xn_star_y(c, n, 4)

    def test_n_one_is_half_bracket(self):
        c = heisenberg()
        series = assemble_xn_star_y(c, 1, 3)
        x3 = Polynomial.variable(3, 3)
        assert series.coeffs[0] == Polynomial.variable(3, 1) * Polynomial.variable(3, 2)
        assert series.coeffs[1] == x3 * F(1, 2)
        assert series.coeffs[2].is_zero()

    def test_explicit_arguments(self):
        c = strictly_upper(3)
        x = parse_polynomial("x1 + x2", dim=3)
        y = parse_polynomial("x2 - 2*x3", dim=3)
        assert assemble_xn_star_y(c, 2, 4, x=x, y=y) == xn_star_y(c, 2, 4, x=x, y=y)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(KontsevichError):
            assemble_xn_star_y(solvable2(), 2, 3)

    def test_rejects_nonlinear_y(self):
        y = parse_polynomial("x2^2", dim=3)
        with pytest.raises(KontsevichError):
            assemble_xn_star_y(heisenberg(), 2, 3, y=y)

    def test_bookkeeping_identity(self):
        # symmetry(chain_m) * weight(chain_m) * 2^-m is the closed-form
        # Bernoulli coefficient at every order
        for m in range(1, 9):
            ch = chain_graph(m)
            lhs = symmetry_count(ch) * weight_w_computable(ch).weight * F(1, 2**m)
            assert lhs == bernoulli_number(m, "modified") / factorial(m)


class TestPrimeTypeTable:
    def test_low_degree_rows(self):
        table = {format_graph_key(g): om for g, om, _ in prime_type_table(3)}
        assert table["1:(X,Y)"] == F(1, 2)
        assert table["1:(X,Y);2:(X,1)"] == F(1, 12)
        assert table["1:(X,Y);2:(Y,1)"] == F(-1, 12)

    def test_zero_coefficient_types_absent(self):
        # the degree-4 chain carries coefficient 0 and never enters
        graphs = [format_graph_key(g) for g, _, _ in prime_type_table(4)]
        assert "1:(X,Y);2:(X,1);3:(X,2)" not in graphs

    def test_contributing_words_recorded(self):
        rows = {format_graph_key(g): words for g, _, words in prime_type_table(2)}
        assert rows["1:(X,Y);2:(X,1)"] == ("XXY",)
        assert rows["1:(X,Y);2:(Y,1)"] == ("XYY",)

    def test_table_is_algebra_free_and_cached(self):
        assert prime_type_table(3) is prime_type_table(3)

    def test_order_eight_rows_match_integral_engine(self):
        # CBH = Kontsevich: every row the weight engine can normalise has
        # omega = symmetry * weight * 2^-n, with symmetry and the canonical
        # types both from the ordered search
        covered = 0
        for g, omega, _ in prime_type_table(8):
            if g.n > 5:
                continue
            integral = integral_omega(g)
            if integral is None:
                continue
            covered += 1
            assert omega == integral, g
        assert covered == 5

    def test_covered_types_agree_across_sources(self):
        # the Hausdorff omega of every type equals the integral engine's,
        # wherever the engine covers the type
        covered = 0
        for graph, omega, _ in prime_type_table(4):
            integral = integral_omega(graph)
            if integral is not None:
                covered += 1
                assert omega == integral, graph
        assert covered == 5


def format_graph_key(g):
    from dqw.graphs import format_graph

    return format_graph(g)


class TestLoopTypes:
    def test_loop_types_all_zero(self):
        c = heisenberg()
        pi = half_poisson(c)
        types = loop_types(c, 4)
        assert len(types) == 34
        assert {g.n for g in types} == {2, 3}
        for g in types:
            assert has_directed_cycle(g) and canonical_form(g)[0] == g
            assert graph_to_operator(g, pi, g.n).is_zero()

    def test_order_caps_the_vertex_count(self):
        assert {g.n for g in loop_types(heisenberg(), 2)} == {2}
        assert loop_types(heisenberg(), 1) == []

    def test_rejects_non_nilpotent(self):
        with pytest.raises(KontsevichError, match="strictly increasing"):
            loop_types(solvable2(), 3)

    def test_surviving_loop_type_is_refused(self, monkeypatch):
        # negative control: past the guard, solvable2's two-loop survives,
        # and both the check and the build that runs it refuse the algebra
        c = solvable2()
        monkeypatch.setattr(type(c), "is_triangular_nilpotent", lambda self: True)
        with pytest.raises(KontsevichError, match="does not vanish"):
            loop_types(c, 3)
        with pytest.raises(KontsevichError, match="does not vanish"):
            assemble_linear_star(c, 3)


class TestAssembledStar:
    def test_equals_cbh_and_uea_on_heisenberg(self):
        c = heisenberg()
        asm = assemble_linear_star(c, 4)
        assert check_equivalence(asm.star, cbh_product(c, 4), degree_bound=3).ok
        assert check_equivalence(asm.star, uea_product(c, 4), degree_bound=3).ok

    def test_equals_cbh_on_strictly_upper(self):
        c = strictly_upper(3)
        asm = assemble_linear_star(c, 4)
        assert check_equivalence(asm.star, cbh_product(c, 4), degree_bound=3).ok

    def test_operator_identical_to_cbh_operator(self):
        # not just extensionally equal: the compiled-and-summed operator has
        # exactly the same terms as the bracket-contraction route
        c = strictly_upper(3)
        asm = assemble_linear_star(c, 4)
        assert asm.star.operator == cbh_product(c, 4).operator

    def test_product_name_and_defining_properties(self):
        c = heisenberg()
        star = assemble_linear_star(c, 3).star
        assert star.name == "kontsevich"
        f = parse_polynomial("x1*x2", dim=3)
        g = parse_polynomial("x2 + x3", dim=3)
        series = star.on_polynomials(f, g)
        assert series.coeffs[0] == f * g
        pi = linear_poisson(c)
        anti = star.on_polynomials(g, f)
        assert series.coeffs[1] - anti.coeffs[1] == pi.poisson_bracket(f, g)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(KontsevichError):
            assemble_linear_star(solvable2(), 3)
