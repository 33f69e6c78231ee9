"""Admissible diagrams: two ground vertices X, Y plus n aerial vertices,
each aerial vertex carrying an ordered pair of edges to distinct targets.

Targets are encoded as ints: GROUND_X = -2, GROUND_Y = -1, aerial vertices
1..n.  Natural int order therefore gives the target order X < Y < 1 < ... < n
used for lexicographic enumeration and canonical forms.

Text form: "1:(X,Y);2:(X,1)" (the empty string is the vertex-free unit graph).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Sequence

from .poly import MAX_DIGITS

GROUND_X = -2
GROUND_Y = -1

__all__ = [
    "GROUND_X",
    "GROUND_Y",
    "AdmissibleGraph",
    "GraphClass",
    "GraphError",
    "classify",
    "has_directed_cycle",
    "enumerate_graphs",
    "graph_types",
    "graph_orbit",
    "graph_product",
    "factorize",
    "decompose_nonloop",
    "rebuild_from_peel",
    "build_w_computable",
    "chain_graph",
    "symmetry_count",
    "canonical_form",
    "mirror",
    "flip_edges",
    "is_disjoint_binary_forest",
    "parse_graph",
    "format_graph",
    "to_dot",
]


class GraphError(ValueError):
    pass


EdgePair = tuple[int, int]


@dataclass(frozen=True)
class AdmissibleGraph:
    edges: tuple[EdgePair, ...]

    def __post_init__(self):
        n = len(self.edges)
        for k, pair in enumerate(self.edges, start=1):
            if len(pair) != 2:
                raise GraphError(f"vertex {k}: edge pair must have two targets")
            a, b = pair
            for t in pair:
                if not (t in (GROUND_X, GROUND_Y) or 1 <= t <= n):
                    raise GraphError(f"vertex {k}: target {t} out of range")
                if t == k:
                    raise GraphError(f"vertex {k}: self-loop")
            if a == b:
                raise GraphError(f"vertex {k}: the two edge targets must differ")

    @classmethod
    def _unchecked(cls, edges: tuple[EdgePair, ...]) -> "AdmissibleGraph":
        """The graph with these edges, not validated: only for edges that a
        map known to keep a valid graph valid built from one."""
        g = object.__new__(cls)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def n(self) -> int:
        return len(self.edges)

    def aerial_targets(self, k: int) -> list[int]:
        return [t for t in self.edges[k - 1] if t >= 1]

    def in_degree(self, k: int) -> int:
        return sum(1 for pair in self.edges for t in pair if t == k)

    def __repr__(self):
        return f"AdmissibleGraph({format_graph(self)!r})"


UNIT_GRAPH = AdmissibleGraph(())


@dataclass(frozen=True)
class GraphClass:
    loop: bool
    prime: bool
    sym_admissible: bool
    lie_admissible: bool
    w_computable: bool


def _shape(g: AdmissibleGraph) -> tuple[list[int], list[int], list[int] | None]:
    """One iterative pass over the aerial edges: (in_degree, component,
    heights), three lists indexed by vertex (index 0 unused).

    It counts in-degrees, joins the two ends of every edge by union-find
    (component[v] is the least vertex of v's aerial component), and counts
    out-degrees down from the sinks: a vertex is done once every vertex it
    points at is done, and its height is then one more than the largest of
    theirs (a sink has height 1).  A countdown that stalls before every
    vertex is done leaves a directed cycle, and heights is then None.
    """
    n = g.n
    in_degree = [0] * (n + 1)
    out_degree = [0] * (n + 1)
    parent = list(range(n + 1))
    sources: list[list[int]] = [[] for _ in range(n + 1)]
    for v, pair in enumerate(g.edges, start=1):
        for t in pair:
            if t > 0:
                in_degree[t] += 1
                out_degree[v] += 1
                sources[t].append(v)
                # union by least label with path halving, so every root is
                # the least vertex of its component
                a, b = v, t
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
    for v in range(1, n + 1):  # parent[v] < v is already a root
        parent[v] = parent[parent[v]]
    heights = [1] * (n + 1)
    done = [v for v in range(1, n + 1) if not out_degree[v]]
    for t in done:  # the list grows as the countdown frees vertices
        above = heights[t] + 1
        for v in sources[t]:
            if heights[v] < above:
                heights[v] = above
            out_degree[v] -= 1
            if not out_degree[v]:
                done.append(v)
    return in_degree, parent, heights if len(done) == n else None


def has_directed_cycle(g: AdmissibleGraph) -> bool:
    """Whether the aerial edges close a directed cycle: the `loop` field of
    `classify`, without the rest of the classification."""
    return _shape(g)[2] is None


def _w_feet(g: AdmissibleGraph) -> bool:
    """Whether g's feet make it integrable, whatever its aerial digraph: at
    least one vertex, exactly one pair (X, Y), every other pair (X, aerial)."""
    base = 0
    for a, b in g.edges:
        if a != GROUND_X:
            return False
        if b == GROUND_Y:
            base += 1
        elif b < 1:
            return False
    return base == 1


def classify(g: AdmissibleGraph) -> GraphClass:
    """The classification, read off one pass over the aerial edges
    (`_shape`): a loop is a stalled countdown from the sinks, a prime graph
    has one aerial component, a symmetric-admissible one has no loop and no
    aerial in-degree above 1, and a w-computable one has no loop and the
    integrable feet of `_w_feet`."""
    in_degree, component, heights = _shape(g)
    loop = heights is None
    prime = max(component) == 1  # every vertex joined to vertex 1
    sym = not loop and max(in_degree) <= 1
    return GraphClass(
        loop=loop,
        prime=prime,
        sym_admissible=sym,
        lie_admissible=sym and prime,
        w_computable=not loop and _w_feet(g),
    )


def is_disjoint_binary_forest(g: AdmissibleGraph) -> bool:
    """Independent structural check: after splitting the grounds into one leaf
    per incoming edge, the aerial vertices must form a disjoint union of binary
    trees (each vertex reachable exactly once from the in-degree-0 roots).

    The deliberate oracle of `classify(g).sym_admissible`, which reads
    in-degrees and the loop test off one pass instead of walking from the
    roots; the tests compare the two, and no library code calls this."""
    roots = [v for v in range(1, g.n + 1) if g.in_degree(v) == 0]
    visits = {v: 0 for v in range(1, g.n + 1)}
    stack = list(roots)
    for r in roots:
        visits[r] += 1
    while stack:
        v = stack.pop()
        if visits[v] > 1:
            return False
        for t in g.aerial_targets(v):
            visits[t] += 1
            if visits[t] > 1:
                return False
            stack.append(t)
    return all(count == 1 for count in visits.values())


def enumerate_graphs(n: int) -> Iterator[AdmissibleGraph]:
    """All admissible graphs with n aerial vertices, in lexicographic order of
    their edge-target tuples (target order X < Y < 1 < ... < n)."""
    if n < 0:
        raise GraphError("n must be >= 0")
    if n == 0:
        yield UNIT_GRAPH
        return
    per_vertex = []
    for k in range(1, n + 1):
        targets = [GROUND_X, GROUND_Y] + [v for v in range(1, n + 1) if v != k]
        pairs = [(a, b) for a in targets for b in targets if a != b]
        pairs.sort()
        per_vertex.append(pairs)
    for combo in itertools.product(*per_vertex):
        yield AdmissibleGraph(tuple(combo))


def graph_types(n: int) -> Iterator[tuple[AdmissibleGraph, int]]:
    """Each type of graph with n aerial vertices once, as (canonical graph,
    orbit size), in order of the canonical edge tuples.

    The orbit of a type under relabellings and edge flips is its
    `symmetry_count` labelled graphs.  Sorting the pairs of one of them
    gives a graph of the same orbit with every pair increasing, and the 2^n
    flips of that graph are distinct, so the orbit holds 2^n labelled graphs
    for each of its increasing ones.  Only the (n(n+1)/2)^n increasing edge
    tuples are canonicalised, 1/2^n of `enumerate_graphs(n)`.
    """
    if n < 0:
        raise GraphError("n must be >= 0")
    per_vertex = []
    for k in range(1, n + 1):
        targets = [GROUND_X, GROUND_Y] + [v for v in range(1, n + 1) if v != k]
        per_vertex.append(list(itertools.combinations(targets, 2)))
    counts: dict[AdmissibleGraph, int] = {}
    for combo in itertools.product(*per_vertex):
        canon, _ = canonical_form(AdmissibleGraph(combo))
        counts[canon] = counts.get(canon, 0) + 1
    for canon in sorted(counts, key=lambda g: g.edges):
        yield canon, counts[canon] << n


def graph_orbit(g: AdmissibleGraph) -> list[AdmissibleGraph]:
    """Every labelled graph of g's type, each once: all relabellings of g
    with every choice of edge flips, in `enumerate_graphs` order."""
    n = g.n
    relabelled = set()
    for perm in itertools.permutations(range(1, n + 1)):
        label = (0,) + perm
        table: list = [None] * n
        for old, pair in enumerate(g.edges, start=1):
            table[label[old] - 1] = tuple(t if t < 0 else label[t] for t in pair)
        relabelled.add(tuple(table))
    orbit = {
        tuple((b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips))
        for edges in relabelled
        for flips in itertools.product((False, True), repeat=n)
    }
    return [AdmissibleGraph(edges) for edges in sorted(orbit)]


def graph_product(a: AdmissibleGraph, b: AdmissibleGraph) -> AdmissibleGraph:
    """Concatenate two graphs over shared grounds; b's aerial labels shift up."""
    shift = a.n

    def lift(t: int) -> int:
        return t + shift if t >= 1 else t

    edges = a.edges + tuple((lift(p), lift(q)) for p, q in b.edges)
    return AdmissibleGraph(edges)


def factorize(g: AdmissibleGraph) -> list[AdmissibleGraph]:
    """Prime components (aerial connectivity classes with their ground feet),
    ordered by smallest original vertex label and relabeled 1..k each.
    Relabelling keeps a valid component valid, so each is built unchecked."""
    components: dict[int, list[int]] = {}  # least vertex -> the sorted component
    for v, root in enumerate(_shape(g)[1][1:], start=1):
        components.setdefault(root, []).append(v)
    factors = []
    for comp in components.values():
        relabel = {old: new for new, old in enumerate(comp, start=1)}
        edges = tuple(
            tuple(relabel[t] if t >= 1 else t for t in g.edges[old - 1])
            for old in comp
        )
        factors.append(AdmissibleGraph._unchecked(edges))
    return factors


def _heights(g: AdmissibleGraph) -> list[int]:
    """Each vertex's height (index 0 unused), from the countdown of `_shape`."""
    heights = _shape(g)[2]
    if heights is None:
        raise GraphError("loop graphs have no height function")
    return heights


def decompose_nonloop(g: AdmissibleGraph) -> list[tuple[int, EdgePair]]:
    """Peel free aerial vertices in order of decreasing height (original labels
    kept; ties broken by smallest label).  Replaying the list in reverse via
    `rebuild_from_peel` reconstructs the graph.

    The heights come from the one pass of `_shape`, whose stalled countdown
    is also the loop test, so a loop graph raises `GraphError` without a
    separate cycle search.  Reference counts confirm that no vertex is
    peeled while an unpeeled one still points at it."""
    heights = _heights(g)
    references = [0] * (g.n + 1)  # edges into each vertex from the unpeeled ones
    for pair in g.edges:
        for t in pair:
            if t > 0:
                references[t] += 1
    peel = []
    for v in sorted(range(1, g.n + 1), key=lambda v: (-heights[v], v)):
        if references[v]:
            raise GraphError(f"internal: vertex {v} peeled while still referenced")
        pair = g.edges[v - 1]
        for t in pair:
            if t > 0:
                references[t] -= 1
        peel.append((v, pair))
    return peel


def rebuild_from_peel(peel: Sequence[tuple[int, EdgePair]]) -> AdmissibleGraph:
    edges: dict[int, EdgePair] = {}
    for v, pair in reversed(peel):
        edges[v] = pair
    if sorted(edges) != list(range(1, len(edges) + 1)):
        raise GraphError("peel does not cover vertices 1..n")
    return AdmissibleGraph(tuple(edges[v] for v in sorted(edges)))


def build_w_computable(concatenations: Sequence[int]) -> AdmissibleGraph:
    """Base wedge on the grounds, then one vertex per entry with feet
    (X, entry); each entry must name an existing aerial vertex."""
    edges: list[EdgePair] = [(GROUND_X, GROUND_Y)]
    for i, target in enumerate(concatenations, start=2):
        if not 1 <= target <= i - 1:
            raise GraphError(f"concatenation target {target} does not exist yet")
        edges.append((GROUND_X, target))
    return AdmissibleGraph(tuple(edges))


def chain_graph(m: int) -> AdmissibleGraph:
    """The m-vertex chain: wedge, then each vertex hooked onto the previous one."""
    if m < 0:
        raise GraphError("m must be >= 0")
    if m == 0:
        return UNIT_GRAPH
    return build_w_computable(list(range(1, m)))


_UNSET = 1 << 30  # an unlabelled target: above every label given so far


def _key_tail(
    edges: Sequence[EdgePair], label: list[int], order: list[int], start: int
) -> tuple[int, ...]:
    """The relabelled, sorted pairs of new vertices start+1, start+2, ...,
    flattened and read up to and including the first unlabelled target."""
    out = []
    for old in order[start:]:
        a, b = edges[old - 1]
        a = a if a < 0 else label[a] or _UNSET
        b = b if b < 0 else label[b] or _UNSET
        if a > b:
            a, b = b, a
        out.append(a)
        if a == _UNSET:
            break
        out.append(b)
        if b == _UNSET:
            break
    return tuple(out)


def _minimal_labellings(g: AdmissibleGraph) -> list[list[int]]:
    """Every relabelling whose sorted edge table is least, each as the list
    mapping old vertex k to its new label at index k (index 0 unused).

    An ordered search: the new labels 1..n are given in turn.  A partial
    labelling's key is its relabelled, sorted pair sequence, read up to and
    including the first target that has no label yet, which counts as above
    every label given so far.  At each level only the children with the
    least key survive.  When the key ends at an unlabelled target, the next
    label goes to that target (to either one when both targets of its pair
    are unlabelled), since any other choice leaves that position larger;
    when the key is complete, any unlabelled vertex may come next.  The
    labellings that survive level n are exactly those the brute force over
    all n! relabellings finds minimal, and they form one coset of the
    automorphism group of the edge-unordered type.
    """
    n, edges = g.n, g.edges
    survivors: list[tuple[list[int], list[int]]] = [([0] * (n + 1), [])]
    start = 0  # first pair of the survivors' shared key that is not final
    for k in range(1, n + 1):
        best: tuple[int, ...] = ()
        kept: list[tuple[list[int], list[int]]] = []
        for label, order in survivors:
            if start < len(order):
                choices = [t for t in edges[order[start] - 1] if t > 0 and not label[t]]
            else:
                choices = [v for v in range(1, n + 1) if not label[v]]
            for v in choices:
                child_label = label.copy()
                child_label[v] = k
                child_order = order + [v]
                tail = _key_tail(edges, child_label, child_order, start)
                if not kept or tail < best:
                    best, kept = tail, [(child_label, child_order)]
                elif tail == best:
                    kept.append((child_label, child_order))
        survivors = kept
        start += (len(best) - 1) // 2 if best[-1] == _UNSET else len(best) // 2
    return [label for label, _ in survivors]


def symmetry_count(g: AdmissibleGraph) -> int:
    """Number of labeled, edge-ordered admissible graphs sharing g's
    topological type: n! 2^n divided by the automorphism count of the
    unlabeled, edge-unordered type.  That count is the number of minimal
    labellings `_minimal_labellings` finds."""
    n = g.n
    if n == 0:
        return 1
    return factorial(n) * 2**n // len(_minimal_labellings(g))


def canonical_form(g: AdmissibleGraph) -> tuple[AdmissibleGraph, int]:
    """Minimal edge tuple over relabelings and edge flips.

    Returns (canonical graph, parity): parity is (-1)^(flips used) for the
    group elements reaching the minimum, or 0 when both parities reach it
    (which forces any flip-antisymmetric quantity on the type to vanish).
    The result is exactly that of trying all n! relabelings, found by the
    ordered search of `_minimal_labellings`.
    """
    n = g.n
    if n == 0:
        return g, 1
    table: list[EdgePair] = []
    parities: set[int] = set()
    for label in _minimal_labellings(g):
        table = [None] * n  # type: ignore[list-item]
        flips = 0
        for old, (a, b) in enumerate(g.edges, start=1):
            a = a if a < 0 else label[a]
            b = b if b < 0 else label[b]
            if a > b:
                a, b = b, a
                flips += 1
            table[label[old] - 1] = (a, b)
        parities.add((-1) ** flips)
    sign = parities.pop() if len(parities) == 1 else 0
    return AdmissibleGraph(tuple(table)), sign


def mirror(g: AdmissibleGraph) -> tuple[AdmissibleGraph, int]:
    """Swap the two grounds; the weight picks up (-1)^n.  Swapping keeps a
    valid graph valid, so the result is built unchecked."""
    swap = {GROUND_X: GROUND_Y, GROUND_Y: GROUND_X}
    edges = tuple(tuple(swap.get(t, t) for t in pair) for pair in g.edges)
    return AdmissibleGraph._unchecked(edges), (-1) ** g.n


def flip_edges(g: AdmissibleGraph, vertices: Sequence[int]) -> tuple[AdmissibleGraph, int]:
    """Swap the ordered edge pair at each listed vertex; each flip is a -1.
    Reordering a pair keeps a valid graph valid, so only the listed vertices
    are checked and the result is built unchecked."""
    chosen = set(vertices)
    for v in chosen:
        if not 1 <= v <= g.n:
            raise GraphError(f"vertex {v} out of range")
    edges = tuple(
        (pair[1], pair[0]) if k in chosen else pair
        for k, pair in enumerate(g.edges, start=1)
    )
    return AdmissibleGraph._unchecked(edges), (-1) ** len(chosen)


# -- text and dot forms ------------------------------------------------------

_VERTEX_RE = re.compile(r"^(\d+):\(([^,()]+),([^,()]+)\)$")


def _target_to_text(t: int) -> str:
    if t == GROUND_X:
        return "X"
    if t == GROUND_Y:
        return "Y"
    return str(t)


def _int_from_text(s: str) -> int:
    if len(s) > MAX_DIGITS:
        raise GraphError(f"label longer than {MAX_DIGITS} digits")
    return int(s)


def _target_from_text(s: str) -> int:
    s = s.strip()
    if s == "X":
        return GROUND_X
    if s == "Y":
        return GROUND_Y
    if s.isdecimal():
        return _int_from_text(s)
    raise GraphError(f"bad edge target {s!r}")


def format_graph(g: AdmissibleGraph) -> str:
    return ";".join(
        f"{k}:({_target_to_text(a)},{_target_to_text(b)})"
        for k, (a, b) in enumerate(g.edges, start=1)
    )


def parse_graph(text: str) -> AdmissibleGraph:
    text = text.strip()
    if not text:
        return UNIT_GRAPH
    entries = {}
    for chunk in text.split(";"):
        chunk = chunk.strip().replace(" ", "")
        m = _VERTEX_RE.match(chunk)
        if not m:
            raise GraphError(f"bad vertex entry {chunk!r} (expected k:(a,b))")
        k = _int_from_text(m.group(1))
        if k in entries:
            raise GraphError(f"vertex {k} listed twice")
        entries[k] = (_target_from_text(m.group(2)), _target_from_text(m.group(3)))
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise GraphError("vertex labels must cover 1..n")
    return AdmissibleGraph(tuple(entries[k] for k in sorted(entries)))


def to_dot(g: AdmissibleGraph) -> str:
    lines = ["digraph admissible {"]
    lines.append('  X [shape=box];')
    lines.append('  Y [shape=box];')
    lines.append("  { rank=sink; X; Y; }")
    for k in range(1, g.n + 1):
        lines.append(f"  v{k} [shape=circle, label=\"{k}\"];")
    for k, (a, b) in enumerate(g.edges, start=1):
        for target, style in ((a, "solid"), (b, "dashed")):
            name = _target_to_text(target)
            node = name if target < 0 else f"v{name}"
            lines.append(f"  v{k} -> {node} [style={style}];")
    lines.append("}")
    return "\n".join(lines)
