"""Graphs, free path categories, computads, and pasting words.

A computad is a graph with named 2-cell generators between parallel paths.
A pasting word is a sequence of whiskered generator applications, each a
(position, generator) step; make_word proves the steps compose, once, where
they come in.  Two words denote the same 2-cell of the free structure iff
one can be turned into the other by swapping adjacent steps that act on
disjoint segments.  We decide that by computing a canonical normal form:
repeatedly extract the step that can be commuted to the front with the
smallest (position, generator) key.  A swap keeps a word composable and
its target fixed, so the normal form is not proved again; a test proves
that theorem once.

The three-level shape (SHAPE_EDGES, SHAPE_CELLS) and the dot below it
(DOT_EDGES, DOT_CELLS) are written here once: the built-in computads are
built from them, and deltadiag types its diagrams, its dot extensions
and, read upward, codescent data by them.

>>> c = builtin_computad(DELTA_DOT_LAX)
>>> [list(p.edges) for p in enumerate_paths(c.base, "0", "1", 3)]
[['d'], ['d', 'd0', 's0'], ['d', 'd1', 's0']]
"""

import functools
from collections import deque

from .errors import BoundaryMismatch, MalformedWord, ParallelismViolation

YES = "Yes"
NO_WITHIN_BUDGET = "NoWithinBudget"
# the paths preorder_leq visits at most, unless told otherwise
SEARCH_BUDGET = 10000

DELTA_DOT_LAX = "DeltaDotLax"
DELTA_LAX = "DeltaLax"
DELTA_DOT = "DeltaDot"


class Graph:
    def __init__(self, nodes, edges, src, tgt):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.src = dict(src)
        self.tgt = dict(tgt)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.edges == other.edges
            and self.src == other.src
            and self.tgt == other.tgt
        )

    def __repr__(self):
        return "Graph(%d nodes, %d edges)" % (len(self.nodes), len(self.edges))


def make_graph(nodes, edges, src, tgt):
    nodes, edges = list(nodes), list(edges)
    node_set, edge_set = set(nodes), set(edges)
    if len(node_set) != len(nodes) or len(edge_set) != len(edges):
        raise MalformedWord("duplicate node or edge identifiers")
    if set(src) != edge_set or set(tgt) != edge_set:
        raise MalformedWord("src/tgt must be defined on exactly the edges")
    for e in edges:
        if src[e] not in node_set or tgt[e] not in node_set:
            raise MalformedWord("edge %r has endpoint outside nodes" % e)
    return Graph(nodes, edges, src, tgt)


class Path:
    """A directed path: a start node and a chained edge sequence."""

    def __init__(self, graph, start, edges):
        self.graph = graph
        self.start = start
        self.edges = tuple(edges)

    @property
    def end(self):
        return self.graph.tgt[self.edges[-1]] if self.edges else self.start

    def node_at(self, i):
        """The node reached after the first i edges."""
        return self.start if i == 0 else self.graph.tgt[self.edges[i - 1]]

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return (
            self.start == other.start
            and self.edges == other.edges
            and self.graph == other.graph
        )

    def __hash__(self):
        return hash((self.start, self.edges))

    def __repr__(self):
        return "Path(%s: %s)" % (self.start, ".".join(self.edges) or "empty")


def make_path(graph, start, edges):
    if start not in graph.nodes:
        raise MalformedWord("path start %r is not a node" % start)
    at = start
    for e in edges:
        if e not in graph.src:
            raise MalformedWord("unknown edge %r" % e)
        if graph.src[e] != at:
            raise MalformedWord(
                "edge %r starts at %r, expected %r" % (e, graph.src[e], at)
            )
        at = graph.tgt[e]
    return Path(graph, start, edges)


def enumerate_paths(G, a, b, max_len):
    """All paths from a to b with at most max_len edges, shortest first and
    in edge-name order within a length.  Walks depth first with an
    explicit stack, over the out-edges of each node listed once."""
    out = {}
    for e in G.edges:
        out.setdefault(G.src[e], []).append(e)
    found = []
    stack = [(a, ())] if max_len >= 0 else []
    while stack:
        at, es = stack.pop()
        if at == b:
            found.append(es)
        if len(es) < max_len:
            stack += [(G.tgt[e], es + (e,)) for e in out.get(at, ())]
    found.sort(key=lambda es: (len(es), es))
    return [Path(G, a, es) for es in found]


class Computad:
    """A graph plus named 2-cell generators between parallel paths."""

    def __init__(self, base, cells, src, tgt):
        self.base = base
        self.cells = tuple(cells)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.cell_index = {g: i for i, g in enumerate(self.cells)}

    def __eq__(self, other):
        if not isinstance(other, Computad):
            return NotImplemented
        return (
            self.base == other.base
            and self.cells == other.cells
            and self.src == other.src
            and self.tgt == other.tgt
        )

    def __repr__(self):
        return "Computad(%r, %d cells)" % (self.base, len(self.cells))


def validate_computad(c):
    """Check a computad's cells are named paths with matching endpoints.

    Returns the computad unchanged on success.
    """
    if len(set(c.cells)) != len(c.cells):
        raise ParallelismViolation("duplicate cell names")
    if set(c.src) != set(c.cells) or set(c.tgt) != set(c.cells):
        raise ParallelismViolation("cell boundaries must cover exactly the cells")
    for g in c.cells:
        s, t = c.src[g], c.tgt[g]
        for p in (s, t):
            if not isinstance(p, Path) or p.graph != c.base:
                raise ParallelismViolation("cell %r boundary is not a base path" % g)
            make_path(c.base, p.start, p.edges)  # re-check chaining
        if s.start != t.start or s.end != t.end:
            raise ParallelismViolation(
                "cell %r has non-parallel boundary: %r vs %r" % (g, s, t)
            )
    return c


def make_computad(base, cells, src, tgt):
    return validate_computad(Computad(base, cells, src, tgt))


# The three-level shape, written once: each edge's source and target node,
# and each comparison cell's source and target as a path of edges from
# node 1 (the empty path is the identity at node 1).  deltadiag names its
# faces and cells after these.
SHAPE_EDGES = {
    "d0": ("1", "2"),
    "d1": ("1", "2"),
    "s0": ("2", "1"),
    "p0": ("2", "3"),
    "p1": ("2", "3"),
    "p2": ("2", "3"),
}
SHAPE_CELLS = {
    "sig00": (("d0", "p0"), ("d0", "p1")),
    "sig20": (("d0", "p2"), ("d1", "p0")),
    "sig21": (("d1", "p2"), ("d1", "p1")),
    "n0": ((), ("d0", "s0")),
    "n1": ((), ("d1", "s0")),
}
# the dot below the shape: an edge d: 0 -> 1 and cells from node 0, of
# which each built-in computad takes the first _DOTS[which]; deltadiag
# types a dot extension's Dd and Dtheta by d and theta
DOT_EDGES = {"d": ("0", "1")}
DOT_CELLS = {
    "theta": (("d", "d1"), ("d", "d0")),
    "theta_op": (("d", "d0"), ("d", "d1")),
}
_DOTS = {DELTA_LAX: 0, DELTA_DOT_LAX: 1, DELTA_DOT: 2}


@functools.cache
def builtin_computad(which):
    """The three built-in shape computads.

    DeltaDotLax: nodes 0..3, an edge d: 0 -> 1 below the three-level shape
    (d0, d1: 1 -> 2, s0: 2 -> 1, p0, p1, p2: 2 -> 3) with comparison cells
    sig00, sig20, sig21, unit cells n0, n1, and theta: d.d1 => d.d0.
    DeltaLax: the restriction to nodes 1..3 (no d, no theta).
    DeltaDot: DeltaDotLax plus the reverse cell theta_op: d.d0 => d.d1.

    Each is built and validated once per process and then shared by every
    caller, so the computad, its graph and its paths are immutable values:
    no caller may change them.  An unknown name raises ValueError on every
    call.
    """
    if which not in _DOTS:
        raise ValueError("unknown builtin computad %r" % which)
    dots = list(DOT_CELLS.items())[: _DOTS[which]]
    edges = (DOT_EDGES if dots else {}) | SHAPE_EDGES
    G = make_graph(
        ["0"] * bool(dots) + ["1", "2", "3"],
        edges,
        {e: ends[0] for e, ends in edges.items()},
        {e: ends[1] for e, ends in edges.items()},
    )
    cells = {g: ("1",) + sides for g, sides in SHAPE_CELLS.items()}
    cells.update((g, ("0",) + sides) for g, sides in dots)
    return make_computad(
        G,
        cells,
        {g: make_path(G, at, s) for g, (at, s, _) in cells.items()},
        {g: make_path(G, at, t) for g, (at, _, t) in cells.items()},
    )


class PastingWord:
    """A composable sequence of whiskered 2-cell generator applications.

    Each step is a (position, generator) pair: the generator's source
    segment starts `position` edges into the path current at that step,
    and the step replaces it by the generator's target.  make_word proves
    a word composable and builds its target; normalize_2cell reorders the
    steps of a proved word without proving it again.
    """

    def __init__(self, computad, source, target, steps):
        self.computad = computad
        self.source = source
        self.target = target
        self.steps = tuple(steps)

    def positions(self):
        """The steps as (position, generator) pairs."""
        return self.steps

    def __repr__(self):
        return "PastingWord(%r => %r, %d steps)" % (
            self.source,
            self.target,
            len(self.steps),
        )


def make_word(computad, source, steps):
    """Build a pasting word from a source path and (position, generator)
    pairs: the one proof that the steps compose, and the one place a
    word's target is computed."""
    if source.graph != computad.base:
        raise MalformedWord("source path lives on a different graph")
    cur = source
    pairs = []
    for pos, g in steps:
        if g not in computad.cell_index:
            raise MalformedWord("unknown 2-cell generator %r" % g)
        s = computad.src[g]
        k = len(s.edges)
        if pos < 0 or pos + k > len(cur.edges):
            raise MalformedWord("step (%r, %r) falls outside the path" % (pos, g))
        if tuple(cur.edges[pos : pos + k]) != s.edges or cur.node_at(pos) != s.start:
            raise MalformedWord(
                "generator %r does not match the path at position %r" % (g, pos)
            )
        pairs.append((pos, g))
        edges = cur.edges[:pos] + computad.tgt[g].edges + cur.edges[pos + k :]
        cur = Path(computad.base, cur.start, edges)
    return PastingWord(computad, source, cur, pairs)


def _extract_to_front(lens, steps, j):
    """Try to commute step j to the front of the step list.

    steps are (position, generator) pairs, positions taken in the path
    current at each step; lens maps each generator to its (source length,
    target length).  Returns (front position, remaining steps) or None
    when some earlier step overlaps.  Swapping over an earlier step shifts
    whichever of the two acts further right by the other's length
    difference.
    """
    pos, g = steps[j]
    kc, tc = lens[g]
    moved = []
    for p, h in reversed(steps[:j]):
        ko, to = lens[h]
        if pos >= p + to:
            pos -= to - ko
            moved.append((p, h))
        elif pos + kc <= p:
            moved.append((p + tc - kc, h))
        else:
            return None
    return pos, moved[::-1] + steps[j + 1 :]


def normalize_2cell(w):
    """The canonical representative of w's interchange class.

    Greedily pulls to the front, among the steps that can be commuted
    there, the one with the least (front position, generator index) key;
    repeats on the remainder.  Each swap keeps the word composable and
    its target fixed, so the result is w's boundary with the reordered
    steps and make_word is not run again (tests/test_freegen.py proves
    that once, on every word it enumerates or draws).
    """
    c = w.computad
    lens = {g: (len(c.src[g].edges), len(c.tgt[g].edges)) for g in c.cells}
    rest = list(w.steps)
    out = []
    while rest:
        best = None
        for j, (_, g) in enumerate(rest):
            got = _extract_to_front(lens, rest, j)
            if got is None:
                continue
            # smaller front position wins; declaration order breaks ties
            fp, newrest = got
            key = (fp, c.cell_index[g], j)
            if best is None or key < best[0]:
                best = (key, (fp, g), newrest)
        out.append(best[1])
        rest = best[2]
    return PastingWord(c, w.source, w.target, out)


def two_cells_equal(w1, w2):
    """Whether two pasting words denote the same 2-cell: same computad,
    same boundary, same normal form."""
    if w1.computad != w2.computad:
        return False
    if w1.source != w2.source or w1.target != w2.target:
        return False
    return normalize_2cell(w1).steps == normalize_2cell(w2).steps


def _cell_shapes(c):
    """(source edges, source start, target edges) of each cell of c, in
    declaration order."""
    return [(c.src[g].edges, c.src[g].start, c.tgt[g].edges) for g in c.cells]


def _rewrites(shapes, tgt, start, edges):
    """One-step rewrites of a path (as an edge tuple) by the cell shapes:
    cells in order, then positions ascending.  tgt is the graph's edge
    target map."""
    nodes = (start,) + tuple([tgt[e] for e in edges])
    n = len(edges)
    for s_edges, s_start, t_edges in shapes:
        k = len(s_edges)
        for pos in range(n - k + 1):
            if nodes[pos] == s_start and edges[pos : pos + k] == s_edges:
                yield edges[:pos] + t_edges + edges[pos + k :]


def preorder_leq(c, f, g, budget=SEARCH_BUDGET):
    """Decide whether some pasting 2-cell rewrites f into g.

    Breadth-first search over paths reachable from f by the cells of c.
    Returns YES when g is reached, NO_WITHIN_BUDGET once `budget` distinct
    paths have been visited (or the reachable set is exhausted).  When no
    cell's source is longer than its target, no rewrite shortens a path,
    so a g shorter than f is unreachable and no search is made.
    """
    if f.graph != c.base or g.graph != c.base:
        raise BoundaryMismatch("paths live on a different graph")
    if f.start != g.start or f.end != g.end:
        raise BoundaryMismatch("paths are not parallel: %r vs %r" % (f, g))
    target = g.edges
    if f.edges == target:
        return YES
    shapes, tgt = _cell_shapes(c), c.base.tgt
    if len(target) < len(f.edges) and all(len(s) <= len(t) for s, _, t in shapes):
        return NO_WITHIN_BUDGET
    seen = {f.edges}
    queue = deque([f.edges])
    while queue:
        cur = queue.popleft()
        for nxt in _rewrites(shapes, tgt, f.start, cur):
            if nxt == target:
                return YES
            if nxt not in seen:
                if len(seen) >= budget:
                    return NO_WITHIN_BUDGET
                seen.add(nxt)
                queue.append(nxt)
    return NO_WITHIN_BUDGET
