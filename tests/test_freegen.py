from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from fin2cat import freegen
from fin2cat.errors import (
    BoundaryMismatch,
    MalformedWord,
    ParallelismViolation,
)
from fin2cat.freegen import (
    DELTA_DOT,
    DELTA_DOT_LAX,
    DELTA_LAX,
    NO_WITHIN_BUDGET,
    YES,
    builtin_computad,
    enumerate_paths,
    make_graph,
    make_path,
    make_word,
    normalize_2cell,
    preorder_leq,
    two_cells_equal,
    validate_computad,
)

from helpers import (
    path_rewrites,
    recursive_enumerate_paths,
    reproved_normalize_2cell,
)


# ---------------------------------------------------------------------------
# test computad: one node, two loops, a relabeling cell and a doubling cell


def loops_computad():
    G = make_graph(
        nodes=["n"],
        edges=["x", "y"],
        src={"x": "n", "y": "n"},
        tgt={"x": "n", "y": "n"},
    )
    return freegen.make_computad(
        base=G,
        cells=["g1", "g2"],
        src={"g1": make_path(G, "n", ["x"]), "g2": make_path(G, "n", ["x"])},
        tgt={"g1": make_path(G, "n", ["y"]), "g2": make_path(G, "n", ["y", "y"])},
    )


def applicable_steps(c, path):
    out = []
    for g in c.cells:
        s = c.src[g]
        k = len(s.edges)
        for pos in range(len(path.edges) - k + 1):
            if (
                tuple(path.edges[pos : pos + k]) == tuple(s.edges)
                and path.node_at(pos) == s.start
            ):
                out.append((pos, g))
    return out


def words_from(c, source, max_steps):
    """All pasting words with at most max_steps steps out of source."""
    out = []

    def go(path, steps):
        out.append(steps)
        if len(steps) == max_steps:
            return
        for pos, g in applicable_steps(c, path):
            w = make_word(c, source, steps + [(pos, g)])
            go(w.target, steps + [(pos, g)])

    go(source, [])
    return [make_word(c, source, s) for s in out]


def interchange_closure(c, word):
    """Oracle: all step sequences reachable from word by single swaps of
    adjacent steps acting on disjoint segments.  Implemented independently
    of the normal form algorithm."""
    meta = {g: (len(c.src[g].edges), len(c.tgt[g].edges)) for g in c.cells}
    start = tuple(word.positions())
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            (p1, g1), (p2, g2) = w[i], w[i + 1]
            k1, t1 = meta[g1]
            k2, t2 = meta[g2]
            if p2 >= p1 + t1:
                swapped = w[:i] + ((p2 - (t1 - k1), g2), (p1, g1)) + w[i + 2 :]
            elif p2 + k2 <= p1:
                swapped = w[:i] + ((p2, g2), (p1 + (t2 - k2), g1)) + w[i + 2 :]
            else:
                continue
            if swapped not in seen:
                seen.add(swapped)
                queue.append(swapped)
    return seen


# ---------------------------------------------------------------------------
# graphs and paths


def test_path_chaining_validated():
    G = builtin_computad(DELTA_DOT_LAX).base
    p = make_path(G, "0", ["d", "d0", "s0"])
    assert p.end == "1"
    assert p.node_at(2) == "2"
    with pytest.raises(MalformedWord):
        make_path(G, "0", ["d0"])
    with pytest.raises(MalformedWord):
        make_path(G, "0", ["d", "s0"])


def test_empty_path():
    G = builtin_computad(DELTA_DOT_LAX).base
    p = make_path(G, "2", [])
    assert p.start == p.end == "2"


def test_enumerate_paths_frozen():
    # From node 0 to node 1 with at most 3 edges there are exactly three
    # paths: d, then d.d0.s0 and d.d1.s0 in name order.
    G = builtin_computad(DELTA_DOT_LAX).base
    ps = enumerate_paths(G, "0", "1", 3)
    assert [list(p.edges) for p in ps] == [
        ["d"],
        ["d", "d0", "s0"],
        ["d", "d1", "s0"],
    ]


def test_enumerate_paths_ordering():
    c = loops_computad()
    ps = enumerate_paths(c.base, "n", "n", 2)
    assert [list(p.edges) for p in ps] == [
        [],
        ["x"],
        ["y"],
        ["x", "x"],
        ["x", "y"],
        ["y", "x"],
        ["y", "y"],
    ]


@st.composite
def small_graphs(draw):
    """At most three nodes and five edges, loops and parallel edges
    allowed; edge names are declared out of sorted order."""
    nodes = [str(i) for i in range(draw(st.integers(1, 3)))]
    names = draw(st.permutations(["v", "w", "x", "y", "z"]))
    edges = names[: draw(st.integers(0, 5))]
    src = {e: draw(st.sampled_from(nodes)) for e in edges}
    tgt = {e: draw(st.sampled_from(nodes)) for e in edges}
    return make_graph(nodes, edges, src, tgt)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.integers(0, 4), st.data())
def test_enumerate_paths_matches_the_recursive_walk(G, max_len, data):
    a = data.draw(st.sampled_from(G.nodes))
    b = data.draw(st.sampled_from(G.nodes))
    got = enumerate_paths(G, a, b, max_len)
    assert got == recursive_enumerate_paths(G, a, b, max_len)


def test_enumerate_paths_matches_the_recursive_walk_on_builtin_shapes():
    for which in (DELTA_DOT_LAX, DELTA_LAX, DELTA_DOT):
        G = builtin_computad(which).base
        for a in G.nodes:
            for b in G.nodes:
                for n in range(5):
                    got = enumerate_paths(G, a, b, n)
                    assert got == recursive_enumerate_paths(G, a, b, n)


def test_enumerate_paths_on_a_long_chain():
    # more edges than the interpreter's default recursion limit
    nodes = ["n%d" % i for i in range(1101)]
    edges = ["e%04d" % i for i in range(1100)]
    G = make_graph(
        nodes, edges, dict(zip(edges, nodes)), dict(zip(edges, nodes[1:]))
    )
    (p,) = enumerate_paths(G, "n0", "n1100", 1100)
    assert p.edges == tuple(edges)
    assert enumerate_paths(G, "n0", "n1100", 1099) == []
    # no path has fewer than no edges
    assert enumerate_paths(G, "n0", "n0", -1) == []


# ---------------------------------------------------------------------------
# builtin computads


def test_builtin_shapes_frozen():
    c = builtin_computad(DELTA_DOT_LAX)
    assert len(c.base.nodes) == 4
    assert len(c.base.edges) == 7
    assert len(c.cells) == 6

    c = builtin_computad(DELTA_LAX)
    assert len(c.base.nodes) == 3
    assert len(c.base.edges) == 6
    assert len(c.cells) == 5
    assert "theta" not in c.cells

    c = builtin_computad(DELTA_DOT)
    assert len(c.base.nodes) == 4
    assert len(c.base.edges) == 7
    assert len(c.cells) == 7
    assert "theta" in c.cells and "theta_op" in c.cells


# the built-in computads as their hand-written constructor gave them:
# nodes, edges, edge endpoints and cells (name, source start and edges,
# target start and edges), all in order, since cell_index drives normal
# forms
_SHAPE_EDGES = [
    ("d0", "1", "2"),
    ("d1", "1", "2"),
    ("s0", "2", "1"),
    ("p0", "2", "3"),
    ("p1", "2", "3"),
    ("p2", "2", "3"),
]
_SHAPE_CELLS = [
    ("sig00", "1", ("d0", "p0"), "1", ("d0", "p1")),
    ("sig20", "1", ("d0", "p2"), "1", ("d1", "p0")),
    ("sig21", "1", ("d1", "p2"), "1", ("d1", "p1")),
    ("n0", "1", (), "1", ("d0", "s0")),
    ("n1", "1", (), "1", ("d1", "s0")),
]
_THETA = ("theta", "0", ("d", "d1"), "0", ("d", "d0"))
_THETA_OP = ("theta_op", "0", ("d", "d0"), "0", ("d", "d1"))
_BUILTIN_PINS = {
    DELTA_LAX: (("1", "2", "3"), _SHAPE_EDGES, _SHAPE_CELLS),
    DELTA_DOT_LAX: (
        ("0", "1", "2", "3"),
        [("d", "0", "1")] + _SHAPE_EDGES,
        _SHAPE_CELLS + [_THETA],
    ),
    DELTA_DOT: (
        ("0", "1", "2", "3"),
        [("d", "0", "1")] + _SHAPE_EDGES,
        _SHAPE_CELLS + [_THETA, _THETA_OP],
    ),
}


@pytest.mark.parametrize("which", sorted(_BUILTIN_PINS))
def test_builtin_computads_match_their_pins_in_order(which):
    nodes, edges, cells = _BUILTIN_PINS[which]
    c = builtin_computad(which)
    G = c.base
    assert G.nodes == nodes
    assert G.edges == tuple(e for e, _, _ in edges)
    assert list(G.src.items()) == [(e, s) for e, s, _ in edges]
    assert list(G.tgt.items()) == [(e, t) for e, _, t in edges]
    assert [
        (g, c.src[g].start, c.src[g].edges, c.tgt[g].start, c.tgt[g].edges)
        for g in c.cells
    ] == cells
    assert c.cell_index == {g[0]: i for i, g in enumerate(cells)}


def test_builtin_unknown_name():
    # a built-in computad is shared once built; an unknown name is refused
    # on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            builtin_computad("NoSuchShape")
    assert builtin_computad(DELTA_DOT) is builtin_computad(DELTA_DOT)


def test_validate_computad_rejects_nonparallel_cell():
    G = make_graph(
        nodes=["a", "b"],
        edges=["e"],
        src={"e": "a"},
        tgt={"e": "b"},
    )
    raw = freegen.Computad(
        base=G,
        cells=["bad"],
        src={"bad": make_path(G, "a", ["e"])},
        tgt={"bad": make_path(G, "a", [])},
    )
    with pytest.raises(ParallelismViolation):
        validate_computad(raw)


# ---------------------------------------------------------------------------
# pasting words


def test_make_word_tracks_boundary():
    c = loops_computad()
    src = make_path(c.base, "n", ["x", "x"])
    w = make_word(c, src, [(1, "g1"), (0, "g2")])
    assert list(w.target.edges) == ["y", "y", "y"]
    assert w.positions() == ((1, "g1"), (0, "g2"))


def test_make_word_rejects_bad_position():
    c = loops_computad()
    src = make_path(c.base, "n", ["x"])
    with pytest.raises(MalformedWord):
        make_word(c, src, [(1, "g1")])
    with pytest.raises(MalformedWord):
        # after g1 the path is y; g2 no longer applies
        make_word(c, src, [(0, "g1"), (0, "g2")])


def test_normalize_is_idempotent_and_boundary_preserving():
    c = loops_computad()
    src = make_path(c.base, "n", ["x", "x"])
    for w in words_from(c, src, 3):
        n = normalize_2cell(w)
        assert n.source == w.source
        assert n.target == w.target
        again = normalize_2cell(n)
        assert again.positions() == n.positions()


def test_normalize_frozen_example():
    # Applying g1 to the two strands of x.x in either order gives the same
    # normal form.
    c = loops_computad()
    src = make_path(c.base, "n", ["x", "x"])
    w1 = make_word(c, src, [(1, "g1"), (0, "g1")])
    w2 = make_word(c, src, [(0, "g1"), (1, "g1")])
    assert normalize_2cell(w1).positions() == ((0, "g1"), (1, "g1"))
    assert normalize_2cell(w2).positions() == ((0, "g1"), (1, "g1"))


def test_two_cells_equal_frozen():
    c = loops_computad()
    src = make_path(c.base, "n", ["x", "x"])
    # g2 on the first strand / g1 on the second, in both orders: equal.
    w1 = make_word(c, src, [(0, "g2"), (2, "g1")])
    w2 = make_word(c, src, [(1, "g1"), (0, "g2")])
    assert two_cells_equal(w1, w2)
    # g2 on the second strand instead: same boundary, not equal.
    w3 = make_word(c, src, [(1, "g2"), (0, "g1")])
    assert w3.target == w1.target
    assert not two_cells_equal(w1, w3)
    assert not two_cells_equal(w2, w3)


def test_two_cells_equal_requires_same_boundary():
    c = loops_computad()
    sx = make_path(c.base, "n", ["x"])
    w1 = make_word(c, sx, [(0, "g1")])
    w2 = make_word(c, sx, [(0, "g2")])
    assert not two_cells_equal(w1, w2)


def test_equality_matches_interchange_closure_oracle():
    c = loops_computad()
    words = []
    for srcedges in ([], ["x"], ["y"], ["x", "x"], ["x", "y"], ["x", "x", "x"]):
        src = make_path(c.base, "n", list(srcedges))
        words.extend(words_from(c, src, 3))
    by_boundary = {}
    for w in words:
        by_boundary.setdefault((w.source, w.target), []).append(w)
    checked = 0
    for group in by_boundary.values():
        for w1 in group:
            closure = interchange_closure(c, w1)
            for w2 in group:
                assert two_cells_equal(w1, w2) == (tuple(w2.positions()) in closure)
                checked += 1
    assert checked > 50


def _loops_words():
    """Every word of at most three steps over the loops computad, out of
    each source of at most three edges."""
    c = loops_computad()
    sources = enumerate_paths(c.base, "n", "n", 3)
    assert len(sources) == 15
    return [w for src in sources for w in words_from(c, src, 3)]


@st.composite
def builtin_words(draw):
    """A word over one of the three built-in computads: a source of at
    most three edges, then up to five steps, each drawn from those that
    apply to the path current at that step."""
    c = builtin_computad(draw(st.sampled_from([DELTA_DOT_LAX, DELTA_LAX, DELTA_DOT])))
    start = draw(st.sampled_from(c.base.nodes))
    source = draw(
        st.sampled_from(
            [p for end in c.base.nodes for p in enumerate_paths(c.base, start, end, 3)]
        )
    )
    steps, path = [], source
    for _ in range(draw(st.integers(0, 5))):
        options = applicable_steps(c, path)
        if not options:
            break
        steps.append(draw(st.sampled_from(options)))
        path = make_word(c, source, steps).target
    return make_word(c, source, steps)


def _assert_normal_form_is_proved(w):
    # the theorem normalize_2cell relies on: its steps compose from w's
    # source, and they end at w's target
    n = normalize_2cell(w)
    proved = make_word(w.computad, w.source, n.positions())
    assert proved.target == n.target == w.target
    assert n.source == w.source


def test_normal_forms_of_enumerated_words_are_proved_words():
    words = _loops_words()
    assert len(words) == 153
    for w in words:
        _assert_normal_form_is_proved(w)


@settings(max_examples=300, deadline=None)
@given(builtin_words())
def test_normal_forms_of_drawn_words_are_proved_words(w):
    _assert_normal_form_is_proved(w)


def test_normal_forms_of_enumerated_words_match_the_reproving_oracle():
    for w in _loops_words():
        assert normalize_2cell(w).positions() == reproved_normalize_2cell(w).positions()


@settings(max_examples=300, deadline=None)
@given(builtin_words())
def test_normal_forms_of_drawn_words_match_the_reproving_oracle(w):
    assert normalize_2cell(w).positions() == reproved_normalize_2cell(w).positions()


def test_normal_forms_and_equality_prove_no_word_again(monkeypatch):
    # make_word proves a word once; its normal form and the equality of
    # two words reorder proved steps, so neither calls it
    c = loops_computad()
    src = make_path(c.base, "n", ["x", "x"])
    w1 = make_word(c, src, [(0, "g2"), (2, "g1")])
    w2 = make_word(c, src, [(1, "g1"), (0, "g2")])
    calls = []

    def counted(*args):
        calls.append(args)
        return make_word(*args)

    monkeypatch.setattr(freegen, "make_word", counted)
    assert normalize_2cell(w2).positions() == ((0, "g2"), (2, "g1"))
    assert calls == []
    assert two_cells_equal(w1, w2)
    assert calls == []
    # a step is its (position, generator) pair, no path
    assert w2.steps == ((1, "g1"), (0, "g2"))


# ---------------------------------------------------------------------------
# preorder on parallel paths


def test_preorder_reflexive():
    c = builtin_computad(DELTA_DOT_LAX)
    f = make_path(c.base, "0", ["d"])
    assert preorder_leq(c, f, f) == YES


def test_preorder_unit_rewrites():
    c = builtin_computad(DELTA_DOT_LAX)
    f = make_path(c.base, "0", ["d"])
    g0 = make_path(c.base, "0", ["d", "d0", "s0"])
    g1 = make_path(c.base, "0", ["d", "d1", "s0"])
    assert preorder_leq(c, f, g0) == YES
    assert preorder_leq(c, f, g1) == YES
    assert preorder_leq(c, g0, f) == NO_WITHIN_BUDGET
    assert preorder_leq(c, g1, f, budget=2000) == NO_WITHIN_BUDGET


def test_preorder_theta_direction():
    c = builtin_computad(DELTA_DOT)
    dd1 = make_path(c.base, "0", ["d", "d1"])
    dd0 = make_path(c.base, "0", ["d", "d0"])
    # with both theta and theta_op the two composites are equivalent
    assert preorder_leq(c, dd1, dd0) == YES
    assert preorder_leq(c, dd0, dd1) == YES
    # without theta_op only one direction rewrites
    cl = builtin_computad(DELTA_DOT_LAX)
    assert preorder_leq(cl, dd1, dd0) == YES
    assert preorder_leq(cl, dd0, dd1, budget=500) == NO_WITHIN_BUDGET


def test_preorder_rejects_nonparallel():
    c = builtin_computad(DELTA_DOT_LAX)
    f = make_path(c.base, "0", ["d"])
    g = make_path(c.base, "0", ["d", "d0"])
    with pytest.raises(BoundaryMismatch):
        preorder_leq(c, f, g)


def test_preorder_skips_the_search_for_a_shorter_target(monkeypatch):
    # no cell of DeltaDotLax has a source longer than its target, so no
    # rewrite shortens a path: a shorter g is refused without one rewrite
    # step, whatever the budget
    c = builtin_computad(DELTA_DOT_LAX)
    assert all(len(c.src[g].edges) <= len(c.tgt[g].edges) for g in c.cells)
    calls = []
    rewrites = freegen._rewrites

    def counted(*args):
        calls.append(args)
        # a search toward a shorter target never ends at this budget, so
        # stop it at its first step
        assert searching, "searched for a shorter target"
        return rewrites(*args)

    monkeypatch.setattr(freegen, "_rewrites", counted)
    searching = False
    for f, g in (
        (["d", "d0", "s0", "d0"], ["d", "d0"]),
        (["d", "d0", "s0", "d1"], ["d", "d1"]),
        (["d", "d1", "s0"], ["d"]),
    ):
        f, g = make_path(c.base, "0", f), make_path(c.base, "0", g)
        assert preorder_leq(c, f, g, budget=10**9) == NO_WITHIN_BUDGET
    assert calls == []
    # a target as long as the start is still searched for
    searching = True
    dd1 = make_path(c.base, "0", ["d", "d1"])
    dd0 = make_path(c.base, "0", ["d", "d0"])
    assert preorder_leq(c, dd1, dd0) == YES
    assert len(calls) == 1


def test_preorder_budget_counts_visited_words():
    c = loops_computad()
    f = make_path(c.base, "n", ["x"])
    g = make_path(c.base, "n", ["y", "y", "y"])  # unreachable: g2 then g1s
    # x -> y (g1) or x -> y.y (g2); nothing rewrites y, so the space is
    # tiny and exploration terminates long before the default budget.
    assert preorder_leq(c, f, g) == NO_WITHIN_BUDGET
    assert preorder_leq(c, f, g, budget=1) == NO_WITHIN_BUDGET


def _all_paths(G, max_len):
    """Every (start, edge tuple) path of G with at most max_len edges."""
    out = []
    stack = [(x, x, ()) for x in G.nodes]
    while stack:
        start, at, edges = stack.pop()
        out.append((start, edges))
        if len(edges) < max_len:
            for e in G.edges:
                if G.src[e] == at:
                    stack.append((start, G.tgt[e], edges + (e,)))
    return out


@pytest.mark.parametrize("which", [DELTA_DOT_LAX, DELTA_DOT, DELTA_LAX])
def test_rewrites_match_the_path_oracle(which):
    c = builtin_computad(which)
    shapes = freegen._cell_shapes(c)
    paths = _all_paths(c.base, 6)
    assert len(paths) > 100
    for start, edges in paths:
        got = list(freegen._rewrites(shapes, c.base.tgt, start, edges))
        assert got == list(path_rewrites(c, start, edges)), (start, edges)


# ---------------------------------------------------------------------------
# refusals at the trust boundary, each with its exception and message


def _other_graph():
    return make_graph(nodes=["m"], edges=["z"], src={"z": "m"}, tgt={"z": "m"})


def _computad_on_loops(cells, src, tgt):
    return freegen.Computad(loops_computad().base, cells, src, tgt)


def _loop(*edges):
    return make_path(loops_computad().base, "n", list(edges))


_REFUSALS = {
    "make_graph src/tgt": (
        lambda: make_graph(["n"], ["x"], {"x": "n"}, {}),
        MalformedWord,
        "src/tgt must be defined on exactly the edges",
    ),
    "validate_computad duplicate cells": (
        lambda: validate_computad(_computad_on_loops(["g", "g"], {"g": _loop("x")}, {"g": _loop("y")})),
        ParallelismViolation,
        "duplicate cell names",
    ),
    "validate_computad coverage": (
        lambda: validate_computad(_computad_on_loops(["g"], {"g": _loop("x")}, {})),
        ParallelismViolation,
        "cell boundaries must cover exactly the cells",
    ),
    "validate_computad foreign path": (
        lambda: validate_computad(
            _computad_on_loops(["g"], {"g": make_path(_other_graph(), "m", ["z"])}, {"g": _loop("y")})
        ),
        ParallelismViolation,
        "cell 'g' boundary is not a base path",
    ),
    "make_word graph": (
        lambda: make_word(loops_computad(), make_path(_other_graph(), "m", ["z"]), []),
        MalformedWord,
        "source path lives on a different graph",
    ),
    "make_word generator": (
        lambda: make_word(loops_computad(), _loop("x"), [(0, "g9")]),
        MalformedWord,
        "unknown 2-cell generator 'g9'",
    ),
    "preorder_leq graph": (
        lambda: preorder_leq(loops_computad(), make_path(_other_graph(), "m", ["z"]), _loop("x")),
        BoundaryMismatch,
        "paths live on a different graph",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_freegen_refusals_are_pinned(case):
    call, kind, message = _REFUSALS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message
