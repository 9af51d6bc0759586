"""Presented categories, word-rewriting quotients, Kleisli categories, and
the strictification pipeline.

The Kleisli construction here is a standalone oracle (hom sets are read off
the base category directly); strictify must reproduce it up to isomorphism
through the completely different presentation/rewriting route.
"""

import os
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from fin2cat import codescent, fincat, laxalg
from fin2cat.cli import load
from fin2cat.codescent import (
    FINITE,
    UNDECIDED,
    CodescentData,
    PresentedCategory,
    build_Ay_strict,
    kleisli,
    lax_codescent,
    make_codescent_data,
    quotient_category,
    strictify,
    verify_codescent_universal,
)
from fin2cat.deltadiag import face_composite
from fin2cat.errors import (
    AxiomViolation,
    BoundaryMismatch,
    MalformedWord,
    MonadLawViolation,
)
from fin2cat.laxalg import Monoid, monad_algebra, monoid_two_monad

from helpers import (
    FIXTURES,
    chain3,
    constant_fun,
    hand_codescent_relations,
    proved_cat,
    slicing_normalize,
    slicing_quotient,
    terminal_cat,
    triple_loop_make_fincat,
    tuple_normal_forms,
    walked_presentation_check,
    walked_word_boundary,
    walking_arrow,
    z2_cat,
)
from test_fincat import LAX_MONOIDS, _non_strict_lax_algebras


def triv_universe(C, depth=3):
    M = Monoid(["e"], "e", {("e", "e"): "e"})
    return monoid_two_monad(M, [("C", C)], depth)


def const1_monad(C):
    t = constant_fun(C, C, "1")
    mu = fincat.make_nat(fincat.compose_fun(t, t), t, {"0": "id1", "1": "id1"})
    eta = fincat.make_nat(fincat.identity_fun(C), t, {"0": "u", "1": "id1"})
    return t, mu, eta


def closure_monad(Z):
    t = fincat.make_fun(
        Z,
        Z,
        {"0": "1", "1": "1", "2": "2"},
        {"id0": "id1", "id1": "id1", "id2": "id2",
         "u01": "id1", "u02": "u12", "u12": "u12"},
    )
    mu = fincat.make_nat(
        fincat.compose_fun(t, t), t, {"0": "id1", "1": "id1", "2": "id2"}
    )
    eta = fincat.make_nat(
        fincat.identity_fun(Z), t, {"0": "u01", "1": "id1", "2": "id2"}
    )
    return t, mu, eta


def identity_monad(Z):
    t = fincat.identity_fun(Z)
    ids = {o: Z.identity[o] for o in Z.objects}
    mu = fincat.make_nat(fincat.compose_fun(t, t), t, ids)
    eta = fincat.make_nat(fincat.identity_fun(Z), t, ids)
    return t, mu, eta


def loop_presentation(relations):
    return PresentedCategory(
        ["*"], [("s", "*", "*")], [(l, r, "*") for l, r in relations]
    )


# ---------------------------------------------------------------------------
# presentations and quotients


def test_presentation_rejects_duplicate_generators():
    with pytest.raises(MalformedWord):
        PresentedCategory(["x"], [("f", "x", "x"), ("f", "x", "x")], [])


def test_presentation_rejects_bad_words():
    with pytest.raises(MalformedWord):
        PresentedCategory(["x"], [("f", "x", "x")], [(("g",), (), "x")])
    with pytest.raises(MalformedWord):
        # sides are not parallel: f goes x -> y, the empty word stays at x
        PresentedCategory(
            ["x", "y"], [("f", "x", "y")], [(("f",), (), "x")]
        )
    with pytest.raises(MalformedWord):
        # non-composable chain
        PresentedCategory(
            ["x", "y"], [("f", "x", "y")], [(("f", "f"), ("f",), "x")]
        )


def _words(names, lo, hi):
    return st.lists(st.sampled_from(names), min_size=lo, max_size=hi).map(tuple)


@st.composite
def presentations(draw, wild=None):
    """Objects, generators and relations of a small presentation.  With
    wild (drawn when None), names may repeat, endpoints and anchors may
    fall outside the objects and words may use an unknown generator; the
    objects are always distinct."""
    if wild is None:
        wild = draw(st.booleans())
    objects = ["x", "y", "z"][: draw(st.integers(1, 3))]
    ends = objects + ["w"] if wild else objects
    names = draw(st.lists(st.sampled_from("fghk"), min_size=1, max_size=4))
    if not wild:
        names = list(dict.fromkeys(names))
    gens = [(n, draw(st.sampled_from(ends)), draw(st.sampled_from(ends))) for n in names]
    letters = names + ["q"] if wild else names
    rels = draw(
        st.lists(
            st.tuples(_words(letters, 0, 3), _words(letters, 0, 3), st.sampled_from(ends)),
            max_size=3,
        )
    )
    return objects, gens, rels


@st.composite
def finite_presentations(draw):
    """A presentation like presentations(wild=False), drawn so that its
    quotient is finite: every cycle is bounded.  Each generator runs from
    an object to itself or to a later one, so the only cycles are loops;
    the loops at an object commute, and each loop g has a relation
    g^k = g^j with j < k <= 3.  Up to two drawn relations ride along when
    their sides are parallel."""
    objects = ["x", "y", "z"][: draw(st.integers(1, 3))]
    names = draw(st.lists(st.sampled_from("fghk"), min_size=1, max_size=4))
    names = list(dict.fromkeys(names))
    gens = []
    for n in names:
        i = draw(st.integers(0, len(objects) - 1))
        gens.append((n, objects[i], objects[draw(st.integers(i, len(objects) - 1))]))
    loops = [(n, d) for n, d, c in gens if d == c]
    rels = []
    for n, d in loops:
        k = draw(st.integers(1, 3))
        rels.append(((n,) * k, (n,) * draw(st.integers(0, k - 1)), d))
    rels += [
        ((n1, n2), (n2, n1), d1)
        for i, (n1, d1) in enumerate(loops)
        for n2, d2 in loops[i + 1 :]
        if d1 == d2
    ]
    extra = st.tuples(_words(names, 0, 3), _words(names, 0, 3), st.sampled_from(objects))
    for l, r, at in draw(st.lists(extra, max_size=2)):
        try:
            if walked_word_boundary(objects, gens, l, at) == walked_word_boundary(
                objects, gens, r, at
            ):
                rels.append((l, r, at))
        except MalformedWord:
            pass
    return objects, gens, rels


@settings(max_examples=300, deadline=None)
@given(presentations(), st.lists(st.tuples(_words("fghkq", 0, 4), st.sampled_from("xyzw")), max_size=4))
def test_presentations_match_the_walked_route(case, probes):
    objects, gens, rels = case
    try:
        walked_presentation_check(objects, gens, rels)
    except MalformedWord:
        with pytest.raises(MalformedWord):
            PresentedCategory(objects, gens, rels)
        return
    P = PresentedCategory(objects, gens, rels)
    for word, at in probes:
        try:
            want = walked_word_boundary(objects, gens, word, at)
        except MalformedWord:
            with pytest.raises(MalformedWord):
                P.word_boundary(word, at)
            continue
        assert P.word_boundary(word, at) == want


@settings(max_examples=300, deadline=None)
@given(
    presentations(wild=False),
    st.lists(_words("fghk", 1, 3), max_size=6),
    st.sampled_from([3, 40, 50000]),
)
def test_normal_forms_match_the_tuple_automaton(case, lhss, budget):
    P = PresentedCategory(case[0], case[1], [])
    lhss = [l for l in lhss if set(l) <= set(P.graph.edges)]
    got_trace, want_trace = [], []
    got_meter, want_meter = codescent._Meter(budget), codescent._Meter(budget)
    got = codescent._enumerate_normal_forms(
        P, [P.encode(l) for l in lhss], got_meter, got_trace
    )
    want = tuple_normal_forms(P, lhss, want_meter, want_trace)
    assert (got_trace, got_meter.used) == (want_trace, want_meter.used)
    if want is None:
        assert got is None
        return
    assert [(at, P.decode(w)) for at, w, _ in got] == want
    for at, w, end in got:
        assert (at, end) == walked_word_boundary(P.objects, P.generators, P.decode(w), at)


def test_quotient_of_free_arrow_presentation():
    P = PresentedCategory(["x", "y"], [("f", "x", "y")], [])
    Q = quotient_category(P)
    assert Q.status == FINITE
    assert sorted(Q.category.objects) == ["x", "y"]
    assert sorted(Q.category.morphisms) == ["f", "id[x]", "id[y]"]


def test_quotient_involution_gives_two_morphisms():
    Q = quotient_category(loop_presentation([(("s", "s"), ())]))
    assert Q.status == FINITE
    assert sorted(Q.category.morphisms) == ["id[*]", "s"]
    assert Q.category.compose("s", "s") == "id[*]"


def test_quotient_idempotent_loop():
    Q = quotient_category(loop_presentation([(("s", "s"), ("s",))]))
    assert Q.status == FINITE
    assert sorted(Q.category.morphisms) == ["id[*]", "s"]
    assert Q.category.compose("s", "s") == "s"


def test_quotient_order_three_loop():
    Q = quotient_category(loop_presentation([(("s", "s", "s"), ())]))
    assert Q.status == FINITE
    assert sorted(Q.category.morphisms) == ["id[*]", "s", "s*s"]
    assert Q.category.compose("s*s", "s") == "id[*]"
    assert Q.category.compose("s", "s*s") == "id[*]"


def test_quotient_free_loop_is_undecided():
    Q = quotient_category(loop_presentation([]))
    assert Q.status == UNDECIDED
    assert Q.category is None
    assert any("infinite" in line for line in Q.trace)


def test_quotient_budget_exhaustion_is_undecided():
    Q = quotient_category(loop_presentation([(("s", "s"), ())]), budget=0)
    assert Q.status == UNDECIDED
    assert any("budget" in line for line in Q.trace)


def test_quotient_reverifies_input_relations():
    Q = quotient_category(loop_presentation([(("s", "s"), ()), (("s", "s", "s"), ())]))
    # s^2 = s^3 = id forces s = id
    assert Q.status == FINITE
    assert sorted(Q.category.morphisms) == ["id[*]"]


def test_quotient_normalize_is_exposed():
    Q = quotient_category(loop_presentation([(("s", "s"), ())]))
    assert Q.normalize(("s", "s", "s"), "*") == ("s",)
    assert Q.word_id(("s", "s"), "*") == "id[*]"
    assert Q.word_id(("s",), "*") == "s"


def _chain_presentation(n, loop=False):
    objects = [str(i) for i in range(n + 1)]
    gens = [("g%d" % i, str(i), str(i + 1)) for i in range(n)]
    if loop:
        gens.append(("loop", str(n), str(n)))
    return PresentedCategory(objects, gens, [])


def test_long_chain_runs_out_of_budget_without_recursion_error():
    Q = quotient_category(_chain_presentation(1100), budget=5000)
    assert Q.status == UNDECIDED
    assert Q.trace[-1] == "rewrite budget exhausted while listing normal forms"


def test_long_chain_with_a_loop_is_infinite_without_recursion_error():
    Q = quotient_category(_chain_presentation(1100, loop=True), budget=5000)
    assert Q.status == UNDECIDED
    assert Q.trace[-1] == "normal-form language is infinite (cycle through 'loop')"


def _recursive_normal_forms(P, lhss):
    """Irreducible words in preorder, by plain recursion: each object's
    empty word, then every extension by a generator in declaration order
    that ends in no left-hand side."""
    words = []

    def grow(at, obj, word):
        words.append(codescent._word_id(word, at))
        for name, d, c in P.generators:
            w = word + (name,)
            if d == obj and not any(w[len(w) - len(l) :] == l for l in lhss):
                grow(at, c, w)

    for x in P.objects:
        grow(x, x, ())
    return words


@pytest.mark.parametrize(
    "P",
    [
        loop_presentation([(("s", "s", "s"), ())]),
        PresentedCategory(
            ["*"],
            [("x", "*", "*"), ("y", "*", "*")],
            [(("x", "x"), (), "*"), (("y", "y"), (), "*"),
             (("x", "y", "x"), ("y", "x", "y"), "*")],
        ),
        PresentedCategory(
            ["0", "1", "2"],
            [("f", "0", "1"), ("g", "1", "0"), ("h", "1", "2")],
            [(("f", "g"), (), "0"), (("g", "f"), (), "1")],
        ),
        _chain_presentation(6),
    ],
)
def test_normal_forms_keep_the_recursive_preorder(P):
    Q = quotient_category(P)
    assert Q.status == FINITE
    lhss = [l for l, _ in Q.rules]
    assert list(Q.category.morphisms) == _recursive_normal_forms(P, lhss)


def _random_word(rng, letters, lo, hi):
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _random_rules(rng, letters):
    """Shortlex-oriented rules, so every rewrite sequence ends; some share
    a left-hand side and some left-hand sides contain others."""
    rules = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if rules and roll < 0.2:
            l = rng.choice(rules)[0]
        elif rules and roll < 0.4:
            inner = rng.choice(rules)[0]
            l = _random_word(rng, letters, 0, 2) + inner + _random_word(rng, letters, 0, 2)
        else:
            l = _random_word(rng, letters, 1, 4)
        r = _random_word(rng, letters, 0, len(l))
        if (len(r), r) >= (len(l), l):
            r = r[: len(l) - 1]
        rules.append((l, r))
    return rules


@pytest.mark.parametrize("seed", range(4))
def test_rewriter_matches_the_slicing_rescan(seed):
    rng = random.Random(seed)
    for _ in range(300):
        letters = "".join(chr(i) for i in range(rng.randint(1, 3)))
        rules = _random_rules(rng, letters)
        word = _random_word(rng, letters, 0, 14)
        spent = [0, 0]

        def spend_new():
            spent[0] += 1

        def spend_old():
            spent[1] += 1

        got = codescent._Rewriter(rules).normalize(word, spend_new)
        assert got == slicing_normalize(word, rules, spend_old), (rules, word)
        assert spent[0] == spent[1]


def _one_object_presentation(gens, relations):
    return PresentedCategory(
        ["*"],
        [(g, "*", "*") for g in gens],
        [(tuple(l), tuple(r), "*") for l, r in relations],
    )


def _fixed_presentations():
    out = []
    for n in range(1, 48):
        out.append((_one_object_presentation("x", [("x" * n, "")]), 50000))
    for n in range(4, 16):
        rels = [("r" * n, ""), ("ss", ""), ("srs", "r" * (n - 1))]
        out.append((_one_object_presentation("rs", rels), 50000))
    for k in range(2, 8):
        rels = [("xx", ""), ("yyy", ""), ("xy" * k, "")]
        out.append((_one_object_presentation("xy", rels), 2000))
    for n in (3, 5, 7, 9):
        P = PresentedCategory(
            ["a", "b"],
            [("f", "a", "b"), ("g", "b", "a"), ("x", "a", "a")],
            [(("f", "g"), (), "a"), (("g", "f"), (), "b"), (("x",) * n, (), "a")],
        )
        out.append((P, 50000))
    out.append((_one_object_presentation("x", []), 50000))
    out.append((_one_object_presentation("xy", [("xy", "yx")]), 50000))
    out.append((_chain_presentation(6), 50000))
    return out


def test_quotients_match_the_slicing_route():
    statuses = []
    for P, budget in _fixed_presentations():
        status, trace, rules, morphisms, compose = slicing_quotient(P, budget)
        Q = quotient_category(P, budget)
        assert (Q.status, Q.trace, Q.rules) == (status, trace, rules), P
        if status == FINITE:
            assert list(Q.category.morphisms) == morphisms
            assert list(Q.category.compose_table.items()) == list(compose.items())
        else:
            assert Q.category is None and morphisms is None
        statuses.append(status)
    # (2,3,6) and (2,3,7) run out of budget; the free and the free
    # commutative monoid have infinitely many normal forms
    assert statuses.count(UNDECIDED) == 4


def test_composites_share_the_morphism_ids():
    Q = quotient_category(loop_presentation([(("s",) * 12, ())]))
    names = {id(m) for m in Q.category.morphisms}
    assert len(Q.category.compose_table) == 144
    assert all(id(v) in names for v in Q.category.compose_table.values())


def test_long_cyclic_quotient_spends_its_budget_in_the_table():
    Q = quotient_category(loop_presentation([(("s",) * 1200, ())]), budget=1300)
    assert Q.status == UNDECIDED
    assert Q.trace[1:] == [
        "completed with 1 rules after 0 rewrite applications",
        "found 1200 normal forms",
        "rewrite budget exhausted after 1301 applications",
    ]


def test_completion_charges_the_rule_pairs_it_examines():
    # b c = a c, c a a = b c over {a, b, c}: completion makes few rewrites
    # while the rule pairs it examines for overlaps keep growing, and it
    # ran past 12 s when only rewrites were charged.  Charged once per
    # rule pair too, it ends Undecided within its budget, and both routes
    # run out at the same point
    P = _one_object_presentation("abc", [("bc", "ac"), ("caa", "bc")])
    t0 = time.process_time()
    Q = quotient_category(P, budget=2000)
    assert time.process_time() - t0 <= 2
    assert Q.status == UNDECIDED
    assert Q.trace[1:] == ["rewrite budget exhausted after 2001 applications"]
    assert slicing_quotient(P, 2000)[:3] == (Q.status, Q.trace, Q.rules)


def test_x400_is_finite_at_the_default_budget():
    Q = quotient_category(loop_presentation([(("s",) * 400, ())]))
    assert Q.status == FINITE
    assert len(Q.category.morphisms) == 400
    assert Q.trace[-1] == "re-verified 1 input relations"


def _triangle(k):
    return _one_object_presentation("xy", [("xx", ""), ("yyy", ""), ("xy" * k, "")])


def test_the_triangle_table_normalizes_once_per_normal_form_and_generator(monkeypatch):
    # after completion, listing the 60 normal forms of (2,3,5) and building
    # their table normalizes once per normal form and generator (the
    # all-pairs table normalized each of its 3,600 composites)
    calls = []
    normalize = codescent._Rewriter.normalize
    listing = codescent._enumerate_normal_forms

    def counted(self, word, spend=None):
        calls.append(word)
        return normalize(self, word, spend)

    def listed(*args):
        calls.clear()
        return listing(*args)

    monkeypatch.setattr(codescent._Rewriter, "normalize", counted)
    monkeypatch.setattr(codescent, "_enumerate_normal_forms", listed)
    Q = quotient_category(_triangle(5))
    assert Q.status == FINITE and len(Q.category.morphisms) == 60
    assert len(calls) <= 60 * 2


def _drawn_quotient(case, budget):
    """quotient_category on a drawn presentation, or None when its sides
    are not parallel."""
    try:
        P = PresentedCategory(*case)
    except MalformedWord:
        return None
    return quotient_category(P, budget)


@settings(max_examples=200, deadline=None)
@given(presentations(wild=False), st.sampled_from([30, 300, 2000]))
def test_action_tables_match_the_all_pairs_tables(case, budget):
    Q = _drawn_quotient(case, budget)
    assume(Q is not None)
    status, trace, rules, morphisms, compose = slicing_quotient(Q.presentation, budget)
    assert (Q.status, Q.trace, Q.rules) == (status, trace, rules)
    if status == FINITE:
        assert list(Q.category.morphisms) == morphisms
        assert list(Q.category.compose_table.items()) == list(compose.items())


def _table_args(C):
    return [
        list(C.objects), list(C.morphisms), dict(C.dom), dict(C.cod),
        dict(C.identity), dict(C.compose_table),
    ]


def _generators(Q):
    """The ids of the generators that are normal forms."""
    return [g for g, _, _ in Q.presentation.generators if g in Q.category.dom]


def _outcome(prove, *args):
    try:
        return prove(*args)
    except AxiomViolation as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(finite_presentations(), st.data())
def test_generated_proof_is_sound_on_quotient_tables(case, data):
    Q = _drawn_quotient(case, 2000)
    assume(Q is not None and Q.status == FINITE)
    assume(len(Q.category.compose_table) <= 400)
    args = _table_args(Q.category)
    objects, morphisms, dom, cod, identity, compose = args
    if data.draw(st.booleans()):
        g, f = data.draw(st.sampled_from(sorted(compose)))
        hom = [h for h in morphisms if (dom[h], cod[h]) == (dom[f], cod[g])]
        compose[g, f] = data.draw(st.sampled_from(hom + morphisms + ["zz"]))
    got = _outcome(fincat.make_fincat, *args, _generators(Q))
    if isinstance(got, fincat.FinCat):
        assert triple_loop_make_fincat(*args) == got


@pytest.mark.parametrize("P", [loop_presentation([(("s",) * 10, ())]), _triangle(3)])
def test_moving_one_entry_of_a_quotient_table_is_refused(P):
    # every entry of x^10 and of (2,3,3), moved to every other morphism
    Q = quotient_category(P)
    assert Q.status == FINITE
    args = _table_args(Q.category)
    refused = 0
    for key, h in args[5].items():
        for v in args[1]:
            if v != h:
                moved = dict(args[5])
                moved[key] = v
                got = _outcome(fincat.make_fincat, *args[:5], moved, _generators(Q))
                assert isinstance(got, str), (key, v)
                refused += 1
    n = len(args[1])
    assert refused == n * n * (n - 1)


# ---------------------------------------------------------------------------
# the Kleisli oracle


def test_kleisli_of_identity_monad_is_the_base():
    Z = chain3()
    K = kleisli(Z, *identity_monad(Z))
    assert len(K.objects) == 3 and len(K.morphisms) == 6
    pair = fincat.iso_categories(K, Z)
    assert pair is not None


def test_kleisli_of_const1_monad_is_codiscrete():
    C = walking_arrow()
    K = kleisli(C, *const1_monad(C))
    assert len(K.objects) == 2 and len(K.morphisms) == 4
    for x in K.objects:
        for y in K.objects:
            assert len(K.hom(x, y)) == 1


def test_kleisli_of_closure_monad_frozen_counts():
    Z = chain3()
    K = kleisli(Z, *closure_monad(Z))
    assert len(K.objects) == 3 and len(K.morphisms) == 7
    assert K.hom("2", "0") == () and K.hom("2", "1") == ()
    assert len(K.hom("0", "2")) == 1
    # composite 0 ~> 1 ~> 2 is witnessed by u02
    f = K.hom("0", "1")[0]
    g = K.hom("1", "2")[0]
    assert K.compose(g, f) == "(u02:0->2)"


def test_kleisli_rejects_broken_unit():
    # the swap is a perfectly natural t.t => t for t = id, but it fails the
    # unit law mu . eta_t = id
    Z = z2_cat()
    t = fincat.identity_fun(Z)
    mu = fincat.make_nat(fincat.compose_fun(t, t), t, {"*": "s"})
    eta = fincat.make_nat(fincat.identity_fun(Z), t, {"*": "e"})
    with pytest.raises(MonadLawViolation):
        kleisli(Z, t, mu, eta)


def test_kleisli_checks_mu_boundary():
    Z = chain3()
    t, mu, eta = closure_monad(Z)
    with pytest.raises(BoundaryMismatch):
        kleisli(Z, t, eta, eta)


def _fixture_algebras():
    return [z for fx in sorted(os.listdir(FIXTURES)) for z in load(os.path.join(FIXTURES, fx)).algebras.values()]


def test_kleisli_categories_are_categories():
    # kleisli builds its category without proof once the monad laws
    # hold (Street 1972); make_fincat proves that here once.  All but the
    # Kleisli category of Z/2 are preorders
    Z, C, G = chain3(), walking_arrow(), z2_cat()
    monads = [(Z, identity_monad(Z)), (C, const1_monad(C)), (Z, closure_monad(Z)), (G, identity_monad(G))]
    monads += [(z.Z, z.monad) for z in _fixture_algebras() if hasattr(z, "monad")]
    assert len(monads) == 6
    for Z, monad in monads:
        K = kleisli(Z, *monad)
        assert proved_cat(K) == K


# ---------------------------------------------------------------------------
# codescent data from a lax algebra


def test_free_resolutions_are_codescent_data():
    # build_Ay_strict builds its resolution without make_codescent_data,
    # and Asig20 without identity_cell, as m is 2-natural for a discrete
    # M; both are proved here once, for every algebra of the fixtures
    algebras = _fixture_algebras()
    assert len(algebras) == 6
    for y in algebras:
        A = build_Ay_strict(y.universe, y)
        fields = {f: getattr(A, f) for f in CodescentData.FIELDS}
        assert vars(make_codescent_data(**fields)) == fields
        sides = (face_composite(fields, p, A.A1) for p in codescent._CELLS["Asig20"])
        assert fincat.identity_cell(*sides) == A.Asig20


def test_build_ay_frozen_shapes_for_const1():
    C = walking_arrow()
    U = triv_universe(C)
    y = monad_algebra(U, C, *const1_monad(C))
    A = build_Ay_strict(U, y)
    assert A.A1 == U.T(C)
    assert A.A2 == U.T(U.T(C))
    assert A.Ad0 == U.m(C)
    assert A.Ad1 == U.T_fun(y.a)
    assert A.As0 == U.T_fun(U.eta(C))
    # the nontrivial unit cell is T of the algebra unit
    assert A.An0.at("(e,0)") == "(e,u)"
    assert A.An0.at("(e,1)") == "(e,id1)"
    # An1 is the strict triangle, so an identity
    assert all(A.A1.is_identity(A.An1.at(x)) for x in A.A1.objects)
    # Asig21 is T of the algebra multiplication cell
    assert A.Asig21.at("(e,(e,(e,0)))") == "(e,id1)"
    # both strict-interchange cells are identities
    assert all(A.A1.is_identity(A.Asig00.at(v)) for v in A.A3.objects)
    assert all(A.A1.is_identity(A.Asig20.at(v)) for v in A.A3.objects)


def test_make_codescent_data_validates_boundaries():
    C = walking_arrow()
    U = triv_universe(C)
    y = monad_algebra(U, C, *const1_monad(C))
    A = build_Ay_strict(U, y)
    fields = {f: getattr(A, f) for f in CodescentData.FIELDS}
    bad = dict(fields)
    bad["Ad0"] = fincat.identity_fun(A.A1)
    with pytest.raises(BoundaryMismatch) as err:
        make_codescent_data(**bad)
    assert "Ad0" in str(err.value)
    bad = dict(fields)
    bad["An0"], bad["An1"] = bad["An1"], bad["An0"]
    with pytest.raises(BoundaryMismatch):
        make_codescent_data(**bad)


def test_codescent_data_names_a_missing_field():
    C = walking_arrow()
    U = triv_universe(C)
    A = build_Ay_strict(U, monad_algebra(U, C, *const1_monad(C)))
    for name in CodescentData.FIELDS:
        kw = {f: getattr(A, f) for f in CodescentData.FIELDS if f != name}
        with pytest.raises(BoundaryMismatch) as err:
            make_codescent_data(**kw)
        assert str(err.value) == "missing fields: %s" % name


def test_codescent_data_refuses_a_field_that_is_no_functor_or_transformation():
    # at the parent these raised AttributeError on None.src or "x".src
    C = walking_arrow()
    U = triv_universe(C)
    A = build_Ay_strict(U, monad_algebra(U, C, *const1_monad(C)))
    fields = {f: getattr(A, f) for f in CodescentData.FIELDS}
    for name, value, message in [
        ("Ad0", None, "Ad0 must be a functor between the stated levels"),
        ("Asig00", "x", "Asig00 has the wrong boundary"),
    ]:
        with pytest.raises(BoundaryMismatch) as err:
            make_codescent_data(**dict(fields, **{name: value}))
        assert str(err.value) == message


def _relations(A):
    # the relation list lax_codescent presents, without running the
    # quotient: a budget of 0 stops completion at its first step
    return lax_codescent(A, budget=0).presentation.relations


def test_lax_codescent_relations_match_the_hand_written_ones_on_fixtures():
    algebras = _fixture_algebras()
    assert len(algebras) == 6
    for y in algebras:
        A = build_Ay_strict(y.universe, y)
        assert _relations(A) == hand_codescent_relations(A)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_lax_codescent_relations_match_the_hand_written_ones_on_drawn_algebras(data):
    U, algebras = _non_strict_lax_algebras(data.draw(st.sampled_from(sorted(LAX_MONOIDS))))
    y = data.draw(st.sampled_from(algebras[data.draw(st.sampled_from(sorted(algebras)))]))
    A = build_Ay_strict(U, y)
    assert _relations(A) == hand_codescent_relations(A)


def _zero_table(els, left):
    return {(x, y): x if left else y for x in els for y in els}


# monoid tables that break one law each: associativity ((a.a).b = b but
# a.(a.b) = e), the left unit (e.a = e) and the right unit (a.e = e)
BROKEN_TABLES = {
    "non-associative": (["e", "a", "b"], {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "a",
        ("b", "e"): "b", ("b", "a"): "b", ("b", "b"): "a",
    }),
    "left-zero": (["e", "a"], _zero_table(["e", "a"], left=True)),
    "right-zero": (["e", "a"], _zero_table(["e", "a"], left=False)),
}


@pytest.mark.parametrize("table", sorted(BROKEN_TABLES))
@pytest.mark.parametrize("resolve", [build_Ay_strict, strictify])
def test_resolving_over_a_broken_monoid_is_refused(resolve, table):
    # the algebra projecting the monoid away is strict over any table;
    # its resolution reads the broken structure maps, and is refused with
    # one of fin2cat's ValueErrors, never an internal exception
    els, bad = BROKEN_TABLES[table]
    C = walking_arrow()
    U = monoid_two_monad(Monoid(els, "e", bad, check=False), [("C", C)], 3)
    y = laxalg.strict_algebra(U, C, U.T(C).proj2)
    with pytest.raises(ValueError):
        resolve(U, y)


# ---------------------------------------------------------------------------
# strictification against the Kleisli oracle


def test_strictify_const1_matches_kleisli():
    C = walking_arrow()
    U = triv_universe(C)
    t, mu, eta = const1_monad(C)
    z = monad_algebra(U, C, t, mu, eta)
    Q = strictify(U, z)
    assert Q.status == FINITE
    assert len(Q.category.objects) == 2
    assert len(Q.category.morphisms) == 4
    assert fincat.iso_categories(Q.category, kleisli(C, t, mu, eta)) is not None


def test_strictify_closure_matches_kleisli():
    Z = chain3()
    U = triv_universe(Z)
    t, mu, eta = closure_monad(Z)
    z = monad_algebra(U, Z, t, mu, eta)
    Q = strictify(U, z)
    assert Q.status == FINITE
    assert len(Q.category.objects) == 3
    assert len(Q.category.morphisms) == 7
    assert fincat.iso_categories(Q.category, kleisli(Z, t, mu, eta)) is not None


def test_strictify_identity_monad_on_group():
    Z = z2_cat()
    U = triv_universe(Z)
    t, mu, eta = identity_monad(Z)
    z = monad_algebra(U, Z, t, mu, eta)
    Q = strictify(U, z)
    assert Q.status == FINITE
    assert len(Q.category.objects) == 1
    assert len(Q.category.morphisms) == 2
    assert fincat.iso_categories(Q.category, kleisli(Z, t, mu, eta)) is not None


def test_lax_codescent_returns_presentation_and_trace():
    C = walking_arrow()
    U = triv_universe(C)
    z = monad_algebra(U, C, *const1_monad(C))
    A = build_Ay_strict(U, z)
    Q = lax_codescent(A)
    assert Q.status == FINITE
    assert Q.presentation.objects == list(A.A1.objects)
    assert Q.trace and any("rule" in line for line in Q.trace)


# ---------------------------------------------------------------------------
# the universal property, probed by mapping out


def test_verify_codescent_universal_closure():
    Z = chain3()
    U = triv_universe(Z)
    t, mu, eta = closure_monad(Z)
    z = monad_algebra(U, Z, t, mu, eta)
    A = build_Ay_strict(U, z)
    Q = lax_codescent(A)
    report = verify_codescent_universal(
        A, Q, [("1", terminal_cat()), ("2", walking_arrow())]
    )
    assert report["status"] == "pass"
    assert set(report["probes"]) == {"1", "2"}
    for entry in report["probes"].values():
        assert entry["iso"] is True
        assert entry["hom_objects"] == entry["descent_objects"]
        assert entry["hom_morphisms"] == entry["descent_morphisms"]


def test_verify_codescent_universal_identity_monad():
    Z = z2_cat()
    U = triv_universe(Z)
    z = monad_algebra(U, Z, *identity_monad(Z))
    A = build_Ay_strict(U, z)
    Q = lax_codescent(A)
    report = verify_codescent_universal(A, Q, [("2", walking_arrow())])
    assert report["status"] == "pass"
    assert report["probes"]["2"]["iso"] is True


def test_verify_codescent_universal_undecided_quotient():
    Z = chain3()
    U = triv_universe(Z)
    z = monad_algebra(U, Z, *closure_monad(Z))
    A = build_Ay_strict(U, z)
    Q = lax_codescent(A, budget=0)
    assert Q.status == UNDECIDED
    report = verify_codescent_universal(A, Q, [("1", terminal_cat())])
    assert report["status"] == "undecided"


def test_verify_codescent_universal_refuses_data_that_is_no_free_resolution():
    # make_codescent_data accepts A2 as an equal plain FinCat, but the
    # probes read A2 and A3 as M x A1 and M x A2; at the parent this
    # raised AttributeError on A2.factors
    C = walking_arrow()
    U = triv_universe(C)
    A = build_Ay_strict(U, monad_algebra(U, C, *const1_monad(C)))
    Q = lax_codescent(A)
    A2 = A.A2
    plain = fincat.make_fincat(A2.objects, A2.morphisms, A2.dom, A2.cod, A2.identity, A2.compose_table)
    assert not isinstance(plain, fincat.ProductCat) and plain == A2
    fields = {f: getattr(A, f) for f in CodescentData.FIELDS}
    B = make_codescent_data(**dict(fields, A2=plain))
    with pytest.raises(BoundaryMismatch) as err:
        verify_codescent_universal(B, Q, [("1", terminal_cat())])
    assert "free resolution" in str(err.value)
    assert verify_codescent_universal(A, Q, [("1", terminal_cat())])["status"] == "pass"
