import functools
import hashlib
import itertools
import os
import types
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fin2cat
from fin2cat import cli, codescent, deltadiag, fincat, laxalg
from fin2cat.cli import load
from fin2cat.codescent import build_Ay_strict, lax_codescent
from fin2cat.descent import invertible_part, lax_descent
from fin2cat.errors import (
    AxiomViolation,
    BoundaryMismatch,
    FunctorialityViolation,
    NaturalityViolation,
    NotEnumerated,
)
from fin2cat.laxalg import (
    build_Tzy,
    check_lax_algebra,
    check_pseudomonad,
    enumerate_hom_category,
)
from helpers import (
    Z2_ON_THREE_FX,
    FIXTURE_PAIRS,
    SMALL_MONOIDS,
    brute_force_hom_cat,
    chain3,
    constant_fun,
    discrete,
    eager_cell,
    eager_face,
    enumerated_level_sizes,
    forced,
    forced_cell,
    idem_cat,
    identity_fun_on,
    layered_cat,
    materialised,
    named_cell,
    named_fun,
    nonassociative_mutants,
    one_object_cat,
    proved_cat,
    proved_fun,
    proved_nat,
    recursive_enumerate_functors,
    recursive_enumerate_nats,
    recursive_iso_categories,
    terminal_cat,
    triple_loop_make_fincat,
    walking_arrow,
    view_in_oracle,
    walking_iso,
    whole_cell,
    whole_face,
    z2_cat,
)

FIXTURES = os.path.join(os.path.dirname(fin2cat.__file__), "fixtures")


# ---------------------------------------------------------------------------
# make_fincat: exhaustive law checking at construction time


def test_walking_arrow_builds():
    C = walking_arrow()
    assert set(C.objects) == {"0", "1"}
    assert len(C.morphisms) == 3
    assert C.dom["u"] == "0" and C.cod["u"] == "1"
    assert C.compose("id1", "u") == "u"


def test_missing_composite_rejected():
    with pytest.raises(AxiomViolation):
        fincat.make_fincat(
            objects=["0", "1"],
            morphisms=["id0", "id1", "u"],
            dom={"id0": "0", "id1": "1", "u": "0"},
            cod={"id0": "0", "id1": "1", "u": "1"},
            identity={"0": "id0", "1": "id1"},
            compose={
                ("id0", "id0"): "id0",
                ("id1", "id1"): "id1",
                ("u", "id0"): "u",
                # ("id1", "u") missing
            },
        )


def test_broken_identity_law_rejected():
    with pytest.raises(AxiomViolation):
        fincat.make_fincat(
            objects=["x"],
            morphisms=["idx", "e"],
            dom={"idx": "x", "e": "x"},
            cod={"idx": "x", "e": "x"},
            identity={"x": "idx"},
            compose={
                ("idx", "idx"): "idx",
                ("e", "idx"): "idx",  # should be "e"
                ("idx", "e"): "e",
                ("e", "e"): "e",
            },
        )


def test_broken_associativity_rejected():
    # Three parallel endomorphisms with a non-associative table.
    compose = {
        ("idx", "idx"): "idx",
        ("a", "idx"): "a",
        ("b", "idx"): "b",
        ("idx", "a"): "a",
        ("idx", "b"): "b",
        ("a", "a"): "b",
        ("a", "b"): "idx",
        ("b", "a"): "a",
        ("b", "b"): "a",
    }
    # (a.a).a = b.a = a  but  a.(a.a) = a.b = idx
    with pytest.raises(AxiomViolation):
        fincat.make_fincat(
            objects=["x"],
            morphisms=["idx", "a", "b"],
            dom={"idx": "x", "a": "x", "b": "x"},
            cod={"idx": "x", "a": "x", "b": "x"},
            identity={"x": "idx"},
            compose=compose,
        )


def test_associativity_failure_names_the_first_triple():
    # every single-entry mutant of Z/3 that keeps the unit laws: refused
    # exactly when some triple fails, naming the triple that the plain
    # loop over f, then g after f, then h after g meets first
    els = ["e", "a", "b"]
    z3 = {(g, f): els[(els.index(g) + els.index(f)) % 3] for g in els for f in els}
    for g0, f0 in [(g, f) for g in els[1:] for f in els[1:]]:
        for v in els:
            if v == z3[(g0, f0)]:
                continue
            table = dict(z3)
            table[(g0, f0)] = v
            first = next(
                (
                    (h, g, f)
                    for f in els
                    for g in els
                    for h in els
                    if table[(h, table[(g, f)])] != table[(table[(h, g)], f)]
                ),
                None,
            )
            ends = {m: "*" for m in els}
            try:
                fincat.make_fincat(["*"], els, ends, ends, {"*": "e"}, table)
                refused = None
            except AxiomViolation as e:
                refused = str(e)
            want = None if first is None else "associativity fails on (%r, %r, %r)" % first
            assert refused == want


def test_composite_with_wrong_boundary_rejected():
    with pytest.raises(AxiomViolation):
        fincat.make_fincat(
            objects=["0", "1"],
            morphisms=["id0", "id1", "u"],
            dom={"id0": "0", "id1": "1", "u": "0"},
            cod={"id0": "0", "id1": "1", "u": "1"},
            identity={"0": "id0", "1": "id1"},
            compose={
                ("id0", "id0"): "id0",
                ("id1", "id1"): "id1",
                ("u", "id0"): "id0",  # wrong codomain
                ("id1", "u"): "u",
            },
        )


def proof_outcome(prove, *args):
    """The category prove builds, or the message it refuses with."""
    try:
        return prove(*args)
    except AxiomViolation as e:
        return str(e)


def assert_same_proof(*args):
    """make_fincat accepts exactly what the triple-loop prover accepts and
    otherwise names the same first failure.  Returns the outcome."""
    got = proof_outcome(fincat.make_fincat, *args)
    want = proof_outcome(triple_loop_make_fincat, *args)
    assert type(got) is type(want)
    assert got == want
    return got


def table_args(C):
    return (
        list(C.objects), list(C.morphisms), dict(C.dom), dict(C.cod),
        dict(C.identity), dict(C.compose_table),
    )


def single_entry_mutants(compose, values):
    for key, h in compose.items():
        for v in values:
            if v != h:
                bad = dict(compose)
                bad[key] = v
                yield bad


ELS3 = ["e", "a", "b"]
Z3 = {(g, f): ELS3[(ELS3.index(g) + ELS3.index(f)) % 3] for g in ELS3 for f in ELS3}


def test_make_fincat_agrees_with_triple_loop_on_single_entry_mutants():
    ends = {m: "*" for m in ELS3}
    outcomes = [
        assert_same_proof(["*"], ELS3, ends, ends, {"*": "e"}, table)
        for table in single_entry_mutants(Z3, ELS3 + ["zz"])
    ]
    assert len(outcomes) == 27
    assert all(isinstance(o, str) for o in outcomes)
    assert any(o.startswith("associativity") for o in outcomes)
    assert any(o.startswith("right identity") for o in outcomes)
    assert any("wrong boundary" in o for o in outcomes)

    objects, morphisms, dom, cod, identity, compose = table_args(walking_arrow())
    outcomes = [
        assert_same_proof(objects, morphisms, dom, cod, identity, table)
        for table in single_entry_mutants(compose, morphisms)
    ]
    assert len(outcomes) == 8 and all(isinstance(o, str) for o in outcomes)


def test_make_fincat_agrees_with_triple_loop_on_coverage_and_boundary():
    objects, morphisms, dom, cod, identity, compose = table_args(walking_arrow())
    for key in compose:
        dropped = {k: h for k, h in compose.items() if k != key}
        got = assert_same_proof(objects, morphisms, dom, cod, identity, dropped)
        assert got == "composition table missing composable pair %r" % (key,)
    for key in (("u", "u"), ("id0", "id1"), ("id1", "id0"), ("u", "id1")):
        extra = dict(compose)
        extra[key] = "u"
        got = assert_same_proof(objects, morphisms, dom, cod, identity, extra)
        assert got == "composition table has non-composable pair %r" % (key,)
    # a key that is no pair of morphisms at all
    extra = dict(compose)
    extra[("v", "u")] = "u"
    got = assert_same_proof(objects, morphisms, dom, cod, identity, extra)
    assert "non-composable" in got

    wrong = dict(compose)
    wrong[("u", "id0")] = "id0"
    wrong[("id1", "u")] = "id1"
    got = assert_same_proof(objects, morphisms, dom, cod, identity, wrong)
    # the first wrong boundary in the table's order
    assert got == "composite of ('u' after 'id0') has wrong boundary: 'id0'"

    # a coverage error and a boundary error at once: coverage is named
    both = {k: h for k, h in wrong.items() if k != ("id1", "id1")}
    got = assert_same_proof(objects, morphisms, dom, cod, identity, both)
    assert got == "composition table missing composable pair ('id1', 'id1')"
    both = dict(wrong)
    both[("u", "u")] = "u"
    got = assert_same_proof(objects, morphisms, dom, cod, identity, both)
    assert got == "composition table has non-composable pair ('u', 'u')"


def test_make_fincat_agrees_with_triple_loop_on_discrete_categories():
    # every row of a discrete category has one entry
    for names in (["a"], ["a", "b"], ["a", "b", "c", "d"]):
        args = table_args(discrete(names))
        assert isinstance(assert_same_proof(*args), fincat.FinCat)
        objects, morphisms, dom, cod, identity, compose = args
        for table in single_entry_mutants(compose, morphisms + ["zz"]):
            got = assert_same_proof(objects, morphisms, dom, cod, identity, table)
            assert "wrong boundary" in got
        for key in compose:
            dropped = {k: h for k, h in compose.items() if k != key}
            assert "missing" in assert_same_proof(
                objects, morphisms, dom, cod, identity, dropped
            )


def test_make_fincat_refuses_when_only_the_last_triple_fails():
    # 0 -> 1 -> 2 -> 3 with two arrows a, b: 0 -> 3; u23.u02 is set to b
    # while u13.u01 = a, so associativity fails on (u23, u12, u01) alone,
    # and the morphisms are listed so that this triple comes last in the
    # loop over f, then g after f, then h after g
    morphisms = ["id0", "id1", "id2", "id3", "u13", "u23", "u02", "a", "b", "u12", "u01"]
    ends = {
        "id0": "00", "id1": "11", "id2": "22", "id3": "33", "u01": "01", "u12": "12",
        "u23": "23", "u02": "02", "u13": "13", "a": "03", "b": "03",
    }
    dom = {m: e[0] for m, e in ends.items()}
    cod = {m: e[1] for m, e in ends.items()}
    identity = {x: "id" + x for x in "0123"}
    inner = {
        ("u12", "u01"): "u02", ("u23", "u12"): "u13",
        ("u23", "u02"): "b", ("u13", "u01"): "a",
    }

    def composite(g, f):
        if g == identity[cod[f]]:
            return f
        if f == identity[dom[g]]:
            return g
        return inner[(g, f)]

    compose = {(g, f): composite(g, f) for g, f in fincat._composable(morphisms, dom, cod)}
    objects = list("0123")
    by_dom = {x: [m for m in morphisms if dom[m] == x] for x in objects}
    failing = [
        (h, g, f)
        for f in morphisms
        for g in by_dom[cod[f]]
        for h in by_dom[cod[g]]
        if compose[(h, compose[(g, f)])] != compose[(compose[(h, g)], f)]
    ]
    loop_order = [
        (h, g, f) for f in morphisms for g in by_dom[cod[f]] for h in by_dom[cod[g]]
    ]
    assert failing == [("u23", "u12", "u01")] == loop_order[-1:]
    got = assert_same_proof(objects, morphisms, dom, cod, identity, compose)
    assert got == "associativity fails on ('u23', 'u12', 'u01')"
    compose[("u23", "u02")] = "a"
    got = assert_same_proof(objects, morphisms, dom, cod, identity, compose)
    assert isinstance(got, fincat.FinCat)


def test_hom_and_inverse():
    C = chain3()
    assert C.hom("0", "2") == ("u02",)
    assert C.hom("2", "0") == ()
    assert C.inverse("id1") == "id1"
    assert C.inverse("u01") is None


# ---------------------------------------------------------------------------
# make_fun


def test_identity_and_constant_functors():
    C = walking_arrow()
    F = identity_fun_on(C)
    assert F.ob("0") == "0" and F.mor("u") == "u"
    G = constant_fun(C, C, "1")
    assert G.mor("u") == "id1"


def test_nonfunctorial_map_rejected():
    C = walking_arrow()
    with pytest.raises(FunctorialityViolation):
        # sends identity to a non-identity
        fincat.make_fun(
            C, C, {"0": "0", "1": "1"}, {"id0": "u", "id1": "id1", "u": "u"}
        )
    D = chain3()
    with pytest.raises(FunctorialityViolation):
        # breaks composition: u01 |-> u01, u12 |-> u12, u02 |-> id-like mismatch
        fincat.make_fun(
            D,
            D,
            {"0": "0", "1": "1", "2": "2"},
            {
                "id0": "id0",
                "id1": "id1",
                "id2": "id2",
                "u01": "u01",
                "u12": "u12",
                "u02": "u01",  # wrong: should be u02
            },
        )


def test_fun_typing_validated():
    C = walking_arrow()
    with pytest.raises(FunctorialityViolation):
        fincat.make_fun(C, C, {"0": "0"}, {m: m for m in C.morphisms})


def test_compose_fun_and_equality():
    C = walking_arrow()
    F = identity_fun_on(C)
    G = constant_fun(C, C, "1")
    assert fincat.compose_fun(G, F) == G
    assert fincat.compose_fun(F, G) == G
    assert fincat.identity_fun(C) == F


# ---------------------------------------------------------------------------
# make_nat


def test_natural_transformation_builds():
    C = walking_arrow()
    F = constant_fun(C, C, "0")
    G = identity_fun_on(C)
    a = fincat.make_nat(F, G, {"0": "id0", "1": "u"})
    assert a.at("1") == "u"


def test_nonnatural_square_rejected():
    # Target with two parallel arrows, so identity components can fail
    # the square while having the right boundaries.
    C = walking_arrow()
    P = fincat.make_fincat(
        objects=["0", "1"],
        morphisms=["id0", "id1", "u", "v"],
        dom={"id0": "0", "id1": "1", "u": "0", "v": "0"},
        cod={"id0": "0", "id1": "1", "u": "1", "v": "1"},
        identity={"0": "id0", "1": "id1"},
        compose={
            ("id0", "id0"): "id0",
            ("id1", "id1"): "id1",
            ("u", "id0"): "u",
            ("id1", "u"): "u",
            ("v", "id0"): "v",
            ("id1", "v"): "v",
        },
    )
    F = fincat.make_fun(C, P, {"0": "0", "1": "1"}, {"id0": "id0", "id1": "id1", "u": "u"})
    G = fincat.make_fun(C, P, {"0": "0", "1": "1"}, {"id0": "id0", "id1": "id1", "u": "v"})
    with pytest.raises(NaturalityViolation):
        fincat.make_nat(F, G, {"0": "id0", "1": "id1"})


def test_nat_component_boundary_checked():
    C = walking_arrow()
    F = constant_fun(C, C, "0")
    G = identity_fun_on(C)
    with pytest.raises(BoundaryMismatch):
        fincat.make_nat(F, G, {"0": "id0", "1": "id1"})
    with pytest.raises(BoundaryMismatch):
        fincat.make_nat(F, G, {"0": "id0"})


# ---------------------------------------------------------------------------
# paste: frozen pointwise values
#
# Expected components below were computed by hand with the pointwise rule:
# vertical (b . a)_x = b_x . a_x, horizontal (b * a)_x = K(a_x) . b_{F x}.


def test_paste_vertical_frozen():
    C = walking_arrow()
    c0 = constant_fun(C, C, "0")
    c1 = constant_fun(C, C, "1")
    i = identity_fun_on(C)
    a = fincat.make_nat(c0, i, {"0": "id0", "1": "u"})
    b = fincat.make_nat(i, c1, {"0": "u", "1": "id1"})
    v = fincat.paste("vertical", b, a)
    assert v.src == c0 and v.tgt == c1
    assert v.at("0") == "u" and v.at("1") == "u"


def test_paste_horizontal_frozen():
    C = walking_arrow()
    c0 = constant_fun(C, C, "0")
    c1 = constant_fun(C, C, "1")
    i = identity_fun_on(C)
    a = fincat.make_nat(c0, i, {"0": "id0", "1": "u"})
    b = fincat.make_nat(i, c1, {"0": "u", "1": "id1"})
    h = fincat.paste("horizontal", b, a)
    assert h.src == fincat.compose_fun(i, c0)
    assert h.tgt == fincat.compose_fun(c1, i)
    assert h.at("0") == "u" and h.at("1") == "u"


def test_paste_rejects_mismatched_boundaries():
    C = walking_arrow()
    c0 = constant_fun(C, C, "0")
    c1 = constant_fun(C, C, "1")
    i = identity_fun_on(C)
    a = fincat.make_nat(c0, i, {"0": "id0", "1": "u"})
    with pytest.raises(BoundaryMismatch):
        fincat.paste("vertical", a, a)
    b = fincat.make_nat(i, c1, {"0": "u", "1": "id1"})
    with pytest.raises(ValueError):
        fincat.paste("diagonal", b, a)


def _all_nats_2_2():
    """Every natural transformation between endofunctors of the walking
    arrow, pulled out of the hom category index."""
    C = walking_arrow()
    H = fincat.hom_cat(C, C)
    return C, H, [H.nat_of(m) for m in H.morphisms]


def test_horizontal_paste_matches_pointwise_oracle():
    C, H, nats = _all_nats_2_2()
    for a in nats:
        for b in nats:
            h = fincat.paste("horizontal", b, a)
            for x in C.objects:
                left = C.compose(b.tgt.mor(a.at(x)), b.at(a.src.ob(x)))
                right = C.compose(b.at(a.tgt.ob(x)), b.src.mor(a.at(x)))
                assert h.at(x) == left == right


def test_vertical_paste_agrees_with_hom_cat_composition():
    C, H, _ = _all_nats_2_2()
    for (g, f), gf in H.compose_table.items():
        v = fincat.paste("vertical", H.nat_of(g), H.nat_of(f))
        assert named_cell(H, v) == gf


@given(st.data())
def test_interchange_law(data):
    C, H, nats = _all_nats_2_2()
    by_src = {}
    for n in nats:
        by_src.setdefault(named_fun(H, n.src), []).append(n)

    a = data.draw(st.sampled_from(nats))
    a2 = data.draw(st.sampled_from(by_src[named_fun(H, a.tgt)]))
    b = data.draw(st.sampled_from(nats))
    b2 = data.draw(st.sampled_from(by_src[named_fun(H, b.tgt)]))

    lhs = fincat.paste(
        "horizontal",
        fincat.paste("vertical", b2, b),
        fincat.paste("vertical", a2, a),
    )
    rhs = fincat.paste(
        "vertical",
        fincat.paste("horizontal", b2, a2),
        fincat.paste("horizontal", b, a),
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# product_cat


def test_product_of_walking_arrows_frozen():
    C = walking_arrow()
    P = fincat.product_cat(C, C)
    assert len(P.objects) == 4
    assert len(P.morphisms) == 9


def test_product_projections():
    C = walking_arrow()
    D = chain3()
    P = fincat.product_cat(C, D)
    assert len(P.objects) == 6
    p1, p2 = P.proj1, P.proj2
    for m in P.morphisms:
        f, g = P.mor_pair[m]
        assert p1.mor(m) == f and p2.mor(m) == g


def test_product_with_terminal_is_isomorphic():
    C = chain3()
    T = terminal_cat()
    P = fincat.product_cat(T, C)
    pair = fincat.iso_categories(P, C)
    assert pair is not None
    f, g = pair
    assert fincat.compose_fun(g, f) == fincat.identity_fun(P)
    assert fincat.compose_fun(f, g) == fincat.identity_fun(C)


def _idempotent_cat(unit, other):
    """One object, the identity unit and an idempotent other."""
    els = [unit, other]
    table = {(g, f): g if f == unit else f if g == unit else other for g in els for f in els}
    return one_object_cat(els, unit, table)


def test_product_names_that_collide_are_refused():
    # "(e,,x)" names both the pair (e, ",x") and the pair ("e,", x)
    with pytest.raises(AxiomViolation) as got:
        fincat.product_cat(discrete(["e", "e,"]), discrete(["x", ",x"]))
    assert str(got.value) == "product name '(e,,x)' names two pairs"
    # one object "(*,*)", but "(i,,j)" names two pairs of morphisms
    with pytest.raises(AxiomViolation) as got:
        fincat.product_cat(_idempotent_cat("i", "i,"), _idempotent_cat("j", ",j"))
    assert str(got.value) == "product name '(i,,j)' names two pairs"
    # names with commas that print apart are fine
    P = fincat.product_cat(discrete(["e,"]), discrete(["x", ",x"]))
    assert P.objects == ("(e,,x)", "(e,,,x)")


# ---------------------------------------------------------------------------
# hom_cat


def test_hom_cat_of_walking_arrow_frozen():
    # By hand: three endofunctors (const 0, identity, const 1) and six
    # natural transformations between them.
    C = walking_arrow()
    H = fincat.hom_cat(C, C)
    assert len(H.objects) == 3
    assert len(H.morphisms) == 6


def test_hom_cat_roundtrip_indexes():
    C = walking_arrow()
    H = fincat.hom_cat(C, C)
    for o in H.objects:
        assert named_fun(H, H.functor_of(o)) == o
    for m in H.morphisms:
        assert named_cell(H, H.nat_of(m)) == m


def test_hom_cat_builds_functors_and_cells_on_first_read(monkeypatch):
    # counts, not timings: hom_cat stores each functor and
    # transformation as its key, and constructs no Fun or NatT while it
    # builds; functor_of and nat_of build one on first read and keep it
    C, D = walking_arrow(), chain3()
    built = []
    for cls in (fincat.Fun, fincat.NatT):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__", lambda self, *a, init=init: built.append(self) or init(self, *a)
        )
    H = fincat.hom_cat(C, D)
    assert built == []
    assert len(H.objects) == 6 and len(H.morphisms) == 20
    for o in H.objects:
        assert H.functor_of(o) is H.functor_of(o)
    for m in H.morphisms:
        assert H.nat_of(m) is H.nat_of(m)
    assert len(built) == len(H.objects) + len(H.morphisms)


def test_hom_cat_from_terminal_recovers_target():
    T = terminal_cat()
    D = chain3()
    H = fincat.hom_cat(T, D)
    assert fincat.iso_categories(H, D) is not None


def test_hom_cat_into_terminal_is_terminal():
    T = terminal_cat()
    C = chain3()
    H = fincat.hom_cat(C, T)
    assert len(H.objects) == 1 and len(H.morphisms) == 1


def assert_same_hom_cat(H, C, D):
    """H = hom_cat(C, D), its table not yet read, agrees with the all-pairs
    construction, names included: it composes every pair on demand as the
    all-pairs table says, refuses a pair that is not composable with
    FinCat.compose's message, and assembles on first read the all-pairs
    table, entry for entry and in the same order."""
    B, fun_of, nat_of = brute_force_hom_cat(C, D)
    assert H.objects == B.objects
    assert H.morphisms == B.morphisms
    assert H.dom == B.dom
    assert H.cod == B.cod
    assert H.identity == B.identity
    assert "compose_table" not in vars(H)
    for (g, f), gf in B.compose_table.items():
        assert H.compose(g, f) == gf
    mors = list(B.morphisms[:8])
    stray = [(g, f) for g in mors for f in mors if (g, f) not in B.compose_table]
    stray += [("nope", m) for m in mors[:1]] + [(m, "nope") for m in mors[:1]]
    for g, f in stray + [("nope", "nope")]:
        with pytest.raises(BoundaryMismatch) as want:
            B.compose(g, f)
        with pytest.raises(BoundaryMismatch) as got:
            H.compose(g, f)
        assert str(got.value) == str(want.value)
    assert "compose_table" not in vars(H)
    assert list(H.compose_table.items()) == list(B.compose_table.items())
    assert H.compose_table is H.compose_table
    assert all(H.functor_of(o) == fun_of[o] for o in H.objects)
    assert all(H.nat_of(m) == nat_of[m] for m in H.morphisms)


@st.composite
def small_categories(draw):
    """At most three objects and at most three non-identity arrows: a
    layered category (see helpers.layered_cat) or the walking isomorphism."""
    if draw(st.integers(0, 5)) == 0:
        return walking_iso()
    n = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arrows = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2)) if pairs else []
    endos = draw(st.lists(st.sampled_from(sorted(SMALL_MONOIDS)), min_size=n, max_size=n))
    extra = sum(len(SMALL_MONOIDS[e][0]) - 1 for e in endos)
    while extra + len(arrows) > 3:
        i = next(i for i, e in enumerate(endos) if e != "1")
        endos[i] = "1"
        extra -= 1
    return layered_cat(n, arrows, endos)


@settings(max_examples=60, deadline=None)
@given(small_categories(), small_categories())
def test_hom_cat_matches_all_pairs_construction(C, D):
    assert_same_hom_cat(fincat.hom_cat(C, D), C, D)


@st.composite
def mutated_tables(draw):
    """The table of a small category with up to two entries changed,
    dropped or added: a value is drawn from the morphisms and one stray
    name, or from the hom-set of a composite of two non-identities."""
    # e, a and an absorbing b with a.a = b
    nil = {(g, f): g if f == "e" else f if g == "e" else "b" for g in ELS3 for f in ELS3}
    base = draw(
        st.one_of(
            small_categories(),
            st.sampled_from([Z3, nil]).map(lambda t: one_object_cat(ELS3, "e", t)),
        )
    )
    objects, morphisms, dom, cod, identity, compose = table_args(base)
    values = st.sampled_from(morphisms + ["zz"])
    ids = set(identity.values())
    inner = sorted(k for k in compose if not ids & set(k))
    for _ in range(draw(st.integers(0, 2))):
        kinds = ["set", "drop", "add"] + (["reset"] * 2 if inner else [])
        what = draw(st.sampled_from(kinds if compose else ["add"]))
        if what == "reset":
            # a composite of two non-identities moved inside its hom-set
            g, f = draw(st.sampled_from(inner))
            hom = [h for h in morphisms if (dom[h], cod[h]) == (dom[f], cod[g])]
            compose[(g, f)] = draw(st.sampled_from(hom))
        elif what == "set":
            compose[draw(st.sampled_from(sorted(compose)))] = draw(values)
        elif what == "drop":
            del compose[draw(st.sampled_from(sorted(compose)))]
        else:
            pair = (draw(st.sampled_from(morphisms)), draw(st.sampled_from(morphisms)))
            compose[pair] = draw(values)
    return objects, morphisms, dom, cod, identity, compose


@settings(max_examples=200, deadline=None)
@given(mutated_tables())
def test_make_fincat_agrees_with_triple_loop_on_drawn_tables(args):
    assert_same_proof(*args)


# ---------------------------------------------------------------------------
# make_fincat with named generators: associativity on generator triples


def test_generated_proof_names_the_first_generator_triple():
    # Z/3 generated by a: every single-entry mutant is refused by the
    # shared checks as make_fincat refuses it, or because a no longer
    # reaches every element, or because a triple with outer factor a
    # fails, named as met first looping over f, then g; what is accepted
    # make_fincat accepts too
    ends = {m: "*" for m in ELS3}
    args = (["*"], ELS3, ends, ends, {"*": "e"})
    outcomes = []
    for table in single_entry_mutants(Z3, ELS3):
        got = proof_outcome(fincat.make_fincat, *args, table, ["a"])
        full = proof_outcome(fincat.make_fincat, *args, table)
        outcomes.append(got)
        if "identity" in full:
            assert got == full
            continue
        reached = ["e", table[("a", "e")]]
        while table[("a", reached[-1])] not in reached:
            reached.append(table[("a", reached[-1])])
        first = next(
            (
                (h, g, f)
                for f in ELS3
                for h in ["a"]
                for g in ELS3
                if table[(h, table[(g, f)])] != table[(table[(h, g)], f)]
            ),
            None,
        )
        if len(reached) < 3:
            missing = next(m for m in ELS3 if m not in reached)
            assert got == "generators do not reach %r" % missing
        elif first is not None:
            assert got == "associativity fails on (%r, %r, %r)" % first
        else:
            assert got == full
    assert len(outcomes) == 18 and all(isinstance(o, str) for o in outcomes)
    assert any(o.startswith("generators do not reach") for o in outcomes)
    assert any(o.startswith("associativity") for o in outcomes)
    assert fincat.make_fincat(*args, Z3, ["a"]) == fincat.make_fincat(*args, Z3)
    # a name that is no morphism generates nothing
    with pytest.raises(AxiomViolation, match="generators do not reach 'a'"):
        fincat.make_fincat(*args, Z3, ["zz"])


@settings(max_examples=200, deadline=None)
@given(mutated_tables(), st.data())
def test_generated_proof_is_sound_on_drawn_tables(args, data):
    morphisms = args[1]
    gens = data.draw(st.lists(st.sampled_from(morphisms), unique=True))
    got = proof_outcome(fincat.make_fincat, *args, gens)
    want = proof_outcome(triple_loop_make_fincat, *args)
    if isinstance(got, fincat.FinCat):
        assert got == want
    elif not got.startswith(("generators do not reach", "associativity")):
        # the coverage, boundary and identity checks do not depend on the
        # generators
        assert got == want
    # with every morphism a generator, by default or by name, the proof
    # checks every triple in the triple loop's order, so it gives the
    # triple loop's outcome
    for all_of_them in (None, morphisms):
        every = proof_outcome(fincat.make_fincat, *args, all_of_them)
        assert type(every) is type(want)
        assert every == want


def assert_same_enumerations(C, D):
    """The keys of the functors C -> D and the component tuples of the
    transformations between every pair of them come out as the recursive
    searches give them, in the same order.  Returns the keys."""
    funs = fincat._enumerate_functors(C, D)
    want = recursive_enumerate_functors(C, D)
    assert funs == [fincat._fun_key(F) for F in want]
    for f, F in zip(funs, want):
        for g, G in zip(funs, want):
            got = fincat._enumerate_nats(C, D, f, g)
            assert got == [
                tuple(map(a.components.__getitem__, C.objects))
                for a in recursive_enumerate_nats(F, G)
            ]
    return funs


@settings(max_examples=80, deadline=None)
@given(small_categories(), small_categories())
def test_enumerations_match_recursive_searches(C, D):
    assert_same_enumerations(C, D)


def test_enumerations_match_recursive_searches_on_named_categories():
    cats = [terminal_cat(), walking_arrow(), walking_iso(), chain3()]
    cats += [discrete([]), discrete("ab"), layered_cat(2, [(0, 1)], ["z2", "idem"])]
    for C in cats:
        for D in cats:
            assert_same_enumerations(C, D)
    assert len(fincat._enumerate_functors(discrete([]), chain3())) == 1


@pytest.mark.parametrize("fixture, y, z", FIXTURE_PAIRS)
def test_hom_cat_matches_all_pairs_on_fixture_levels(fixture, y, z):
    # the levels above the bottom are views of [T Y, Z] and [T^2 Y, Z],
    # so the levels checked there are their oracles, and the views over
    # the bottom level answer as those oracles do
    ws = load(os.path.join(FIXTURES, fixture))
    y, z = ws.algebras[y], ws.algebras[z]
    U, k = y.universe, len(y.universe.monoid.elements)
    D = build_Tzy(U, y, z)
    Y = y.Z
    TY, T2Y = U.T(Y), U.T(U.T(Y))
    assert D.D2.source is TY and D.D3.source is T2Y
    assert D.D2.target is D.D3.target is z.Z
    assert_same_hom_cat(D.D1, Y, z.Z)
    for source, copies in ((TY, k), (T2Y, k * k)):
        assert_same_hom_cat(fincat.hom_cat(source, z.Z), source, z.Z)
        assert_view_matches_oracle(D.D1, source, copies)


def assert_view_matches_oracle(base, C, k, pairs=None):
    """The PowerView of [C, D] over base = [B, D], for C the k-fold copy
    of B, answers as its oracle H = hom_cat(C, D): the ids helpers.named_fun
    and helpers.named_cell name, functor_of at every id, the hom-sets (on pairs, if
    given, else on every pair of functors), and, at the transformations
    those hom-sets name, nat_of, dom and cod, composites, inverses and
    refusals.  Each reader starts from a fresh view.  Returns H."""
    H = fincat.hom_cat(C, base.target)
    V = fincat.PowerView(base, C, k)
    assert [named_fun(V, H.functor_of(x)) for x in H.objects] == list(H.objects)
    assert [named_cell(V, H.nat_of(m)) for m in H.morphisms] == list(H.morphisms)
    V = fincat.PowerView(base, C, k)
    assert all(V.functor_of(x) == H.functor_of(x) for x in H.objects)
    V = fincat.PowerView(base, C, k)
    if pairs is None:
        pairs = [(x, y) for x in H.objects for y in H.objects]
    assert all(V.hom(x, y) == H.hom(x, y) for x, y in pairs)
    named = [m for m in H.morphisms if m in V.dom]
    assert len(named) == len({m for x, y in pairs for m in H.hom(x, y)})
    for m in named:
        assert V.nat_of(m) == H.nat_of(m)
        assert (V.dom[m], V.cod[m]) == (H.dom[m], H.cod[m])
        assert V.inverse(m) == H.inverse(m)
    for (g, f), gf in H.compose_table.items():
        if g in V.dom and f in V.dom:
            assert V.compose(g, f) == gf
    # refusals: a pair that is not composable, with FinCat.compose's
    # message, and names that are no functor or transformation
    mors = named[:6]
    stray = [(g, f) for g in mors for f in mors if (g, f) not in H.compose_table]
    last = "n%d" % len(H.morphisms)
    for g, f in stray + [(mors[0], last), ("n01", mors[0]), ("nope", mors[0])]:
        with pytest.raises(BoundaryMismatch) as want:
            H.compose(g, f)
        with pytest.raises(BoundaryMismatch) as got:
            V.compose(g, f)
        assert str(got.value) == str(want.value)
    for name in (last, "n01", "F0", "nope"):
        assert name not in V.dom and V.cod.get(name) is None
        with pytest.raises(KeyError):
            V.nat_of(name)
    for name in ("F%d" % len(H.objects), "F01", "n0", "nope"):
        with pytest.raises(KeyError):
            V.functor_of(name)
    return H


@st.composite
def power_cases(draw):
    """A category B of at most two objects, a target D (small_categories,
    so with non-identity arrows) and a number of copies k from 1 to 3,
    lowered until [B, D]^k has at most 64 functors and 256
    transformations."""
    B = draw(small_categories().filter(lambda B: len(B.objects) <= 2))
    D = draw(small_categories())
    H = fincat.hom_cat(B, D)
    k = draw(st.integers(1, 3))
    while k > 0 and (len(H.objects) ** k > 64 or len(H.morphisms) ** k > 256):
        k -= 1
    assume(k > 0)
    return B, D, k


@settings(max_examples=30, deadline=None)
# 3^3 = 27 functors and 4^2 = 16, so that "F10" sorts before "F2"
@example((walking_arrow(), walking_arrow(), 3))
@example((discrete(["p", "q"]), layered_cat(2, [(0, 1)], ["1", "idem"]), 2))
@given(power_cases())
def test_functor_view_matches_hom_cat(case):
    B, D, k = case
    C = fincat.product_cat(discrete(["c%d" % i for i in range(k)]), B)
    H = assert_view_matches_oracle(fincat.hom_cat(B, D), C, k)
    assert len(H.objects) == len(fincat.hom_cat(B, D).objects) ** k


def test_power_view_matches_hom_cat_on_three_points():
    # D2 = [T P3, P3] over [P3, P3], as swap -> fix on z2_on_three.json
    # reads it: 729 functors, whose ids from F100 on sort before F11 and
    # so on, and 729 transformations; the hom-sets are compared at every
    # inhabited pair and at every pair out of the first 40 functors
    ws = load(Z2_ON_THREE_FX)
    y = ws.algebras["swap"]
    U, P3 = y.universe, ws.algebras["fix"].Z
    H = fincat.hom_cat(U.T(P3), P3)
    pairs = {(H.dom[m], H.cod[m]) for m in H.morphisms}
    pairs |= {(x, y) for x in H.objects[:40] for y in H.objects}
    H = assert_view_matches_oracle(fincat.hom_cat(P3, P3), U.T(P3), 2, sorted(pairs))
    assert len(H.objects) == len(H.morphisms) == 729


@pytest.mark.parametrize("fixture, y, z", FIXTURE_PAIRS)
def test_top_level_view_matches_the_materialised_route(fixture, y, z):
    # everything the descent comparison names in [T Y, Z] and [T^2 Y, Z]
    # is in the enumerated functor categories under the same ids,
    # composites included, and the materialised route gives the same
    # carriers under the same names
    ws = load(os.path.join(FIXTURES, fixture))
    y, z = ws.algebras[y], ws.algebras[z]
    U = y.universe
    D = build_Tzy(U, y, z)
    lax = lax_descent(D)
    strict = invertible_part(lax)
    for level in (D.D2, D.D3):
        assert isinstance(level, fincat.PowerView)
        view_in_oracle(level)
    old = materialised(build_Tzy, U, y, z)
    assert isinstance(old.D2, fincat.HomCat) and isinstance(old.D3, fincat.HomCat)
    old_lax = lax_descent(old)
    assert old_lax.carrier == lax.carrier
    assert invertible_part(old_lax).carrier == strict.carrier


def test_an_empty_carrier_matches_the_materialised_route():
    # T E = M x E is empty too, so every level of build_Tzy for the
    # strict algebra on an empty E is the one empty functor and its
    # identity; the faces split the action into |M| empty copies
    E = discrete([])
    els, table = SMALL_MONOIDS["z2"]
    U = laxalg.monoid_two_monad(laxalg.Monoid(els, "e", table), [("E", E), ("P2", discrete("pq"))], 3)
    ea = laxalg.strict_algebra(U, E, fincat.Fun(U.T(E), E, {}, {}))
    D = build_Tzy(U, ea, ea)
    lax = lax_descent(D)
    old = lax_descent(materialised(build_Tzy, U, ea, ea))
    assert old.carrier == lax.carrier
    assert (lax.carrier.objects, lax.carrier.morphisms) == (("(F0,n0)",), ("[n0:(F0,n0)->(F0,n0)]",))
    assert enumerate_hom_category(U, ea, ea) == lax.carrier
    for level in (D.D2, D.D3):
        view_in_oracle(level)


def test_whole_category_reads_on_a_view_raise_not_enumerated():
    ws = load(os.path.join(FIXTURES, "z2_action.json"))
    y, z = ws.algebras["swap"], ws.algebras["skew"]
    D = build_Tzy(y.universe, y, z)
    lax_descent(D)
    V = D.D3
    reads = {
        "objects": lambda: V.objects,
        "morphisms": lambda: V.morphisms,
        "identity": lambda: V.identity,
        "compose_table": lambda: V.compose_table,
        "equality": lambda: V == D.D2,
        "reflected equality": lambda: D.D2 == V,
        "inequality": lambda: V != V.source,
        "make_fun from": lambda: fincat.make_fun(V, D.D2, {}, {}),
        "make_fun into": lambda: fincat.make_fun(
            D.D1, V, dict.fromkeys(D.D1.objects, "F0"), dict.fromkeys(D.D1.morphisms, "n0")
        ),
        "iso_categories from": lambda: fincat.iso_categories(V, D.D1),
        "iso_categories into": lambda: fincat.iso_categories(D.D1, V),
        "hom_cat from": lambda: fincat.hom_cat(V, V.target),
        "hom_cat into": lambda: fincat.hom_cat(V.target, V),
        "product": lambda: fincat.product_cat(V, V.target),
        "identity cell": lambda: fincat.identity_nat(D.Dp0),
    }
    for name, read in reads.items():
        with pytest.raises(NotEnumerated):
            read()
    assert V == V and not V != V
    assert repr(V).startswith("PowerView(")


def _recorded_hom_diagrams(monkeypatch):
    """The list of (diagram, its faces, its cells), as hom_diagram takes
    them, that each hom_diagram call from laxalg or codescent appends
    to."""
    built = []
    real = deltadiag.hom_diagram

    def recording(D1, D2, D3, faces, cells):
        built.append((real(D1, D2, D3, faces, cells), faces, cells))
        return built[-1][0]

    for module in (laxalg, codescent):
        monkeypatch.setattr(module, "hom_diagram", recording)
    return built


def _probe_descent(ws):
    """verify_codescent_universal on const1 with the probes 1 and C2."""
    z = ws.algebras["const1"]
    A = build_Ay_strict(z.universe, z)
    probes = [("1", ws.categories["1"]), ("C2", ws.categories["C2"])]
    return codescent.verify_codescent_universal(A, lax_codescent(A), probes)


def _levels(D):
    """The levels of D as enumerated categories: D1, and the oracles of
    the views D2 and D3, after which each view has named every
    transformation through its hom-sets, so that the faces out of it can
    be read at every one."""
    levels = {"D1": D.D1, "D2": view_in_oracle(D.D2), "D3": view_in_oracle(D.D3)}
    for V, H in ((D.D2, levels["D2"]), (D.D3, levels["D3"])):
        for x, y in {(H.dom[m], H.cod[m]) for m in H.morphisms}:
            assert V.hom(x, y) == H.hom(x, y)
    return levels


def assert_copy_wise_route_matches_the_whole_route(D, faces, cells, levels):
    """Every face of D, forced at every functor and cell of its source in
    levels (enumerated categories, or oracles of the views), equals the
    face built by the whole-functor route (helpers.eager_face), and every
    cell, read at every functor of D1, equals the cell that route builds
    (helpers.eager_cell)."""
    for name, (src, tgt) in deltadiag.FACES.items():
        F = getattr(D, name)
        assert isinstance(F, fincat.OnDemandFun), name
        want = eager_face(levels[src], levels[tgt], faces[name])
        assert forced(F, levels[src], levels[tgt]) == want, name
    for name, (src, tgt) in deltadiag.CELLS.items():
        a, L = getattr(D, name), levels[deltadiag.FACES[tgt[-1]][1]]
        got = forced_cell(a, L)
        assert got == eager_cell(D.D1, L, cells[name], got.src, got.tgt), name


@pytest.mark.parametrize(
    "case", FIXTURE_PAIRS + ["probes"], ids=lambda c: c if c == "probes" else "-".join(c)
)
def test_on_demand_faces_match_the_eager_faces(monkeypatch, case):
    # after the descent equations have read each diagram, every face and
    # cell, which act copy by copy on ids, forced at every functor and
    # cell of its source, equals the one built by the whole-functor
    # route on the enumerated levels.  On z2_action.json skew -> skew,
    # Dsig00 and Dsig21 are not identities
    built = _recorded_hom_diagrams(monkeypatch)
    if case == "probes":
        assert _probe_descent(load(os.path.join(FIXTURES, "monad_on_2.json")))["status"] == "pass"
        assert len(built) == 2
    else:
        fixture, y, z = case
        ws = load(os.path.join(FIXTURES, fixture))
        y, z = ws.algebras[y], ws.algebras[z]
        lax_descent(build_Tzy(y.universe, y, z))
        assert len(built) == 1
    identities = 0
    for D, faces, cells in built:
        levels = _levels(D)
        assert_copy_wise_route_matches_the_whole_route(D, faces, cells, levels)
        for name in ("Dsig00", "Dsig21"):
            L = levels["D3"]
            identities += all(map(L.is_identity, forced_cell(getattr(D, name), L).components.values()))
    if case == ("z2_action.json", "skew", "skew"):
        assert identities == 0


# the monoids M of the drawn lax algebras, k = |M| from 1 to 3 (the
# left-zero monoid {e, a, b}: x.y = x for x, y in {a, b}), each with the
# carriers drawn over it
LAX_MONOIDS = {
    "1": (SMALL_MONOIDS["1"], ("arrow", "G")),
    "z2": (SMALL_MONOIDS["z2"], ("arrow", "I", "G")),
    "idem": (SMALL_MONOIDS["idem"], ("arrow", "I", "G")),
    "left-zero": (
        (["e", "a", "b"], {(x, y): y if x == "e" else x for x in "eab" for y in "eab"}),
        ("arrow", "G"),
    ),
}


@functools.lru_cache(maxsize=None)
def _non_strict_lax_algebras(monoid):
    """The universe of the monoid over the walking arrow, the idempotent
    monoid I and Z/2 as G, and for each carrier its lax algebras whose
    cells are not all identities: the action a: TC -> C runs through the
    families of endofunctors, one for each copy of C (an action or not),
    and zbar and zbar0 through the transformations on their boundaries,
    kept when check_lax_algebra passes."""
    (els, table), names = LAX_MONOIDS[monoid]
    carriers = {"arrow": walking_arrow(), "I": idem_cat(), "G": z2_cat()}
    U = laxalg.monoid_two_monad(laxalg.Monoid(els, "e", table), [(c, carriers[c]) for c in names], 3)
    found = {}
    for c in names:
        C = carriers[c]
        TC, ends = U.T(C), fincat.hom_cat(C, C)
        found[c] = []
        for bs in itertools.product(map(ends.functor_of, ends.objects), repeat=len(els)):
            b = dict(zip(els, bs))
            a = fincat.Fun(
                TC,
                C,
                {o: b[g].ob(x) for o, (g, x) in TC.obj_pair.items()},
                {m: b[g].mor(f) for m, (g, f) in TC.mor_pair.items()},
            )
            mult, unit = laxalg.cell_boundaries(U, C, a)
            for zbar, zbar0 in itertools.product(recursive_enumerate_nats(*mult), recursive_enumerate_nats(*unit)):
                comps = list(zbar.components.values()) + list(zbar0.components.values())
                z = laxalg.LaxAlgebra(U, C, a, zbar, zbar0)
                if not all(map(C.is_identity, comps)) and check_lax_algebra(U, z):
                    found[c].append(z)
    return U, found


def _every(V):
    """The functors of a level and the transformations between them: a
    view's by rank, and then through the hom-sets out of each functor."""
    if isinstance(V, fincat.HomCat):
        return V.objects, V.morphisms
    functors = ["F%d" % r for r in range(V._count)]
    return functors, [m for x in functors for y in V._targets(x)[1] for m in V.hom(x, y)]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_copy_wise_faces_and_cells_match_the_whole_route_on_drawn_carriers(data):
    # lax algebras y and z with cells that are not identities, over
    # monoids of 1 to 3 elements, so D2 and D3 are views of 1 to 3 and 1
    # to 9 copies of D1, and the copies of an action differ: after the
    # descent equations have read build_Tzy's diagram, every face at
    # every functor and transformation of its source, and every cell at
    # every functor of D1, is what the whole-functor route gives, named
    # by helpers.named_fun and helpers.named_cell in the level
    U, algebras = _non_strict_lax_algebras(data.draw(st.sampled_from(sorted(LAX_MONOIDS))))
    y, z = (data.draw(st.sampled_from(algebras[data.draw(st.sampled_from(sorted(algebras)))])) for _ in "yz")
    built = []
    real = deltadiag.hom_diagram
    with mock.patch.object(laxalg, "hom_diagram", lambda *args, **kw: built.append(kw) or real(*args, **kw)):
        D = build_Tzy(U, y, z)
    ((faces, cells),), k = [(kw["faces"], kw["cells"]) for kw in built], len(U.monoid.elements)
    assume(len(D.D1.objects) ** k <= 64)
    lax_descent(D)
    for name, (src, tgt) in deltadiag.FACES.items():
        F, S, T = getattr(D, name), getattr(D, src), getattr(D, tgt)
        on_fun, on_nat = whole_face(T, faces[name])
        functors, cells_of_S = _every(S)
        assert [F.ob(x) for x in functors] == [named_fun(T, on_fun(S.functor_of(x))) for x in functors], name
        assert [F.mor(m) for m in cells_of_S] == [named_cell(T, on_nat(S.nat_of(m))) for m in cells_of_S], name
    for name in deltadiag.CELLS:
        a = getattr(D, name)
        at = whole_cell(D.D1, a.tgt.tgt, cells[name], a.src)
        assert [a.at(f) for f in D.D1.objects] == [named_cell(a.tgt.tgt, at(f)) for f in D.D1.objects], name


def test_whole_reads_of_an_on_demand_face_raise_not_enumerated():
    # before and after the face is forced, so neither from a part of its
    # maps nor from all of them; lookups keep working
    ws = load(os.path.join(FIXTURES, "z2_action.json"))
    y, z = ws.algebras["swap"], ws.algebras["skew"]
    D = build_Tzy(y.universe, y, z)
    lax_descent(D)
    levels = _levels(D)
    out_of_top = fincat.Fun(D.D3, D.D3, {}, {})
    for name, other, outer in (
        ("Dd0", D.Dd1, D.Ds0),
        ("Ds0", None, D.Dd0),
        ("Dp0", D.Dp1, out_of_top),
        ("Dp1", D.Dp2, out_of_top),
        ("Dp2", D.Dp0, out_of_top),
    ):
        F, src = getattr(D, name), levels[deltadiag.FACES[name][0]]
        for _ in range(2):
            whole = forced(F, src)
            reads = {
                "equality": lambda: F == whole,
                "reflected equality": lambda: whole == F,
                "inequality": lambda: F != whole,
                "reflected inequality": lambda: whole != F,
                "make_fun": lambda: fincat.make_fun(F.src, F.tgt, F.on_obj, F.on_mor),
                "inner functor of compose_fun": lambda: fincat.compose_fun(outer, F),
                "map equality": lambda: whole.on_obj == F.on_obj,
                "map inequality": lambda: F.on_mor != whole.on_mor,
                "len": lambda: len(F.on_obj),
                "iteration": lambda: list(F.on_mor),
                "dict": lambda: dict(F.on_obj),
                "membership": lambda: next(iter(whole.on_obj)) in F.on_obj,
                "get": lambda: F.on_mor.get(next(iter(whole.on_mor))),
                "keys": lambda: F.on_obj.keys(),
                "items": lambda: F.on_mor.items(),
                "values": lambda: F.on_obj.values(),
                "copy": lambda: F.on_mor.copy(),
            }
            if other is not None:
                reads["another face"] = lambda: F == other
            for name, read in reads.items():
                with pytest.raises(NotEnumerated):
                    read()
            assert all(F.ob(x) == fx for x, fx in whole.on_obj.items())
            assert all(F.mor(m) == fm for m, fm in whole.on_mor.items())
    assert D.Ds0 == D.Ds0 and not D.Dp0 != D.Dp0
    # a cell reads one component at a time too
    cell = D.Dsig00
    f = D.D1.objects[0]
    for read in (lambda: cell == D.Dsig20, lambda: dict(cell.components), lambda: len(cell.components)):
        with pytest.raises(NotEnumerated):
            read()
    assert cell.at(f) == cell.components[f] and repr(cell).startswith("OnDemandNat(")
    # _unpreserved takes a face's map one image at a time: through a
    # view, whose table it reads, it is refused, and between enumerated
    # levels it forces what it reads and answers as the eager face does
    with pytest.raises(NotEnumerated):
        fincat._unpreserved(levels["D2"], D.D3, D.Dp0.on_mor)
    assert fincat._unpreserved(levels["D2"], D.D1, D.Ds0.on_mor) is None


def _build_tzy_sizes(y, z):
    """build-tzy's report data for the algebras y and z."""
    ws = types.SimpleNamespace(algebras={"y": y, "z": z})
    status, _, data, _ = cli._cmd_build_tzy(ws, ["y", "z"], None, None)
    assert status == "pass"
    return data


@pytest.mark.parametrize("fixture, y, z", FIXTURE_PAIRS)
def test_top_level_sizes_are_powers_of_the_bottom_level(fixture, y, z):
    # T^2 Y is |M|^2 copies of Y, so [T^2 Y, Z] is [Y, Z]^(|M|^2)
    ws = load(os.path.join(FIXTURES, fixture))
    y, z = ws.algebras[y], ws.algebras[z]
    assert _build_tzy_sizes(y, z) == enumerated_level_sizes(y, z)


@st.composite
def trivial_action_pairs(draw):
    """Two carriers of at most two objects and at most one non-identity
    arrow each, and the trivial actions on them of Z/2 or of the
    idempotent monoid {e, a}."""

    def carrier():
        n = draw(st.integers(1, 2))
        if n == 2 and draw(st.booleans()):
            return walking_arrow()
        endos = ["1"] * n
        endos[draw(st.integers(0, n - 1))] = draw(st.sampled_from(sorted(SMALL_MONOIDS)))
        return layered_cat(n, [], endos)

    Y, Z = carrier(), carrier()
    els, table = SMALL_MONOIDS[draw(st.sampled_from(["z2", "idem"]))]
    U = laxalg.monoid_two_monad(laxalg.Monoid(els, "e", table), [("Y", Y), ("Z", Z)], 2)
    return tuple(laxalg.strict_algebra(U, C, U.T(C).proj2) for C in (Y, Z))


@settings(max_examples=30, deadline=None)
@given(trivial_action_pairs())
def test_top_level_sizes_are_powers_of_the_bottom_level_on_drawn_carriers(pair):
    assert _build_tzy_sizes(*pair) == enumerated_level_sizes(*pair)


def test_hom_cat_non_composable_pair_matches_fincat_message():
    # [G, G] for the one-object Z/2 category G: the identity functor and
    # the trivial one have the same object image, so a cell on one and a
    # cell on the other compose componentwise in G, and only the boundary
    # check refuses them
    C = z2_cat()
    H = fincat.hom_cat(C, C)
    B, _, _ = brute_force_hom_cat(C, C)
    g, f = next(
        (g, f)
        for g in H.morphisms
        for f in H.morphisms
        if H.cod[f] != H.dom[g]
        and all((H.nat_of(g).at(x), H.nat_of(f).at(x)) in C.compose_table for x in C.objects)
    )
    with pytest.raises(BoundaryMismatch) as got:
        H.compose(g, f)
    with pytest.raises(BoundaryMismatch) as want:
        B.compose(g, f)
    assert str(got.value) == str(want.value)
    assert "compose_table" not in vars(H)


@pytest.mark.parametrize("fixture, y, z", FIXTURE_PAIRS)
def test_enumerations_match_recursive_searches_on_fixture_levels(fixture, y, z):
    ws = load(os.path.join(FIXTURES, fixture))
    y, z = ws.algebras[y], ws.algebras[z]
    U, Y = y.universe, y.Z
    for source in (Y, U.T(Y), U.T(U.T(Y))):
        assert assert_same_enumerations(source, z.Z)


def test_hom_cat_over_a_long_discrete_source():
    # more source objects than the interpreter's default recursion limit
    H = fincat.hom_cat(discrete(["x%d" % i for i in range(1100)]), terminal_cat())
    assert len(H.objects) == 1 and len(H.morphisms) == 1


def test_hom_cat_over_many_disjoint_arrows():
    # 1,100 disjoint walking arrows: more non-identity source morphisms
    # than the interpreter's default recursion limit, so the functor
    # search runs that deep too
    n = 1100
    objects = ["%s%d" % (end, i) for i in range(n) for end in "ab"]
    ids = ["id" + x for x in objects]
    arrows = ["u%d" % i for i in range(n)]
    dom = {m: m[2:] for m in ids}
    cod = dict(dom)
    compose = {(m, m): m for m in ids}
    for i, u in enumerate(arrows):
        dom[u], cod[u] = "a%d" % i, "b%d" % i
        compose[u, "ida%d" % i] = compose["idb%d" % i, u] = u
    C = fincat.make_fincat(objects, ids + arrows, dom, cod, dict(zip(objects, ids)), compose)
    H = fincat.hom_cat(C, terminal_cat())
    assert len(C.morphisms) - len(C.objects) == n
    assert len(H.objects) == 1 and len(H.morphisms) == 1


def test_hom_cat_searches_only_inhabited_pairs(monkeypatch):
    # [T^2 P2, P2] for the swap fixture: 256 functors out of a discrete
    # category, so only the 256 pairs (F, F) have every component
    # hom-set inhabited.  The searches read the source's naturality
    # squares off one index, built on the first of them
    ws = load(os.path.join(FIXTURES, "z2_action.json"))
    y = ws.algebras["swap"]
    U, Z = y.universe, y.Z
    T2Y = U.T(U.T(Z))
    tried, built = [], []
    search, index = fincat._enumerate_nats, fincat.FinCat._squares

    def counting(C, D, f, g):
        tried.append((f, g))
        return search(C, D, f, g)

    def building(C):
        built.append(C)
        return index.func(C)

    monkeypatch.setattr(fincat, "_enumerate_nats", counting)
    counted = functools.cached_property(building)
    counted.__set_name__(fincat.FinCat, "_squares")
    monkeypatch.setattr(fincat.FinCat, "_squares", counted)
    H = fincat.hom_cat(T2Y, Z)
    funs = [fincat._fun_key(H.functor_of(o)) for o in H.objects]
    inhabited = {
        (f, g) for f in funs for g in funs if all(map(Z.hom, f[0], g[0]))
    }
    assert len(funs) == 256
    assert len(tried) == len(inhabited) == 256
    assert set(tried) == inhabited
    assert len(built) == 1 and built[0] is T2Y


# ---------------------------------------------------------------------------
# iso_categories


def test_iso_finds_relabeling():
    C = walking_arrow()
    D = fincat.make_fincat(
        objects=["a", "b"],
        morphisms=["i", "j", "k"],
        dom={"i": "a", "j": "b", "k": "a"},
        cod={"i": "a", "j": "b", "k": "b"},
        identity={"a": "i", "b": "j"},
        compose={
            ("i", "i"): "i",
            ("j", "j"): "j",
            ("k", "i"): "k",
            ("j", "k"): "k",
        },
    )
    pair = fincat.iso_categories(C, D)
    assert pair is not None
    f, g = pair
    assert fincat.compose_fun(g, f) == fincat.identity_fun(C)
    assert fincat.compose_fun(f, g) == fincat.identity_fun(D)


def test_iso_rejects_different_shapes():
    C = walking_arrow()
    D = discrete(["a", "b"])
    assert fincat.iso_categories(C, D) is None
    assert fincat.iso_categories(C, terminal_cat()) is None


def test_iso_distinguishes_composition():
    # Two categories with identical object/morphism counts and boundaries
    # but different tables: Z/2 versus the idempotent monoid on one point.
    z2 = fincat.make_fincat(
        objects=["x"],
        morphisms=["e", "s"],
        dom={"e": "x", "s": "x"},
        cod={"e": "x", "s": "x"},
        identity={"x": "e"},
        compose={("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"},
    )
    idem = fincat.make_fincat(
        objects=["x"],
        morphisms=["e", "s"],
        dom={"e": "x", "s": "x"},
        cod={"e": "x", "s": "x"},
        identity={"x": "e"},
        compose={("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "s"},
    )
    assert fincat.iso_categories(z2, z2) is not None
    assert fincat.iso_categories(z2, idem) is None


def relabeled(C, rnd):
    """C with its objects and morphisms renamed and listed in a shuffled
    order, so that sorted order no longer follows C's."""
    objs, mors = list(C.objects), list(C.morphisms)
    rnd.shuffle(objs)
    rnd.shuffle(mors)
    o = {x: "o%d" % i for i, x in enumerate(objs)}
    m = {f: "m%d" % i for i, f in enumerate(mors)}
    return fincat.make_fincat(
        [o[x] for x in objs],
        [m[f] for f in mors],
        {m[f]: o[C.dom[f]] for f in mors},
        {m[f]: o[C.cod[f]] for f in mors},
        {o[x]: m[C.identity[x]] for x in objs},
        {(m[g], m[f]): m[gf] for (g, f), gf in C.compose_table.items()},
    )


def assert_same_iso(C, D):
    """iso_categories finds the isomorphism the recursive search finds
    first, maps listed in the same order, or neither finds one."""
    got, want = fincat.iso_categories(C, D), recursive_iso_categories(C, D)
    assert (got is None) == (want is None)
    if got is not None:
        assert [(list(F.on_obj.items()), list(F.on_mor.items())) for F in got] == [
            (list(F.on_obj.items()), list(F.on_mor.items())) for F in want
        ]
    return got


@settings(max_examples=80, deadline=None)
@given(small_categories(), small_categories(), st.randoms(use_true_random=False))
def test_iso_matches_the_recursive_search(C, D, rnd):
    assert_same_iso(C, D)
    R = relabeled(C, rnd)
    assert assert_same_iso(C, R) is not None
    assert assert_same_iso(R, C) is not None


def test_iso_matches_the_recursive_search_on_named_categories():
    cats = [terminal_cat(), walking_arrow(), walking_iso(), chain3(), discrete([])]
    cats += [discrete("ab"), layered_cat(2, [(0, 1)], ["z2", "idem"])]
    cats += [fincat.product_cat(walking_arrow(), walking_iso())]
    for C in cats:
        for D in cats:
            assert_same_iso(C, D)


def test_iso_backtracks_over_objects_and_morphisms():
    # objects: 0 first goes to 0, whose endomorphisms are the wrong monoid
    C = layered_cat(2, [], ["z2", "idem"])
    D = layered_cat(2, [], ["idem", "z2"])
    fwd, _ = assert_same_iso(C, D)
    assert fwd.on_obj == {"0": "1", "1": "0"}
    # morphisms: a first goes to the absorbing b, which squares to itself
    nil = {(g, f): g if f == "e" else f if g == "e" else "b" for g in ELS3 for f in ELS3}
    C = one_object_cat(ELS3, "e", nil)
    D = one_object_cat(["e", "b", "a"], "e", nil)
    fwd, _ = assert_same_iso(C, D)
    assert fwd.on_mor == {"e": "e", "a": "a", "b": "b"}


def test_iso_of_long_discrete_categories():
    # more objects than the interpreter's default recursion limit
    C = discrete(["x%04d" % i for i in range(1100)])
    D = discrete(["y%04d" % i for i in range(1100)])
    fwd, back = fincat.iso_categories(C, D)
    assert fwd.on_obj == {"x%04d" % i: "y%04d" % i for i in range(1100)}
    assert fincat.compose_fun(back, fwd) == fincat.identity_fun(C)


# ---------------------------------------------------------------------------
# lawful by theorem: what the library builds from proved categories without
# proving it again, proved here once with make_fincat / make_fun / make_nat


def assert_lawful(*cats, funs=(), nats=()):
    for C in cats:
        assert proved_cat(C) == C
    for F in funs:
        assert proved_fun(F) == F
    for a in nats:
        assert proved_nat(a) == a


@settings(max_examples=60, deadline=None)
@given(small_categories(), small_categories())
def test_products_and_functor_categories_are_categories(C, D):
    P = fincat.product_cat(C, D)
    assert_lawful(P, fincat.hom_cat(C, D), funs=(P.proj1, P.proj2))


@settings(max_examples=60, deadline=None)
@given(small_categories(), st.data())
def test_categories_over_a_base_are_categories(B, data):
    # up to four objects over B, two of them possibly over the same object
    xs = data.draw(st.lists(st.sampled_from(B.objects), min_size=1, max_size=4))
    over = {"o%d" % i: x for i, x in enumerate(xs)}
    for admits in (
        lambda m, o1, o2: True,
        lambda m, o1, o2: B.is_identity(m),
        lambda m, o1, o2: B.inverse(m) is not None,
    ):
        C, p = fincat.category_over(B, over, admits)
        assert_lawful(C, funs=(p,))
        assert C.objects == tuple(over)
        for o1, x1 in over.items():
            for o2, x2 in over.items():
                admitted = [m for m in B.hom(x1, x2) if admits(m, o1, o2)]
                assert C.hom(o1, o2) == tuple("[%s:%s->%s]" % (m, o1, o2) for m in admitted)
                assert [p.mor(m) for m in C.hom(o1, o2)] == admitted


def assert_diagram_lawful(D):
    """The levels of a diagram built by hom_diagram are categories (the
    views through their oracles), and its faces and cells, which act on
    demand, are functors and transformations once forced at every
    functor and cell of their sources into those oracles."""
    levels = _levels(D)
    funs = [forced(getattr(D, f), levels[s], levels[t]) for f, (s, t) in deltadiag.FACES.items()]
    nats = [forced_cell(getattr(D, c), levels["D1" if c in ("Dn0", "Dn1") else "D3"]) for c in deltadiag.CELLS]
    assert_lawful(*levels.values(), funs=funs, nats=nats)


@pytest.mark.parametrize("fixture, y, z", FIXTURE_PAIRS)
def test_descent_levels_faces_and_carriers_are_lawful(fixture, y, z):
    ws = load(os.path.join(FIXTURES, fixture))
    y, z = ws.algebras[y], ws.algebras[z]
    U = y.universe
    D = build_Tzy(U, y, z)
    lax = lax_descent(D)
    assert_diagram_lawful(D)
    strict = invertible_part(lax)
    assert_lawful(
        lax.carrier,
        strict.carrier,
        funs=(lax.projection, strict.projection, strict.inclusion),
    )
    for cls in ("lax", "pseudo"):
        assert_lawful(
            enumerate_hom_category(U, y, z, cls),
            enumerate_hom_category(U, y, z, cls, D),
        )


# sha256 of each fixture pair's carriers (see carrier_digest); on these
# pairs every datum's fbar is invertible, so the lax and strict descent
# carriers coincide, and the lax and pseudo algebra hom categories are
# the same category under the same names
CARRIER_PINS = {
    ("z2_action.json", "swap", "swap"): "a33abcfbf93c33ccc48e9af12265c0beefc24f625b15b7c893e5e6c8180352d8",
    ("z2_action.json", "skew", "skew"): "055f4851d58336c0cdd2f6c556487af4c9ef4b0850bba3eca681a72a9991c8db",
    ("z2_action.json", "skew", "swap"): "8ed49e616c2fe6c20b16552560ced62cb2de55d249a14c6bd51e4283cb6c381a",
    ("monad_on_2.json", "idalg", "idalg"): "e86b6395dca5bd93c6ae6470efc1cb2d36024e380da276984140390fbaf12d8f",
    ("monad_on_2.json", "const1", "const1"): "8afda520aa8a7a59b9a322cbc8ed1c3c9a48fe1bfc0b39bd0598b787501c30ae",
    ("monad_on_2.json", "idalg", "const1"): "0ab3f31760b90cb2545a693db031e86b66ca8263d95af5692a200bab2951df87",
}


def carrier_digest(C):
    """sha256 of C's names, boundaries, identities and table, in order."""
    shape = (
        C.objects,
        C.morphisms,
        [(m, C.dom[m], C.cod[m]) for m in C.morphisms],
        [(o, C.identity[o]) for o in C.objects],
        list(C.compose_table.items()),
    )
    return hashlib.sha256(repr(shape).encode()).hexdigest()


@pytest.mark.parametrize("fixture, y, z", FIXTURE_PAIRS)
def test_descent_and_algebra_carriers_match_their_pins(fixture, y, z):
    pin = CARRIER_PINS[(fixture, y, z)]
    ws = load(os.path.join(FIXTURES, fixture))
    y, z = ws.algebras[y], ws.algebras[z]
    U = y.universe
    lax = lax_descent(build_Tzy(U, y, z))
    carriers = [lax.carrier, invertible_part(lax).carrier]
    carriers += [enumerate_hom_category(U, y, z, cls) for cls in ("lax", "pseudo")]
    assert [carrier_digest(C) for C in carriers] == [pin] * 4


def assert_structure_functors_lawful(U):
    for C in U.members:
        if U.height(C) >= 1:
            assert_lawful(funs=(U.eta(C),))
        if U.height(C) >= 2:
            assert_lawful(funs=(U.m(C),))


@pytest.mark.parametrize("fixture", ["monad_on_2.json", "z2_action.json"])
def test_universe_members_and_T_are_lawful(fixture):
    ws = load(os.path.join(FIXTURES, fixture))
    for U in ws.universes.values():
        assert check_pseudomonad(U)
        assert_structure_functors_lawful(U)
    # fill each universe's memo with the T(F) that the commands build,
    # and T^2(f) for each functor f: Y -> Z of a pair
    for z in ws.algebras.values():
        U = z.universe
        assert_lawful(nats=(U.T_nat(z.zbar), U.T_nat(z.zbar0)))
        check_lax_algebra(U, z)
    for y in ws.algebras.values():
        for z in ws.algebras.values():
            if y.universe is z.universe:
                U = y.universe
                lax_descent(build_Tzy(U, y, z))
                enumerate_hom_category(U, y, z)
                D1 = fincat.hom_cat(y.Z, z.Z)
                for f in map(D1.functor_of, D1.objects):
                    U.T_fun(U.T_fun(f))
    for U in ws.universes.values():
        Ts = [F for key, F in U._memo.items() if key[0] == "T"]
        assert len(Ts) > 10
        assert_lawful(*U.members, funs=Ts)


@st.composite
def closed_tables(draw):
    """A unit and a table on 1-3 elements whose values are all elements: a
    small lawful monoid, one of its non-associative mutants, or any closed
    table with any element as its unit."""
    kind = draw(st.sampled_from(["lawful", "mutant", "any"]))
    if kind == "any":
        els = ["e", "a", "b"][: draw(st.integers(1, 3))]
        pairs = [(g, h) for g in els for h in els]
        values = draw(st.lists(st.sampled_from(els), min_size=len(pairs), max_size=len(pairs)))
        return els, draw(st.sampled_from(els)), dict(zip(pairs, values))
    els, table = SMALL_MONOIDS[draw(st.sampled_from(sorted(SMALL_MONOIDS)))]
    if kind == "mutant":
        table = draw(st.sampled_from(list(nonassociative_mutants(els, "e", table)) or [table]))
    return els, "e", table


@settings(max_examples=60, deadline=None)
@given(closed_tables())
def test_monad_structure_functors_are_functors(case):
    # m: (g, (h, x)) -> (gh, x) and eta: x -> (e, x) are functors for any
    # table that sends every pair of elements to an element, associative or
    # not, and any unit that is an element; so the universe builds them
    # without proof once monoid_two_monad has checked that much
    els, unit, table = case
    M = laxalg.Monoid(els, unit, table, check=False)
    seeds = [("1", terminal_cat()), ("A", walking_arrow()), ("D", discrete("pq"))]
    assert_structure_functors_lawful(laxalg.monoid_two_monad(M, seeds, 2))


def test_the_discrete_category_of_the_elements_is_lawful():
    # the universe builds the discrete category of M's elements without
    # proof, as it is lawful once the elements are distinct: make_fincat
    # proves it here, and monoid_two_monad refuses a repeated element
    for els, table in SMALL_MONOIDS.values():
        U = laxalg.monoid_two_monad(laxalg.Monoid(els, "e", table), [("1", terminal_cat())], 1)
        assert proved_cat(U._mdisc) == U._mdisc
        assert U._mdisc.objects == U._mdisc.morphisms == tuple(els)
    els, table = SMALL_MONOIDS["z2"]
    M = laxalg.Monoid(els + ["s"], "e", table, check=False)
    with pytest.raises(AxiomViolation, match="monoid elements repeat"):
        laxalg.monoid_two_monad(M, [("1", terminal_cat())], 1)


def test_codescent_probe_faces_are_lawful(monkeypatch):
    built = _recorded_hom_diagrams(monkeypatch)
    assert _probe_descent(load(os.path.join(FIXTURES, "monad_on_2.json")))["status"] == "pass"
    assert len(built) == 2
    for D, _, _ in built:
        assert D.D3.source.factors[1] is D.D2.source
        assert_diagram_lawful(D)
