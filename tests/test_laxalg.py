import functools
import gc
import json
import math
import os
import random
import re
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import fin2cat
from fin2cat import deltadiag, descent, fincat, laxalg
from fin2cat.cli import load
from fin2cat.errors import (
    AxiomViolation,
    BoundaryMismatch,
    CoherenceViolation,
    Verdict,
)
from fin2cat.laxalg import (
    LaxMorphism,
    Monoid,
    build_Tzy,
    check_lax_algebra,
    check_lax_morphism,
    check_pseudomonad,
    check_transformation,
    enumerate_hom_category,
    monoid_two_monad,
    verify_prop_descent,
)
from helpers import (
    FIXTURE_PAIRS,
    FIXTURES,
    SMALL_MONOIDS,
    EagerUniverse,
    UncachedUniverse,
    chain3,
    constant_fun,
    discrete,
    fun_key,
    named_fun,
    nonassociative_mutants,
    one_object_cat,
    pasted_check_lax_algebra,
    pasted_check_pseudomonad,
    pasted_lax_morphism,
    pasted_transformation,
    terminal_cat,
    triple_loop_monoid_check,
    unital_associative_tables,
    walking_arrow,
    z2_cat,
)

Z2_FX = os.path.join(os.path.dirname(fin2cat.__file__), "fixtures", "z2_action.json")


def trivial_monoid():
    return Monoid(["e"], "e", {("e", "e"): "e"})


def z2_monoid():
    return Monoid(
        ["e", "s"],
        "e",
        {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"},
    )


def triv_universe(C, depth=3):
    return monoid_two_monad(trivial_monoid(), [("C", C)], depth)


def identity_algebra(U, C):
    """The free-forgetful fixed point: act by projecting the monoid away."""
    return laxalg.strict_algebra(U, C, U.T(C).proj2)


def const1_monad_algebra(U, C):
    """The 'send everything to 1' monad on the walking arrow, packaged as a
    lax algebra for the trivial-monoid 2-monad."""
    t = constant_fun(C, C, "1")
    mu = fincat.make_nat(
        fincat.compose_fun(t, t), t, {"0": "id1", "1": "id1"}
    )
    eta = fincat.make_nat(
        fincat.identity_fun(C), t, {"0": "u", "1": "id1"}
    )
    return laxalg.monad_algebra(U, C, t, mu, eta)


def z2_action_setup():
    """Z/2 acting on a discrete two-point category by swapping."""
    P = fincat.make_fincat(
        objects=["p", "q"],
        morphisms=["idp", "idq"],
        dom={"idp": "p", "idq": "q"},
        cod={"idp": "p", "idq": "q"},
        identity={"p": "idp", "q": "idq"},
        compose={("idp", "idp"): "idp", ("idq", "idq"): "idq"},
    )
    U = monoid_two_monad(z2_monoid(), [("P", P)], 3)
    TP = U.T(P)
    a = fincat.make_fun(
        TP,
        P,
        {"(e,p)": "p", "(e,q)": "q", "(s,p)": "q", "(s,q)": "p"},
        {
            "(e,idp)": "idp",
            "(e,idq)": "idq",
            "(s,idp)": "idq",
            "(s,idq)": "idp",
        },
    )
    return U, P, laxalg.strict_algebra(U, P, a)


def z2_carrier_algebra(U, C, c, v):
    """Over the one-object Z/2 category: action = projection, zbar the
    central element c, zbar0 the central element v."""
    a = U.T(C).proj2
    T2 = U.T(U.T(C))
    zbar = fincat.make_nat(
        fincat.compose_fun(a, U.T_fun(a)),
        fincat.compose_fun(a, U.m(C)),
        {o: c for o in T2.objects},
    )
    zbar0 = fincat.make_nat(
        fincat.identity_fun(C),
        fincat.compose_fun(a, U.eta(C)),
        {o: v for o in C.objects},
    )
    return laxalg.LaxAlgebra(U, C, a, zbar, zbar0)


# ---------------------------------------------------------------------------
# monoids and universes


def test_monoid_validation():
    with pytest.raises(AxiomViolation):
        Monoid(["e", "a"], "e", {("e", "e"): "e", ("e", "a"): "a",
                                 ("a", "e"): "e", ("a", "a"): "a"})  # broken unit
    with pytest.raises(AxiomViolation):
        # left-translation table that is not associative
        Monoid(["e", "a", "b"], "e", {
            ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
            ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "a",
            ("b", "e"): "b", ("b", "a"): "b", ("b", "b"): "a",
        })
    with pytest.raises(AxiomViolation):
        Monoid(["e", "e"], "e", {("e", "e"): "e"})  # an element twice


_LAWFUL = {}  # n -> the lawful monoid tables on n elements


@st.composite
def monoid_tables(draw):
    """A unit and a table on 1-3 distinct elements: a lawful monoid, or
    one with an entry changed (possibly to a non-element), an entry
    dropped, or a unit that is no unit or no element."""
    n = draw(st.integers(1, 3))
    if n not in _LAWFUL:
        _LAWFUL[n] = unital_associative_tables(["e", "a", "b"][:n])
    els = ["e", "a", "b"][:n]
    unit, table = draw(st.sampled_from(_LAWFUL[n]))
    table = dict(table)
    fault = draw(st.sampled_from(["none", "entry", "drop", "unit"]))
    if fault == "entry":
        table[draw(st.sampled_from(sorted(table)))] = draw(st.sampled_from(els + ["z"]))
    elif fault == "drop":
        del table[draw(st.sampled_from(sorted(table)))]
    elif fault == "unit":
        unit = draw(st.sampled_from(els + ["z"]))
    return els, unit, table


@settings(max_examples=300, deadline=None)
@given(monoid_tables())
def test_monoid_accepts_what_the_triple_loop_accepts(case):
    els, unit, table = case
    try:
        triple_loop_monoid_check(els, unit, table)
        want = None
    except AxiomViolation:
        want = AxiomViolation
    try:
        Monoid(els, unit, table)
        got = None
    except AxiomViolation:
        got = AxiomViolation
    assert got == want, case


def test_monoid_check_bypass():
    m = Monoid(["e", "a", "b"], "e", {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "a",
        ("b", "e"): "b", ("b", "a"): "b", ("b", "b"): "a",
    }, check=False)
    assert m.mul("a", "b") == "a"


def test_universe_member_chain():
    C = walking_arrow()
    U = triv_universe(C, depth=2)
    TC = U.T(C)
    T2C = U.T(TC)
    assert sorted(TC.objects) == ["(e,0)", "(e,1)"]
    assert sorted(T2C.objects) == ["(e,(e,0))", "(e,(e,1))"]
    with pytest.raises(AxiomViolation):
        U.T(T2C)  # beyond depth
    with pytest.raises(AxiomViolation):
        U.T(z2_cat())  # not a member


def test_structure_functors_frozen():
    C = walking_arrow()
    U = triv_universe(C)
    assert U.eta(C).ob("0") == "(e,0)"
    assert U.eta(C).mor("u") == "(e,u)"
    assert U.m(C).ob("(e,(e,1))") == "(e,1)"

    U2, P, _ = z2_action_setup()
    assert U2.m(P).ob("(s,(s,p))") == "(e,p)"
    assert U2.m(P).ob("(s,(e,q))") == "(s,q)"


def test_T_fun_T_nat():
    C = walking_arrow()
    U = triv_universe(C)
    t = constant_fun(C, C, "1")
    Tt = U.T_fun(t)
    assert Tt.ob("(e,0)") == "(e,1)"
    assert Tt.mor("(e,u)") == "(e,id1)"
    eta = fincat.make_nat(fincat.identity_fun(C), t, {"0": "u", "1": "id1"})
    Teta = U.T_nat(eta)
    assert Teta.at("(e,0)") == "(e,u)"


# ---------------------------------------------------------------------------
# check_pseudomonad


def test_pseudomonad_passes_trivial_and_z2():
    C = walking_arrow()
    assert check_pseudomonad(triv_universe(C, depth=3))
    assert check_pseudomonad(triv_universe(C, depth=4))
    U2, _, _ = z2_action_setup()
    assert check_pseudomonad(U2)


def test_pseudomonad_fails_nonassociative_table():
    bad = Monoid(["e", "a", "b"], "e", {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "a",
        ("b", "e"): "b", ("b", "a"): "b", ("b", "b"): "a",
    }, check=False)
    T = fincat.make_fincat(
        objects=["*"], morphisms=["i"], dom={"i": "*"}, cod={"i": "*"},
        identity={"*": "i"}, compose={("i", "i"): "i"},
    )
    U = monoid_two_monad(bad, [("pt", T)], 3)
    v = check_pseudomonad(U)
    assert not v
    assert v.failures


# ---------------------------------------------------------------------------
# algebras


def test_identity_algebra_checks():
    C = walking_arrow()
    U = triv_universe(C)
    y = identity_algebra(U, C)
    assert check_lax_algebra(U, y)


def test_algebra_boundary_validated():
    C = walking_arrow()
    U = triv_universe(C)
    a = U.T(C).proj2
    good = fincat.identity_nat(fincat.compose_fun(a, U.T_fun(a)))
    with pytest.raises(BoundaryMismatch):
        laxalg.LaxAlgebra(U, C, a, good, good)  # zbar0 has the wrong shape


def test_unit_equations_detect_perturbation():
    # Over the one-object Z/2 category both pasted unit equations reduce to
    # zbar . zbar0 = e, so the (e,e) and (s,s) choices pass and the mixed
    # ones fail.
    C = z2_cat()
    U = triv_universe(C)
    assert check_lax_algebra(U, z2_carrier_algebra(U, C, "e", "e"))
    assert check_lax_algebra(U, z2_carrier_algebra(U, C, "s", "s"))
    for c, v in (("e", "s"), ("s", "e")):
        verdict = check_lax_algebra(U, z2_carrier_algebra(U, C, c, v))
        assert not verdict
        assert verdict.failures == [
            "unit pasting (eta) fails at '(e,*)' ('s' vs 'e')",
            "unit pasting (T eta) fails at '(e,*)' ('s' vs 'e')",
        ]


def test_const1_monad_algebra_checks():
    C = walking_arrow()
    U = triv_universe(C)
    z = const1_monad_algebra(U, C)
    assert check_lax_algebra(U, z)


def test_z2_action_algebra_checks():
    U, P, y = z2_action_setup()
    assert check_lax_algebra(U, y)


# ---------------------------------------------------------------------------
# morphisms and transformations


def test_identity_morphism_is_strict():
    C = walking_arrow()
    U = triv_universe(C)
    z = const1_monad_algebra(U, C)
    f = fincat.identity_fun(C)
    fbar = fincat.identity_nat(fincat.compose_fun(z.a, U.T_fun(f)))
    phi = LaxMorphism(f, fbar)
    assert check_lax_morphism(U, z, z, phi) == "strict"


def test_invalid_morphism_raises():
    C = z2_cat()
    U = triv_universe(C)
    z = z2_carrier_algebra(U, C, "e", "e")
    f = fincat.identity_fun(C)
    src = fincat.compose_fun(z.a, U.T_fun(f))
    tgt = fincat.compose_fun(f, z.a)
    bad = fincat.make_nat(src, tgt, {o: "s" for o in U.T(C).objects})
    phi = LaxMorphism(f, bad)
    assert phi.cls == "pseudo"  # s is invertible but not an identity
    with pytest.raises(CoherenceViolation) as err:
        check_lax_morphism(U, z, z, phi)
    assert str(err.value) == (
        "multiplication compatibility fails at '(e,(e,*))' ('s' vs 'e')"
    )


# (zbar, zbar0 of y; zbar, zbar0 of z; fbar), all central elements of Z/2,
# against the class or the CoherenceViolation of (id, fbar): y -> z
_Z2_MORPHISM_OUTCOMES = {
    "eeeee": "strict",
    "eesss": "pseudo",
    "eeees": "multiplication compatibility fails at '(e,(e,*))' ('s' vs 'e')",
    "seeee": "multiplication compatibility fails at '(e,(e,*))' ('e' vs 's')",
    "eeese": "unit compatibility fails at '*' ('s' vs 'e')",
    "eseee": "unit compatibility fails at '*' ('e' vs 's')",
}


@pytest.mark.parametrize("case", sorted(_Z2_MORPHISM_OUTCOMES))
def test_lax_morphism_coherence_messages(case):
    C = z2_cat()
    U = triv_universe(C)
    y = z2_carrier_algebra(U, C, case[0], case[1])
    z = z2_carrier_algebra(U, C, case[2], case[3])
    f = fincat.identity_fun(C)
    fbar = fincat.make_nat(
        fincat.compose_fun(z.a, U.T_fun(f)),
        fincat.compose_fun(f, y.a),
        {o: case[4] for o in U.T(C).objects},
    )
    try:
        got = check_lax_morphism(U, y, z, LaxMorphism(f, fbar))
    except CoherenceViolation as e:
        got = str(e)
    assert got == _Z2_MORPHISM_OUTCOMES[case]


def test_morphism_boundary_validated():
    C = walking_arrow()
    U = triv_universe(C)
    y = identity_algebra(U, C)
    z = const1_monad_algebra(U, C)
    f = fincat.identity_fun(C)
    fbar = fincat.identity_nat(fincat.compose_fun(y.a, U.T_fun(f)))
    with pytest.raises(BoundaryMismatch):
        check_lax_morphism(U, y, z, LaxMorphism(f, fbar))


def test_check_transformation():
    C = walking_arrow()
    U = triv_universe(C)
    z = const1_monad_algebra(U, C)
    i = fincat.identity_fun(C)
    c1 = constant_fun(C, C, "1")
    phi = LaxMorphism(
        i, fincat.identity_nat(fincat.compose_fun(z.a, U.T_fun(i))),
        src_alg=z, tgt_alg=z,
    )
    psi = LaxMorphism(
        c1, fincat.identity_nat(fincat.compose_fun(z.a, U.T_fun(c1))),
        src_alg=z, tgt_alg=z,
    )
    m = fincat.make_nat(i, c1, {"0": "u", "1": "id1"})
    assert check_transformation(U, phi, psi, m)


def test_check_transformation_detects_mismatch():
    C = z2_cat()
    U = triv_universe(C)
    z = z2_carrier_algebra(U, C, "e", "e")
    f = fincat.identity_fun(C)
    src = fincat.compose_fun(z.a, U.T_fun(f))
    tgt = fincat.compose_fun(f, z.a)
    phi = LaxMorphism(f, fincat.identity_nat(src), src_alg=z, tgt_alg=z)
    psi = LaxMorphism(
        f,
        fincat.make_nat(src, tgt, {o: "s" for o in U.T(C).objects}),
        src_alg=z,
        tgt_alg=z,
    )
    m = fincat.identity_nat(f)
    verdict = check_transformation(U, phi, psi, m)
    assert not verdict
    assert verdict.failures == ["compatibility fails at '(e,*)' ('s' vs 'e')"]


def test_check_transformation_refuses_mistyped_fbars():
    # the identity algebra on the walking arrow: a morphism over the
    # identity functor that carries the fbar of the functor constant at 1
    # is refused at entry, as phi and as psi, with no square read
    C = walking_arrow()
    U = triv_universe(C)
    y = identity_algebra(U, C)
    i, c1 = fincat.identity_fun(C), constant_fun(C, C, "1")

    def strict_fbar(f):
        return fincat.identity_nat(fincat.compose_fun(y.a, U.T_fun(f)))

    good = LaxMorphism(i, strict_fbar(i), src_alg=y, tgt_alg=y)
    bad = LaxMorphism(i, strict_fbar(c1), src_alg=y, tgt_alg=y)
    for phi, psi in ((bad, good), (good, bad)):
        with pytest.raises(BoundaryMismatch):
            check_transformation(U, phi, psi, fincat.identity_nat(i))


def _outcome(check, *args):
    """What a check gives: a morphism's class, a Verdict's ok and
    failures, or the text of the CoherenceViolation it raises."""
    try:
        got = check(*args)
    except CoherenceViolation as e:
        return "CoherenceViolation", str(e)
    return (got.ok, got.failures) if isinstance(got, Verdict) else got


def _same_outcomes(U, y, z, candidates, cells):
    """Both routes agree on each candidate (f, fbar) y -> z, and on the
    square of each (phi, psi, m) with m drawn from cells(f, g); returns
    the candidates' outcomes."""
    got = []
    for f, fbar in candidates:
        out = _outcome(check_lax_morphism, U, y, z, LaxMorphism(f, fbar))
        assert out == _outcome(pasted_lax_morphism, U, y, z, LaxMorphism(f, fbar))
        got.append(out)
    for f, fbar in candidates:
        for g, gbar in candidates:
            phi, psi = LaxMorphism(f, fbar, y, z), LaxMorphism(g, gbar, y, z)
            for m in cells(f, g):
                want = _outcome(pasted_transformation, U, phi, psi, m)
                assert _outcome(check_transformation, U, phi, psi, m) == want
    return got


@pytest.mark.parametrize("fixture, y, z", FIXTURE_PAIRS)
def test_componentwise_checks_match_pastings_on_fixture_pairs(fixture, y, z):
    # every candidate (f, fbar) in [Y, Z] x [TY, Z], and every cell of
    # [Y, Z] between two of them: the componentwise checks give what the
    # pasted oracle gives, and the oracle finds the two sides of each
    # pasting on one boundary, the theorem the componentwise route rests
    # on.  enumerate_hom_category is the hom category the oracle cuts out
    ws = load(os.path.join(FIXTURES, fixture))
    y, z = ws.algebras[y], ws.algebras[z]
    U = y.universe
    d1, d2 = fincat.hom_cat(y.Z, z.Z), fincat.hom_cat(U.T(y.Z), z.Z)
    ids = {}
    for fid in d1.objects:
        f = d1.functor_of(fid)
        src, tgt = laxalg.fbar_boundary(U, y, z, f)
        for nid in d2.hom(named_fun(d2, src), named_fun(d2, tgt)):
            ids["(%s,%s)" % (fid, nid)] = (f, d2.nat_of(nid))

    def cells(f, g):
        return [d1.nat_of(m) for m in d1.hom(named_fun(d1, f), named_fun(d1, g))]

    classes = dict(zip(ids, _same_outcomes(U, y, z, list(ids.values()), cells)))
    for cls, kept in (("lax", ("strict", "pseudo", "lax")), ("pseudo", ("strict", "pseudo"))):
        over = {o: named_fun(d1, ids[o][0]) for o, k in classes.items() if k in kept}

        def admits(m, o1, o2):
            phi, psi = (LaxMorphism(*ids[o], y, z) for o in (o1, o2))
            return pasted_transformation(U, phi, psi, d1.nat_of(m))

        want, _ = fincat.category_over(d1, over, admits)
        assert enumerate_hom_category(U, y, z, cls) == want


@functools.lru_cache(maxsize=None)
def _oracle_pairs():
    """(U, y, z, the functors Y -> Z with a typed fbar) for each
    FIXTURE_PAIRS pair that has such a functor, and the trivial actions
    of Z/2 on the one-object categories of Z/2 and of {e, a, b} with
    x.y = x for x, y in {a, b}: every cell of these is any element, and
    the second composes its elements in a non-commuting way."""
    pairs = []
    for fixture, y, z in FIXTURE_PAIRS:
        ws = load(os.path.join(FIXTURES, fixture))
        pairs.append((ws.algebras[y], ws.algebras[z]))
    left_zero = {(x, y): y if x == "e" else x for x in "eab" for y in "eab"}
    for G in (z2_cat(), one_object_cat(["e", "a", "b"], "e", left_zero)):
        U = monoid_two_monad(z2_monoid(), [("G", G)], 3)
        pairs.append((laxalg.strict_algebra(U, G, U.T(G).proj2),) * 2)
    out = []
    for y, z in pairs:
        U, Z = y.universe, z.Z
        funs = [
            f
            for f in map(fincat.hom_cat(y.Z, Z).functor_of, fincat.hom_cat(y.Z, Z).objects)
            if _homs(*laxalg.fbar_boundary(U, y, z, f))
        ]
        if funs:
            out.append((U, y, z, funs))
    return out


def _homs(F, G):
    """The hom-sets a cell F => G picks its components from, object by
    object, or None when one is empty."""
    homs = {x: F.tgt.hom(F.ob(x), G.ob(x)) for x in F.src.objects}
    return homs if all(homs.values()) else None


def _family(draw, F, G):
    """A cell F => G with components drawn from their hom-sets: typed, and
    natural or not."""
    return fincat.NatT(F, G, {x: draw(st.sampled_from(h)) for x, h in _homs(F, G).items()})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_componentwise_checks_match_pastings_on_drawn_families(data):
    # typed component families, natural or not: the comparison cells of
    # both algebras (redrawn or kept), two candidates y -> z and a cell
    # between their functors; the routes agree on each check, failing ones
    # included, and on the algebra check of y and of z
    draw = data.draw
    U, y, z, funs = draw(st.sampled_from(_oracle_pairs()))
    y, z = (
        laxalg.LaxAlgebra(
            U, w.Z, w.a, *(_family(draw, *b) for b in laxalg.cell_boundaries(U, w.Z, w.a))
        )
        if draw(st.booleans())
        else w
        for w in (y, z)
    )
    for w in (y, z):
        want = _outcome(pasted_check_lax_algebra, U, w)
        assert _outcome(check_lax_algebra, U, w) == want
    f = draw(st.sampled_from(funs))
    g = draw(st.sampled_from([g for g in funs if _homs(f, g)]))
    candidates = [(h, _family(draw, *laxalg.fbar_boundary(U, y, z, h))) for h in (f, g)]
    m = _family(draw, f, g)
    _same_outcomes(U, y, z, candidates, lambda h, k: [m] if (h, k) == (f, g) else [])


FIXTURE_ALGEBRAS = [
    ("monad_on_2.json", "idalg"),
    ("monad_on_2.json", "const1"),
    ("z2_action.json", "swap"),
    ("z2_action.json", "skew"),
    ("z2_on_three.json", "swap"),
    ("z2_on_three.json", "fix"),
]


@pytest.mark.parametrize("fixture, name", FIXTURE_ALGEBRAS)
def test_algebra_check_matches_the_pasted_check_on_fixtures(fixture, name):
    # the componentwise check gives the pasted oracle's Verdict, failure
    # strings included, and the oracle finds the two sides of each pasting
    # on one boundary; skew's unit pastings fail
    z = load(os.path.join(FIXTURES, fixture)).algebras[name]
    got = _outcome(check_lax_algebra, z.universe, z)
    assert got == _outcome(pasted_check_lax_algebra, z.universe, z)
    assert got[0] is (name != "skew")


@pytest.mark.parametrize("fixture", sorted({f for f, _ in FIXTURE_ALGEBRAS}))
def test_algebra_check_pastes_nothing(monkeypatch, fixture):
    # once the universe's identity cells mu, iota and tau exist (each is
    # built once, by compose_fun, and memoised), check_lax_algebra reads
    # components only: no paste, whisker or composite functor
    for name in ("paste", "whisker_left", "whisker_right", "identity_nat", "_vv"):
        assert not hasattr(laxalg, name)
    ws = load(os.path.join(FIXTURES, fixture))
    for z in ws.algebras.values():
        U, Z = z.universe, z.Z
        if U.height(Z) >= 3:
            U.mu(Z)
        U.iota(Z)
        U.tau(Z)

    def refused(*args):
        raise AssertionError("check_lax_algebra composed or pasted a cell")

    for name in ("paste", "whisker_left", "whisker_right", "compose_fun"):
        for module in (fincat, laxalg):
            monkeypatch.setattr(module, name, refused, raising=False)
    for name, z in ws.algebras.items():
        assert bool(check_lax_algebra(z.universe, z)) is (name != "skew")


# ---------------------------------------------------------------------------
# hom categories: frozen counts computed by hand


def test_hom_category_identity_monad():
    # Identity monad: lax morphisms are just functors with a free
    # comparison cell forced to the identity, so the hom category is the
    # ordinary functor category (3 objects, 6 morphisms for arrow -> arrow).
    C = walking_arrow()
    U = triv_universe(C)
    y = identity_algebra(U, C)
    H = enumerate_hom_category(U, y, y, "lax")
    assert len(H.objects) == 3
    assert len(H.morphisms) == 6
    assert fincat.iso_categories(H, fincat.hom_cat(C, C)) is not None


def test_hom_category_const1_monad():
    # Only the identity and const-1 functors admit a comparison cell, and
    # there is exactly one transformation between them.
    C = walking_arrow()
    U = triv_universe(C)
    z = const1_monad_algebra(U, C)
    H = enumerate_hom_category(U, z, z, "lax")
    assert len(H.objects) == 2
    assert len(H.morphisms) == 3
    P = enumerate_hom_category(U, z, z, "pseudo")
    assert len(P.objects) == 2
    assert len(P.morphisms) == 3


def test_hom_category_z2_action():
    # Equivariant functors for the swap action: identity and swap, with no
    # transformations between them (the carrier is discrete).
    U, P, y = z2_action_setup()
    H = enumerate_hom_category(U, y, y, "lax")
    assert len(H.objects) == 2
    assert len(H.morphisms) == 2


def test_hom_category_pseudo_subset_of_lax():
    C = walking_arrow()
    U = triv_universe(C)
    z = const1_monad_algebra(U, C)
    lax = enumerate_hom_category(U, z, z, "lax")
    pseudo = enumerate_hom_category(U, z, z, "pseudo")
    assert set(pseudo.objects) <= set(lax.objects)
    assert set(pseudo.morphisms) <= set(lax.morphisms)


# ---------------------------------------------------------------------------
# the induced three-level diagram and the comparison of both routes


def test_build_tzy_shape():
    C = walking_arrow()
    U = triv_universe(C)
    y = identity_algebra(U, C)
    D = build_Tzy(U, y, y)
    assert len(D.D1.objects) == 3 and len(D.D1.morphisms) == 6
    # the upper levels are views of [T C, C] and [T^2 C, C] over D1, with
    # the hom-sets of their enumerated oracles
    for level, source in ((D.D2, U.T(C)), (D.D3, U.T(U.T(C)))):
        assert isinstance(level, fincat.PowerView)
        assert level.source is source and level.target is C
        H = fincat.hom_cat(source, C)
        assert len(H.objects) == 3 and len(H.morphisms) == 6
        assert all(level.hom(f, g) == H.hom(f, g) for f in H.objects for g in H.objects)


@pytest.mark.parametrize("fixture, y, z", FIXTURE_PAIRS)
def test_build_tzy_composes_each_cell_boundary_once(monkeypatch, fixture, y, z):
    # counts, not timings: hom_diagram composes the faces on each of the
    # ten sides of the five cells once, on demand, and checks no boundary
    # again, so each build_Tzy makes 10 face_composite calls
    ws = load(os.path.join(FIXTURES, fixture))
    y, z = ws.algebras[y], ws.algebras[z]
    paths = []
    compose = deltadiag.face_composite
    monkeypatch.setattr(deltadiag, "face_composite", lambda kw, path, base: paths.append(path) or compose(kw, path, base))
    monkeypatch.setattr(deltadiag, "check_shape", None)
    D = build_Tzy(y.universe, y, z)
    assert sorted(paths) == sorted(p for sides in deltadiag.CELLS.values() for p in sides)
    assert len(paths) == 10
    descent.lax_descent(D)
    assert len(paths) == 10


def test_mu_is_built_once_per_member(monkeypatch):
    # check_pseudomonad for Z/2 over the walking arrow at depth 4 asks for
    # mu at A three times (the associativity law and both pastings) and at
    # T(A) three times (the law, the associativity pasting at A and the
    # triangle at T(A)); the universe builds each once, and the same cell
    # comes back
    built = []
    identity_cell = laxalg.identity_cell

    def counted(F, G):
        built.append(sys._getframe(1).f_code.co_qualname)
        return identity_cell(F, G)

    monkeypatch.setattr(laxalg, "identity_cell", counted)
    U = monoid_two_monad(z2_monoid(), [("A", walking_arrow())], 4)
    assert check_pseudomonad(U)
    assert built.count("MonadUniverse.mu.<locals>.<lambda>") == 2
    A = U.members[0]
    assert U.mu(A) is U.mu(A) and U.mu(U.T(A)) is U.mu(U.T(A))
    assert built.count("MonadUniverse.mu.<locals>.<lambda>") == 2


def test_verify_prop_descent_identity_monad():
    C = walking_arrow()
    U = triv_universe(C)
    y = identity_algebra(U, C)
    report = verify_prop_descent(U, y, y)
    assert report["status"] == "pass"
    assert report["lax"]["hom_objects"] == 3
    assert report["lax"]["descent_objects"] == 3
    assert report["lax"]["match"] is True
    assert report["pseudo"]["match"] is True
    assert report["counterexample"] is None


def test_verify_prop_descent_const1_monad():
    C = walking_arrow()
    U = triv_universe(C)
    z = const1_monad_algebra(U, C)
    report = verify_prop_descent(U, z, z)
    assert report["status"] == "pass"
    assert report["lax"]["hom_objects"] == 2
    assert report["lax"]["hom_morphisms"] == 3
    assert report["lax"]["match"] is True
    assert report["pseudo"]["match"] is True


def test_verify_prop_descent_mixed_algebras():
    C = walking_arrow()
    U = triv_universe(C)
    y = identity_algebra(U, C)
    z = const1_monad_algebra(U, C)
    report = verify_prop_descent(U, y, z)
    assert report["status"] == "pass"
    assert report["lax"]["match"] is True


def test_verify_prop_descent_builds_each_level_once(monkeypatch):
    # [Y, Z] once, one view each of [TY, Z] and [T^2 Y, Z], and one lax
    # descent category that the strict one is cut out of
    ws = load(Z2_FX)
    y = ws.algebras["swap"]
    calls = {"hom_cat": 0, "lax_descent": 0, "PowerView": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    hom = counting("hom_cat", fincat.hom_cat)
    lax = counting("lax_descent", descent.lax_descent)
    for module in (fincat, laxalg):
        monkeypatch.setattr(module, "hom_cat", hom)
    for module in (descent, laxalg):
        monkeypatch.setattr(module, "lax_descent", lax)
    monkeypatch.setattr(laxalg, "PowerView", counting("PowerView", fincat.PowerView))
    report = verify_prop_descent(y.universe, y, y)
    assert report["status"] == "pass"
    assert calls == {"hom_cat": 1, "lax_descent": 1, "PowerView": 2}


def _descent_pairs():
    """swap -> skew on the shipped Z/2 workspace, and the trivial action of
    Z/2 on the one-object Z/2 category G, whose [T^2 G, G] is dense: 16
    functors, 256 transformations and 4,096 composable pairs."""
    ws = load(Z2_FX)
    G = z2_cat()
    U = monoid_two_monad(z2_monoid(), [("G", G)], 3)
    dense = laxalg.strict_algebra(U, G, U.T(G).proj2)
    return {
        "swap-skew": (ws.algebras["swap"], ws.algebras["skew"]),
        "dense": (dense, dense),
    }


@pytest.mark.parametrize("pair", ["swap-skew", "dense"])
def test_descent_reads_the_top_level_without_its_table(monkeypatch, pair):
    # the diagram computes nothing when it is built, and D3 = [T^2 Y, Z]
    # is then read only at the comparison cells and the descent
    # equations: a few dozen composites, and never its table or its
    # functors, as D2 and D3 are views that enumerate nothing.  D1 is
    # read one composite at a time too (lax_descent, the inverses of
    # invertible_part, enumerate_hom_category), so its table is not built
    y, z = _descent_pairs()[pair]
    composites = {}
    sources = []

    def counting(compose):
        def wrapper(self, g, f):
            composites[id(self)] = composites.get(id(self), 0) + 1
            return compose(self, g, f)

        return wrapper

    for cls in (fincat.HomCat, fincat.PowerView):
        monkeypatch.setattr(cls, "compose", counting(cls.compose))
    enumerate_functors = fincat._enumerate_functors
    monkeypatch.setattr(
        fincat,
        "_enumerate_functors",
        lambda C, D: sources.append(C) or enumerate_functors(C, D),
    )
    diagrams = []
    build = laxalg.build_Tzy

    def recording(*args):
        diagrams.append(build(*args))
        return diagrams[-1]

    D = build_Tzy(y.universe, y, z)
    TY, T2Y = D.D2.source, D.D3.source
    assert composites == {}
    descent.lax_descent(D)
    assert 0 < composites.get(id(D.D3), 0) < 100

    monkeypatch.setattr(laxalg, "build_Tzy", recording)
    assert verify_prop_descent(y.universe, y, z)["status"] == "pass"
    (D,) = diagrams
    assert 0 < composites.get(id(D.D3), 0) < 100
    assert "compose_table" not in vars(D.D1)
    assert isinstance(D.D2, fincat.PowerView) and isinstance(D.D3, fincat.PowerView)
    assert not any(C == TY or C == T2Y for C in sources)
    # the whole top level has 256 transformations; the view named fewer
    assert len(fincat.hom_cat(T2Y, D.D3.target).morphisms) == 256
    assert len(D.D3._keys) < 100


def _twist_z2(C):
    """C with x . x = x instead of the identity for one endomorphism x
    whose square is the identity: same names, one composite differs."""
    o = C.objects[0]
    i = C.identity[o]
    x = next(m for m in C.hom(o, o) if m != i and C.compose(m, m) == i)
    table = dict(C.compose_table)
    table[(x, x)] = x
    return x, fincat.make_fincat(C.objects, C.morphisms, C.dom, C.cod, C.identity, table)


def test_compare_identity_names_the_differing_composite():
    z2 = one_object_cat(["e", "a"], "e", {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"})
    x, idem = _twist_z2(z2)
    assert laxalg._compare_identity(z2, z2) == (True, None)
    ok, why = laxalg._compare_identity(z2, idem)
    assert not ok
    assert why == "composition not preserved on (%r, %r)" % (x, x)


def test_verify_prop_descent_reports_a_differing_composite(monkeypatch):
    # skew -> skew has two objects, each with a Z/2 of endomorphisms; a
    # direct enumeration whose table differs from the descent category in
    # one composite only is reported as a mismatch naming that composite
    ws = load(Z2_FX)
    z = ws.algebras["skew"]
    real = laxalg.enumerate_hom_category
    twisted = []

    def twisting(*args, **kw):
        x, H = _twist_z2(real(*args, **kw))
        twisted.append(x)
        return H

    monkeypatch.setattr(laxalg, "enumerate_hom_category", twisting)
    report = verify_prop_descent(z.universe, z, z)
    assert report["status"] == "fail"
    assert report["lax"]["match"] is False
    assert report["pseudo"]["match"] is False
    assert report["lax"]["hom_morphisms"] == report["lax"]["descent_morphisms"] == 4
    x = twisted[0]
    assert report["counterexample"] == "lax: composition not preserved on (%r, %r)" % (x, x)


def _renamed(C, old, new):
    """C with the object or morphism old renamed new in every table."""

    def r(n):
        return new if n == old else n

    return fincat.make_fincat(
        list(map(r, C.objects)),
        list(map(r, C.morphisms)),
        {r(m): r(x) for m, x in C.dom.items()},
        {r(m): r(x) for m, x in C.cod.items()},
        {r(x): r(m) for x, m in C.identity.items()},
        {(r(g), r(f)): r(h) for (g, f), h in C.compose_table.items()},
    )


@pytest.mark.parametrize(
    "old, new, counterexample",
    [
        ("(F1,n13)", "(F1,n14)", "lax: object mismatch: '(F1,n13)'"),
        (
            "[n3:(F1,n13)->(F1,n13)]",
            "[n4:(F1,n13)->(F1,n13)]",
            "lax: morphism mismatch: '[n3:(F1,n13)->(F1,n13)]'",
        ),
    ],
)
def test_verify_prop_descent_reports_a_differing_name(monkeypatch, old, new, counterexample):
    # skew -> skew: a direct enumeration that names one object or one
    # morphism differently from the descent category is reported as a
    # mismatch naming the first name the two do not share
    z = load(Z2_FX).algebras["skew"]
    real = laxalg.enumerate_hom_category
    monkeypatch.setattr(laxalg, "enumerate_hom_category", lambda *a, **kw: _renamed(real(*a, **kw), old, new))
    report = verify_prop_descent(z.universe, z, z)
    assert report["status"] == "fail"
    assert report["lax"]["match"] is False
    assert report["counterexample"] == counterexample


# ---------------------------------------------------------------------------
# the universe's memo and identity index


def _small_monoids():
    for els in (["e"], ["e", "a"], ["e", "a", "b"]):
        for unit, table in unital_associative_tables(els):
            yield els, unit, table


def _seeds():
    return [("1", terminal_cat()), ("A", walking_arrow()), ("D", discrete("pq"))]


def test_memoised_structure_matches_uncached_builds():
    for els, unit, table in _small_monoids():
        M = Monoid(els, unit, table)
        U = monoid_two_monad(M, _seeds(), 3)
        V = UncachedUniverse(M, _seeds(), 3)
        for C, D in zip(U.members, V.members):
            if U.height(C) < 1:
                continue
            assert U.eta(C) is U.eta(C)
            assert U.eta(C) == V.eta(D)
            assert U.T_fun(fincat.identity_fun(C)) == V.T_fun(fincat.identity_fun(D))
            if U.height(C) < 2:
                continue
            assert U.m(C) is U.m(C)
            assert U.m(C) == V.m(D)
            assert U.T_fun(U.eta(C)) is U.T_fun(U.eta(C))
            assert U.T_fun(U.eta(C)) == V.T_fun(V.eta(D))
            assert U.T_nat(U.iota(C)) == V.T_nat(V.iota(D))
            assert U.T_nat(U.tau(C)) == V.T_nat(V.tau(D))
            if U.height(C) >= 3:
                assert U.T_fun(U.m(C)) == V.T_fun(V.m(D))


def test_height_counts_the_applications_of_T():
    # the seed "T1" equals the member T(1), so the universe finds it there
    # and T follows that member's chain, not the seed's own
    copy = monoid_two_monad(z2_monoid(), [("1", terminal_cat())], 3).T(terminal_cat())
    seeds = [("1", terminal_cat()), ("A", walking_arrow()), ("T1", copy)]
    U = monoid_two_monad(z2_monoid(), seeds, 3)
    for X in U.members:
        n, C = 0, X
        try:
            while True:
                C = U.T(C)
                n += 1
        except AxiomViolation:
            pass
        assert U.height(X) == n
    assert [U.height(C) for C in U.members] == [3, 2, 1, 0] * 2 + [2, 1, 0, 0]


def test_an_empty_member_has_unbounded_height():
    # T(X) = M x X is X again for an empty X, so T applies to it without
    # end: its height, settled when the universe is built, is unbounded,
    # and check_pseudomonad runs every law there
    E = discrete("")
    U = monoid_two_monad(z2_monoid(), [("E", E), ("1", terminal_cat())], 2)
    assert U.T(U.T(U.T(E))) == E
    assert [U.height(C) for C in U.members] == [math.inf] * 3 + [2, 1, 0]
    assert check_pseudomonad(U)


def test_pseudomonad_laws_run_where_their_iterates_exist():
    # Z/2 with e.e = a: at depth 3 the associativity pasting, which needs
    # T^4, is skipped at every member; at depth 4 it runs at the seed
    els = ["e", "a"]
    bad = {("e", "e"): "a", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}
    component = "component at %r must be a morphism %r -> %r, got %r"
    at_1 = component % ("(e,(e,*))", "(a,(e,*))", "(e,(e,*))", "(a,(e,id*))")
    depth3 = [
        "left unit law fails at 1",
        "right unit law fails at 1",
        "associativity law fails at 1",
        "left unit law fails at T(1)",
        "right unit law fails at T(1)",
        "triangle pasting at 1: " + at_1,
    ]
    depth4 = depth3[:5] + [
        "associativity law fails at T(1)",
        "left unit law fails at T(T(1))",
        "right unit law fails at T(T(1))",
        "associativity pasting at 1: "
        + component % ("(e,(e,(a,(e,*))))", "(a,(e,*))", "(e,(e,*))", "(a,(e,id*))"),
        "triangle pasting at 1: " + at_1,
        "triangle pasting at T(1): "
        + component
        % ("(e,(e,(e,*)))", "(a,(e,(e,*)))", "(e,(e,(e,*)))", "(a,(e,(e,id*)))"),
    ]
    for depth, want in ((3, depth3), (4, depth4)):
        M = Monoid(els, "e", bad, check=False)
        U = monoid_two_monad(M, [("1", terminal_cat())], depth)
        assert check_pseudomonad(U).failures == want


def _pseudomonad_outcome(check, U):
    try:
        v = check(U)
    except ValueError as e:
        return type(e).__name__, str(e)
    return v.ok, v.failures


def _pseudomonad_mutants():
    """The 6 non-associative mutants of the order-2 monoids, then 40 of
    the order-3 ones drawn with a fixed seed."""
    cases = []
    for els, unit, table in _small_monoids():
        for bad in nonassociative_mutants(els, unit, table):
            cases.append((els, unit, bad))
    small = [c for c in cases if len(c[0]) <= 2]
    assert len(small) == 6
    return small + random.Random(3).sample([c for c in cases if len(c[0]) == 3], 40)


def test_pseudomonad_failures_match_uncached_universe():
    for els, unit, bad in _pseudomonad_mutants():
        M = Monoid(els, unit, bad, check=False)
        for seeds in ([("1", terminal_cat())], [("A", walking_arrow())]):
            fast = _pseudomonad_outcome(check_pseudomonad, monoid_two_monad(M, seeds, 3))
            slow = _pseudomonad_outcome(check_pseudomonad, UncachedUniverse(M, seeds, 3))
            assert fast == slow
            assert fast[0] is False


def test_pseudomonad_check_matches_the_pasted_check():
    # the theorem check_pseudomonad rests on, checked once: T's strictness,
    # the naturality of m and eta and the assembled coherence pastings add
    # no failure, and change no exception, beyond those of the identity
    # cells the pastings are built from
    lawful = [(els, unit, table, True) for els, unit, table in _small_monoids()]
    assert len(lawful) == 38
    mutants = [(els, unit, bad, False) for els, unit, bad in _pseudomonad_mutants()]
    for els, unit, table, lawful_table in lawful + mutants:
        for depth in (3, 4):
            M = Monoid(els, unit, table, check=lawful_table)
            cells, pasted = (
                _pseudomonad_outcome(check, monoid_two_monad(M, _seeds(), depth))
                for check in (check_pseudomonad, pasted_check_pseudomonad)
            )
            assert cells == pasted, (table, depth)
            assert cells[0] is lawful_table, (table, depth)


def _structure_built(monkeypatch, universe):
    """Run one check_pseudomonad for Z/2 over the walking arrow at depth 4
    and return the universe, the functors laxalg built as Funs, the
    identity cells it built and the make_fun calls it made, in order."""
    built, cells, proved = [], [], []
    real_cell, real_fun = fincat.identity_cell, fincat.make_fun

    class Counted(fincat.Fun):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def counted_cell(F, G):
        cells.append(real_cell(F, G))
        return cells[-1]

    def counted_fun(*args):
        proved.append(args)
        return real_fun(*args)

    monkeypatch.setattr(laxalg, "Fun", Counted)
    monkeypatch.setattr(laxalg, "identity_cell", counted_cell)
    monkeypatch.setattr(laxalg, "make_fun", counted_fun)
    U = universe(z2_monoid(), [("A", walking_arrow())], 4)
    assert check_pseudomonad(U)
    return U, built, cells, proved


def test_pseudomonad_proves_each_structure_functor_once(monkeypatch):
    # m and eta are functors by theorem once monoid_two_monad has checked
    # the table (test_monad_structure_functors_are_functors proves them):
    # each is built once, through the memo, and none is proved by make_fun.
    # mu is built once although both pastings at the seed read it
    U, built, cells, proved = _structure_built(monkeypatch, laxalg.MonadUniverse)
    assert proved == []
    keys = [(U.index_of(F.src), U.index_of(F.tgt), fun_key(F)) for F in built]
    assert len(keys) == len(set(keys))
    made = {id(F) for F in built}
    for C in U.members[:4]:
        assert id(U.eta(C)) in made
    for C in U.members[:3]:
        assert id(U.m(C)) in made
        # T on a functor is lawful by theorem, memoised too
        assert U.T_fun(U.eta(C)) is U.T_fun(U.eta(C))
    # mu at A and T(A), iota and tau at A, T(A) and T^2(A): the laws read
    # all eight, and the pastings find them in the memo
    assert len(cells) == 8
    for C in U.members[:2]:
        assert any(U.mu(C) is c for c in cells)
    # the same check without the memo builds the same structure many
    # times, and each cell the pastings read twice
    _, again, again_cells, _ = _structure_built(monkeypatch, UncachedUniverse)
    assert len(again) > 3 * len(built)
    assert len(again_cells) == 16


def test_two_monad_refuses_a_table_its_structure_functors_cannot_read():
    # m reads mul at every pair of elements and eta reads the unit; a
    # table that leaves either without an element is refused here, where
    # it would otherwise escape check_pseudomonad as a KeyError or a
    # FunctorialityViolation
    z2 = z2_monoid().table
    missing = {k: v for k, v in z2.items() if k != ("s", "e")}
    outside = dict(z2)
    outside[("s", "e")] = "z"
    no_element = "monoid table sends ('s', 'e') to no element"
    cases = [
        ("e", missing, no_element),
        ("e", outside, no_element),
        ("u", z2, "monoid unit 'u' is not an element"),
    ]
    for unit, table, message in cases:
        M = Monoid(["e", "s"], unit, table, check=False)
        with pytest.raises(AxiomViolation) as refused:
            monoid_two_monad(M, [("A", walking_arrow())], 3)
        assert str(refused.value) == message


def test_index_of_a_member_compares_no_tables(monkeypatch):
    U = monoid_two_monad(z2_monoid(), _seeds(), 3)
    calls = []
    real = fincat.FinCat.__eq__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(fincat.FinCat, "__eq__", counting)
    assert [U.index_of(C) for C in U.members] == list(range(len(U.members)))
    assert calls == []
    # a category equal to a member but not the same object is still found
    assert U.index_of(walking_arrow()) == 4
    assert calls


def test_equal_seeds_map_to_the_first_index():
    U = monoid_two_monad(z2_monoid(), [("A", walking_arrow()), ("B", walking_arrow())], 2)
    assert U.members[0] is not U.members[3]
    assert U.index_of(U.members[3]) == 0
    assert U.index_of(U.members[4]) == 1
    assert U.T(U.members[3]) is U.members[1]


def _same_answers(U, E, members):
    for C in members:
        assert U.index_of(C) == E.index_of(C)
        assert U.height(C) == E.height(C)
        try:
            want = E.T(C)
        except AxiomViolation as e:
            with pytest.raises(AxiomViolation, match=re.escape(str(e))):
                U.T(C)
        else:
            assert U.T(C) == want


def assert_same_universe(U, E):
    """U answers as the eager oracle E over the same seeds: the same
    names; the same index_of, height and T at E's members, which U finds
    by scanning; members equal to E's; and the same answers at U's own
    members, which it finds by identity."""
    assert U.names == E.names
    _same_answers(U, E, E.members)
    assert U.members == E.members
    _same_answers(U, E, U.members)


@pytest.mark.parametrize("fixture", ["monad_on_2.json", "z2_action.json", "z2_on_three.json"])
def test_lazy_universe_matches_the_eager_oracle_on_fixtures(fixture):
    path = os.path.join(FIXTURES, fixture)
    ws = load(path)
    with open(path) as fh:
        specs = json.load(fh)["universes"]
    for name, spec in specs.items():
        seeds = [(n, ws.categories[n]) for n in spec["seeds"]]
        E = EagerUniverse(ws.monoids[spec["monoid"]], seeds, spec["depth"])
        assert_same_universe(ws.universes[name], E)


_BASES = (terminal_cat, walking_arrow, chain3, z2_cat, lambda: discrete("pq"), lambda: discrete(""))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lazy_universe_matches_the_eager_oracle_on_drawn_seeds(data):
    # each seed is a fresh category (an equal copy when a factory is drawn
    # twice; the empty category among them), an earlier seed again, or an
    # iterate T^j of an earlier seed or of a fresh category
    els, table = data.draw(st.sampled_from(list(SMALL_MONOIDS.values())))
    M, depth = Monoid(els, "e", table), data.draw(st.integers(1, 3))
    seeds = []
    for k in range(data.draw(st.integers(1, 4))):
        how = data.draw(st.sampled_from(["fresh", "again", "iterate"] if seeds else ["fresh", "iterate"]))
        if how == "again":
            X = data.draw(st.sampled_from(seeds))[1]
        else:
            X = data.draw(st.sampled_from(_BASES))()
            if how == "iterate":
                if seeds and data.draw(st.booleans()):
                    X = data.draw(st.sampled_from(seeds))[1]
                j = data.draw(st.integers(1, depth))
                X = EagerUniverse(M, [("X", X)], j).members[j]
        seeds.append(("S%d" % k, X))
    assert_same_universe(monoid_two_monad(M, seeds, depth), EagerUniverse(M, seeds, depth))


def test_a_comma_free_monoid_builds_iterates_of_any_names_lazily(monkeypatch):
    # "(g,x)" ends g at its first comma, so over a monoid without commas
    # the iterates of seeds named with commas and brackets print their
    # pairs apart: none is built with the universe, and each matches the
    # eager oracle, whose products check their names
    S = discrete(["x", ",x", "x,", "(x", "x)", "(e,x)", ",(s,x),"])
    built = []
    real = laxalg.product_cat
    monkeypatch.setattr(laxalg, "product_cat", lambda C, D: built.append(D) or real(C, D))
    U = monoid_two_monad(z2_monoid(), [("S", S), ("A", walking_arrow())], 3)
    assert built == []
    assert U.height(S) == 3 and built == []
    assert_same_universe(U, EagerUniverse(z2_monoid(), [("S", S), ("A", walking_arrow())], 3))
    assert len(built) == 6
    for C in U.members:
        assert len(set(C.objects)) == len(C.objects)
        assert len(set(C.morphisms)) == len(C.morphisms)


def test_universe_is_freed_without_the_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        U = monoid_two_monad(z2_monoid(), [("A", walking_arrow())], 3)
        assert check_pseudomonad(U)
        assert U.T(U.members[0]).proj2.tgt is U.members[0]
        product = weakref.ref(U.members[1])
        del U
        assert product() is None
    finally:
        if was_enabled:
            gc.enable()


def _broken_z2():
    # Z/2 with e.e = a, which breaks both unit laws
    return Monoid(
        ["e", "a"], "e", {("e", "e"): "a", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}, check=False
    )


def test_a_refused_cell_is_refused_once(monkeypatch):
    # counts, not timings: check_pseudomonad over the terminal category at
    # depth 4 finds 11 failures; the memo keeps each refused cell, so each
    # of its functor pairs is composed once and make_nat refuses 8 times
    # (a memo that kept no refusal made 14 compositions on 10 pairs and
    # 11 refusals); the failures are those of the universe without a memo
    composed, proved = [], []
    compose_fun, make_nat = laxalg.compose_fun, fincat.make_nat

    def counted_compose(G, F):
        composed.append((id(G), id(F)))
        return compose_fun(G, F)

    def counted_nat(*args):
        proved.append(args)
        return make_nat(*args)

    monkeypatch.setattr(laxalg, "compose_fun", counted_compose)
    monkeypatch.setattr(fincat, "make_nat", counted_nat)
    seeds = [("1", terminal_cat())]
    U = monoid_two_monad(_broken_z2(), seeds, 4)
    verdict = check_pseudomonad(U)
    assert len(verdict.failures) == 11
    assert (len(composed), len(set(composed)), len(proved)) == (10, 10, 8)
    assert verdict.failures == check_pseudomonad(UncachedUniverse(_broken_z2(), seeds, 4)).failures
    # a later read raises the kept refusal again, building nothing
    del composed[:], proved[:]
    for cell in (U.iota, U.tau, U.mu):
        with pytest.raises(BoundaryMismatch) as again:
            cell(U.members[0])
        assert str(again.value).startswith("component at ")
    assert composed == proved == []


def test_a_universe_with_a_refused_cell_is_freed_without_the_cycle_collector():
    # the memo keeps a refusal's class and message, not the exception,
    # whose traceback would reach the universe through its frames
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        U = monoid_two_monad(_broken_z2(), [("1", terminal_cat())], 3)
        assert not check_pseudomonad(U)
        with pytest.raises(BoundaryMismatch):
            U.mu(U.members[0])
        universe = weakref.ref(U)
        del U
        assert universe() is None
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# refusals at the trust boundary, each with its exception and message


def _arrow_setup():
    """The walking arrow A over the trivial monoid: its universe, A, its
    identity algebra y and the constant-at-1 monad algebra z."""
    C = walking_arrow()
    U = triv_universe(C)
    return U, C, identity_algebra(U, C), const1_monad_algebra(U, C)


def _mistyped_algebra(a, zbar, zbar0):
    U, C, _, _ = _arrow_setup()
    return laxalg.LaxAlgebra(U, C, U.T(C).proj2 if a == "proj" else a, zbar, zbar0)


def _mistyped_monad(t):
    U, C, _, _ = _arrow_setup()
    t = U.T(C).proj2 if t == "proj" else t
    return laxalg.monad_algebra(U, C, t, None, None)


def _mistyped_morphism(f, fbar):
    U, C, y, z = _arrow_setup()
    f = fincat.identity_fun(C) if f == "id" else f
    fbar = fincat.identity_nat(fincat.compose_fun(y.a, U.T_fun(f))) if fbar == "wrong" else fbar
    return check_lax_morphism(U, y, z, LaxMorphism(f, fbar))


def _mistyped_transformation():
    U, C, _, z = _arrow_setup()
    i, c1 = fincat.identity_fun(C), constant_fun(C, C, "1")
    phi, psi = (
        LaxMorphism(f, fincat.identity_nat(fincat.compose_fun(z.a, U.T_fun(f))), src_alg=z, tgt_alg=z)
        for f in (i, c1)
    )
    return check_transformation(U, phi, psi, fincat.identity_nat(i))


def _hom_category_of_class(cls):
    U, _, y, _ = _arrow_setup()
    return enumerate_hom_category(U, y, y, cls)


_REFUSALS = {
    "action": (
        lambda: _mistyped_algebra(fincat.identity_fun(walking_arrow()), None, None),
        BoundaryMismatch,
        "action must be a functor T(Z) -> Z",
    ),
    "action no functor": (
        lambda: _mistyped_algebra(None, None, None),
        BoundaryMismatch,
        "action must be a functor T(Z) -> Z",
    ),
    "zbar": (
        lambda: _mistyped_algebra("proj", fincat.identity_nat(fincat.identity_fun(walking_arrow())), None),
        BoundaryMismatch,
        "zbar must run a.T(a) => a.m",
    ),
    "zbar no cell": (
        lambda: _mistyped_algebra("proj", "x", None),
        BoundaryMismatch,
        "zbar must run a.T(a) => a.m",
    ),
    "zbar0": (
        lambda: _mistyped_algebra("proj", None, fincat.identity_nat(constant_fun(walking_arrow(), walking_arrow(), "1"))),
        BoundaryMismatch,
        "zbar0 must run id => a.eta",
    ),
    "monad_algebra t": (
        lambda: _mistyped_monad("proj"),
        BoundaryMismatch,
        "t must be an endofunctor of Z",
    ),
    "monad_algebra t no functor": (
        lambda: _mistyped_monad(None),
        BoundaryMismatch,
        "t must be an endofunctor of Z",
    ),
    "underlying functor": (
        lambda: _mistyped_morphism(constant_fun(walking_arrow(), terminal_cat(), "*"), None),
        BoundaryMismatch,
        "underlying functor must run Y -> Z",
    ),
    "underlying functor no functor": (
        lambda: _mistyped_morphism(None, None),
        BoundaryMismatch,
        "underlying functor must run Y -> Z",
    ),
    "fbar": (
        lambda: _mistyped_morphism("id", "wrong"),
        BoundaryMismatch,
        "fbar must run a_z.T(f) => f.a_y",
    ),
    "transformation cell": (
        _mistyped_transformation,
        BoundaryMismatch,
        "cell must run between the underlying functors",
    ),
    "depth": (
        lambda: monoid_two_monad(trivial_monoid(), [("A", walking_arrow())], 0),
        AxiomViolation,
        "depth must be at least 1",
    ),
    "hom class": (
        lambda: _hom_category_of_class("strict"),
        ValueError,
        "class must be 'lax' or 'pseudo', got 'strict'",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_laxalg_refusals_are_pinned(case):
    call, kind, message = _REFUSALS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message
