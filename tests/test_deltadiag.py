import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from fin2cat import fincat
from fin2cat.cli import load
from fin2cat.deltadiag import (
    CELLS,
    EQUATIONS,
    FACES,
    DeltaDiagram,
    check_dot_extension,
    descent_equations,
    make_delta_diagram,
    make_dot_extension,
    theta_invertible,
)
from fin2cat.errors import BoundaryMismatch
from fin2cat.freegen import DELTA_LAX, builtin_computad
from fin2cat.laxalg import build_Tzy
from helpers import (
    FIXTURE_PAIRS,
    FIXTURES,
    chain3,
    descent_candidates,
    hand_descent_equations,
    idem_cat,
    identity_diagram,
    monoid_diagram,
    monoid_extension,
    terminal_cat,
    walking_arrow,
    z2_cat,
)
from test_fincat import LAX_MONOIDS, _non_strict_lax_algebras


def test_terminal_diagram_builds_and_checks():
    T = terminal_cat()
    i = fincat.identity_fun(T)
    cell = fincat.identity_nat(i)
    d = make_delta_diagram(
        D1=T, D2=T, D3=T,
        Dd0=i, Dd1=i, Ds0=i, Dp0=i, Dp1=i, Dp2=i,
        Dsig00=cell, Dsig20=cell, Dsig21=cell, Dn0=cell, Dn1=cell,
    )
    ext = make_dot_extension(base=d, D0=T, Dd=i, Dtheta=cell)
    v = check_dot_extension(ext)
    assert v and v.failures == []
    assert theta_invertible(ext)


def test_diagram_names_a_missing_field():
    T = terminal_cat()
    i = fincat.identity_fun(T)
    cell = fincat.identity_nat(i)
    fields = dict(
        D1=T, D2=T, D3=T,
        Dd0=i, Dd1=i, Ds0=i, Dp0=i, Dp1=i, Dp2=i,
        Dsig00=cell, Dsig20=cell, Dsig21=cell, Dn0=cell, Dn1=cell,
    )
    for name in DeltaDiagram.FIELDS:
        kw = {f: v for f, v in fields.items() if f != name}
        with pytest.raises(BoundaryMismatch) as err:
            make_delta_diagram(**kw)
        assert str(err.value) == "missing fields: %s" % name


def test_shape_table_is_the_delta_lax_computad():
    # each face joins its edge's endpoints; each cell's two sides are the
    # computad's boundary paths, from node 1, in the order the faces apply
    c = builtin_computad(DELTA_LAX)
    G = c.base
    assert list(FACES) == ["D" + e for e in G.edges]
    for e in G.edges:
        assert FACES["D" + e] == ("D" + G.src[e], "D" + G.tgt[e])
    assert list(CELLS) == ["D" + g for g in c.cells]
    for g in c.cells:
        for side, path in zip(CELLS["D" + g], (c.src[g], c.tgt[g])):
            assert path.start == "1"
            assert side == tuple("D" + e for e in path.edges)


def test_diagram_rejects_wrong_functor_boundary():
    T = terminal_cat()
    W = walking_arrow()
    i = fincat.identity_fun(T)
    cell = fincat.identity_nat(i)
    with pytest.raises(BoundaryMismatch):
        make_delta_diagram(
            D1=T, D2=T, D3=T,
            Dd0=fincat.identity_fun(W),  # wrong category
            Dd1=i, Ds0=i, Dp0=i, Dp1=i, Dp2=i,
            Dsig00=cell, Dsig20=cell, Dsig21=cell, Dn0=cell, Dn1=cell,
        )


def test_diagram_rejects_wrong_cell_boundary():
    C = z2_cat()
    i = fincat.identity_fun(C)

    def cell(v):
        return fincat.make_nat(i, i, {"*": v})

    # sabotage: Dn0 built against a different functor pair
    W = walking_arrow()
    j = fincat.identity_fun(W)
    bad = fincat.identity_nat(j)
    with pytest.raises(BoundaryMismatch) as err:
        make_delta_diagram(
            D1=C, D2=C, D3=C,
            Dd0=i, Dd1=i, Ds0=i, Dp0=i, Dp1=i, Dp2=i,
            Dsig00=cell("e"), Dsig20=cell("e"), Dsig21=cell("e"),
            Dn0=bad, Dn1=cell("e"),
        )
    assert "Dn0" in str(err.value)


def test_associativity_equation_detected():
    # With every 1-cell an identity, the first equation reads
    # sig00 . sig20 = sig21 composed in Z/2; choosing s on one side only
    # must fail, and the identity equation (n0 = n1 here) still passes.
    C = z2_cat()
    d = monoid_diagram(C, sig00="s", sig20="e", sig21="e", n0="e", n1="e")
    v = check_dot_extension(monoid_extension(d, "e"))
    assert not v
    assert any("associativity" in f for f in v.failures)
    assert not any("identity" in f for f in v.failures)


def test_identity_equation_detected():
    C = z2_cat()
    d = monoid_diagram(C, sig00="e", sig20="e", sig21="e", n0="s", n1="e")
    v = check_dot_extension(monoid_extension(d, "e"))
    assert not v
    assert any("identity" in f for f in v.failures)
    assert not any("associativity" in f for f in v.failures)


def test_theta_enters_both_equations():
    # theta appears twice on the left of the associativity equation (so it
    # cancels in Z/2) and once in the identity equation.  The cell choices
    # below balance exactly when theta = s.
    C = z2_cat()
    d = monoid_diagram(C, sig00="s", sig20="e", sig21="e", n0="s", n1="e")
    assert check_dot_extension(monoid_extension(d, "s"))
    v = check_dot_extension(monoid_extension(d, "e"))
    assert any("associativity" in f for f in v.failures)
    assert any("identity" in f for f in v.failures)


def test_theta_invertible():
    C = idem_cat()
    i = fincat.identity_fun(C)

    def cell(v):
        return fincat.make_nat(i, i, {"*": v})

    d = make_delta_diagram(
        D1=C, D2=C, D3=C,
        Dd0=i, Dd1=i, Ds0=i, Dp0=i, Dp1=i, Dp2=i,
        Dsig00=cell("e"), Dsig20=cell("e"), Dsig21=cell("e"),
        Dn0=cell("e"), Dn1=cell("e"),
    )
    good = make_dot_extension(base=d, D0=C, Dd=i, Dtheta=cell("e"))
    assert theta_invertible(good)
    bad = make_dot_extension(base=d, D0=C, Dd=i, Dtheta=cell("a"))
    assert not theta_invertible(bad)


def test_failures_name_each_equation_and_both_sides():
    # in Z/2 with theta = e: sig00.theta.sig20.theta = e but
    # theta.sig21 = s, and Ds0(theta).n1 = e but n0 = s
    d = monoid_diagram(z2_cat(), "e", "e", "s", "s", "e")
    v = check_dot_extension(monoid_extension(d, "e"))
    assert v.failures == [
        "associativity equation fails at '*': 'e' != 's'",
        "identity equation fails at '*': 'e' != 's'",
    ]
    d = monoid_diagram(z2_cat(), "e", "e", "e", "s", "e")
    v = check_dot_extension(monoid_extension(d, "e"))
    assert v.failures == ["identity equation fails at '*': 'e' != 's'"]


def test_equations_table_reads_the_shape():
    # each side of each equation is a non-empty word of the shape's faces
    # and cells, and every face in it lands in the level where the
    # equation holds
    assert [(name, level) for name, level, *_ in EQUATIONS] == [("associativity", "D3"), ("identity", "D1")]
    for _, level, *sides in EQUATIONS:
        for side in sides:
            assert side and all(n in FACES or n in CELLS for n in side)
            assert {FACES[n][1] for n in side if n in FACES} <= {level}


def _declared_diagrams():
    """The diagrams declared in tests/test_descent.py and in this file."""
    z2, idem = z2_cat(), idem_cat()
    cells = [
        (z2, "e", "e", "e", "e", "e"),
        (z2, "s", "e", "e", "s", "e"),
        (z2, "s", "e", "e", "e", "e"),
        (z2, "e", "e", "e", "s", "e"),
        (z2, "e", "e", "s", "s", "e"),
        (idem, "e", "e", "e", "a", "e"),
        (idem, "e", "e", "e", "e", "e"),
    ]
    identities = [identity_diagram(C) for C in (terminal_cat(), chain3(), walking_arrow())]
    return identities + [monoid_diagram(*c) for c in cells]


def test_descent_equations_match_the_hand_written_ones_on_declared_diagrams():
    for D in _declared_diagrams():
        candidates = descent_candidates(D)
        assert candidates
        for f, th in candidates:
            assert descent_equations(D, f, th) == hand_descent_equations(D, f, th)


@pytest.mark.parametrize(
    "fixture, y, z",
    FIXTURE_PAIRS + [("z2_on_three.json", y, z) for y in ("swap", "fix") for z in ("swap", "fix")],
)
def test_descent_equations_match_the_hand_written_ones_on_fixture_pairs(fixture, y, z):
    # every candidate lax_descent tries on the diagram build_Tzy gives
    # (skew -> swap has none)
    ws = load(os.path.join(FIXTURES, fixture))
    y, z = ws.algebras[y], ws.algebras[z]
    D = build_Tzy(y.universe, y, z)
    for f, th in descent_candidates(D):
        assert descent_equations(D, f, th) == hand_descent_equations(D, f, th)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_descent_equations_match_the_hand_written_ones_on_drawn_carriers(data):
    U, algebras = _non_strict_lax_algebras(data.draw(st.sampled_from(sorted(LAX_MONOIDS))))
    y, z = (data.draw(st.sampled_from(algebras[data.draw(st.sampled_from(sorted(algebras)))])) for _ in "yz")
    D = build_Tzy(U, y, z)
    assume(len(D.D1.objects) ** len(U.monoid.elements) <= 64)
    for f, th in descent_candidates(D):
        assert descent_equations(D, f, th) == hand_descent_equations(D, f, th)


def test_dot_extension_refusals_are_pinned():
    # Dd is checked before Dtheta, each with its own message
    C, W = z2_cat(), walking_arrow()
    d = monoid_diagram(C, "e", "e", "e", "e", "e")
    i = fincat.identity_fun(C)
    cell = fincat.make_nat(i, i, {"*": "e"})
    wrong = fincat.identity_fun(W)
    for Dd, Dtheta, message in [
        (wrong, cell, "Dd must be a functor between the stated levels"),
        (wrong, fincat.identity_nat(wrong), "Dd must be a functor between the stated levels"),
        (i, fincat.identity_nat(wrong), "Dtheta has the wrong boundary"),
    ]:
        with pytest.raises(BoundaryMismatch) as err:
            make_dot_extension(base=d, D0=C, Dd=Dd, Dtheta=Dtheta)
        assert str(err.value) == message


def test_a_field_that_is_no_functor_or_transformation_is_refused():
    # one face and one cell of a diagram and of its dot extension, each
    # refused with the message a wrong boundary gets
    C = z2_cat()
    d = monoid_diagram(C, "e", "e", "e", "e", "e")
    fields = {f: getattr(d, f) for f in DeltaDiagram.FIELDS}
    for name, value, message in [
        ("Dd0", None, "Dd0 must be a functor between the stated levels"),
        ("Dsig00", "x", "Dsig00 has the wrong boundary"),
    ]:
        with pytest.raises(BoundaryMismatch) as err:
            make_delta_diagram(**dict(fields, **{name: value}))
        assert str(err.value) == message
    i = fincat.identity_fun(C)
    cell = fincat.make_nat(i, i, {"*": "e"})
    for Dd, Dtheta, message in [
        (None, cell, "Dd must be a functor between the stated levels"),
        (i, "x", "Dtheta has the wrong boundary"),
    ]:
        with pytest.raises(BoundaryMismatch) as err:
            make_dot_extension(base=d, D0=C, Dd=Dd, Dtheta=Dtheta)
        assert str(err.value) == message


def test_a_field_of_the_wrong_kind_is_refused_over_views():
    # build_Tzy's upper levels are PowerViews, never read whole: a face
    # into or out of them that is no functor is refused by the same
    # comparison, with the message a wrong boundary gets
    z = load(os.path.join(FIXTURES, "z2_action.json")).algebras["skew"]
    D = build_Tzy(z.universe, z, z)
    fields = {f: getattr(D, f) for f in DeltaDiagram.FIELDS}
    cell = fincat.identity_nat(fincat.identity_fun(z.Z))
    for name in ("Dd0", "Ds0", "Dp0"):
        for value in (None, "x", cell):
            with pytest.raises(BoundaryMismatch) as err:
                make_delta_diagram(**dict(fields, **{name: value}))
            assert str(err.value) == "%s must be a functor between the stated levels" % name
