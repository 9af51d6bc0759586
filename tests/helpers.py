"""Shared small categories and builders used across the test suite."""

import ast
import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import tokenize
from collections import deque
from unittest import mock

import fin2cat
from fin2cat import cli, codescent, deltadiag, fincat, laxalg
from fin2cat.deltadiag import make_delta_diagram, make_dot_extension
from fin2cat.errors import (
    AxiomViolation,
    BoundaryMismatch,
    CoherenceViolation,
    MalformedWord,
    NaturalityViolation,
    verdict_all,
)
from fin2cat.fincat import (
    compose_fun,
    identity_fun,
    identity_nat,
    make_fincat,
    make_fun,
    make_nat,
    paste,
    whisker_left,
    whisker_right,
)
from fin2cat.freegen import Path, make_word

FIXTURES = os.path.join(os.path.dirname(fin2cat.__file__), "fixtures")
MONAD_FX = os.path.join(FIXTURES, "monad_on_2.json")
Z2_FX = os.path.join(FIXTURES, "z2_action.json")
Z2_ON_THREE_FX = os.path.join(FIXTURES, "z2_on_three.json")
# algebra pairs whose three functor-category levels build in under a second
FIXTURE_PAIRS = [
    ("z2_action.json", "swap", "swap"),
    ("z2_action.json", "skew", "skew"),
    ("z2_action.json", "skew", "swap"),
    ("monad_on_2.json", "idalg", "idalg"),
    ("monad_on_2.json", "const1", "const1"),
    ("monad_on_2.json", "idalg", "const1"),
]


def terminal_cat():
    return make_fincat(
        objects=["*"],
        morphisms=["id*"],
        dom={"id*": "*"},
        cod={"id*": "*"},
        identity={"*": "id*"},
        compose={("id*", "id*"): "id*"},
    )


def walking_arrow():
    """Two objects 0, 1 and a single non-identity morphism u: 0 -> 1."""
    return make_fincat(
        objects=["0", "1"],
        morphisms=["id0", "id1", "u"],
        dom={"id0": "0", "id1": "1", "u": "0"},
        cod={"id0": "0", "id1": "1", "u": "1"},
        identity={"0": "id0", "1": "id1"},
        compose={
            ("id0", "id0"): "id0",
            ("id1", "id1"): "id1",
            ("u", "id0"): "u",
            ("id1", "u"): "u",
        },
    )


def discrete(names):
    names = list(names)
    return make_fincat(
        objects=names,
        morphisms=["id%s" % n for n in names],
        dom={"id%s" % n: n for n in names},
        cod={"id%s" % n: n for n in names},
        identity={n: "id%s" % n for n in names},
        compose={("id%s" % n, "id%s" % n): "id%s" % n for n in names},
    )


def chain3():
    """The poset 0 < 1 < 2 as a category."""
    objects = ["0", "1", "2"]
    morphisms = ["id0", "id1", "id2", "u01", "u02", "u12"]
    dom = {"id0": "0", "id1": "1", "id2": "2", "u01": "0", "u02": "0", "u12": "1"}
    cod = {"id0": "0", "id1": "1", "id2": "2", "u01": "1", "u02": "2", "u12": "2"}
    compose = {}
    for m in morphisms:
        compose[(m, "id%s" % dom[m])] = m
        compose[("id%s" % cod[m], m)] = m
    compose[("u12", "u01")] = "u02"
    return make_fincat(
        objects=objects,
        morphisms=morphisms,
        dom=dom,
        cod=cod,
        identity={"0": "id0", "1": "id1", "2": "id2"},
        compose=compose,
    )


def identity_fun_on(C):
    return make_fun(
        C, C, {x: x for x in C.objects}, {m: m for m in C.morphisms}
    )


def constant_fun(C, D, obj):
    return make_fun(
        C,
        D,
        {x: obj for x in C.objects},
        {m: D.identity[obj] for m in C.morphisms},
    )


def nat(F, G, components):
    return make_nat(F, G, components)


def one_object_cat(elements, unit, table):
    """The one-object category on a monoid given by a multiplication dict."""
    return make_fincat(
        objects=["*"],
        morphisms=list(elements),
        dom={m: "*" for m in elements},
        cod={m: "*" for m in elements},
        identity={"*": unit},
        compose={(g, f): table[(g, f)] for g in elements for f in elements},
    )


def z2_cat():
    t = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return one_object_cat(["e", "s"], "e", t)


def idem_cat():
    t = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}
    return one_object_cat(["e", "a"], "e", t)


def monoid_diagram(C, sig00, sig20, sig21, n0, n1):
    """All three levels the one-object category C, all functors identities,
    comparison cells given by single (central) monoid elements."""
    i = fincat.identity_fun(C)

    def cell(value):
        return make_nat(i, i, {"*": value})

    return make_delta_diagram(
        D1=C, D2=C, D3=C,
        Dd0=i, Dd1=i, Ds0=i, Dp0=i, Dp1=i, Dp2=i,
        Dsig00=cell(sig00), Dsig20=cell(sig20), Dsig21=cell(sig21),
        Dn0=cell(n0), Dn1=cell(n1),
    )


def identity_diagram(C):
    """Every level C, every functor the identity, every cell the identity."""
    i = fincat.identity_fun(C)
    cell = fincat.identity_nat(i)
    return make_delta_diagram(
        D1=C, D2=C, D3=C,
        Dd0=i, Dd1=i, Ds0=i, Dp0=i, Dp1=i, Dp2=i,
        Dsig00=cell, Dsig20=cell, Dsig21=cell, Dn0=cell, Dn1=cell,
    )


def monoid_extension(diagram, theta):
    C = diagram.D1
    i = fincat.identity_fun(C)
    return make_dot_extension(
        base=diagram,
        D0=C,
        Dd=i,
        Dtheta=make_nat(i, i, {"*": theta}),
    )


def hand_descent_equations(d, f, th):
    """The two descent equations of a DeltaDiagram d at an object f of D1
    and a morphism th: Dd1(f) -> Dd0(f) of D2, written out by hand as
    (lhs, rhs) pairs: the associativity equation in D3, then the identity
    equation in D1.  The oracle for deltadiag.descent_equations, which
    reads them off deltadiag.EQUATIONS."""
    c3 = d.D3.compose
    lhs = c3(d.Dsig00.at(f), c3(d.Dp0.mor(th), c3(d.Dsig20.at(f), d.Dp2.mor(th))))
    return (
        (lhs, c3(d.Dp1.mor(th), d.Dsig21.at(f))),
        (d.D1.compose(d.Ds0.mor(th), d.Dn1.at(f)), d.Dn0.at(f)),
    )


def hand_codescent_relations(A):
    """The relations of the lax codescent presentation of codescent data
    A, written out by hand in codescent.lax_codescent's order:
    composition in A1, naturality of <-> along A2's morphisms, the
    cocycle condition per A3 object and the unit condition per A1 object.
    The oracle for lax_codescent, which reads the last two off
    deltadiag.EQUATIONS."""
    A1 = A.A1

    def w(m):
        return () if A1.is_identity(m) else (m,)

    gname = {u: "<%s>" % u for u in A.A2.objects}
    relations = [
        ((f, g), w(A1.compose(g, f)), A1.dom[f])
        for g, f in fincat._composable(A1.morphisms, A1.dom, A1.cod)
        if not (A1.is_identity(g) or A1.is_identity(f))
    ]
    for m in A.A2.morphisms:
        if A.A2.is_identity(m):
            continue
        u, v = A.A2.dom[m], A.A2.cod[m]
        relations.append(
            (w(A.Ad1.mor(m)) + (gname[v],), (gname[u],) + w(A.Ad0.mor(m)), A.Ad1.ob(u))
        )
    for v in A.A3.objects:
        relations.append(
            (
                (gname[A.Ap2.ob(v)],)
                + w(A.Asig20.at(v))
                + (gname[A.Ap0.ob(v)],)
                + w(A.Asig00.at(v)),
                w(A.Asig21.at(v)) + (gname[A.Ap1.ob(v)],),
                A.Ad1.ob(A.Ap2.ob(v)),
            )
        )
    for x in A1.objects:
        relations.append((w(A.An0.at(x)) + (gname[A.As0.ob(x)],), w(A.An1.at(x)), x))
    return relations


def descent_candidates(D):
    """Every candidate (f, fbar) that lax_descent tries on D."""
    return [(f, th) for f in D.D1.objects for th in D.D2.hom(D.Dd1.ob(f), D.Dd0.ob(f))]


# small monoids as (elements, unit first, multiplication)
SMALL_MONOIDS = {
    "1": (["e"], {("e", "e"): "e"}),
    "z2": (["e", "s"], {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}),
    "idem": (["e", "a"], {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}),
}


def layered_cat(n, arrows, endos):
    """Objects 0 .. n-1 with one arrow i -> j for each pair of the
    transitive closure of arrows (all i < j), and the monoid endos[i] as
    the endomorphisms of i.  An endomorphism composed with an arrow on
    either side gives the arrow back, which is associative because no
    arrow runs back down."""
    objects = [str(i) for i in range(n)]
    reach = {(i, j) for i, j in arrows}
    while True:
        more = {(i, k) for i, j in reach for j2, k in reach if j == j2} - reach
        if not more:
            break
        reach |= more
    morphisms, dom, cod, compose, identity = [], {}, {}, {}, {}
    endo_of = {}
    for i in range(n):
        els, table = SMALL_MONOIDS[endos[i]]
        for g in els:
            m = "%s%d" % (g, i)
            morphisms.append(m)
            dom[m] = cod[m] = str(i)
            endo_of[m] = g
        identity[str(i)] = "e%d" % i
        for (g, h), gh in table.items():
            compose[("%s%d" % (g, i), "%s%d" % (h, i))] = "%s%d" % (gh, i)
    for i, j in sorted(reach):
        u = "u%d%d" % (i, j)
        morphisms.append(u)
        dom[u], cod[u] = str(i), str(j)
    for u in morphisms:
        if u in endo_of:
            continue
        i, j = dom[u], cod[u]
        for m in morphisms:
            if m in endo_of and dom[m] == i:
                compose[(u, m)] = u
            if m in endo_of and dom[m] == j:
                compose[(m, u)] = u
            if m not in endo_of and dom[m] == j:
                compose[(m, u)] = "u%s%s" % (i, cod[m])
    return make_fincat(objects, morphisms, dom, cod, identity, compose)


def walking_iso():
    """Two objects and a pair of mutually inverse arrows between them."""
    return make_fincat(
        objects=["0", "1"],
        morphisms=["id0", "id1", "i", "j"],
        dom={"id0": "0", "id1": "1", "i": "0", "j": "1"},
        cod={"id0": "0", "id1": "1", "i": "1", "j": "0"},
        identity={"0": "id0", "1": "id1"},
        compose={
            ("id0", "id0"): "id0", ("id1", "id1"): "id1",
            ("i", "id0"): "i", ("id1", "i"): "i",
            ("j", "id1"): "j", ("id0", "j"): "j",
            ("j", "i"): "id0", ("i", "j"): "id1",
        },
    )


def brute_force_hom_cat(C, D):
    """The functor category [C, D] by the all-pairs route: every ordered
    pair of functors is searched for transformations over the whole
    product of its component hom-sets, and every composite is a vertical
    paste.  Functors, transformations and their F#/n# names follow the
    same canonical order as fincat.HomCat.  Returns (category, functor by
    name, transformation by name)."""
    funs = sorted(recursive_enumerate_functors(C, D), key=fincat._fun_key)
    fun_of = {"F%d" % i: F for i, F in enumerate(funs)}
    fun_id = {fincat._fun_key(F): fid for fid, F in fun_of.items()}

    def key(a):
        """a's source id, target id and components along C.objects."""
        comps = tuple(a.components[x] for x in C.objects)
        return fun_id[fincat._fun_key(a.src)], fun_id[fincat._fun_key(a.tgt)], comps

    nats = []
    for F in fun_of.values():
        for G in fun_of.values():
            homs = [D.hom(F.ob(x), G.ob(x)) for x in C.objects]
            for comps in itertools.product(*homs):
                try:
                    nats.append(make_nat(F, G, dict(zip(C.objects, comps))))
                except NaturalityViolation:
                    continue
    nats.sort(key=key)
    nat_of = {"n%d" % i: a for i, a in enumerate(nats)}
    nat_id = {key(a): nid for nid, a in nat_of.items()}

    def name(a):
        return nat_id[key(a)]

    dom = {nid: fun_id[fincat._fun_key(a.src)] for nid, a in nat_of.items()}
    cod = {nid: fun_id[fincat._fun_key(a.tgt)] for nid, a in nat_of.items()}
    identity = {fid: name(fincat.identity_nat(F)) for fid, F in fun_of.items()}
    compose = {}
    for n2, b in nat_of.items():
        for n1, a in nat_of.items():
            if cod[n1] == dom[n2]:
                compose[(n2, n1)] = name(fincat.paste("vertical", b, a))
    H = make_fincat(list(fun_of), list(nat_of), dom, cod, identity, compose)
    return H, fun_of, nat_of


def unital_associative_tables(els):
    """Brute force: every multiplication table on els that has a two-sided
    unit and is associative, as (unit, table) pairs."""
    out = []
    keys = [(a, b) for a in els for b in els]
    for values in itertools.product(els, repeat=len(keys)):
        t = dict(zip(keys, values))
        unit = None
        for e in els:
            if all(t[(e, a)] == a and t[(a, e)] == a for a in els):
                unit = e
                break
        if unit is None:
            continue
        if is_associative(els, t):
            out.append((unit, t))
    return out


def is_associative(els, t):
    for a in els:
        for b in els:
            ab = t[(a, b)]
            for c in els:
                if t[(ab, c)] != t[(a, t[(b, c)])]:
                    return False
    return True


def nonassociative_mutants(els, unit, table):
    """Every table that differs from table in one entry and is not
    associative, in a fixed order."""
    for key in table:
        for v in els:
            if v == table[key]:
                continue
            bad = dict(table)
            bad[key] = v
            if not is_associative(els, bad):
                yield bad


def proved_cat(C):
    """C's tables proved again by make_fincat: the route every category
    took before laws were proved only where data comes in."""
    return make_fincat(
        C.objects, C.morphisms, C.dom, C.cod, C.identity, C.compose_table
    )


def proved_fun(F):
    """F's maps proved again by make_fun."""
    return make_fun(F.src, F.tgt, F.on_obj, F.on_mor)


def proved_nat(a):
    """a's components proved again by make_nat."""
    return make_nat(a.src, a.tgt, a.components)


def materialised(build, *args):
    """build(*args) with every level above the bottom of every
    hom_diagram enumerated as a HomCat and every face and cell acting by
    the whole-functor route (whole_hom_diagram): the route before those
    levels were PowerViews, and the oracle for the views.  HomCat answers
    hom, compose, inverse, functor_of and nat_of as a view does, and
    names whole functors and cells (named_fun, named_cell) as a view
    would, under the same F#/n# names."""
    def enumerated(base, C, k):
        return fincat.hom_cat(C, base.target)

    with contextlib.ExitStack() as stack:
        for module in (laxalg, codescent):
            stack.enter_context(mock.patch.object(module, "PowerView", enumerated))
            stack.enter_context(mock.patch.object(module, "hom_diagram", whole_hom_diagram))
        return build(*args)


def powered(F, C, E):
    """T^j(F) from C = T^j(F.src) to E = T^j(F.tgt), for T = M x (-) and
    j >= 0, read off the pairs of the products: F itself when C is F's
    source."""
    if C is F.src:
        return F
    inner = powered(F, C.factors[1], E.factors[1])
    return fincat.Fun(
        C,
        E,
        {o: E.pair_obj(g, inner.ob(x)) for o, (g, x) in C.obj_pair.items()},
        {m: E.pair_mor(g, inner.mor(f)) for m, (g, f) in C.mor_pair.items()},
    )


def powered_cell(a, C, E):
    """T^j(a) between powered's T^j of a's functors."""
    if C is a.src.src:
        return a
    inner = powered_cell(a, C.factors[1], E.factors[1])
    return fincat.NatT(
        powered(a.src, C, E),
        powered(a.tgt, C, E),
        {o: E.pair_mor(g, inner.at(x)) for o, (g, x) in C.obj_pair.items()},
    )


def whole_face(T, face):
    """The actions (on functors, on cells) of a face of hom_diagram into
    the level T, each image built whole: F.G and a * G for
    deltadiag.precompose(G), a.T(F) and a * T(alpha) for
    deltadiag.acting(a).  The route before the faces acted copy by copy
    on ids, and their oracle."""
    G, a = face
    if a is None:
        return (lambda F: compose_fun(F, G), lambda n: whisker_right(n, G))
    return (
        lambda F: compose_fun(a, powered(F, T.source, a.src)),
        lambda n: whisker_left(a, powered_cell(n, T.source, a.src)),
    )


def whole_cell(D1, L, cell, F):
    """A comparison cell of hom_diagram landing in the level L, at the
    functor o of D1, built whole: f * alpha for deltadiag.after(alpha),
    beta * T^j(f) for deltadiag.along(beta), f being o's functor, and
    for None the identity on F(o), F being the cell's source boundary.
    The oracle of the cells."""
    if cell is None:
        return lambda o: fincat.identity_nat(L.functor_of(F.ob(o)))
    side, alpha = cell
    if side == "after":
        return lambda o: whisker_left(D1.functor_of(o), alpha)
    return lambda o: whisker_right(alpha, powered(D1.functor_of(o), L.source, alpha.src.src))


def whole_hom_diagram(D1, D2, D3, faces, cells):
    """deltadiag.hom_diagram by the whole-functor route: each face image
    and cell component built whole by whole_face and whole_cell, and
    named by named_fun and named_cell in its level, on demand."""
    kw = {"D1": D1, "D2": D2, "D3": D3}
    for name, (src, tgt) in deltadiag.FACES.items():
        S, T = kw[src], kw[tgt]
        on_fun, on_nat = whole_face(T, faces[name])
        kw[name] = fincat.OnDemandFun(
            S,
            T,
            lambda o, S=S, T=T, on_fun=on_fun: named_fun(T, on_fun(S.functor_of(o))),
            lambda m, S=S, T=T, on_nat=on_nat: named_cell(T, on_nat(S.nat_of(m))),
        )
    for name, (src, tgt) in deltadiag.CELLS.items():
        F, G = (deltadiag.face_composite(kw, p, D1) for p in (src, tgt))
        at = whole_cell(D1, G.tgt, cells[name], F)
        kw[name] = fincat.OnDemandNat(F, G, lambda o, L=G.tgt, at=at: named_cell(L, at(o)))
    return deltadiag.DeltaDiagram(**kw)


def _cut(L, names):
    """names cut into the blocks of the copies of the PowerView L's
    source."""
    n = len(names) // L._k
    return [names[i * n : (i + 1) * n] for i in range(L._k)]


def named_fun(L, F):
    """L's id of the whole functor F, by the route the faces of a
    PowerView took before they acted copy by copy: F's key cut into the
    copies, each copy named in base by its key, and the tuple by _fid.
    An enumerated level (HomCat) is the one-copy case."""
    keys = zip(*(_cut(L, part) for part in fincat._fun_key(F)))
    return L._fid(tuple(map(L._base._fun_ids.__getitem__, keys)))


def named_cell(L, a):
    """L's id of the whole transformation a, by the route a PowerView's
    mor_id took before the faces and cells acted copy by copy: a's
    components cut into the copies, each copy named in base by its key,
    and the tuple by _nat_id.  An enumerated level (HomCat) is the
    one-copy case."""
    x, y = named_fun(L, a.src), named_fun(L, a.tgt)
    comps = tuple(a.components[o] for o in a.src.src.objects)
    keys = zip(L._tuple(x), L._tuple(y), _cut(L, comps))
    return L._nat_id(x, y, tuple(map(L._base._nat_ids.__getitem__, keys)))


def view_in_oracle(V):
    """The enumerated oracle H = hom_cat(V.source, V.target) of the
    PowerView V, after checking that every functor and transformation V
    has named is H's under the same id, and that V composes every
    composable pair of the transformations it has named as H does."""
    H = fincat.hom_cat(V.source, V.target)
    assert all(V.functor_of(x) == H.functor_of(x) for x in list(V._tuples))
    named = list(V._keys)
    assert all(V.nat_of(m) == H.nat_of(m) for m in named)
    for g in named:
        for f in named:
            if H.cod[f] == H.dom[g]:
                assert V.compose(g, f) == H.compose(g, f)
    return H


def eager_face(S, T, face):
    """A face of hom_diagram from S to T, acting by whole_face on every
    functor and cell S enumerates: the route before the faces acted on
    demand and copy by copy, and their oracle."""
    on_fun, on_nat = whole_face(T, face)
    return fincat.Fun(
        S,
        T,
        {o: named_fun(T, on_fun(S.functor_of(o))) for o in S.objects},
        {m: named_cell(T, on_nat(S.nat_of(m))) for m in S.morphisms},
    )


def eager_cell(D1, L, cell, F, G):
    """A comparison cell of hom_diagram from F to G landing in the
    enumerated level L, built by whole_cell at every functor of D1."""
    at = whole_cell(D1, L, cell, F)
    return fincat.NatT(F, G, {o: named_cell(L, at(o)) for o in D1.objects})


def forced(F, src=None, tgt=None):
    """F read at every object and morphism of src (F's source unless
    given, such as the oracle of a view), one image at a time, as a
    functor src -> tgt (F's target unless given) with its maps held
    whole."""
    src, tgt = src or F.src, tgt or F.tgt
    return fincat.Fun(
        src,
        tgt,
        {x: F.ob(x) for x in src.objects},
        {m: F.mor(m) for m in src.morphisms},
    )


def forced_cell(a, tgt):
    """The cell a of a diagram built by hom_diagram, read at every functor
    of its source D1, between its boundary functors forced into tgt (the
    oracle of the level a lands in)."""
    D1 = a.src.src
    return fincat.NatT(
        forced(a.src, D1, tgt),
        forced(a.tgt, D1, tgt),
        {x: a.at(x) for x in D1.objects},
    )


def enumerated_level_sizes(y, z):
    """build-tzy's sizes read off the enumerated levels [T^k Y, Z] for
    k = 0, 1, 2, the route before D3 was sized by theorem, and its
    oracle."""
    U, Y, data = y.universe, y.Z, {}
    for level, C in zip(("D1", "D2", "D3"), (Y, U.T(Y), U.T(U.T(Y)))):
        H = fincat.hom_cat(C, z.Z)
        data["%s_objects" % level] = len(H.objects)
        data["%s_morphisms" % level] = len(H.morphisms)
    return data


class UncachedUniverse(laxalg.MonadUniverse):
    """MonadUniverse without its memo or its identity index, proving what
    the universe builds as lawful by theorem: every member, seeds
    included, is proved by make_fincat on its first read, every m, eta
    and T_fun call builds its functor anew and T_fun proves it by
    make_fun, T_nat proves its cell by make_nat, m and eta are proved by
    make_fun too, and index_of scans the members by equality.  The oracle
    for the memoised universe."""

    def _member(self, i):
        C = super()._member(i)
        proved = vars(self).setdefault("proved", set())
        if i not in proved:
            proved.add(i)
            proved_cat(C)
        return C

    def _memoised(self, key, build):
        return build()

    def index_of(self, C):
        return self._scan(C)

    def T_fun(self, F):
        return proved_fun(super().T_fun(F))

    def m(self, C):
        return proved_fun(super().m(C))

    def eta(self, C):
        return proved_fun(super().eta(C))

    def T_nat(self, a):
        Ta = super().T_nat(a)
        return laxalg.make_nat(Ta.src, Ta.tgt, Ta.components)


class EagerUniverse:
    """The members of a universe as monoid_two_monad built them when every
    member was built up front: each seed's chain X, TX, ... in turn, each
    iterate the product of the discrete monoid with the member before it.
    index_of is the first member equal to its argument, found by
    scanning; T is the member after that one in its chain; height counts
    how often T applies, math.inf once it applies more often than there
    are members.  The oracle for MonadUniverse's names, members, heights,
    T and index_of."""

    def __init__(self, monoid, seeds, depth):
        ids = {g: g for g in monoid.elements}
        M = fincat.FinCat(ids, ids, ids, ids, ids, {(g, g): g for g in ids})
        self.names, self.members, self.succ = [], [], []
        for name, cat in seeds:
            for j in range(depth + 1):
                self.names.append(name if j == 0 else "T(%s)" % self.names[-1])
                self.members.append(cat if j == 0 else fincat.product_cat(M, self.members[-1]))
                self.succ.append(len(self.members) if j < depth else None)

    def index_of(self, C):
        for i, X in enumerate(self.members):
            if X == C:
                return i
        raise AxiomViolation("category is not a universe member")

    def T(self, C):
        j = self.succ[self.index_of(C)]
        if j is None:
            raise AxiomViolation("T is undefined beyond the universe depth")
        return self.members[j]

    def height(self, C):
        for n in range(len(self.members) + 1):
            try:
                C = self.T(C)
            except AxiomViolation:
                return n
        return math.inf


def _vv(*nats):
    """Vertical paste, read right to left like written composition."""
    out = nats[-1]
    for n in reversed(nats[:-1]):
        out = paste("vertical", n, out)
    return out


def _shared_boundary_unequal(what, lhs, rhs):
    """laxalg._unequal on the components of two pasted NatTs, once their
    sources and their targets are asserted equal: for typed cells and a
    strict T this holds by theorem, and the componentwise checks rest on
    it."""
    assert (lhs.src, lhs.tgt) == (rhs.src, rhs.tgt), what
    return laxalg._unequal(what, lhs.components, rhs.components)


def pasted_check_lax_algebra(U, z):
    """check_lax_algebra as it was before its equations were read off
    components: the three coherence equations pasted as NatTs from
    whiskered cells, mu, iota and tau included, and compared whole.  The
    oracle for the componentwise route."""
    failures = []
    a, Z = z.a, z.Z
    TZ = U.T(Z)
    if U.height(Z) >= 3:
        lhs = _vv(
            whisker_left(a, U.mu(Z)),
            whisker_right(z.zbar, U.T_fun(U.m(Z))),
            whisker_left(a, U.T_nat(z.zbar)),
        )
        rhs = _vv(
            whisker_right(z.zbar, U.m(TZ)),
            whisker_right(z.zbar, U.T_fun(U.T_fun(a))),
        )
        failures += _shared_boundary_unequal("multiplication pasting", lhs, rhs)
    if U.height(Z) >= 2:
        lhs = _vv(
            whisker_left(a, U.iota(Z)),
            whisker_right(z.zbar, U.eta(TZ)),
            whisker_right(z.zbar0, a),
        )
        failures += _shared_boundary_unequal("unit pasting (eta)", lhs, identity_nat(a))
        lhs = _vv(
            whisker_left(a, U.tau(Z)),
            whisker_right(z.zbar, U.T_fun(U.eta(Z))),
            whisker_left(a, U.T_nat(z.zbar0)),
        )
        failures += _shared_boundary_unequal("unit pasting (T eta)", lhs, identity_nat(a))
    return verdict_all(failures)


def pasted_lax_morphism(U, y, z, phi):
    """check_lax_morphism as it was before its equations were read off
    components: both sides of each equation are pasted as NatTs, from
    whiskered composite functors, and compared whole.  The oracle for the
    componentwise route."""
    f, fbar = phi.f, phi.fbar
    Y, Z = y.Z, z.Z
    if f.src != Y or f.tgt != Z:
        raise BoundaryMismatch("underlying functor must run Y -> Z")
    if (fbar.src, fbar.tgt) != laxalg.fbar_boundary(U, y, z, f):
        raise BoundaryMismatch("fbar must run a_z.T(f) => f.a_y")
    lhs = _vv(
        whisker_right(fbar, U.m(Y)),
        whisker_right(z.zbar, U.T_fun(U.T_fun(f))),
    )
    rhs = _vv(
        whisker_left(f, y.zbar),
        whisker_right(fbar, U.T_fun(y.a)),
        whisker_left(z.a, U.T_nat(fbar)),
    )
    failed = _shared_boundary_unequal("multiplication compatibility", lhs, rhs)
    if failed:
        raise CoherenceViolation(*failed)
    lhs = _vv(whisker_right(fbar, U.eta(Y)), whisker_right(z.zbar0, f))
    failed = _shared_boundary_unequal("unit compatibility", lhs, whisker_left(f, y.zbar0))
    if failed:
        raise CoherenceViolation(*failed)
    phi.src_alg, phi.tgt_alg = y, z
    return phi.cls


def pasted_transformation(U, phi, psi, m):
    """check_transformation as it was before its square was read off
    components: two vertical pastes of whiskered NatTs.  A mistyped fbar
    is refused by paste.  The oracle for the componentwise route."""
    if phi.src_alg is None or phi.tgt_alg is None:
        raise BoundaryMismatch("morphisms must carry their algebras (src_alg/tgt_alg)")
    if m.src != phi.f or m.tgt != psi.f:
        raise BoundaryMismatch("cell must run between the underlying functors")
    a_y, a_z = phi.src_alg.a, phi.tgt_alg.a
    lhs = fincat.paste("vertical", psi.fbar, whisker_left(a_z, U.T_nat(m)))
    rhs = fincat.paste("vertical", whisker_right(m, a_y), phi.fbar)
    return verdict_all(_shared_boundary_unequal("compatibility", lhs, rhs))


def _unequal_at(what, lhs, rhs, at):
    """_shared_boundary_unequal with the failing member named: "<what>
    fails at <at><first differing component>"."""
    return [
        f.replace(" fails at ", " fails at " + at, 1)
        for f in _shared_boundary_unequal(what, lhs, rhs)
    ]


def pasted_check_pseudomonad(U):
    """check_pseudomonad as it was before it left to theorem what no
    table can break: after the unit and associativity laws, it checks
    that T is strict on identities and on composable structure functors
    and that eta and m are natural along each structure functor, then
    assembles each coherence pasting from whiskered cells and compares
    its two sides.  The oracle for the check that builds only the cells."""
    failures = []
    h = U.height
    members = [(C, name, h(C)) for C, name in zip(U.members, U.names)]
    for C, name, k in members:
        if k >= 2:
            TC = U.T(C)
            with laxalg._recorded(failures, "unit laws at %s" % name):
                if compose_fun(U.m(C), U.eta(TC)) != identity_fun(TC):
                    failures.append("left unit law fails at %s" % name)
                if compose_fun(U.m(C), U.T_fun(U.eta(C))) != identity_fun(TC):
                    failures.append("right unit law fails at %s" % name)
        if k >= 3:
            with laxalg._recorded(failures, "associativity at %s" % name):
                if compose_fun(U.m(C), U.T_fun(U.m(C))) != compose_fun(
                    U.m(C), U.m(TC)
                ):
                    failures.append("associativity law fails at %s" % name)

    # strict functoriality of T and naturality of the structure maps
    structural = []
    for C, name, k in members:
        if k >= 1:
            with laxalg._recorded(failures, "T on identity at %s" % name):
                if U.T_fun(identity_fun(C)) != identity_fun(U.T(C)):
                    failures.append("T(id) != id at %s" % name)
            structural.append(("eta at %s" % name, U.eta(C)))
            if k >= 2:
                structural.append(("m at %s" % name, U.m(C)))
    for label, F in structural:
        if min(h(F.src), h(F.tgt)) >= 1:
            with laxalg._recorded(failures, "eta naturality (%s)" % label):
                if compose_fun(U.eta(F.tgt), F) != compose_fun(
                    U.T_fun(F), U.eta(F.src)
                ):
                    failures.append("eta not natural along %s" % label)
        if min(h(F.src), h(F.tgt)) >= 2:
            with laxalg._recorded(failures, "m naturality (%s)" % label):
                if compose_fun(U.m(F.tgt), U.T_fun(U.T_fun(F))) != compose_fun(
                    U.T_fun(F), U.m(F.src)
                ):
                    failures.append("m not natural along %s" % label)
    for label1, F in structural:
        for label2, G in structural:
            if F.tgt == G.src and min(h(F.src), h(F.tgt), h(G.tgt)) >= 1:
                with laxalg._recorded(failures, "T strictness"):
                    if U.T_fun(compose_fun(G, F)) != compose_fun(
                        U.T_fun(G), U.T_fun(F)
                    ):
                        failures.append(
                            "T not strict on %s after %s" % (label2, label1)
                        )

    # coherence pastings, where enough iterates exist
    for C, name, k in members:
        if k >= 4:
            with laxalg._recorded(failures, "associativity pasting at %s" % name):
                TC = U.T(C)
                lhs = _vv(
                    whisker_left(U.m(C), U.mu(TC)),
                    whisker_right(U.mu(C), U.T_fun(U.m(TC))),
                    whisker_left(U.m(C), U.T_nat(U.mu(C))),
                )
                rhs = _vv(
                    whisker_right(U.mu(C), U.m(U.T(TC))),
                    whisker_right(U.mu(C), U.T_fun(U.T_fun(U.m(C)))),
                )
                failures += _unequal_at("associativity pasting", lhs, rhs, name + ": ")
        if k >= 3:
            with laxalg._recorded(failures, "triangle pasting at %s" % name):
                TC = U.T(C)
                lhs = _vv(
                    whisker_left(U.m(C), U.tau(TC)),
                    whisker_right(U.mu(C), U.T_fun(U.eta(TC))),
                )
                rhs = whisker_left(U.m(C), U.T_nat(U.iota(C)))
                failures += _unequal_at("triangle pasting", lhs, rhs, name + ": ")

    return verdict_all(failures)


def triple_loop_monoid_check(elements, unit, table):
    """Monoid's table check as it was before a monoid was proved as a
    one-object category: the unit is an element, the table covers every
    pair of elements with elements, the unit laws hold, and every triple
    is compared by a triple loop.  Raises AxiomViolation.  The oracle for
    laxalg.Monoid."""
    els = set(elements)
    if unit not in els:
        raise AxiomViolation("unit %r is not an element" % unit)
    if set(table) != {(a, b) for a in els for b in els}:
        raise AxiomViolation("multiplication table must cover all pairs")
    for v in table.values():
        if v not in els:
            raise AxiomViolation("product %r is not an element" % v)
    for a in elements:
        if table[(unit, a)] != a or table[(a, unit)] != a:
            raise AxiomViolation("unit law fails at %r" % a)
    for a in elements:
        for b in elements:
            for c in elements:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    raise AxiomViolation(
                        "associativity fails on (%r, %r, %r)" % (a, b, c)
                    )


def walked_word_boundary(objects, generators, word, at):
    """(dom, cod) of a word anchored at `at`, walked generator by
    generator over the (name, dom, cod) triples; raises MalformedWord
    where the chain breaks.  PresentedCategory.word_boundary as it was
    before a word was a freegen path; the oracle for it."""
    ends = {name: (d, c) for name, d, c in generators}
    if at not in objects:
        raise MalformedWord("unknown anchor object %r" % at)
    cur = at
    for g in word:
        if g not in ends:
            raise MalformedWord("unknown generator %r" % g)
        if ends[g][0] != cur:
            raise MalformedWord(
                "word %r breaks at %r (expected domain %r)" % (word, g, cur)
            )
        cur = ends[g][1]
    return (at, cur)


def walked_presentation_check(objects, generators, relations):
    """The checks PresentedCategory ran before its generators were a
    freegen graph: distinct generator names, endpoints among the objects,
    and relation sides parallel by walked_word_boundary.  Raises
    MalformedWord.  The oracle for PresentedCategory's constructor on
    distinct objects."""
    names = [g[0] for g in generators]
    if len(set(names)) != len(names):
        raise MalformedWord("duplicate generator names")
    for name, d, c in generators:
        if d not in objects or c not in objects:
            raise MalformedWord(
                "generator %r has endpoints outside the object set" % name
            )
    for l, r, at in relations:
        if walked_word_boundary(objects, generators, l, at) != walked_word_boundary(
            objects, generators, r, at
        ):
            raise MalformedWord("relation sides are not parallel: %r vs %r" % (l, r))


def tuple_normal_forms(P, lhss, meter, trace):
    """codescent._enumerate_normal_forms over generator tuples, as it was
    before it read encoded words: lhss are decoded left-hand sides, each
    step compares tuple suffixes against every one of them, and the
    result lists (anchor, word) pairs, or None.  Same trace strings and
    budget charges.  The oracle for the encoded automaton."""
    prefixes = {()}
    for l in lhss:
        for k in range(1, len(l)):
            prefixes.add(l[:k])
    gen_cod = {name: c for name, _, c in P.generators}
    by_src = {}
    for name, d, _ in P.generators:
        by_src.setdefault(d, []).append(name)

    def step(obj, ctx, g):
        cand = ctx + (g,)
        for l in lhss:
            if len(l) <= len(cand) and cand[-len(l) :] == l:
                return None
        for k in range(len(cand), -1, -1):
            suf = cand[len(cand) - k :] if k else ()
            if suf in prefixes:
                return (gen_cod[g], suf)

    GRAY, BLACK = 1, 2
    color = {}

    def find_cycle(root):
        color[root] = GRAY
        stack = [(root, iter(by_src.get(root[0], ())))]
        while stack:
            state, gens = stack[-1]
            for g in gens:
                nxt = step(state[0], state[1], g)
                if nxt is None:
                    continue
                c = color.get(nxt)
                if c == GRAY:
                    return g
                if c is None:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(by_src.get(nxt[0], ()))))
                    break
            else:
                color[state] = BLACK
                stack.pop()
        return None

    for x in P.objects:
        if (x, ()) not in color:
            witness = find_cycle((x, ()))
            if witness is not None:
                trace.append(
                    "normal-form language is infinite (cycle through %r)"
                    % witness
                )
                return None

    words = []
    try:
        for x in P.objects:
            stack = [(x, (), ())]
            while stack:
                obj, ctx, word = stack.pop()
                meter.spend()
                words.append((x, word))
                grown = []
                for g in by_src.get(obj, ()):
                    nxt = step(obj, ctx, g)
                    if nxt is not None:
                        grown.append((nxt[0], nxt[1], word + (g,)))
                stack.extend(reversed(grown))
    except codescent._BudgetExceeded:
        trace.append("rewrite budget exhausted while listing normal forms")
        return None
    trace.append("found %d normal forms" % len(words))
    return words


def slicing_normalize(word, rules, spend=None):
    """Rewrite a word (tuple or string) to normal form by rescanning from
    the left after every rewrite: at each position, in order, try every
    rule in list order by slicing.  Calls spend once per rewrite.  The
    oracle for codescent._Rewriter.normalize."""
    changed = True
    while changed:
        changed = False
        for i in range(len(word)):
            for l, r in rules:
                if word[i : i + len(l)] == l:
                    if spend is not None:
                        spend()
                    word = word[:i] + r + word[i + len(l) :]
                    changed = True
                    break
            if changed:
                break
    return word


def slicing_quotient(P, budget=50000):
    """quotient_category by the slicing route: completion over generator
    tuples with an index-tuple shortlex key, every word normalised by
    slicing_normalize, the normal forms listed by tuple_normal_forms with
    their boundaries walked by walked_word_boundary, and the composition
    table from an all-pairs loop, uncharged.  The budget is charged as
    quotient_category's table charges it: once per normal form w and
    generator g that is itself a normal form, with dom g = cod w, plus the
    rewrites of w + (g,), and the rewrites of every other generator alone;
    completion charges every rewrite and every rule pair it examines for
    overlaps, and its trace line counts the rewrites.  Only the total
    shows: an exhausted budget always reads budget + 1.
    Returns (status, trace, rules, morphisms, compose table); the last two
    are None unless the status is Finite."""
    trace = [
        "%d objects, %d generators, %d relations"
        % (len(P.objects), len(P.generators), len(P.relations))
    ]
    meter = codescent._Meter(budget)
    index = {g[0]: i for i, g in enumerate(P.generators)}

    def key(w):
        return (len(w), tuple(index[g] for g in w))

    rules = []

    def normalize(word):
        return slicing_normalize(word, rules, meter.spend)

    def undecided():
        return codescent.UNDECIDED, trace, list(rules), None, None

    pending = deque((l, r) for l, r, _ in P.relations)
    overlaps = 0
    try:
        while pending:
            l, r = pending.popleft()
            l, r = normalize(l), normalize(r)
            if l == r:
                continue
            if key(l) < key(r):
                l, r = r, l
            new = (l, r)
            survivors = []
            for old in rules:
                if any(
                    old[0][i : i + len(l)] == l
                    for i in range(len(old[0]) - len(l) + 1)
                ):
                    pending.append(old)
                else:
                    survivors.append(old)
            rules = survivors
            rules.append(new)
            for other in list(rules):
                meter.spend()
                overlaps += 1
                for pair in codescent._critical_pairs(new, other):
                    pending.append(pair)
                if other != new:
                    for pair in codescent._critical_pairs(other, new):
                        pending.append(pair)
    except codescent._BudgetExceeded:
        trace.append(
            "rewrite budget exhausted after %d applications" % meter.used
        )
        return undecided()

    trace.append(
        "completed with %d rules after %d rewrite applications"
        % (len(rules), meter.used - overlaps)
    )

    words = tuple_normal_forms(P, [l for l, _ in rules], meter, trace)
    if words is None:
        return undecided()

    morphisms, dom, cod = [], {}, {}
    by_word = {}
    for at, w in words:
        mid = codescent._word_id(w, at)
        morphisms.append(mid)
        dom[mid], cod[mid] = walked_word_boundary(P.objects, P.generators, w, at)
        by_word[mid] = (at, w)
    listed = set(words)
    letters = [(g, d) for g, d, _ in P.generators if (d, (g,)) in listed]
    try:
        for at, w in words:
            for g, d in letters:
                if cod[codescent._word_id(w, at)] == d:
                    meter.spend()
                    normalize(w + (g,))
        for g, d, _ in P.generators:
            if (g, d) not in letters:
                normalize((g,))
    except codescent._BudgetExceeded:
        trace.append(
            "rewrite budget exhausted after %d applications" % meter.used
        )
        return undecided()
    compose = {}
    for m2 in morphisms:
        for m1 in morphisms:
            if cod[m1] != dom[m2]:
                continue
            a1, w1 = by_word[m1]
            _, w2 = by_word[m2]
            nf = slicing_normalize(w1 + w2, rules)
            compose[(m2, m1)] = codescent._word_id(nf, a1)
    for l, r, at in P.relations:
        assert slicing_normalize(l, rules) == slicing_normalize(r, rules)
    trace.append("re-verified %d input relations" % len(P.relations))
    return codescent.FINITE, trace, rules, morphisms, compose


def path_rewrites(c, start, edges):
    """One-step rewrites of a path (as an edge tuple) by the cells of c:
    cells in declaration order, positions ascending, each match checked
    by slicing and Path.node_at.  The oracle for freegen's rewrites."""
    path = Path(c.base, start, edges)
    for g in c.cells:
        s = c.src[g]
        k = len(s.edges)
        for pos in range(len(edges) - k + 1):
            if edges[pos : pos + k] == s.edges and path.node_at(pos) == s.start:
                yield edges[:pos] + c.tgt[g].edges + edges[pos + k :]


def _reproved_extract_to_front(c, events, j):
    """Commute event j of the (position, generator) events to the front,
    reading each length off the computad at each swap: (front position,
    remaining events), or None when an earlier event overlaps."""
    evs = [list(e) for e in events]
    cur = evs[j]
    for i in range(j - 1, -1, -1):
        other = evs[i]
        ko, to = len(c.src[other[1]].edges), len(c.tgt[other[1]].edges)
        kc, tc = len(c.src[cur[1]].edges), len(c.tgt[cur[1]].edges)
        if cur[0] >= other[0] + to:
            cur[0] -= to - ko
        elif cur[0] + kc <= other[0]:
            other[0] += tc - kc
        else:
            return None
    return cur[0], [tuple(e) for idx, e in enumerate(evs) if idx != j]


def reproved_normalize_2cell(w):
    """The interchange normal form of w, by the same greedy extraction as
    freegen.normalize_2cell but on list-of-lists copies of the events,
    with the result proved again by make_word from w's source.  The
    oracle for freegen.normalize_2cell, which proves nothing again."""
    c = w.computad
    rest = [list(e) for e in w.positions()]
    out = []
    while rest:
        best = None
        for j in range(len(rest)):
            got = _reproved_extract_to_front(c, rest, j)
            if got is None:
                continue
            fp, newrest = got
            key = (fp, c.cell_index[rest[j][1]], j)
            if best is None or key < best[0]:
                best = (key, fp, rest[j][1], newrest)
        out.append((best[1], best[2]))
        rest = [list(e) for e in best[3]]
    return make_word(c, w.source, out)


def triple_loop_make_fincat(objects, morphisms, dom, cod, identity, compose):
    """make_fincat as a plain loop: the coverage check compares two sets
    of pairs, and associativity is compared a row of a dict-of-dicts at a
    time, over every composable triple.  Same laws, same messages, same
    first failure.  The oracle for fincat.make_fincat with every morphism
    a generator."""
    objects = list(objects)
    morphisms = list(morphisms)
    if len(set(objects)) != len(objects):
        raise AxiomViolation("duplicate object identifiers")
    if len(set(morphisms)) != len(morphisms):
        raise AxiomViolation("duplicate morphism identifiers")
    obj_set, mor_set = set(objects), set(morphisms)

    if set(dom) != mor_set or set(cod) != mor_set:
        raise AxiomViolation("dom/cod must be defined on exactly the morphisms")
    for m in morphisms:
        if dom[m] not in obj_set or cod[m] not in obj_set:
            raise AxiomViolation("morphism %r has boundary outside objects" % m)

    if set(identity) != obj_set:
        raise AxiomViolation("identity must be defined on exactly the objects")
    for x in objects:
        i = identity[x]
        if i not in mor_set or dom[i] != x or cod[i] != x:
            raise AxiomViolation("identity of %r is not an endomorphism: %r" % (x, i))

    by_dom = {}
    for m in morphisms:
        by_dom.setdefault(dom[m], []).append(m)
    composable = {(g, f) for f in morphisms for g in by_dom.get(cod[f], ())}
    given = set(compose)
    if given != composable:
        missing = composable - given
        extra = given - composable
        if missing:
            raise AxiomViolation(
                "composition table missing composable pair %r" % (sorted(missing)[0],)
            )
        raise AxiomViolation(
            "composition table has non-composable pair %r" % (sorted(extra)[0],)
        )
    for (g, f), h in compose.items():
        if h not in mor_set or dom[h] != dom[f] or cod[h] != cod[g]:
            raise AxiomViolation(
                "composite of (%r after %r) has wrong boundary: %r" % (g, f, h)
            )

    for f in morphisms:
        if compose[(f, identity[dom[f]])] != f:
            raise AxiomViolation("right identity law fails at %r" % f)
        if compose[(identity[cod[f]], f)] != f:
            raise AxiomViolation("left identity law fails at %r" % f)

    after = {x: {h: compose[(h, x)] for h in by_dom.get(cod[x], ())} for x in morphisms}
    for f in morphisms:
        af = after[f]
        for g, gf in af.items():
            ag, agf = after[g], after[gf]
            if list(map(af.__getitem__, ag.values())) != list(agf.values()):
                h = next(h for h, hg in ag.items() if agf[h] != af[hg])
                raise AxiomViolation(
                    "associativity fails on (%r, %r, %r)" % (h, g, f)
                )

    return fincat.FinCat(objects, morphisms, dom, cod, identity, compose)


def recursive_enumerate_functors(C, D):
    """All functors C -> D by recursive backtracking over object then
    morphism images.  The oracle for fincat._enumerate_functors."""
    objs = list(C.objects)
    non_id = [m for m in C.morphisms if not C.is_identity(m)]
    out = []

    def assign_mors(on_obj, i, on_mor):
        if i == len(non_id):
            full = dict(on_mor)
            for x in objs:
                full[C.identity[x]] = D.identity[on_obj[x]]
            for (g, f), gf in C.compose_table.items():
                if D.compose_table[(full[g], full[f])] != full[gf]:
                    return
            out.append(fincat.Fun(C, D, dict(on_obj), full))
            return
        m = non_id[i]
        for im in D.hom(on_obj[C.dom[m]], on_obj[C.cod[m]]):
            on_mor[m] = im
            ok = True
            for n in non_id[:i]:
                for (g, f) in ((m, n), (n, m)):
                    if C.cod[f] == C.dom[g]:
                        gf = C.compose_table[(g, f)]
                        if gf in on_mor or C.is_identity(gf):
                            want = (
                                D.identity[on_obj[C.dom[f]]]
                                if C.is_identity(gf)
                                else on_mor[gf]
                            )
                            if D.compose_table[(on_mor[g], on_mor[f])] != want:
                                ok = False
                                break
                if not ok:
                    break
            if ok:
                assign_mors(on_obj, i + 1, on_mor)
            del on_mor[m]

    def assign_objs(i, on_obj):
        if i == len(objs):
            assign_mors(on_obj, 0, {})
            return
        for d in D.objects:
            on_obj[objs[i]] = d
            assign_objs(i + 1, on_obj)
            del on_obj[objs[i]]

    assign_objs(0, {})
    return out


def recursive_enumerate_nats(F, G):
    """All natural transformations F => G by recursive backtracking over
    the components.  The oracle for fincat._enumerate_nats."""
    C, D = F.src, F.tgt
    objs = list(C.objects)
    pos = {x: i for i, x in enumerate(objs)}
    squares = [[] for _ in objs]
    for m in C.morphisms:
        if not C.is_identity(m):
            a, b = C.dom[m], C.cod[m]
            squares[max(pos[a], pos[b])].append((a, b, F.on_mor[m], G.on_mor[m]))
    out = []

    def assign(i, comps):
        if i == len(objs):
            out.append(fincat.NatT(F, G, dict(comps)))
            return
        x = objs[i]
        for c in D.hom(F.on_obj[x], G.on_obj[x]):
            comps[x] = c
            ok = True
            for a, b, fm, gm in squares[i]:
                if D.compose_table[(gm, comps[a])] != D.compose_table[(comps[b], fm)]:
                    ok = False
                    break
            if ok:
                assign(i + 1, comps)
            del comps[x]

    assign(0, {})
    return out


def recursive_iso_categories(C, D):
    """iso_categories by recursive backtracking: objects matched by
    hom-profile in sorted order, then morphism bijections extended
    hom-set by hom-set over every pair of objects, then the composition
    table verified.  The oracle for fincat.iso_categories."""
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return None

    def profile(K):
        sizes = {}
        for x in K.objects:
            row = sorted(len(K.hom(x, y)) for y in K.objects)
            col = sorted(len(K.hom(y, x)) for y in K.objects)
            sizes[x] = (len(K.hom(x, x)), tuple(row), tuple(col))
        return sizes

    pc, pd = profile(C), profile(D)
    cobjs = sorted(C.objects)

    def match_mors(omap):
        pairs = []
        for x in cobjs:
            for y in cobjs:
                hc = C.hom(x, y)
                hd = D.hom(omap[x], omap[y])
                if len(hc) != len(hd):
                    return None
                pairs.append((list(hc), list(hd)))

        mmap = {}

        def extend(i):
            if i == len(pairs):
                for (g, f), gf in C.compose_table.items():
                    if D.compose_table[(mmap[g], mmap[f])] != mmap[gf]:
                        return False
                return True
            hc, hd = pairs[i]

            def pick(j, used):
                if j == len(hc):
                    return extend(i + 1)
                m = hc[j]
                for im in hd:
                    if im in used:
                        continue
                    if C.is_identity(m) != D.is_identity(im):
                        continue
                    mmap[m] = im
                    if pick(j + 1, used | {im}):
                        return True
                    del mmap[m]
                return False

            return pick(0, frozenset())

        if extend(0):
            return dict(mmap)
        return None

    omap = {}

    def assign(i, used):
        if i == len(cobjs):
            return match_mors(omap)
        x = cobjs[i]
        for d in sorted(D.objects):
            if d in used:
                continue
            if pc[x] != pd[d]:
                continue
            omap[x] = d
            got = assign(i + 1, used | {d})
            if got is not None:
                return got
            del omap[x]
        return None

    mmap = assign(0, frozenset())
    if mmap is None:
        return None
    fwd = fincat.Fun(C, D, dict(omap), mmap)
    back = fincat.Fun(
        D, C, {v: k for k, v in omap.items()}, {v: k for k, v in mmap.items()}
    )
    return fwd, back


def recursive_enumerate_paths(G, a, b, max_len):
    """enumerate_paths by recursive walking, scanning every edge of the
    graph at each step.  The oracle for freegen.enumerate_paths."""
    found = []

    def walk(at, acc):
        if at == b:
            found.append(tuple(acc))
        if len(acc) == max_len:
            return
        for e in sorted(G.edges):
            if G.src[e] == at:
                acc.append(e)
                walk(G.tgt[e], acc)
                acc.pop()

    walk(a, [])
    found.sort(key=lambda es: (len(es), es))
    return [Path(G, a, es) for es in found]


def z2_swap_workspace(n):
    """A workspace in which Z/2 acts on the discrete category P on the
    first n of the points a, b, c, ... by swapping a and b: the strict
    algebra swap, in a universe of depth 3, declared as z2_on_three.json
    declares its swap for n = 3."""
    points = "abcdefgh"[:n]
    moved = {"a": "b", "b": "a"}

    def act(g, x):
        return moved.get(x, x) if g == "s" else x

    pairs = [(g, x) for g in "es" for x in points]
    return {
        "categories": {
            "P": {
                "objects": list(points),
                "morphisms": {"id" + x: [x, x] for x in points},
                "identities": {x: "id" + x for x in points},
                "compose": [["id" + x] * 3 for x in points],
            }
        },
        "monoids": {
            "z2": {
                "elements": ["e", "s"],
                "unit": "e",
                "table": [["e", "e", "e"], ["e", "s", "s"], ["s", "e", "s"], ["s", "s", "e"]],
            }
        },
        "universes": {"U": {"monoid": "z2", "seeds": ["P"], "depth": 3}},
        "algebras": {
            "swap": {
                "universe": "U",
                "carrier": "P",
                "kind": "strict",
                "action": {
                    "on_objects": {"(%s,%s)" % (g, x): act(g, x) for g, x in pairs},
                    "on_morphisms": {"(%s,id%s)" % (g, x): "id" + act(g, x) for g, x in pairs},
                },
            }
        },
    }


def run_python(*args):
    """Run a fresh interpreter that imports this fin2cat."""
    src = os.path.dirname(os.path.dirname(fin2cat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def code_lines(path):
    """The code lines of a Python file: lines that hold a token other than
    a comment, not counting blank lines or the docstrings of the module,
    its classes and its functions.  A string spanning lines counts every
    line it spans."""
    with open(path) as fh:
        source = fh.read()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docs.update(range(first.lineno, first.end_lineno + 1))
    layout = {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


# ---------------------------------------------------------------------------
# the command line


# the determinism slate of acceptance check 7
CLI_SLATE = (
    ["validate", "--input", MONAD_FX],
    ["check-pseudomonad", "--input", MONAD_FX, "U"],
    ["check-algebra", "--input", MONAD_FX, "idalg"],
    ["check-morphism", "--input", MONAD_FX, "collapse"],
    ["hom", "--input", MONAD_FX, "idalg", "idalg", "lax"],
    ["descent", "--input", MONAD_FX, "Did"],
    ["lax-descent", "--input", MONAD_FX, "Did"],
    ["verify-prop-descent", "--input", MONAD_FX, "idalg", "idalg"],
    ["build-tzy", "--input", MONAD_FX, "idalg", "const1"],
    ["normalize-2cell", "--input", MONAD_FX, "DeltaDotLax", "1", "d0,p0", "0:sig00"],
    ["preorder-leq", "--input", MONAD_FX, "DeltaDotLax", "0", "d", "d,d0,s0"],
    ["kleisli", "--input", MONAD_FX, "const1"],
    ["strictify", "--input", MONAD_FX, "const1"],
    ["verify-codescent", "--input", MONAD_FX, "const1", "--probes", "1,C2"],
    ["validate", "--input", Z2_FX],
    ["check-pseudomonad", "--input", Z2_FX, "U2"],
    ["check-algebra", "--input", Z2_FX, "swap"],
    ["check-algebra", "--input", Z2_FX, "skew"],
    ["check-morphism", "--input", Z2_FX, "ident"],
    ["hom", "--input", Z2_FX, "swap", "swap", "pseudo"],
    ["verify-prop-descent", "--input", Z2_FX, "swap", "swap"],
    ["build-tzy", "--input", Z2_FX, "swap", "swap"],
)


def pinned_slate():
    """ROADMAP's determinism slate: test_7's commands, then hom (lax and
    pseudo), verify-prop-descent and build-tzy on every algebra pair of
    the first two fixtures, duplicates dropped, then descent and
    lax-descent on the diagram of z2_on_three.json and build-tzy on its
    pair swap -> fix, whose top level [T^2 P3, P3] has 531,441 functors
    and is sized without enumerating them.  Each argv is keyed by its
    words with the fixture paths cut to their file names."""
    argvs = [list(a) for a in CLI_SLATE]
    for path, algebras in ((MONAD_FX, ("idalg", "const1")), (Z2_FX, ("swap", "skew"))):
        for y, z in itertools.product(algebras, repeat=2):
            argvs.append(["hom", "--input", path, y, z, "lax"])
            argvs.append(["hom", "--input", path, y, z, "pseudo"])
            argvs.append(["verify-prop-descent", "--input", path, y, z])
            argvs.append(["build-tzy", "--input", path, y, z])
    for command in ("descent", "lax-descent"):
        argvs.append([command, "--input", Z2_ON_THREE_FX, "Dswapfix"])
    argvs.append(["build-tzy", "--input", Z2_ON_THREE_FX, "swap", "fix"])
    slate = {}
    for argv in argvs:
        key = " ".join(os.path.basename(w) if w.startswith(FIXTURES) else w for w in argv)
        slate.setdefault(key, argv)
    return slate


def fresh_cli_parser():
    """fin2cat's argument parser built anew, with no usage line preset, so
    argparse formats the usage on every parse: the oracle for cli._PARSER,
    whose usage line is formatted once, at import."""
    p = cli._Parser(
        prog="fin2cat",
        description="finite 2-category checks over a JSON workspace",
    )
    p.add_argument("command", help="one of: %s" % ", ".join(sorted(cli._COMMANDS)))
    p.add_argument("names", nargs="*", help="command arguments")
    p.add_argument("--input", help="workspace JSON file")
    p.add_argument("--budget", type=cli._budget, help="search/rewrite budget override")
    p.add_argument("--probes", help="comma-separated category names")
    p.add_argument("--out", help="also write the report here")
    return p
